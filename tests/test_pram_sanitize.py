"""CREW sanitizer: conflict detection, shadow arrays, executor wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import count_cliques
from repro.graphs.generators import clique_chain
from repro.pram.executor import parallel_map_reduce
from repro.pram.sanitize import CREWViolation, ShadowArray, _normalize_indices
from repro.pram.tracker import Tracker


# -- direct conflicts ------------------------------------------------------


def test_write_write_conflict_raises():
    t = Tracker(sanitize=True)
    shared = t.watch([0, 0, 0], name="shared")
    with pytest.raises(CREWViolation) as exc:
        with t.parallel() as region:
            with region.task():
                shared[1] = 10
            with region.task():
                shared[1] = 20
    assert exc.value.kind == "write/write"
    assert exc.value.array_name == "shared"
    assert exc.value.index == 1


def test_disjoint_writes_pass():
    t = Tracker(sanitize=True)
    shared = t.watch([0] * 4, name="shared")
    with t.parallel() as region:
        for i in range(4):
            with region.task():
                shared[i] = i
    assert shared.base == [0, 1, 2, 3]


def test_read_write_race_write_after_read():
    t = Tracker(sanitize=True)
    shared = t.watch([5, 6], name="s")
    with pytest.raises(CREWViolation) as exc:
        with t.parallel() as region:
            with region.task():
                _ = shared[0]
            with region.task():
                shared[0] = 9
    assert exc.value.kind == "read/write"


def test_read_write_race_read_after_write():
    t = Tracker(sanitize=True)
    shared = t.watch([5, 6], name="s")
    with pytest.raises(CREWViolation) as exc:
        with t.parallel() as region:
            with region.task():
                shared[0] = 9
            with region.task():
                _ = shared[0]
    assert exc.value.kind == "read/write"


def test_concurrent_reads_are_fine():
    t = Tracker(sanitize=True)
    shared = t.watch([1, 2, 3])
    got = []
    with t.parallel() as region:
        for _ in range(3):
            with region.task():
                got.append(shared[0])
    assert got == [1, 1, 1]


def test_same_task_may_read_and_write_its_cell():
    t = Tracker(sanitize=True)
    shared = t.watch([0, 0])
    with t.parallel() as region:
        with region.task():
            shared[0] = shared[0] + 1
            shared[0] = shared[0] + 1
    assert shared.base == [2, 0]


def test_sequential_access_outside_tasks_is_unchecked():
    t = Tracker(sanitize=True)
    shared = t.watch([0])
    shared[0] = 1  # no open task: sequential code cannot race
    shared[0] = 2
    with t.parallel() as region:
        with region.task():
            shared[0] = 3
    assert shared.base == [3]


def test_explicit_record_api_and_numpy_indices():
    t = Tracker(sanitize=True)
    arr = np.zeros(8)
    with pytest.raises(CREWViolation):
        with t.parallel() as region:
            with region.task():
                t.record_write(arr, np.array([0, 1, 2]))
            with region.task():
                t.record_write(arr, slice(2, 5))  # overlaps cell 2


def test_bool_mask_and_tuple_indices():
    assert _normalize_indices(np.array([True, False, True])) == [0, 2]
    assert _normalize_indices((1, 2)) == [(1, 2)]
    assert _normalize_indices(3) == [3]
    with pytest.raises(TypeError):
        _normalize_indices(slice(0, 2))  # slice needs a length
    with pytest.raises(TypeError):
        _normalize_indices(True)


def test_nested_region_folds_into_outer_task():
    t = Tracker(sanitize=True)
    shared = t.watch([0, 0], name="deep")
    with pytest.raises(CREWViolation):
        with t.parallel() as outer:
            with outer.task():
                with t.parallel() as inner:
                    with inner.task():
                        shared[0] = 1
            with outer.task():
                with t.parallel() as inner:
                    with inner.task():
                        shared[0] = 2


# -- shadow array mechanics ------------------------------------------------


def test_watch_is_identity_when_not_sanitizing():
    t = Tracker()
    arr = [1, 2, 3]
    assert t.watch(arr) is arr
    null = Tracker(enabled=False, sanitize=True)  # disabled wins
    assert null.watch(arr) is arr


def test_shadow_array_delegates():
    t = Tracker(sanitize=True)
    arr = np.arange(4)
    shadow = t.watch(arr, name="a")
    assert isinstance(shadow, ShadowArray)
    assert shadow.base is arr
    assert len(shadow) == 4
    assert list(iter(shadow)) == [0, 1, 2, 3]
    assert shadow.sum() == 6  # __getattr__ delegation
    assert "ShadowArray" in repr(shadow)


def test_double_watch_shares_identity():
    t = Tracker(sanitize=True)
    arr = [0, 0]
    s1 = t.watch(arr)
    s2 = t.watch(s1)  # re-watching a shadow must not nest
    assert s2.base is arr
    with pytest.raises(CREWViolation):
        with t.parallel() as region:
            with region.task():
                s1[0] = 1
            with region.task():
                s2[0] = 2


def test_reset_recreates_sanitizer_and_rejects_open_tasks():
    t = Tracker(sanitize=True)
    shared = t.watch([0])
    with pytest.raises(RuntimeError):
        with t.parallel() as region:
            with region.task():
                t.reset()
    t2 = Tracker(sanitize=True)
    t2.charge_ops(5)
    t2.reset()
    assert t2.work == 0
    assert t2._sanitizer is not None


# -- executor integration --------------------------------------------------


def _writer_conflict(chunk, shared):
    shared[0] = int(chunk[0])  # every chunk writes cell 0
    return 0


def _writer_disjoint(chunk, shared):
    for i in chunk.tolist():
        shared[int(i)] = 1
    return int(chunk.size)


def test_executor_sanitize_catches_shared_write():
    t = Tracker(sanitize=True)
    shared = t.watch([0] * 16, name="accum")
    with pytest.raises(CREWViolation):
        parallel_map_reduce(
            _writer_conflict, 16, args=(shared,), n_workers=4, tracker=t
        )


def test_executor_sanitize_passes_disjoint_writes():
    t = Tracker(sanitize=True)
    shared = t.watch([0] * 16, name="cells")
    total = parallel_map_reduce(
        _writer_disjoint, 16, args=(shared,), n_workers=4, initial=0, tracker=t
    )
    assert total == 16
    assert shared.base == [1] * 16


def test_frontier_fanout_is_crew_clean():
    g = clique_chain(3, 6)
    expected = count_cliques(g, 4, engine="frontier").count
    got = count_cliques(
        g, 4, engine="frontier", workers=4, tracker=Tracker(sanitize=True)
    ).count
    assert got == expected == 45
