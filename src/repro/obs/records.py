"""Machine-readable benchmark records: ``BENCH_<timestamp>.json``.

One record captures one ``repro bench`` invocation: per (dataset × k ×
algorithm) cell the wall mean/std, tracked work/depth, the Brent
72-processor time, and the peak candidate-set size — the columns of the
paper's Figures 7–9 plus the hot-loop quantities that predict them. The
record embeds the metrics-registry export and the span tree when the run
collected them, so a single JSON file is enough to diagnose *where* a
regression happened, not just that it did.

The schema is validated structurally (no external dependency): a record
that is missing a required field, or whose entries carry the wrong types,
is rejected by :func:`validate_record` with a list of human-readable
errors. ``repro bench --compare`` (:mod:`repro.obs.compare`) consumes two
of these records and turns the trajectory into a guarded time series.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "make_record",
    "validate_record",
    "write_record",
    "load_record",
    "entry_key",
]

SCHEMA = "repro/bench-record"
# Version 2 added the optional ``peak_rss_kb`` entry field; version 3
# added a top-level ``traces`` list that is no longer written. Unknown
# top-level keys are ignored, so version-1/-2 baselines and v3 files
# that still carry ``traces`` load and compare.
SCHEMA_VERSION = 3

# Required per-entry numeric fields and their types. ``count`` is the
# correctness anchor: two records with differing counts for one cell are
# never comparable (something is broken, not slow).
_ENTRY_FIELDS: Dict[str, type] = {
    "graph": str,
    "algorithm": str,
    "k": int,
    "count": int,
    "wall_mean": float,
    "wall_std": float,
    "work": float,
    "depth": float,
    "t72": float,
    "repeats": int,
    "search_work": float,
    "peak_candidate": int,
}

# Optional per-entry fields: written by current harnesses, tolerated as
# absent so pre-existing committed baselines keep loading. ``engine`` is
# the *resolved* executor that produced the cell (``auto`` never appears
# here) — the comparison gate refuses to diff cells whose engines differ.
_OPTIONAL_ENTRY_FIELDS: Dict[str, type] = {
    "engine": str,
    "peak_rss_kb": int,
}


def entry_key(entry: Dict[str, Any]) -> tuple:
    """The identity of a cell: records are joined on (graph, algorithm, k)."""
    return (entry["graph"], entry["algorithm"], entry["k"])


def make_record(
    measurements: List[Any],
    metrics: Optional[Dict[str, Any]] = None,
    spans: Optional[Dict[str, Any]] = None,
    note: str = "",
) -> Dict[str, Any]:
    """Build a schema-conforming record from harness ``Measurement``s."""
    entries = []
    for m in measurements:
        entries.append(
            {
                "graph": m.graph,
                "algorithm": m.algorithm,
                "k": int(m.k),
                "count": int(m.count),
                "wall_mean": float(m.wall_mean),
                "wall_std": float(m.wall_std),
                "work": float(m.work),
                "depth": float(m.depth),
                "t72": float(m.t72),
                "repeats": int(m.repeats),
                "search_work": float(m.search_work),
                "peak_candidate": int(getattr(m, "peak_candidate", 0)),
                "engine": str(getattr(m, "engine", "") or m.algorithm),
                "peak_rss_kb": int(getattr(m, "peak_rss_kb", 0)),
            }
        )
    record: Dict[str, Any] = {
        "schema": SCHEMA,
        "version": SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "note": note,
        "entries": entries,
    }
    if metrics is not None:
        record["metrics"] = metrics
    if spans is not None:
        record["spans"] = spans
    return record


def validate_record(record: Any) -> List[str]:
    """Structural schema check; returns a list of errors (empty = valid)."""
    errors: List[str] = []
    if not isinstance(record, dict):
        return [f"record must be an object, got {type(record).__name__}"]
    if record.get("schema") != SCHEMA:
        errors.append(
            f"schema must be {SCHEMA!r}, got {record.get('schema')!r}"
        )
    if not isinstance(record.get("version"), int):
        errors.append("version must be an integer")
    elif record["version"] > SCHEMA_VERSION:
        errors.append(
            f"record version {record['version']} is newer than this "
            f"library's {SCHEMA_VERSION}"
        )
    entries = record.get("entries")
    if not isinstance(entries, list):
        errors.append("entries must be a list")
        return errors
    seen = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            errors.append(f"entries[{i}] must be an object")
            continue
        for field, typ in _ENTRY_FIELDS.items():
            if field not in entry:
                errors.append(f"entries[{i}] missing field {field!r}")
            else:
                value = entry[field]
                ok = (
                    isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    if typ is float
                    else isinstance(value, typ) and not isinstance(value, bool)
                )
                if not ok:
                    errors.append(
                        f"entries[{i}].{field} must be {typ.__name__}, "
                        f"got {type(value).__name__}"
                    )
        for field, typ in _OPTIONAL_ENTRY_FIELDS.items():
            if field in entry and not isinstance(entry[field], typ):
                errors.append(
                    f"entries[{i}].{field} must be {typ.__name__}, "
                    f"got {type(entry[field]).__name__}"
                )
        if all(f in entry for f in ("graph", "algorithm", "k")):
            key = entry_key(entry)
            if key in seen:
                errors.append(f"entries[{i}] duplicates cell {key}")
            seen.add(key)
    return errors


def write_record(
    record: Dict[str, Any],
    path: Optional[str] = None,
    out_dir: str = ".",
) -> str:
    """Write ``record`` to ``path`` (default ``BENCH_<timestamp>.json``).

    Validates before writing — a malformed record never reaches disk,
    so every committed baseline is schema-clean by construction.
    """
    errors = validate_record(record)
    if errors:
        raise ValueError(
            "refusing to write invalid bench record:\n  " + "\n  ".join(errors)
        )
    if path is None:
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
        path = os.path.join(out_dir, f"BENCH_{stamp}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_record(path: str) -> Dict[str, Any]:
    """Load and validate a record; raises ``ValueError`` when malformed."""
    with open(path) as fh:
        record = json.load(fh)
    errors = validate_record(record)
    if errors:
        raise ValueError(
            f"invalid bench record {path}:\n  " + "\n  ".join(errors)
        )
    return record
