"""Cost-budget admission control: the PRAM work bounds as a gatekeeper.

The paper's Table-1 formulas predict the search work of a query from
cheap instance statistics — n, m, the degeneracy s and the largest
community size γ — *before* any engine runs. A long-lived daemon is
where that finally earns its keep operationally: a single
``count(k=12)`` on a dense-ish graph can cost more than a million small
queries, and the only alternative to pricing it up front is letting it
monopolize the worker pool after the fact.

:func:`estimate_query` turns one request into a
:class:`~repro.pram.cost.Cost`-shaped :class:`QueryEstimate` using the
best-work bound ``k·m·((γ+3−k)/2)^{k−2}`` (§4.1; γ ≤ s bounds the
branching base, the ``m·s`` term charges preprocessing — waived when
the prepared context is already warm). The estimate is an *upper
bound* without the O-constant: admission compares estimates to budgets
expressed in the same abstract units, so the constant cancels out of
the policy.

:class:`AdmissionController` applies two budgets:

* **per-query** (``max_query_work``): a query whose predicted work
  exceeds it is rejected immediately with an ``over-budget`` error
  carrying the prediction — it would never be worth queueing;
* **global in-flight** (``max_inflight_work``): the sum of predicted
  work of running queries. An admissible query that would overflow it
  *queues* (FIFO via an asyncio condition) until capacity frees;
  ``queue_limit`` bounds the line, rejecting with ``queue-full`` beyond
  it so a burst degrades crisply instead of accumulating unbounded
  waiters;
* **resident memory** (``max_resident_bytes``): predicted peak frontier-
  table bytes, priced from ``(16·ceil(s/64) + 1)·m`` and capped at the budget
  for the ops the out-of-core sharded engine can stream
  (:mod:`repro.core.sharded`). A query whose residency cannot be
  streamed under the budget is rejected with ``over-memory``; admitted
  queries charge their residency against the shared envelope exactly
  like work.

Coalesced queries (joining an identical in-flight computation) never
reach admission: they add no work, so only flight leaders are priced.
The controller is event-loop-confined — all methods run on the daemon's
loop, so its counters need no lock.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from contextlib import asynccontextmanager

from ..analysis.bounds import BoundInputs, work_best
from ..core.sharded import predict_table_bytes
from ..pram.cost import Cost
from .protocol import ServiceError

__all__ = [
    "QueryEstimate",
    "estimate_query",
    "AdmissionController",
]


@dataclass(frozen=True)
class QueryEstimate:
    """Predicted cost of one query, with the formula that produced it.

    ``table_bytes`` is the full in-RAM frontier-table footprint the
    query would materialize (``(16·ceil(s/64) + 1)·m`` — out-degrees under a
    degeneracy order are bounded by ``s``, so the prediction needs only
    registry statistics); ``resident_bytes`` is what will actually stay
    resident at peak, i.e. ``table_bytes`` capped at the serving memory
    budget for the ops the out-of-core sharded engine can stream.
    """

    work: float
    depth: float
    formula: str
    table_bytes: float = 0.0
    resident_bytes: float = 0.0

    @property
    def cost(self) -> Cost:
        return Cost(self.work, self.depth)

    def to_dict(self) -> dict:
        return {
            "work": self.work,
            "depth": self.depth,
            "formula": self.formula,
            "table_bytes": self.table_bytes,
            "resident_bytes": self.resident_bytes,
        }


def _search_work(n: int, m: int, k: int, branch: int) -> float:
    """The §4.1 best-work bound with ``branch`` as the branching base."""
    return work_best(BoundInputs(n=n, m=m, k=k, s=branch))


def estimate_query(
    op: str,
    n: int,
    m: int,
    degeneracy: int,
    gamma: Optional[int] = None,
    k: Optional[int] = None,
    k_max: Optional[int] = None,
    warm: bool = False,
    memory_budget_bytes: Optional[int] = None,
) -> QueryEstimate:
    """Price one query op from graph statistics, before any engine runs.

    ``gamma`` (largest community size) tightens the branching base when
    known; it is ≤ the degeneracy ``s``, which is always a safe proxy.
    ``warm=True`` waives the ``m·s`` preprocessing term — the prepared
    context already holds the order/orientation/communities.

    * ``count``/``list`` at clique size ``k``: preprocessing +
      ``k·m·((γ+3−k)/2)^{k−2}``. ``k ≤ 2`` is answered closed-form
      (``n + m``); ``k > s + 1`` cannot have a witness, so only the
      degeneracy fast path is charged.
    * ``find``: priced like ``count`` — the early exit helps only when a
      witness exists, and admission must hold on the witness-free worst
      case.
    * ``spectrum``: the sum of per-k search bounds over ``3 ≤ k ≤
      min(k_max, s + 1)`` on one shared preprocessing pass.

    Memory is priced alongside work: ``table_bytes`` is the full
    frontier-table footprint a k ≥ 4 search would materialize, and
    ``resident_bytes`` caps it at ``memory_budget_bytes`` for ``count``
    and ``list`` — the ops the out-of-core sharded engine streams under
    the budget. The spectrum sweep holds full tables across its k's, so
    its residency is *not* capped: on a graph whose tables dwarf the
    budget, admission rejects the spectrum (``over-memory``) while the
    shardable ops still serve.
    """
    s = max(int(degeneracy), 0)
    branch = s if gamma is None else min(max(int(gamma), 0), s)
    prep = 0.0 if warm else float(m) * max(s, 1) + float(n)
    # Depth follows the hybrid bound O(s + log² n) — the serving engines
    # are level-synchronous, not the O(n) sequential-peel worst case.
    depth = float(s + math.log2(max(n, 2)) ** 2)

    if op == "spectrum":
        top = s + 1 if k_max is None else min(int(k_max), s + 1)
        search = float(n + m)
        for kk in range(3, top + 1):
            search += _search_work(n, m, kk, branch)
        tables = float(predict_table_bytes(m, s)) if top >= 4 else 0.0
        return QueryEstimate(
            work=prep + search,
            depth=depth,
            formula="Σ_k k·m·((γ+3−k)/2)^{k−2} + m·s",
            table_bytes=tables,
            resident_bytes=tables,
        )

    if k is None:
        raise ValueError(f"op {op!r} needs a clique size k to be priced")
    k = int(k)
    if k <= 2:
        return QueryEstimate(
            work=float(n + m), depth=math.log2(max(n, 2)), formula="n + m"
        )
    if k > s + 1:
        # The degeneracy fast path answers without building communities.
        return QueryEstimate(
            work=float(n) + float(m),
            depth=math.log2(max(n, 2)),
            formula="n + m (k > s + 1: no witness possible)",
        )
    search = _search_work(n, m, k, branch)
    # `find` never builds the frontier tables (early-exit recursion over
    # communities); only the table-backed ops carry a memory price.
    tables = (
        float(predict_table_bytes(m, s))
        if k >= 4 and op in ("count", "list")
        else 0.0
    )
    resident = tables
    if (
        memory_budget_bytes is not None
        and op in ("count", "list")
        and tables > memory_budget_bytes
    ):
        # The sharded engine streams these ops under the budget: at
        # peak, only the windowed blocks are resident.
        resident = float(memory_budget_bytes)
    return QueryEstimate(
        work=prep + search,
        depth=depth,
        formula="k·m·((γ+3−k)/2)^{k−2} + m·s",
        table_bytes=tables,
        resident_bytes=resident,
    )


class AdmissionController:
    """Budgeted admission of flight leaders onto the worker pool.

    ``None`` budgets disable the corresponding check (the default daemon
    is open; ``repro serve --max-query-work/--max-inflight-work`` arms
    them). All state is event-loop-confined.
    """

    def __init__(
        self,
        max_query_work: Optional[float] = None,
        max_inflight_work: Optional[float] = None,
        queue_limit: int = 64,
        metrics: Any = None,
        max_resident_bytes: Optional[int] = None,
    ) -> None:
        if max_query_work is not None and max_query_work <= 0:
            raise ValueError("max_query_work must be positive (or None)")
        if max_inflight_work is not None and max_inflight_work <= 0:
            raise ValueError("max_inflight_work must be positive (or None)")
        if queue_limit < 0:
            raise ValueError("queue_limit must be non-negative")
        if max_resident_bytes is not None and max_resident_bytes <= 0:
            raise ValueError("max_resident_bytes must be positive (or None)")
        self.max_query_work = max_query_work
        self.max_inflight_work = max_inflight_work
        self.max_resident_bytes = max_resident_bytes
        self.queue_limit = queue_limit
        self.inflight_work = 0.0
        self.inflight_bytes = 0.0
        self.inflight_queries = 0
        self.queued = 0
        self._metrics = metrics
        # Created lazily so the controller can be built off-loop (the CLI
        # constructs the service before asyncio.run).
        self._capacity: Optional[asyncio.Condition] = None

    def _condition(self) -> asyncio.Condition:
        if self._capacity is None:
            self._capacity = asyncio.Condition()
        return self._capacity

    def _gauges(self) -> None:
        if self._metrics is not None:
            self._metrics.gauge("service.queue_depth").set(self.queued)
            self._metrics.gauge("service.inflight_work").set(
                self.inflight_work
            )
            self._metrics.gauge("service.inflight_bytes").set(
                self.inflight_bytes
            )

    def _fits(self, work: float, resident: float) -> bool:
        # An empty pool always admits: a single query larger than a
        # global budget must not deadlock (the per-query checks are the
        # knob for rejecting it outright).
        if self.inflight_queries == 0:
            return True
        if (
            self.max_inflight_work is not None
            and self.inflight_work + work > self.max_inflight_work
        ):
            return False
        if (
            self.max_resident_bytes is not None
            and self.inflight_bytes + resident > self.max_resident_bytes
        ):
            return False
        return True

    @asynccontextmanager
    async def admit(self, estimate: QueryEstimate, label: str) -> Iterator[None]:
        """Hold one admitted slot for the duration of an engine run.

        Raises ``over-budget`` / ``queue-full`` :class:`ServiceError`\\ s;
        otherwise waits for global capacity, then yields with the
        estimate charged against the in-flight budget.
        """
        work = float(estimate.work)
        resident = float(estimate.resident_bytes)
        if self.max_query_work is not None and work > self.max_query_work:
            if self._metrics is not None:
                self._metrics.counter("service.rejected").inc()
            raise ServiceError(
                "over-budget",
                f"{label}: predicted work {work:.4g} exceeds the per-query "
                f"budget {self.max_query_work:.4g}",
                {
                    "predicted_work": work,
                    "predicted_depth": estimate.depth,
                    "max_query_work": self.max_query_work,
                    "formula": estimate.formula,
                },
            )
        if (
            self.max_resident_bytes is not None
            and resident > self.max_resident_bytes
        ):
            # Predicted peak table residency the sharded engine cannot
            # stream down (a spectrum sweep, or a budget set below one
            # window): admitting it would blow the resident envelope no
            # matter how empty the pool is.
            if self._metrics is not None:
                self._metrics.counter("service.rejected").inc()
            raise ServiceError(
                "over-memory",
                f"{label}: predicted resident table bytes {resident:.4g} "
                f"exceed the memory budget {self.max_resident_bytes}",
                {
                    "predicted_table_bytes": estimate.table_bytes,
                    "predicted_resident_bytes": resident,
                    "max_resident_bytes": self.max_resident_bytes,
                },
            )
        cond = self._condition()
        async with cond:
            if not self._fits(work, resident):
                if self.queued >= self.queue_limit:
                    if self._metrics is not None:
                        self._metrics.counter("service.rejected").inc()
                    raise ServiceError(
                        "queue-full",
                        f"{label}: admission queue is at its limit "
                        f"({self.queue_limit} waiting)",
                        {
                            "predicted_work": work,
                            "queue_limit": self.queue_limit,
                        },
                    )
                self.queued += 1
                if self._metrics is not None:
                    self._metrics.counter("service.queued").inc()
                self._gauges()
                try:
                    await cond.wait_for(lambda: self._fits(work, resident))
                finally:
                    self.queued -= 1
                    self._gauges()
            self.inflight_work += work
            self.inflight_bytes += resident
            self.inflight_queries += 1
            if self._metrics is not None:
                self._metrics.counter("service.admitted").inc()
            self._gauges()
        try:
            yield
        finally:
            async with cond:
                self.inflight_work -= work
                self.inflight_bytes -= resident
                self.inflight_queries -= 1
                if self.inflight_queries == 0:
                    # Guard float drift: an idle pool owes exactly zero.
                    self.inflight_work = 0.0
                    self.inflight_bytes = 0.0
                self._gauges()
                cond.notify_all()
