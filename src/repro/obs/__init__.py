"""Observability: phase spans, metrics, bench records, regression gates.

The layer that turns "the benchmarks exist" into "the benchmarks are a
guarded time series". Four pieces, each usable on its own:

* :mod:`repro.obs.spans` — hierarchical phase spans (wall time + tracked
  work/depth deltas), fed automatically by ``Tracker.phase`` once a
  :class:`SpanRecorder` is attached;
* :mod:`repro.obs.metrics` — counters / gauges / histograms for the
  hot-loop quantities (candidate-set sizes, pruning hit-rates, executor
  chunk imbalance), exported as JSON;
* :mod:`repro.obs.records` — the ``BENCH_<timestamp>.json`` schema, with
  structural validation on both write and load;
* :mod:`repro.obs.compare` — the regression checker behind
  ``repro bench --compare`` (configurable tolerance, nonzero exit on a
  slowdown, count mismatches always fatal).

``repro profile`` (:mod:`repro.obs.profile`) bundles the first two into
a one-shot report.
"""

from .compare import (
    DEFAULT_METRICS,
    CellDelta,
    ComparisonReport,
    compare_records,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import ProfileReport, format_profile, profile_run
from .records import (
    SCHEMA,
    SCHEMA_VERSION,
    entry_key,
    load_record,
    make_record,
    validate_record,
    write_record,
)
from .spans import Span, SpanRecorder, format_span_tree

__all__ = [
    "Span",
    "SpanRecorder",
    "format_span_tree",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SCHEMA",
    "SCHEMA_VERSION",
    "make_record",
    "validate_record",
    "write_record",
    "load_record",
    "entry_key",
    "CellDelta",
    "ComparisonReport",
    "compare_records",
    "DEFAULT_METRICS",
    "ProfileReport",
    "profile_run",
    "format_profile",
]
