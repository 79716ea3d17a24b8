"""Performance instrumentation: one stats model for the whole project.

:class:`Stats` (named counters and integer-keyed histograms under one
lock, plus bounded latency reservoirs) backs every stats holder — the
process-wide retrieval :data:`COUNTERS`, each serving layer and the
network fleet.
:func:`merge` folds snapshots across processes and :func:`format_stats`
renders any snapshot as the ``--stats`` text block.
"""

from repro.perf.stats import (
    COUNTERS,
    LatencyReservoir,
    Stats,
    encoder_throughput,
    format_stats,
    merge,
    percentile,
    ratio,
    time_block,
)

__all__ = [
    "COUNTERS",
    "LatencyReservoir",
    "Stats",
    "encoder_throughput",
    "format_stats",
    "merge",
    "percentile",
    "ratio",
    "time_block",
]
