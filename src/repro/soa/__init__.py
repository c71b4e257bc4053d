"""Incremental window analytics (``repro.soa.incremental``).

Re-exports :class:`IncrementalWindowMetrics`, which maintains per-window
degree histograms, reciprocity and clustering from edge deltas between
consecutive snapshots, and :func:`observe_incremental`, its driver.
"""

from repro.soa.incremental import IncrementalWindowMetrics, observe_incremental

__all__ = [
    "IncrementalWindowMetrics",
    "observe_incremental",
]
