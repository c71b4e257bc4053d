"""Windowed structure analytics: the per-window kernel vs its oracle.

Degree histograms, reciprocity and clustering per window on a 12-hour
~700-peer trace, computed by ``windowed_structure`` (the stateless
per-window kernel ``analyze --figure windows`` runs) and by the
snapshot-kernel oracle (``observe`` over ``WINDOW_STRUCTURE_METRICS``:
a snapshot per window, then the CSR kernels).  Both sides run in one
session, so every BENCH_report.json carries the ratio.  The row names
predate the kernel and are kept so the baseline stays comparable.

Ratios are derived from the report, not asserted here: wall-clock on a
shared box is too noisy for a hard gate, and ``baseline.json`` already
flags regressions run-over-run.
"""

from repro.core.experiments import WINDOW_STRUCTURE_METRICS, windowed_structure
from repro.core.timeseries import observe
from repro.simulator import SystemConfig, UUSeeSystem
from repro.traces import InMemoryTraceStore


def _window_trace():
    """12 simulated hours at ~700 peers: ~70 analysis windows."""
    config = SystemConfig(seed=99, base_concurrency=700.0, flash_crowd=None)
    system = UUSeeSystem(config, InMemoryTraceStore())
    system.run(seconds=12 * 3600)
    return list(system.trace_server.store.reports)


def _check_series(series) -> None:
    assert len(series.times) >= 60
    assert all(v is not None for v in series.values["clustering"])


def test_window_structure_full(benchmark):
    reports = _window_trace()

    def analyze():
        return observe(reports, WINDOW_STRUCTURE_METRICS)

    _check_series(benchmark.pedantic(analyze, rounds=3, iterations=1))


def test_window_structure_incremental(benchmark):
    reports = _window_trace()

    def analyze():
        return windowed_structure(reports)

    _check_series(benchmark.pedantic(analyze, rounds=3, iterations=1))
