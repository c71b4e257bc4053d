"""Windowed structure analytics: full recompute vs incremental.

Degree histograms, reciprocity and clustering per window, recomputed
from each window's snapshot vs maintained incrementally from edge
deltas, on a 12-hour ~700-peer trace.  Both sides run in one session,
so every BENCH_report.json carries the ratio.

Ratios are derived from the report, not asserted here: wall-clock on a
shared box is too noisy for a hard gate, and ``baseline.json`` already
flags regressions run-over-run.
"""

from benchmarks.conftest import BENCH_ANALYTICS
from repro.core.experiments import windowed_structure
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
        return windowed_structure(reports, mode="full")

    _check_series(benchmark.pedantic(analyze, rounds=3, iterations=1))


def test_window_structure_incremental(benchmark):
    reports = _window_trace()

    def analyze():
        return windowed_structure(reports, mode="incremental")

    _check_series(benchmark.pedantic(analyze, rounds=3, iterations=1))


def test_window_structure_configured_mode(benchmark):
    """The mode selected by REPRO_BENCH_ANALYTICS (default incremental).

    This is the row dashboards track over time; the explicit pair above
    exists to measure the ratio regardless of the configured mode.
    """
    reports = _window_trace()

    def analyze():
        return windowed_structure(reports, mode=BENCH_ANALYTICS)

    _check_series(benchmark.pedantic(analyze, rounds=3, iterations=1))
