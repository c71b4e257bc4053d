"""Windowed evolution of metrics over a trace.

The paper's evolution figures (1A, 5, 6, 7, 8) plot a metric computed on
back-to-back snapshots across two weeks.  ``observe`` streams a trace
once, materialising a snapshot per observation instant and applying any
number of metric functions to it — so a multi-hundred-MB trace is never
resident in memory.  It runs in one process: trace decode, not snapshot
work, dominates an analysis, so fanning windows out to worker processes
does not pay (DESIGN.md Sec. 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterable

from repro.core.snapshots import TopologySnapshot, build_snapshot
from repro.obs.spans import NULL_OBSERVER, AnyObserver
from repro.traces.records import PeerReport
from repro.traces.store import iter_windows

MetricFn = Callable[[TopologySnapshot], object]


@dataclass
class SnapshotSeries:
    """Aligned time series: one row of metric values per observation."""

    times: list[float] = field(default_factory=list)
    values: dict[str, list[object]] = field(default_factory=dict)

    def append(self, time: float, row: dict[str, object]) -> None:
        """Add one observation row at ``time``."""
        self.times.append(time)
        for key, value in row.items():
            self.values.setdefault(key, []).append(value)

    def column(self, key: str) -> list[object]:
        """All values of one metric, aligned with :attr:`times`."""
        return self.values[key]

    def __len__(self) -> int:
        return len(self.times)

    def rows(self) -> Iterable[tuple[float, dict[str, object]]]:
        """Iterate (time, {metric: value}) rows."""
        for i, t in enumerate(self.times):
            yield t, {k: v[i] for k, v in self.values.items()}


def observe(
    reports: Iterable[PeerReport],
    metrics: dict[str, MetricFn],
    *,
    window_seconds: float = 600.0,
    observe_every: float | None = None,
    start: float = 0.0,
    active_threshold: int = 10,
    obs: AnyObserver = NULL_OBSERVER,
) -> SnapshotSeries:
    """Apply ``metrics`` to the snapshot of each observation window.

    ``observe_every`` subsamples: only windows starting on a multiple of
    it (relative to ``start``) are materialised — e.g. hourly snapshots
    from a 10-minute-resolution trace.  Defaults to every window.

    With an enabled ``obs``, each materialised snapshot is timed under
    the ``analytics.snapshot`` span and every metric function under
    ``analytics.metric.<name>``, with ``analytics.snapshot_nodes``
    tracking graph size — the per-metric compute profile of a figure.
    """
    if observe_every is None:
        observe_every = window_seconds
    if observe_every < window_seconds:
        raise ValueError("observe_every must be >= window_seconds")
    series = SnapshotSeries()
    for window_start, window_reports in iter_windows(
        reports, window_seconds, start=start
    ):
        offset = window_start - start
        if (offset % observe_every) > 1e-9:
            continue
        with obs.span("analytics.snapshot"):
            snapshot = build_snapshot(
                window_reports,
                time=window_start,
                window_seconds=window_seconds,
                active_threshold=active_threshold,
            )
        if not obs.enabled:
            row = {name: fn(snapshot) for name, fn in metrics.items()}
        else:
            obs.count("analytics.snapshots")
            obs.gauge_set("analytics.snapshot_nodes", snapshot.num_total)
            row = {}
            for name, fn in metrics.items():
                with obs.span(f"analytics.metric.{name}"):
                    row[name] = fn(snapshot)
        series.append(window_start, row)
    return series


def round_event_series(events: Iterable[dict[str, object]]) -> SnapshotSeries:
    """Per-round observability events as a :class:`SnapshotSeries`.

    Consumes the ``type == "round"`` events an instrumented simulator
    appends to its JSONL event log (see ``repro.obs``): each becomes one
    row keyed by simulated time, with every other numeric field
    (viewers, satisfied, transfers, arrivals, ...) as a column — so the
    run's live telemetry plots with the same tooling as trace-derived
    series.
    """
    series = SnapshotSeries()
    for event in events:
        if event.get("type") != "round":
            continue
        row = {
            key: value
            for key, value in event.items()
            if key not in ("type", "sim_time")
        }
        time = event.get("sim_time", 0.0)
        series.append(float(time) if isinstance(time, (int, float)) else 0.0, row)
    return series
