"""Windowed evolution of metrics over a trace, in one streaming pass.

The paper's figures (1-8) are all read off back-to-back snapshots of one
very large trace.  :func:`sweep` streams a trace *once* and serves every
figure from that pass: each figure names the windows it samples (every
window, every hour, every six hours, or the windows holding a few
instants) and the metric functions it applies, per-report accumulators
(Fig. 1(B)'s daily IP counts) see every report, and a window's snapshot
is built at most once, only if some figure samples it, and shared by all
of them.  Only one window's reports are held at a time, so a
multi-hundred-MB trace is never resident in memory.  :func:`observe` is
the one-figure special case.  Decode dominates an analysis (DESIGN.md
Sec. 8), which is why the pass is shared rather than fanned out to
worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import Protocol, cast

from repro.core.snapshots import (
    DEFAULT_ACTIVE_THRESHOLD,
    TopologySnapshot,
    build_snapshot,
)
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


@dataclass(frozen=True)
class Every:
    """Sample the windows that start on a multiple of ``every`` seconds
    (counted from the pass's ``start``; ``None``: every window) and apply
    ``metrics`` to each one's snapshot.  Result: a :class:`SnapshotSeries`."""

    metrics: Mapping[str, MetricFn]
    every: float | None = None


@dataclass(frozen=True)
class At:
    """Apply ``metrics`` to the snapshot of the window holding each
    labelled instant.  Result: ``{label: row}`` in the order found.  The
    schedule is complete once every label is found; a pass whose
    schedules are all complete stops reading."""

    metrics: Mapping[str, MetricFn]
    instants: Mapping[str, float]


class ReportAccumulator(Protocol):
    """What :class:`EachReport` feeds, e.g. :class:`~repro.core.metrics.DailyDistinctIps`."""

    def add(self, report: PeerReport) -> None:
        """Take the next report of the pass."""

    def result(self) -> object:
        """The accumulated value, once the pass has ended."""


@dataclass(frozen=True)
class EachReport:
    """Feed every report the pass reads, in stream order, to a fresh
    accumulator from ``factory``.  Result: the accumulator's ``result()``."""

    factory: Callable[[], ReportAccumulator]


Schedule = Every | At | EachReport


@dataclass
class SweepResult:
    """What each schedule of a :func:`sweep` produced, or what ended it."""

    results: dict[str, object] = field(default_factory=dict)
    errors: dict[str, ValueError] = field(default_factory=dict)

    def __getitem__(self, name: str) -> object:
        """The result of schedule ``name``; re-raises the error that ended it."""
        error = self.errors.get(name)
        if error is not None:
            raise error
        return self.results[name]


def _snapshot(
    reports: list[PeerReport],
    window_start: float,
    window_seconds: float,
    active_threshold: int,
    obs: AnyObserver,
) -> TopologySnapshot:
    with obs.span("analytics.snapshot"):
        snapshot = build_snapshot(
            reports,
            time=window_start,
            window_seconds=window_seconds,
            active_threshold=active_threshold,
        )
    if obs.enabled:
        obs.count("analytics.snapshots")
        obs.gauge_set("analytics.snapshot_nodes", snapshot.num_total)
    return snapshot


def _apply(
    metrics: Mapping[str, MetricFn], snapshot: TopologySnapshot, obs: AnyObserver
) -> dict[str, object]:
    if not obs.enabled:
        return {name: fn(snapshot) for name, fn in metrics.items()}
    row: dict[str, object] = {}
    for name, fn in metrics.items():
        with obs.span(f"analytics.metric.{name}"):
            row[name] = fn(snapshot)
    return row


def sweep(
    reports: Iterable[PeerReport],
    schedules: Mapping[str, Schedule],
    *,
    window_seconds: float = 600.0,
    start: float = 0.0,
    active_threshold: int = DEFAULT_ACTIVE_THRESHOLD,
    obs: AnyObserver = NULL_OBSERVER,
) -> SweepResult:
    """Serve every schedule from one pass over ``reports``.

    The reports are grouped into ``window_seconds`` windows from
    ``start`` (:func:`~repro.traces.store.iter_windows`).  A window's
    snapshot is built once, when the first schedule samples it; every
    metric function is pure, so sharing it changes no value.

    A ``ValueError`` is kept per schedule, as if each had read the
    trace on its own: one from a metric ends its schedule only, and one
    raised while reading (a malformed line, windows out of order) ends every
    schedule not yet complete.  :class:`SweepResult` re-raises them on
    access.  Any other exception propagates.

    With an enabled ``obs`` the pass is one ``analytics.trace_pass``
    span (counters ``analytics.trace_passes`` and
    ``analytics.reports_read``); inside it each snapshot is timed under
    ``analytics.snapshot`` and each metric under
    ``analytics.metric.<name>``, with ``analytics.snapshot_nodes``
    tracking graph size.
    """
    out = SweepResult()
    # name -> (metrics, sampling period or None, instants still to find)
    sampling: dict[str, tuple[Mapping[str, MetricFn], float | None, dict[str, float]]] = {}
    accumulators: dict[str, ReportAccumulator] = {}
    for name, schedule in schedules.items():
        if isinstance(schedule, Every):
            every = window_seconds if schedule.every is None else schedule.every
            if every < window_seconds:
                raise ValueError("observe_every must be >= window_seconds")
            sampling[name] = (schedule.metrics, every, {})
            out.results[name] = SnapshotSeries()
        elif isinstance(schedule, At):
            sampling[name] = (schedule.metrics, None, dict(schedule.instants))
            out.results[name] = {}
        else:
            accumulators[name] = schedule.factory()
    if not schedules:
        return out
    # An At schedule with no instants has nothing left to find.
    complete = {
        name for name, (_, every, pending) in sampling.items()
        if every is None and not pending
    }
    read = 0

    def tapped() -> Iterator[PeerReport]:
        nonlocal read
        for report in reports:
            read += 1
            for accumulator in accumulators.values():
                accumulator.add(report)
            yield report

    with obs.span("analytics.trace_pass"):
        windows = iter_windows(tapped(), window_seconds, start=start)
        try:
            for window_start, window_reports in windows:
                snapshot: TopologySnapshot | None = None
                for name, (metrics, every, pending) in sampling.items():
                    if name in complete:
                        continue
                    if every is not None:
                        if (window_start - start) % every > 1e-9:
                            continue
                        labels: list[str | None] = [None]
                    else:
                        labels = [
                            label
                            for label, t in pending.items()
                            if window_start <= t < window_start + window_seconds
                        ]
                        if not labels:
                            continue
                    try:
                        if snapshot is None:
                            snapshot = _snapshot(
                                window_reports, window_start, window_seconds,
                                active_threshold, obs,
                            )
                        for label in labels:
                            row = _apply(metrics, snapshot, obs)
                            result = out.results[name]
                            if isinstance(result, SnapshotSeries):
                                result.append(window_start, row)
                            else:
                                cast(dict[str, object], result)[label] = row
                                del pending[label]
                    except ValueError as exc:
                        out.errors[name] = exc
                        complete.add(name)
                        continue
                    if every is None and not pending:
                        complete.add(name)
                if len(complete) == len(schedules):
                    break
        except ValueError as exc:
            for name in schedules:
                if name not in complete:
                    out.errors[name] = exc
        finally:
            windows.close()
            obs.count("analytics.trace_passes")
            obs.count("analytics.reports_read", read)
    for name, accumulator in accumulators.items():
        out.results[name] = accumulator.result()
    return out


def observe(
    reports: Iterable[PeerReport],
    metrics: dict[str, MetricFn],
    *,
    window_seconds: float = 600.0,
    observe_every: float | None = None,
    start: float = 0.0,
    active_threshold: int = DEFAULT_ACTIVE_THRESHOLD,
    obs: AnyObserver = NULL_OBSERVER,
) -> SnapshotSeries:
    """Apply ``metrics`` to the snapshot of each observation window.

    ``observe_every`` subsamples: only windows starting on a multiple of
    it (relative to ``start``) are materialised — e.g. hourly snapshots
    from a 10-minute-resolution trace.  Defaults to every window.  One
    :func:`sweep` with a single :class:`Every` schedule.
    """
    series = sweep(
        reports,
        {"series": Every(metrics, observe_every)},
        window_seconds=window_seconds,
        start=start,
        active_threshold=active_threshold,
        obs=obs,
    )["series"]
    assert isinstance(series, SnapshotSeries)
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
