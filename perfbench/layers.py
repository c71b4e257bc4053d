"""Per-layer attribution for the traced benchmark run.

Nothing here edits the program.  A :class:`Tracer` keeps a stack of open
spans and charges each span its *self* time (its duration minus what
its child spans covered).  Spans come from two places:

* timers that :func:`instrument` installs around public layer functions
  for the duration of one traced operation, restoring every original on
  exit; and
* the program's own ``obs.span`` regions (``round.*``,
  ``analytics.*``), captured through :class:`TracingObserver`, an
  :class:`repro.obs.Observer` handed in through the public ``obs=``
  argument (or returned by ``create_observer`` while ``analyze`` runs).

Each timed operation (a campaign, an ``analyze`` call) gets its own
tracer, so that the report can split each operation by layer;
:func:`layer_metrics` folds the merged tracers of one iteration into the
flat per-layer metric names that ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from typing import Any

from repro.obs import Observer

#: Figure functions that ``repro analyze`` calls, by the figure name.
FIGURE_FUNCTIONS = {
    "fig1": "fig1_scale",
    "fig2": "fig2_isp_shares",
    "fig3": "fig3_streaming_quality",
    "fig4": "fig4_degree_distributions",
    "fig5": "fig5_degree_evolution",
    "fig6": "fig6_intra_isp_degrees",
    "fig7": "fig7_small_world",
    "fig8": "fig8_reciprocity",
    "windows": "windowed_structure",
}

#: ``analytics.metric.<name>`` spans the default figures record.
METRIC_NAMES = (
    "total", "stable", "shares", "CCTV1", "CCTV4",
    "degrees", "intra", "sw", "rho",
)

#: Program span name -> layer name.  ``round.total`` and
#: ``campaign.run`` are containers: their self time is unattributed.
PROGRAM_SPANS = {
    "round.membership": "simulator.membership",
    "round.ticks": "simulator.ticks",
    "round.exchange": "simulator.exchange",
    "round.reports": "simulator.reports",
    "round.total": "simulator.unattributed",
    "campaign.run": "simulator.unattributed",
    "analytics.snapshot": "core.snapshot",
    "analytics.incremental_window": "soa.incremental",
    **{f"analytics.metric.{m}": f"core.metric.{m}" for m in METRIC_NAMES},
}

class Tracer:
    """Self-time accounting over a stack of nested spans."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        #: Layer spans whose function was not found, so never timed.
        self.missing: set[str] = set()
        self._stack: list[list[Any]] = []  # [name, start, child seconds]

    @classmethod
    def merged(cls, tracers: list["Tracer"]) -> "Tracer":
        """One tracer holding the sums of ``tracers``."""
        out = cls()
        for tracer in tracers:
            for name, value in tracer.self_s.items():
                out.self_s[name] += value
            for name, value in tracer.total_s.items():
                out.total_s[name] += value
            out.calls.update(tracer.calls)
            out.counts.update(tracer.counts)
            out.missing |= tracer.missing
        return out

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()


class _TracedSpan:
    """A program span that is also pushed on the benchmark's tracer."""

    __slots__ = ("_tracer", "_name", "_inner")

    def __init__(self, tracer: Tracer, name: str, inner: Any) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __enter__(self) -> "_TracedSpan":
        self._tracer.enter(self._name)
        self._inner.__enter__()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        try:
            self._inner.__exit__(*exc_info)
        finally:
            self._tracer.exit()


class TracingObserver(Observer):
    """An enabled observer whose spans also feed a :class:`Tracer`."""

    def __init__(self, tracer: Tracer, sink: Any = None) -> None:
        super().__init__(sink=sink)
        self._tracer = tracer

    def span(self, name: str, **tags: Any) -> Any:
        layer = PROGRAM_SPANS.get(name, name)
        return _TracedSpan(self._tracer, layer, super().span(name, **tags))


def _timed(
    tracer: Tracer,
    name: str,
    fn: Callable[..., Any],
    after: Callable[[Any], None] | None = None,
) -> Callable[..., Any]:
    """Wrap ``fn`` in a span; ``after`` sees each result (for counts)."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(result)
        return result

    return wrapper


def _timed_iter(
    tracer: Tracer, name: str, fn: Callable[..., Any], *, count: str | None = None
) -> Callable[..., Iterator[Any]]:
    """Wrap a generator function: each ``next`` is one span of ``name``."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
        if count is not None:
            tracer.counts[count] += 1
        inner = iter(fn(*args, **kwargs))
        try:
            while True:
                tracer.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                yield item
        finally:
            close = getattr(inner, "close", None)
            if close is not None:
                close()

    return wrapper


def _patches(tracer: Tracer) -> tuple[list[tuple[Any, str, Any]], set[str]]:
    """``(owner, attribute, replacement)`` for every layer function present,
    and the span names of those that are not.

    A function a later change removes or renames is skipped, so that the
    benchmark keeps running; its metrics are then reported as null, not 0.
    """
    import importlib

    def module(name: str) -> Any:
        try:
            return importlib.import_module(name)
        except ImportError:
            return None

    def attr(owner: Any, name: str) -> Any:
        return None if owner is None else owner.__dict__.get(name)

    exchange = module("repro.simulator.exchange")
    engine = attr(exchange, "ExchangeEngine")
    allocator = attr(module("repro.network.ip"), "IpAllocator")
    latency = attr(module("repro.network.latency"), "LatencyModel")
    manager = attr(module("repro.simulator.checkpoint"), "CheckpointManager")
    report = attr(module("repro.traces.records"), "PeerReport")
    segments = module("repro.traces.segments")
    store = attr(segments, "SegmentedTraceStore")
    reader = attr(segments, "SegmentedTraceReader")
    experiments = module("repro.core.experiments")
    iter_windows = attr(module("repro.traces.store"), "iter_windows")

    def count_connect(ok: bool) -> None:
        tracer.counts["exchange.connect_ok"] += bool(ok)

    def count_checkpoint(path: Any) -> None:
        tracer.counts["checkpoint.bytes"] += path.stat().st_size

    # (owner, attribute, span name, wrap); the span name is what a
    # missing target leaves untimed.
    wanted: list[tuple[Any, str, str, Callable[[Any], Any]]] = [
        (engine, "maintenance_tick", "exchange.maintenance_tick",
         lambda fn: _timed(tracer, "exchange.maintenance_tick", fn)),
        (engine, "tracker_contact", "exchange.tracker_contact",
         lambda fn: _timed(tracer, "exchange.tracker_contact", fn)),
        (engine, "connect", "exchange.connect",
         lambda fn: _timed(tracer, "exchange.connect", fn, after=count_connect)),
        (engine, "run_round", "exchange.run_round",
         lambda fn: _timed(tracer, "exchange.run_round", fn)),
        (allocator, "allocate", "network.ip_allocate",
         lambda fn: _timed(tracer, "network.ip_allocate", fn)),
        (latency, "sample_link", "network.sample_link",
         lambda fn: _timed(tracer, "network.sample_link", fn)),
        (exchange, "build_report", "traces.build_report",
         lambda fn: _timed(tracer, "traces.build_report", fn)),
        (report, "to_json", "traces.to_json",
         lambda fn: _timed(tracer, "traces.to_json", fn)),
        (store, "append", "traces.store_append",
         lambda fn: _timed(tracer, "traces.store_append", fn)),
        (manager, "save", "checkpoint.save",
         lambda fn: _timed(tracer, "checkpoint.save", fn, after=count_checkpoint)),
        (report, "from_json", "traces.decode",
         lambda fn: classmethod(_timed(tracer, "traces.decode", fn.__func__))),
        (reader, "__iter__", "traces.read",
         lambda fn: _timed_iter(tracer, "traces.read", fn, count="traces.passes")),
    ]
    if iter_windows is None:
        missing = {"core.window_assembly"}
    else:
        missing = set()
        windows = _timed_iter(tracer, "core.window_assembly", iter_windows)
        # Modules that import ``iter_windows`` by name; a module that no
        # longer does so simply has nothing to patch.
        for name in ("repro.core.timeseries", "repro.core.experiments",
                     "repro.soa.incremental"):
            owner = module(name)
            if attr(owner, "iter_windows") is not None:
                wanted.append((owner, "iter_windows", "core.window_assembly",
                               lambda fn: windows))
    for fig, function in FIGURE_FUNCTIONS.items():
        wanted.append(
            (experiments, function, f"analyze.{fig}",
             lambda fn, fig=fig: _timed(tracer, f"analyze.{fig}", fn))
        )
    patches = []
    for owner, name, span, wrap in wanted:
        original = attr(owner, name)
        if original is None:
            missing.add(span)
        else:
            patches.append((owner, name, wrap(original)))
    return patches, missing


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Install layer timers on the program's public functions, then undo.

    Targets that are not found are recorded in ``tracer.missing``.
    """
    patches, tracer.missing = _patches(tracer)
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


#: Root spans the benchmark opens around each timed operation, and the
#: program's container spans: their self time is what no layer claims.
UNCLAIMED = ("campaign", "analyze", "simulator.unattributed")


def _named_self(tracer: Tracer) -> dict[str, float]:
    return {k: v for k, v in tracer.self_s.items() if k not in UNCLAIMED}


#: Metrics derived from a layer span other than their own name.
DERIVED_FROM = {
    "exchange.connect_ok_ratio": "exchange.connect",
    "checkpoint.saves": "checkpoint.save",
    "checkpoint.bytes": "checkpoint.save",
    "traces.passes": "traces.read",
    "traces.reports_decoded": "traces.decode",
}


def layer_metrics(
    names: list[str],
    tracer: Tracer,
    *,
    wall_s: float,
    untraced_s: float,
    counters: dict[str, float],
    events_written: int,
) -> dict[str, float | None]:
    """Flatten one traced iteration into the per-layer metrics ``names``.

    ``tracer`` holds the iteration's merged operations, ``wall_s`` is its
    wall time and ``untraced_s`` that of the run's untraced iterations;
    ``counters`` are the program's own obs counters from the traced
    campaign.  Every ``*_s`` value is self time.  A metric of a layer
    whose function was not found is None.  A declared name this function
    cannot compute raises ``KeyError``.
    """
    own = tracer.self_s
    calls = tracer.calls
    connects = calls.get("exchange.connect", 0)
    overhead = wall_s - untraced_s
    special: dict[str, float] = {
        "simulator.unattributed_s": (
            own.get("campaign", 0.0) + own.get("simulator.unattributed", 0.0)
        ),
        "analyze.unattributed_s": own.get("analyze", 0.0),
        "unattributed_s": wall_s - sum(_named_self(tracer).values()),
        "exchange.connect_ok_ratio": (
            tracer.counts["exchange.connect_ok"] / connects if connects else 0.0
        ),
        "exchange.block_transfers": counters.get("exchange.block_transfers", 0.0),
        "traces.bytes_written": counters.get("trace.bytes_written", 0.0),
        "traces.reports_dropped": counters.get("trace.reports_dropped", 0.0),
        "checkpoint.saves": float(calls.get("checkpoint.save", 0)),
        "checkpoint.bytes": float(tracer.counts["checkpoint.bytes"]),
        "obs.events_written": float(events_written),
        "traces.passes": float(tracer.counts["traces.passes"]),
        "traces.reports_decoded": float(calls.get("traces.decode", 0)),
        "core.snapshots_built": float(calls.get("core.snapshot", 0)),
        "tracing.overhead_s": overhead,
        "tracing.overhead_ratio": overhead / untraced_s,
    }
    out: dict[str, float | None] = {}
    for name in names:
        if name in special:
            out[name], span = special[name], DERIVED_FROM.get(name)
        elif name.endswith("_calls"):
            span = name[: -len("_calls")]
            out[name] = float(calls.get(span, 0))
        elif name.endswith("_s"):
            span = name[: -len("_s")]
            out[name] = own.get(span, 0.0)
        else:
            raise KeyError(f"no way to compute per-layer metric {name!r}")
        if span in tracer.missing:
            out[name] = None
    return out


#: Inclusive ``round.*`` spans, in the order a round runs them.
ROUND_PHASES = ("membership", "ticks", "exchange", "reports")


def layer_report(title: str, tracer: Tracer, wall_s: float) -> list[str]:
    """A self-time table of one traced operation, largest first.

    Shares are of the operation's wall time ``wall_s``; the table ends
    with the ``unattributed`` row (wall time minus every layer's self
    time).
    """
    named = _named_self(tracer)
    lines = [
        f"== {title}: traced wall {wall_s:.3f} s",
        f"{'layer span':<32}{'self s':>10}{'share':>8}{'total s':>10}{'calls':>10}",
    ]
    for name, self_s in sorted(named.items(), key=lambda kv: kv[1], reverse=True):
        lines.append(
            f"{name:<32}{self_s:>10.3f}{self_s / wall_s:>8.1%}"
            f"{tracer.total_s[name]:>10.3f}{tracer.calls[name]:>10d}"
        )
    unattributed = wall_s - sum(named.values())
    lines.append(f"{'unattributed':<32}{unattributed:>10.3f}{unattributed / wall_s:>8.1%}")
    if tracer.missing:
        lines.append(f"not instrumented: {', '.join(sorted(tracer.missing))}")
    return lines


def campaign_summary(tracer: Tracer, rounds: int) -> str:
    """Round-phase shares (inclusive) and connect calls per round."""
    phases = {p: tracer.total_s.get(f"simulator.{p}", 0.0) for p in ROUND_PHASES}
    total = sum(phases.values()) or 1.0
    shares = ", ".join(f"{p} {t / total:.1%}" for p, t in phases.items())
    connects = tracer.calls.get("exchange.connect", 0)
    return (
        f"rounds {rounds}; round phases (inclusive, of {total:.3f} s): {shares}; "
        f"connect calls {connects} ({connects / max(rounds, 1):.0f} per round)"
    )
