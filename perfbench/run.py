#!/usr/bin/env python3
"""End-to-end benchmark: run a measurement campaign, then chart its trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload day-125 --seed 2006 --seconds 60 --trace 0

Each iteration does what a user of the reproduction does, through the
public entry points with default settings (object engine, ``uusee``
policy, one process): ``run_campaign`` writes a segmented trace, then
``repro analyze --figure all --json`` and ``repro analyze --figure
windows --json`` run in-process through ``repro.cli.main`` on that
trace.  Iterations repeat until the next one would overrun
``--seconds``.  The first is a warm-up: its outputs are checked, but
its timings are left out.  Each timing reported is the median over the
other iterations.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced iterations with traced ones (layer timers of ``layers.py``) and
prints the per-layer metrics, a self-time table of each operation with
an ``unattributed`` row, and the tracing overhead: the median traced
minus the median untraced iteration.  Metric names and units are those
``BENCHMARK.json`` declares.  Every operation
(one campaign, or one figure of an ``analyze`` call) is checked by
``checks.py``; a tampered copy of the run's own outputs must then fail
those checks, or the run is reported incorrect.

The last line of standard output is the result object.  Context (host,
versions, code digest, seed) and every output digest are appended to
``perfbench/results/runs.jsonl`` so that runs of two commits at any seed
can be compared.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINNED_SEED = 2006

#: Modules a workload touches, imported during set-up so that no lazy
#: import lands inside a timed operation.
PROGRAM_MODULES = ("repro.cli", "repro.core.experiments", "repro.obs")
#: Imported lazily by the default ``--figure windows`` today; the
#: benchmark still runs if a later change removes it.
OPTIONAL_MODULES = ("repro.soa.incremental",)


@dataclass(frozen=True)
class Workload:
    days: float
    base_concurrency: float
    obs: bool  # run the campaign with an observer, as ``run --obs-dir`` does


#: The rationale of each workload is its ``why`` in ``BENCHMARK.json``.
#: Both are sized so that one iteration takes a few seconds: timings on a
#: shared two-core host vary by tens of percent from second to second,
#: and only many samples per run give a steady median.
WORKLOADS = {
    # A whole diurnal cycle: many small rounds, five checkpoint saves,
    # and a trace long enough for every hourly figure.
    "day-125": Workload(days=1.0, base_concurrency=125.0, obs=False),
    # The bootstrap ramp at scale: few, large, join-heavy rounds.  Nine
    # rounds is about the shortest span on which ``analyze --figure all``
    # completes: reports start ~20 min in, and on a trace whose
    # on-the-hour windows hold no report Fig. 1 raises KeyError rather
    # than skipping.
    "ramp-2k-obs": Workload(days=0.0625, base_concurrency=2000.0, obs=True),
}

#: Metric names and units, as the benchmark declares them.
DECLARED = ROOT / "BENCHMARK.json"

#: The figures each ``analyze --figure`` argument returns.
FIGURES = {
    "all": ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"),
    "windows": ("windows",),
}
#: The ``analyze`` calls of one iteration.  ``windows`` takes a tenth of
#: ``all``; three calls give its median as many samples per second of run.
ANALYZE_PLAN = ("all", "windows", "windows", "windows")


class ProgramMissing(RuntimeError):
    """The checkout has no program source to benchmark."""


def load_program() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise ProgramMissing(f"imported repro from {repro.__file__}, not {SRC}")
    for module in PROGRAM_MODULES:
        __import__(module)
    for module in OPTIONAL_MODULES:
        with contextlib.suppress(ImportError):
            __import__(module)


def measure_setup(samples: int = 5) -> float:
    """Median wall time for a fresh interpreter to import the program."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in PROGRAM_MODULES)
        + "".join(f"try:\n    import {m}\nexcept ImportError:\n    pass\n" for m in OPTIONAL_MODULES)
        + "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def host_context(seed: int, workload: str, trace: int) -> dict[str, Any]:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
        git_sha = done.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(str(path.relative_to(SRC)).encode())
        src_digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha,
        "src_sha256": src_digest.hexdigest(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


@dataclass
class AnalyzeCall:
    figure: str  # the ``--figure`` argument
    seconds: float
    payloads: dict[str, Any] | None  # the document's ``figures``; None if it raised
    error: str | None = None
    tracer: Any = None  # a layers.Tracer on traced iterations


@dataclass
class Iteration:
    trace_dir: Path
    traced: bool
    tracer: Any = None  # the campaign's layers.Tracer on traced iterations
    result: Any = None  # the CampaignResult, unless the campaign raised
    error: str | None = None  # what the campaign raised
    campaign_s: float = 0.0
    calls: list[AnalyzeCall] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    events_written: int = 0

    @property
    def wall_s(self) -> float:
        return self.campaign_s + sum(call.seconds for call in self.calls)

    def seconds(self, figure: str) -> list[float]:
        return [call.seconds for call in self.calls if call.figure == figure]


def run_iteration(spec: Workload, seed: int, workdir: Path, traced: bool) -> Iteration:
    """One campaign and the ``analyze`` calls of its trace.

    On a traced iteration each operation gets its own tracer, with the
    layer timers installed for that operation only.  Each operation
    starts from a collected heap, as it would in a fresh ``repro``
    process, so that no operation pays for the garbage of the one before.
    """
    from repro.cli import main as cli_main
    from repro.core.experiments import run_campaign
    from repro.obs import NULL_OBSERVER, JsonlEventLog, create_observer, finalize_observer
    from repro.obs.exporters import EVENTS_FILENAME

    from layers import Tracer, TracingObserver, instrument

    def timers(tracer: Any) -> Any:
        return instrument(tracer) if tracer else contextlib.nullcontext()

    def span(tracer: Any, name: str) -> Any:
        return tracer.span(name) if tracer else contextlib.nullcontext()

    workdir.mkdir(parents=True)
    it = Iteration(trace_dir=workdir / "trace", traced=traced)
    obs_dir = workdir / "obs"
    tracer = it.tracer = Tracer() if traced else None
    gc.collect()
    with timers(tracer):
        t0 = time.perf_counter()
        try:
            with span(tracer, "campaign"):
                if tracer is None:
                    obs = create_observer(obs_dir) if spec.obs else NULL_OBSERVER
                else:
                    sink = JsonlEventLog(obs_dir / EVENTS_FILENAME) if spec.obs else None
                    obs = TracingObserver(tracer, sink=sink)
                it.result = run_campaign(
                    it.trace_dir, days=spec.days, base_concurrency=spec.base_concurrency,
                    seed=seed, obs=obs,
                )
                if spec.obs:
                    with span(tracer, "obs.finalize"):
                        finalize_observer(obs, obs_dir)
                    it.events_written = obs.sink.lines_written
        except Exception as exc:  # counted as a failed operation
            it.error = repr(exc)
        it.campaign_s = time.perf_counter() - t0
    if it.result is None:
        return it
    if tracer is not None:
        it.counters = obs.registry.counters()

    for figure in ANALYZE_PLAN:
        argv = ["analyze", "--trace", str(it.trace_dir), "--figure", figure, "--json"]
        out = io.StringIO()
        call = AnalyzeCall(figure, 0.0, None, tracer=Tracer() if traced else None)
        gc.collect()
        with timers(call.tracer):
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), _analyze_observer(call.tracer), \
                        span(call.tracer, "analyze"):
                    code = cli_main(argv)
                if code != 0:
                    raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
                call.payloads = json.loads(out.getvalue())["figures"]
            except Exception as exc:  # counted as failed figures
                call.error = repr(exc)
            call.seconds = time.perf_counter() - t0
        it.calls.append(call)
    return it


@contextlib.contextmanager
def _analyze_observer(tracer: Any) -> Iterator[None]:
    """While tracing, ``analyze`` gets a tracing observer for its spans."""
    if tracer is None:
        yield
        return
    import repro.cli

    from layers import TracingObserver

    original = repro.cli.create_observer
    repro.cli.create_observer = lambda obs_dir, **kw: TracingObserver(tracer)
    try:
        yield
    finally:
        repro.cli.create_observer = original


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def check_iterations(
    iterations: list[Iteration], pins: dict[str, Any] | None, tally: Tally
) -> tuple[dict[str, Any], dict[str, str]]:
    """Check every operation; returns the first campaign's facts and the
    first digest of each figure, as observed.

    Without pins, the first passing campaign and figures of the run are
    what the later iterations (same seed, so same outputs) must equal.
    """
    from checks import check_campaign, check_figure

    expected = pins["campaign"] if pins else None
    expected_digests: dict[str, str] = dict(pins["figures"]) if pins else {}
    verified: set[str] = set()
    facts: dict[str, Any] = {}
    digests: dict[str, str] = {}
    for it in iterations:
        if it.result is None:
            tally.record([f"campaign raised {it.error}"])
            for figure in ANALYZE_PLAN:
                for fig in FIGURES[figure]:
                    tally.record([f"{fig}: not run, the campaign raised"])
            continue
        facts_i, problems = check_campaign(it.result, it.trace_dir, expected, verified)
        tally.record(problems)
        if facts_i["content_sha256"] is not None:
            facts = facts or facts_i
        if not problems:
            expected = expected or facts_i
        for figure, call in itertools.zip_longest(ANALYZE_PLAN, it.calls):
            for fig in FIGURES[figure]:
                if call is None or call.payloads is None or fig not in call.payloads:
                    error = call.error if call else "nothing"
                    tally.record([f"{fig}: analyze --figure {figure} raised {error}"])
                    continue
                digest, problems = check_figure(
                    fig, call.payloads[fig], expected_digests.get(fig)
                )
                tally.record(problems)
                digests.setdefault(fig, digest)
                if not problems:
                    expected_digests.setdefault(fig, digest)
    return facts, digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_program()
        setup_s = measure_setup()
    except (ProgramMissing, ImportError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    workroot = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    workroot.mkdir(parents=True)
    try:
        return measure(args, WORKLOADS[args.workload], setup_s, workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)


def self_test(sample: Iteration, facts: dict[str, Any], digests: dict[str, str],
              workroot: Path) -> Tally:
    """Run the checks on a tampered trace and an altered payload.

    Each must fail.  If the self-test itself raises, both count as
    passed tampered outputs, so that a broken self-test shows as an
    incorrect run rather than a crash.
    """
    from checks import tampered_checks

    payloads = {k: v for call in sample.calls for k, v in (call.payloads or {}).items()}
    tamper = Tally()
    try:
        found = tampered_checks(
            sample.result, sample.trace_dir, facts, payloads, digests, workroot,
        )
    except Exception as exc:
        print(f"perfbench: the self-test raised {exc!r}", file=sys.stderr)
        found = [[], []]
    for problems in found:
        tamper.record(problems)
    return tamper


def measure(args: argparse.Namespace, spec: Workload, setup_s: float, workroot: Path) -> int:
    from layers import Tracer, campaign_summary, layer_metrics, layer_report

    declared = json.loads(DECLARED.read_text())
    # Iteration 0 warms up: the first campaign of a process runs slower
    # (lazy imports, a heap not yet grown).  After it, a traced run
    # alternates untraced and traced iterations, so that the overhead
    # compares medians taken over the same stretch of time.
    min_iterations = 5 if args.trace else 2
    iterations: list[Iteration] = []
    start = time.perf_counter()
    while len(iterations) < min_iterations or (
        time.perf_counter() - start + iterations[-1].wall_s <= args.seconds
    ):
        traced = bool(args.trace) and len(iterations) % 2 == 0 and len(iterations) > 0
        workdir = workroot / f"iter-{len(iterations)}"
        iterations.append(run_iteration(spec, args.seed, workdir, traced))
    measured_s = time.perf_counter() - start

    tally = Tally()
    pins = None
    if args.seed == PINNED_SEED:
        pins = json.loads((BENCH_DIR / "pins.json").read_text())["workloads"][args.workload]
    facts, digests = check_iterations(iterations, pins, tally)
    if not facts:
        print("perfbench: no campaign completed", file=sys.stderr)
        for problem in tally.problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    sample = next(it for it in iterations if it.result is not None)
    tamper = self_test(sample, facts, digests, workroot)
    checks_live = tamper.failed == tamper.attempted

    untraced = [it for it in iterations[1:] if not it.traced]
    traced = [it for it in iterations if it.traced and it.result is not None]
    if args.trace and not traced:
        print("perfbench: no traced campaign completed", file=sys.stderr)
        return 1
    if args.trace:
        base = statistics.median(it.wall_s for it in untraced)
        names = [m["name"] for m in declared["per_layer"]]
        per_iteration = [
            layer_metrics(
                names,
                Tracer.merged([it.tracer, *(call.tracer for call in it.calls)]),
                wall_s=it.wall_s, untraced_s=base,
                counters=it.counters, events_written=it.events_written,
            )
            for it in traced
        ]
        metrics = {
            m["name"]: {"value": _median_or_none([v[m["name"]] for v in per_iteration]),
                        "unit": m["unit"]}
            for m in declared["per_layer"]
        }
        last = traced[-1]
        lines = layer_report("campaign", last.tracer, last.campaign_s)
        lines.append(campaign_summary(last.tracer, last.result.rounds_completed))
        for figure in dict.fromkeys(ANALYZE_PLAN):
            call = next(c for c in last.calls if c.figure == figure)
            lines += layer_report(f"analyze --figure {figure}", call.tracer, call.seconds)
        walls = [it.wall_s for it in traced]
        overhead = statistics.median(walls) - base
        lines.append(
            f"tracing overhead: median traced iteration {statistics.median(walls):.3f} s "
            f"(n={len(walls)}) - median untraced {base:.3f} s (n={len(untraced)}) "
            f"= {overhead:.3f} s ({overhead / base:.1%})"
        )
        print("\n".join(lines))
        missing = sorted(last.tracer.missing)
        if missing:
            print(f"perfbench: not instrumented, reported as null: {missing}",
                  file=sys.stderr)
    else:
        e2e = {
            "setup_s": setup_s,
            "campaign_s": statistics.median(it.campaign_s for it in untraced),
            "analyze_all_s": statistics.median(t for it in untraced for t in it.seconds("all")),
            "analyze_windows_s": statistics.median(
                t for it in untraced for t in it.seconds("windows")
            ),
            "trace_bytes_per_report": facts["trace_bytes"] / facts["trace_records"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {
            m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
            for m in declared["end_to_end"]
        }

    context = host_context(args.seed, args.workload, args.trace)
    context.update(
        iterations=[
            {
                "warm_up": n == 0,
                "traced": it.traced,
                "campaign_s": it.campaign_s,
                "analyze_all_s": it.seconds("all"),
                "analyze_windows_s": it.seconds("windows"),
            }
            for n, it in enumerate(iterations)
        ],
        measured_s=measured_s,
        campaign=facts,
        figure_digests=digests,
        problems=tally.problems,
        self_test={"attempted": tamper.attempted, "failed": tamper.failed},
    )
    print(json.dumps({"context": context}, sort_keys=True))
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    with open(results / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"context": context, "metrics": metrics}, sort_keys=True) + "\n")
    for problem in tally.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if not checks_live:
        print("perfbench: a tampered output passed its check", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0 and checks_live,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _median_or_none(values: list[float | None]) -> float | None:
    """The median, or None when a layer was not measured."""
    if any(v is None for v in values):
        return None
    return statistics.median(values)


if __name__ == "__main__":
    sys.exit(main())
