"""Command-line interface: ``python -m repro <command>``.

Seven subcommands cover the whole pipeline:

- ``run``      — run a UUSee deployment as a crash-safe campaign
  (segmented trace directory + periodic checkpoints; ``simulate
  --out DIR`` is an alias); ``--resume`` continues a killed campaign,
  ``--shards N`` partitions the channels across N supervised worker
  subprocesses (heartbeats, crash-resume, poison-shard quarantine),
  ``--obs-dir`` records live metrics/spans while it runs, and
  ``--ingest`` ships reports over the network to a ``repro serve``
  ingestion server instead of writing locally; SIGTERM/SIGINT stop
  gracefully (final checkpoint, sealed trace, exit code 3);
- ``serve``    — run the trace ingestion service (UDP + TCP on
  loopback, crash-tolerant admission, SIGTERM drains gracefully);
- ``analyze``  — regenerate any paper figure (or all) from a campaign
  directory in one pass over its trace, printing series (or
  ``--json``) and optionally exporting CSV;
- ``info``     — summarise a campaign trace (span, peers, reports,
  dynamics), or query a live ingest server's health with ``--server``;
- ``obs``      — observability utilities (``obs summarize <dir>``);
- ``qa``       — determinism & correctness static analysis (the CI gate);
- ``compare-overlays`` — run the same deployment under every
  partner-selection policy (``--policies``) and print the cross-policy
  Magellan metric table (DESIGN.md Sec. 11).

``run`` accepts ``--policy NAME[:key=val,...]`` specs from
the overlay registry (``uusee``, ``random``, ``tree``, ``locality``,
``hamiltonian``, ``random-regular``, ``strandcast``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

from repro.core import experiments as ex
from repro.core.dynamics import (
    partner_stability,
    population_turnover,
    session_statistics,
)
from repro.core.report import (
    format_series,
    format_table,
    format_trace_health,
    write_csv,
)
from repro.obs.exporters import create_observer, finalize_observer
from repro.obs.summarize import render_summary
from repro.overlay import PolicyError, available_policies
from repro.qa.cli import add_qa_arguments, run_qa
from repro.simulator.checkpoint import CheckpointError
from repro.simulator.protocol import SelectionPolicy
from repro.traces.segments import SegmentedTraceReader

FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Magellan (ICDCS 2007) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        aliases=["simulate"],
        help="simulate a deployment into a crash-safe campaign directory "
        "(segmented trace + checkpoints; --resume)",
    )
    run.add_argument(
        "--trace-dir", "--out", dest="trace_dir", type=Path, required=True,
        help="campaign directory (rotating trace segments + manifest)",
    )
    run.add_argument(
        "--checkpoint-dir", type=Path,
        help="checkpoint directory (default: <trace-dir>/checkpoints)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="restore the newest valid checkpoint, recover the trace "
        "store and continue the campaign (with --shards: resume every "
        "shard in place)",
    )
    run.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="partition the campaign's channels across N supervised "
        "worker subprocesses (crash-resume, backoff, quarantine); "
        "their traces merge deterministically when all finish",
    )
    run.add_argument(
        "--max-restarts", type=int, default=3, metavar="K",
        help="consecutive no-progress failures before a shard is "
        "quarantined as poisoned (fleet mode)",
    )
    run.add_argument(
        "--heartbeat-timeout", type=float, default=30.0, metavar="SECONDS",
        help="worker silence tolerated before it is declared hung "
        "and SIGKILLed (fleet mode)",
    )
    run.add_argument(
        "--progress-timeout", type=float, default=120.0, metavar="SECONDS",
        help="longest a worker may heartbeat without completing new "
        "rounds before it is declared hung (fleet mode)",
    )
    run.add_argument("--days", type=float, default=2.0)
    run.add_argument("--base", type=float, default=500.0, help="base concurrency")
    run.add_argument("--seed", type=int, default=2006)
    run.add_argument(
        "--policy",
        default=SelectionPolicy.UUSEE.value,
        metavar="SPEC",
        help="partner-selection policy spec NAME[:key=val,...] "
        f"(available: {', '.join(available_policies())})",
    )
    run.add_argument(
        "--no-flash-crowd", action="store_true",
        help="disable the day-5 flash crowd event",
    )
    run.add_argument(
        "--checkpoint-every", type=int, default=36, metavar="ROUNDS",
        help="checkpoint every N completed rounds (default 36 = 6 h)",
    )
    run.add_argument(
        "--keep-last", type=int, default=3,
        help="checkpoints retained in rotation",
    )
    run.add_argument(
        "--segment-records", type=int, default=100_000,
        help="records per trace segment before rotation",
    )
    run.add_argument(
        "--compress", action="store_true", help="gzip trace segments"
    )
    run.add_argument(
        "--fsync", action="store_true",
        help="fsync the trace on every flush (bounds power-cut loss)",
    )
    run.add_argument(
        "--obs-dir", type=Path,
        help="record observability data (metrics + spans) into this "
        "directory; inspect it with `repro obs summarize`",
    )
    run.add_argument(
        "--ingest", metavar="TARGET",
        help="report to a running `repro serve` instead of a local "
        "store: HOST:TCP[:UDP] or the path of its --port-file",
    )
    run.add_argument(
        "--ingest-transport", choices=("tcp", "udp"), default="tcp",
        help="tcp = durable at-least-once with server dedup (default); "
        "udp = fire-and-forget, the paper's collection semantics",
    )
    run.add_argument(
        "--ingest-loss", type=float, default=0.0, metavar="RATE",
        help="inject deterministic datagram loss at this rate on the "
        "reporter's UDP path (accounted, for fault-harness runs)",
    )
    run.add_argument(
        "--ingest-shard", type=int, default=0, metavar="ID",
        help="reporter shard identity; frames dedup server-side by "
        "(shard, seq), so every campaign sharing a server needs its "
        "own shard",
    )

    serve = sub.add_parser(
        "serve",
        help="trace ingestion service: UDP+TCP admission on loopback, "
        "crash-tolerant storage, graceful SIGTERM drain",
    )
    serve.add_argument(
        "--trace-dir", type=Path, required=True,
        help="server-side trace directory (crash-recovered if it "
        "already holds segments + an admission journal)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--tcp-port", type=int, default=0, help="0 = ephemeral")
    serve.add_argument("--udp-port", type=int, default=0, help="0 = ephemeral")
    serve.add_argument(
        "--port-file", type=Path,
        help="write the bound ports as one-line JSON once listening "
        "(the rendezvous for `run --ingest <path>`)",
    )
    serve.add_argument(
        "--segment-records", type=int, default=100_000,
        help="records per trace segment before rotation",
    )
    serve.add_argument(
        "--compress", action="store_true", help="gzip trace segments"
    )
    serve.add_argument(
        "--queue-high", type=int, default=8_192, metavar="REPORTS",
        help="admission-queue high watermark (backpressure above)",
    )
    serve.add_argument(
        "--queue-low", type=int, default=2_048, metavar="REPORTS",
        help="low watermark (resume reading TCP producers below)",
    )
    serve.add_argument(
        "--obs-dir", type=Path,
        help="record metrics/spans; also enables the METRICS endpoint",
    )

    ana = sub.add_parser("analyze", help="regenerate paper figures from a trace")
    ana.add_argument(
        "--trace", type=Path, required=True, help="campaign directory"
    )
    ana.add_argument(
        "--figure",
        choices=FIGURES + ("windows", "all"),
        default="all",
        help="which figure to regenerate ('windows' is the per-window "
        "structure series; not part of 'all')",
    )
    ana.add_argument("--csv-dir", type=Path, help="also export series as CSV")
    ana.add_argument(
        "--tolerant",
        action="store_true",
        help="read a dirty trace (skip/dedup/re-sort bad records) and "
        "print a trace-health summary",
    )
    ana.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON document instead of formatted tables",
    )
    ana.add_argument(
        "--obs-dir", type=Path,
        help="record per-metric analytics timings into this directory",
    )

    info = sub.add_parser("info", help="summarise a campaign trace")
    info.add_argument("--trace", type=Path, help="campaign directory")
    info.add_argument(
        "--tolerant",
        action="store_true",
        help="read a dirty trace and print a trace-health summary",
    )
    info.add_argument(
        "--server", metavar="HOST:PORT",
        help="query a live ingest server's HEALTH instead of a trace",
    )

    obs = sub.add_parser("obs", help="observability utilities")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_sum = obs_sub.add_parser(
        "summarize",
        help="render span timings and counters from an --obs-dir",
    )
    obs_sum.add_argument("obs_dir", type=Path, help="directory passed as --obs-dir")

    qa = sub.add_parser(
        "qa", help="determinism & correctness static analysis (REP rules)"
    )
    add_qa_arguments(qa)

    cmp = sub.add_parser(
        "compare-overlays",
        help="run the same deployment under each partner policy and "
        "print the cross-policy Magellan metric table",
    )
    cmp.add_argument(
        "--policies",
        default=",".join(ex.DEFAULT_OVERLAY_SPECS),
        metavar="SPEC[,SPEC...]",
        help="comma-separated policy specs to compare "
        f"(default: {','.join(ex.DEFAULT_OVERLAY_SPECS)})",
    )
    cmp.add_argument("--hours", type=float, default=6.0, help="simulated hours per policy")
    cmp.add_argument("--base", type=float, default=120.0, help="base concurrency")
    cmp.add_argument("--seed", type=int, default=2006)
    cmp.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON document instead of the formatted table",
    )
    cmp.add_argument(
        "--markdown",
        action="store_true",
        help="emit the GitHub-flavoured markdown table (for EXPERIMENTS.md)",
    )
    return parser


def cmd_compare_overlays(args: argparse.Namespace) -> int:
    specs = [s.strip() for s in args.policies.split(",") if s.strip()]
    if not specs:
        print("error: --policies lists no policy specs", file=sys.stderr)
        return 2
    if not args.json and not args.markdown:
        # Keep the machine-readable outputs clean for redirection.
        print(
            f"comparing {len(specs)} overlays over {args.hours:g} h at base "
            f"concurrency {args.base:.0f} (seed {args.seed}) ..."
        )
    try:
        study = ex.compare_overlays(
            specs,
            hours=args.hours,
            base_concurrency=args.base,
            seed=args.seed,
        )
    except (PolicyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        doc = {
            "hours": study.hours,
            "base_concurrency": study.base_concurrency,
            "seed": study.seed,
            "random_intra_baseline": study.random_intra_baseline,
            "rows": [dataclasses.asdict(row) for row in study.rows],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if args.markdown:
        print(study.markdown())
    else:
        print(format_table(
            list(ex.OVERLAY_TABLE_HEADERS),
            [row.table_row() for row in study.rows],
            title="overlay comparison",
        ))
    print(f"ISP-blind intra-ISP baseline: {study.random_intra_baseline:.3f}")
    return 0


def _parse_ingest_target(target: str) -> tuple[str, int, int]:
    """Resolve ``--ingest`` into (host, tcp_port, udp_port).

    Accepts ``HOST:TCP[:UDP]`` or the path of a ``repro serve``
    ``--port-file`` (a one-line JSON object with ``tcp``/``udp``).
    """
    path = Path(target)
    if path.exists():
        ports = json.loads(path.read_text(encoding="utf-8"))
        return "127.0.0.1", int(ports["tcp"]), int(ports["udp"])
    parts = target.rsplit(":", 2)
    if len(parts) == 2:
        host, tcp = parts
        return host, int(tcp), int(tcp)
    if len(parts) == 3:
        host, tcp, udp = parts
        return host, int(tcp), int(udp)
    raise ValueError(
        f"--ingest expects HOST:TCP[:UDP] or a port file, got {target!r}"
    )


@contextlib.contextmanager
def _graceful_stop():
    """SIGTERM/SIGINT set an event instead of killing the process.

    ``repro run`` polls the event at round boundaries, takes a final
    checkpoint, seals the trace store and exits with code 3 — so an
    operator's Ctrl-C (or a scheduler's SIGTERM) always leaves a
    campaign that ``--resume`` continues losslessly.
    """
    import signal
    import threading

    stop = threading.Event()

    def _handler(signum: int, frame: object) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _handler)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        yield stop
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _cmd_run_fleet(args: argparse.Namespace) -> int:
    """The ``run --shards N`` path: a supervised sharded campaign."""
    from repro.fleet import FleetCampaignConfig, run_fleet_campaign
    from repro.fleet.plan import IngestSpec
    from repro.fleet.supervisor import SupervisorPolicy

    ingest_spec = None
    if args.ingest is not None:
        try:
            host, tcp_port, udp_port = _parse_ingest_target(args.ingest)
        except (ValueError, OSError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ingest_spec = IngestSpec(
            host=host,
            tcp_port=tcp_port,
            udp_port=udp_port,
            transport=args.ingest_transport,
            loss_rate=args.ingest_loss,
            shard_base=args.ingest_shard,
        )
    config = FleetCampaignConfig(
        campaign_dir=args.trace_dir,
        num_shards=args.shards,
        days=args.days,
        base_concurrency=args.base,
        seed=args.seed,
        with_flash_crowd=not args.no_flash_crowd,
        policy=args.policy,
        checkpoint_every_rounds=args.checkpoint_every,
        keep_last=args.keep_last,
        records_per_segment=args.segment_records,
        compress=args.compress,
        fsync_on_flush=args.fsync,
        supervisor=SupervisorPolicy(
            heartbeat_timeout_s=args.heartbeat_timeout,
            progress_timeout_s=args.progress_timeout,
            max_restarts=args.max_restarts,
        ),
        ingest=ingest_spec,
    )
    obs = create_observer(args.obs_dir)
    try:
        with _graceful_stop() as stop:
            result = run_fleet_campaign(config, stop=stop, obs=obs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.obs_dir is not None:
            finalize_observer(obs, args.obs_dir)
    for sid, outcome in sorted(result.outcomes.items()):
        restarts = f", {outcome.restarts} restarts" if outcome.restarts else ""
        print(
            f"shard {sid}: {outcome.status} "
            f"({outcome.rounds_completed} rounds{restarts})"
        )
    if result.quarantined:
        print(
            f"QUARANTINED shards: {result.quarantined} — their channels "
            "are missing from the merged trace (see health.json)"
        )
    if result.interrupted:
        print(
            f"campaign interrupted; every shard checkpointed — "
            f"rerun the same command to resume in {args.trace_dir}"
        )
        return 3
    if result.merge is not None:
        print(
            f"campaign complete: {result.merge.records} reports merged "
            f"from {len(result.merge.shards)} shards into {args.trace_dir}"
        )
        print(f"merged trace sha256: {result.merge.content_sha256}")
    else:
        print(f"campaign complete: reports shipped to {args.ingest}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.shards > 1:
        verb = "resuming" if args.resume else "starting"
        print(
            f"{verb} {args.shards}-shard campaign in {args.trace_dir}: "
            f"{args.days} days at base concurrency {args.base:.0f} "
            f"(seed {args.seed}, policy {args.policy}) ..."
        )
        return _cmd_run_fleet(args)
    verb = "resuming" if args.resume else "starting"
    print(
        f"{verb} campaign in {args.trace_dir}: {args.days} days at base "
        f"concurrency {args.base:.0f} (seed {args.seed}, policy {args.policy}) ..."
    )
    obs = create_observer(args.obs_dir)
    ingest = None
    if args.ingest is not None:
        from repro.ingest.client import ReportClient
        from repro.ingest.faults import DatagramFaults

        try:
            host, tcp_port, udp_port = _parse_ingest_target(args.ingest)
        except (ValueError, OSError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        faults = (
            DatagramFaults(loss_rate=args.ingest_loss)
            if args.ingest_loss > 0.0
            else None
        )
        ingest = ReportClient(
            host,
            tcp_port,
            udp_port=udp_port,
            transport=args.ingest_transport,
            shard_id=args.ingest_shard,
            faults=faults,
            seed=args.seed,
            obs=obs,
        )
        print(
            f"reporting over {args.ingest_transport} to "
            f"{host}:{tcp_port} (udp {udp_port})"
        )
    try:
        with _graceful_stop() as stop:
            result = ex.run_campaign(
                args.trace_dir,
                days=args.days,
                base_concurrency=args.base,
                seed=args.seed,
                with_flash_crowd=not args.no_flash_crowd,
                policy=args.policy,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every_rounds=args.checkpoint_every,
                keep_last=args.keep_last,
                resume=args.resume,
                records_per_segment=args.segment_records,
                compress=args.compress,
                fsync_on_flush=args.fsync,
                stop=stop.is_set,
                ingest=ingest,
                obs=obs,
            )
    except (CheckpointError, FileExistsError, PolicyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # Flush metrics even when the campaign errors out: a partial
        # event log is exactly what post-mortems need.
        if args.obs_dir is not None:
            finalize_observer(obs, args.obs_dir)
    if result.resumed_from_round is not None:
        print(f"resumed from checkpoint at round {result.resumed_from_round}")
    if result.interrupted:
        print(
            f"campaign interrupted at round {result.rounds_completed}: "
            f"checkpoint taken, trace sealed — resume with --resume"
        )
    else:
        print(
            f"campaign complete: {result.rounds_completed} rounds, "
            f"{result.trace_records} reports in {result.trace_dir}"
        )
    if result.health.dirty:
        print(format_trace_health(result.health, title="campaign health"))
    if args.obs_dir is not None:
        print(
            f"observability data in {args.obs_dir} "
            f"(inspect with: repro obs summarize {args.obs_dir})"
        )
    return 3 if result.interrupted else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.ingest.service import TraceIngestService

    obs = create_observer(args.obs_dir)
    try:
        service = TraceIngestService.open(
            args.trace_dir,
            records_per_segment=args.segment_records,
            compress=args.compress,
            host=args.host,
            tcp_port=args.tcp_port,
            udp_port=args.udp_port,
            queue_high_reports=args.queue_high,
            queue_low_reports=args.queue_low,
            obs=obs,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        service.run(
            port_file=args.port_file,
            announce=lambda tcp, udp: print(
                f"ingest listening tcp={tcp} udp={udp} "
                f"trace-dir={args.trace_dir}",
                flush=True,
            ),
        )
    finally:
        if args.obs_dir is not None:
            finalize_observer(obs, args.obs_dir)
    health = service.merged_health()
    print(
        f"drained: {service.stats.reports_stored} reports stored, "
        f"{service.stats.reports_shed} shed, "
        f"{service.stats.frames_quarantined} frames quarantined"
    )
    if health.dirty:
        print(format_trace_health(health, title="ingest health"))
    return 0


def _query_server_health(target: str) -> dict[str, object]:
    """One HEALTH round-trip against a live ingest server."""
    import socket

    host, _, port = target.rpartition(":")
    with socket.create_connection((host or "127.0.0.1", int(port)), timeout=5.0) as sock:
        sock.sendall(b"HEALTH\n")
        buf = bytearray()
        while not buf.endswith(b"\n"):
            chunk = sock.recv(4096)
            if not chunk:
                break
            buf += chunk
    payload = json.loads(buf.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("unexpected HEALTH reply")
    return payload


def _is_trace_dir(path: Path) -> bool:
    """True for a campaign directory; else print a one-line error."""
    if not path.exists():
        print(f"error: no such trace: {path}", file=sys.stderr)
        return False
    if not path.is_dir():
        print(
            f"error: {path} is a file, not a campaign directory "
            "(write one with: repro run --trace-dir DIR)",
            file=sys.stderr,
        )
        return False
    return True


def _analyze_fig1(results, csv_dir):
    result = results["fig1"]
    print(format_series(result.series, ["total", "stable"], title="Fig. 1(A) simultaneous peers"))
    print()
    print(format_table(["day", "total IPs", "stable IPs"], result.daily, title="Fig. 1(B) daily distinct IPs"))
    print(f"\nstable/total ratio: {result.stable_ratio():.3f} (paper: ~1/3)")
    if csv_dir:
        rows = zip(result.series.times, result.series.values.get("total", ()), result.series.values.get("stable", ()))
        write_csv(csv_dir / "fig1a.csv", ["t", "total", "stable"], rows)
        write_csv(csv_dir / "fig1b.csv", ["day", "total", "stable"], result.daily)
    return {
        "times": list(result.series.times),
        "total": list(result.series.values.get("total", ())),
        "stable": list(result.series.values.get("stable", ())),
        "daily": [list(row) for row in result.daily],
        "stable_ratio": result.stable_ratio(),
    }


def _analyze_fig2(results, csv_dir):
    shares = results["fig2"]
    rows = sorted(shares.items(), key=lambda kv: kv[1], reverse=True)
    print(format_table(["ISP", "share"], rows, title="Fig. 2 ISP shares"))
    if csv_dir:
        write_csv(csv_dir / "fig2.csv", ["isp", "share"], rows)
    return {"shares": dict(rows)}


def _analyze_fig3(results, csv_dir):
    result = results["fig3"]
    print(format_series(result.series, list(result.channels), title="Fig. 3 streaming quality"))
    for name in result.channels:
        print(f"mean {name}: {result.mean_quality(name):.3f} (paper: ~0.75)")
    if csv_dir:
        cols = list(result.channels)
        rows = [
            [t] + [row.get(c) for c in cols] for t, row in result.series.rows()
        ]
        write_csv(csv_dir / "fig3.csv", ["t"] + cols, rows)
    return {
        "times": list(result.series.times),
        "quality": {name: list(result.series.values.get(name, ())) for name in result.channels},
        "mean_quality": {name: result.mean_quality(name) for name in result.channels},
    }


def _analyze_fig4(results, csv_dir):
    result = results["fig4"]
    payload = {}
    for label, kinds in result.distributions.items():
        rows = [
            [kind, dist.mode(), round(dist.mean(), 1), dist.max_degree()]
            for kind, dist in kinds.items()
        ]
        print(format_table(["kind", "mode", "mean", "max"], rows, title=f"Fig. 4 degrees @ {label}"))
        print()
        payload[label] = {
            kind: {"mode": dist.mode(), "mean": dist.mean(), "max": dist.max_degree()}
            for kind, dist in kinds.items()
        }
        if csv_dir:
            for kind, dist in kinds.items():
                tag = label.replace(" ", "_")
                write_csv(
                    csv_dir / f"fig4_{tag}_{kind}.csv",
                    ["degree", "fraction"],
                    dist.pmf(),
                )
    return {"distributions": payload}


def _analyze_fig5(results, csv_dir):
    result = results["fig5"]
    rows = [
        [t / 3600.0, d.mean_partners, d.mean_indegree, d.mean_outdegree]
        for t, d in zip(result.series.times, result.series.values.get("degrees", ()))
    ]
    print(format_table(["t_hours", "partners", "indegree", "outdegree"], rows, title="Fig. 5 average degrees"))
    if csv_dir:
        write_csv(csv_dir / "fig5.csv", ["t_hours", "partners", "in", "out"], rows)
    return {"columns": ["t_hours", "partners", "indegree", "outdegree"], "rows": rows}


def _analyze_fig6(results, csv_dir):
    result = results["fig6"]
    rows = [
        [t / 3600.0, v.indegree_fraction, v.outdegree_fraction]
        for t, v in zip(result.series.times, result.series.values.get("intra", ()))
    ]
    print(format_table(["t_hours", "intra in", "intra out"], rows, title="Fig. 6 intra-ISP degree fractions"))
    print(f"ISP-blind baseline: {result.random_baseline:.3f}")
    if csv_dir:
        write_csv(csv_dir / "fig6.csv", ["t_hours", "in", "out"], rows)
    return {
        "columns": ["t_hours", "intra_in", "intra_out"],
        "rows": rows,
        "random_baseline": result.random_baseline,
    }


def _analyze_fig7(results, csv_dir):
    payload = {}
    for tag in ("global", "China Netcom"):
        result = results[f"fig7 {tag}"]
        rows = [
            [t / 3600.0, m.clustering, m.random_clustering, m.path_length, m.random_path_length]
            for t, m in zip(result.series.times, result.series.values.get("sw", ()))
        ]
        print(format_table(
            ["t_hours", "C", "C_rand", "L", "L_rand"], rows,
            title=f"Fig. 7 small world ({tag})",
        ))
        print()
        payload[tag] = {
            "columns": ["t_hours", "C", "C_rand", "L", "L_rand"],
            "rows": rows,
        }
        if csv_dir:
            write_csv(
                csv_dir / f"fig7_{tag.replace(' ', '_')}.csv",
                ["t_hours", "C", "C_rand", "L", "L_rand"],
                rows,
            )
    return payload


def _analyze_fig8(results, csv_dir):
    result = results["fig8"]
    rows = [
        [t / 3600.0, m.all_links, m.intra_isp, m.inter_isp]
        for t, m in zip(result.series.times, result.series.values.get("rho", ()))
    ]
    print(format_table(["t_hours", "rho all", "rho intra", "rho inter"], rows, title="Fig. 8 edge reciprocity"))
    if csv_dir:
        write_csv(csv_dir / "fig8.csv", ["t_hours", "all", "intra", "inter"], rows)
    return {"columns": ["t_hours", "rho_all", "rho_intra", "rho_inter"], "rows": rows}


def _analyze_windows(results, csv_dir):
    series = results["windows"]
    rows = [
        [
            t / 3600.0,
            deg["partners"].num_peers,
            deg["partners"].mean(),
            rho,
            clu,
        ]
        for t, deg, rho, clu in zip(
            series.times,
            series.values.get("degrees", ()),
            series.values.get("reciprocity", ()),
            series.values.get("clustering", ()),
        )
    ]
    print(format_table(
        ["t_hours", "peers", "mean partners", "rho", "C"],
        rows,
        title="per-window structure",
    ))
    if csv_dir:
        write_csv(
            csv_dir / "windows.csv",
            ["t_hours", "peers", "mean_partners", "rho", "C"],
            rows,
        )
    return {
        "columns": ["t_hours", "peers", "mean_partners", "rho", "C"],
        "rows": rows,
        # Label kept: perfbench pins this payload's digest.
        "analytics": "incremental",
    }


_ANALYZERS = {
    "fig1": _analyze_fig1,
    "fig2": _analyze_fig2,
    "fig3": _analyze_fig3,
    "fig4": _analyze_fig4,
    "fig5": _analyze_fig5,
    "fig6": _analyze_fig6,
    "fig7": _analyze_fig7,
    "fig8": _analyze_fig8,
    "windows": _analyze_windows,
}


def _campaign_health_rows(health: dict[str, object]) -> list[list[object]]:
    """Collection/recovery accounting rows from a persisted health.json."""
    counters = health.get("health")
    counters = counters if isinstance(counters, dict) else {}
    rows: list[list[object]] = [
        ["rounds completed", health.get("rounds_completed", "?")],
        ["trace records", health.get("trace_records", "?")],
        ["resumed from round", health.get("resumed_from_round")],
    ]
    policy = health.get("policy")
    if isinstance(policy, dict):
        rows.append(["partner policy", policy.get("spec", policy.get("name", "?"))])
        params = policy.get("params")
        if isinstance(params, dict) and params:
            rows.append([
                "policy params",
                ", ".join(f"{k}={v}" for k, v in sorted(params.items())),
            ])
    rows += [
        ["server-dropped reports", counters.get("server_dropped", 0)],
        ["quarantined records (recovery)", counters.get("quarantined", 0)],
        ["truncated lines (recovery)", counters.get("truncated_lines", 0)],
        ["parse failures (recovery)", counters.get("parse_failures", 0)],
    ]
    fleet = health.get("fleet")
    if isinstance(fleet, dict):
        rows.append(["fleet shards", fleet.get("num_shards", "?")])
        shards = fleet.get("shards")
        if isinstance(shards, dict):
            for sid, shard in sorted(shards.items(), key=lambda kv: int(kv[0])):
                if not isinstance(shard, dict):
                    continue
                restarts = shard.get("restarts", 0)
                suffix = f", {restarts} restarts" if restarts else ""
                rows.append(
                    [
                        f"shard {sid}",
                        f"{shard.get('status', '?')} "
                        f"({shard.get('rounds_completed', '?')} rounds{suffix})",
                    ]
                )
        quarantined = fleet.get("quarantined")
        if quarantined:
            rows.append(["QUARANTINED shards", quarantined])
        incidents = fleet.get("incidents")
        if isinstance(incidents, list) and incidents:
            rows.append(["fleet incidents", len(incidents)])
            for incident in incidents:
                if not isinstance(incident, dict):
                    continue
                rows.append(
                    [
                        f"  {incident.get('kind', '?')} "
                        f"shard {incident.get('shard_id', '?')}",
                        incident.get("detail", ""),
                    ]
                )
    return rows


def _print_campaign_health(trace_path: Path) -> None:
    health = ex.load_campaign_health(trace_path)
    if health is None:
        return
    print()
    print(format_table(
        ["property", "value"],
        _campaign_health_rows(health),
        title=f"campaign health {trace_path}",
    ))


def _figure_plans(trace, figures, obs) -> dict[str, ex.FigurePlan]:
    """The plans behind ``figures``, all served by one pass of the trace.

    ``windows`` reads each window's reports rather than a snapshot, so
    it is a plan without schedules that makes its own single pass.
    """
    plans: dict[str, ex.FigurePlan] = {}
    for fig in figures:
        if fig == "windows":
            plans[fig] = ex.FigurePlan((), lambda: ex.windowed_structure(trace, obs=obs))
        elif fig == "fig7":
            plans["fig7 global"] = ex.fig7_plan()
            plans["fig7 China Netcom"] = ex.fig7_plan(isp="China Netcom")
        else:
            plans[fig] = ex.FIGURE_PLANS[fig]()
    return plans


def _run_figures(trace, figures, csv_dir, obs) -> dict[str, object]:
    results = ex.run_figures(trace, _figure_plans(trace, figures, obs), obs=obs)
    payloads: dict[str, object] = {}
    for fig in figures:
        try:
            payloads[fig] = _ANALYZERS[fig](results, csv_dir)
        except ValueError as exc:
            payloads[fig] = {"skipped": str(exc)}
            print(f"{fig}: skipped ({exc})")
        print()
    return payloads


def cmd_analyze(args: argparse.Namespace) -> int:
    if not _is_trace_dir(args.trace):
        return 2
    if args.csv_dir:
        args.csv_dir.mkdir(parents=True, exist_ok=True)
    trace = SegmentedTraceReader(args.trace, tolerant=args.tolerant)
    figures = FIGURES if args.figure == "all" else (args.figure,)
    obs = create_observer(args.obs_dir)
    try:
        if args.json:
            with contextlib.redirect_stdout(io.StringIO()):
                payloads = _run_figures(trace, figures, args.csv_dir, obs)
            doc: dict[str, object] = {"trace": str(args.trace), "figures": payloads}
            if args.tolerant:
                doc["trace_health"] = dataclasses.asdict(trace.health)
            campaign_health = ex.load_campaign_health(args.trace)
            if campaign_health is not None:
                doc["campaign_health"] = campaign_health
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            _run_figures(trace, figures, args.csv_dir, obs)
            if args.tolerant:
                print(format_trace_health(trace.health, title=f"trace health {args.trace}"))
            _print_campaign_health(args.trace)
    finally:
        if args.obs_dir is not None:
            finalize_observer(obs, args.obs_dir)
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    if args.server is not None:
        try:
            payload = _query_server_health(args.server)
        except (OSError, ValueError) as exc:
            print(f"error: cannot query {args.server}: {exc}", file=sys.stderr)
            return 2
        health = payload.get("health")
        stats = payload.get("stats")
        rows: list[list[object]] = [
            ["stored records", payload.get("records", "?")],
            ["queued reports", payload.get("queued_reports", "?")],
        ]
        if isinstance(stats, dict):
            rows += [[name.replace("_", " "), value] for name, value in sorted(stats.items())]
        if isinstance(health, dict):
            rows += [
                [f"health: {name.replace('_', ' ')}", value]
                for name, value in sorted(health.items())
                if value
            ]
        print(format_table(
            ["property", "value"], rows, title=f"ingest server {args.server}"
        ))
        return 0
    if args.trace is None:
        print("error: info needs --trace or --server", file=sys.stderr)
        return 2
    if not _is_trace_dir(args.trace):
        return 2
    trace = SegmentedTraceReader(args.trace, tolerant=args.tolerant)
    count = 0
    first = last = None
    ips = set()
    channels = set()
    for report in trace:
        count += 1
        first = report.time if first is None else first
        last = report.time
        ips.add(report.peer_ip)
        channels.add(report.channel_id)
    if count == 0:
        # An interrupted fleet campaign has no merged root trace yet,
        # but its health summary (per-shard status, incidents) is
        # exactly what an operator checking on it needs.
        print("empty trace")
        _print_campaign_health(args.trace)
        return 0
    sessions = session_statistics(trace)
    turnover = population_turnover(trace)
    stability = partner_stability(trace)
    span_days = (last - first) / 86_400.0
    mean_turnover = (
        sum(p.turnover_rate for p in turnover) / len(turnover) if turnover else 0.0
    )
    rows = [
        ["reports", count],
        ["reporting peers (stable IPs)", len(ips)],
        ["channels", len(channels)],
        ["span (days)", round(span_days, 2)],
        ["mean reporting span (min)", round(sessions.mean_span_s / 60.0, 1)],
        ["mean reports per peer", round(sessions.mean_reports_per_peer, 1)],
        ["mean window turnover rate", round(mean_turnover, 3)],
        ["mean partner-list jaccard", round(stability.mean_jaccard, 3)],
    ]
    print(format_table(["property", "value"], rows, title=f"trace {args.trace}"))
    if args.tolerant:
        print()
        print(format_trace_health(trace.health, title=f"trace health {args.trace}"))
    _print_campaign_health(args.trace)
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "summarize":
        if not args.obs_dir.is_dir():
            print(f"error: no such obs directory: {args.obs_dir}", file=sys.stderr)
            return 2
        print(render_summary(args.obs_dir))
        return 0
    raise AssertionError(f"unhandled obs command {args.obs_command!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("run", "simulate"):
        return cmd_run(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "analyze":
        return cmd_analyze(args)
    if args.command == "info":
        return cmd_info(args)
    if args.command == "obs":
        return cmd_obs(args)
    if args.command == "qa":
        return run_qa(args)
    if args.command == "compare-overlays":
        return cmd_compare_overlays(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
