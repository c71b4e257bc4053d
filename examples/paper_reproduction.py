#!/usr/bin/env python3
"""Full paper reproduction: every figure from one two-week trace.

Simulates the paper's two selected weeks (Sunday 2006-10-01 through
Saturday 2006-10-14, flash crowd on Friday Oct 6 at 9 p.m.), collects
the Magellan trace, regenerates Figures 1-8 and writes both the tables
and per-figure CSV series.

This is the long-running flagship driver; scale it down with flags:

    python examples/paper_reproduction.py --days 4 --base 400
    python examples/paper_reproduction.py            # full 14 days, ~15 min
    python examples/paper_reproduction.py --out-dir results/

The pytest benchmarks run the same pipeline on an 8-day trace with
shape assertions; this script is for producing the full artifact set.
"""

import argparse
import time
from pathlib import Path

from repro.cli import _ANALYZERS  # the per-figure renderers
from repro.core.experiments import run_campaign
from repro.obs import NULL_OBSERVER
from repro.traces import SegmentedTraceReader
from repro.workloads import presets


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=float, default=None, help="default: 14")
    parser.add_argument("--base", type=float, default=None, help="default: 1000")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--out-dir", type=Path, default=Path("paper_run"))
    args = parser.parse_args()

    config, preset_days = presets.paper_two_weeks(seed=args.seed)
    days = args.days if args.days is not None else preset_days
    base = args.base if args.base is not None else config.base_concurrency

    args.out_dir.mkdir(parents=True, exist_ok=True)
    trace_dir = args.out_dir / "trace"
    print(
        f"Simulating {days:g} days at base concurrency {base:g} "
        f"(seed {args.seed}) -> {trace_dir}"
    )
    t0 = time.time()
    run_campaign(
        trace_dir,
        days=days,
        base_concurrency=base,
        seed=args.seed,
        with_flash_crowd=True,
        compress=True,
    )
    print(f"simulation finished in {time.time() - t0:.0f}s")

    trace = SegmentedTraceReader(trace_dir)
    csv_dir = args.out_dir / "csv"
    csv_dir.mkdir(exist_ok=True)
    for fig, render in _ANALYZERS.items():
        print(f"\n{'=' * 72}\nRegenerating {fig} ...\n")
        try:
            render(trace, csv_dir, NULL_OBSERVER)
        except ValueError as exc:
            print(f"{fig}: skipped ({exc}) — run with more days")
    print(f"\nAll figure series written under {csv_dir}/")


if __name__ == "__main__":
    main()
