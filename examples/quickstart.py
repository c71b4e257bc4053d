#!/usr/bin/env python3
"""Quickstart: simulate a small UUSee deployment, collect a Magellan
trace, and compute the paper's headline topology metrics — every figure
from one pass over the trace (``run_figures``).

Run:  python examples/quickstart.py
Takes about half a minute.
"""

import tempfile
from pathlib import Path

from repro.core.experiments import (
    fig1_plan,
    fig2_plan,
    fig3_plan,
    fig6_plan,
    fig7_plan,
    fig8_plan,
    run_campaign,
    run_figures,
)
from repro.core.report import format_table
from repro.traces import SegmentedTraceReader


def main() -> None:
    trace_dir = Path(tempfile.mkdtemp()) / "quickstart"
    print("Simulating 1.5 days of a ~400-peer UUSee deployment ...")
    run_campaign(
        trace_dir,
        days=1.5,
        base_concurrency=400,
        seed=42,
        with_flash_crowd=False,
    )
    figures = run_figures(
        SegmentedTraceReader(trace_dir),
        {
            "fig1": fig1_plan(),
            "fig2": fig2_plan(),
            "fig3": fig3_plan(),
            "fig6": fig6_plan(),
            "fig7": fig7_plan(),
            "fig8": fig8_plan(),
        },
    )
    fig1, fig3, fig6, fig7, fig8 = (
        figures[name] for name in ("fig1", "fig3", "fig6", "fig7", "fig8")
    )

    frac_in, frac_out = fig6.mean_fractions()
    rho = fig8.means()
    rows = [
        ["stable / total peers", fig1.stable_ratio(), "~1/3 (Fig. 1A)"],
        ["daily peak hour", fig1.peak_hour_of_day(), "21:00 (Fig. 1A)"],
        ["CCTV1 satisfied fraction", fig3.mean_quality("CCTV1"), "~0.75 (Fig. 3)"],
        ["intra-ISP indegree fraction", frac_in, "~0.4 (Fig. 6)"],
        ["   (ISP-blind baseline)", fig6.random_baseline, "sum of share^2"],
        ["clustering vs random", fig7.mean_clustering_ratio(), ">10x (Fig. 7A)"],
        ["path length vs random", fig7.mean_path_ratio(), "~1x (Fig. 7A)"],
        ["edge reciprocity rho", rho.all_links, ">0 (Fig. 8A)"],
        ["   intra-ISP rho", rho.intra_isp, "> global (Fig. 8B)"],
        ["   inter-ISP rho", rho.inter_isp, "< global (Fig. 8B)"],
    ]
    print()
    print(format_table(["metric", "measured", "paper"], rows, title="Magellan quickstart"))
    print(f"\nISP shares (Fig. 2): ")
    shares = figures["fig2"]
    for name in sorted(shares, key=shares.get, reverse=True):
        print(f"  {name:16s} {shares[name]:.3f}")
    print(f"\nTrace directory: {trace_dir}")


if __name__ == "__main__":
    main()
