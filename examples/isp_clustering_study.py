#!/usr/bin/env python3
"""ISP clustering ablation (paper Secs. 4.2.3, 4.3).

The paper argues ISP clusters form *naturally* because intra-ISP
connections have higher throughput and lower delay, so quality-biased
peer selection prefers them — the protocol never looks at ISP
membership.  This study re-runs the same workload with the UUSEE
policy and with ISP/quality-blind RANDOM selection: the intra-ISP
degree fractions collapse to the random baseline, and per-ISP subgraph
clustering weakens.

Each policy's trace is read once: Figs. 6 and 7 (global and China
Netcom) share one pass (``run_figures``).

Run:  python examples/isp_clustering_study.py   (about two minutes)
"""

import tempfile
from pathlib import Path

from repro.core.experiments import (
    fig6_plan,
    fig7_plan,
    run_campaign,
    run_figures,
)
from repro.core.report import format_table
from repro.simulator.protocol import SelectionPolicy
from repro.traces import SegmentedTraceReader


def run_policy(policy: SelectionPolicy, tmp: Path) -> SegmentedTraceReader:
    path = tmp / policy.value
    run_campaign(
        path,
        days=1.5,
        base_concurrency=450,
        seed=13,
        with_flash_crowd=False,
        policy=policy,
    )
    return SegmentedTraceReader(path)


def main() -> None:
    tmp = Path(tempfile.mkdtemp())
    rows = []
    for policy in (SelectionPolicy.UUSEE, SelectionPolicy.RANDOM):
        print(f"Simulating with {policy.value} selection ...")
        figures = run_figures(
            run_policy(policy, tmp),
            {
                "fig6": fig6_plan(),
                "fig7 global": fig7_plan(),
                "fig7 Netcom": fig7_plan(isp="China Netcom"),
            },
        )
        fig6 = figures["fig6"]
        frac_in, frac_out = fig6.mean_fractions()
        fig7_global = figures["fig7 global"]
        fig7_netcom = figures["fig7 Netcom"]
        netcom_c = [m.clustering for m in fig7_netcom.metrics()]
        rows.append(
            [
                policy.value,
                frac_in,
                frac_out,
                fig6.random_baseline,
                fig7_global.mean_clustering_ratio(),
                sum(netcom_c) / len(netcom_c) if netcom_c else 0.0,
            ]
        )
    print()
    print(
        format_table(
            [
                "policy",
                "intra-ISP in",
                "intra-ISP out",
                "blind baseline",
                "C/C_rand global",
                "C (Netcom subgraph)",
            ],
            rows,
            title=(
                "ISP clustering: UUSee's quality-biased selection vs random "
                "(paper: ~0.4 vs ISP-blind baseline)"
            ),
        )
    )


if __name__ == "__main__":
    main()
