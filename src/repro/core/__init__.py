"""Magellan analytics: the paper's topology characterisation pipeline.

Given a Magellan-style trace (from ``repro.traces``, fed by the
``repro.simulator`` substrate — or, in principle, by a real deployment),
this subpackage rebuilds topology snapshots and computes every metric of
the paper's Sec. 4:

- scale: concurrent peers, stable peers, daily distinct IPs (Fig. 1);
- ISP membership shares (Fig. 2);
- streaming quality per channel (Fig. 3);
- degree distributions and their evolution (Figs. 4, 5);
- intra-ISP degree fractions (Fig. 6);
- small-world metrics vs random baselines, global and per ISP (Fig. 7);
- Garlaschelli-Loffredo edge reciprocity, global and ISP-split (Fig. 8).

``run_figures`` (over ``timeseries.sweep``) computes any set of figures
from a single pass over the trace.
"""

from repro.core.snapshots import TopologySnapshot, build_snapshot
from repro.core.metrics import (
    DegreeSummary,
    IntraIspDegrees,
    average_degrees,
    daily_distinct_ips,
    degree_distributions,
    intra_isp_degree_fractions,
    isp_shares,
    peer_counts,
    reciprocity_metrics,
    small_world,
    streaming_quality,
)
from repro.core.timeseries import (
    At,
    EachReport,
    Every,
    SnapshotSeries,
    SweepResult,
    observe,
    round_event_series,
    sweep,
)
from repro.core.experiments import (
    CampaignResult,
    Fig1Result,
    Fig3Result,
    Fig4Result,
    Fig5Result,
    Fig6Result,
    Fig7Result,
    Fig8Result,
    FigurePlan,
    run_campaign,
    run_figures,
)
from repro.core import experiments
from repro.core.dynamics import (
    PartnerStability,
    SessionStatistics,
    TurnoverPoint,
    partner_stability,
    population_turnover,
    session_statistics,
)
from repro.core.locality import TrafficMatrix, isp_traffic_matrix
from repro.core.structure import MeshStructure, mesh_structure
from repro.core.resilience import ResilienceStats, quality_dip, satisfied_series
from repro.core.report import (
    format_series,
    format_table,
    format_trace_health,
    write_csv,
)

__all__ = [
    "TopologySnapshot",
    "build_snapshot",
    "DegreeSummary",
    "IntraIspDegrees",
    "average_degrees",
    "daily_distinct_ips",
    "degree_distributions",
    "intra_isp_degree_fractions",
    "isp_shares",
    "peer_counts",
    "reciprocity_metrics",
    "small_world",
    "streaming_quality",
    "SnapshotSeries",
    "observe",
    "sweep",
    "SweepResult",
    "Every",
    "At",
    "EachReport",
    "round_event_series",
    "experiments",
    "CampaignResult",
    "Fig1Result",
    "Fig3Result",
    "Fig4Result",
    "Fig5Result",
    "Fig6Result",
    "Fig7Result",
    "Fig8Result",
    "run_campaign",
    "FigurePlan",
    "run_figures",
    "ResilienceStats",
    "quality_dip",
    "satisfied_series",
    "format_series",
    "format_table",
    "format_trace_health",
    "write_csv",
    "PartnerStability",
    "SessionStatistics",
    "TurnoverPoint",
    "partner_stability",
    "population_turnover",
    "session_statistics",
    "TrafficMatrix",
    "isp_traffic_matrix",
    "MeshStructure",
    "mesh_structure",
]
