"""Integration tests for the per-figure experiment drivers.

These run every driver end-to-end on a shared two-day simulated trace
and assert the qualitative shapes the paper reports (with tolerances
appropriate to the small test scale; the benchmarks assert the same
shapes at full scale).
"""

import pytest

from repro.core.experiments import (
    fig1_scale,
    fig2_isp_shares,
    fig3_streaming_quality,
    fig4_degree_distributions,
    fig5_degree_evolution,
    fig6_intra_isp_degrees,
    fig7_small_world,
    fig8_reciprocity,
)

DAY = 86_400.0
HOUR = 3_600.0


class TestFig1:
    def test_counts_and_ratio(self, small_trace):
        result = fig1_scale(small_trace)
        assert len(result.series) >= 40
        ratio = result.stable_ratio()
        assert 0.2 <= ratio <= 0.55  # paper: asymptotically 1/3

    def test_evening_peak(self, small_trace):
        result = fig1_scale(small_trace)
        assert 19 <= result.peak_hour_of_day() <= 23

    def test_daily_distinct_exceeds_concurrent(self, small_trace):
        result = fig1_scale(small_trace)
        assert len(result.daily) == 2
        for _, total, stable in result.daily:
            assert total > stable > 0
        max_concurrent = max(result.series.column("total"))
        assert result.daily[1][1] > 2 * max_concurrent

    def test_trace_too_short_raises(self, small_trace):
        # No report falls in the first on-the-hour window [0, 600 s).
        first_hour = [r for r in small_trace if r.time < HOUR]
        assert first_hour
        with pytest.raises(ValueError, match="trace too short"):
            fig1_scale(first_hour)


class TestFig2:
    def test_rank_order(self, small_trace):
        shares = fig2_isp_shares(small_trace)
        assert sum(shares.values()) == pytest.approx(1.0)
        ranked = sorted(shares, key=shares.get, reverse=True)
        assert ranked[0] == "China Telecom"
        assert ranked[1] == "China Netcom"
        assert shares.get("Oversea ISPs", 0) > 0.02


class TestFig3:
    def test_trace_too_short_raises(self, small_trace):
        first_hour = [r for r in small_trace if r.time < HOUR]
        with pytest.raises(ValueError, match="trace too short"):
            fig3_streaming_quality(first_hour)

    def test_quality_levels(self, small_trace):
        result = fig3_streaming_quality(small_trace)
        cctv1 = result.mean_quality("CCTV1")
        assert 0.45 <= cctv1 <= 1.0  # paper: ~3/4 at full scale

    def test_both_channels_observed(self, small_trace):
        result = fig3_streaming_quality(small_trace)
        assert set(result.channels) == {"CCTV1", "CCTV4"}
        assert any(v is not None for v in result.series.column("CCTV4"))


class TestFig4:
    TIMES = {"9am": DAY + 9 * HOUR, "9pm": DAY + 21 * HOUR}

    def test_distributions_present(self, small_trace):
        result = fig4_degree_distributions(small_trace, snapshot_times=self.TIMES)
        for label in self.TIMES:
            for kind in ("partners", "in", "out"):
                assert result.kind_at(label, kind).num_peers > 10

    def test_not_power_law(self, small_trace):
        from repro.graph import powerlaw_fit

        result = fig4_degree_distributions(small_trace, snapshot_times=self.TIMES)
        dist = result.kind_at("9pm", "partners")
        assert dist.mode() > 3  # interior spike, not a monotone decay
        assert not powerlaw_fit(dist).is_plausible_powerlaw

    def test_indegree_ceiling(self, small_trace):
        result = fig4_degree_distributions(small_trace, snapshot_times=self.TIMES)
        for label in self.TIMES:
            assert result.kind_at(label, "in").max_degree() <= 25

    def test_trace_too_short_raises(self, small_trace):
        with pytest.raises(ValueError):
            fig4_degree_distributions(
                small_trace, snapshot_times={"future": 30 * DAY}
            )


class TestFig5:
    def test_indegree_flat_near_ten(self, small_trace):
        result = fig5_degree_evolution(small_trace)
        assert 5 <= result.mean_indegree() <= 14

    def test_partner_count_swings_more_than_indegree(self, small_trace):
        result = fig5_degree_evolution(small_trace)
        lo, hi = result.partner_count_range()
        summaries = result.summaries()
        in_values = [s.mean_indegree for s in summaries[8:]]
        in_spread = max(in_values) - min(in_values)
        assert (hi - lo) > in_spread  # partners vary, indegree steady


class TestFig6:
    def test_intra_fraction_above_random(self, small_trace):
        result = fig6_intra_isp_degrees(small_trace)
        frac_in, frac_out = result.mean_fractions()
        assert frac_in > result.random_baseline + 0.02
        assert frac_out > result.random_baseline + 0.02

    def test_fraction_in_plausible_band(self, small_trace):
        result = fig6_intra_isp_degrees(small_trace)
        frac_in, frac_out = result.mean_fractions()
        for value in (frac_in, frac_out):
            assert 0.25 <= value <= 0.65  # paper: ~0.4


class TestFig7:
    def test_clustering_far_above_random(self, small_trace):
        result = fig7_small_world(small_trace)
        assert result.mean_clustering_ratio() > 3  # >10 at full scale

    def test_path_lengths_comparable_to_random(self, small_trace):
        result = fig7_small_world(small_trace)
        assert 0.3 <= result.mean_path_ratio() <= 2.0

    def test_isp_subgraph_more_clustered(self, small_trace):
        global_result = fig7_small_world(small_trace)
        netcom = fig7_small_world(small_trace, isp="China Netcom")
        c_global = [m.clustering for m in global_result.metrics()]
        c_netcom = [m.clustering for m in netcom.metrics()]
        assert sum(c_netcom) / len(c_netcom) > 0.8 * sum(c_global) / len(c_global)


class TestFig8:
    def test_reciprocal_topology(self, small_trace):
        result = fig8_reciprocity(small_trace)
        means = result.means()
        assert means.all_links > 0.1  # strongly reciprocal, never ~0

    def test_intra_exceeds_all_exceeds_inter(self, small_trace):
        means = fig8_reciprocity(small_trace).means()
        assert means.intra_isp > means.all_links
        assert means.all_links > means.inter_isp - 0.05
