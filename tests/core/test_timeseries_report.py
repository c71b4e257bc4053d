"""Unit tests for windowed observation and report rendering."""

import pytest

from repro.core import observe
from repro.core.report import format_series, format_table, write_csv
from repro.core import timeseries
from repro.core.metrics import DailyDistinctIps, daily_distinct_ips
from repro.core.timeseries import At, EachReport, Every, SnapshotSeries, sweep
from tests.core.helpers import partner, report


class TestObserve:
    def test_metric_per_window(self):
        reports = [
            report(1, t=10.0),
            report(2, t=20.0),
            report(1, t=700.0),
        ]
        series = observe(reports, {"stable": lambda s: s.num_stable})
        assert series.times == [0.0, 600.0]
        assert series.column("stable") == [2, 1]

    def test_observe_every_subsamples(self):
        reports = [report(1, t=float(t)) for t in range(0, 7200, 300)]
        series = observe(
            reports,
            {"n": lambda s: s.num_stable},
            window_seconds=600.0,
            observe_every=3600.0,
        )
        assert series.times == [0.0, 3600.0]

    def test_observe_every_must_cover_window(self):
        with pytest.raises(ValueError):
            observe([], {"n": lambda s: 0}, window_seconds=600, observe_every=300)

    def test_start_offset(self):
        reports = [report(1, t=100.0), report(2, t=700.0)]
        series = observe(
            reports, {"n": lambda s: s.num_stable}, start=600.0
        )
        assert series.times == [600.0]

    def test_multiple_metrics_aligned(self):
        reports = [report(1, t=10.0, partners=[partner(9, recv=20)])]
        series = observe(
            reports,
            {"stable": lambda s: s.num_stable, "total": lambda s: s.num_total},
        )
        rows = list(series.rows())
        assert rows == [(0.0, {"stable": 1, "total": 2})]

    def test_custom_threshold_passed_to_snapshot(self):
        reports = [report(1, t=10.0, partners=[partner(9, recv=5)])]
        strict = observe(
            reports, {"e": lambda s: s.active_graph.num_edges}, active_threshold=10
        )
        loose = observe(
            reports, {"e": lambda s: s.active_graph.num_edges}, active_threshold=3
        )
        assert strict.column("e") == [0]
        assert loose.column("e") == [1]


def stable(snapshot):
    return snapshot.num_stable


class TestSweep:
    REPORTS = [report(ip, t=float(t)) for t in range(0, 4 * 3600, 300) for ip in (1, 2)]

    def test_schedules_match_separate_observes(self):
        out = sweep(self.REPORTS, {
            "all": Every({"n": stable}),
            "hourly": Every({"n": stable}, 3600.0),
        })
        assert out["all"].times == observe(self.REPORTS, {"n": stable}).times
        assert out["hourly"].times == [0.0, 3600.0, 7200.0, 10800.0]

    def test_snapshot_built_once_per_sampled_window(self, monkeypatch):
        built = []
        build = timeseries.build_snapshot
        monkeypatch.setattr(
            timeseries, "build_snapshot",
            lambda reports, **kw: built.append(kw["time"]) or build(reports, **kw),
        )
        sweep(self.REPORTS, {
            "hourly": Every({"n": stable}, 3600.0),
            "6h": Every({"n": stable}, 6 * 3600.0),
            "at": At({"n": stable}, {"a": 3700.0, "b": 3800.0}),
        })
        assert built == [0.0, 3600.0, 7200.0, 10800.0]

    def test_at_completes_and_stops_the_pass(self):
        seen = []

        def stream():
            for r in self.REPORTS:
                seen.append(r)
                yield r

        out = sweep(stream(), {"at": At({"n": stable}, {"late": 1000.0, "early": 10.0})})
        assert list(out["at"]) == ["early", "late"]  # the order found
        assert out["at"]["late"] == {"n": 2}
        assert len(seen) == 9  # windows 0 and 600, plus the look-ahead report

    def test_each_report_sees_reports_before_start(self):
        reports = [report(1, t=-5.0), *self.REPORTS]
        out = sweep(reports, {
            "days": EachReport(DailyDistinctIps),
            "series": Every({"n": stable}),
        })
        assert out["days"] == daily_distinct_ips(reports)
        assert out["days"][0][0] == -1

    def test_metric_error_ends_its_schedule_only(self):
        def broken(snapshot):
            if snapshot.time >= 600.0:
                raise ValueError("broken metric")
            return 0

        out = sweep(self.REPORTS, {"bad": Every({"x": broken}), "good": Every({"n": stable})})
        with pytest.raises(ValueError, match="broken metric"):
            out["bad"]
        assert len(out["good"]) == len(observe(self.REPORTS, {"n": stable}))

    def test_read_error_ends_every_incomplete_schedule(self):
        def stream():
            yield from self.REPORTS[:20]
            raise ValueError("bad line")

        out = sweep(stream(), {
            "series": Every({"n": stable}),
            "done": At({"n": stable}, {"a": 10.0}),
            "waiting": At({"n": stable}, {"a": 10.0, "b": 9000.0}),
            "days": EachReport(DailyDistinctIps),
        })
        assert out["done"] == {"a": {"n": 2}}
        for name in ("series", "waiting", "days"):
            with pytest.raises(ValueError, match="bad line"):
                out[name]

    def test_every_must_cover_window(self):
        with pytest.raises(ValueError):
            sweep([], {"s": Every({}, 300.0)})

    def test_no_schedules_read_nothing(self):
        def stream():
            raise AssertionError("read")
            yield

        assert sweep(stream(), {}).results == {}


class TestSeriesContainer:
    def test_append_and_len(self):
        s = SnapshotSeries()
        s.append(0.0, {"a": 1})
        s.append(600.0, {"a": 2})
        assert len(s) == 2
        assert s.column("a") == [1, 2]


class TestRendering:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"],
            [["x", 1.23456], ["longer", None]],
            precision=2,
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.23" in text
        assert "-" in lines[-1]  # None rendered as dash

    def test_format_series(self):
        s = SnapshotSeries()
        s.append(3600.0, {"total": 10})
        text = format_series(s, ["total"], time_unit="hours")
        assert "t_hours" in text
        assert "1.000" in text

    def test_write_csv(self, tmp_path):
        path = write_csv(tmp_path / "out.csv", ["a", "b"], [[1, 2], [3, 4]])
        content = path.read_text().strip().splitlines()
        assert content == ["a,b", "1,2", "3,4"]
