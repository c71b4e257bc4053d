"""End-to-end tests for the command-line interface."""

import hashlib

import pytest

from repro.cli import build_parser, main

#: The arguments of the shared CLI trace, after the output option.
CLI_TRACE_ARGS = ["--days", "0.4", "--base", "120", "--seed", "5", "--no-flash-crowd"]


def content_sha256(trace_dir):
    """sha256 over the (uncompressed) segments of a campaign directory."""
    digest = hashlib.sha256()
    for path in sorted(trace_dir.glob("seg-*.jsonl")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def cli_trace(tmp_path_factory):
    """A tiny simulated campaign directory produced through the CLI itself."""
    path = tmp_path_factory.mktemp("cli") / "trace"
    assert main(["simulate", "--out", str(path), *CLI_TRACE_ARGS]) == 0
    return path


class TestParser:
    def test_commands_exist(self):
        parser = build_parser()
        for argv in (
            ["simulate", "--out", "x"],
            ["run", "--trace-dir", "x"],
            ["analyze", "--trace", "x"],
            ["info", "--trace", "x"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_simulate_is_an_alias_of_run(self):
        parser = build_parser()
        alias = parser.parse_args(["simulate", "--out", "d", "--days", "1"])
        run = parser.parse_args(["run", "--trace-dir", "d", "--days", "1"])
        assert vars(alias) == {**vars(run), "command": "simulate"}

    def test_figure_choices(self):
        parser = build_parser()
        args = parser.parse_args(["analyze", "--trace", "t", "--figure", "fig6"])
        assert args.figure == "fig6"
        with pytest.raises(SystemExit):
            parser.parse_args(["analyze", "--trace", "t", "--figure", "fig99"])

    def test_policy_choices(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "--out", "t", "--policy", "tree"])
        assert args.policy == "tree"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--trace-dir", "d"])
        assert not args.resume
        assert args.checkpoint_every == 36
        assert args.keep_last == 3


class TestRunCampaign:
    @pytest.fixture(scope="class")
    def campaign_dir(self, tmp_path_factory):
        """A short campaign run through the CLI, then resumed to extend."""
        d = tmp_path_factory.mktemp("campaign") / "trace"
        argv = [
            "run", "--trace-dir", str(d), "--days", "0.1", "--base", "60",
            "--seed", "5", "--no-flash-crowd", "--checkpoint-every", "4",
            "--segment-records", "50",
        ]
        assert main(argv) == 0
        return d

    def test_campaign_layout(self, campaign_dir):
        assert (campaign_dir / "manifest.json").exists()
        assert list(campaign_dir.glob("seg-*.jsonl"))
        assert list((campaign_dir / "checkpoints").glob("ckpt-*.bin"))

    def test_resume_extends_campaign(self, campaign_dir, capsys):
        argv = [
            "run", "--trace-dir", str(campaign_dir), "--resume",
            "--days", "0.15", "--base", "60", "--seed", "5",
            "--no-flash-crowd", "--checkpoint-every", "4",
            "--segment-records", "50",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint at round" in out
        assert "campaign complete" in out

    def test_resume_without_checkpoints_fails_cleanly(self, tmp_path, capsys):
        rc = main(["run", "--trace-dir", str(tmp_path / "void"), "--resume"])
        assert rc == 2
        assert "no valid checkpoint" in capsys.readouterr().err

    def test_fresh_run_refuses_existing_campaign(self, campaign_dir, capsys):
        rc = main(["run", "--trace-dir", str(campaign_dir), "--days", "0.1"])
        assert rc == 2
        assert "already holds a segmented trace" in capsys.readouterr().err

    def test_analyze_and_info_read_campaign_directory(
        self, campaign_dir, capsys
    ):
        assert main(["info", "--trace", str(campaign_dir)]) == 0
        assert "reports" in capsys.readouterr().out
        rc = main(
            ["analyze", "--trace", str(campaign_dir), "--figure", "fig1"]
        )
        assert rc == 0
        assert "Fig. 1(A)" in capsys.readouterr().out


class TestSimulate:
    def test_trace_created(self, cli_trace):
        assert (cli_trace / "manifest.json").exists()
        segments = list(cli_trace.glob("seg-*.jsonl"))
        assert len(segments) == 1
        assert segments[0].stat().st_size > 1000

    def test_trace_content_pinned(self, cli_trace):
        # The content the retired single-file writer produced for the
        # same arguments: the campaign directory holds the same bytes.
        assert content_sha256(cli_trace) == (
            "a1fdcdc05ec58688c549b6fdaa62123aad0d3f46801810f7e8f4f5c67edd7855"
        )

    def test_out_and_trace_dir_write_the_same_trace(self, cli_trace, tmp_path):
        other = tmp_path / "run"
        assert main(["run", "--trace-dir", str(other), *CLI_TRACE_ARGS]) == 0
        assert content_sha256(other) == content_sha256(cli_trace)

    def test_refuses_existing_campaign(self, cli_trace, capsys):
        before = content_sha256(cli_trace)
        capsys.readouterr()
        rc = main(["simulate", "--out", str(cli_trace), *CLI_TRACE_ARGS])
        assert rc == 2
        assert "already holds a segmented trace" in capsys.readouterr().err
        assert content_sha256(cli_trace) == before


class TestInfo:
    def test_summary_printed(self, cli_trace, capsys):
        assert main(["info", "--trace", str(cli_trace)]) == 0
        out = capsys.readouterr().out
        assert "reports" in out
        assert "reporting peers" in out

    def test_missing_trace(self, tmp_path, capsys):
        rc = main(["info", "--trace", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "no such trace" in capsys.readouterr().err

    def test_file_trace_rejected(self, cli_trace, capsys):
        # A single trace file (the pre-directory format) is refused with
        # a one-line error instead of a traceback.
        segment = next(cli_trace.glob("seg-*.jsonl"))
        assert main(["info", "--trace", str(segment)]) == 2
        err = capsys.readouterr().err
        assert "not a campaign directory" in err
        assert err.count("\n") == 1

    def test_tolerant_reports_health(self, cli_trace, tmp_path, capsys):
        # a dirty copy: duplicate one line, truncate the last one
        lines = next(cli_trace.glob("seg-*.jsonl")).read_text().splitlines(True)
        dirty = tmp_path / "dirty"
        dirty.mkdir()
        (dirty / "seg-00000001.jsonl").write_text(
            lines[0] + lines[0] + "".join(lines[1:-1]) + lines[-1][:30]
        )
        assert main(["info", "--trace", str(dirty), "--tolerant"]) == 0
        out = capsys.readouterr().out
        assert "trace health" in out
        assert "duplicates dropped" in out


class TestAnalyze:
    def test_single_figure(self, cli_trace, capsys):
        assert main(["analyze", "--trace", str(cli_trace), "--figure", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "China Telecom" in out

    def test_fig4_too_short_is_skipped_gracefully(self, cli_trace, capsys):
        # the default Fig. 4 snapshots are beyond a 0.4-day trace
        assert main(["analyze", "--trace", str(cli_trace), "--figure", "fig4"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_sub_hour_trace_skips_hourly_figures(self, tmp_path, capsys):
        # Reports start ~20 min in, so a 58-minute trace has no report
        # in any on-the-hour window: Figs. 1 and 3 must skip, not crash.
        import json

        trace = tmp_path / "short"
        argv = ["simulate", "--out", str(trace), "--days", "0.04",
                "--base", "300", "--seed", "3"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["analyze", "--trace", str(trace), "--json"]) == 0
        figures = json.loads(capsys.readouterr().out)["figures"]
        assert len(figures) == 8
        assert "trace too short" in figures["fig1"]["skipped"]
        assert "trace too short" in figures["fig3"]["skipped"]

    def test_csv_export(self, cli_trace, tmp_path, capsys):
        csv_dir = tmp_path / "csv"
        rc = main(
            [
                "analyze",
                "--trace",
                str(cli_trace),
                "--figure",
                "fig1",
                "--csv-dir",
                str(csv_dir),
            ]
        )
        assert rc == 0
        assert (csv_dir / "fig1a.csv").exists()
        assert (csv_dir / "fig1b.csv").exists()
        header = (csv_dir / "fig1a.csv").read_text().splitlines()[0]
        assert header == "t,total,stable"

    def test_missing_trace(self, tmp_path):
        rc = main(["analyze", "--trace", str(tmp_path / "gone.jsonl")])
        assert rc == 2

    def test_file_trace_rejected(self, tmp_path, capsys):
        legacy = tmp_path / "trace.jsonl"
        legacy.write_text("{}\n")
        assert main(["analyze", "--trace", str(legacy)]) == 2
        err = capsys.readouterr().err
        assert "not a campaign directory" in err
        assert err.count("\n") == 1

    def test_all_figures_on_short_trace(self, cli_trace, capsys):
        # every analyzer either renders or reports a graceful skip
        assert main(["analyze", "--trace", str(cli_trace)]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1(A)" in out
        assert "Fig. 8" in out


class TestAnalyzeWindows:
    COLUMNS = ["t_hours", "peers", "mean_partners", "rho", "C"]

    def test_json_rows_equal_snapshot_oracle(self, cli_trace, capsys):
        import json

        from repro.core.experiments import WINDOW_STRUCTURE_METRICS
        from repro.core.timeseries import observe
        from repro.traces import SegmentedTraceReader
        from repro.traces.store import iter_windows

        argv = ["analyze", "--trace", str(cli_trace), "--figure", "windows", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)["figures"]["windows"]
        assert payload["columns"] == self.COLUMNS
        assert payload["analytics"] == "incremental"

        reports = list(SegmentedTraceReader(cli_trace))
        windows = list(iter_windows(reports, 600.0))
        assert len(payload["rows"]) == len(windows) > 0

        oracle = observe(reports, WINDOW_STRUCTURE_METRICS)
        expected = [
            [t / 3600.0, deg["partners"].num_peers, deg["partners"].mean(), rho, clu]
            for t, deg, rho, clu in zip(
                oracle.times,
                oracle.values["degrees"],
                oracle.values["reciprocity"],
                oracle.values["clustering"],
            )
        ]
        assert payload["rows"] == expected

    def test_csv_dir_writes_windows_csv(self, cli_trace, tmp_path, capsys):
        csv_dir = tmp_path / "csv"
        argv = [
            "analyze", "--trace", str(cli_trace), "--figure", "windows",
            "--csv-dir", str(csv_dir),
        ]
        assert main(argv) == 0
        assert "per-window structure" in capsys.readouterr().out
        lines = (csv_dir / "windows.csv").read_text().splitlines()
        assert lines[0] == ",".join(self.COLUMNS)
        assert len(lines) > 1

    def test_analytics_option_is_gone(self, cli_trace, capsys):
        argv = [
            "analyze", "--trace", str(cli_trace), "--figure", "windows",
            "--analytics", "full",
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestObservability:
    @pytest.fixture(scope="class")
    def obs_campaign(self, tmp_path_factory):
        """A short instrumented campaign: (trace_dir, obs_dir)."""
        root = tmp_path_factory.mktemp("obs-cli")
        trace_dir = root / "trace"
        obs_dir = root / "obs"
        argv = [
            "run", "--trace-dir", str(trace_dir), "--days", "0.1",
            "--base", "60", "--seed", "5", "--no-flash-crowd",
            "--obs-dir", str(obs_dir),
        ]
        assert main(argv) == 0
        return trace_dir, obs_dir

    def test_run_writes_obs_files(self, obs_campaign, capsys):
        _, obs_dir = obs_campaign
        for name in ("events.jsonl", "metrics.json", "metrics.prom"):
            assert (obs_dir / name).exists(), name

    def test_obs_summarize(self, obs_campaign, capsys):
        _, obs_dir = obs_campaign
        assert main(["obs", "summarize", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "Round-phase timings" in out
        assert "campaign.run" in out
        assert "sim.rounds" in out

    def test_obs_summarize_missing_dir(self, tmp_path, capsys):
        rc = main(["obs", "summarize", str(tmp_path / "nope")])
        assert rc == 2
        assert "no such obs directory" in capsys.readouterr().err

    def test_info_surfaces_campaign_health(self, obs_campaign, capsys):
        trace_dir, _ = obs_campaign
        assert main(["info", "--trace", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "campaign health" in out
        assert "server-dropped reports" in out

    def test_analyze_json_document(self, obs_campaign, capsys):
        import json

        trace_dir, _ = obs_campaign
        rc = main(
            ["analyze", "--trace", str(trace_dir), "--figure", "fig1", "--json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        fig1 = doc["figures"]["fig1"]
        assert fig1["times"]
        assert len(fig1["total"]) == len(fig1["times"])
        # collection-path loss accounting rides along for campaign dirs
        assert "campaign_health" in doc
        assert "server_dropped" in doc["campaign_health"]["health"]

    def test_analyze_json_all_figures_parses(self, cli_trace, capsys):
        import json

        assert main(["analyze", "--trace", str(cli_trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["figures"]) == {
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"
        }

    def test_analyze_obs_dir_profiles_analytics(self, cli_trace, tmp_path, capsys):
        obs_dir = tmp_path / "ana-obs"
        rc = main(
            [
                "analyze", "--trace", str(cli_trace), "--figure", "fig1",
                "--obs-dir", str(obs_dir),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "Analytics timings" in out
        assert "analytics.snapshot" in out


class TestCompareOverlays:
    def test_table_lists_every_policy(self, capsys):
        rc = main(
            [
                "compare-overlays", "--policies", "uusee,strandcast",
                "--hours", "1", "--base", "60", "--seed", "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "overlay comparison" in out
        assert "uusee" in out and "strandcast" in out
        assert "intra-ISP baseline" in out

    def test_json_document(self, capsys):
        import json

        rc = main(
            [
                "compare-overlays", "--policies", "strandcast",
                "--hours", "1", "--base", "60", "--seed", "5", "--json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["spec"] == "strandcast"
        assert doc["rows"][0]["max_indegree"] == 1

    def test_markdown_table(self, capsys):
        rc = main(
            [
                "compare-overlays", "--policies", "strandcast",
                "--hours", "1", "--base", "60", "--seed", "5", "--markdown",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("| policy |")

    def test_unknown_policy_fails_cleanly(self, capsys):
        rc = main(["compare-overlays", "--policies", "nope"])
        assert rc == 2
        assert "unknown partner policy" in capsys.readouterr().err

    def test_campaign_policy_spec_roundtrip(self, tmp_path, capsys):
        rc = main(
            [
                "run", "--trace-dir", str(tmp_path / "camp"), "--days", "0.05",
                "--base", "50", "--seed", "3", "--no-flash-crowd",
                "--policy", "hamiltonian:k=2",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert main(["info", "--trace", str(tmp_path / "camp")]) == 0
        out = capsys.readouterr().out
        assert "hamiltonian:k=2" in out
        assert "k=2" in out

    def test_simulate_rejects_bad_policy(self, tmp_path, capsys):
        rc = main(
            [
                "simulate", "--out", str(tmp_path / "t"),
                "--days", "0.05", "--policy", "locality:mix=5",
            ]
        )
        assert rc == 2
        assert "mix must be in" in capsys.readouterr().err
