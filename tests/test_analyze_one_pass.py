"""``repro analyze`` reads a trace once and still says exactly the same.

The digests below were recorded from the per-figure implementation that
re-read the trace once per figure; the one-pass driver must reproduce
every payload, skip message, text line, CSV file and trace-health count
byte for byte.  Paths are replaced by ``<trace>`` before digesting, since
read errors and table titles name the trace directory.
"""

import contextlib
import hashlib
import io
import json

import pytest

from repro.cli import FIGURES, main
from repro.core import experiments as ex
from repro.core import timeseries
from repro.traces import SegmentedTraceReader
from repro.traces.records import PeerReport
from repro.traces.store import iter_windows

#: A half-day campaign: hourly and 6-hourly windows, one segment.
PIN_TRACE_ARGS = ["--days", "0.5", "--base", "150", "--seed", "7"]

#: Fig. 4 instants inside the half-day trace; two share one window.
EARLY_INSTANTS = {"1am": 3_660.0, "2am": 7_500.0, "2am late": 7_700.0}

FIGURE_PINS = {
    "fig1": "0e8bacdc7ae45b5b73d8ff9876faac1a6b29d3b91f2b6b414c21d9da1732b730",
    "fig2": "46cdec84ea21f7456ba7620c035b8c75d069e13df5c01702682f6ccae546bb63",
    "fig3": "53f7ed99a11866e17250a307be9d96995960673fc9050be73517fda1911575c9",
    "fig4": "01a11a9df0edc7aa3e38de559d3100b6bd5e03d6fddd7e14309cb19402c51bdf",
    "fig5": "296ba2bdd8e614868f8812b3dcd0a1b7fa614f3c9aac059e60100fbed8c500d8",
    "fig6": "ffdc9c7fc1d12d8827c806a546481b5e5db6af298232e4491ac376118e9efc51",
    "fig7": "4372e82413bbdb673824befdea1296f2f6d2856e574c088ee66a9bbf9b03f02b",
    "fig8": "c45fb73464083777a0f6c2ced6b317b44ad03053f8d057f583e18d6270f6e2e5",
}
TEXT_PIN = "d4c5a6bf6d4f6b7f095fe13a95716720e1a11fe7b1af8a0deb65b2a888134d2d"
CSV_PINS = {
    "fig1a.csv": "0f08dd3f57f043947d1ba8098dd046c681e423002151a2079cea33f9aa21bddb",
    "fig1b.csv": "1df690ddac181761acf5674ba8a8de6d262ba17262dcf28f1e34d12ed2d8a279",
    "fig2.csv": "5e818f5f709deb4e71d24994ac5a25392cd631d9266219f716b3dfc5afad1775",
    "fig3.csv": "3aef63caef3a40668c6e0079492deb8d38b4cec821f2c65574cf45294026038d",
    "fig5.csv": "d7ca88fe3cffe4d9a430771f66efeda5d6dda68cbd4752ca77daa8d307a20af2",
    "fig6.csv": "a1e59e5383a7e86a4dc71e086ec775329d25741fa50bbacc086c3bd87941fac5",
    "fig7_China_Netcom.csv": "f1159d2ef7537658a60357727d970334511f1cf72a28b390153c82259a1b209b",
    "fig7_global.csv": "99f673b6ef947b739c327270f457a06a6eedac6f280707d305acd264e8aa9238",
    "fig8.csv": "ed0595d73d42472471fb524c02b84326051a8f42221ff6f87f415c1709c2f15a",
}
FIG4_PIN = "4c06f9528395205e124735d5d73fed7b304335bdedf45130c3e5526d74ac3e92"
TOLERANT_PINS = {
    "trace_health": "e07ec0e92f00b36fdc353069894bae91121a766044e139d0e294f56118a88bbd",
    "figures": "f84448c370c9e78b95224353da6b31e635553fbdb28c77fceef2dcd3b933be41",
}
FIG4_TOLERANT_PINS = {
    "trace_health": "c9e1e18dd80ef856b3e8fcb8c8d937c1e5983055768259d9cb44341f284ddf68",
    "figures": "bb2b04084f69f789344b3054a2dfa229b7809e132c2cab00d1a31c9b2ff1b4c9",
}
DAMAGED_PINS = {
    "fig1": "360b1ddae63727b01dbeb8c19d4e0159ac74cd1d690db0c615ec10e34ca0bab1",
    "fig2": "360b1ddae63727b01dbeb8c19d4e0159ac74cd1d690db0c615ec10e34ca0bab1",
    "fig3": "360b1ddae63727b01dbeb8c19d4e0159ac74cd1d690db0c615ec10e34ca0bab1",
    "fig4": "be487f07baba79d9db08690eadd0d0398d194e22d46f8ab91653cb39a0b4a61c",
    "fig5": "360b1ddae63727b01dbeb8c19d4e0159ac74cd1d690db0c615ec10e34ca0bab1",
    "fig6": "360b1ddae63727b01dbeb8c19d4e0159ac74cd1d690db0c615ec10e34ca0bab1",
    "fig7": "360b1ddae63727b01dbeb8c19d4e0159ac74cd1d690db0c615ec10e34ca0bab1",
    "fig8": "360b1ddae63727b01dbeb8c19d4e0159ac74cd1d690db0c615ec10e34ca0bab1",
    "text": "187306e2f625270ffe96a0fba0244f8ba852ebd03f642c86b9f30a5bd66981c1",
}
UNORDERED_PINS = {
    "fig1": "bf72576fd547f9248692b386c7dc52b3d90744c4ffad22b05129e94cd289d353",
    "fig2": "bf72576fd547f9248692b386c7dc52b3d90744c4ffad22b05129e94cd289d353",
    "fig3": "bf72576fd547f9248692b386c7dc52b3d90744c4ffad22b05129e94cd289d353",
    "fig4": "bf72576fd547f9248692b386c7dc52b3d90744c4ffad22b05129e94cd289d353",
    "fig5": "bf72576fd547f9248692b386c7dc52b3d90744c4ffad22b05129e94cd289d353",
    "fig6": "bf72576fd547f9248692b386c7dc52b3d90744c4ffad22b05129e94cd289d353",
    "fig7": "bf72576fd547f9248692b386c7dc52b3d90744c4ffad22b05129e94cd289d353",
    "fig8": "bf72576fd547f9248692b386c7dc52b3d90744c4ffad22b05129e94cd289d353",
}


def canonical_sha(obj, trace=None):
    text = json.dumps(obj, sort_keys=True)
    if trace is not None:
        text = text.replace(str(trace), "<trace>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def analyze_json(trace, *extra):
    return json.loads(run_cli("analyze", "--trace", str(trace), "--json", *extra))


def figure_digests(doc, trace):
    return {fig: canonical_sha(p, trace) for fig, p in doc["figures"].items()}


def fig4_payload(result):
    """Every number Fig. 4 holds, in its label order."""
    return [
        [label, {kind: [dist.pmf(), dist.mean(), dist.max_degree(), dist.mode()]
                 for kind, dist in kinds.items()}]
        for label, kinds in result.distributions.items()
    ]


def write_segments(directory, lines, cuts):
    """Write ``lines`` as consecutive segment files split at ``cuts``."""
    directory.mkdir()
    bounds = [0, *cuts, len(lines)]
    for n, (lo, hi) in enumerate(zip(bounds, bounds[1:]), start=1):
        (directory / f"seg-{n:08d}.jsonl").write_text("".join(lines[lo:hi]))
    return directory


def clean_lines(trace):
    return next(trace.glob("seg-*.jsonl")).read_text().splitlines(True)


def dirty_trace(trace, directory):
    """Duplicates (one across a segment cut), a garbage line, a local
    reorder and a torn final line: what ``--tolerant`` repairs."""
    lines = clean_lines(trace)
    lines = (
        lines[:1] + lines[:500] + ['{"t": oops\n'] + lines[500:1000]
        + [lines[1001], lines[1000], lines[999]] + lines[1002:-1] + [lines[-1][:30]]
    )
    return write_segments(directory, lines, [1003])


def damaged_trace(trace, directory):
    """A malformed line in the middle of three segments (~6.1 h in)."""
    lines = clean_lines(trace)
    lines[1000] = "{not json\n"
    return write_segments(directory, lines, [700, 1400])


def unordered_trace(trace, directory):
    """A ~3.3 h report moved after a ~7.5 h one: the windows regress."""
    lines = clean_lines(trace)
    moved = lines.pop(600)
    lines.insert(1300, moved)
    return write_segments(directory, lines, [700, 1400])


@pytest.fixture(scope="module")
def pin_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("pins") / "trace"
    run_cli("simulate", "--out", str(path), *PIN_TRACE_ARGS)
    return path


@pytest.fixture
def early_fig4(monkeypatch):
    """Point ``analyze``'s Fig. 4 at instants inside the half-day trace."""
    monkeypatch.setattr(ex, "FIG4_SNAPSHOT_TIMES", EARLY_INSTANTS)


class TestPins:
    def test_all_figures_json(self, pin_trace):
        assert figure_digests(analyze_json(pin_trace), pin_trace) == FIGURE_PINS

    @pytest.mark.parametrize("figure", FIGURES)
    def test_single_figure_json(self, pin_trace, figure):
        doc = analyze_json(pin_trace, "--figure", figure)
        assert figure_digests(doc, pin_trace) == {figure: FIGURE_PINS[figure]}

    def test_text_and_csv(self, pin_trace, tmp_path):
        csv_dir = tmp_path / "csv"
        text = run_cli("analyze", "--trace", str(pin_trace), "--csv-dir", str(csv_dir))
        text = text.replace(str(pin_trace), "<trace>")
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TEXT_PIN
        csvs = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(csv_dir.iterdir())
        }
        assert csvs == CSV_PINS

    def test_fig4_at_instants(self, pin_trace):
        result = ex.fig4_degree_distributions(
            SegmentedTraceReader(pin_trace), snapshot_times=EARLY_INSTANTS
        )
        assert canonical_sha(fig4_payload(result)) == FIG4_PIN

    def test_tolerant_trace_health(self, pin_trace, tmp_path):
        dirty = dirty_trace(pin_trace, tmp_path / "dirty")
        doc = analyze_json(dirty, "--tolerant")
        digests = {
            "trace_health": canonical_sha(doc["trace_health"]),
            "figures": canonical_sha(doc["figures"], dirty),
        }
        assert digests == TOLERANT_PINS

    def test_tolerant_fig4_stops_where_it_did(self, pin_trace, tmp_path, early_fig4):
        # Fig. 4 alone stops reading after its last instant, so the
        # health of the partial pass is what the report shows.
        dirty = dirty_trace(pin_trace, tmp_path / "dirty")
        doc = analyze_json(dirty, "--tolerant", "--figure", "fig4")
        digests = {
            "trace_health": canonical_sha(doc["trace_health"]),
            "figures": canonical_sha(doc["figures"], dirty),
        }
        assert digests == FIG4_TOLERANT_PINS


class TestDamagedTrace:
    def test_malformed_middle_segment(self, pin_trace, tmp_path, early_fig4):
        damaged = damaged_trace(pin_trace, tmp_path / "damaged")
        doc = analyze_json(damaged)
        # Fig. 4 finished before the damage and keeps its result; every
        # figure still reading gets the reader's error.
        assert "distributions" in doc["figures"]["fig4"]
        skipped = [f for f, p in doc["figures"].items() if "skipped" in p]
        assert skipped == ["fig1", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8"]
        assert "malformed record on line 301" in doc["figures"]["fig1"]["skipped"]
        text = run_cli("analyze", "--trace", str(damaged)).replace(str(damaged), "<trace>")
        digests = {
            **figure_digests(doc, damaged),
            "text": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        }
        assert digests == DAMAGED_PINS

    def test_out_of_order_windows(self, pin_trace, tmp_path):
        unordered = unordered_trace(pin_trace, tmp_path / "unordered")
        doc = analyze_json(unordered)
        messages = {p["skipped"] for p in doc["figures"].values()}
        assert messages == {"trace not time-ordered across windows"}
        assert figure_digests(doc, unordered) == UNORDERED_PINS


@pytest.fixture(scope="module")
def day_trace(tmp_path_factory):
    """A one-day campaign, so every hourly window after the first holds reports."""
    path = tmp_path_factory.mktemp("day") / "trace"
    run_cli("simulate", "--out", str(path), "--days", "1", "--base", "40",
            "--seed", "3", "--no-flash-crowd")
    return path


def sampled_windows(trace, every):
    """Non-empty windows starting on a multiple of ``every`` seconds."""
    return {
        start for start, _ in iter_windows(SegmentedTraceReader(trace), 600.0)
        if start % every == 0
    }


def trace_records(trace):
    return json.loads((trace / "health.json").read_text())["trace_records"]


@pytest.fixture
def tally(monkeypatch):
    """Count trace passes, decoded reports and snapshots built."""
    counts = {"passes": 0, "decoded": 0, "snapshots": 0}
    read = SegmentedTraceReader.__iter__
    decode = PeerReport.from_json.__func__
    build = timeseries.build_snapshot

    def counting_read(self):
        counts["passes"] += 1
        return read(self)

    def counting_decode(cls, line):
        counts["decoded"] += 1
        return decode(cls, line)

    def counting_build(*args, **kwargs):
        counts["snapshots"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(SegmentedTraceReader, "__iter__", counting_read)
    monkeypatch.setattr(PeerReport, "from_json", classmethod(counting_decode))
    monkeypatch.setattr(timeseries, "build_snapshot", counting_build)
    return counts


class TestOnePass:
    def test_all_figures_read_the_trace_once(self, day_trace, tally):
        hourly = sampled_windows(day_trace, 3_600)
        assert len(hourly) == 23  # the first hour's window is empty
        tally.update(passes=0, decoded=0, snapshots=0)
        run_cli("analyze", "--trace", str(day_trace), "--json")
        # Every 6-hourly window is also an hourly one, and Fig. 4's
        # instants lie beyond a one-day trace: one snapshot per hour.
        assert tally == {
            "passes": 1, "decoded": trace_records(day_trace), "snapshots": len(hourly)
        }

    def test_fig7_reads_once(self, day_trace, tally):
        six_hourly = sampled_windows(day_trace, 6 * 3_600)
        tally.update(passes=0, decoded=0, snapshots=0)
        run_cli("analyze", "--trace", str(day_trace), "--figure", "fig7", "--json")
        assert tally == {
            "passes": 1, "decoded": trace_records(day_trace), "snapshots": len(six_hourly)
        }

    def test_fig4_stops_after_its_last_instant(self, day_trace, tally, early_fig4):
        run_cli("analyze", "--trace", str(day_trace), "--figure", "fig4", "--json")
        assert tally["passes"] == 1
        assert tally["snapshots"] == 2  # two of the three instants share a window
        assert tally["decoded"] < trace_records(day_trace) / 4

    def test_windows_builds_no_snapshot(self, day_trace, tally):
        run_cli("analyze", "--trace", str(day_trace), "--figure", "windows", "--json")
        assert tally == {"passes": 1, "decoded": trace_records(day_trace), "snapshots": 0}

    def test_figure_functions_read_once_each(self, day_trace, tally):
        ex.fig1_scale(SegmentedTraceReader(day_trace))
        assert tally["passes"] == 1  # the series and the daily IPs share it


class TestObservability:
    def test_pass_counters_and_span(self, pin_trace, tmp_path):
        obs_dir = tmp_path / "obs"
        with_obs = analyze_json(pin_trace, "--obs-dir", str(obs_dir))
        assert with_obs == analyze_json(pin_trace)  # obs changes no output
        counters = json.loads((obs_dir / "metrics.json").read_text())["counters"]
        assert counters["analytics.trace_passes"] == 1
        assert counters["analytics.reports_read"] == trace_records(pin_trace)
        events = [json.loads(line) for line in (obs_dir / "events.jsonl").open()]
        spans = [e["name"] for e in events if e.get("type") == "span"]
        assert spans.count("analytics.trace_pass") == 1
        summary = run_cli("obs", "summarize", str(obs_dir))
        assert "analytics.trace_pass" in summary
        assert "analytics.reports_read" in summary
