"""Exact-parity tests for the per-window structure kernel.

``window_structure`` computes a window's degree distributions, active
edge reciprocity and stable-graph clustering straight from its edge
sets.  Its contract is **equality** (``==``, not approximate) with the
snapshot kernels (``degree_distributions``, ``edge_reciprocity`` over
``active_compact()``, ``average_clustering`` over
``stable_undirected_compact()``) on every window.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.experiments import WINDOW_STRUCTURE_METRICS, windowed_structure
from repro.core.metrics import degree_distributions, window_structure
from repro.core.snapshots import build_snapshot
from repro.core.timeseries import observe
from repro.graph.clustering import average_clustering
from repro.graph.reciprocity import edge_reciprocity
from repro.simulator import SystemConfig, UUSeeSystem
from repro.traces import InMemoryTraceStore
from repro.traces.store import iter_windows
from repro.workloads.flashcrowd import FlashCrowdEvent

from tests.core.helpers import partner, report

WINDOW = 600.0


@pytest.fixture(scope="module")
def churn_trace():
    """A churn-heavy trace: early flash crowd drives joins then departures."""
    config = SystemConfig(
        seed=47,
        base_concurrency=90.0,
        flash_crowd=FlashCrowdEvent(
            start=1_800.0, ramp_seconds=1_800.0, hold_seconds=3_600.0,
            decay_seconds=1_800.0, magnitude=2.0,
        ),
    )
    store = InMemoryTraceStore()
    UUSeeSystem(config, store).run(seconds=6 * 3600)
    return list(store.reports)


def kernel_row(window, *, active_threshold=10):
    """The snapshot-kernel row ``window_structure`` must equal."""
    snap = build_snapshot(
        window, time=0.0, window_seconds=WINDOW,
        active_threshold=active_threshold,
    )
    return {
        "degrees": degree_distributions(snap),
        "reciprocity": edge_reciprocity(snap.active_compact()),
        "clustering": average_clustering(snap.stable_undirected_compact()),
    }


@pytest.mark.parametrize("threshold", [1, 10, 25])
def test_every_window_matches_kernels_exactly(churn_trace, threshold):
    windows = list(iter_windows(churn_trace, WINDOW))
    assert len(windows) > 12, "churn trace too short to be meaningful"
    for time, window in windows:
        row = window_structure(window, active_threshold=threshold)
        ref = kernel_row(window, active_threshold=threshold)
        for key in ("degrees", "reciprocity", "clustering"):
            assert row[key] == ref[key], f"{key} diverges at t={time}"


def test_windowed_structure_equals_full_observe(churn_trace):
    rows = windowed_structure(churn_trace)
    full = observe(churn_trace, WINDOW_STRUCTURE_METRICS, window_seconds=WINDOW)
    assert rows.times == full.times
    assert set(rows.values) == set(full.values)
    for key in full.values:
        assert rows.values[key] == full.values[key], f"series {key!r} diverges"


# Reporters come from a small pool so IPs repeat (with equal and unequal
# times); partner IPs extend past it, so some endpoints never report.
REPORTERS = range(1, 7)
PARTNER_IPS = range(1, 10)

partners = st.builds(
    partner,
    ip=st.sampled_from(PARTNER_IPS),
    sent=st.sampled_from((0, 1, 9, 10, 30)),
    recv=st.sampled_from((0, 1, 9, 10, 30)),
)
reports = st.builds(
    report,
    ip=st.sampled_from(REPORTERS),
    t=st.sampled_from((0.0, 1.0, 2.0)),
    partners=st.lists(partners, max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(
    window=st.lists(reports, max_size=12),
    threshold=st.sampled_from((1, 10, 25)),
)
@example(window=[], threshold=10)
@example(  # the later report of IP 1 wins and drops both active links
    window=[
        report(1, t=0.0, partners=[partner(2, sent=50, recv=50)]),
        report(1, t=5.0, partners=[partner(2), partner(3)]),
        report(2, t=1.0),
    ],
    threshold=10,
)
def test_hand_built_windows_match_kernels(window, threshold):
    row = window_structure(window, active_threshold=threshold)
    assert row == kernel_row(window, active_threshold=threshold)
