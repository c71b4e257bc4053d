"""Determinism smoke test (the PR's acceptance scenario).

Two identically-seeded ``UUSeeSystem`` runs — with and without a fault
plan — must write byte-identical traces *and* consume identical RNG
draw sequences (count and values), all without ever touching the global
RNG, the wall clock, or OS entropy.
"""

import hashlib
from pathlib import Path

import pytest

from repro.qa import DrawAudit, assert_identical_draws, deterministic_guard
from repro.simulator import SystemConfig, UUSeeSystem
from repro.simulator.failures import Brownout, CrashWindow, FaultPlan
from repro.traces import SegmentedTraceStore

HOUR = 3600.0


def _fault_plan() -> FaultPlan:
    return FaultPlan(
        tracker_brownouts=[Brownout(0.5 * HOUR, 1.0 * HOUR, capacity=0.3)],
        crashes=[CrashWindow(1.0 * HOUR, 1.5 * HOUR, rate_per_hour=0.5)],
    )


def _run_to_dir(path: Path, faults: FaultPlan | None) -> None:
    config = SystemConfig(
        seed=2006,
        base_concurrency=120.0,
        flash_crowd=None,
        faults=faults,
    )
    store = SegmentedTraceStore(path)
    system = UUSeeSystem(config, store)
    system.run(days=0.1)
    store.close()


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    for segment in sorted(path.glob("seg-*.jsonl")):
        digest.update(segment.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "fault-plan"])
def test_double_run_bit_identical_and_draw_identical(tmp_path, faulted):
    faults = _fault_plan() if faulted else None
    paths = [tmp_path / "a", tmp_path / "b"]
    snapshots = []
    for path in paths:
        with deterministic_guard():
            with DrawAudit() as audit:
                _run_to_dir(path, faults)
        snapshots.append(audit.snapshot())

    assert _sha256(paths[0]) == _sha256(paths[1]), "trace bytes diverged"
    assert snapshots[0] == snapshots[1], "RNG draw sequences diverged"
    assert snapshots[0].total > 1_000, "audit saw implausibly few draws"


def test_fault_plan_changes_draws_but_stays_deterministic(tmp_path):
    # same seed, different fault plan => different draw sequence; the
    # audit must tell the two scenarios apart (it is not a constant).
    clean = tmp_path / "clean"
    faulted = tmp_path / "faulted"
    with DrawAudit() as audit_clean:
        _run_to_dir(clean, None)
    with DrawAudit() as audit_faulted:
        _run_to_dir(faulted, _fault_plan())
    assert audit_clean.snapshot() != audit_faulted.snapshot()
    assert _sha256(clean) != _sha256(faulted)


def test_assert_identical_draws_end_to_end(tmp_path):
    counter = [0]

    def run() -> str:
        counter[0] += 1
        path = tmp_path / f"run{counter[0]}"
        _run_to_dir(path, None)
        return _sha256(path)

    outcomes = assert_identical_draws(run)
    digests = {digest for digest, _ in outcomes}
    assert len(digests) == 1
