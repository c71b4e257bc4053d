"""End-to-end fault tolerance: graceful degradation and a dirty trace.

A single simulated day-part (9 hours) is hit mid-run by a tracker
brownout and an ISP partition while its measurement reports cross a
faulty collection channel (bursty 5% loss, duplication, reordering and
a little corruption).  The claims under test:

- the run completes and streaming quality *recovers* after the fault
  windows close, back to within 5% of a fault-free baseline;
- the tolerant analytics path reproduces the clean-trace metrics from
  the dirty trace within tolerance, while reporting non-zero
  ``TraceHealth``;
- the strict reader still refuses the same dirty trace.
"""

import pytest

from benchmarks.conftest import HOUR, show
from repro.core.resilience import quality_dip, satisfied_series
from repro.core.timeseries import observe
from repro.core.metrics import streaming_quality
from repro.simulator import (
    Brownout,
    FaultPlan,
    IspPartition,
    SystemConfig,
    UUSeeSystem,
)
from repro.traces import (
    ChannelFaults,
    FaultyChannel,
    SegmentedTraceReader,
    SegmentedTraceStore,
    TraceFormatError,
)

BASE = 250.0
SEED = 31
RUN_HOURS = 9.0
FAULT_START = 3 * HOUR  # tracker brownout begins
FAULT_END = 5.5 * HOUR  # partition heals; all faults over


class _TeeStore:
    """Writes every report to both sinks (clean trace + faulty channel)."""

    def __init__(self, *sinks):
        self.sinks = sinks

    def append(self, report):
        for sink in self.sinks:
            sink.append(report)


def _fault_plan():
    return FaultPlan(
        tracker_brownouts=[Brownout(FAULT_START, 4.5 * HOUR, capacity=0.2)],
        partitions=[
            IspPartition(4 * HOUR, FAULT_END, isps=frozenset({"China Netcom"}))
        ],
    )


def _channel_faults():
    return ChannelFaults(
        loss_rate=0.05,
        burst_length=4.0,
        duplicate_rate=0.03,
        reorder_rate=0.03,
        corrupt_rate=0.005,
    )


def _run(tmp_path, *, faulted):
    tag = "faulted" if faulted else "baseline"
    clean_path = tmp_path / f"{tag}-clean"
    dirty_path = tmp_path / f"{tag}-dirty"
    clean_store = SegmentedTraceStore(clean_path)
    dirty_store = SegmentedTraceStore(dirty_path)
    channel = FaultyChannel(dirty_store, _channel_faults(), seed=SEED)
    config = SystemConfig(
        seed=SEED,
        base_concurrency=BASE,
        flash_crowd=None,
        faults=_fault_plan() if faulted else None,
    )
    system = UUSeeSystem(config, _TeeStore(clean_store, channel))
    system.run(seconds=RUN_HOURS * HOUR)
    channel.close()
    clean_store.close()
    return system, clean_path, dirty_path, channel


def _mean_quality(stats_list, start, end):
    vals = [
        s.satisfied_fraction() for s in stats_list if start <= s.time < end
    ]
    return sum(vals) / len(vals) if vals else 0.0


def test_fault_tolerance_end_to_end(benchmark, tmp_path):
    system, clean_path, dirty_path, channel = benchmark.pedantic(
        lambda: _run(tmp_path, faulted=True), rounds=1, iterations=1
    )
    baseline_system, _, _, _ = _run(tmp_path, faulted=False)

    # --- the run completed, with faults demonstrably injected --------
    expected_rounds = int(RUN_HOURS * HOUR / system.config.protocol.round_seconds)
    assert len(system.round_stats) == expected_rounds
    assert channel.counters.dropped > 0
    assert channel.counters.duplicated > 0
    assert channel.counters.corrupted > 0

    # --- graceful degradation and recovery ---------------------------
    times, values = satisfied_series(system.round_stats)
    dip = quality_dip(
        times,
        values,
        fault_start=FAULT_START,
        fault_end=FAULT_END,
        baseline_span_s=2 * HOUR,
    )
    post_faulted = _mean_quality(system.round_stats, 6.5 * HOUR, RUN_HOURS * HOUR)
    post_baseline = _mean_quality(
        baseline_system.round_stats, 6.5 * HOUR, RUN_HOURS * HOUR
    )
    show(
        "Fault tolerance: quality dip and recovery",
        ["metric", "expectation", "measured"],
        [
            ["pre-fault baseline", "-", dip.baseline],
            ["min during faults", "dips", dip.min_during],
            ["dip depth", "> 0", dip.dip_depth],
            ["recovery time (s)", "finite", dip.recovery_time_s],
            ["post-fault quality", "within 5% of baseline", post_faulted],
            ["fault-free same span", "-", post_baseline],
        ],
    )
    assert dip.recovered, "quality never recovered after the fault windows"
    # recovers to within 5% of the fault-free baseline run
    assert post_faulted >= 0.95 * post_baseline
    # and the faults actually hurt while active (guards against a plan
    # that silently no-ops)
    assert dip.min_during < dip.baseline

    # --- dirty-trace analytics match clean-trace analytics -----------
    clean_trace = SegmentedTraceReader(clean_path)
    dirty_trace = SegmentedTraceReader(dirty_path, tolerant=True, slack_s=600.0)

    def quality_metrics(trace):
        series = observe(
            trace,
            {
                "total": lambda s: s.num_total,
                "q": lambda s: streaming_quality(s, 0, 400.0),
            },
            window_seconds=600.0,
            observe_every=HOUR,
        )
        totals = [v for v in series.column("total") if v]
        quals = [v for v in series.column("q") if v is not None]
        return (
            sum(totals) / len(totals),
            sum(quals) / len(quals) if quals else 0.0,
        )

    clean_total, clean_q = quality_metrics(clean_trace)
    dirty_total, dirty_q = quality_metrics(dirty_trace)
    show(
        "Dirty vs clean trace analytics",
        ["metric", "clean", "dirty (tolerant)"],
        [
            ["mean snapshot peers", clean_total, dirty_total],
            ["mean streaming quality", clean_q, dirty_q],
        ],
    )
    # ~5% report loss thins snapshots slightly; metrics stay close
    assert dirty_total == pytest.approx(clean_total, rel=0.10)
    assert dirty_q == pytest.approx(clean_q, abs=0.05)

    # --- the dirt was seen and accounted ------------------------------
    health = dirty_trace.health
    show(
        "Trace health (dirty read)",
        ["counter", "value"],
        health.rows(),
    )
    assert health.dirty
    assert health.duplicates > 0
    assert health.parse_failures == channel.counters.corrupted

    # --- strict mode still refuses the dirty trace --------------------
    with pytest.raises(TraceFormatError):
        for _ in SegmentedTraceReader(dirty_path):
            pass
