"""Unit tests for trace stores, the trace server and windowing."""

import pytest

from repro.traces import (
    InMemoryTraceStore,
    PartnerRecord,
    PeerReport,
    SegmentedTraceReader,
    SegmentedTraceStore,
    TraceHealth,
    TraceServer,
    TraceStoreClosedError,
    iter_windows,
)


def report_at(t, ip=1):
    return PeerReport(
        time=t,
        peer_ip=ip,
        channel_id=0,
        buffer_fill=0.5,
        playback_position=int(t),
        download_capacity_kbps=2000.0,
        upload_capacity_kbps=500.0,
        recv_rate_kbps=400.0,
        sent_rate_kbps=100.0,
        partners=(PartnerRecord(ip=9, port=1, sent_segments=11, recv_segments=12),),
    )


class TestInMemoryStore:
    def test_append_and_iterate(self):
        store = InMemoryTraceStore()
        store.append(report_at(1.0))
        store.append(report_at(2.0))
        assert len(store) == 2
        assert [r.time for r in store] == [1.0, 2.0]


class TestJsonlStore:
    """The JSONL segment store round trip on one-segment directories."""

    def test_roundtrip_plain(self, tmp_path):
        path = tmp_path / "trace"
        with SegmentedTraceStore(path) as store:
            for t in range(5):
                store.append(report_at(float(t), ip=t))
            assert len(store) == 5
        assert len(list(path.glob("seg-*.jsonl"))) == 1
        reports = list(SegmentedTraceReader(path))
        assert [r.peer_ip for r in reports] == [0, 1, 2, 3, 4]
        assert reports[0].partners[0].recv_segments == 12

    def test_roundtrip_gzip(self, tmp_path):
        path = tmp_path / "trace"
        with SegmentedTraceStore(path, compress=True) as store:
            store.append(report_at(7.5))
        assert len(list(path.glob("seg-*.jsonl.gz"))) == 1
        got = list(SegmentedTraceReader(path))
        assert len(got) == 1
        assert got[0].time == 7.5

    def test_close_idempotent(self, tmp_path):
        store = SegmentedTraceStore(tmp_path / "t")
        store.close()
        store.close()

    def test_flush_after_close_is_a_noop(self, tmp_path):
        # Teardown paths routinely flush a store something else already
        # closed (a ``with`` block, a campaign's cleanup); close flushed
        # everything, so this must not raise on the closed handle.
        path = tmp_path / "t"
        store = SegmentedTraceStore(path)
        store.append(report_at(1.0))
        store.close()
        store.flush()
        assert len(list(SegmentedTraceReader(path))) == 1

    def test_append_after_close_raises_named_error(self, tmp_path):
        store = SegmentedTraceStore(tmp_path / "t")
        store.close()
        with pytest.raises(TraceStoreClosedError) as err:
            store.append(report_at(1.0))
        assert str(tmp_path / "t") in str(err.value)
        assert "append" in str(err.value)

    def test_fsync_on_flush_writes_through(self, tmp_path):
        path = tmp_path / "t"
        store = SegmentedTraceStore(path, flush_every=1, fsync_on_flush=True)
        store.append(report_at(1.0))
        # Durable at the flush boundary: visible to a second reader
        # before close().
        assert len(list(SegmentedTraceReader(path))) == 1
        store.close()


class TestTraceServer:
    def test_no_loss(self):
        store = InMemoryTraceStore()
        server = TraceServer(store, loss_rate=0.0)
        assert server.receive(report_at(1.0))
        assert server.received == 1
        assert server.dropped == 0

    def test_udp_loss(self):
        store = InMemoryTraceStore()
        server = TraceServer(store, loss_rate=0.5, seed=1)
        outcomes = [server.receive(report_at(float(i))) for i in range(400)]
        assert 100 < sum(outcomes) < 300
        assert server.dropped == 400 - server.received
        assert len(store) == server.received

    def test_invalid_loss_rate(self):
        with pytest.raises(ValueError):
            TraceServer(InMemoryTraceStore(), loss_rate=1.0)

    def test_fold_into_adds_collection_drops_to_health(self):
        store = InMemoryTraceStore()
        server = TraceServer(store, loss_rate=0.5, seed=1)
        for i in range(100):
            server.receive(report_at(float(i)))
        health = TraceHealth()
        health.server_dropped = 3  # pre-existing drops accumulate
        assert server.fold_into(health) is health
        assert health.server_dropped == server.dropped + 3
        assert health.dirty
        assert ("server drops (collection)", health.server_dropped) in health.rows()

    def test_fold_into_is_a_delta_not_a_total(self):
        # Periodic folding (mid-campaign snapshot + final) must never
        # double-count: each fold adds only the drops since the last.
        store = InMemoryTraceStore()
        server = TraceServer(store, loss_rate=0.5, seed=1)
        for i in range(100):
            server.receive(report_at(float(i)))
        health = TraceHealth()
        server.fold_into(health)
        first = health.server_dropped
        server.fold_into(health)  # nothing new dropped: adds zero
        assert health.server_dropped == first
        for i in range(100, 200):
            server.receive(report_at(float(i)))
        server.fold_into(health)  # only the second hundred's drops
        assert health.server_dropped == server.dropped


class TestIterWindows:
    def test_basic_grouping(self):
        reports = [report_at(t) for t in (0, 100, 650, 700, 1300)]
        windows = list(iter_windows(reports, 600))
        assert [w for w, _ in windows] == [0.0, 600.0, 1200.0]
        assert [len(rs) for _, rs in windows] == [2, 2, 1]

    def test_empty_windows_skipped(self):
        reports = [report_at(t) for t in (0, 5000)]
        windows = list(iter_windows(reports, 600))
        assert [w for w, _ in windows] == [0.0, 4800.0]

    def test_start_offset_filters(self):
        reports = [report_at(t) for t in (0, 700, 1300)]
        windows = list(iter_windows(reports, 600, start=600))
        assert [w for w, _ in windows] == [600.0, 1200.0]

    def test_unsorted_across_windows_rejected(self):
        reports = [report_at(1300.0), report_at(10.0)]
        with pytest.raises(ValueError):
            list(iter_windows(reports, 600))

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            list(iter_windows([], 0))

    def test_within_window_disorder_tolerated(self):
        reports = [report_at(110.0), report_at(90.0)]
        windows = list(iter_windows(reports, 600))
        assert len(windows) == 1
        assert len(windows[0][1]) == 2
