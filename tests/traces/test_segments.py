"""Unit tests for the segmented, self-recovering trace store."""

import gzip
import json
import os

import pytest

from repro.traces import (
    PartnerRecord,
    PeerReport,
    SegmentedTraceReader,
    SegmentedTraceStore,
    SegmentRecoveryError,
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


def fill(store, start, stop):
    for i in range(start, stop):
        store.append(report_at(float(i), ip=i + 1))


def times(directory, **reader_kw):
    return [int(r.time) for r in SegmentedTraceReader(directory, **reader_kw)]


class TestRotation:
    def test_segments_rotate_and_manifest_tracks_sealed(self, tmp_path):
        store = SegmentedTraceStore(tmp_path, records_per_segment=10)
        fill(store, 0, 37)
        assert len(store) == 37
        store.close()
        assert [s.records for s in store.sealed_segments] == [10, 10, 10, 7]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["segments"]) == 4
        assert manifest["version"] == 1

    def test_refuses_existing_trace_directory(self, tmp_path):
        SegmentedTraceStore(tmp_path, records_per_segment=5).close()
        with pytest.raises(FileExistsError):
            SegmentedTraceStore(tmp_path)

    def test_append_after_close_raises(self, tmp_path):
        store = SegmentedTraceStore(tmp_path)
        store.close()
        with pytest.raises(TraceStoreClosedError):
            store.append(report_at(1.0))

    def test_close_and_flush_idempotent_after_close(self, tmp_path):
        # Drain paths (the ingest service's, a campaign's finally
        # block) may close and flush a store that already sealed; both
        # must be no-ops that leave the manifest intact.
        store = SegmentedTraceStore(tmp_path, records_per_segment=5)
        fill(store, 0, 7)
        store.close()
        store.close()
        store.flush()
        assert [s.records for s in store.sealed_segments] == [5, 2]
        assert times(tmp_path) == list(range(7))

    def test_gzip_segments_are_deterministic(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            d = tmp_path / name
            store = SegmentedTraceStore(d, records_per_segment=5, compress=True)
            fill(store, 0, 12)
            store.close()
            paths.append((d / "seg-00000001.jsonl.gz").read_bytes())
        # mtime=0 in the gzip header: identical content -> identical bytes
        assert paths[0] == paths[1]


class TestReader:
    def test_multi_segment_stream_in_order(self, tmp_path):
        store = SegmentedTraceStore(tmp_path, records_per_segment=8)
        fill(store, 0, 30)
        store.close()
        assert times(tmp_path) == list(range(30))

    def test_reader_is_reiterable(self, tmp_path):
        store = SegmentedTraceStore(tmp_path, records_per_segment=4)
        fill(store, 0, 10)
        store.close()
        reader = SegmentedTraceReader(tmp_path)
        assert len(list(reader)) == 10
        assert len(list(reader)) == 10

    def test_feeds_iter_windows_across_segment_boundaries(self, tmp_path):
        store = SegmentedTraceStore(tmp_path, records_per_segment=7)
        fill(store, 0, 40)
        store.close()
        windows = list(iter_windows(SegmentedTraceReader(tmp_path), 10.0))
        assert [w for w, _ in windows] == [0.0, 10.0, 20.0, 30.0]
        assert sum(len(reports) for _, reports in windows) == 40

    def test_tolerant_reader_accumulates_health(self, tmp_path):
        store = SegmentedTraceStore(tmp_path, records_per_segment=10)
        fill(store, 0, 15)
        store.append_line('{"not": "a report"}')
        store.close()
        reader = SegmentedTraceReader(tmp_path, tolerant=True)
        assert len(list(reader)) == 15
        assert reader.health.parse_failures == 1

    def test_tolerant_dedup_spans_segment_boundaries(self, tmp_path):
        # Report 3 is re-delivered right after the first rotation, so
        # the copy opens segment 2: one dedup window must cover both.
        store = SegmentedTraceStore(tmp_path, records_per_segment=3)
        fill(store, 0, 3)
        fill(store, 2, 6)
        store.close()
        assert len(store.sealed_segments) == 3
        reader = SegmentedTraceReader(tmp_path, tolerant=True)
        assert [int(r.time) for r in reader] == list(range(6))
        assert reader.health.duplicates == 1
        assert reader.health.records_ok == 6
        assert reader.health.lines_read == 7


class TestRecovery:
    def test_recover_clean_close_and_keep_appending(self, tmp_path):
        store = SegmentedTraceStore(tmp_path, records_per_segment=10)
        fill(store, 0, 23)
        store.close()
        recovered = SegmentedTraceStore.recover(tmp_path)
        assert len(recovered) == 23
        assert not recovered.health.dirty
        fill(recovered, 23, 30)
        recovered.close()
        assert times(tmp_path) == list(range(30))

    def test_recover_truncates_torn_plain_tail(self, tmp_path):
        store = SegmentedTraceStore(tmp_path, records_per_segment=10)
        fill(store, 0, 14)
        store.sync()
        with open(tmp_path / "seg-00000002.jsonl", "ab") as fh:
            fh.write(b'{"time": 99.0, "peer')  # killed mid-write
        recovered = SegmentedTraceStore.recover(tmp_path)
        assert len(recovered) == 14
        assert recovered.health.truncated_lines == 1
        fill(recovered, 14, 20)
        recovered.close()
        assert times(tmp_path) == list(range(20))

    def test_recover_truncates_torn_gzip_tail(self, tmp_path):
        store = SegmentedTraceStore(
            tmp_path, records_per_segment=100, compress=True, flush_every=1
        )
        fill(store, 0, 9)
        store.flush()
        seg = tmp_path / "seg-00000001.jsonl.gz"
        os.truncate(seg, seg.stat().st_size - 5)  # cut mid-stream
        recovered = SegmentedTraceStore.recover(tmp_path)
        assert recovered.health.truncated_lines == 1
        survived = len(recovered)
        assert 0 < survived <= 9
        fill(recovered, survived, 12)
        recovered.close()
        assert times(tmp_path) == list(range(12))

    def test_recover_publishes_full_segment_after_mid_rotation_kill(
        self, tmp_path
    ):
        store = SegmentedTraceStore(tmp_path, records_per_segment=10)
        fill(store, 0, 10)  # seals segment 1
        stale_manifest = (tmp_path / "manifest.json").read_bytes()
        # The crash strikes after segment 2 filled but before the
        # manifest published it: write the full file, restore the stale
        # manifest, abandon the store without close().
        with open(tmp_path / "seg-00000002.jsonl", "w") as fh:
            for i in range(10, 20):
                fh.write(report_at(float(i), ip=i + 1).to_json() + "\n")
        (tmp_path / "manifest.json").write_bytes(stale_manifest)
        recovered = SegmentedTraceStore.recover(tmp_path)
        assert len(recovered) == 20
        assert len(recovered.sealed_segments) == 2
        fill(recovered, 20, 23)
        recovered.close()
        assert times(tmp_path) == list(range(23))

    def test_recover_quarantines_corrupted_sealed_segment(self, tmp_path):
        store = SegmentedTraceStore(tmp_path, records_per_segment=5)
        fill(store, 0, 12)
        store.close()
        (tmp_path / "seg-00000001.jsonl").write_text("garbage\n")
        recovered = SegmentedTraceStore.recover(tmp_path)
        assert recovered.health.quarantined == 5
        assert len(recovered) == 7
        assert (tmp_path / "seg-00000001.jsonl.quarantined").exists()
        recovered.close()

    def test_recover_rebuilds_destroyed_manifest(self, tmp_path):
        store = SegmentedTraceStore(tmp_path, records_per_segment=5)
        fill(store, 0, 12)
        store.close()
        (tmp_path / "manifest.json").unlink()
        recovered = SegmentedTraceStore.recover(tmp_path, records_per_segment=5)
        assert len(recovered) == 12
        recovered.close()
        assert times(tmp_path) == list(range(12))

    def test_recover_refuses_non_trace_directory(self, tmp_path):
        with pytest.raises(SegmentRecoveryError):
            SegmentedTraceStore.recover(tmp_path)


class TestRollback:
    @pytest.mark.parametrize("compress", [False, True])
    def test_rollback_then_replay_restores_identical_content(
        self, tmp_path, compress
    ):
        d = tmp_path / "trace"
        store = SegmentedTraceStore(d, records_per_segment=10, compress=compress)
        fill(store, 0, 37)
        store.close()
        reference = store.content_sha256()
        for cut in (35, 30, 25, 10):  # mid-active, boundary, mid-sealed
            recovered = SegmentedTraceStore.recover(d)
            recovered.rollback(cut)
            assert len(recovered) == cut
            fill(recovered, cut, 37)
            recovered.close()
            assert recovered.content_sha256() == reference

    def test_rollback_forward_raises(self, tmp_path):
        store = SegmentedTraceStore(tmp_path, records_per_segment=10)
        fill(store, 0, 5)
        with pytest.raises(SegmentRecoveryError):
            store.rollback(6)

    def test_rollback_to_zero_empties_store(self, tmp_path):
        store = SegmentedTraceStore(tmp_path, records_per_segment=4)
        fill(store, 0, 11)
        store.rollback(0)
        assert len(store) == 0
        fill(store, 0, 6)
        store.close()
        assert times(tmp_path) == list(range(6))

    def test_plain_rollback_replay_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            store = SegmentedTraceStore(d, records_per_segment=6)
            fill(store, 0, 20)
            if d == b:
                store.rollback(13)
                fill(store, 13, 20)
            store.close()
        for seg_a in sorted(p for p in a.iterdir() if p.suffix == ".jsonl"):
            assert seg_a.read_bytes() == (b / seg_a.name).read_bytes()


class TestGzipMultiMember:
    def test_appended_member_after_recovery_reads_transparently(self, tmp_path):
        store = SegmentedTraceStore(
            tmp_path, records_per_segment=50, compress=True
        )
        fill(store, 0, 7)
        store.sync()
        store._closed = True  # abandon without sealing (simulated kill)
        recovered = SegmentedTraceStore.recover(tmp_path)
        fill(recovered, len(recovered), 14)
        recovered.close()
        # The segment now holds two gzip members; both stdlib and our
        # reader must see one continuous stream.
        with gzip.open(tmp_path / "seg-00000001.jsonl.gz", "rt") as fh:
            assert len(fh.readlines()) == 14
        assert times(tmp_path) == list(range(14))
