"""The trace ingestion service: a real network collection surface.

The paper's measurement infrastructure was a set of dedicated trace
servers that hundreds of thousands of UUSee clients reported to over
the public Internet (Sec. 3.2).  The in-process
:class:`~repro.traces.server.TraceServer` models that path as a single
coin flip; :class:`TraceIngestService` replaces the coin flip with the
actual failure surface — an asyncio server on loopback accepting
length-prefixed report frames over UDP *and* TCP, where loss,
duplication, truncation, overload and crashes all genuinely happen and
must be survived:

- **loss-tolerant admission** — a malformed, oversized or damaged frame
  is quarantined and counted into :class:`~repro.traces.health
  .TraceHealth` (``parse_failures``, frame granularity); a duplicate
  (shard, seq) identity is acknowledged but not stored twice; nothing a
  client sends can crash the accept loop;
- **two-watermark backpressure** — admitted frames enter a bounded
  queue; above the high watermark TCP producers are told
  ``RETRY-AFTER`` and their sockets are not read again until the writer
  drains below the low watermark, while UDP frames are deterministically
  shed and counted into ``server_dropped``;
- **crash-tolerant exactly-once storage** — the writer appends each
  batch to a :class:`~repro.traces.segments.SegmentedTraceStore`,
  fsyncs, *then* journals the admitted (shard, seq) cursor atomically
  in ``admissions.json``, and only then acknowledges.  After a SIGKILL,
  :meth:`TraceIngestService.open` crash-recovers the segments and rolls
  the store back to the journal's durable cut, so the client's
  resend-until-acked loop never loses or duplicates a report;
- **graceful drain** — SIGTERM (or the ``SHUTDOWN`` query) stops the
  listeners, drains and commits the queue, seals the store, and
  publishes a campaign-format ``health.json`` plus a final metrics
  snapshot, exactly like a campaign that ended normally;
- **a line-oriented query API** on the TCP port (``HEALTH``,
  ``WINDOWS``, ``CHANNEL``, ``METRICS``, ``SHUTDOWN``) so ``repro
  info``/``analyze`` — or a human with ``nc`` — can inspect a live
  collection without touching its files.

Wall-clock durations are read through the
:class:`~repro.obs.clock.LoopClock` seam (QA rule REP002 covers this
package); the service itself draws no randomness at all.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
from pathlib import Path
from typing import Any, Callable

from repro.ingest.framing import (
    HEADER_SIZE,
    INSANE_PAYLOAD_BYTES,
    MAGIC,
    Frame,
    FrameError,
    decode_frame,
    decode_payload,
    parse_header,
)
from repro.ioutil import atomic_write_bytes, atomic_write_json, read_json_object
from repro.obs.clock import LoopClock
from repro.obs.exporters import render_prometheus
from repro.obs.spans import NULL_OBSERVER, AnyObserver
from repro.traces.health import TraceHealth
from repro.traces.segments import SegmentedTraceStore
from repro.traces.store import iter_windows

#: Admission-journal file name inside the trace directory.
ADMISSIONS_NAME = "admissions.json"
#: Journal format version.
ADMISSIONS_VERSION = 1


class ShardCursor:
    """Compact record of every (shard, seq) identity admitted so far.

    The client's sequence numbers per shard are contiguous from 1, so
    the cursor is a high-water mark plus a (normally tiny) set of
    out-of-order extras — bounded state that serialises into the
    admission journal, unlike a full seen-set.
    """

    def __init__(self, contiguous: int = 0, extra: set[int] | None = None) -> None:
        self.contiguous = contiguous
        self.extra: set[int] = set(extra or ())

    def seen(self, seq: int) -> bool:
        """Whether ``seq`` was already admitted."""
        return seq <= self.contiguous or seq in self.extra

    def add(self, seq: int) -> None:
        """Mark ``seq`` admitted, absorbing extras into the watermark."""
        if self.seen(seq):
            return
        self.extra.add(seq)
        while self.contiguous + 1 in self.extra:
            self.contiguous += 1
            self.extra.discard(self.contiguous)

    def state(self) -> dict[str, Any]:
        """JSON-safe snapshot for the admission journal."""
        return {"contiguous": self.contiguous, "extra": sorted(self.extra)}

    @classmethod
    def restore(cls, state: dict[str, Any]) -> ShardCursor:
        """Rebuild a cursor from :meth:`state` output."""
        return cls(int(state["contiguous"]), {int(s) for s in state["extra"]})


@dataclasses.dataclass
class ServiceStats:
    """What the service did, at frame and report granularity."""

    frames_tcp: int = 0  # complete frames read off TCP streams
    frames_udp: int = 0  # datagrams received
    frames_admitted: int = 0  # entered the admission queue
    frames_duplicate: int = 0  # already-admitted identities turned away
    frames_quarantined: int = 0  # damaged frames refused
    frames_shed: int = 0  # refused by backpressure
    reports_stored: int = 0  # report lines durably committed
    reports_duplicate: int = 0
    reports_shed: int = 0
    retry_after_sent: int = 0  # backpressure replies to TCP producers
    commits: int = 0  # durable batch commits (fsync + journal)
    queries: int = 0  # query-API commands served
    connections: int = 0  # TCP connections accepted


class _Admission:
    """One queued frame plus the futures awaiting its durable commit."""

    __slots__ = ("frame", "waiters")

    def __init__(self, frame: Frame) -> None:
        self.frame = frame
        self.waiters: list[asyncio.Future[None]] = []


class TraceIngestService:
    """Accepts report frames on loopback and stores them exactly once.

    Construct via :meth:`open` (which handles both a fresh directory and
    crash recovery), then either ``await serve()`` inside an existing
    event loop or call :meth:`run` to own one, with SIGTERM/SIGINT
    wired to the graceful drain.
    """

    def __init__(
        self,
        store: SegmentedTraceStore,
        cursors: dict[int, ShardCursor],
        *,
        host: str = "127.0.0.1",
        tcp_port: int = 0,
        udp_port: int = 0,
        queue_high_reports: int = 8_192,
        queue_low_reports: int = 2_048,
        commit_batch_frames: int = 64,
        retry_after_s: float = 0.25,
        obs: AnyObserver = NULL_OBSERVER,
    ) -> None:
        if queue_low_reports >= queue_high_reports:
            raise ValueError("queue_low_reports must be < queue_high_reports")
        self.store = store
        self.directory = store.directory
        self.host = host
        self.tcp_port = tcp_port  # replaced by the bound port after start()
        self.udp_port = udp_port
        self.queue_high_reports = queue_high_reports
        self.queue_low_reports = queue_low_reports
        self.commit_batch_frames = commit_batch_frames
        self.retry_after_s = retry_after_s
        self.stats = ServiceStats()
        #: Live collection-side accounting (recovery repairs live in
        #: ``store.health`` and are merged into published summaries).
        self.health = TraceHealth()
        self._cursors = cursors
        self._obs = obs
        self._queue: asyncio.Queue[_Admission | None] = asyncio.Queue()
        self._queued_reports = 0
        self._pending: dict[tuple[int, int], _Admission] = {}
        self._below_low = asyncio.Event()
        self._below_low.set()
        self._shutdown = asyncio.Event()
        self._tcp_server: asyncio.AbstractServer | None = None
        self._udp_transport: asyncio.DatagramTransport | None = None
        self._writer_task: asyncio.Task[None] | None = None
        self._clock: LoopClock | None = None

    # -- construction / recovery --------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str | Path,
        *,
        records_per_segment: int = 100_000,
        compress: bool = False,
        obs: AnyObserver = NULL_OBSERVER,
        **kwargs: Any,
    ) -> TraceIngestService:
        """Open ``directory`` for ingestion — fresh or after a crash.

        A directory that already holds a segmented trace is
        crash-recovered and rolled back to the admission journal's
        durable record cut: records the dead process appended but never
        journalled (and therefore never acknowledged) are discarded, so
        the client's resend makes storage exactly-once.  The journal's
        per-shard cursors come back too, turning those resends into
        acknowledged duplicates rather than double stores.
        """
        directory = Path(directory)
        manifest = directory / "manifest.json"
        cursors: dict[int, ShardCursor] = {}
        if manifest.exists():
            store = SegmentedTraceStore.recover(directory, obs=obs)
            journal = read_json_object(directory / ADMISSIONS_NAME)
            if journal is not None and "records" in journal:
                store.rollback(int(journal["records"]))
                cursors = {
                    int(shard): ShardCursor.restore(state)
                    for shard, state in journal["shards"].items()
                }
        else:
            store = SegmentedTraceStore(
                directory,
                records_per_segment=records_per_segment,
                compress=compress,
                obs=obs,
            )
        return cls(store, cursors, obs=obs, **kwargs)

    def _write_journal(self) -> None:
        """Atomically publish the durable admission cut (post-fsync)."""
        payload = {
            "version": ADMISSIONS_VERSION,
            "records": len(self.store),
            "shards": {
                str(shard): cursor.state()
                for shard, cursor in sorted(self._cursors.items())
            },
        }
        atomic_write_bytes(
            self.directory / ADMISSIONS_NAME,
            (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
        )

    def _cursor(self, shard_id: int) -> ShardCursor:
        cursor = self._cursors.get(shard_id)
        if cursor is None:
            cursor = self._cursors[shard_id] = ShardCursor()
        return cursor

    # -- serving -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the TCP and UDP listeners and start the writer."""
        loop = asyncio.get_running_loop()
        self._clock = LoopClock(loop)
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, self.host, self.tcp_port
        )
        self.tcp_port = self._tcp_server.sockets[0].getsockname()[1]
        self._udp_transport, _ = await loop.create_datagram_endpoint(
            lambda: _DatagramProtocol(self),
            local_addr=(self.host, self.udp_port),
        )
        sock = self._udp_transport.get_extra_info("sockname")
        self.udp_port = sock[1]
        self._writer_task = asyncio.create_task(self._writer())

    async def serve(self) -> None:
        """Start, run until shutdown is requested, then drain and seal."""
        await self.start()
        await self._shutdown.wait()
        await self._drain_and_seal()

    def request_shutdown(self) -> None:
        """Trigger the graceful drain (idempotent, signal-handler safe)."""
        self._shutdown.set()

    def run(
        self,
        *,
        port_file: str | Path | None = None,
        announce: "Callable[[int, int], None] | None" = None,
    ) -> None:
        """Own an event loop: serve until SIGTERM/SIGINT, then drain.

        ``port_file`` (if given) receives a one-line JSON object with
        the bound ``tcp`` and ``udp`` ports once the listeners are up —
        the rendezvous used by tests and the CLI's ``run --ingest``.
        ``announce`` is called with the bound (tcp, udp) ports at the
        same moment (the CLI prints its listening line through it).
        """
        asyncio.run(self._run_async(port_file, announce))

    async def _run_async(
        self,
        port_file: str | Path | None,
        announce: "Callable[[int, int], None] | None" = None,
    ) -> None:
        import signal

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            # Signals only register on the main thread (tests run the
            # service on a side thread and drain via SHUTDOWN instead).
            with contextlib.suppress(
                NotImplementedError, ValueError, RuntimeError
            ):
                loop.add_signal_handler(signum, self.request_shutdown)
        await self.start()
        if port_file is not None:
            await asyncio.to_thread(
                atomic_write_bytes,
                Path(port_file),
                (
                    json.dumps({"tcp": self.tcp_port, "udp": self.udp_port})
                    + "\n"
                ).encode("utf-8"),
            )
        if announce is not None:
            announce(self.tcp_port, self.udp_port)
        await self._shutdown.wait()
        await self._drain_and_seal()

    async def _drain_and_seal(self) -> None:
        """Stop listening, commit everything queued, seal and publish."""
        if self._tcp_server is not None:
            # close() without wait_closed(): on 3.12+ the latter blocks
            # until every open reporter connection ends, which would
            # deadlock the drain against a client waiting for its ack.
            self._tcp_server.close()
        if self._udp_transport is not None:
            self._udp_transport.close()
        await self._queue.put(None)  # writer drains everything before this
        if self._writer_task is not None:
            await self._writer_task
        # Sealing fsyncs segment and journal files; keep the event loop
        # responsive (reporter acks, UDP datagrams) while disks catch up.
        await asyncio.to_thread(self.store.close)
        await asyncio.to_thread(self._write_journal)
        await asyncio.to_thread(self._publish_summary)

    def _publish_summary(self) -> None:
        """Write the campaign-format health.json plus a metrics snapshot."""
        health = self.merged_health()
        payload = {
            "ingest": True,
            "rounds_completed": None,
            "resumed_from_round": None,
            "trace_records": len(self.store),
            "health": dataclasses.asdict(health),
            "stats": dataclasses.asdict(self.stats),
        }
        atomic_write_json(self.directory / "health.json", payload)
        if self._obs.enabled:
            atomic_write_bytes(
                self.directory / "metrics.prom",
                render_prometheus(self._obs.registry).encode("utf-8"),
            )

    def merged_health(self) -> TraceHealth:
        """Collection-side accounting merged with recovery repairs."""
        health = TraceHealth()
        health.merge(self.store.health)
        health.merge(self.health)
        return health

    # -- admission -----------------------------------------------------------

    def _admit(
        self, frame: Frame, *, datagram: bool
    ) -> asyncio.Future[None] | str:
        """Decide one decoded frame's fate.

        Returns the commit future when admitted, ``"DUP"`` for an
        already-durable identity, ``"RETRY"`` when backpressure refused
        it (UDP callers shed instead), or ``"PENDING"`` joined onto an
        in-flight admission of the same identity.
        """
        key = (frame.shard_id, frame.seq)
        if self._cursor(frame.shard_id).seen(frame.seq):
            self.stats.frames_duplicate += 1
            self.stats.reports_duplicate += frame.count
            self.health.duplicates += frame.count
            if self._obs.enabled:
                self._obs.count("ingest.frames_duplicate")
            return "DUP"
        inflight = self._pending.get(key)
        if inflight is not None:
            # Same identity already queued (a duplicated datagram, or a
            # TCP resend racing its own UDP copy): join its commit.
            future: asyncio.Future[None] = (
                asyncio.get_running_loop().create_future()
            )
            inflight.waiters.append(future)
            return future
        if self._queued_reports >= self.queue_high_reports:
            if datagram:
                self.stats.frames_shed += 1
                self.stats.reports_shed += frame.count
                self.health.server_dropped += frame.count
                if self._obs.enabled:
                    self._obs.count("ingest.reports_shed", frame.count)
            return "RETRY"
        admission = _Admission(frame)
        if not datagram:
            admission.waiters.append(asyncio.get_running_loop().create_future())
        self._pending[key] = admission
        self._queued_reports += frame.count
        if self._queued_reports >= self.queue_high_reports:
            self._below_low.clear()
        self.stats.frames_admitted += 1
        self._queue.put_nowait(admission)
        if self._obs.enabled:
            self._obs.gauge_set("ingest.queued_reports", self._queued_reports)
        return admission.waiters[0] if admission.waiters else "UDP"

    def _quarantine_frame(self, exc: FrameError, *, datagram: bool) -> None:
        self.stats.frames_quarantined += 1
        self.health.parse_failures += 1  # frame granularity (see DESIGN 9)
        if self._obs.enabled:
            self._obs.count("ingest.frames_quarantined")
            self._obs.emit(
                {
                    "type": "ingest.quarantine",
                    "transport": "udp" if datagram else "tcp",
                    "error": str(exc),
                }
            )

    # -- the writer (single consumer) -----------------------------------------

    async def _writer(self) -> None:
        """Drain the queue in batches: append, fsync, journal, ack."""
        stopping = False
        while not stopping:
            first = await self._queue.get()
            if first is None:
                break
            batch = [first]
            while len(batch) < self.commit_batch_frames:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    stopping = True
                    break
                batch.append(nxt)
            t0 = self._clock.now() if self._clock is not None else 0.0
            await asyncio.to_thread(self._commit, [a.frame for a in batch])
            stored = 0
            for admission in batch:
                frame = admission.frame
                stored += frame.count
                self._pending.pop((frame.shard_id, frame.seq), None)
                self._queued_reports -= frame.count
                for waiter in admission.waiters:
                    if not waiter.done():
                        waiter.set_result(None)
            self.stats.commits += 1
            self.stats.reports_stored += stored
            self.health.lines_read += stored
            self.health.records_ok += stored
            if self._queued_reports <= self.queue_low_reports:
                self._below_low.set()
            if self._obs.enabled and self._clock is not None:
                self._obs.observe("ingest.commit_seconds", self._clock.now() - t0)
                self._obs.count("ingest.reports_stored", stored)
                self._obs.gauge_set("ingest.queued_reports", self._queued_reports)

    def _commit(self, frames: list[Frame]) -> None:
        """Durably store a batch, then advance the admission journal.

        Runs in a worker thread.  Order matters: lines, fsync, cursors,
        journal.  A kill between the fsync and the journal leaves a
        durable-but-unjournalled tail that :meth:`open` rolls back — the
        unacknowledged client resends it, preserving exactly-once.
        """
        for frame in frames:
            for line in frame.lines:
                self.store.append_line(line)
        self.store.sync()
        for frame in frames:
            self._cursor(frame.shard_id).add(frame.seq)
        self._write_journal()

    # -- TCP: frames and queries ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        try:
            first = await reader.read(4)
            if not first:
                return
            if first == MAGIC:
                await self._frame_stream(first, reader, writer)
            else:
                await self._query_stream(first, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peers vanish; the accept loop must not care
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _frame_stream(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One reporter connection: frames in, verdict lines out."""
        head = first
        while True:
            header_bytes = head + await reader.readexactly(HEADER_SIZE - len(head))
            try:
                header = parse_header(header_bytes)
            except FrameError as exc:
                # Bad magic/version mid-stream: the length field cannot
                # be trusted, so resync is impossible — drop the
                # connection; the client reconnects and resends.
                self._quarantine_frame(exc, datagram=False)
                return
            if header.payload_len > INSANE_PAYLOAD_BYTES:
                self._quarantine_frame(
                    FrameError(f"insane payload length {header.payload_len}"),
                    datagram=False,
                )
                return
            payload = await reader.readexactly(header.payload_len)
            self.stats.frames_tcp += 1
            try:
                frame = decode_payload(header, payload)  # rejects oversize too
            except FrameError as exc:
                # The declared length was honoured, so the stream is
                # still in sync: quarantine just this frame.
                self._quarantine_frame(exc, datagram=False)
                writer.write(f"ERR {exc}\n".encode("utf-8"))
                await writer.drain()
                head = await reader.readexactly(4)
                continue
            verdict = self._admit(frame, datagram=False)
            if verdict == "DUP":
                writer.write(f"DUP {frame.seq}\n".encode("utf-8"))
            elif verdict == "RETRY":
                self.stats.retry_after_sent += 1
                if self._obs.enabled:
                    self._obs.count("ingest.retry_after_sent")
                writer.write(
                    f"RETRY-AFTER {self.retry_after_s}\n".encode("utf-8")
                )
                await writer.drain()
                # Backpressure: stop reading this producer entirely
                # until the writer drains below the low watermark.
                await self._below_low.wait()
                head = await reader.readexactly(4)
                continue
            else:
                assert isinstance(verdict, asyncio.Future)
                await verdict  # durable commit barrier — ack-after-fsync
                writer.write(f"OK {frame.seq}\n".encode("utf-8"))
            await writer.drain()
            head = await reader.readexactly(4)

    async def _query_stream(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Line-oriented query API (HEALTH / WINDOWS / CHANNEL / ...)."""
        rest = await reader.readline()
        line = (first + rest).decode("utf-8", "replace").strip()
        while line:
            self.stats.queries += 1
            parts = line.split()
            command = parts[0].upper()
            if command == "HEALTH":
                payload = {
                    "records": len(self.store),
                    "queued_reports": self._queued_reports,
                    "health": dataclasses.asdict(self.merged_health()),
                    "stats": dataclasses.asdict(self.stats),
                }
                writer.write((json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))
            elif command == "WINDOWS":
                window_s = float(parts[1]) if len(parts) > 1 else 600.0
                rows = await asyncio.to_thread(self._query_windows, window_s)
                writer.write((json.dumps(rows) + "\n").encode("utf-8"))
            elif command == "CHANNEL" and len(parts) == 4:
                summary = await asyncio.to_thread(
                    self._query_channel,
                    int(parts[1]),
                    float(parts[2]),
                    float(parts[3]),
                )
                writer.write((json.dumps(summary, sort_keys=True) + "\n").encode("utf-8"))
            elif command == "METRICS":
                if self._obs.enabled:
                    text = render_prometheus(self._obs.registry)
                else:
                    text = "# observability disabled\n"
                writer.write(text.encode("utf-8"))
                await writer.drain()
                return  # raw text is EOF-terminated: close the stream
            elif command == "SHUTDOWN":
                writer.write(b"OK draining\n")
                await writer.drain()
                self.request_shutdown()
                return
            else:
                writer.write(f"ERR unknown command: {line}\n".encode("utf-8"))
            await writer.drain()
            line = (await reader.readline()).decode("utf-8", "replace").strip()

    def _read_snapshot(self) -> Any:
        """A tolerant reader over everything durable right now."""
        from repro.traces.segments import SegmentedTraceReader

        self.store.flush()
        return SegmentedTraceReader(self.directory, tolerant=True)

    def _query_windows(self, window_s: float) -> list[dict[str, float]]:
        return [
            {"start": start, "reports": len(reports)}
            for start, reports in iter_windows(self._read_snapshot(), window_s)
        ]

    def _query_channel(self, channel_id: int, t0: float, t1: float) -> dict[str, Any]:
        reports = 0
        peers: set[int] = set()
        for report in self._read_snapshot():
            if report.channel_id == channel_id and t0 <= report.time < t1:
                reports += 1
                peers.add(report.peer_ip)
        return {
            "channel": channel_id,
            "start": t0,
            "end": t1,
            "reports": reports,
            "distinct_peers": len(peers),
        }

    # -- UDP ------------------------------------------------------------------

    def _handle_datagram(self, data: bytes) -> None:
        """Admit one datagram: at-most-once, loss-tolerant, crash-proof."""
        self.stats.frames_udp += 1
        try:
            frame = decode_frame(data)
        except FrameError as exc:
            self._quarantine_frame(exc, datagram=True)
            return
        self._admit(frame, datagram=True)


class _DatagramProtocol(asyncio.DatagramProtocol):
    """Feeds received datagrams into the service's admission path."""

    def __init__(self, service: TraceIngestService) -> None:
        self._service = service

    def datagram_received(self, data: bytes, addr: tuple[str, int]) -> None:
        self._service._handle_datagram(data)

    def error_received(self, exc: Exception) -> None:
        pass  # ICMP errors from vanished peers are not our problem
