"""Peer and partner-link state.

A ``Peer`` is one streaming client (or a streaming server, flagged).
Each TCP partnership is represented by a ``Link`` at *both* endpoints:
every peer keeps its own view with its own sent/received segment
counters, mirroring the paper's measurement design where each peer
reports, per partner, the number of segments sent to and received from
that partner.  Links carry the measured RTT and the per-connection TCP
throughput ceiling drawn from the network model, plus the EWMA
throughput estimate UUSee's selection uses.
"""

from __future__ import annotations


class Link:
    """One endpoint's view of a TCP partnership."""

    __slots__ = (
        "rtt_ms",
        "cap_kbps",
        "est_kbps",
        "penalty",
        "sent_segments",
        "recv_segments",
        "reported_sent",
        "reported_recv",
        "established_at",
        "partner_ip",
    )

    def __init__(
        self,
        rtt_ms: float,
        cap_kbps: float,
        *,
        established_at: float = 0.0,
        partner_ip: int = 0,
    ) -> None:
        self.rtt_ms = rtt_ms
        self.cap_kbps = cap_kbps
        self.partner_ip = partner_ip
        # Initial throughput estimate: optimistic half the ceiling, so new
        # links get tried; measurement then corrects it.
        self.est_kbps = cap_kbps * 0.5
        # Quadratic RTT selection penalty: UUSee measures round-trip
        # delay per connection and strongly prefers nearby (in practice
        # intra-ISP) partners; block requests over high-RTT paths also
        # pipeline badly.  Fixed for the link's lifetime (RTT never
        # changes after establishment) — precomputed so the per-round
        # scoring loops pay one attribute read, not an exponentiation.
        self.penalty = 1.0 + (rtt_ms / 60.0) ** 2
        self.sent_segments = 0.0  # cumulative, this endpoint -> partner
        self.recv_segments = 0.0  # cumulative, partner -> this endpoint
        self.reported_sent = 0.0  # snapshot at last trace report
        self.reported_recv = 0.0
        self.established_at = established_at

    def __setstate__(
        self, state: tuple[dict[str, float] | None, dict[str, float]]
    ) -> None:
        # Checkpoints pickle Links with the default slots protocol; ones
        # written before the ``penalty`` slot existed lack it, so derive
        # it from the restored RTT.
        _, slots = state
        for name, value in slots.items():
            setattr(self, name, value)
        if "penalty" not in slots:
            self.penalty = 1.0 + (self.rtt_ms / 60.0) ** 2

    def observe_throughput(self, achieved_kbps: float, smoothing: float) -> None:
        """Blend a measured per-round rate into the selection estimate."""
        self.est_kbps = (1.0 - smoothing) * self.est_kbps + smoothing * achieved_kbps

    def unreported_deltas(self) -> tuple[float, float]:
        """(sent, received) segments since the last trace report."""
        return (
            self.sent_segments - self.reported_sent,
            self.recv_segments - self.reported_recv,
        )

    def mark_reported(self) -> None:
        """Roll the reported counters forward to the current totals."""
        self.reported_sent = self.sent_segments
        self.reported_recv = self.recv_segments


class Peer:
    """One UUSee client (or server) and all its protocol state."""

    __slots__ = (
        "peer_id",
        "ip",
        "isp",
        "is_china",
        "is_server",
        "channel_id",
        "upload_kbps",
        "download_kbps",
        "class_name",
        "join_time",
        "depart_time",
        "partners",
        "suppliers",
        "health",
        "buffer_fill",
        "recv_rate_kbps",
        "sent_rate_kbps",
        "last_tick",
        "next_report",
        "volunteered",
        "starving_ticks",
        "depth",
        "playback_position",
        "registered",
        "tracker_failures",
        "next_tracker_retry",
    )

    def __init__(
        self,
        peer_id: int,
        *,
        ip: int,
        isp: str,
        is_china: bool,
        channel_id: int,
        upload_kbps: float,
        download_kbps: float,
        class_name: str,
        join_time: float,
        depart_time: float,
        is_server: bool = False,
    ) -> None:
        self.peer_id = peer_id
        self.ip = ip
        self.isp = isp
        self.is_china = is_china
        self.is_server = is_server
        self.channel_id = channel_id
        self.upload_kbps = upload_kbps
        self.download_kbps = download_kbps
        self.class_name = class_name
        self.join_time = join_time
        self.depart_time = depart_time
        self.partners: dict[int, Link] = {}
        self.suppliers: set[int] = set()
        self.health = 0.0  # EWMA of recv_rate / stream_rate, 0..1
        self.buffer_fill = 0.0  # sliding-window occupancy estimate, 0..1
        self.recv_rate_kbps = 0.0
        self.sent_rate_kbps = 0.0
        self.last_tick = join_time
        self.next_report = float("inf")
        self.volunteered = False
        self.starving_ticks = 0
        # Hop distance from the streaming server (servers are 0); used by
        # the TREE ablation policy and interesting in its own right.
        self.depth = 0 if is_server else 64
        self.playback_position = 0
        # Tracker-contact state: whether the tracker has accepted this
        # peer's registration, and the bounded-exponential-backoff retry
        # schedule used while the tracker is down or browned out.
        self.registered = False
        self.tracker_failures = 0
        self.next_tracker_retry = float("inf")

    @property
    def partner_count(self) -> int:
        """Current partner-list size."""
        return len(self.partners)

    def age(self, now: float) -> float:
        """Seconds since this peer joined."""
        return now - self.join_time

    def add_partner(self, partner_id: int, link: Link) -> bool:
        """Record a partnership; returns False if it already existed."""
        if partner_id in self.partners or partner_id == self.peer_id:
            return False
        self.partners[partner_id] = link
        return True

    def remove_partner(self, partner_id: int) -> None:
        """Forget a partner (and drop it from the supplier set)."""
        self.partners.pop(partner_id, None)
        self.suppliers.discard(partner_id)

    def spare_upload_kbps(self) -> float:
        """Unused upload capacity as of the last exchange round."""
        return max(0.0, self.upload_kbps - self.sent_rate_kbps)

    def __repr__(self) -> str:  # debugging aid only
        kind = "server" if self.is_server else self.class_name
        return (
            f"Peer({self.peer_id}, {kind}, isp={self.isp!r}, "
            f"ch={self.channel_id}, partners={len(self.partners)})"
        )
