"""Top-level UUSee deployment: network + workload + protocol + tracing.

``UUSeeSystem`` owns every component — ISP address plan, latency and
bandwidth models, channel catalogue, tracker, streaming servers, the
exchange engine, the arrival/churn workload and the trace server — and
advances them in fixed exchange rounds on the discrete-event engine.

Typical use::

    config = SystemConfig(base_concurrency=800, seed=7)
    store = InMemoryTraceStore()
    system = UUSeeSystem(config, store)
    system.run(days=2)

after which ``store`` holds a Magellan-style trace ready for
``repro.core`` analytics.
"""

from __future__ import annotations

import heapq
import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.network.bandwidth import BandwidthSampler
from repro.network.ip import CidrBlock, IpAllocator
from repro.overlay import build_policy
from repro.network.isp import DEFAULT_ISPS, Isp, IspDatabase
from repro.network.latency import LatencyModel
from repro.obs.spans import NULL_OBSERVER, AnyObserver
from repro.simulator.channel import ChannelCatalogue, default_catalogue
from repro.simulator.engine import EventEngine
from repro.simulator.exchange import ExchangeEngine, RoundStats
from repro.simulator.failures import FaultPlan, OutageSchedule
from repro.simulator.peer import Peer
from repro.simulator.protocol import ProtocolConfig, SelectionPolicy
from repro.simulator.tracker import Tracker, TrackerPool
from repro.traces.server import TraceServer
from repro.traces.store import TraceStore
from repro.workloads.churn import SessionDurationModel
from repro.workloads.flashcrowd import FlashCrowdEvent
from repro.workloads.population import ArrivalProcess, PopulationModel

if TYPE_CHECKING:
    from repro.simulator.checkpoint import CheckpointManager

#: Dedicated address space for UUSee's streaming servers; deliberately
#: outside every ISP block so the mapping database reports them as
#: unmapped (they are infrastructure, not peers).
SERVER_BLOCK = CidrBlock.parse("8.8.0.0/16")
SERVER_ISP = "UUSee Servers"


@dataclass
class SystemConfig:
    """Everything needed to reproduce a run bit-for-bit."""

    seed: int = 0
    base_concurrency: float = 1_000.0
    flash_crowd: FlashCrowdEvent | None = field(default_factory=FlashCrowdEvent)
    weekend_boost: float = 1.07
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    policy: SelectionPolicy = SelectionPolicy.UUSEE
    #: Overlay policy spec ``name[:key=val,...]`` (see ``repro.overlay``).
    #: Overrides ``policy`` when non-empty.  Participates in the
    #: checkpoint config token, so a campaign checkpointed under one
    #: overlay refuses to resume under another.
    overlay: str = ""
    sessions: SessionDurationModel = field(default_factory=SessionDurationModel)
    num_trackers: int = 1  # UUSee runs a tracker farm; 1 is equivalent
    #   for the topology metrics, >1 partitions the volunteer view
    outages: OutageSchedule = field(default_factory=OutageSchedule)
    #   ``outages`` is the binary-failure back-compat surface; ``faults``
    #   carries the full fault plan (brownouts, partitions, degradations,
    #   crashes).  Both may be given; the outages are folded in.
    faults: FaultPlan | None = None
    servers_per_channel: int = 1
    server_upload_kbps: float = 24_000.0
    trace_loss_rate: float = 0.01

    def population(self) -> PopulationModel:
        """The target-population model this config describes."""
        return PopulationModel(
            base_concurrency=self.base_concurrency,
            weekend_boost=self.weekend_boost,
            flash_crowd=self.flash_crowd,
        )


class UUSeeSystem:
    """A complete simulated UUSee deployment."""

    def __init__(
        self,
        config: SystemConfig,
        store: TraceStore,
        *,
        catalogue: ChannelCatalogue | None = None,
        isps: tuple[Isp, ...] = DEFAULT_ISPS,
        obs: AnyObserver = NULL_OBSERVER,
    ) -> None:
        self.config = config
        # Observability only *observes*: it draws nothing from the master
        # RNG (the seed_for() order below is a compatibility contract).
        self.obs = obs
        master = random.Random(config.seed)
        seed_for = lambda: master.randrange(2**62)

        self.catalogue = catalogue or default_catalogue()
        self.isps = isps
        self.isp_db = IspDatabase(isps)
        self.latency = LatencyModel(seed=seed_for())
        self.bandwidth = BandwidthSampler(seed=seed_for())
        self.engine = EventEngine()
        obs.bind_sim_clock(lambda: self.engine.now)
        if config.num_trackers > 1:
            self.tracker: Tracker | TrackerPool = TrackerPool(
                config.num_trackers, seed=seed_for()
            )
        else:
            self.tracker = Tracker(seed=seed_for())
        self.trace_server = TraceServer(
            store, loss_rate=config.trace_loss_rate, seed=seed_for(), obs=obs
        )
        self.arrivals = ArrivalProcess(
            config.population(),
            config.sessions,
            seed=seed_for(),
            lifetime_quantum_s=config.protocol.round_seconds,
        )
        self.faults = (config.faults or FaultPlan()).merged_with_outages(
            config.outages
        )
        self.peers: dict[int, Peer] = {}
        # The overlay policy draws nothing from the master RNG: policies
        # that need randomness derive their own stream from config.seed
        # by hash, so enabling one cannot shift the seed_for() order.
        self.partner_policy = build_policy(
            config.overlay or config.policy.value, seed=config.seed
        )
        self.exchange = ExchangeEngine(
            peers=self.peers,
            catalogue=self.catalogue,
            tracker=self.tracker,
            latency=self.latency,
            config=config.protocol,
            policy=config.policy,
            seed=seed_for(),
            faults=self.faults,
            obs=obs,
            partner_policy=self.partner_policy,
        )
        self._rng = random.Random(seed_for())
        self._allocators: dict[str, IpAllocator] = {
            isp.name: isp.allocator(seed=seed_for()) for isp in isps
        }
        self._server_allocator = IpAllocator([SERVER_BLOCK], seed=seed_for())
        self._isp_cumulative: list[tuple[float, Isp]] = []
        acc = 0.0
        for isp in isps:
            acc += isp.share
            self._isp_cumulative.append((acc, isp))
        self._departures: list[tuple[float, int]] = []
        self._next_peer_id = 1
        self.round_stats: list[RoundStats] = []
        self.total_arrivals = 0
        self.total_departures = 0
        self.total_crashes = 0
        #: Exchange rounds fully completed; names checkpoint files, so it
        #: must advance only after the round's engine window has run.
        self.rounds_completed = 0
        self._create_servers()
        # Drawn last so fault-free runs keep the exact random streams of
        # builds that predate fault injection.
        self._fault_rng = random.Random(seed_for())

    # -- construction ------------------------------------------------------

    def _create_servers(self) -> None:
        for channel in self.catalogue:
            for _ in range(self.config.servers_per_channel):
                peer_id = self._next_peer_id
                self._next_peer_id += 1
                server = Peer(
                    peer_id,
                    ip=self._server_allocator.allocate(),
                    isp=SERVER_ISP,
                    is_china=True,  # servers sit in well-connected POPs
                    channel_id=channel.channel_id,
                    upload_kbps=self.config.server_upload_kbps,
                    download_kbps=self.config.server_upload_kbps,
                    class_name="server",
                    join_time=0.0,
                    depart_time=float("inf"),
                    is_server=True,
                )
                server.health = 1.0
                server.buffer_fill = 1.0
                self.peers[peer_id] = server
                self.tracker.add_server(channel.channel_id, peer_id)
                self.tracker.register(channel.channel_id, peer_id)
                self.tracker.volunteer(channel.channel_id, peer_id)
                server.volunteered = True
                server.registered = True

    # -- run loop ----------------------------------------------------------

    def run(
        self,
        *,
        seconds: float | None = None,
        days: float | None = None,
        checkpoint: CheckpointManager | None = None,
        checkpoint_every_rounds: int = 0,
        stop: Callable[[], bool] | None = None,
        on_round: Callable[[int], None] | None = None,
    ) -> bool:
        """Advance the simulation by the given span (cumulative).

        With a ``checkpoint`` manager and ``checkpoint_every_rounds > 0``
        the run persists a crash-recovery checkpoint after every N-th
        completed round (trace store synced first, so the checkpoint
        never references undurable trace data).

        ``on_round`` is called with the completed-round count after each
        round (after any due checkpoint) — the fleet worker's heartbeat
        hook.  ``stop`` is polled at every round boundary; returning
        true ends the run early *after* the round completed, so the
        caller can checkpoint a consistent cut.  Returns ``True`` when
        the span finished, ``False`` when ``stop`` cut it short.
        """
        if (seconds is None) == (days is None):
            raise ValueError("pass exactly one of seconds/days")
        if checkpoint is not None and checkpoint_every_rounds < 1:
            raise ValueError(
                "checkpoint_every_rounds must be >= 1 when checkpointing"
            )
        span = seconds if seconds is not None else days * 86_400.0
        end = self.engine.now + span
        dt = self.config.protocol.round_seconds
        while self.engine.now < end - 1e-9:
            self._round(dt)
            self.engine.run_until(self.engine.now + dt)
            self.rounds_completed += 1
            if (
                checkpoint is not None
                and self.rounds_completed % checkpoint_every_rounds == 0
            ):
                checkpoint.save(self)
            if on_round is not None:
                on_round(self.rounds_completed)
            if stop is not None and stop():
                return False
        return True

    def _round(self, dt: float) -> None:
        now = self.engine.now
        obs = self.obs
        arrivals0 = self.total_arrivals
        departures0 = self.total_departures
        crashes0 = self.total_crashes
        with obs.span("round.total"):
            with obs.span("round.membership"):
                self._process_departures(now)
                self._process_crashes(now, dt)
                self._process_arrivals(now, dt)
            with obs.span("round.ticks"):
                self._run_ticks(now)
            with obs.span("round.exchange"):
                stats = self.exchange.run_round(now, dt)
            self.round_stats.append(stats)
            with obs.span("round.reports"):
                self._emit_reports(now + dt)
        if obs.enabled:
            obs.count("sim.rounds")
            obs.count("sim.arrivals", self.total_arrivals - arrivals0)
            obs.count("sim.departures", self.total_departures - departures0)
            obs.count("sim.crashes", self.total_crashes - crashes0)
            obs.count("exchange.block_transfers", stats.transfers)
            obs.gauge_set("sim.peers", stats.viewers)
            obs.gauge_set("sim.satisfied_fraction", stats.satisfied_fraction())
            obs.emit(
                {
                    "type": "round",
                    "round": self.rounds_completed + 1,
                    "sim_time": now,
                    "viewers": stats.viewers,
                    "satisfied": stats.satisfied,
                    "transfers": stats.transfers,
                    "arrivals": self.total_arrivals - arrivals0,
                    "departures": self.total_departures - departures0,
                    "crashes": self.total_crashes - crashes0,
                }
            )

    # -- membership ----------------------------------------------------------

    def _choose_isp(self) -> Isp:
        u = self._rng.random()
        for edge, isp in self._isp_cumulative:
            if u <= edge:
                return isp
        return self._isp_cumulative[-1][1]

    def _process_arrivals(self, now: float, dt: float) -> None:
        for when in self.arrivals.arrival_times_in(now, dt):
            self._admit_peer(when, now)

    def _admit_peer(self, join_time: float, now: float) -> Peer:
        isp = self._choose_isp()
        bw = self.bandwidth.sample()
        channel = self.catalogue.sample(self._rng)
        duration = self.arrivals.sample_session()
        peer_id = self._next_peer_id
        self._next_peer_id += 1
        peer = Peer(
            peer_id,
            ip=self._allocators[isp.name].allocate(),
            isp=isp.name,
            is_china=isp.is_china,
            channel_id=channel.channel_id,
            upload_kbps=bw.upload_kbps,
            download_kbps=bw.download_kbps,
            class_name=bw.class_name,
            join_time=join_time,
            depart_time=join_time + duration,
        )
        peer.next_report = join_time + self.config.protocol.first_report_delay_s
        # Spread maintenance ticks uniformly across the tick period.
        peer.last_tick = join_time - self._rng.uniform(
            0.0, self.config.protocol.gossip_interval_s
        )
        self.peers[peer_id] = peer
        # When the tracker is down or browned out the request fails and
        # the client joins with an empty partner list; it then retries
        # with bounded exponential backoff (and may meanwhile discover
        # the mesh through gossip, once someone connects to it).
        self.exchange.tracker_contact(peer, now)
        heapq.heappush(self._departures, (peer.depart_time, peer_id))
        self.total_arrivals += 1
        return peer

    def _process_departures(self, now: float) -> None:
        while self._departures and self._departures[0][0] <= now:
            _, peer_id = heapq.heappop(self._departures)
            peer = self.peers.pop(peer_id, None)
            if peer is None:
                continue
            self.tracker.unregister(peer.channel_id, peer_id)
            self.total_departures += 1
            # Partners discover the departure lazily at their next tick;
            # the trace keeps the stale entries, exactly as real partner
            # lists keep recently-departed transients.

    def _process_crashes(self, now: float, dt: float) -> None:
        """Abrupt departures: no goodbye to partners *or* the tracker.

        Unlike a graceful leave, the tracker keeps the stale
        registration (and possibly volunteer listing) until it hands the
        dead peer out and the connection attempt fails; partners notice
        only through the idle timeout.  This is the crash/leave
        distinction the fault model tests rely on.
        """
        hazard = self.faults.crash_hazard(now)
        if hazard <= 0.0:
            return
        p_crash = 1.0 - math.exp(-hazard * dt)
        victims = [
            peer_id
            for peer_id, peer in self.peers.items()
            if not peer.is_server and self._fault_rng.random() < p_crash
        ]
        for peer_id in victims:
            del self.peers[peer_id]
            self.total_crashes += 1

    # -- control plane ----------------------------------------------------------

    def _run_ticks(self, now: float) -> None:
        interval = self.config.protocol.gossip_interval_s
        for peer in list(self.peers.values()):
            if peer.peer_id not in self.peers:
                continue
            if now - peer.last_tick >= interval:
                self.exchange.maintenance_tick(peer, now)

    # -- measurement -----------------------------------------------------------

    def _emit_reports(self, cutoff: float) -> None:
        interval = self.config.protocol.report_interval_s
        self.exchange.emit_reports(cutoff, interval, self.trace_server.receive)

    # -- inspection helpers ------------------------------------------------------

    def concurrent_peers(self) -> int:
        """Online viewers right now (servers excluded)."""
        return sum(1 for p in self.peers.values() if not p.is_server)

    def stable_peers(self) -> int:
        """Online viewers old enough to have reported at least once."""
        now = self.engine.now
        first = self.config.protocol.first_report_delay_s
        return sum(
            1
            for p in self.peers.values()
            if not p.is_server and p.age(now) >= first
        )

    def peers_in_channel(self, channel_id: int) -> int:
        """Online viewers currently watching ``channel_id``."""
        return sum(
            1
            for p in self.peers.values()
            if not p.is_server and p.channel_id == channel_id
        )
