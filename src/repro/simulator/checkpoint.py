"""Crash-safe checkpoint/resume for :class:`~repro.simulator.system.UUSeeSystem`.

A two-month measurement campaign dies to power cuts, OOM kills and
reboots; losing the whole run to one of them is what this module
prevents.  A checkpoint captures *everything* that makes the simulation
deterministic — peers, tracker, partner lists, workload phase, the
departure heap, and the exact ``getstate()`` of every named
``random.Random`` stream — so a resumed run continues draw-for-draw
identically to a run that was never interrupted.

On disk a checkpoint is a single file written atomically
(write-temp + fsync + ``os.replace``) with a self-describing header::

    REPROCKPT <version> <sha256-of-payload> <payload-length>\\n
    <pickle payload>

Loading verifies magic, version, length and checksum before unpickling,
so a checkpoint torn by the very crash it was meant to survive is
*detected* (:class:`CheckpointCorruptError`) rather than silently
restoring garbage; :class:`CheckpointManager` then falls back to the
previous intact file in its keep-last-K rotation.

Restore deliberately does **not** unpickle a whole ``UUSeeSystem``:
the caller first constructs a fresh system from the *same config* (which
replays the construction-time draws and rebuilds everything stateless),
then :func:`restore_into` overwrites the mutable state in place.  This
keeps non-serializable members (the trace store's file handles) out of
the checkpoint and preserves the object identities the engine shares
(``system.peers`` *is* ``system.exchange.peers``).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import pickle
import re
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.ioutil import atomic_write_bytes
from repro.obs.spans import NULL_OBSERVER, AnyObserver
from repro.traces.faults import FaultyChannel

if TYPE_CHECKING:
    from repro.simulator.system import SystemConfig, UUSeeSystem

#: Envelope magic; a file that does not start with this is not a checkpoint.
MAGIC = b"REPROCKPT"
#: Envelope format version.
VERSION = 1

_CKPT_RE = re.compile(r"^ckpt-(\d{10})\.bin$")


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, found or applied."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file failed magic/version/length/checksum validation.

    The expected signature of a crash landing *during* a checkpoint
    write on a filesystem without atomic rename, or of bit rot; the
    manager skips such files and resumes from the previous intact one.
    """


def _canonical(value: object) -> str:
    """A hash-stable textual form of a config value.

    ``repr`` alone is not stable across processes: set and frozenset
    iteration order depends on hash randomization.  Dataclasses render
    field-by-field in declaration order, sets sort their canonical
    elements, dicts sort by canonical key.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = ",".join(
            f"{f.name}={_canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__qualname__}({body})"
    if isinstance(value, enum.Enum):
        return f"{type(value).__qualname__}.{value.name}"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(v) for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted(
            ((_canonical(k), _canonical(v)) for k, v in value.items())
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, (str, int, float, bool)) or value is None:
        return repr(value)
    # Plain objects (e.g. OutageSchedule): vars() in sorted key order.
    body = ",".join(
        f"{k}={_canonical(v)}" for k, v in sorted(vars(value).items())
    )
    return f"{type(value).__qualname__}({body})"


def config_token(config: SystemConfig, scope: str = "") -> str:
    """Fingerprint of a :class:`SystemConfig`, stable across processes.

    Stored in every checkpoint and compared on restore, so resuming a
    campaign with a *different* configuration fails loudly instead of
    producing a silently-inconsistent hybrid run.

    ``scope`` narrows the token beyond the config: sharded fleet
    campaigns pass their shard identity (shard index + channel subset)
    so shard 2's checkpoint can never restore into shard 3's worker
    even though both run the same :class:`SystemConfig` shape.  The
    empty scope leaves the token byte-identical to pre-scope builds, so
    existing checkpoints stay restorable.
    """
    canonical = _canonical(config)
    if scope:
        canonical = f"{canonical}#scope={scope}"
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def draw_fingerprint(system: UUSeeSystem) -> str:
    """Digest of every named RNG stream's exact state, for equivalence.

    Two systems with equal fingerprints will make identical draws
    forever after — the property the fleet's kill/resume tests pin:
    a shard that crashed and resumed must land on the *same* fingerprint
    as one that ran straight through.
    """
    states = {
        "latency": system.latency._rng.getstate(),
        "bandwidth": system.bandwidth._rng.getstate(),
        "exchange": system.exchange.rng.getstate(),
        "system": system._rng.getstate(),
        "fault": system._fault_rng.getstate(),
        "trace_server": system.trace_server._rng.getstate(),
    }
    # Only policies owning a private stream contribute; legacy policies
    # return None, keeping pre-overlay fingerprints byte-identical.
    overlay_rng = system.exchange.partner_policy.rng_state()
    if overlay_rng is not None:
        states["overlay"] = overlay_rng
    digest = hashlib.sha256()
    for name in sorted(states):
        digest.update(name.encode("utf-8"))
        digest.update(repr(states[name]).encode("utf-8"))
    return digest.hexdigest()


def _allocator_state(allocator: Any) -> dict[str, Any]:
    # _in_use is membership-only (never iterated by the simulator), but
    # serialize it sorted anyway so payload bytes are reproducible.
    return {
        "cursor": allocator._cursor,
        "in_use": sorted(allocator._in_use),
        "released": list(allocator._released),
    }


def _restore_allocator(allocator: Any, state: dict[str, Any]) -> None:
    allocator._cursor = state["cursor"]
    allocator._in_use = set(state["in_use"])
    allocator._released = list(state["released"])


def snapshot_system(
    system: UUSeeSystem, *, trace_records: int | None = None, scope: str = ""
) -> dict[str, Any]:
    """Capture every piece of mutable :class:`UUSeeSystem` state.

    ``trace_records`` is the trace store's durable record count at this
    cut (``len(store)`` after a sync); resume uses it to roll the store
    back so the replayed rounds do not duplicate reports.  The returned
    dict is ready for :func:`save_checkpoint`; it references live
    objects, so serialize it before advancing the system further.
    """
    channel_state: dict[str, Any] | None = None
    store = system.trace_server.store
    if isinstance(store, FaultyChannel):
        channel_state = {
            "rng": store._rng.getstate(),
            "in_burst": store._in_burst,
            "held": store._held,
            "held_for": store._held_for,
            "counters": store.counters,
        }
    return {
        "config_token": config_token(system.config, scope),
        "clock": system.engine.clock_state(),
        "rounds_completed": system.rounds_completed,
        "trace_records": trace_records,  # repro: noqa[REP101] consumed by run_campaign's store.rollback, not restore_into
        "peers": system.peers,
        "tracker": system.tracker,
        "arrivals": system.arrivals,
        "trace_server": {
            "rng": system.trace_server._rng.getstate(),
            "received": system.trace_server.received,
            "dropped": system.trace_server.dropped,
        },
        "channel": channel_state,
        "rng": {
            "latency": system.latency._rng.getstate(),
            "bandwidth": system.bandwidth._rng.getstate(),
            "exchange": system.exchange.rng.getstate(),
            "system": system._rng.getstate(),
            "fault": system._fault_rng.getstate(),
        },
        "allocators": {
            name: _allocator_state(alloc)
            for name, alloc in system._allocators.items()
        },
        "server_allocator": _allocator_state(system._server_allocator),
        "departures": list(system._departures),
        # None for the stateless legacy policies; a dict of the policy's
        # own RNG state and topology structures otherwise, so a resumed
        # overlay campaign continues draw-for-draw.
        "overlay": system.exchange.partner_policy.checkpoint_state(),
        "next_peer_id": system._next_peer_id,
        "round_stats": system.round_stats,
        "totals": (
            system.total_arrivals,
            system.total_departures,
            system.total_crashes,
        ),
        # Duck-typed: present when the store is an ingest ReportClient
        # (next seq, pending spill frames, backoff RNG, partial batch),
        # so a resumed campaign resends the unacked tail and regenerates
        # identical frame identities for the server to deduplicate.
        "ingest_client": (
            store.checkpoint_state()
            if hasattr(store, "checkpoint_state")
            else None
        ),
        # None for the no-op observer; plain dicts otherwise, so resumed
        # campaigns report cumulative metric totals, not restart at zero.
        "obs": system.obs.checkpoint_state(),
    }


def restore_into(
    system: UUSeeSystem, state: dict[str, Any], *, scope: str = ""
) -> None:
    """Overwrite a *freshly constructed* system with checkpointed state.

    ``system`` must have been built from the same config the checkpoint
    was taken under (verified via the stored config token, scoped the
    same way it was at save time) and not yet run.  Mutation is in-place
    where object identity is shared — ``peers`` is cleared and refilled
    rather than rebound, because the exchange engine holds the same
    dict.
    """
    token = config_token(system.config, scope)
    if state["config_token"] != token:
        raise CheckpointError(
            "checkpoint was taken under a different configuration "
            f"(token {state['config_token'][:12]}… vs {token[:12]}…); "
            "resume with the original config or start a fresh campaign"
        )
    system.engine.restore_clock(state["clock"])
    system.rounds_completed = state["rounds_completed"]
    system.peers.clear()
    system.peers.update(state["peers"])
    system.tracker = state["tracker"]
    system.exchange.tracker = state["tracker"]
    system.arrivals = state["arrivals"]
    ts = state["trace_server"]
    system.trace_server._rng.setstate(ts["rng"])
    system.trace_server.received = ts["received"]
    system.trace_server.dropped = ts["dropped"]
    channel_state = state.get("channel")
    store = system.trace_server.store
    if channel_state is not None:
        if not isinstance(store, FaultyChannel):
            raise CheckpointError(
                "checkpoint carries collection-channel fault state but the "
                "resumed system's store is not wrapped in a FaultyChannel"
            )
        store._rng.setstate(channel_state["rng"])
        store._in_burst = channel_state["in_burst"]
        store._held = channel_state["held"]
        store._held_for = channel_state["held_for"]
        store.counters = channel_state["counters"]
    rngs = state["rng"]
    system.latency._rng.setstate(rngs["latency"])
    system.bandwidth._rng.setstate(rngs["bandwidth"])
    system.exchange.rng.setstate(rngs["exchange"])
    system._rng.setstate(rngs["system"])
    system._fault_rng.setstate(rngs["fault"])
    for name, alloc_state in state["allocators"].items():
        if name not in system._allocators:
            raise CheckpointError(f"checkpoint references unknown ISP {name!r}")
        _restore_allocator(system._allocators[name], alloc_state)
    _restore_allocator(system._server_allocator, state["server_allocator"])
    system._departures = list(state["departures"])
    # The matching policy is guaranteed by the config token above (the
    # overlay spec is a SystemConfig field); .get() keeps checkpoints
    # written before the overlay lab restorable.
    system.exchange.clock = system.engine.now
    system.exchange.partner_policy.restore_checkpoint(state.get("overlay"))
    system._next_peer_id = state["next_peer_id"]
    system.round_stats = state["round_stats"]
    (
        system.total_arrivals,
        system.total_departures,
        system.total_crashes,
    ) = state["totals"]
    ingest_state = state.get("ingest_client")
    if ingest_state is not None:
        if not hasattr(store, "restore_checkpoint"):
            raise CheckpointError(
                "checkpoint carries ingest reporter state but the resumed "
                "system's store is not an ingest ReportClient"
            )
        store.restore_checkpoint(ingest_state)
    # .get(): checkpoints written before observability existed lack the
    # key; restoring into a no-op observer is itself a no-op.
    system.obs.restore_checkpoint(state.get("obs"))


def save_checkpoint(path: str | Path, state: dict[str, Any]) -> Path:
    """Serialize ``state`` to ``path`` atomically and durably.

    The payload is pickled, framed with a magic/version/checksum/length
    header, and written via write-temp + fsync + ``os.replace`` — a
    crash at any instant leaves either the previous checkpoint or the
    complete new one, never a torn file.
    """
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest()
    header = f"{MAGIC.decode()} {VERSION} {digest} {len(payload)}\n".encode()
    return atomic_write_bytes(path, header + payload)


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read, validate and deserialize a checkpoint file.

    Raises :class:`CheckpointCorruptError` on any framing or checksum
    mismatch (truncation, bit rot, not-a-checkpoint) — corruption is a
    *skip signal* for the manager, never an excuse to unpickle
    unverified bytes.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointCorruptError(f"{path}: unreadable: {exc}") from exc
    newline = blob.find(b"\n")
    if newline < 0 or not blob.startswith(MAGIC + b" "):
        raise CheckpointCorruptError(f"{path}: not a {MAGIC.decode()} file")
    fields = blob[:newline].decode("ascii", "replace").split()
    if len(fields) != 4:
        raise CheckpointCorruptError(f"{path}: malformed header")
    _, version, digest, length = fields
    if int(version) != VERSION:
        raise CheckpointCorruptError(
            f"{path}: unsupported checkpoint version {version} "
            f"(this build reads version {VERSION})"
        )
    payload = blob[newline + 1 :]
    if len(payload) != int(length):
        raise CheckpointCorruptError(
            f"{path}: payload is {len(payload)} bytes, header promises "
            f"{length} (torn write?)"
        )
    if hashlib.sha256(payload).hexdigest() != digest:
        raise CheckpointCorruptError(f"{path}: payload checksum mismatch")
    state = pickle.loads(payload)
    if not isinstance(state, dict):
        raise CheckpointCorruptError(f"{path}: unexpected payload type")
    return state


class CheckpointManager:
    """Periodic checkpoints with keep-last-K rotation under one directory.

    Files are named ``ckpt-<round:010d>.bin`` so lexicographic order is
    round order without touching the wall clock (the simulator packages
    are wall-clock-free by QA rule).  :meth:`save` syncs the trace store
    first, so the recorded ``trace_records`` cut is durable before the
    checkpoint that references it exists; :meth:`latest_valid` walks
    newest-to-oldest past corrupt files.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        keep_last: int = 3,
        scope: str = "",
        obs: AnyObserver = NULL_OBSERVER,
    ) -> None:
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        self.directory = Path(directory)
        self.keep_last = keep_last
        self.scope = scope
        self.obs = obs
        #: Corrupt envelopes skipped by :meth:`latest_valid` so far.
        self.corrupt_skipped = 0
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, rounds: int) -> Path:
        """The checkpoint file name for a given completed-round count."""
        return self.directory / f"ckpt-{rounds:010d}.bin"

    def checkpoints(self) -> list[Path]:
        """Every checkpoint file present, oldest first."""
        found = [
            p for p in self.directory.iterdir() if _CKPT_RE.match(p.name)
        ]
        found.sort()
        return found

    def save(self, system: UUSeeSystem) -> Path:
        """Checkpoint ``system`` now; returns the file written.

        Ordering is the crash-safety invariant: (1) flush-and-fsync the
        trace store, (2) capture ``len(store)`` as the durable cut,
        (3) write the checkpoint atomically, (4) prune old files.  A
        crash between any two steps leaves a resumable state.
        """
        store = system.trace_server.store
        inner = store.store if isinstance(store, FaultyChannel) else store
        sync = getattr(inner, "sync", None) or getattr(inner, "flush", None)
        if sync is not None:
            sync()
        trace_records = len(inner) if hasattr(inner, "__len__") else None
        state = snapshot_system(
            system, trace_records=trace_records, scope=self.scope
        )
        path = save_checkpoint(self.path_for(system.rounds_completed), state)
        self._prune()
        return path

    def latest_valid(self) -> tuple[Path, dict[str, Any]] | None:
        """Newest checkpoint that passes validation, or ``None``.

        Corrupt files (e.g. torn by the crash itself on a filesystem
        without atomic rename) are skipped, not deleted — they are
        evidence.  Every skip is surfaced to the observer as a
        ``checkpoint.corrupt_skipped`` count plus an event naming the
        file and the validation failure, so silent rollback to an older
        cut is visible in the run's telemetry.
        """
        for path in reversed(self.checkpoints()):
            try:
                return path, load_checkpoint(path)
            except CheckpointCorruptError as exc:
                self.corrupt_skipped += 1
                self.obs.count("checkpoint.corrupt_skipped")
                self.obs.emit(
                    {
                        "type": "checkpoint.corrupt",
                        "path": str(path),
                        "error": str(exc),
                    }
                )
                continue
        return None

    def _prune(self) -> None:
        for path in self.checkpoints()[: -self.keep_last]:
            path.unlink()
