"""The measurement methodology of the paper (Sec. 3.2), reproduced.

Each peer sends its first report 20 minutes after joining and one every
10 minutes thereafter (so reporting peers are the 'stable backbone').
A report carries the peer's IP, channel, buffer map summary, total
download/upload capacities, instantaneous aggregate receiving/sending
throughput, and a list of all partners with per-partner sent/received
segment counts.  Reports travel over UDP (lossy) to a standalone trace
server, which appends them to a trace store.

On disk a trace is one format: a segmented campaign directory written
by ``SegmentedTraceStore`` and read back by ``SegmentedTraceReader``.
Because the real collection path was a lossy Internet UDP path, this
package also carries a fault-injection layer (``FaultyChannel``) and a
tolerant read mode (``SegmentedTraceReader(tolerant=True)``) whose
accounting lands in a ``TraceHealth``.
"""

from repro.traces.records import PartnerRecord, PeerReport
from repro.traces.anonymize import IspPreservingAnonymizer
from repro.traces.health import TraceHealth
from repro.traces.reporter import build_report, port_for_peer
from repro.traces.server import TraceServer
from repro.traces.faults import ChannelCounters, ChannelFaults, FaultyChannel
from repro.traces.segments import (
    SegmentedTraceReader,
    SegmentedTraceStore,
    SegmentInfo,
    SegmentRecoveryError,
)
from repro.traces.store import (
    InMemoryTraceStore,
    TraceFormatError,
    TraceStoreClosedError,
    TraceTruncatedError,
    iter_windows,
    sanitize,
)

__all__ = [
    "PartnerRecord",
    "PeerReport",
    "IspPreservingAnonymizer",
    "TraceHealth",
    "build_report",
    "port_for_peer",
    "TraceServer",
    "ChannelCounters",
    "ChannelFaults",
    "FaultyChannel",
    "InMemoryTraceStore",
    "SegmentInfo",
    "SegmentRecoveryError",
    "SegmentedTraceReader",
    "SegmentedTraceStore",
    "TraceFormatError",
    "TraceStoreClosedError",
    "TraceTruncatedError",
    "iter_windows",
    "sanitize",
]
