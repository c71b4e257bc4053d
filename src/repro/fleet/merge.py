"""Deterministic k-way merge of shard traces into one campaign trace.

Each shard worker writes its own segmented trace under
``campaign/shards/shard-NN/``.  After the fleet finishes,
:func:`merge_shards` folds those per-shard streams into a single
:class:`~repro.traces.segments.SegmentedTraceStore` at the campaign
root, ordered by ``(report time, shard id, ordinal)`` — a total order,
so the merged byte stream is a pure function of the shard contents and
two fleets that produced identical shards produce identical campaigns
no matter how differently their workers were killed, restarted or
scheduled along the way.

The shard directories do not collide with the merged output: segment
files only count when named ``seg-NNNNNNNN.jsonl[.gz]`` *directly* in
the directory being read, so ``analyze``/``info`` pointed at the
campaign root see exactly the merged trace.

A ``merge.json`` manifest (written atomically, last) records the
per-shard input fingerprints and the merged totals.  Merging is
idempotent: when the manifest already matches the current inputs the
merge is skipped; when it does not (or a previous merge was killed
half-way), the stale output segments are discarded and the merge runs
again from the shard streams, which are never mutated.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from pathlib import Path
from typing import Any
from collections.abc import Iterator

from repro.fleet.plan import ShardSpec, shard_dir
from repro.ioutil import atomic_write_json, read_json_object
from repro.obs.spans import NULL_OBSERVER, AnyObserver
from repro.traces.records import PeerReport
from repro.traces.segments import (
    MANIFEST_NAME,
    SegmentedTraceReader,
    SegmentedTraceStore,
    _segment_index,
)

#: File name of the merge manifest at the campaign root.
MERGE_MANIFEST_NAME = "merge.json"


@dataclass(frozen=True)
class MergeResult:
    """Outcome of one :func:`merge_shards` call."""

    campaign_dir: Path
    records: int
    content_sha256: str
    shards: dict[int, int]  # shard_id -> records contributed
    reused: bool  # True when an up-to-date merge was already on disk


def _shard_stream(
    directory: Path, sid: int
) -> Iterator[tuple[float, int, int, PeerReport]]:
    """One shard's reports as sort keys ``(time, shard, ordinal)``.

    The ordinal preserves each shard's own report order among ties
    (same-instant reports from one worker stay in emission order).
    """
    for ordinal, report in enumerate(SegmentedTraceReader(directory)):
        yield (report.time, sid, ordinal, report)


def _shard_fingerprints(shard_dirs: dict[int, Path]) -> dict[str, str]:
    """Content digest per shard, keyed by the shard id as a string."""
    out: dict[str, str] = {}
    for sid, directory in sorted(shard_dirs.items()):
        reader = SegmentedTraceReader(directory)
        digest = hashlib.sha256()
        for path in reader.segment_paths():
            digest.update(path.read_bytes())
        out[str(sid)] = digest.hexdigest()
    return out


def _clear_merged_output(campaign_dir: Path) -> None:
    """Drop a stale or half-written merged trace from the campaign root."""
    for path in campaign_dir.iterdir():
        if path.is_file() and _segment_index(path.name) is not None:
            path.unlink()
    manifest = campaign_dir / MANIFEST_NAME
    if manifest.exists():
        manifest.unlink()


def merge_shards(
    campaign_dir: str | Path,
    specs: list[ShardSpec] | None = None,
    *,
    shard_ids: list[int] | None = None,
    records_per_segment: int = 100_000,
    compress: bool = False,
    obs: AnyObserver = NULL_OBSERVER,
) -> MergeResult:
    """Merge shard traces under ``campaign_dir/shards`` into the root.

    ``specs`` (or explicit ``shard_ids``) selects which shards
    participate — quarantined shards are excluded by the caller.  The
    merged segments inherit ``records_per_segment``/``compress`` from
    the campaign, not from the shards.
    """
    campaign_dir = Path(campaign_dir)
    if shard_ids is None:
        if specs is None:
            raise ValueError("pass specs or shard_ids")
        shard_ids = [spec.shard_id for spec in specs]
    dirs = {sid: shard_dir(campaign_dir, sid) for sid in sorted(shard_ids)}
    for sid, directory in dirs.items():
        if not directory.is_dir():
            raise FileNotFoundError(
                f"shard {sid}: no trace directory at {directory}"
            )

    with obs.span("fleet.merge.fingerprint"):
        inputs = _shard_fingerprints(dirs)
    existing = read_json_object(campaign_dir / MERGE_MANIFEST_NAME)
    if existing is not None and existing.get("inputs") == inputs:
        # The manifest is written last, so its presence with matching
        # inputs proves the merged segments below it are complete.
        return MergeResult(
            campaign_dir=campaign_dir,
            records=int(existing["records"]),
            content_sha256=str(existing["content_sha256"]),
            shards={int(k): int(v) for k, v in existing["shards"].items()},
            reused=True,
        )

    _clear_merged_output(campaign_dir)
    counts = dict.fromkeys(dirs, 0)
    with obs.span("fleet.merge.write"):
        store = SegmentedTraceStore(
            campaign_dir,
            records_per_segment=records_per_segment,
            compress=compress,
            obs=obs,
        )
        for _, sid, _, report in heapq.merge(
            *(_shard_stream(directory, sid) for sid, directory in dirs.items())
        ):
            store.append(report)
            counts[sid] += 1
        store.close()
        content_sha = store.content_sha256()

    payload: dict[str, Any] = {
        "inputs": inputs,
        "records": sum(counts.values()),
        "content_sha256": content_sha,
        "shards": {str(sid): n for sid, n in sorted(counts.items())},
    }
    atomic_write_json(campaign_dir / MERGE_MANIFEST_NAME, payload)
    if obs.enabled:
        obs.count("fleet.merge.records", sum(counts.values()))
    return MergeResult(
        campaign_dir=campaign_dir,
        records=sum(counts.values()),
        content_sha256=content_sha,
        shards=dict(counts),
        reused=False,
    )
