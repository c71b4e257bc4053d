"""Output checks: an operation counts only if its result stands.

A campaign passes when

* every segment on disk is sealed in ``manifest.json`` with the same
  record count and sha256 as its uncompressed content (plain JSONL or
  gzip, as the store writes it),
* the trace re-reads strictly (``SegmentedTraceReader``) with exactly
  ``trace_records`` reports (verified once per distinct content sha),
* its health shows no recovery repair and the run was neither resumed
  nor interrupted (``server_dropped`` is the simulated collection loss,
  part of every run), and
* its content sha256, draw fingerprint and record count equal the
  expected ones: the pins at the pinned seed, otherwise the first
  campaign of the same run (same seed, so the same trace).

An ``analyze`` figure passes when its payload is present (Fig. 4 must
instead be the "trace too short" skip: its instants lie on days 1 and 5)
and the sha256 of its canonical JSON equals the expected digest.  The
``figures`` payload is digested rather than the whole document, which
embeds the trace path.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import shutil
import zlib
from pathlib import Path
from typing import Any

from repro.traces.segments import MANIFEST_NAME, SegmentedTraceReader

#: Fig. 4 reads instants on days 1 and 5; a shorter trace must skip it.
SHORT_TRACE_SKIP = {"fig4"}
SKIP_PREFIX = "trace too short"


def segment_paths(trace_dir: Path) -> list[Path]:
    return SegmentedTraceReader(trace_dir).segment_paths()


def segment_content(path: Path) -> bytes:
    """A segment's uncompressed content, as the manifest fingerprints it.

    Gzip segments may hold several members (one per recovery); a damaged
    or truncated member raises, so a corrupt segment cannot pass.
    """
    raw = path.read_bytes()
    if path.suffix != ".gz":
        return raw
    out = []
    while raw:
        member = zlib.decompressobj(wbits=31)
        out.append(member.decompress(raw))
        if not member.eof:
            raise ValueError(f"{path.name}: gzip member ends early")
        raw = member.unused_data
    return b"".join(out)


def trace_facts(trace_dir: Path) -> dict[str, Any]:
    """Content sha256 (uncompressed) and on-disk byte size of a trace."""
    digest = hashlib.sha256()
    size = 0
    for path in segment_paths(trace_dir):
        digest.update(segment_content(path))
        size += path.stat().st_size
    return {"content_sha256": digest.hexdigest(), "trace_bytes": size}


def _manifest_problems(trace_dir: Path) -> list[str]:
    manifest = json.loads((trace_dir / MANIFEST_NAME).read_text())
    sealed = {s["name"]: s for s in manifest["segments"]}
    problems = []
    on_disk = segment_paths(trace_dir)
    if sorted(p.name for p in on_disk) != sorted(sealed):
        problems.append("segments on disk differ from the manifest")
    for path in on_disk:
        entry = sealed.get(path.name)
        if entry is None:
            continue
        data = segment_content(path)
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            problems.append(f"{path.name}: content sha256 differs from manifest")
        if data.count(b"\n") != entry["records"]:
            problems.append(f"{path.name}: record count differs from manifest")
    return problems


def check_campaign(
    result: Any,
    trace_dir: Path,
    expected: dict[str, Any] | None,
    verified: set[str],
) -> tuple[dict[str, Any], list[str]]:
    """Facts about one campaign's output and the reasons it fails (if any).

    ``verified`` holds content digests whose strict re-read already
    passed in this run; a trace is re-read only when its digest is new.
    """
    try:
        facts = trace_facts(trace_dir)
        problems = _manifest_problems(trace_dir)
    except Exception as exc:  # unreadable segment or manifest
        facts = {"content_sha256": None, "trace_bytes": None}
        problems = [f"cannot read the trace: {exc!r}"]
    facts["rng_fingerprint"] = result.rng_fingerprint
    facts["trace_records"] = result.trace_records
    health = dataclasses.asdict(result.health)
    repairs = {k: v for k, v in health.items() if v and k != "server_dropped"}
    if repairs:
        problems.append(f"trace health not clean: {repairs}")
    if result.interrupted or result.resumed_from_round is not None:
        problems.append("campaign was interrupted or resumed")
    if not problems and facts["content_sha256"] not in verified:
        try:
            reread = sum(1 for _ in SegmentedTraceReader(trace_dir))
        except Exception as exc:  # TraceFormatError and friends
            problems.append(f"strict re-read failed: {exc}")
        else:
            if reread != result.trace_records:
                problems.append(
                    f"strict re-read found {reread} reports, "
                    f"campaign reported {result.trace_records}"
                )
            else:
                verified.add(facts["content_sha256"])
    if expected is not None:
        for key in ("content_sha256", "rng_fingerprint", "trace_records"):
            if facts[key] != expected[key]:
                problems.append(f"{key} {facts[key]!r} != expected {expected[key]!r}")
    return facts, problems


def figure_digest(payload: Any) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def check_figure(fig: str, payload: Any, expected: str | None) -> tuple[str, list[str]]:
    """The payload digest of one figure and the reasons it fails (if any)."""
    digest = figure_digest(payload)
    problems = []
    skipped = payload.get("skipped") if isinstance(payload, dict) else None
    if fig in SHORT_TRACE_SKIP:
        if not (isinstance(skipped, str) and skipped.startswith(SKIP_PREFIX)):
            problems.append(f"{fig}: expected the '{SKIP_PREFIX}' skip")
    elif skipped is not None:
        problems.append(f"{fig}: skipped ({skipped})")
    if expected is not None and digest != expected:
        problems.append(f"{fig}: payload digest {digest[:12]} != expected {expected[:12]}")
    return digest, problems


def _alter_first_number(value: Any) -> bool:
    """Change the first number found in a JSON value in place."""
    items = (
        list(value.items()) if isinstance(value, dict)
        else list(enumerate(value)) if isinstance(value, list) else []
    )
    for key, item in items:
        if isinstance(item, (int, float)) and not isinstance(item, bool):
            value[key] = item + 1
            return True
        if _alter_first_number(item):
            return True
    return False


def tampered_checks(
    result: Any,
    trace_dir: Path,
    expected: dict[str, Any],
    figures: dict[str, Any],
    digests: dict[str, str],
    workdir: Path,
) -> list[list[str]]:
    """Check a tampered segment and an altered payload like real outputs.

    Returns the problems each check found; a check that finds none has
    let a tampered output pass.
    """
    tampered = workdir / "tampered-trace"
    shutil.copytree(trace_dir, tampered)
    segment = segment_paths(tampered)[0]
    data = bytearray(segment.read_bytes())
    # Flip one bit in the middle of the file, whatever its format: a
    # digit stays valid JSON with the same record count, so then only
    # the digests can tell.
    data[len(data) // 2] ^= 0x01
    segment.write_bytes(bytes(data))
    _, trace_problems = check_campaign(result, tampered, expected, set())
    shutil.rmtree(tampered)
    fig = next((f for f in sorted(figures) if f not in SHORT_TRACE_SKIP), None)
    if fig is None:
        raise ValueError("no figure payload to alter")
    altered = copy.deepcopy(figures[fig])
    if not _alter_first_number(altered):
        raise ValueError(f"{fig} payload holds no number to alter")
    _, figure_problems = check_figure(fig, altered, digests[fig])
    return [trace_problems, figure_problems]
