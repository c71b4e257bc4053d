"""Durable-write primitives shared by the campaign-durability layer.

Checkpoints and segment manifests must never be observable half-written:
a collector killed mid-write is this codebase's canonical failure mode
(PAPER.md Sec. 3.2), so every metadata file goes through the classic
write-temp + fsync + ``os.replace`` dance, followed by a directory fsync
so the rename itself survives a crash.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any


def fsync_directory(directory: Path) -> None:
    """fsync ``directory`` so a just-renamed entry survives a power cut.

    Best effort: platforms without directory file descriptors (or
    filesystems that refuse to fsync them) silently skip the sync; the
    preceding ``os.replace`` is still atomic with respect to readers.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically and durably.

    The bytes land in a same-directory temp file, are flushed and
    fsynced, and only then renamed over ``path`` — a reader (or a
    recovery scan after a crash) sees either the complete old content or
    the complete new content, never a torn mixture.  Returns ``path``.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_directory(path.parent)
    return path


def atomic_write_json(path: str | Path, payload: object) -> Path:
    """Atomically write ``payload`` as indented, key-sorted JSON + newline."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return atomic_write_bytes(path, text.encode("utf-8"))


def read_json_object(path: str | Path) -> dict[str, Any] | None:
    """The JSON object stored at ``path``, or None.

    None covers every way a metadata file can be unusable: missing or
    unreadable, torn by a crash mid-write, or holding a non-object.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None
