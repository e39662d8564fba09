"""Atomic file writes: no partial output files survive a failure."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

# Read once at import: os.umask can only be read by setting it.
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write to a uniquely named temp file beside `path`, fsync it, then rename it over `path`.

    Concurrent writers each use their own temp file, so the target always
    holds one complete write, and the data is on disk before the rename,
    so a crash cannot leave the new name over a short file. The file gets
    the mode a plain create would.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as f:
            os.fchmod(f.fileno(), 0o666 & ~_UMASK)
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, data: str) -> None:
    atomic_write_bytes(path, data.encode("utf-8"))
