"""Atomic replacement of the files the package writes."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator


@contextmanager
def atomic_write(path: str | Path) -> Iterator[BinaryIO]:
    """Write `path` through a temporary file beside it and os.replace.

    First creates the parent directory, and any missing above it. Yields
    the temporary file, open for binary writing. On a clean exit it
    replaces `path` in one step, so a reader sees the old content or the
    new, never part of it. If the block raises, the temporary file is
    removed and `path` is left as it was. There is no fsync: this guards
    against a crash or an error part-way through a write, not against a
    power loss. Replacing an existing file is slow on ext4 with its
    default `auto_da_alloc` (tens of ms per file, against well under 1 ms
    for a new path), since the rename then flushes the new data.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
