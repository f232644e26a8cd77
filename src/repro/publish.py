"""The one way a file becomes visible under a store directory.

Every file a store publishes — heap segment, cell index, path table,
``cube.json``, ``strings.bin``, ``catalog.json``, ``query_stats.json``
and ``part-*.bin`` — goes through
:func:`publish_file`: the bytes land in ``<name>.<pid>.tmp`` beside the
destination and one ``os.replace`` swaps them in, so a reader sees the
previous file or the whole new one, never a torn write.  This is the only
rename in ``src/repro`` (``tests/test_publish_contract.py`` keeps it so);
a durability ``fsync`` and a fault-injection kill point belong here and
nowhere else.

Publishing is safe against a killed writer, not against a second live
one: whoever stages files under a store directory holds its
:class:`WriterLock` first.  Readers — and the servers' ``query_stats.json``
publishes — take no lock.

A leaf module: it imports only :mod:`repro.errors`, so
:mod:`repro.perf.query_kernel` can use it without importing
:mod:`repro.store`.
"""

from __future__ import annotations

import fcntl
import os
from pathlib import Path as FsPath

from repro.errors import StoreError

__all__ = ["WriterLock", "publish_file", "staging_path"]

LOCK_FILENAME = "writer.lock"


class WriterLock:
    """The single-writer lock of the store rooted at *root*.

    An exclusive, non-blocking ``flock`` on ``<root>/writer.lock``: a
    second writer — another process or another handle in this one — gets
    a :class:`~repro.errors.StoreError` naming the file instead of
    waiting.  :meth:`acquire` is re-entrant within the holder, one
    :meth:`release` lets go, and a holder that dies (or is collected)
    releases with its descriptor — no write-side code forks, so no
    child shares it.
    """

    def __init__(self, root: FsPath) -> None:
        self.path = FsPath(root) / LOCK_FILENAME
        self._handle = None

    def acquire(self) -> None:
        if self._handle is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(self.path, "a")
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as error:
            handle.close()
            if not isinstance(error, BlockingIOError):
                raise
            raise StoreError(
                f"another writer holds {self.path}; one writer at a time "
                "may build, append to, compact or ingest into a store"
            ) from None
        self._handle = handle

    def release(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()


def staging_path(destination: FsPath) -> FsPath:
    """Where *destination*'s bytes are staged by this process."""
    return destination.with_name(f"{destination.name}.{os.getpid()}.tmp")


def publish_file(destination: FsPath, source: bytes | FsPath) -> os.stat_result:
    """Atomically replace *destination* with *source*.

    *source* is either the new content (written to
    :func:`staging_path` first) or the path of a closed file the caller
    staged itself.  Whichever temp is involved is unlinked when the
    write or the rename fails.

    Returns the temp's ``stat`` taken before the rename: the published
    inode's identity as *this* writer left it, where a ``stat`` of the
    destination afterwards could already describe a later publish.
    """
    staged = isinstance(source, os.PathLike)
    temp = FsPath(source) if staged else staging_path(destination)
    try:
        if staged:
            stat = os.stat(temp)
        else:
            with open(temp, "wb") as handle:
                handle.write(source)
                handle.flush()
                stat = os.fstat(handle.fileno())
        os.replace(temp, destination)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return stat
