"""The one way a file becomes visible under a store directory.

Every file a store publishes — heap, delta segment, ``cells.idx`` /
``cells.delta.idx``, ``cube.json``, ``strings.bin``, ``catalog.json``,
``query_stats.json`` and ``part-*.bin`` — goes through
:func:`publish_file`: the bytes land in ``<name>.<pid>.tmp`` beside the
destination and one ``os.replace`` swaps them in, so a reader sees the
previous file or the whole new one, never a torn write.  This is the only
rename in ``src/repro`` (``tests/test_publish_contract.py`` keeps it so);
a durability ``fsync`` and a fault-injection kill point belong here and
nowhere else.

A leaf module: it imports nothing from :mod:`repro`, so
:mod:`repro.perf.query_kernel` can use it without importing
:mod:`repro.store`.
"""

from __future__ import annotations

import os
from pathlib import Path as FsPath

__all__ = ["publish_file", "staging_path"]


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
