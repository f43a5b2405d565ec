"""The one atomic write path for every file the system reads back.

DESIGN.md §9 lists the callers and the fsync policy: only the snapshot
publisher passes ``durable=True``.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union


def write_atomic(path: Union[str, Path], data: bytes, *,
                 durable: bool = False) -> Path:
    """Replace ``path`` with ``data`` through a temp file in the same
    directory and one ``os.replace``; returns the path.

    Creates the parent directory; the file gets ``mkstemp``'s owner-only
    mode.  ``durable`` also fsyncs the file before the rename and the
    directory after it, so the new file survives a power loss, not just
    a kill.  On any exception the temp file is removed and the target is
    left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    if durable:     # the rename itself survives only a synced directory
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    return path
