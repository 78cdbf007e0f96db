"""Writing a file so that a failure leaves it as it was.

Every file padcrypt writes (pools, frames, plaintexts, codebooks, reports)
goes through `write_file`: the destination is opened before the bytes are
produced, so an unwritable path fails before any key bit is spent, and a
regular file is on disk, rename included, before `write_file` returns.
"""

from __future__ import annotations

import os
import stat

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable
    from pathlib import Path


def write_file(path: "str | Path", produce: "Callable[[], bytes]",
               mode: "int | None" = None) -> None:
    """Write produce()'s bytes to path; produce runs once path is open.

    A regular file, or a path not there yet, gets a temp file of its own
    beside the real file (so a symlinked path keeps its link), synced and
    renamed over it, and then the directory is synced: a failure leaves no
    new file and an existing one as it was.  The result has `mode`, or if
    None an existing file's own mode and 0600 for a new one; an existing
    file's owner is kept where the process may set it.  Any other file (a
    device, a FIFO) is opened and written in place, so it stays what it is.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        fd = os.open(path, os.O_WRONLY)  # a directory fails here, unwritten
        try:
            _write_all(fd, produce())
        finally:
            os.close(fd)
        return
    real = os.path.realpath(path)
    parent, name = os.path.split(real)
    dirfd = os.open(parent, os.O_RDONLY)  # before produce, for the sync after the rename
    try:
        tmp = os.path.join(parent, f".{name}.{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        try:
            if st is not None:
                try:
                    os.fchown(fd, st.st_uid, st.st_gid)
                except PermissionError:
                    pass  # only root may give a file away: it becomes ours
            if mode is None:
                mode = 0o600 if st is None else stat.S_IMODE(st.st_mode)
            os.fchmod(fd, mode)  # os.open gave 0600 less the umask
            _write_all(fd, produce())
            os.fsync(fd)
            os.replace(tmp, real)
        except BaseException:
            os.unlink(tmp)
            raise
        finally:
            os.close(fd)
        os.fsync(dirfd)
    finally:
        os.close(dirfd)


def _write_all(fd: int, data: bytes) -> None:
    # os.write may write fewer bytes than asked (at most ~2 GiB on Linux)
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
