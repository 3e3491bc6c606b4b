"""An in-memory filesystem for the simulated kernel.

Provides regular files plus the three standard streams.  Guest programs'
stdout/stderr are captured into buffers the embedding code can read; this
is also what keeps tool output on a *side channel* (requirement R9): the
core and tools write through their own host-side logging, never through
the guest's descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

# open() flags (matching the usual Unix values).
O_RDONLY = 0x0
O_WRONLY = 0x1
O_RDWR = 0x2
O_CREAT = 0x40
O_TRUNC = 0x200
O_APPEND = 0x400

# lseek whence.
SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2

# errno values we report.
EBADF = 9
ENOENT = 2
EACCES = 13
EINVAL = 22
EMFILE = 24


class FsError(Exception):
    def __init__(self, errno: int, msg: str = ""):
        super().__init__(msg or f"errno {errno}")
        self.errno = errno


@dataclass
class _OpenFile:
    name: str
    data: bytearray
    pos: int = 0
    flags: int = O_RDONLY
    stream: Optional[str] = None  # "stdin" | "stdout" | "stderr"


class FileSystem:
    """Flat in-memory filesystem with Unix-flavoured fd semantics."""

    MAX_FDS = 256

    def __init__(self) -> None:
        self.files: Dict[str, bytearray] = {}
        self.stdin = bytearray()
        self.stdout = bytearray()
        self.stderr = bytearray()
        self._fds: Dict[int, _OpenFile] = {
            0: _OpenFile("<stdin>", self.stdin, stream="stdin"),
            1: _OpenFile("<stdout>", self.stdout, flags=O_WRONLY, stream="stdout"),
            2: _OpenFile("<stderr>", self.stderr, flags=O_WRONLY, stream="stderr"),
        }

    # -- host-side conveniences ---------------------------------------------------

    def add_file(self, path: str, data: bytes) -> None:
        self.files[path] = bytearray(data)

    def set_stdin(self, data: bytes) -> None:
        self.stdin[:] = data
        self._fds[0].pos = 0

    def stdout_text(self) -> str:
        return self.stdout.decode(errors="replace")

    def stderr_text(self) -> str:
        return self.stderr.decode(errors="replace")

    # -- syscall backends -----------------------------------------------------------

    def _file(self, fd: int) -> _OpenFile:
        f = self._fds.get(fd)
        if f is None:
            raise FsError(EBADF, f"bad fd {fd}")
        return f

    def open(self, path: str, flags: int) -> int:
        if path not in self.files:
            if not flags & O_CREAT:
                raise FsError(ENOENT, f"no such file: {path}")
            self.files[path] = bytearray()
        data = self.files[path]
        if flags & O_TRUNC:
            del data[:]
        for fd in range(3, self.MAX_FDS):
            if fd not in self._fds:
                of = _OpenFile(path, data, flags=flags)
                if flags & O_APPEND:
                    of.pos = len(data)
                self._fds[fd] = of
                return fd
        raise FsError(EMFILE, "too many open files")

    def close(self, fd: int) -> None:
        if fd not in self._fds:
            raise FsError(EBADF, f"bad fd {fd}")
        if fd > 2:
            del self._fds[fd]

    def read(self, fd: int, n: int) -> bytes:
        f = self._file(fd)
        if f.stream in ("stdout", "stderr"):
            raise FsError(EBADF, "fd not open for reading")
        data = bytes(f.data[f.pos : f.pos + n])
        f.pos += len(data)
        return data

    def write(self, fd: int, data: bytes) -> int:
        f = self._file(fd)
        if f.stream == "stdin":
            raise FsError(EBADF, "fd not open for writing")
        if f.stream in ("stdout", "stderr"):
            f.data += data
            return len(data)
        end = f.pos + len(data)
        if f.pos > len(f.data):
            f.data += b"\0" * (f.pos - len(f.data))
        f.data[f.pos : end] = data
        f.pos = end
        return len(data)

    def lseek(self, fd: int, offset: int, whence: int) -> int:
        f = self._file(fd)
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = f.pos + offset
        elif whence == SEEK_END:
            new = len(f.data) + offset
        else:
            raise FsError(EINVAL, f"bad whence {whence}")
        if new < 0:
            raise FsError(EINVAL, "negative seek")
        f.pos = new
        return new

    def size(self, fd: int) -> int:
        return len(self._file(fd).data)

    def unlink(self, path: str) -> None:
        if path not in self.files:
            raise FsError(ENOENT, f"no such file: {path}")
        del self.files[path]

    def is_open(self, fd: int) -> bool:
        return fd in self._fds
