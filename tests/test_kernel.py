"""Tests for guest memory, the filesystem, and the kernel's syscalls."""

import struct

import pytest

from repro.kernel.fs import (
    EBADF,
    ENOENT,
    FileSystem,
    FsError,
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_TRUNC,
    O_WRONLY,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
)
from repro.kernel.kernel import (
    BLOCKED,
    Kernel,
    NO_RESULT,
    ProcessExit,
    SIGALRM,
    SYS_ALARM,
    SYS_BRK,
    SYS_CLOSE,
    SYS_EXIT,
    SYS_GETTIME,
    SYS_KILL,
    SYS_MMAP,
    SYS_MREMAP,
    SYS_MUNMAP,
    SYS_OPEN,
    SYS_READ,
    SYS_SETTIME,
    SYS_SIGACTION,
    SYS_WRITE,
)
from repro.kernel.memory import (
    GuestFault,
    GuestMemory,
    PAGE_SIZE,
    PROT_READ,
    PROT_RW,
    PROT_RX,
)
from repro.ir.types import Ty


class FakeEngine:
    def __init__(self):
        self.insns = 1000

    def guest_insns(self):
        return self.insns


class TestGuestMemory:
    def test_map_read_write(self):
        m = GuestMemory()
        m.map(0x1000, 0x2000, PROT_RW)
        m.write(0x1FFE, b"abcd")  # crosses a page boundary
        assert m.read(0x1FFE, 4) == b"abcd"

    def test_unmapped_faults(self):
        m = GuestMemory()
        with pytest.raises(GuestFault, match="unmapped"):
            m.read(0x1000, 1)

    def test_permissions(self):
        m = GuestMemory()
        m.map(0x1000, PAGE_SIZE, PROT_READ)
        assert m.read(0x1000, 1) == b"\0"
        with pytest.raises(GuestFault, match="permission"):
            m.write(0x1000, b"x")
        with pytest.raises(GuestFault, match="permission"):
            m.fetch(0x1000, 1)

    def test_protect(self):
        m = GuestMemory()
        m.map(0x1000, PAGE_SIZE, PROT_RW)
        m.protect(0x1000, PAGE_SIZE, PROT_RX)
        with pytest.raises(GuestFault):
            m.write(0x1000, b"x")
        m.fetch(0x1000, 1)

    def test_unmap(self):
        m = GuestMemory()
        m.map(0x1000, PAGE_SIZE, PROT_RW)
        m.unmap(0x1000, PAGE_SIZE)
        assert not m.is_mapped(0x1000)

    def test_remap_zeroes(self):
        m = GuestMemory()
        m.map(0x1000, PAGE_SIZE, PROT_RW)
        m.write(0x1000, b"xyz")
        m.map(0x1000, PAGE_SIZE, PROT_RW)
        assert m.read(0x1000, 3) == b"\0\0\0"

    def test_mapped_ranges_coalesce(self):
        m = GuestMemory()
        m.map(0x1000, 2 * PAGE_SIZE, PROT_RW)
        m.map(0x3000, PAGE_SIZE, PROT_RX)
        ranges = list(m.mapped_ranges())
        assert (0x1000, 2 * PAGE_SIZE, PROT_RW) in ranges
        assert (0x3000, PAGE_SIZE, PROT_RX) in ranges

    def test_pages_in_address_order(self):
        m = GuestMemory()
        m.map(0x3000, PAGE_SIZE, PROT_RX)
        m.map(0x1000, PAGE_SIZE, PROT_RW)
        m.write(0x1004, b"abc")
        pages = list(m.pages())
        assert [(pn, prot) for pn, _, prot in pages] == [(1, PROT_RW),
                                                        (3, PROT_RX)]
        assert bytes(pages[0][1][4:7]) == b"abc"
        assert len(pages[1][1]) == PAGE_SIZE

    def test_typed_access(self):
        m = GuestMemory()
        m.map(0x1000, PAGE_SIZE, PROT_RW)
        m.store(0x1000, Ty.F64, 2.5)
        assert m.load(0x1000, Ty.F64) == 2.5

    def test_read_cstring(self):
        m = GuestMemory()
        m.map(0x1000, PAGE_SIZE, PROT_RW)
        m.write(0x1000, b"hello\0junk")
        assert m.read_cstring(0x1000) == b"hello"


class TestFileSystem:
    def test_std_streams(self):
        fs = FileSystem()
        fs.set_stdin(b"input")
        assert fs.read(0, 3) == b"inp"
        assert fs.read(0, 10) == b"ut"
        fs.write(1, b"out")
        fs.write(2, b"err")
        assert fs.stdout_text() == "out" and fs.stderr_text() == "err"

    def test_open_missing(self):
        fs = FileSystem()
        with pytest.raises(FsError) as ei:
            fs.open("nope", O_RDONLY)
        assert ei.value.errno == ENOENT

    def test_create_write_read(self):
        fs = FileSystem()
        fd = fs.open("f.txt", O_WRONLY | O_CREAT)
        fs.write(fd, b"hello")
        fs.lseek(fd, 0, SEEK_SET)
        assert fs.read(fd, 5) == b"hello"
        fs.close(fd)
        assert not fs.is_open(fd)

    def test_trunc_and_append(self):
        fs = FileSystem()
        fs.add_file("f", b"0123456789")
        fd = fs.open("f", O_WRONLY | O_APPEND)
        fs.write(fd, b"X")
        assert bytes(fs.files["f"]) == b"0123456789X"
        fd2 = fs.open("f", O_WRONLY | O_TRUNC)
        assert fs.size(fd2) == 0

    def test_seek_modes(self):
        fs = FileSystem()
        fs.add_file("f", b"abcdef")
        fd = fs.open("f", O_RDONLY)
        assert fs.lseek(fd, 2, SEEK_SET) == 2
        assert fs.lseek(fd, 2, SEEK_CUR) == 4
        assert fs.lseek(fd, -1, SEEK_END) == 5
        assert fs.read(fd, 1) == b"f"

    def test_bad_fd(self):
        fs = FileSystem()
        with pytest.raises(FsError) as ei:
            fs.read(99, 1)
        assert ei.value.errno == EBADF

    def test_unlink(self):
        fs = FileSystem()
        fs.add_file("f", b"x")
        fs.unlink("f")
        assert "f" not in fs.files


class TestKernelSyscalls:
    def _kernel(self):
        mem = GuestMemory()
        k = Kernel(mem)
        k.set_brk_base(0x20000)
        return k, mem, FakeEngine()

    def test_exit_raises(self):
        k, _, eng = self._kernel()
        with pytest.raises(ProcessExit) as ei:
            k.syscall(eng, 1, SYS_EXIT, 7, 0, 0)
        assert ei.value.status == 7

    def test_brk_grow_and_shrink(self):
        k, mem, eng = self._kernel()
        assert k.syscall(eng, 1, SYS_BRK, 0, 0, 0) == 0x20000
        new = k.syscall(eng, 1, SYS_BRK, 0x20000 + 100, 0, 0)
        assert new == 0x20000 + 100
        assert mem.is_mapped(0x20000)
        k.syscall(eng, 1, SYS_BRK, 0x20000, 0, 0)
        assert not mem.is_mapped(0x20000 + PAGE_SIZE)

    def test_mmap_munmap(self):
        k, mem, eng = self._kernel()
        addr = k.syscall(eng, 1, SYS_MMAP, 0, 8192, 0)
        assert addr >= k.mmap_base and mem.is_mapped(addr, 8192)
        assert k.syscall(eng, 1, SYS_MUNMAP, addr, 8192, 0) == 0
        assert not mem.is_mapped(addr)

    def test_mmap_respects_forbidden(self):
        k, mem, eng = self._kernel()
        k.forbidden.append((k.mmap_base, k.mmap_base + 0x100000))
        addr = k.syscall(eng, 1, SYS_MMAP, 0, 4096, 0)
        assert addr >= k.mmap_base + 0x100000

    def test_mremap_moves_and_copies(self):
        k, mem, eng = self._kernel()
        a = k.syscall(eng, 1, SYS_MMAP, 0, 4096, 0)
        mem.write(a, b"payload!")
        # Block in-place extension by mapping the next page.
        k.syscall(eng, 1, SYS_MMAP, a + 4096, 4096, 0)
        b = k.syscall(eng, 1, SYS_MREMAP, a, 4096, 8192)
        assert b != a
        assert mem.read(b, 8) == b"payload!"
        assert not mem.is_mapped(a)

    def test_file_syscalls_via_guest_memory(self):
        k, mem, eng = self._kernel()
        mem.map(0x5000, PAGE_SIZE, PROT_RW)
        mem.write(0x5000, b"file.txt\0")
        from repro.kernel.fs import O_CREAT, O_RDWR

        fd = k.syscall(eng, 1, SYS_OPEN, 0x5000, O_CREAT | O_RDWR, 0)
        mem.write(0x5100, b"DATA")
        assert k.syscall(eng, 1, SYS_WRITE, fd, 0x5100, 4) == 4
        k.fs.lseek(fd, 0, 0)
        assert k.syscall(eng, 1, SYS_READ, fd, 0x5200, 4) == 4
        assert mem.read(0x5200, 4) == b"DATA"
        assert k.syscall(eng, 1, SYS_CLOSE, fd, 0, 0) == 0

    def test_gettime_settime(self):
        k, mem, eng = self._kernel()
        mem.map(0x5000, PAGE_SIZE, PROT_RW)
        assert k.syscall(eng, 1, SYS_GETTIME, 0x5000, 0, 0) == 0
        sec, usec = struct.unpack("<II", mem.read(0x5000, 8))
        assert (sec, usec) == (0, 100)  # 1000 insns / 10 insns-per-usec
        mem.write(0x5000, struct.pack("<II", 5, 0))
        k.syscall(eng, 1, SYS_SETTIME, 0x5000, 0, 0)
        k.syscall(eng, 1, SYS_GETTIME, 0x5000, 0, 0)
        sec, _ = struct.unpack("<II", mem.read(0x5000, 8))
        assert sec == 5

    def test_signals_and_timers(self):
        k, _, eng = self._kernel()
        old = k.syscall(eng, 1, SYS_SIGACTION, SIGALRM, 0x1234, 0)
        assert old == 0
        assert k.handler_for(SIGALRM) == 0x1234
        k.syscall(eng, 1, SYS_ALARM, 500, 0, 0)
        assert not k.check_timers(1400)
        assert k.check_timers(1500)
        assert k.next_pending(1) == SIGALRM
        k.syscall(eng, 1, SYS_KILL, 2, 9, 0)
        assert k.next_pending(2) == 9

    def test_unknown_syscall_returns_einval(self):
        k, _, eng = self._kernel()
        assert k.syscall(eng, 1, 999, 0, 0, 0) == (-22) & 0xFFFFFFFF
