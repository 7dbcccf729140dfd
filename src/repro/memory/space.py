"""A sparse byte-addressable memory space.

The simulated JVM heap, serialized output buffers, and the accelerator all
read and write this space. It is backed by fixed-size pages allocated lazily,
so a 128 GB address space (Table I) costs memory only for the bytes actually
touched.

Word accessors use little-endian byte order, matching x86 hosts where HotSpot
lays out the object heaps that Cereal serializes.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional

from repro.common.errors import HeapError

_PAGE_BYTES = 64 * 1024

# Precompiled struct formats for the word-vector accessors; keyed by word
# count so repeated bulk reads of same-shaped objects pay zero parse cost.
_WORD_STRUCTS: Dict[int, struct.Struct] = {}


def _word_struct(count: int) -> struct.Struct:
    cached = _WORD_STRUCTS.get(count)
    if cached is None:
        cached = struct.Struct(f"<{count}Q")
        _WORD_STRUCTS[count] = cached
    return cached


class MemorySpace:
    """Sparse little-endian memory with optional access tracing.

    Parameters
    ----------
    size_bytes:
        Total addressable size. Accesses outside ``[0, size_bytes)`` raise
        :class:`~repro.common.errors.HeapError`.
    trace:
        Optional :class:`~repro.memory.trace.MemoryTrace`; when set, every
        read/write is recorded (used by the CPU cache model and the
        accelerator bandwidth accounting).
    """

    def __init__(self, size_bytes: int, trace: Optional["MemoryTrace"] = None):
        if size_bytes <= 0:
            raise HeapError(f"size_bytes must be positive, got {size_bytes}")
        self.size_bytes = size_bytes
        self.trace = trace
        self._pages: Dict[int, bytearray] = {}

    # -- bounds & paging -----------------------------------------------------

    def _check_range(self, address: int, length: int) -> None:
        if length < 0:
            raise HeapError(f"negative access length {length}")
        if address < 0 or address + length > self.size_bytes:
            raise HeapError(
                f"access [{address:#x}, {address + length:#x}) outside "
                f"memory of size {self.size_bytes:#x}"
            )

    def _page(self, page_index: int) -> bytearray:
        page = self._pages.get(page_index)
        if page is None:
            page = bytearray(_PAGE_BYTES)
            self._pages[page_index] = page
        return page

    @property
    def resident_bytes(self) -> int:
        """Bytes of backing storage actually allocated."""
        return len(self._pages) * _PAGE_BYTES

    # -- raw byte access -----------------------------------------------------

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``address``."""
        self._check_range(address, length)
        if self.trace is not None:
            self.trace.record_read(address, length)
        page_index, offset = divmod(address, _PAGE_BYTES)
        if offset + length <= _PAGE_BYTES:
            # Fast path: the range lives in one page — a single slice.
            page = self._pages.get(page_index)
            if page is None:
                return bytes(length)
            return bytes(page[offset : offset + length])
        out = bytearray(length)
        copied = 0
        while copied < length:
            addr = address + copied
            page_index, offset = divmod(addr, _PAGE_BYTES)
            run = min(length - copied, _PAGE_BYTES - offset)
            page = self._pages.get(page_index)
            if page is not None:
                out[copied : copied + run] = page[offset : offset + run]
            copied += run
        return bytes(out)

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` starting at ``address``."""
        self._check_range(address, len(data))
        if self.trace is not None:
            self.trace.record_write(address, len(data))
        length = len(data)
        page_index, offset = divmod(address, _PAGE_BYTES)
        if offset + length <= _PAGE_BYTES:
            self._page(page_index)[offset : offset + length] = data
            return
        copied = 0
        while copied < length:
            addr = address + copied
            page_index, offset = divmod(addr, _PAGE_BYTES)
            run = min(length - copied, _PAGE_BYTES - offset)
            self._page(page_index)[offset : offset + run] = data[
                copied : copied + run
            ]
            copied += run

    def fill(self, address: int, length: int, value: int = 0) -> None:
        """Fill a range with one byte value (used for zeroing fresh objects)."""
        if not 0 <= value <= 0xFF:
            raise HeapError(f"fill value must be a byte, got {value}")
        self.write(address, bytes([value]) * length)

    # -- typed little-endian accessors ----------------------------------------

    def read_u8(self, address: int) -> int:
        return self.read(address, 1)[0]

    def write_u8(self, address: int, value: int) -> None:
        self.write(address, struct.pack("<B", value))

    def read_u16(self, address: int) -> int:
        return struct.unpack("<H", self.read(address, 2))[0]

    def write_u16(self, address: int, value: int) -> None:
        self.write(address, struct.pack("<H", value))

    def read_u32(self, address: int) -> int:
        return struct.unpack("<I", self.read(address, 4))[0]

    def write_u32(self, address: int, value: int) -> None:
        self.write(address, struct.pack("<I", value))

    def read_u64(self, address: int) -> int:
        return struct.unpack("<Q", self.read(address, 8))[0]

    def write_u64(self, address: int, value: int) -> None:
        self.write(address, struct.pack("<Q", value))

    def read_i32(self, address: int) -> int:
        return struct.unpack("<i", self.read(address, 4))[0]

    def write_i32(self, address: int, value: int) -> None:
        self.write(address, struct.pack("<i", value))

    def read_i64(self, address: int) -> int:
        return struct.unpack("<q", self.read(address, 8))[0]

    def write_i64(self, address: int, value: int) -> None:
        self.write(address, struct.pack("<q", value))

    def read_f64(self, address: int) -> float:
        return struct.unpack("<d", self.read(address, 8))[0]

    def write_f64(self, address: int, value: float) -> None:
        self.write(address, struct.pack("<d", value))

    def read_f32(self, address: int) -> float:
        return struct.unpack("<f", self.read(address, 4))[0]

    def write_f32(self, address: int, value: float) -> None:
        self.write(address, struct.pack("<f", value))

    # -- bulk helpers ----------------------------------------------------------

    def read_words(self, address: int, count: int) -> tuple:
        """Read ``count`` consecutive u64 words as one traced access.

        The bulk equivalent of ``count`` calls to :meth:`read_u64`: one
        bounds check, one trace record spanning the whole range, one
        precompiled ``struct`` unpack. Hot paths (object-image walks) use
        this so per-slot cost is a tuple index instead of a memory call.
        """
        return _word_struct(count).unpack(self.read(address, count * 8))

    def write_words(self, address: int, words) -> None:
        """Write consecutive u64 words as one traced access."""
        self.write(address, _word_struct(len(words)).pack(*words))

    def copy(self, src: int, dst: int, length: int) -> None:
        """Memcpy within the space (reads then writes, both traced)."""
        self.write(dst, self.read(src, length))
