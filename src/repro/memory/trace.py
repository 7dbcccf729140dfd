"""Memory access traces.

A :class:`MemoryTrace` records the exact sequence of reads and writes a
functional execution performs. The CPU model replays a trace through the
cache hierarchy to cost the software serializers; the accelerator model uses
its own internal accounting, but traces are also useful in tests to assert
access patterns (e.g. the DU's sequential reads).

Traces can grow large, so a trace can run in *summary* mode where only
aggregate statistics (byte counts per kind, unique lines) are maintained.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, NamedTuple, Set


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"


class MemoryAccess(NamedTuple):
    """One traced access: kind, start address, and length in bytes."""

    kind: AccessKind
    address: int
    length: int

    def cache_lines(self, line_bytes: int = 64) -> range:
        """Indices of the cache lines this access touches (none if empty)."""
        if self.length <= 0:
            return range(0)
        first = self.address // line_bytes
        last = (self.address + self.length - 1) // line_bytes
        return range(first, last + 1)


# Builds a MemoryAccess without the NamedTuple constructor's Python frame;
# recording runs once per traced heap access.
_new_access = tuple.__new__


class MemoryTrace:
    """Ordered record of memory accesses with aggregate statistics.

    With ``keep_accesses`` the records themselves are the state and
    ``unique_line_count`` is derived from them on demand; in summary mode
    the touched-line set is kept up to date as accesses arrive.
    """

    def __init__(self, keep_accesses: bool = True, line_bytes: int = 64):
        self.keep_accesses = keep_accesses
        self.line_bytes = line_bytes
        self.accesses: List[MemoryAccess] = []
        self.read_bytes = 0
        self.write_bytes = 0
        self.read_count = 0
        self.write_count = 0
        self._touched_lines: Set[int] = set()

    # -- recording -------------------------------------------------------------

    def record_read(self, address: int, length: int) -> None:
        self.read_bytes += length
        self.read_count += 1
        self._record(AccessKind.READ, address, length)

    def record_write(self, address: int, length: int) -> None:
        self.write_bytes += length
        self.write_count += 1
        self._record(AccessKind.WRITE, address, length)

    def _record(self, kind: AccessKind, address: int, length: int) -> None:
        if self.keep_accesses:
            self.accesses.append(_new_access(MemoryAccess, (kind, address, length)))
        elif length > 0:
            first = address // self.line_bytes
            last = (address + length - 1) // self.line_bytes
            self._touched_lines.update(range(first, last + 1))

    # -- statistics --------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    @property
    def total_count(self) -> int:
        return self.read_count + self.write_count

    @property
    def unique_line_count(self) -> int:
        """Number of distinct cache lines touched (footprint / locality proxy)."""
        if not self.keep_accesses:
            return len(self._touched_lines)
        lines: Set[int] = set()
        for access in self.accesses:
            lines.update(access.cache_lines(self.line_bytes))
        return len(lines)

    def __len__(self) -> int:
        return len(self.accesses)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self.accesses)

    def clear(self) -> None:
        self.accesses.clear()
        self.read_bytes = 0
        self.write_bytes = 0
        self.read_count = 0
        self.write_count = 0
        self._touched_lines.clear()

    # -- derived views -------------------------------------------------------------

    def line_accesses(self) -> Iterator[MemoryAccess]:
        """Split each access into per-cache-line accesses.

        Cache and DRAM models operate at line granularity; this expands a
        multi-line access (e.g. a 64 B buffered store) into one access per
        line so each model stage sees uniform units.
        """
        for access in self.accesses:
            for line in access.cache_lines(self.line_bytes):
                line_start = line * self.line_bytes
                start = max(access.address, line_start)
                end = min(access.address + access.length, line_start + self.line_bytes)
                yield MemoryAccess(access.kind, start, end - start)
