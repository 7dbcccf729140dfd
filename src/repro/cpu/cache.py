"""Set-associative cache hierarchy simulator.

Replays a :class:`~repro.memory.trace.MemoryTrace` through L1/L2/L3 (LRU,
inclusive-enough for accounting purposes) and classifies every DRAM miss as
*sequential* (caught by a next-line hardware prefetcher, cheap and
overlappable) or *random* (a demand miss that stalls the bounded
out-of-order window). The split is what lets the core model reproduce the
paper's observation that S/D is dominated by random, dependent misses.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.common.config import CacheLevelConfig, HostCPUConfig
from repro.memory.trace import AccessKind


@dataclass
class CacheStats:
    """Hit/miss counters for one replay."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    dram_accesses: int = 0
    sequential_misses: int = 0
    random_misses: int = 0
    write_misses: int = 0
    writeback_lines: int = 0

    @property
    def llc_accesses(self) -> int:
        """Accesses that reached the L3 (missed L1 and L2)."""
        return self.l3_hits + self.dram_accesses

    @property
    def llc_miss_rate(self) -> float:
        if not self.llc_accesses:
            return 0.0
        return self.dram_accesses / self.llc_accesses

    @property
    def l1_miss_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return 1.0 - self.l1_hits / self.accesses

    def dram_bytes(self, line_bytes: int = 64) -> int:
        """Traffic to memory: demand fills plus dirty writebacks."""
        return (self.dram_accesses + self.writeback_lines) * line_bytes


class _SetAssociativeCache:
    """One LRU cache level, tracked at line granularity.

    A set is created the first time a line maps to it, so building a level
    costs nothing and a replay costs what its lines touch, not the size of
    the cache (the 11 MB L3 has 16k sets; one S/D op touches a few).
    """

    def __init__(self, config: CacheLevelConfig):
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.associativity
        self._sets: Dict[int, OrderedDict] = {}

    def access(self, line: int, is_write: bool) -> bool:
        """Touch ``line``; returns True on hit. Misses install the line."""
        index = line % self.num_sets
        ways = self._sets.get(index)
        if ways is None:
            self._sets[index] = OrderedDict(((line, is_write),))
            return False
        if line in ways:
            ways.move_to_end(line)
            if is_write:
                ways[line] = True  # dirty
            return True
        ways[line] = is_write
        if len(ways) > self.ways:
            ways.popitem(last=False)
        return False


class _PrefetchClassifier:
    """Next-line-stream detector standing in for the L2 hardware prefetcher."""

    def __init__(self, window: int = 64):
        self.window = window
        self._recent: OrderedDict[int, None] = OrderedDict()

    def is_sequential(self, line: int) -> bool:
        hit = (line - 1) in self._recent or (line - 2) in self._recent
        self._recent[line] = None
        if len(self._recent) > self.window:
            self._recent.popitem(last=False)
        return hit


class CacheHierarchy:
    """L1D + L2 + L3 replayed over byte-range accesses."""

    def __init__(self, host: Optional[HostCPUConfig] = None):
        self.host = host or HostCPUConfig()
        self.l1 = _SetAssociativeCache(self.host.l1)
        self.l2 = _SetAssociativeCache(self.host.l2)
        self.l3 = _SetAssociativeCache(self.host.l3)
        self.line_bytes = self.host.l1.line_bytes
        self.stats = CacheStats()
        self._prefetch = _PrefetchClassifier()

    def replay(self, accesses: Iterable[Tuple[AccessKind, int, int]]) -> CacheStats:
        """Replay ``(kind, address, length)`` accesses (``MemoryAccess``
        records or plain tuples); returns the running stats.

        An access touches every cache line its byte range spans, in address
        order, so a multi-line access costs one line access per line; a
        zero-length access touches none. A DRAM miss is classified
        sequential or random by the prefetch detector, and a write miss
        counts a writeback of the line it allocates.
        """
        line_bytes = self.line_bytes
        write = AccessKind.WRITE
        l1, l2, l3 = self.l1.access, self.l2.access, self.l3.access
        is_sequential = self._prefetch.is_sequential
        lines = l1_hits = l2_hits = l3_hits = 0
        dram = sequential = write_misses = 0
        for kind, address, length in accesses:
            if length <= 0:
                continue
            is_write = kind is write
            first = address // line_bytes
            last = (address + length - 1) // line_bytes
            lines += last - first + 1
            for line in range(first, last + 1):
                if l1(line, is_write):
                    l1_hits += 1
                elif l2(line, is_write):
                    l2_hits += 1
                elif l3(line, is_write):
                    l3_hits += 1
                else:
                    dram += 1
                    if is_write:
                        write_misses += 1
                    if is_sequential(line):
                        sequential += 1
        stats = self.stats
        stats.accesses += lines
        stats.l1_hits += l1_hits
        stats.l2_hits += l2_hits
        stats.l3_hits += l3_hits
        stats.dram_accesses += dram
        stats.sequential_misses += sequential
        stats.random_misses += dram - sequential
        stats.write_misses += write_misses
        stats.writeback_lines += write_misses  # allocated line eventually written back
        return stats
