"""Tests for the CPU cost model: caches, core model, harness."""

import dataclasses
import random
from collections import OrderedDict

import pytest

from repro.common.config import HostCPUConfig, SystemConfig
from repro.cpu import CacheHierarchy, CPUCostModel, SoftwarePlatform
from repro.cpu.cache import CacheStats
from repro.formats.base import WorkProfile
from repro.jvm import Heap
from repro.memory.trace import AccessKind, MemoryAccess
from tests.test_format_stability import (
    _golden_registry,
    _make_serializer,
    build_golden_graph,
)
from tests.test_serializers import build_tree, make_registry, make_serializer


def reads(addresses, length=8):
    return [MemoryAccess(AccessKind.READ, a, length) for a in addresses]


class TestCacheHierarchy:
    def test_repeat_access_hits_l1(self):
        cache = CacheHierarchy()
        cache.replay(reads([0x100, 0x100, 0x100]))
        assert cache.stats.l1_hits == 2
        assert cache.stats.dram_accesses == 1

    def test_l1_capacity_spill_to_l2(self):
        host = HostCPUConfig()
        cache = CacheHierarchy(host)
        lines = host.l1.size_bytes // 64 * 2  # twice L1 capacity
        addresses = [i * 64 for i in range(lines)]
        cache.replay(reads(addresses))
        cache.replay(reads(addresses))  # second pass: L1 misses, L2 hits
        assert cache.stats.l2_hits > 0

    def test_sequential_misses_classified_prefetchable(self):
        cache = CacheHierarchy()
        cache.replay(reads([i * 64 for i in range(100)]))
        assert cache.stats.sequential_misses > 90
        assert cache.stats.random_misses <= 10

    def test_random_misses_classified_random(self):
        cache = CacheHierarchy()
        addresses = [(i * 7919 * 64) % (1 << 30) for i in range(200)]
        cache.replay(reads(addresses))
        assert cache.stats.random_misses > cache.stats.sequential_misses

    def test_write_misses_counted_with_writeback(self):
        cache = CacheHierarchy()
        cache.replay([MemoryAccess(AccessKind.WRITE, i * 64, 64) for i in range(10)])
        assert cache.stats.write_misses == 10
        assert cache.stats.dram_bytes() == 10 * 2 * 64  # fill + writeback

    def test_zero_length_access_touches_nothing(self):
        cache = CacheHierarchy()
        stats = cache.replay(
            [MemoryAccess(AccessKind.READ, 0x101, 0), MemoryAccess(AccessKind.WRITE, 0x140, 0)]
        )
        assert stats == CacheStats()

    def test_llc_miss_rate_bounds(self):
        cache = CacheHierarchy()
        cache.replay(reads([i * 64 for i in range(50)]))
        assert 0.0 <= cache.stats.llc_miss_rate <= 1.0


class _ReferenceHierarchy:
    """Executable spec of the cache model: one eager ``OrderedDict`` per set."""

    def __init__(self, host):
        self.line_bytes = host.l1.line_bytes
        self.levels = [
            (level.num_sets, level.associativity, [OrderedDict() for _ in range(level.num_sets)])
            for level in (host.l1, host.l2, host.l3)
        ]
        self.recent = OrderedDict()
        self.stats = CacheStats()

    @staticmethod
    def _level_access(level, line, is_write):
        num_sets, assoc, sets = level
        ways = sets[line % num_sets]
        if line in ways:
            ways.move_to_end(line)
            if is_write:
                ways[line] = True
            return True
        ways[line] = is_write
        if len(ways) > assoc:
            ways.popitem(last=False)
        return False

    def _access_line(self, line, is_write):
        stats = self.stats
        stats.accesses += 1
        for level, counter in zip(self.levels, ("l1_hits", "l2_hits", "l3_hits")):
            if self._level_access(level, line, is_write):
                setattr(stats, counter, getattr(stats, counter) + 1)
                return
        stats.dram_accesses += 1
        if is_write:
            stats.write_misses += 1
            stats.writeback_lines += 1
        sequential = (line - 1) in self.recent or (line - 2) in self.recent
        self.recent[line] = None
        if len(self.recent) > 64:
            self.recent.popitem(last=False)
        if sequential:
            stats.sequential_misses += 1
        else:
            stats.random_misses += 1

    def replay(self, accesses):
        for access in accesses:
            first = access.address // self.line_bytes
            last = (access.address + access.length - 1) // self.line_bytes
            for line in range(first, last + 1):
                self._access_line(line, access.kind is AccessKind.WRITE)
        return self.stats


def _random_trace(host, seed, length=4000):
    """Seeded mix of hot reuse, multi-line spans, writes, per-level set
    conflicts past the associativity, and prefetchable sequential runs."""
    rng = random.Random(seed)
    line = host.l1.line_bytes
    trace = []

    def emit(address, nbytes):
        kind = AccessKind.WRITE if rng.random() < 0.3 else AccessKind.READ
        trace.append(MemoryAccess(kind, address, nbytes))

    while len(trace) < length:
        shape = rng.randrange(5)
        if shape == 0:  # hot reuse of a small region
            for _ in range(rng.randint(5, 40)):
                emit(rng.randrange(0, 16 * line), rng.choice((1, 4, 8)))
        elif shape == 1:  # multi-line, unaligned spans
            for _ in range(rng.randint(1, 10)):
                emit(rng.randrange(0, 1 << 26), rng.randint(1, 5 * line))
        elif shape == 2:  # set conflicts past the ways of one level
            level = rng.choice((host.l1, host.l2, host.l3))
            stride = level.num_sets * line
            base = rng.randrange(0, level.num_sets) * line
            conflicting = [base + i * stride for i in range(level.associativity + 3)]
            for _ in range(2):
                for address in conflicting:
                    emit(address + rng.randrange(line), 8)
        elif shape == 3:  # sequential runs, line by line or every other line
            step = rng.choice((1, 2))
            base = rng.randrange(0, 1 << 30) // line * line
            for i in range(rng.randint(4, 80)):
                emit(base + i * step * line, line)
        else:  # scattered random reads and writes
            for _ in range(rng.randint(1, 30)):
                emit(rng.randrange(0, 1 << 32), 8)
    return trace


class TestCacheDifferential:
    """``CacheHierarchy`` agrees with the eager-set reference, field by field."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("scale", [1, 100])
    def test_matches_reference(self, seed, scale):
        host = HostCPUConfig() if scale == 1 else HostCPUConfig().scaled_caches(scale)
        trace = _random_trace(host, seed)
        reference = _ReferenceHierarchy(host)
        cache = CacheHierarchy(host)
        half = len(trace) // 2
        for part in (trace[:half], trace[half:]):  # state carries across calls
            expected = dataclasses.asdict(reference.replay(part))
            assert dataclasses.asdict(cache.replay(part)) == expected
        stats = cache.stats
        assert stats.l1_hits and stats.l2_hits and stats.l3_hits
        assert stats.sequential_misses and stats.random_misses and stats.write_misses


# Recorded from the eager-set cache model: (cycles, instructions, llc_misses,
# dram_bytes, random_miss_cycles, stream_cycles) per (format, op) on the
# golden graph with the default host.
GOLDEN_TIMING = {
    ("java", "serialize"): (20036.070588235292, 33331, 10, 896, 345.6, 84.0),
    ("java", "deserialize"): (74427.27731092437, 125859, 10, 832, 308.5714285714286, 84.0),
    ("kryo", "serialize"): (7930.352941176471, 12941, 7, 512, 270.0, 48.0),
    ("kryo", "deserialize"): (1443.0588235294117, 2086, 6, 576, 180.0, 36.0),
    ("skyway", "serialize"): (3953.1764705882356, 6394, 8, 704, 144.0, 48.0),
    ("skyway", "deserialize"): (4217.882352941177, 6844, 6, 576, 144.0, 48.0),
}
_GOLDEN_FIELDS = (
    "cycles",
    "instructions",
    "llc_misses",
    "dram_bytes",
    "random_miss_cycles",
    "stream_cycles",
)


@pytest.mark.parametrize("kind", ["java", "kryo", "skyway"])
def test_golden_cpu_timing(kind):
    registry = _golden_registry()
    heap = Heap(registry=registry)
    root = build_golden_graph(heap)
    serializer = _make_serializer(kind, registry)
    platform = SoftwarePlatform()
    result, ser_run = platform.run_serialize(serializer, root)
    _, deser_run = platform.run_deserialize(
        serializer, result.stream, Heap(registry=registry)
    )
    for op, timing in (("serialize", ser_run.timing), ("deserialize", deser_run.timing)):
        observed = tuple(getattr(timing, name) for name in _GOLDEN_FIELDS)
        assert observed == GOLDEN_TIMING[(kind, op)], (kind, op)


class TestCoreModel:
    def make_stats(self, random_misses=0, sequential=0, l2=0, l3=0):
        stats = CacheStats()
        stats.random_misses = random_misses
        stats.sequential_misses = sequential
        stats.dram_accesses = random_misses + sequential
        stats.l2_hits = l2
        stats.l3_hits = l3
        stats.accesses = stats.dram_accesses + l2 + l3
        return stats

    def test_compute_bound_when_no_misses(self):
        model = CPUCostModel()
        profile = WorkProfile(instructions=170_000)
        result = model.estimate(profile, self.make_stats())
        assert result.ipc == pytest.approx(model.host.base_ipc, rel=0.01)

    def test_random_misses_add_serialized_stalls(self):
        model = CPUCostModel()
        profile = WorkProfile(instructions=1000, mlp=1.0)
        with_misses = model.estimate(profile, self.make_stats(random_misses=100))
        without = model.estimate(profile, self.make_stats())
        stall = with_misses.cycles - without.cycles
        expected = 100 * model.dram.zero_load_latency_ns * model.host.clock_ghz
        assert stall == pytest.approx(expected, rel=0.01)

    def test_higher_mlp_reduces_stalls(self):
        model = CPUCostModel()
        low = model.estimate(
            WorkProfile(instructions=1000, mlp=1.0), self.make_stats(random_misses=50)
        )
        high = model.estimate(
            WorkProfile(instructions=1000, mlp=4.0), self.make_stats(random_misses=50)
        )
        assert high.cycles < low.cycles

    def test_mlp_clamped_to_mshr_limit(self):
        model = CPUCostModel()
        result = model.estimate(
            WorkProfile(instructions=10, mlp=1000.0), self.make_stats(random_misses=10)
        )
        assert result.effective_mlp == model.host.max_outstanding_misses

    def test_sequential_misses_bandwidth_bound(self):
        model = CPUCostModel()
        seq = model.estimate(
            WorkProfile(instructions=10, mlp=1.0), self.make_stats(sequential=1000)
        )
        rnd = model.estimate(
            WorkProfile(instructions=10, mlp=1.0), self.make_stats(random_misses=1000)
        )
        assert seq.cycles < rnd.cycles  # prefetched streams are cheaper

    def test_bandwidth_utilization_bounded(self):
        model = CPUCostModel()
        result = model.estimate(
            WorkProfile(instructions=100, mlp=10.0),
            self.make_stats(sequential=10_000),
        )
        assert 0.0 < result.bandwidth_utilization <= 1.0


class TestSoftwarePlatform:
    @pytest.fixture
    def registry(self):
        return make_registry()

    def test_java_slower_than_kryo(self, registry):
        platform = SoftwarePlatform()
        heap = Heap(registry=registry)
        receiver = Heap(registry=registry)
        root = build_tree(heap, depth=8)
        java_ser, java_de = platform.round_trip_timings(
            make_serializer("java", registry), root, receiver
        )
        heap2 = Heap(registry=registry)
        receiver2 = Heap(registry=registry)
        root2 = build_tree(heap2, depth=8)
        kryo_ser, kryo_de = platform.round_trip_timings(
            make_serializer("kryo", registry), root2, receiver2
        )
        assert java_ser.time_ns > kryo_ser.time_ns
        assert java_de.time_ns > kryo_de.time_ns

    def test_paper_ratio_shapes_hold(self, registry):
        """Figure 10 shape on a scaled tree: Kryo ~2-3x ser, tens-of-x deser."""
        host = HostCPUConfig().scaled_caches(100)
        platform = SoftwarePlatform(SystemConfig(host=host))
        heap = Heap(registry=registry)
        receiver = Heap(registry=registry)
        root = build_tree(heap, depth=10)
        j_ser, j_de = platform.round_trip_timings(
            make_serializer("java", registry), root, receiver
        )
        heap2 = Heap(registry=registry)
        receiver2 = Heap(registry=registry)
        root2 = build_tree(heap2, depth=10)
        k_ser, k_de = platform.round_trip_timings(
            make_serializer("kryo", registry), root2, receiver2
        )
        assert 1.5 < j_ser.time_ns / k_ser.time_ns < 4.0
        assert 20 < j_de.time_ns / k_de.time_ns < 100

    def test_ipc_is_low_for_serialization(self, registry):
        """Figure 3a: S/D code runs at IPC around 1 on the 4-wide host."""
        platform = SoftwarePlatform()
        heap = Heap(registry=registry)
        root = build_tree(heap, depth=8)
        _, run = platform.run_serialize(make_serializer("java", registry), root)
        assert run.timing.ipc < 2.0

    def test_bandwidth_utilization_single_digit(self, registry):
        """Figure 3c: software serializers use a tiny bandwidth fraction."""
        platform = SoftwarePlatform()
        heap = Heap(registry=registry)
        root = build_tree(heap, depth=8)
        _, run = platform.run_serialize(make_serializer("java", registry), root)
        assert run.timing.bandwidth_utilization < 0.10

    def test_trace_restored_after_run(self, registry):
        platform = SoftwarePlatform()
        heap = Heap(registry=registry)
        root = build_tree(heap, depth=3)
        assert heap.memory.trace is None
        platform.run_serialize(make_serializer("java", registry), root)
        assert heap.memory.trace is None

    def test_functional_result_still_correct(self, registry):
        platform = SoftwarePlatform()
        heap = Heap(registry=registry)
        receiver = Heap(registry=registry)
        root = build_tree(heap, depth=4)
        serializer = make_serializer("kryo", registry)
        result, _ = platform.run_serialize(serializer, root)
        deser, _ = platform.run_deserialize(serializer, result.stream, receiver)
        from repro.formats import graphs_equivalent

        assert graphs_equivalent(root, deser.root)
