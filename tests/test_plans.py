"""Compiled serialization plans: equivalence, caches, pools, traversal.

The plan kernels in :mod:`repro.formats.plans` exist purely for speed —
every observable output (stream bytes, section accounting, work profiles,
rebuilt graphs) must match the preserved interpreter paths exactly. These
tests pin that equivalence over the fuzz corpus and hand-built edge
shapes, and cover the supporting machinery the plans ride on: the plan
cache, the layout-cache counters, the buffer pool, and the slot-run
traversal fast path.
"""

from __future__ import annotations

import pytest

from tests.test_fuzz_roundtrip import build_fuzz_graph, fuzz_registry

from repro.common.bufpool import (
    BufferPool,
    acquire_buffer,
    pool_stats,
    release_buffer,
    reset_pool,
)
from repro.common.errors import FormatError
from repro.formats import (
    CerealSerializer,
    ClassRegistration,
    JavaSerializer,
    KryoSerializer,
)
from repro.formats import plans
from repro.formats.slow_reference import oracle_serializer
from repro.formats.verify import first_difference
from repro.jvm import FieldKind, Heap
from repro.jvm import layout_cache
from repro.jvm.graph import (
    ObjectGraph,
    SlotRunGraph,
    traverse_object_graph,
    traverse_object_graph_bfs,
    traverse_slot_runs,
)

_SEEDS = (1, 2, 3, 4, 5, 6)


def _registration(registry) -> ClassRegistration:
    registration = ClassRegistration()
    for klass in registry:
        registration.register(klass)
    return registration


def _serializer_pairs(registration):
    """(name, production serializer, interpreter-path oracle) triples."""
    return [
        ("java-builtin", JavaSerializer(), JavaSerializer(use_plans=False)),
        (
            "kryo",
            KryoSerializer(registration),
            KryoSerializer(registration, use_plans=False),
        ),
        (
            "cereal",
            CerealSerializer(registration),
            CerealSerializer(registration, use_plans=False),
        ),
        (
            "cereal-stripped",
            CerealSerializer(registration, strip_mark_word=True),
            CerealSerializer(
                registration, strip_mark_word=True, use_plans=False
            ),
        ),
        (
            "cereal-baseline",
            CerealSerializer(registration, use_packing=False),
            CerealSerializer(registration, use_packing=False, use_plans=False),
        ),
    ]


def _assert_profiles_equal(fast, slow, context: str) -> None:
    for field, expected in vars(slow).items():
        assert getattr(fast, field) == expected, (
            f"{context}: profile.{field} diverged"
        )


def _assert_equivalent(root, registry, registration) -> None:
    for name, fast, slow in _serializer_pairs(registration):
        fast_result = fast.serialize(root)
        slow_result = slow.serialize(root)
        assert fast_result.stream.data == slow_result.stream.data, (
            f"{name}: plan path changed the stream bytes"
        )
        assert fast_result.stream.sections == slow_result.stream.sections
        _assert_profiles_equal(
            fast_result.profile, slow_result.profile, f"{name} serialize"
        )
        fast_de = fast.deserialize(
            fast_result.stream, Heap(registry=registry)
        )
        slow_de = slow.deserialize(
            slow_result.stream, Heap(registry=registry)
        )
        assert first_difference(fast_de.root, slow_de.root) is None, (
            f"{name}: plan decode rebuilt a different graph"
        )
        _assert_profiles_equal(
            fast_de.profile, slow_de.profile, f"{name} deserialize"
        )
        # Stripping rewrites identity hashes, so skip round-trip identity.
        if not name.startswith("cereal-stripped"):
            assert first_difference(root, fast_de.root) is None, (
                f"{name}: plan round trip diverged from the original graph"
            )


# -- byte/profile equivalence over the fuzz corpus ---------------------------------


@pytest.mark.parametrize("seed", _SEEDS)
def test_plans_match_interpreters_on_fuzz_corpus(seed):
    registry = fuzz_registry()
    heap = Heap(registry=registry)
    root = build_fuzz_graph(heap, seed)
    _assert_equivalent(root, registry, _registration(registry))


def test_plans_match_interpreters_on_edge_shapes():
    registry = fuzz_registry()
    heap = Heap(registry=registry)

    leaf = heap.new_instance("FuzzLeaf")
    leaf.set("ident", -5)
    leaf.set("weight", 3.25)

    cycle = heap.new_instance("FuzzNode")
    cycle.set("peer", cycle)
    cycle.set("code", 0xFFFF)
    cycle.set("frac", -1.5)

    chain = None
    for index in range(2500):
        node = heap.new_instance("FuzzNode")
        node.set("num", index)
        node.set("peer", chain)
        chain = node

    wide = heap.new_array(FieldKind.LONG, 4000)
    for index in range(0, 4000, 3):
        wide.set_element(index, index * 0x9E3779B9 - 2**40)

    # All-null shapes: an untouched instance (every reference field null,
    # every primitive zero) and a reference array of nothing but nulls —
    # the walks' per-shape profile folds must match the oracles.
    all_null = heap.new_instance("FuzzNode")
    null_array = heap.new_array(FieldKind.REFERENCE, 64)

    roots = [
        leaf,
        cycle,
        chain,
        wide,
        all_null,
        null_array,
        heap.new_array(FieldKind.REFERENCE, 0),
        heap.new_array(FieldKind.BYTE, 0),
    ]
    registration = _registration(registry)  # pick up new array klasses
    for root in roots:
        _assert_equivalent(root, registry, registration)


def test_oracle_serializer_factory():
    registration = _registration(fuzz_registry())
    assert oracle_serializer("java-builtin").use_plans is False
    assert (
        oracle_serializer("kryo", registration=registration).use_plans is False
    )
    assert (
        oracle_serializer("cereal", registration=registration).use_plans
        is False
    )
    with pytest.raises(FormatError):
        oracle_serializer("skyway")


# -- traversal order ---------------------------------------------------------------


def _reference_dfs(root):
    """Recursive DFS: object before children, children in slot order."""
    visited = set()
    order = []

    def visit(obj):
        if obj.address in visited:
            return
        visited.add(obj.address)
        order.append(obj.address)
        for child in obj.referenced_objects():
            if child is not None:
                visit(child)

    visit(root)
    return order


def _shared_cyclic_graph():
    """Diamond sharing plus a cycle back to the root."""
    registry = fuzz_registry()
    heap = Heap(registry=registry)
    shared = heap.new_instance("FuzzLeaf")
    left = heap.new_instance("FuzzNode")
    right = heap.new_instance("FuzzNode")
    root = heap.new_instance("FuzzNode")
    left.set("peer", shared)
    right.set("peer", shared)
    right.set("data", root)  # cycle back up
    root.set("label", left)
    root.set("peer", right)
    root.set("data", left)  # duplicate edge to an already-pushed child
    return root


def test_traversal_order_matches_recursive_dfs_on_shared_cyclic_graph():
    root = _shared_cyclic_graph()
    expected = _reference_dfs(root)
    assert [o.address for o in traverse_object_graph(root)] == expected


@pytest.mark.parametrize("seed", _SEEDS[:3])
def test_traversal_order_matches_recursive_dfs_on_fuzz_graphs(seed):
    heap = Heap(registry=fuzz_registry())
    root = build_fuzz_graph(heap, seed)
    assert [o.address for o in traverse_object_graph(root)] == _reference_dfs(
        root
    )


@pytest.mark.parametrize("order", ["dfs", "bfs"])
def test_slot_run_traversal_matches_object_traversal(order):
    heap = Heap(registry=fuzz_registry())
    root = build_fuzz_graph(heap, 3)
    baseline = (
        traverse_object_graph(root)
        if order == "dfs"
        else traverse_object_graph_bfs(root)
    )
    expected = [o.address for o in baseline]
    runs = list(traverse_slot_runs(root, order=order))
    assert [o.address for o, _ in runs] == expected
    for obj, layout in runs:
        assert layout.total_slots * 8 == obj.size_bytes


def test_slot_run_graph_matches_object_graph():
    heap = Heap(registry=fuzz_registry())
    root = build_fuzz_graph(heap, 4)
    slow = ObjectGraph.from_root(root, order="bfs")
    fast = SlotRunGraph.from_root(root, order="bfs")
    assert [o.address for o in fast.objects] == [
        o.address for o in slow.objects
    ]
    assert fast.relative_address == slow.relative_address
    assert fast.total_bytes == slow.total_bytes
    assert fast.object_count == slow.object_count
    with pytest.raises(ValueError):
        SlotRunGraph.from_root(root, order="spiral")


# -- plan cache --------------------------------------------------------------------


def test_plan_cache_warm_hit_rate():
    plans.reset_plan_cache()
    registry = fuzz_registry()
    heap = Heap(registry=registry)
    root = build_fuzz_graph(heap, 2)
    serializer = JavaSerializer()
    serializer.serialize(root)
    cold = plans.plan_cache_stats()
    assert cold["misses"] > 0
    assert cold["entries"] == cold["misses"]
    serializer.serialize(root)
    warm = plans.plan_cache_stats()
    assert warm["misses"] == cold["misses"], "second run recompiled plans"
    assert warm["hits"] > cold["hits"]
    assert warm["hit_rate"] > 0.0
    plans.reset_plan_cache()
    assert plans.plan_cache_stats() == {
        "hits": 0,
        "misses": 0,
        "evictions": 0,
        "entries": 0,
        "hit_rate": 0.0,
    }


def test_plan_cache_shared_across_serializer_instances():
    plans.reset_plan_cache()
    registry = fuzz_registry()
    heap = Heap(registry=registry)
    root = build_fuzz_graph(heap, 5)
    JavaSerializer().serialize(root)
    after_first = plans.plan_cache_stats()["misses"]
    JavaSerializer().serialize(root)  # a *different* instance, same shapes
    assert plans.plan_cache_stats()["misses"] == after_first


def test_bitmap_reference_slots_memoized():
    plans.reset_plan_cache()
    assert plans.bitmap_reference_slots(0b10100, 5) == (0, 2)
    misses = plans.plan_cache_stats()["misses"]
    assert plans.bitmap_reference_slots(0b10100, 5) == (0, 2)
    stats = plans.plan_cache_stats()
    assert stats["misses"] == misses
    assert stats["hits"] >= 1
    assert plans.bitmap_reference_slots(0, 7) == ()


# -- layout cache counters ---------------------------------------------------------


def test_layout_cache_stats_warm_hit_rate():
    layout_cache.clear_layout_cache(reset_stats=True)
    registry = fuzz_registry()
    heap = Heap(registry=registry)
    root = build_fuzz_graph(heap, 6)
    CerealSerializer(_registration(registry)).serialize(root)
    cold = layout_cache.stats()
    assert cold["misses"] == cold["entries"] > 0
    before_hits = cold["hits"]
    CerealSerializer(_registration(registry)).serialize(root)
    warm = layout_cache.stats()
    assert warm["misses"] == cold["misses"]
    assert warm["hits"] > before_hits
    assert warm["hit_rate"] > 0.9, "warm serialize should be nearly all hits"
    layout_cache.clear_layout_cache(reset_stats=True)
    assert layout_cache.stats()["hits"] == 0


# -- buffer pool -------------------------------------------------------------------


def test_buffer_pool_reuses_arenas():
    pool = BufferPool(max_arenas=2)
    first = pool.acquire()
    first += b"x" * 100
    pool.release(first)
    second = pool.acquire()
    assert second is first, "arena should be recycled"
    assert len(second) == 0, "recycled arena must come back empty"
    stats = pool.stats()
    assert stats["acquires"] == 2
    assert stats["reuses"] == 1
    assert stats["high_water_mark_bytes"] == 100
    assert stats["reuse_rate"] == 0.5


def test_buffer_pool_bounds_free_list():
    pool = BufferPool(max_arenas=1)
    a, b = pool.acquire(), pool.acquire()
    pool.release(a)
    pool.release(b)  # over the cap: dropped, not pooled
    assert len(pool) == 1
    assert pool.stats()["pooled_arenas"] == 1


def test_global_pool_helpers():
    reset_pool()
    arena = acquire_buffer()
    arena += b"payload"
    release_buffer(arena)
    stats = pool_stats()
    assert stats["releases"] == 1
    assert stats["high_water_mark_bytes"] == 7
    again = acquire_buffer()
    assert pool_stats()["reuses"] == 1
    release_buffer(again)
    reset_pool()
    assert pool_stats()["acquires"] == 0


# -- service report plumbing -------------------------------------------------------


def test_slo_report_carries_runtime_cache_stats():
    from repro.service import (
        PoissonWorkload,
        SerializationServer,
        ServiceCatalog,
        ServiceConfig,
    )

    catalog = ServiceCatalog()
    workload = PoissonWorkload(qps=50_000.0, num_requests=50, seed=7)
    server = SerializationServer(
        catalog, ServiceConfig(num_shards=1, functional="off")
    )
    report = server.run(workload.generate(catalog))
    caches = report.runtime_caches
    assert caches is not None
    assert set(caches) == {
        "plan_cache",
        "layout_cache",
        "buffer_pool",
        "secure_decode",
    }
    summary = report.as_dict()
    assert summary["runtime_caches"]["plan_cache"]["hit_rate"] >= 0.0
    rendered = report.to_table().render()
    assert "plan hit rate" in rendered
    assert "layout hit rate" in rendered
