"""Seeded cross-format round-trip fuzz.

Complements the hypothesis-based property test (random class *shapes*)
with a fixed-schema, seeded fuzzer that stresses the graph features the
shapes test does not reach: char-array strings, primitive arrays of every
width (including empty ones), reference arrays with null holes, shared
objects, and dense cyclic wiring. Every generated graph must round-trip
structurally identically through all four registered formats.
"""

from __future__ import annotations

import pytest

from repro.formats import (
    CerealSerializer,
    ClassRegistration,
    JavaSerializer,
    KryoSerializer,
    SkywaySerializer,
)
from repro.formats.verify import first_difference
from repro.jvm import FieldDescriptor, FieldKind, Heap, InstanceKlass, KlassRegistry
from repro.jvm.strings import new_string
from repro.workloads.datagen import DeterministicRandom

_SEEDS = tuple(range(1, 13))

_PRIMITIVE_ARRAY_KINDS = (
    FieldKind.BYTE,
    FieldKind.SHORT,
    FieldKind.INT,
    FieldKind.LONG,
    FieldKind.DOUBLE,
)

_RANGES = {
    FieldKind.BYTE: (-128, 127),
    FieldKind.SHORT: (-32768, 32767),
    FieldKind.INT: (-(2**31), 2**31 - 1),
    FieldKind.LONG: (-(2**62), 2**62 - 1),
}


def fuzz_registry() -> KlassRegistry:
    registry = KlassRegistry()
    registry.register(
        InstanceKlass(
            "FuzzNode",
            [
                FieldDescriptor("flag", FieldKind.BOOLEAN),
                FieldDescriptor("tag", FieldKind.BYTE),
                FieldDescriptor("code", FieldKind.CHAR),
                FieldDescriptor("num", FieldKind.INT),
                FieldDescriptor("big", FieldKind.LONG),
                FieldDescriptor("ratio", FieldKind.DOUBLE),
                FieldDescriptor("frac", FieldKind.FLOAT),
                FieldDescriptor("label", FieldKind.REFERENCE),
                FieldDescriptor("peer", FieldKind.REFERENCE),
                FieldDescriptor("data", FieldKind.REFERENCE),
            ],
        )
    )
    registry.register(
        InstanceKlass(
            "FuzzLeaf",
            [
                FieldDescriptor("ident", FieldKind.LONG),
                FieldDescriptor("weight", FieldKind.DOUBLE),
            ],
        )
    )
    return registry


def _fill_primitives(node, rng: DeterministicRandom) -> None:
    node.set("flag", rng.random() < 0.5)
    node.set("tag", rng.randint(*_RANGES[FieldKind.BYTE]))
    node.set("code", rng.randint(0, 0xFFFF))
    node.set("num", rng.randint(*_RANGES[FieldKind.INT]))
    node.set("big", rng.randint(*_RANGES[FieldKind.LONG]))
    node.set("ratio", rng.random() * 2e6 - 1e6)
    # FLOAT packs to 4 bytes in the compact formats; small integers are
    # exactly representable so the round trip must be value-exact.
    node.set("frac", float(rng.randint(-1000, 1000)))


def build_fuzz_graph(heap: Heap, seed: int):
    """Random graph with strings, arrays, nulls, sharing, and cycles.

    Beyond the base population, every graph carries the stress shapes the
    compiled-plan kernels special-case: a deep ``peer`` chain (frame-stack
    depth, handle back-reference runs), a wide primitive array (the bulk
    element copy path), and an all-null reference array.

    Returns a reference array rooting *every* created object so one
    serialize call must cover the whole population.
    """
    rng = DeterministicRandom(seed=seed * 0x9E37 + 1)
    nodes = []
    for _ in range(rng.randint(12, 28)):
        if rng.random() < 0.7:
            node = heap.new_instance("FuzzNode")
            _fill_primitives(node, rng)
        else:
            node = heap.new_instance("FuzzLeaf")
            node.set("ident", rng.randint(*_RANGES[FieldKind.LONG]))
            node.set("weight", rng.gauss_like())
        nodes.append(node)

    # Deep chain: each node's ``peer`` points at the previous one. Chain
    # nodes keep their peer through the wiring pass below so the chain
    # depth survives into the serialized graph.
    chain_head = None
    chain_addresses = set()
    for _ in range(rng.randint(60, 160)):
        node = heap.new_instance("FuzzNode")
        _fill_primitives(node, rng)
        node.set("peer", chain_head)
        chain_head = node
        chain_addresses.add(node.address)
        nodes.append(node)

    arrays = []
    for _ in range(rng.randint(3, 7)):
        kind = _PRIMITIVE_ARRAY_KINDS[
            rng.randint(0, len(_PRIMITIVE_ARRAY_KINDS) - 1)
        ]
        length = rng.randint(0, 24)  # empty arrays included on purpose
        array = heap.new_array(kind, length)
        low, high = _RANGES.get(kind, (0, 0))
        for index in range(length):
            if kind is FieldKind.DOUBLE:
                array.set_element(index, rng.random() * 100.0)
            else:
                array.set_element(index, rng.randint(low, high))
        arrays.append(array)
    # Wide primitive array: long bulk element runs.
    wide_kind = _PRIMITIVE_ARRAY_KINDS[
        rng.randint(0, len(_PRIMITIVE_ARRAY_KINDS) - 1)
    ]
    wide = heap.new_array(wide_kind, rng.randint(200, 500))
    low, high = _RANGES.get(wide_kind, (0, 0))
    for index in range(wide.length):
        if wide_kind is FieldKind.DOUBLE:
            wide.set_element(index, rng.random() * 1e9 - 5e8)
        else:
            wide.set_element(index, rng.randint(low, high))
    arrays.append(wide)
    for _ in range(rng.randint(1, 3)):
        arrays.append(new_string(heap, rng.ascii_string(rng.randint(0, 40))))

    ref_arrays = []
    # All-null reference array: a run of TC_NULL/MARK_NULL with no targets.
    ref_arrays.append(heap.new_array(FieldKind.REFERENCE, rng.randint(1, 8)))
    population = nodes + arrays
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(0, 10)
        array = heap.new_array(FieldKind.REFERENCE, length)
        for index in range(length):
            if rng.random() < 0.25:
                continue  # null hole
            array.set_element(index, rng.choice(population))
        ref_arrays.append(array)

    # Wire instance references: nulls, shared targets, and cycles (any
    # object may point at any other, including itself).
    everything = population + ref_arrays
    for node in nodes:
        if node.klass.name != "FuzzNode":
            continue
        node.set("label", None if rng.random() < 0.4 else rng.choice(arrays))
        if node.address not in chain_addresses:
            node.set("peer", None if rng.random() < 0.3 else rng.choice(everything))
        node.set("data", None if rng.random() < 0.3 else rng.choice(ref_arrays))

    root = heap.new_array(FieldKind.REFERENCE, len(everything))
    for index, obj in enumerate(everything):
        root.set_element(index, obj)
    return root


def _make_serializers(registry: KlassRegistry):
    registration = ClassRegistration()
    for klass in registry:
        registration.register(klass)
    return {
        "java-builtin": JavaSerializer(),
        "kryo": KryoSerializer(registration),
        "skyway": SkywaySerializer(registration),
        "cereal": CerealSerializer(registration),
    }


@pytest.mark.parametrize("seed", _SEEDS)
def test_fuzz_graph_roundtrips_all_formats(seed):
    registry = fuzz_registry()
    heap = Heap(registry=registry)
    root = build_fuzz_graph(heap, seed)
    # Serializers are built after the graph so every array klass created
    # on the fly is already registered.
    for name, serializer in _make_serializers(registry).items():
        result = serializer.serialize(root)
        receiver = Heap(registry=registry)
        rebuilt = serializer.deserialize(result.stream, receiver).root
        difference = first_difference(root, rebuilt)
        assert difference is None, f"{name} (seed {seed}): {difference}"


@pytest.mark.parametrize("seed", _SEEDS[:3])
def test_fuzz_graph_double_roundtrip_stable(seed):
    """Ser -> de -> ser -> de must still match the original graph."""
    registry = fuzz_registry()
    heap = Heap(registry=registry)
    root = build_fuzz_graph(heap, seed)
    for name, serializer in _make_serializers(registry).items():
        first = serializer.deserialize(
            serializer.serialize(root).stream, Heap(registry=registry)
        ).root
        second = serializer.deserialize(
            serializer.serialize(first).stream, Heap(registry=registry)
        ).root
        difference = first_difference(root, second)
        assert difference is None, f"{name} (seed {seed}): {difference}"


def test_fuzz_generator_is_deterministic():
    registry_a, registry_b = fuzz_registry(), fuzz_registry()
    root_a = build_fuzz_graph(Heap(registry=registry_a), 5)
    root_b = build_fuzz_graph(Heap(registry=registry_b), 5)
    assert first_difference(root_a, root_b) is None
