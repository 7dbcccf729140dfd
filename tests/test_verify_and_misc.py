"""Coverage for the graph-equivalence verifier and small API surfaces."""

import math

import pytest

from repro.cereal.accelerator import OperationTiming
from repro.common.errors import HeapError
from repro.formats.verify import _images_match, first_difference, graphs_equivalent
from repro.jvm import (
    FieldDescriptor,
    FieldKind,
    Heap,
    InstanceKlass,
    KlassRegistry,
)
from repro.jvm.klass import ArrayKlass


def make_registry():
    registry = KlassRegistry()
    registry.register(
        InstanceKlass(
            "Box",
            [
                FieldDescriptor("weight", FieldKind.DOUBLE),
                FieldDescriptor("inner", FieldKind.REFERENCE),
            ],
        )
    )
    registry.register(InstanceKlass("Tag", [FieldDescriptor("id", FieldKind.INT)]))
    registry.array_klass(FieldKind.REFERENCE)
    registry.array_klass(FieldKind.DOUBLE)
    return registry


@pytest.fixture
def heap():
    return Heap(registry=make_registry())


class TestFirstDifference:
    def test_identical_singletons(self, heap):
        a = heap.new_instance("Tag")
        b = heap.new_instance("Tag")
        assert first_difference(a, b) is None

    def test_klass_mismatch_reported(self, heap):
        a = heap.new_instance("Box")
        b = heap.new_instance("Tag")
        difference = first_difference(a, b)
        assert "klass" in difference
        assert "Box" in difference and "Tag" in difference

    def test_field_path_in_report(self, heap):
        a = heap.new_instance("Box")
        b = heap.new_instance("Box")
        a.set("weight", 1.0)
        b.set("weight", 2.0)
        assert "root.weight" in first_difference(a, b)

    def test_nested_path_in_report(self, heap):
        a = heap.new_instance("Box")
        b = heap.new_instance("Box")
        inner_a = heap.new_instance("Tag")
        inner_b = heap.new_instance("Tag")
        inner_a.set("id", 1)
        inner_b.set("id", 2)
        a.set("inner", inner_a)
        b.set("inner", inner_b)
        assert "root.inner.id" in first_difference(a, b)

    def test_array_length_mismatch(self, heap):
        a = heap.new_array(FieldKind.DOUBLE, 2)
        b = heap.new_array(FieldKind.DOUBLE, 3)
        assert "length" in first_difference(a, b)

    def test_array_element_path(self, heap):
        a = heap.new_array(FieldKind.DOUBLE, 2)
        b = heap.new_array(FieldKind.DOUBLE, 2)
        b.set_element(1, 5.0)
        assert "[1]" in first_difference(a, b)

    def test_null_vs_object(self, heap):
        a = heap.new_instance("Box")
        b = heap.new_instance("Box")
        b.set("inner", heap.new_instance("Tag"))
        assert "null" in first_difference(a, b)

    def test_nan_values_equivalent(self, heap):
        a = heap.new_instance("Box")
        b = heap.new_instance("Box")
        a.set("weight", math.nan)
        b.set("weight", math.nan)
        assert graphs_equivalent(a, b)

    def test_float_tolerance(self, heap):
        a = heap.new_instance("Box")
        b = heap.new_instance("Box")
        a.set("weight", 1.0)
        b.set("weight", 1.0 + 1e-9)
        assert graphs_equivalent(a, b)

    def test_self_reference_equivalent(self, heap):
        a = heap.new_instance("Box")
        a.set("inner", a)
        b = heap.new_instance("Box")
        b.set("inner", b)
        assert graphs_equivalent(a, b)

    def test_self_vs_two_cycle_differs(self, heap):
        a = heap.new_instance("Box")
        a.set("inner", a)  # 1-cycle
        b1 = heap.new_instance("Box")
        b2 = heap.new_instance("Box")
        b1.set("inner", b2)
        b2.set("inner", b1)  # 2-cycle
        assert not graphs_equivalent(a, b1)


class TestOperationTiming:
    def make(self, elapsed=1000.0, graph=64_000):
        return OperationTiming(
            kind="serialize",
            elapsed_ns=elapsed,
            graph_bytes=graph,
            stream_bytes=graph // 2,
            dram_bytes=graph * 2,
            bandwidth_utilization=0.25,
            objects=10,
        )

    def test_elapsed_seconds(self):
        assert self.make(elapsed=2e9).elapsed_seconds == pytest.approx(2.0)

    def test_throughput(self):
        timing = self.make(elapsed=1000.0, graph=64_000)
        assert timing.throughput_bytes_per_sec == pytest.approx(64e9)

    def test_zero_elapsed_throughput(self):
        assert self.make(elapsed=0.0).throughput_bytes_per_sec == 0.0


class TestHeapWalk:
    def test_allocation_order_preserved(self, heap):
        first = heap.new_instance("Tag")
        second = heap.new_instance("Box")
        third = heap.new_array(FieldKind.DOUBLE, 1)
        walked = list(heap.objects())
        assert walked == [first, second, third]

    def test_register_object_duplicate_rejected(self, heap):
        from repro.common.errors import HeapError

        obj = heap.new_instance("Tag")
        with pytest.raises(HeapError):
            heap.register_object(obj.address, obj.klass)

    def test_used_bytes_monotone(self, heap):
        before = heap.used_bytes
        heap.new_instance("Tag")
        assert heap.used_bytes > before


# -- differential: the image pass + slot-walk fallback vs the plain walk ------------


def _reference_values_match(kind, a, b):
    if kind in (FieldKind.FLOAT, FieldKind.DOUBLE):
        fa, fb = float(a), float(b)
        if math.isnan(fa) and math.isnan(fb):
            return True
        return math.isclose(fa, fb, rel_tol=1e-6, abs_tol=1e-12)
    return a == b


def _reference_first_difference(root_a, root_b):
    """The per-slot walk as it stood before the image pass, kept verbatim
    as the oracle the two-pass verifier must agree with."""
    mapping = {}
    reverse = {}
    worklist = [(root_a, root_b, "root")]

    while worklist:
        a, b, path = worklist.pop()
        if a.address in mapping:
            if mapping[a.address] != b.address:
                return f"{path}: sharing mismatch (A maps elsewhere)"
            continue
        if b.address in reverse:
            return f"{path}: sharing mismatch (B already mapped)"
        mapping[a.address] = b.address
        reverse[b.address] = a.address

        if a.klass.name != b.klass.name:
            return f"{path}: klass {a.klass.name} != {b.klass.name}"
        if isinstance(a.klass, ArrayKlass):
            if a.length != b.length:
                return f"{path}: array length {a.length} != {b.length}"
            kind = a.klass.element_kind
            for index in range(a.length):
                element_path = f"{path}[{index}]"
                va, vb = a.get_element(index), b.get_element(index)
                if kind.is_reference:
                    if (va is None) != (vb is None):
                        return f"{element_path}: null mismatch"
                    if va is not None:
                        worklist.append((va, vb, element_path))
                elif not _reference_values_match(kind, va, vb):
                    return f"{element_path}: {va!r} != {vb!r}"
        else:
            for descriptor in a.klass.fields:
                field_path = f"{path}.{descriptor.name}"
                va, vb = a.get(descriptor.name), b.get(descriptor.name)
                if descriptor.kind.is_reference:
                    if (va is None) != (vb is None):
                        return f"{field_path}: null mismatch"
                    if va is not None:
                        worklist.append((va, vb, field_path))
                elif not _reference_values_match(descriptor.kind, va, vb):
                    return f"{field_path}: {va!r} != {vb!r}"
    return None


def _outcome(compare, a, b):
    """A comparison's answer, or the typed error it raised."""
    try:
        return ("answer", compare(a, b))
    except HeapError as error:
        return ("raised", type(error), str(error))


def assert_agrees(a, b):
    """Both verifier entry points give exactly the reference's answer."""
    expected = _outcome(_reference_first_difference, a, b)
    assert _outcome(first_difference, a, b) == expected
    equivalent = _outcome(graphs_equivalent, a, b)
    if expected[0] == "answer":
        assert equivalent == ("answer", expected[1] is None)
    else:
        assert equivalent == expected
    return expected[1] if expected[0] == "answer" else expected


def _fuzz_copy(seed, serializer_name="cereal"):
    from tests.test_fuzz_roundtrip import (
        _make_serializers,
        build_fuzz_graph,
        fuzz_registry,
    )

    registry = fuzz_registry()
    root = build_fuzz_graph(Heap(registry=registry), seed)
    serializer = _make_serializers(registry)[serializer_name]
    receiver = Heap(registry=registry)
    copy = serializer.deserialize(serializer.serialize(root).stream, receiver).root
    return root, copy, receiver


def _mutate_one_slot(heap, rng):
    """Change one slot of one live object on ``heap``: a primitive value,
    a reference retarget, or a reference nulled."""
    objects = list(heap.objects())
    while True:
        obj = rng.choice(objects)
        if obj.klass.is_array:
            if obj.length == 0:
                continue
            index = rng.randint(0, obj.length - 1)
            if obj.klass.element_kind.is_reference:
                target = None if rng.random() < 0.5 else rng.choice(objects)
                obj.set_element(index, target)
            elif obj.klass.element_kind is FieldKind.DOUBLE:
                obj.set_element(index, obj.get_element(index) * 1.5 + 1.0)
            else:
                value = obj.get_element(index)
                obj.set_element(index, value - 1 if value > 0 else value + 1)
            return
        descriptor = rng.choice(obj.klass.fields)
        if descriptor.kind.is_reference:
            target = None if rng.random() < 0.5 else rng.choice(objects)
            obj.set(descriptor.name, target)
        elif descriptor.kind is FieldKind.BOOLEAN:
            obj.set(descriptor.name, not obj.get(descriptor.name))
        elif descriptor.kind in (FieldKind.FLOAT, FieldKind.DOUBLE):
            obj.set(descriptor.name, obj.get(descriptor.name) * 1.5 + 1.0)
        else:
            value = obj.get(descriptor.name)
            obj.set(descriptor.name, value - 1 if value > 0 else value + 1)
        return


class TestDifferentialAgainstSlotWalk:
    @pytest.mark.parametrize("seed", (1, 4, 7, 11))
    @pytest.mark.parametrize(
        "serializer_name", ("java-builtin", "kryo", "skyway", "cereal")
    )
    def test_fuzz_round_trips_agree(self, seed, serializer_name):
        root, copy, _ = _fuzz_copy(seed, serializer_name)
        assert assert_agrees(root, copy) is None
        assert assert_agrees(copy, root) is None
        # A faithful round trip is accepted by the one-read-per-object
        # image pass, without the slot walk.
        assert _images_match(root, copy)

    @pytest.mark.parametrize("seed", (2, 5, 9))
    def test_fuzz_mutants_agree(self, seed):
        from repro.workloads.datagen import DeterministicRandom

        rng = DeterministicRandom(seed=seed)
        differences = 0
        for _ in range(12):
            root, copy, receiver = _fuzz_copy(seed)
            _mutate_one_slot(receiver, rng)
            if assert_agrees(root, copy) is not None:
                differences += 1
            assert_agrees(copy, root)
        assert differences > 0

    def test_different_fuzz_graphs_agree(self):
        root_a, _, _ = _fuzz_copy(3)
        root_b, _, _ = _fuzz_copy(8)
        assert assert_agrees(root_a, root_b) is not None


def _edge_registry():
    registry = KlassRegistry()
    registry.register(
        InstanceKlass(
            "Cell",
            [
                FieldDescriptor("flag", FieldKind.BOOLEAN),
                FieldDescriptor("code", FieldKind.CHAR),
                FieldDescriptor("weight", FieldKind.DOUBLE),
                FieldDescriptor("ratio", FieldKind.FLOAT),
                FieldDescriptor("left", FieldKind.REFERENCE),
                FieldDescriptor("right", FieldKind.REFERENCE),
            ],
        )
    )
    registry.register(InstanceKlass("Tag", [FieldDescriptor("id", FieldKind.INT)]))
    registry.register(InstanceKlass("Label", [FieldDescriptor("id", FieldKind.INT)]))
    for kind in (FieldKind.FLOAT, FieldKind.DOUBLE, FieldKind.INT, FieldKind.REFERENCE):
        registry.array_klass(kind)
    return registry


def _slot(obj, name):
    return obj.slot_address(obj.klass.field_index(name))


class TestDifferentialEdgeCases:
    @pytest.fixture
    def heap(self):
        return Heap(registry=_edge_registry())

    def cells(self, heap):
        return heap.new_instance("Cell"), heap.new_instance("Cell")

    def test_negative_zero_in_instance_slot(self, heap):
        a, b = self.cells(heap)
        a.set("weight", -0.0)
        b.set("weight", 0.0)
        a.set("ratio", 0.0)
        b.set("ratio", -0.0)
        assert assert_agrees(a, b) is None

    @pytest.mark.parametrize("kind", (FieldKind.FLOAT, FieldKind.DOUBLE))
    def test_negative_zero_in_arrays(self, heap, kind):
        a, b = heap.new_array(kind, 3), heap.new_array(kind, 3)
        a.set_elements([1.0, -0.0, 2.0])
        b.set_elements([1.0, 0.0, 2.0])
        assert assert_agrees(a, b) is None

    def test_nan_payloads_in_instance_slot(self, heap):
        a, b = self.cells(heap)
        heap.memory.write_u64(_slot(a, "weight"), 0x7FF8_0000_0000_0001)
        heap.memory.write_u64(_slot(b, "weight"), 0xFFF8_0000_0000_0BAD)
        assert assert_agrees(a, b) is None

    @pytest.mark.parametrize(
        "kind, width, bits_a, bits_b",
        [
            (FieldKind.FLOAT, 4, 0x7FC0_0001, 0xFFC0_0BAD),
            (FieldKind.DOUBLE, 8, 0x7FF8_0000_0000_0001, 0xFFF8_0000_0000_0BAD),
        ],
    )
    def test_nan_payloads_in_arrays(self, heap, kind, width, bits_a, bits_b):
        a, b = heap.new_array(kind, 2), heap.new_array(kind, 2)
        element = a.fields_base + 8 + width
        write = heap.memory.write_u32 if width == 4 else heap.memory.write_u64
        write(element, bits_a)
        write(b.fields_base + 8 + width, bits_b)
        assert assert_agrees(a, b) is None

    @pytest.mark.parametrize(
        "other, equivalent", [(1.0 + 1e-9, True), (1.0 + 1e-3, False)]
    )
    def test_float_tolerance(self, heap, other, equivalent):
        a, b = self.cells(heap)
        a.set("weight", 1.0)
        b.set("weight", other)
        assert (assert_agrees(a, b) is None) is equivalent
        arrays = heap.new_array(FieldKind.DOUBLE, 1), heap.new_array(FieldKind.DOUBLE, 1)
        arrays[0].set_element(0, 1.0)
        arrays[1].set_element(0, other)
        assert (assert_agrees(*arrays) is None) is equivalent

    def test_boolean_written_raw_as_one_and_two(self, heap):
        a, b = self.cells(heap)
        heap.memory.write_u64(_slot(a, "flag"), 1)
        heap.memory.write_u64(_slot(b, "flag"), 2)
        assert assert_agrees(a, b) is None

    def test_char_high_bits(self, heap):
        a, b = self.cells(heap)
        heap.memory.write_u64(_slot(a, "code"), 0x41)
        heap.memory.write_u64(_slot(b, "code"), 0xBEEF_0000_0041)
        assert assert_agrees(a, b) is None
        heap.memory.write_u64(_slot(b, "code"), 0x42)
        assert assert_agrees(a, b) == "root.code: 65 != 66"

    def test_shared_vs_duplicated_subgraph(self, heap):
        a, b = self.cells(heap)
        shared = heap.new_instance("Tag")
        a.set("left", shared)
        a.set("right", shared)
        b.set("left", heap.new_instance("Tag"))
        b.set("right", heap.new_instance("Tag"))
        assert "sharing mismatch" in assert_agrees(a, b)
        assert "sharing mismatch" in assert_agrees(b, a)

    def test_cycles(self, heap):
        a, b = self.cells(heap)
        a_child, b_child = self.cells(heap)
        a.set("left", a_child)
        a_child.set("left", a)
        a_child.set("right", a_child)
        b.set("left", b_child)
        b_child.set("left", b)
        b_child.set("right", b_child)
        assert assert_agrees(a, b) is None
        b_child.set("right", b)
        assert "sharing mismatch" in assert_agrees(a, b)

    def test_null_vs_object(self, heap):
        a, b = self.cells(heap)
        b.set("right", heap.new_instance("Tag"))
        assert assert_agrees(a, b) == "root.right: null mismatch"
        refs = heap.new_array(FieldKind.REFERENCE, 2), heap.new_array(FieldKind.REFERENCE, 2)
        refs[0].set_element(1, heap.new_instance("Tag"))
        assert assert_agrees(*refs) == "root[1]: null mismatch"

    def test_same_shape_different_names(self, heap):
        a, b = heap.new_instance("Tag"), heap.new_instance("Label")
        assert assert_agrees(a, b) == "root: klass Tag != Label"

    def test_same_name_different_field_order_across_heaps(self):
        def registry(fields):
            reg = KlassRegistry()
            reg.register(
                InstanceKlass("Point", [FieldDescriptor(n, FieldKind.INT) for n in fields])
            )
            return reg

        a = Heap(registry=registry(("x", "y"))).new_instance("Point")
        b = Heap(registry=registry(("y", "x"))).new_instance("Point")
        a.set("x", 1)
        a.set("y", 2)
        b.set("x", 2)  # slot images are identical, named values differ
        b.set("y", 1)
        assert a.raw_bytes()[24:] == b.raw_bytes()[24:]
        assert assert_agrees(a, b) == "root.x: 1 != 2"

    def test_array_length_mismatch_and_empty_arrays(self, heap):
        for kind in (FieldKind.INT, FieldKind.REFERENCE):
            assert assert_agrees(heap.new_array(kind, 0), heap.new_array(kind, 0)) is None
            assert (
                assert_agrees(heap.new_array(kind, 0), heap.new_array(kind, 1))
                == "root: array length 0 != 1"
            )

    def test_roots_on_one_heap_and_on_two_heaps(self, heap):
        a, b = self.cells(heap)
        a.set("left", a)
        b.set("left", b)
        assert assert_agrees(a, b) is None
        assert assert_agrees(a, a) is None
        other = Heap(registry=_edge_registry())
        c = other.new_instance("Cell")
        c.set("left", c)
        assert assert_agrees(a, c) is None
        c.set("weight", 3.0)
        assert assert_agrees(a, c) == "root.weight: 0.0 != 3.0"

    def test_dangling_reference_raises_the_same_heap_error(self, heap):
        a, b = self.cells(heap)
        a.set("left", heap.new_instance("Tag"))
        b.set("left", heap.new_instance("Tag"))
        heap.memory.write_u64(_slot(b, "left"), 0xDEAD_BEE8)
        outcome = assert_agrees(a, b)
        assert outcome[:2] == ("raised", HeapError)
        assert "no object at address" in outcome[2]
        with pytest.raises(HeapError):
            graphs_equivalent(a, b)
        with pytest.raises(HeapError):
            first_difference(b, a)
