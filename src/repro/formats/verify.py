"""Structural equivalence of object graphs.

Deserialization must reproduce an *equivalent* graph, not an identical one:
addresses and identity hashes differ between heaps. Two graphs are
equivalent when a graph isomorphism maps one root to the other preserving
klass names, array lengths, primitive slot values, and reference structure
(including sharing and cycles).

Two passes judge it. The *image pass* walks both graphs in the same
lockstep pairing as the slot walk but reads each object once — its field
slots, or its element bytes — compares primitive slots and element runs as
bytes, and pairs reference words by address. Byte equality implies value
equality, so when every byte matches the graphs are equivalent. Any
mismatch (klass, length, bytes, null, sharing, or an address that resolves
to no object) is not a verdict: the per-slot walk then re-judges the pair
from the root and stays the one authority. It decides what bytes alone
cannot — ``-0.0`` against ``0.0``, NaN payloads, the float tolerance,
BOOLEAN and CHAR slots with stray high bits — and raises the typed
:class:`~repro.common.errors.HeapError` for a dangling reference. The
answer is therefore exactly the slot walk's, never stricter and never
looser; the image pass only makes the common equal case cheap.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import HeapError
from repro.jvm.heap import HeapObject
from repro.jvm.klass import ArrayKlass, FieldKind, InstanceKlass, Klass

_FLOAT_RTOL = 1e-6


def _values_match(kind: FieldKind, a, b) -> bool:
    if kind in (FieldKind.FLOAT, FieldKind.DOUBLE):
        fa, fb = float(a), float(b)
        if math.isnan(fa) and math.isnan(fb):
            return True
        return math.isclose(fa, fb, rel_tol=_FLOAT_RTOL, abs_tol=1e-12)
    return a == b


def graphs_equivalent(root_a: HeapObject, root_b: HeapObject) -> bool:
    """True when the two object graphs are structurally equivalent.

    Byte-identical graphs (up to addresses) are accepted by the one-read-
    per-object image pass; anything else is judged by the per-slot walk
    (see the module docstring), so the answer never depends on which pass
    gave it.
    """
    return first_difference(root_a, root_b) is None


def first_difference(root_a: HeapObject, root_b: HeapObject) -> str | None:
    """Describe the first structural mismatch, or ``None`` if equivalent.

    Walks both graphs in lockstep (the pairing itself is the isomorphism
    candidate); any divergence in klass, length, values, nullness, or
    sharing structure is reported with a path-like description. The
    image pass answers ``None`` for byte-identical graphs; the description
    of a difference always comes from the per-slot walk.
    """
    if _images_match(root_a, root_b):
        return None
    return _slot_walk(root_a, root_b)


# Per (klass A, klass B) pair: ``None`` when only the slot walk may judge
# the pair (names or field layouts differ), else
# ``(is_array, reference_elements, element_width, field_slots,
# primitive_getter, reference_slots)``.
_PairShape = Optional[
    Tuple[bool, bool, int, int, Optional[Callable], Tuple[int, ...]]
]


def _pair_shape(klass_a: Klass, klass_b: Klass) -> _PairShape:
    if klass_a is not klass_b:
        if type(klass_a) is not type(klass_b) or klass_a.name != klass_b.name:
            return None
        if isinstance(klass_a, ArrayKlass):
            if klass_a.element_kind is not klass_b.element_kind:
                return None
        elif klass_a.fields != klass_b.fields:  # type: ignore[attr-defined]
            # Same name, different layout: slots pair by name, not position.
            return None
    if isinstance(klass_a, ArrayKlass):
        kind = klass_a.element_kind
        return (True, kind.is_reference, klass_a.element_width, 0, None, ())
    assert isinstance(klass_a, InstanceKlass)
    fields = klass_a.fields
    primitive = [i for i, d in enumerate(fields) if not d.kind.is_reference]
    references = tuple(i for i, d in enumerate(fields) if d.kind.is_reference)
    getter = itemgetter(*primitive) if primitive else None
    return (False, False, 0, len(fields), getter, references)


def _images_match(root_a: HeapObject, root_b: HeapObject) -> bool:
    """The image pass: True only when the graphs match byte for byte.

    ``False`` means "not proven here", never "different": the caller then
    runs the per-slot walk.
    """
    heap_a, heap_b = root_a.heap, root_b.heap
    memory_a, memory_b = heap_a.memory, heap_b.memory
    object_a, object_b = heap_a.object_at, heap_b.object_at
    header_a, header_b = heap_a.header_bytes, heap_b.header_bytes
    shapes: Dict[Tuple[Klass, Klass], _PairShape] = {}
    mapping = {root_a.address: root_b.address}
    reverse = {root_b.address: root_a.address}
    worklist = [(root_a, root_b)]

    while worklist:
        a, b = worklist.pop()
        pair = (a.klass, b.klass)
        if pair in shapes:
            shape = shapes[pair]
        else:
            shape = shapes[pair] = _pair_shape(*pair)
        if shape is None:
            return False
        is_array, reference_elements, width, slots, primitive, references = shape
        fields_a = a.address + header_a
        fields_b = b.address + header_b
        if is_array:
            length = a.length
            if length != b.length:
                return False
            if not reference_elements:
                if memory_a.read(fields_a + 8, length * width) != memory_b.read(
                    fields_b + 8, length * width
                ):
                    return False
                continue
            words = zip(
                memory_a.read_words(fields_a + 8, length),
                memory_b.read_words(fields_b + 8, length),
            )
        else:
            words_a = memory_a.read_words(fields_a, slots)
            words_b = memory_b.read_words(fields_b, slots)
            if primitive is not None and primitive(words_a) != primitive(words_b):
                return False
            words = [(words_a[i], words_b[i]) for i in references]
        for word_a, word_b in words:
            if not word_a or not word_b:
                if word_a or word_b:
                    return False  # null mismatch
                continue
            mapped = mapping.get(word_a)
            if mapped is not None:
                if mapped != word_b:
                    return False  # sharing mismatch
                continue
            if word_b in reverse:
                return False  # sharing mismatch
            try:
                child_a, child_b = object_a(word_a), object_b(word_b)
            except HeapError:
                return False  # dangling: the slot walk raises it in order
            mapping[word_a] = word_b
            reverse[word_b] = word_a
            worklist.append((child_a, child_b))
    return True


def _slot_walk(root_a: HeapObject, root_b: HeapObject) -> str | None:
    """The authority: compare slot by slot through the typed accessors."""
    mapping: Dict[int, int] = {}
    reverse: Dict[int, int] = {}
    worklist: List[Tuple[HeapObject, HeapObject, str]] = [(root_a, root_b, "root")]

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
                elif not _values_match(kind, va, vb):
                    return f"{element_path}: {va!r} != {vb!r}"
        else:
            klass = a.klass
            assert isinstance(klass, InstanceKlass)
            for descriptor in klass.fields:
                field_path = f"{path}.{descriptor.name}"
                va, vb = a.get(descriptor.name), b.get(descriptor.name)
                if descriptor.kind.is_reference:
                    if (va is None) != (vb is None):
                        return f"{field_path}: null mismatch"
                    if va is not None:
                        worklist.append((va, vb, field_path))
                elif not _values_match(descriptor.kind, va, vb):
                    return f"{field_path}: {va!r} != {vb!r}"
    return None
