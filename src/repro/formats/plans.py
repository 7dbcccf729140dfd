"""Compiled serialization plans: shape-specialized encode/decode op-lists.

The interpreters in :mod:`repro.formats.javaser`, :mod:`repro.formats.kryo`
and :mod:`repro.formats.cereal_format` re-derive the same facts for *every
object* they touch: which slot holds which field kind, how the field is
encoded on the wire, what the class descriptor bytes look like, how much
modelled work the operation costs. All of that depends only on the
object's *shape* — the klass (plus, for Cereal bitmaps, the array length)
— so it can be computed once and replayed.

A *plan* is that precomputation, compiled per ``(format, klass-shape)``
pair into flat data a tight kernel can execute:

* **encode ops** — ``(op, start, end)`` triples over the object's raw
  memory image. Fixed-width fields whose wire bytes equal their in-memory
  bytes become ``OP_COPY`` slices, and *consecutive contiguous* copies are
  merged into single slices (a ``long``/``double`` run serializes as one
  ``bytes`` copy — the slot-run idea). Only genuinely transforming ops
  remain: f64→f32 re-encode, zig-zag varints, reference recursion points.
* **decode ops** — the inverse list producing 8-byte slot words, with
  verbatim 8-byte fields merged into ``DOP_WORDS`` runs that bulk-unpack.
* **class-descriptor blobs** (Java S/D) — the full ``TC_CLASSDESC`` byte
  string and its per-section size split, emitted with one buffer append
  instead of a field-by-field metadata loop; the decode side compares the
  incoming descriptor tail against the expected bytes in one slice
  comparison and only falls back to the field-by-field parse (for its
  precise error messages and its leniency about field-name strings) when
  the bytes differ.
* **work-profile deltas** — the exact :class:`~repro.formats.base.WorkProfile`
  and reflection-shim cost the interpreter would have accounted for one
  object of this shape, pre-summed so the kernel bumps a handful of local
  integers per object. Plan-path profiles are *identical* to interpreter
  profiles, not approximations — the CPU cost model sees the same work.

Plans live in a process-wide cache keyed on a stable **klass fingerprint**
(name + field signature, or array element kind), so every serializer
instance, service shard, and benchmark in the process shares one compiled
plan per shape. ``plan_cache_stats()`` exposes hit/miss/eviction counters;
the serving layer snapshots them into SLO reports and
``benchmarks/bench_wallclock.py`` gates on warm-cache hit rates.

Byte-identity with the interpreters is enforced by
``tests/test_plans.py`` and the fuzz corpus in
``tests/test_fuzz_roundtrip.py``; the interpreters themselves remain
available as the oracle via ``use_plans=False`` (see
:func:`repro.formats.slow_reference.oracle_serializer`).
"""

from __future__ import annotations

import struct
import sys
from hashlib import sha256
from typing import Dict, List, Tuple

from repro.common.errors import FormatError
from repro.formats.varint import (  # noqa: F401  (re-exported: kernel API)
    append_signed_varint,
    append_varint,
    read_signed_varint,
    read_varint,
)
from repro.jvm.klass import ArrayKlass, FieldKind, InstanceKlass, Klass
from repro.jvm.layout_cache import layout_of
from repro.obs.metrics import get_registry

# -- encode opcodes ---------------------------------------------------------------
OP_COPY = 0    # (start, end): image bytes copied verbatim to the stream
OP_FLOAT = 1   # (off, _): f64 slot re-encoded as 4 f32 bytes
OP_REF = 2     # (off, _): reference slot -> recursion point
OP_VARINT = 3  # (off, _): signed i64 slot -> zig-zag varint (Kryo)

# -- decode opcodes ---------------------------------------------------------------
DOP_REF = 0     # reference -> recursion point
DOP_BOOL = 1    # u8 -> 0/1 slot word
DOP_BYTE = 2    # u8 -> sign-extended slot word
DOP_CHAR = 3    # u16 -> slot word
DOP_SHORT = 4   # u16 -> sign-extended slot word
DOP_INT = 5     # u32 -> sign-extended slot word
DOP_FLOAT = 6   # f32 -> f64-bit slot word
DOP_WORDS = 7   # (index, count): run of verbatim 8-byte fields, bulk unpack
DOP_VARINT = 8  # zig-zag varint -> slot word (Kryo INT/LONG)

_U64_MASK = (1 << 64) - 1

_COPY_WIDTHS = {
    FieldKind.BOOLEAN: 1,
    FieldKind.BYTE: 1,
    FieldKind.CHAR: 2,
    FieldKind.SHORT: 2,
    FieldKind.INT: 4,
    FieldKind.LONG: 8,
    FieldKind.DOUBLE: 8,
}

_DECODE_OPS = {
    FieldKind.BOOLEAN: DOP_BOOL,
    FieldKind.BYTE: DOP_BYTE,
    FieldKind.CHAR: DOP_CHAR,
    FieldKind.SHORT: DOP_SHORT,
    FieldKind.INT: DOP_INT,
    FieldKind.FLOAT: DOP_FLOAT,
}


# The varint codecs (``append_varint`` / ``read_varint`` and zig-zag
# variants) now live in :mod:`repro.formats.varint` and are re-exported
# above for the Kryo kernels that import them from here.


# -- plan containers ---------------------------------------------------------------


class InstancePlan:
    """Compiled shape facts for one instance klass under one format."""

    __slots__ = (
        "klass",
        "size_bytes",
        "field_count",
        "enc_ops",
        "enc_data_bytes",
        "dec_ops",
        "n_ref",
        "n_prim",
        "desc_blob",
        "desc_meta_bytes",
        "desc_type_bytes",
        "desc_tail",
        "ser_instr",
        "ser_aux",
        "ser_dep",
        "ser_reflect_instr",
        "desc_ser_instr",
        "de_instr",
        "de_aux",
        "de_reflect_instr",
        "desc_de_instr",
    )


class ArrayPlan:
    """Compiled shape facts for an array klass (length-independent)."""

    __slots__ = (
        "klass",
        "element_kind",
        "element_width",
        "is_ref",
        "copy_elements",      # wire bytes == element storage bytes
        "varint_code",        # struct code for Kryo INT/LONG element loads
        "desc_blob",
        "desc_meta_bytes",
        "desc_type_bytes",
        "desc_tail",
        "ser_instr",          # per object
        "ser_aux",
        "ser_dep",
        "ser_elem_instr",     # per element
        "desc_ser_instr",
        "de_instr",
        "de_aux",
        "de_elem_instr",
        "desc_de_instr",
    )


class CerealPlan:
    """Value/reference word indices + bitmap for one Cereal object shape."""

    __slots__ = (
        "klass",
        "total_slots",
        "value_word_indices",   # absolute word indices of non-ref field slots
        "ref_word_indices",     # absolute word indices of reference slots
        "bitmap_word",
        "bitmap_width",
        "n_ref",
        "n_value",
        "instr",                # per object serialize instructions
    )


# -- the process-wide plan cache ----------------------------------------------------

# Bounded like the layout cache: plans are regenerable, the cap only guards
# against workloads that produce unboundedly many distinct array lengths
# (which only the Cereal plans key on).
_MAX_ENTRIES = 1 << 16
_PLANS: Dict[Tuple, object] = {}
_FINGERPRINTS: Dict[Klass, str] = {}
_BITMAP_REFS: Dict[Tuple[int, int], Tuple[int, ...]] = {}

# Recorded in the process-wide metrics registry as ``plan_cache.*``;
# ``plan_cache_stats()`` below is a thin view over these handles.
_HITS = get_registry().counter("plan_cache.hits")
_MISSES = get_registry().counter("plan_cache.misses")
_EVICTIONS = get_registry().counter("plan_cache.evictions")
_ENTRIES = get_registry().gauge("plan_cache.entries")


def klass_fingerprint(klass: Klass) -> str:
    """Stable shape identity: name plus field signature / element kind.

    Two klass objects with the same fingerprint serialize identically in
    every format, so their plans are interchangeable — this is what lets
    the cache be process-wide across serializer instances and registries.
    """
    fingerprint = _FINGERPRINTS.get(klass)
    if fingerprint is None:
        if isinstance(klass, ArrayKlass):
            identity = ("array", klass.name, klass.element_kind.value)
        else:
            assert isinstance(klass, InstanceKlass)
            identity = (
                "instance",
                klass.name,
                tuple((d.name, d.kind.value) for d in klass.fields),
            )
        fingerprint = sha256(repr(identity).encode("utf-8")).hexdigest()[:16]
        _FINGERPRINTS[klass] = fingerprint
    return fingerprint


def plan_for(format_name: str, klass: Klass, header_slots: int, length: int = 0):
    """The memoized plan for ``(format, klass shape, header geometry)``.

    ``length`` only differentiates Cereal plans (their layout bitmap is
    per-length); the Java/Kryo array plans are length-independent.
    """
    if klass.is_array and format_name != "cereal":
        length = -1
    key = (format_name, klass_fingerprint(klass), header_slots, length)
    plan = _PLANS.get(key)
    if plan is not None:
        _HITS.value += 1  # direct bump: this is the per-object hot path
        return plan
    _MISSES.inc()
    if format_name == "java-builtin":
        plan = _compile_java(klass, header_slots)
    elif format_name == "kryo":
        plan = _compile_kryo(klass, header_slots)
    elif format_name == "cereal":
        plan = _compile_cereal(klass, header_slots, max(length, 0))
    else:
        raise FormatError(f"no plan compiler for format {format_name!r}")
    if len(_PLANS) >= _MAX_ENTRIES:
        _PLANS.clear()
        _EVICTIONS.inc()
    _PLANS[key] = plan
    _ENTRIES.set(len(_PLANS) + len(_BITMAP_REFS))
    return plan


def bitmap_reference_slots(bitmap_word: int, bitmap_width: int) -> Tuple[int, ...]:
    """Memoized MSB-first set-bit positions of a layout bitmap word.

    The Cereal decode loop classifies every slot of every object against
    the bitmap; repeated shapes reuse the classification instead of
    re-shifting per slot.
    """
    key = (bitmap_word, bitmap_width)
    slots = _BITMAP_REFS.get(key)
    if slots is not None:
        _HITS.value += 1  # direct bump: this is the per-object hot path
        return slots
    _MISSES.inc()
    slots = tuple(
        slot
        for slot in range(bitmap_width)
        if (bitmap_word >> (bitmap_width - 1 - slot)) & 1
    )
    if len(_BITMAP_REFS) >= _MAX_ENTRIES:
        _BITMAP_REFS.clear()
        _EVICTIONS.inc()
    _BITMAP_REFS[key] = slots
    _ENTRIES.set(len(_PLANS) + len(_BITMAP_REFS))
    return slots


def plan_cache_stats() -> Dict[str, object]:
    """Hit/miss/eviction counters plus hit rate for reports and gates.

    A thin view over the ``plan_cache.*`` metrics in the process-wide
    registry (:mod:`repro.obs.metrics`)."""
    hits, misses = _HITS.value, _MISSES.value
    probes = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "evictions": _EVICTIONS.value,
        "entries": len(_PLANS) + len(_BITMAP_REFS),
        "hit_rate": round(hits / probes, 4) if probes else 0.0,
    }


def reset_plan_cache() -> None:
    """Drop compiled plans and zero the counters (tests, benchmarks)."""
    _PLANS.clear()
    _BITMAP_REFS.clear()
    _FINGERPRINTS.clear()
    _HITS.reset()
    _MISSES.reset()
    _EVICTIONS.reset()
    _ENTRIES.reset()


# -- shared compile helpers ---------------------------------------------------------


def _merge_copy_runs(ops: List[Tuple[int, int, int]]) -> Tuple[Tuple[int, int, int], ...]:
    """Fuse adjacent OP_COPY ops whose byte ranges are contiguous."""
    merged: List[Tuple[int, int, int]] = []
    for op in ops:
        if (
            merged
            and op[0] == OP_COPY
            and merged[-1][0] == OP_COPY
            and merged[-1][2] == op[1]
        ):
            merged[-1] = (OP_COPY, merged[-1][1], op[2])
        else:
            merged.append(op)
    return tuple(merged)


def _merge_word_runs(ops: List[Tuple[int, int, int]]) -> Tuple[Tuple[int, int, int], ...]:
    """Fuse adjacent DOP_WORDS ops over consecutive field indices."""
    merged: List[Tuple[int, int, int]] = []
    for op in ops:
        if (
            merged
            and op[0] == DOP_WORDS
            and merged[-1][0] == DOP_WORDS
            and merged[-1][1] + merged[-1][2] == op[1]
        ):
            merged[-1] = (DOP_WORDS, merged[-1][1], merged[-1][2] + op[2])
        else:
            merged.append(op)
    return tuple(merged)


def _reflection_lookup_cost(fields, field_count: int) -> Tuple[int, int, int]:
    """(method_invocations, string_comparisons, characters_compared) for one
    full named-field pass, mirroring ``JavaReflection._lookup`` exactly."""
    invocations = comparisons = characters = 0
    for index in range(field_count):
        name = fields[index].name
        invocations += 1
        for scan in range(index + 1):
            comparisons += 1
            other = fields[scan].name
            common = 0
            for a, b in zip(other, name):
                common += 1
                if a != b:
                    break
            characters += max(1, common)
            if other == name:
                break
    return invocations, comparisons, characters


def _java_reflection_instr(klass: InstanceKlass) -> int:
    """Estimated instructions for one reflective get/set pass over ``klass``.

    Reads and writes cost the same (3 per access), so one number serves
    both the serialize and deserialize sides.
    """
    invocations, comparisons, characters = _reflection_lookup_cost(
        klass.fields, len(klass.fields)
    )
    accesses = len(klass.fields) * 3  # field_reads or field_writes, both 3
    return invocations * 40 + comparisons * 6 + characters * 2 + accesses


def _java_desc_blob(klass: Klass) -> Tuple[bytes, int, int, bytes]:
    """The TC_CLASSDESC byte string for ``klass`` plus its section split.

    Returns ``(blob, meta_bytes, type_bytes, tail)`` where ``tail`` is the
    descriptor after the tag byte and class-name UTF (what the decoder
    compares against after it has read the name).
    """
    from repro.formats import javaser as J

    blob = bytearray()
    meta_bytes = 0
    type_bytes = 0
    blob.append(J.TC_CLASSDESC)
    meta_bytes += 1
    name_utf = klass.name.encode("utf-8")
    blob += struct.pack("<H", len(name_utf)) + name_utf
    type_bytes += 2 + len(name_utf)
    blob += struct.pack("<Q", J.serial_version_uid(klass))
    meta_bytes += 8
    blob.append(J.SC_SERIALIZABLE)
    meta_bytes += 1
    if isinstance(klass, InstanceKlass):
        blob += struct.pack("<H", len(klass.fields))
        meta_bytes += 2
        for descriptor in klass.fields:
            blob.append(J._TYPE_CODES[descriptor.kind])
            meta_bytes += 1
            field_utf = descriptor.name.encode("utf-8")
            blob += struct.pack("<H", len(field_utf)) + field_utf
            type_bytes += 2 + len(field_utf)
            if descriptor.kind.is_reference:
                type_utf = J._REFERENCE_TYPE_STRING.encode("utf-8")
                blob += struct.pack("<H", len(type_utf)) + type_utf
                type_bytes += 2 + len(type_utf)
    else:
        assert isinstance(klass, ArrayKlass)
        blob += struct.pack("<H", 0)
        meta_bytes += 2
        blob.append(J._TYPE_CODES[klass.element_kind])
        meta_bytes += 1
    tail = bytes(blob[1 + 2 + len(name_utf):])
    return bytes(blob), meta_bytes, type_bytes, tail


def _field_ops(
    klass: InstanceKlass, header_bytes: int, varint_kinds: Tuple[FieldKind, ...]
) -> Tuple[Tuple, Tuple, int, int]:
    """(enc_ops, dec_ops, static_data_bytes, n_ref) for an instance klass."""
    enc: List[Tuple[int, int, int]] = []
    dec: List[Tuple[int, int, int]] = []
    data_bytes = 0
    n_ref = 0
    for index, descriptor in enumerate(klass.fields):
        offset = header_bytes + index * 8
        kind = descriptor.kind
        if kind is FieldKind.REFERENCE:
            enc.append((OP_REF, offset, 0))
            dec.append((DOP_REF, index, 0))
            n_ref += 1
        elif kind in varint_kinds:
            enc.append((OP_VARINT, offset, 0))
            dec.append((DOP_VARINT, index, 0))
        elif kind is FieldKind.FLOAT:
            enc.append((OP_FLOAT, offset, 0))
            dec.append((DOP_FLOAT, index, 0))
            data_bytes += 4
        elif kind in (FieldKind.LONG, FieldKind.DOUBLE):
            enc.append((OP_COPY, offset, offset + 8))
            dec.append((DOP_WORDS, index, 1))
            data_bytes += 8
        else:
            width = _COPY_WIDTHS[kind]
            enc.append((OP_COPY, offset, offset + width))
            dec.append((_DECODE_OPS[kind], index, 0))
            data_bytes += width
    return _merge_copy_runs(enc), _merge_word_runs(dec), data_bytes, n_ref


# -- format compilers ----------------------------------------------------------------


def _compile_java(klass: Klass, header_slots: int):
    from repro.formats import javaser as J

    header_bytes = header_slots * 8
    blob, meta_bytes, type_bytes, tail = _java_desc_blob(klass)
    if isinstance(klass, ArrayKlass):
        plan = ArrayPlan()
        plan.klass = klass
        plan.element_kind = klass.element_kind
        plan.element_width = klass.element_width
        plan.is_ref = klass.element_kind.is_reference
        plan.copy_elements = not plan.is_ref
        plan.varint_code = ""
        plan.desc_blob = blob
        plan.desc_meta_bytes = meta_bytes
        plan.desc_type_bytes = type_bytes
        plan.desc_tail = tail
        plan.ser_instr = J._INSTR_PER_OBJECT
        plan.ser_aux = J._AUX_ACCESSES_PER_OBJECT_SER
        plan.ser_dep = 2
        plan.ser_elem_instr = (
            J._INSTR_PER_REFERENCE if plan.is_ref else J._INSTR_PER_PRIMITIVE
        )
        plan.desc_ser_instr = J._INSTR_PER_CLASSDESC
        plan.de_instr = J._INSTR_PER_OBJECT_DESER + J._INSTR_PER_ALLOC
        plan.de_aux = J._AUX_ACCESSES_PER_OBJECT_DESER
        plan.de_elem_instr = (
            J._INSTR_PER_FIELD_DESER if plan.is_ref else J._INSTR_PER_PRIMITIVE // 4
        )
        plan.desc_de_instr = J._INSTR_PER_CLASSDESC + len(klass.name) * 2
        return plan

    assert isinstance(klass, InstanceKlass)
    enc_ops, dec_ops, data_bytes, n_ref = _field_ops(klass, header_bytes, ())
    field_count = len(klass.fields)
    n_prim = field_count - n_ref
    plan = InstancePlan()
    plan.klass = klass
    plan.size_bytes = header_bytes + field_count * 8
    plan.field_count = field_count
    plan.enc_ops = enc_ops
    plan.enc_data_bytes = data_bytes
    plan.dec_ops = dec_ops
    plan.n_ref = n_ref
    plan.n_prim = n_prim
    plan.desc_blob = blob
    plan.desc_meta_bytes = meta_bytes
    plan.desc_type_bytes = type_bytes
    plan.desc_tail = tail
    plan.ser_instr = (
        J._INSTR_PER_OBJECT
        + n_prim * J._INSTR_PER_PRIMITIVE
        + n_ref * J._INSTR_PER_REFERENCE
    )
    plan.ser_aux = J._AUX_ACCESSES_PER_OBJECT_SER
    plan.ser_dep = 2 + n_ref
    plan.ser_reflect_instr = _java_reflection_instr(klass)
    plan.desc_ser_instr = J._INSTR_PER_CLASSDESC
    plan.de_instr = (
        J._INSTR_PER_OBJECT_DESER
        + J._INSTR_PER_ALLOC
        + field_count * J._INSTR_PER_FIELD_DESER
    )
    plan.de_aux = J._AUX_ACCESSES_PER_OBJECT_DESER
    plan.de_reflect_instr = _java_reflection_instr(klass)
    plan.desc_de_instr = J._INSTR_PER_CLASSDESC + len(klass.name) * 2
    return plan


def _compile_kryo(klass: Klass, header_slots: int):
    from repro.formats import kryo as K

    header_bytes = header_slots * 8
    if isinstance(klass, ArrayKlass):
        plan = ArrayPlan()
        plan.klass = klass
        plan.element_kind = klass.element_kind
        plan.element_width = klass.element_width
        plan.is_ref = klass.element_kind.is_reference
        plan.copy_elements = not plan.is_ref and klass.element_kind not in (
            FieldKind.INT,
            FieldKind.LONG,
        )
        plan.varint_code = (
            "i" if klass.element_kind is FieldKind.INT else
            "q" if klass.element_kind is FieldKind.LONG else ""
        )
        plan.desc_blob = b""
        plan.desc_meta_bytes = 0
        plan.desc_type_bytes = 0
        plan.desc_tail = b""
        plan.ser_instr = K._INSTR_PER_OBJECT
        plan.ser_aux = K._AUX_ACCESSES_PER_OBJECT_SER
        plan.ser_dep = 2
        plan.ser_elem_instr = (
            K._INSTR_PER_REFERENCE if plan.is_ref else K._INSTR_PER_PRIMITIVE
        )
        plan.desc_ser_instr = 0
        plan.de_instr = K._INSTR_PER_OBJECT_DESER + K._INSTR_PER_ALLOC
        plan.de_aux = K._AUX_ACCESSES_PER_OBJECT_DESER
        plan.de_elem_instr = K._INSTR_PER_FIELD_DESER
        plan.desc_de_instr = 0
        return plan

    assert isinstance(klass, InstanceKlass)
    enc_ops, dec_ops, data_bytes, n_ref = _field_ops(
        klass, header_bytes, (FieldKind.INT, FieldKind.LONG)
    )
    field_count = len(klass.fields)
    n_prim = field_count - n_ref
    plan = InstancePlan()
    plan.klass = klass
    plan.size_bytes = header_bytes + field_count * 8
    plan.field_count = field_count
    plan.enc_ops = enc_ops
    plan.enc_data_bytes = data_bytes
    plan.dec_ops = dec_ops
    plan.n_ref = n_ref
    plan.n_prim = n_prim
    plan.desc_blob = b""
    plan.desc_meta_bytes = 0
    plan.desc_type_bytes = 0
    plan.desc_tail = b""
    plan.ser_instr = (
        K._INSTR_PER_OBJECT
        + n_prim * K._INSTR_PER_PRIMITIVE
        + n_ref * K._INSTR_PER_REFERENCE
    )
    plan.ser_aux = K._AUX_ACCESSES_PER_OBJECT_SER
    plan.ser_dep = 2 + n_ref
    # ReflectASM: one indexed access (4) + one field read/write (3) per field.
    plan.ser_reflect_instr = field_count * 7
    plan.desc_ser_instr = 0
    plan.de_instr = (
        K._INSTR_PER_OBJECT_DESER
        + K._INSTR_PER_ALLOC
        + field_count * K._INSTR_PER_FIELD_DESER
    )
    plan.de_aux = K._AUX_ACCESSES_PER_OBJECT_DESER
    plan.de_reflect_instr = field_count * 7
    plan.desc_de_instr = 0
    return plan


def _compile_cereal(klass: Klass, header_slots: int, length: int):
    from repro.formats import cereal_format as C

    layout = layout_of(klass, header_slots, length)
    reference_set = layout.reference_slot_set
    plan = CerealPlan()
    plan.klass = klass
    plan.total_slots = layout.total_slots
    plan.ref_word_indices = tuple(
        header_slots + slot for slot in layout.reference_slots
    )
    plan.value_word_indices = tuple(
        header_slots + slot
        for slot in range(layout.field_slots)
        if slot not in reference_set
    )
    plan.bitmap_word = layout.bitmap_word
    plan.bitmap_width = layout.bitmap_width
    plan.n_ref = len(plan.ref_word_indices)
    plan.n_value = len(plan.value_word_indices)
    plan.instr = C._INSTR_PER_OBJECT + C._INSTR_PER_SLOT * layout.total_slots
    return plan


# -- sink-driven walks ---------------------------------------------------------------
#
# Every format has exactly one production encode: a generator *walk*
# written against a sink. The walk only ever appends (``out += ...``,
# ``out.append(...)``) and reads back ``len(out)``, so the sink is either
# a flat ``bytearray`` or a :class:`ChunkingBuffer` that honors the same
# interface while carving the output into fixed-size arenas. Before each
# bounded write the walk polls the sink's list of sealed chunks and
# yields while it is non-empty; the walk's explicit frame stack *is* the
# resume state, so continuing never re-visits an already-encoded object.
# A flat buffer never seals, so ``serialize()`` drains the walk without it
# ever suspending, and every write stays a native ``bytearray`` append.


def sink_state(out) -> Tuple[object, int]:
    """``(ready, step)`` for a walk writing into ``out``.

    ``ready`` is the sink's list of sealed chunks (the walk yields while
    it is non-empty) and ``step`` the largest blob the walk may append in
    one uninterruptible write. A flat ``bytearray`` gets an always-empty
    ``ready`` and an unbounded ``step``: the walk never yields into it.
    """
    if isinstance(out, ChunkingBuffer):
        return out.ready, out.chunk_bytes
    return (), sys.maxsize


def write_slices(out, data, ready, step: int):
    """Append ``data`` to ``out`` in ``step``-sized slices, yielding
    whenever a chunk is sealed (bounds arena demand for large blobs)."""
    for offset in range(0, len(data), step):
        if ready:
            yield
        out += data[offset:offset + step]


class ChunkingBuffer:
    """An append-only output buffer that carves fixed-size chunk arenas.

    Drop-in for the ``bytearray`` an encode walk writes into: supports
    ``append``/``extend``/``+=`` and ``len()`` — where ``len()`` reports
    the *logical* stream position (total bytes ever written), so a walk
    measuring what it wrote via ``len(out) - start`` sees exactly the
    numbers it would against a flat buffer.

    Writes land in the current arena; the instant it reaches
    ``chunk_bytes`` it is sealed onto the ``ready`` list and a fresh arena
    is acquired from the pool. One oversized ``extend`` seals as many full
    chunks as it spans — every sealed chunk is *exactly* ``chunk_bytes``
    long, so chunk boundaries are deterministic functions of the byte
    stream alone (resume-determinism relies on this).
    """

    __slots__ = ("chunk_bytes", "ready", "_pool", "_block", "_current", "_total")

    def __init__(self, chunk_bytes: int, pool=None, block: bool = False):
        if chunk_bytes <= 0:
            raise FormatError(
                f"chunk_bytes must be positive, got {chunk_bytes}"
            )
        if pool is None:
            from repro.common.bufpool import GLOBAL_CHUNK_POOL

            pool = GLOBAL_CHUNK_POOL
        self.chunk_bytes = chunk_bytes
        self._pool = pool
        self._block = block
        self._current = pool.acquire(block=block)
        self.ready: List[bytearray] = []
        self._total = 0

    def __len__(self) -> int:
        return self._total

    def append(self, byte: int) -> None:
        self._total += 1
        cur = self._current
        cur.append(byte)
        if len(cur) >= self.chunk_bytes:
            self._seal()

    def extend(self, data) -> None:
        n = len(data)
        self._total += n
        cur = self._current
        room = self.chunk_bytes - len(cur)
        if n < room:
            cur += data
            return
        offset = 0
        while n - offset >= room:
            cur += data[offset:offset + room]
            offset += room
            self._seal()
            cur = self._current
            room = self.chunk_bytes
        if offset < n:
            cur += data[offset:]

    def __iadd__(self, data) -> "ChunkingBuffer":
        self.extend(data)
        return self

    def _seal(self) -> None:
        self.ready.append(self._current)
        self._current = self._pool.acquire(block=self._block)

    def pop_ready(self):
        """The oldest sealed chunk arena, or ``None``."""
        if self.ready:
            return self.ready.pop(0)
        return None

    def flush_tail(self) -> None:
        """Seal the final partial chunk (end of stream). An empty tail —
        the stream length was an exact multiple of ``chunk_bytes`` — is
        released straight back to the pool, never emitted."""
        cur = self._current
        if cur is None:
            return
        self._current = None
        if len(cur):
            self.ready.append(cur)
        else:
            self._pool.release(cur)

    def recycle(self, arena) -> None:
        """Return a consumed chunk arena to the pool."""
        self._pool.release(arena)

    def abandon(self) -> None:
        """Release every arena still held (error/teardown path)."""
        if self._current is not None:
            self._pool.release(self._current)
            self._current = None
        while self.ready:
            self._pool.release(self.ready.pop())


class EncodeSummary:
    """What a fully-drained encode walk produced, minus the bytes
    themselves (those went into the sink)."""

    __slots__ = (
        "format_name",
        "total_bytes",
        "sections",
        "profile",
        "object_count",
        "graph_bytes",
    )

    def __init__(self, format_name, total_bytes, sections, profile,
                 object_count, graph_bytes):
        self.format_name = format_name
        self.total_bytes = total_bytes
        self.sections = sections
        self.profile = profile
        self.object_count = object_count
        self.graph_bytes = graph_bytes


def drain(walk) -> EncodeSummary:
    """Run a walk that writes into a flat buffer to completion."""
    try:
        next(walk)
    except StopIteration as stop:
        return stop.value
    raise FormatError("encode walk suspended on a flat buffer")


class EncodeCursor:
    """A resumable handle over one chunked encode.

    Wraps a serializer's encode walk writing into a
    :class:`ChunkingBuffer`; the walk yields at every safe suspension
    point and returns an :class:`EncodeSummary`. ``next_chunk()``
    advances the walk only as far as the next sealed chunk, so the
    producer never runs ahead of its consumer by more than the pool
    population: backpressure reaches the encoder itself.

    The caller owns each returned arena until it hands it back via
    ``recycle()`` — the pull loop is::

        while (chunk := cursor.next_chunk()) is not None:
            consume(chunk)          # copy/frame/transmit
            cursor.recycle(chunk)   # arena returns to the pool

    ``summary`` is available once ``next_chunk()`` has returned ``None``.
    """

    def __init__(self, walk, buffer: ChunkingBuffer):
        self._walk = walk
        self._buffer = buffer
        self._exhausted = False
        self.summary = None
        self.chunks_emitted = 0

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    def next_chunk(self):
        """The next sealed chunk arena, or ``None`` at end of stream."""
        buf = self._buffer
        while not buf.ready and not self._exhausted:
            try:
                next(self._walk)
            except StopIteration as stop:
                self._exhausted = True
                self.summary = summary = stop.value
                declared = sum(summary.sections.values())
                if declared != summary.total_bytes:
                    raise FormatError(
                        f"{summary.format_name} encode walk: sections sum "
                        f"to {declared}, stream is {summary.total_bytes} bytes"
                    )
                buf.flush_tail()
        chunk = buf.pop_ready()
        if chunk is None:
            return None
        self.chunks_emitted += 1
        return chunk

    def recycle(self, arena) -> None:
        self._buffer.recycle(arena)

    def close(self) -> None:
        """Abort a partially-drained cursor, releasing held arenas."""
        if not self._exhausted:
            self._walk.close()
            self._exhausted = True
        self._buffer.abandon()
