"""Java built-in object serialization (``ObjectOutputStream`` model).

Reproduces the serialized-stream structure of paper Figure 1(b) and the
behaviours Section II calls out as expensive:

* every class is described *by name*: the class name string, a
  serialVersionUID, and per-field metadata (type code + field name string,
  plus a type string for reference fields) are embedded in the stream;
* field values are extracted through ``java.lang.reflect`` — modelled by the
  :class:`~repro.jvm.reflection.JavaReflection` shim, which accounts the
  string-matching work that dominates Java S/D time;
* previously-visited objects are written as a 5-byte back reference
  (``TC_REFERENCE`` + handle), which also makes cyclic graphs safe.

Stream grammar (tag bytes follow the real Java protocol values):

    stream    := MAGIC(2) VERSION(2) content
    content   := TC_NULL
               | TC_REFERENCE handle(4)
               | TC_OBJECT classdesc field-values...
               | TC_ARRAY classdesc length(4) elements...
    classdesc := TC_CLASSDESC nameUTF uid(8) flags(1) nfields(2)
                 { typecode(1) nameUTF [typestringUTF] }...
               | TC_REFERENCE handle(4)

Reference-typed fields and array elements recurse into ``content``.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, Iterator, List, Optional

from repro.common.errors import (
    FormatError,
    HeapError,
    TruncatedStreamError,
    UnknownClassError,
)
from repro.formats import plans as P
from repro.formats.base import (
    DeserializationResult,
    SerializationResult,
    SerializedStream,
    Serializer,
    WorkProfile,
)
from repro.formats.limits import DecodeLimits, resolve_limits
from repro.formats.streams import StreamReader, StreamWriter
from repro.jvm.graph import ObjectGraph
from repro.jvm.heap import Heap, HeapObject
from repro.jvm.klass import ArrayKlass, FieldKind, InstanceKlass, Klass
from repro.jvm.reflection import JavaReflection

MAGIC = 0xACED
VERSION = 5

TC_NULL = 0x70
TC_REFERENCE = 0x71
TC_CLASSDESC = 0x72
TC_OBJECT = 0x73
TC_ARRAY = 0x75

SC_SERIALIZABLE = 0x02

_TYPE_CODES = {
    FieldKind.BOOLEAN: ord("Z"),
    FieldKind.BYTE: ord("B"),
    FieldKind.CHAR: ord("C"),
    FieldKind.SHORT: ord("S"),
    FieldKind.INT: ord("I"),
    FieldKind.FLOAT: ord("F"),
    FieldKind.LONG: ord("J"),
    FieldKind.DOUBLE: ord("D"),
    FieldKind.REFERENCE: ord("L"),
}
_KIND_BY_CODE = {code: kind for kind, code in _TYPE_CODES.items()}

_REFERENCE_TYPE_STRING = "Ljava/lang/Object;"

_SECTION_META = "metadata"
_SECTION_TYPES = "type_strings"
_SECTION_DATA = "field_data"
_SECTION_REFS = "back_references"

# Instruction-cost constants for the WorkProfile. Calibrated so the CPU
# model lands the paper's measured ratios (Figures 3 and 10): Java S/D is
# the slowest library, its deserializer catastrophically so (52x slower
# than Kryo's), with IPC around 1. The serializer side is dominated by the
# handle-table insert, ObjectStreamClass lookup, and block-data framing per
# object; the deserializer additionally pays reflective type resolution and
# per-field string-matched assignment.
_INSTR_PER_OBJECT = 7000  # writeObject0: handle table, desc lookup, framing
_INSTR_PER_PRIMITIVE = 400  # reflective extract + widen + block write
_INSTR_PER_REFERENCE = 700  # reflective get + null/visited checks + recursion
_INSTR_PER_STREAM_BYTE = 1  # buffer copy amortized
_INSTR_PER_OBJECT_DESER = 28000  # readObject0: desc resolution, security
_INSTR_PER_FIELD_DESER = 3000  # reflective Field.set with boxing
_INSTR_PER_ALLOC = 600  # reflective newInstance
_INSTR_PER_CLASSDESC = 2000  # class lookup by name, descriptor construction
_AUX_ACCESSES_PER_OBJECT_SER = 20  # handle-table + desc-cache probes
_AUX_ACCESSES_PER_OBJECT_DESER = 30  # handle table, Field cache, ctor cache

_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I32 = struct.Struct("<i")
_MASK64 = (1 << 64) - 1
# The 4-byte stream prelude write_u16(MAGIC)+write_u16(VERSION) produces.
_STREAM_HEADER = struct.pack("<HH", MAGIC, VERSION)


def serial_version_uid(klass: Klass) -> int:
    """Deterministic 64-bit UID from the class name and field signature."""
    h = hashlib.sha256(klass.name.encode("utf-8"))
    if isinstance(klass, InstanceKlass):
        for descriptor in klass.fields:
            h.update(descriptor.name.encode("utf-8"))
            h.update(descriptor.kind.value.encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


class JavaSerializer(Serializer):
    """The baseline Java built-in serializer (paper "Java S/D").

    ``use_plans=True`` (the default) serializes through :meth:`encode_walk`
    and decodes through the compiled plans of :mod:`repro.formats.plans`:
    byte-identical streams, heap images, sections, and work profiles,
    minus the per-object interpretive overhead. ``use_plans=False`` keeps
    the original field-by-field interpreter — the oracle the fuzz
    equivalence tests compare against. Chunked encodes always run
    :meth:`encode_walk`.
    """

    name = "java-builtin"

    def __init__(self, use_plans: bool = True):
        self.use_plans = use_plans

    # ------------------------------------------------------------------ serialize

    def serialize(self, root: HeapObject) -> SerializationResult:
        if self.use_plans:
            return super().serialize(root)
        writer = StreamWriter(pooled=True)
        profile = WorkProfile()
        reflect = JavaReflection()
        handles: Dict[int, int] = {}  # heap address -> stream handle
        class_handles: Dict[str, int] = {}
        next_handle = [0]

        writer.write_u16(MAGIC, _SECTION_META)
        writer.write_u16(VERSION, _SECTION_META)

        def assign_handle() -> int:
            handle = next_handle[0]
            next_handle[0] += 1
            return handle

        def write_class_desc(klass: Klass) -> None:
            existing = class_handles.get(klass.name)
            if existing is not None:
                writer.write_u8(TC_REFERENCE, _SECTION_REFS)
                writer.write_u32(existing, _SECTION_REFS)
                return
            writer.write_u8(TC_CLASSDESC, _SECTION_META)
            writer.write_utf(klass.name, _SECTION_TYPES)
            writer.write_u64(serial_version_uid(klass), _SECTION_META)
            writer.write_u8(SC_SERIALIZABLE, _SECTION_META)
            if isinstance(klass, InstanceKlass):
                writer.write_u16(len(klass.fields), _SECTION_META)
                for descriptor in klass.fields:
                    writer.write_u8(_TYPE_CODES[descriptor.kind], _SECTION_META)
                    writer.write_utf(descriptor.name, _SECTION_TYPES)
                    if descriptor.kind.is_reference:
                        writer.write_utf(_REFERENCE_TYPE_STRING, _SECTION_TYPES)
            else:
                assert isinstance(klass, ArrayKlass)
                writer.write_u16(0, _SECTION_META)
                writer.write_u8(_TYPE_CODES[klass.element_kind], _SECTION_META)
            class_handles[klass.name] = assign_handle()
            profile.add_instructions(_INSTR_PER_CLASSDESC)

        def write_primitive(kind: FieldKind, value) -> None:
            if kind is FieldKind.BOOLEAN:
                writer.write_u8(1 if value else 0, _SECTION_DATA)
            elif kind is FieldKind.BYTE:
                writer.write_bytes(
                    (int(value) & 0xFF).to_bytes(1, "little"), _SECTION_DATA
                )
            elif kind is FieldKind.CHAR:
                writer.write_u16(int(value) & 0xFFFF, _SECTION_DATA)
            elif kind is FieldKind.SHORT:
                writer.write_u16(int(value) & 0xFFFF, _SECTION_DATA)
            elif kind is FieldKind.INT:
                writer.write_bytes(
                    (int(value) & 0xFFFFFFFF).to_bytes(4, "little"), _SECTION_DATA
                )
            elif kind is FieldKind.FLOAT:
                import struct as _struct

                writer.write_bytes(
                    _struct.pack("<f", float(value)), _SECTION_DATA
                )
            elif kind is FieldKind.LONG:
                writer.write_i64(int(value), _SECTION_DATA)
            elif kind is FieldKind.DOUBLE:
                writer.write_f64(float(value), _SECTION_DATA)
            else:  # pragma: no cover - guarded by callers
                raise FormatError(f"not a primitive kind: {kind}")
            profile.value_fields += 1
            profile.add_instructions(_INSTR_PER_PRIMITIVE)

        def emit_object(obj: HeapObject) -> Iterator[Optional[HeapObject]]:
            """Generator writing one object; yields reference children."""
            profile.objects += 1
            profile.add_instructions(_INSTR_PER_OBJECT)
            profile.aux_random_accesses += _AUX_ACCESSES_PER_OBJECT_SER
            profile.dependent_loads += 2  # header + klass metadata chase
            if isinstance(obj.klass, ArrayKlass):
                writer.write_u8(TC_ARRAY, _SECTION_META)
                write_class_desc(obj.klass)
                handles[obj.address] = assign_handle()
                writer.write_u32(obj.length, _SECTION_META)
                if obj.klass.element_kind.is_reference:
                    for index in range(obj.length):
                        profile.reference_fields += 1
                        profile.add_instructions(_INSTR_PER_REFERENCE)
                        yield obj.get_element(index)  # type: ignore[misc]
                else:
                    # One bulk heap read for the whole element storage; the
                    # per-element stream encoding (and accounting) is
                    # unchanged.
                    element_kind = obj.klass.element_kind
                    for value in obj.get_elements():
                        write_primitive(element_kind, value)
            else:
                klass = obj.klass
                assert isinstance(klass, InstanceKlass)
                writer.write_u8(TC_OBJECT, _SECTION_META)
                write_class_desc(klass)
                handles[obj.address] = assign_handle()
                for descriptor in klass.fields:
                    if descriptor.kind.is_reference:
                        profile.reference_fields += 1
                        profile.add_instructions(_INSTR_PER_REFERENCE)
                        profile.dependent_loads += 1
                        yield reflect.get_field(obj, descriptor.name)  # type: ignore[misc]
                    else:
                        write_primitive(
                            descriptor.kind, reflect.get_field(obj, descriptor.name)
                        )

        # Iterative driver: keeps the Java recursive write order without
        # Python recursion-depth limits on deep lists.
        stack = [emit_object(root)]
        while stack:
            try:
                child = next(stack[-1])
            except StopIteration:
                stack.pop()
                continue
            if child is None:
                writer.write_u8(TC_NULL, _SECTION_REFS)
            elif child.address in handles:
                writer.write_u8(TC_REFERENCE, _SECTION_REFS)
                writer.write_u32(handles[child.address], _SECTION_REFS)
            else:
                stack.append(emit_object(child))

        data = writer.detach()
        profile.add_instructions(reflect.cost.estimated_instructions())
        profile.add_instructions(len(data) * _INSTR_PER_STREAM_BYTE)
        profile.bytes_read = ObjectGraph.from_root(root).total_bytes
        profile.bytes_written = len(data)
        stream = SerializedStream(
            format_name=self.name,
            data=data,
            sections=dict(writer.sections),
            object_count=profile.objects,
            graph_bytes=profile.bytes_read,
        )
        stream.check_sections()
        return SerializationResult(stream, profile)

    # ------------------------------------------------------------- encode walk

    def encode_walk(self, root: HeapObject, out):
        """The production encode: byte- and profile-identical to the
        interpreter, written against the sink ``out``.

        Per object: one per-call cell probe, one fused tag+class-backref
        prefix append, one bulk image read, then the plan's merged
        copy/float/ref ops. Shape-constant profile deltas are counted per
        shape and folded once at the end of the walk; only
        graph-dependent quantities (array lengths, null/backref bytes)
        accumulate inline. Frames: 0 = instance with reference fields,
        1 = reference array, 2 = primitive-array image larger than one
        sink step.
        """
        ready, step = P.sink_state(out)
        heap = root.heap
        read = heap.memory.read
        object_at = heap.object_at
        header_slots = heap.header_slots
        start = len(out)
        out += _STREAM_HEADER

        handles: Dict[int, int] = {}  # heap address -> stream handle
        class_handles: Dict[str, int] = {}
        next_handle = 0

        ref_count = 0
        data_dyn = 0
        instr_dyn = 0
        value_fields_dyn = 0
        reference_fields_dyn = 0
        graph_bytes_dyn = 0

        # klass -> [prefix, count, plan, is_array, wrote_desc]
        cells: Dict[Klass, list] = {}

        def emit(obj: HeapObject):
            """Emit one object's prelude (and a leaf's fields); returns a
            frame if more of the object remains to be written."""
            nonlocal out, next_handle, data_dyn, instr_dyn
            nonlocal value_fields_dyn, reference_fields_dyn, graph_bytes_dyn
            klass = obj.klass
            cell = cells.get(klass)
            if cell is None:
                # First occurrence of a shape: tag + full class descriptor
                # (or a class back reference if another klass object of
                # the same name already wrote one).
                plan = P.plan_for(JavaSerializer.name, klass, header_slots)
                is_array = klass.is_array
                tag = TC_ARRAY if is_array else TC_OBJECT
                out.append(tag)
                class_handle = class_handles.get(klass.name)
                wrote_desc = class_handle is None
                if wrote_desc:
                    out += plan.desc_blob
                    class_handle = next_handle
                    class_handles[klass.name] = class_handle
                    next_handle += 1
                else:
                    out.append(TC_REFERENCE)
                    out += _U32.pack(class_handle)
                prefix = bytes((tag, TC_REFERENCE)) + _U32.pack(class_handle)
                cells[klass] = [prefix, 1, plan, is_array, wrote_desc]
            else:
                out += cell[0]
                cell[1] += 1
                plan = cell[2]
                is_array = cell[3]
            handles[obj.address] = next_handle
            next_handle += 1
            if not is_array:
                raw = read(obj.address, plan.size_bytes)
                if plan.n_ref:
                    return [0, plan.enc_ops, 0, raw]
                for op, begin, end in plan.enc_ops:
                    if op == P.OP_COPY:
                        out += raw[begin:end]
                    else:  # OP_FLOAT
                        out += _F32.pack(_F64.unpack_from(raw, begin)[0])
                return None
            length = obj.length
            out += _U32.pack(length)
            instr_dyn += length * plan.ser_elem_instr
            graph_bytes_dyn += obj.size_bytes
            element_base = obj.fields_base + 8
            if plan.is_ref:
                reference_fields_dyn += length
                if length:
                    addresses = struct.unpack(
                        f"<{length}Q", read(element_base, length * 8)
                    )
                    return [1, addresses, 0]
                return None
            value_fields_dyn += length
            nbytes = length * plan.element_width
            if nbytes:
                data_dyn += nbytes
                image = read(element_base, nbytes)
                if nbytes > step:
                    return [2, image]
                out += image
            return None

        frame = emit(root)
        stack: List[list] = [frame] if frame is not None else []
        while stack:
            if ready:
                yield
            frame = stack[-1]
            descend = None
            kind = frame[0]
            if kind == 0:  # instance: interleaved copy/float/ref ops
                ops = frame[1]
                index = frame[2]
                raw = frame[3]
                op_count = len(ops)
                while index < op_count:
                    if ready:
                        yield
                    op, begin, end = ops[index]
                    index += 1
                    if op == P.OP_COPY:
                        out += raw[begin:end]
                    elif op == P.OP_FLOAT:
                        out += _F32.pack(_F64.unpack_from(raw, begin)[0])
                    else:  # OP_REF
                        address = _U64.unpack_from(raw, begin)[0]
                        if address == 0:
                            out.append(TC_NULL)
                            ref_count += 1
                        else:
                            handle = handles.get(address)
                            if handle is not None:
                                out.append(TC_REFERENCE)
                                out += _U32.pack(handle)
                                ref_count += 5
                            else:
                                descend = emit(object_at(address))
                                if descend is not None:
                                    break
                frame[2] = index
            elif kind == 1:  # reference array: a run of ref slots
                addresses = frame[1]
                index = frame[2]
                count = len(addresses)
                while index < count:
                    if ready:
                        yield
                    address = addresses[index]
                    index += 1
                    if address == 0:
                        out.append(TC_NULL)
                        ref_count += 1
                    else:
                        handle = handles.get(address)
                        if handle is not None:
                            out.append(TC_REFERENCE)
                            out += _U32.pack(handle)
                            ref_count += 5
                        else:
                            descend = emit(object_at(address))
                            if descend is not None:
                                break
                frame[2] = index
            else:  # primitive-array image, one sink step at a time
                yield from P.write_slices(out, frame[1], ready, step)
            if descend is not None:
                stack.append(descend)
            else:
                stack.pop()

        total = len(out) - start

        # Fold the shape-constant deltas: one multiply per shape, exactly
        # the numbers the interpreter accumulates per object.
        objects = 0
        instr = 0
        aux = 0
        dep = 0
        value_fields = value_fields_dyn
        reference_fields = reference_fields_dyn
        data_count = data_dyn
        graph_bytes = graph_bytes_dyn
        meta_count = len(_STREAM_HEADER)
        type_count = 0
        for _, count, plan, is_array, wrote_desc in cells.values():
            objects += count
            aux += count * plan.ser_aux
            dep += count * plan.ser_dep
            if is_array:  # tag byte + 4-byte length per object
                instr += count * plan.ser_instr
                meta_count += count * 5
            else:
                instr += count * (plan.ser_instr + plan.ser_reflect_instr)
                meta_count += count
                value_fields += count * plan.n_prim
                reference_fields += count * plan.n_ref
                data_count += count * plan.enc_data_bytes
                graph_bytes += count * plan.size_bytes
            if wrote_desc:  # first occurrence wrote the full descriptor
                instr += plan.desc_ser_instr
                meta_count += plan.desc_meta_bytes
                type_count += plan.desc_type_bytes
                ref_count += 5 * (count - 1)
            else:  # every occurrence used a 5-byte class back reference
                ref_count += 5 * count
        instr += instr_dyn + total * _INSTR_PER_STREAM_BYTE

        profile = WorkProfile(
            instructions=instr,
            objects=objects,
            value_fields=value_fields,
            reference_fields=reference_fields,
            bytes_read=graph_bytes,
            bytes_written=total,
            dependent_loads=dep,
            aux_random_accesses=aux,
        )
        sections = {_SECTION_META: meta_count, _SECTION_TYPES: type_count}
        if data_count:
            sections[_SECTION_DATA] = data_count
        if ref_count:
            sections[_SECTION_REFS] = ref_count
        return P.EncodeSummary(
            self.name, total, sections, profile, objects, graph_bytes
        )

    # ---------------------------------------------------------------- deserialize

    def deserialize(
        self,
        stream: SerializedStream,
        heap: Heap,
        limits: Optional[DecodeLimits] = None,
    ) -> DeserializationResult:
        limits = resolve_limits(limits)
        if self.use_plans:
            return self._deserialize_planned(stream, heap, limits)
        limits.check_stream_bytes(len(stream.data))
        reader = StreamReader(stream.data)
        profile = WorkProfile()
        reflect = JavaReflection()
        handle_table: Dict[int, object] = {}  # handle -> HeapObject or Klass
        next_handle = [0]

        if reader.read_u16() != MAGIC or reader.read_u16() != VERSION:
            raise FormatError("bad Java serialization stream header")

        def assign_handle(value: object) -> None:
            handle_table[next_handle[0]] = value
            next_handle[0] += 1

        def read_class_desc() -> Klass:
            tag = reader.read_u8()
            if tag == TC_REFERENCE:
                value = handle_table.get(reader.read_u32())
                if not isinstance(value, Klass):
                    raise FormatError("class-descriptor handle resolves to non-class")
                return value
            if tag != TC_CLASSDESC:
                raise FormatError(f"expected class descriptor, got tag {tag:#x}")
            name = reader.read_utf()
            uid = reader.read_u64()
            reader.read_u8()  # flags
            # Resolving a class by name: the expensive string lookup the
            # paper blames for Java S/D type-resolution overhead.
            profile.add_instructions(_INSTR_PER_CLASSDESC + len(name) * 2)
            try:
                klass = heap.registry.by_name(name)
            except HeapError:
                raise UnknownClassError(
                    repr(name),
                    detail="class name not registered",
                    offset=reader.position,
                ) from None
            if serial_version_uid(klass) != uid:
                raise FormatError(f"serialVersionUID mismatch for {name}")
            if isinstance(klass, InstanceKlass):
                nfields = reader.read_u16()
                if nfields != len(klass.fields):
                    raise FormatError(f"field count mismatch for {name}")
                for descriptor in klass.fields:
                    code = reader.read_u8()
                    if _KIND_BY_CODE.get(code) is not descriptor.kind:
                        raise FormatError(f"field kind mismatch in {name}")
                    reader.read_utf()  # field name
                    if descriptor.kind.is_reference:
                        reader.read_utf()  # type string
            else:
                reader.read_u16()
                reader.read_u8()
            assign_handle(klass)
            return klass

        def read_primitive(kind: FieldKind):
            import struct as _struct

            if kind is FieldKind.BOOLEAN:
                return bool(reader.read_u8())
            if kind is FieldKind.BYTE:
                raw = reader.read_u8()
                return raw - 256 if raw >= 128 else raw
            if kind is FieldKind.CHAR:
                return reader.read_u16()
            if kind is FieldKind.SHORT:
                raw = reader.read_u16()
                return raw - 65536 if raw >= 32768 else raw
            if kind is FieldKind.INT:
                return reader.read_i32()
            if kind is FieldKind.FLOAT:
                return _struct.unpack("<f", reader.read_bytes(4))[0]
            if kind is FieldKind.LONG:
                return reader.read_i64()
            if kind is FieldKind.DOUBLE:
                return reader.read_f64()
            raise FormatError(f"not a primitive kind: {kind}")

        def parse_object(tag: int, holder: list):
            """Generator parsing one object; yields to request a reference.

            Appends the allocated object to ``holder`` so the driver can
            recover it when the generator finishes.
            """
            klass = read_class_desc()
            limits.check_objects(profile.objects + 1)
            profile.objects += 1
            profile.allocations += 1
            profile.add_instructions(_INSTR_PER_OBJECT_DESER + _INSTR_PER_ALLOC)
            profile.aux_random_accesses += _AUX_ACCESSES_PER_OBJECT_DESER
            if tag == TC_ARRAY:
                if not isinstance(klass, ArrayKlass):
                    raise FormatError("TC_ARRAY with non-array class")
                length = reader.read_u32()
                limits.check_array_length(length)
                obj = heap.allocate(klass, length)
                assign_handle(obj)
                holder.append(obj)
                if klass.element_kind.is_reference:
                    for index in range(length):
                        profile.reference_fields += 1
                        profile.add_instructions(_INSTR_PER_FIELD_DESER)
                        child = yield obj
                        obj.set_element(index, child)
                else:
                    # Decode the whole element run, then commit it with one
                    # bulk heap write; stream decode order and accounting
                    # are unchanged.
                    values = []
                    for index in range(length):
                        values.append(read_primitive(klass.element_kind))
                        profile.value_fields += 1
                        # Primitive array elements bypass reflection.
                        profile.add_instructions(_INSTR_PER_PRIMITIVE // 4)
                    obj.set_elements(values)
            else:
                if not isinstance(klass, InstanceKlass):
                    raise FormatError("TC_OBJECT with array class")
                obj = heap.allocate(klass)
                assign_handle(obj)
                holder.append(obj)
                for descriptor in klass.fields:
                    if descriptor.kind.is_reference:
                        profile.reference_fields += 1
                        profile.add_instructions(_INSTR_PER_FIELD_DESER)
                        child = yield obj
                        reflect.set_field(obj, descriptor.name, child)
                    else:
                        value = read_primitive(descriptor.kind)
                        reflect.set_field(obj, descriptor.name, value)
                        profile.value_fields += 1
                        profile.add_instructions(_INSTR_PER_FIELD_DESER)
            return

        def start_content():
            """Read a content tag; returns ('value', v) or ('frame', gen, holder)."""
            tag = reader.read_u8()
            if tag == TC_NULL:
                return ("value", None, None)
            if tag == TC_REFERENCE:
                value = handle_table.get(reader.read_u32())
                if not isinstance(value, HeapObject):
                    raise FormatError("object handle resolves to non-object")
                return ("value", value, None)
            if tag in (TC_OBJECT, TC_ARRAY):
                holder: list = []
                return ("frame", parse_object(tag, holder), holder)
            raise FormatError(f"unexpected tag {tag:#x}")

        _UNSET = object()
        kind, payload, holder = start_content()
        if kind == "value":
            raise FormatError("stream root must be an object")
        stack = [(payload, holder)]
        pending = _UNSET
        root_obj: Optional[HeapObject] = None
        while stack:
            gen, gen_holder = stack[-1]
            try:
                if pending is _UNSET:
                    next(gen)
                else:
                    value, pending = pending, _UNSET
                    gen.send(value)
                # The generator requested one reference value.
                kind, payload, holder = start_content()
                if kind == "value":
                    pending = payload
                else:
                    limits.check_depth(len(stack) + 1)
                    stack.append((payload, holder))
            except StopIteration:
                stack.pop()
                if not gen_holder:
                    raise FormatError("object frame finished without allocating")
                finished = gen_holder[0]
                pending = finished
                root_obj = finished  # last finished frame is the root

        if not isinstance(root_obj, HeapObject):
            raise FormatError("deserialization produced no root object")
        profile.bytes_read = len(stream.data)
        profile.bytes_written = ObjectGraph.from_root(root_obj).total_bytes
        profile.add_instructions(reflect.cost.estimated_instructions())
        profile.add_instructions(len(stream.data) * _INSTR_PER_STREAM_BYTE)
        return DeserializationResult(root_obj, profile)

    # ----------------------------------------------------- deserialize (plan kernel)

    @staticmethod
    def _slow_parse_class_desc(data: bytes, pos: int, klass: Klass, name: str) -> int:
        """Field-by-field descriptor parse, used when the fast byte compare
        against the plan's expected descriptor fails.

        Replicates the interpreter exactly — including its leniency about
        field-name strings (read and discarded) and its precise error
        messages for uid/count/kind mismatches. Returns the new cursor.
        """
        reader = StreamReader(data)
        reader._pos = pos
        uid = reader.read_u64()
        reader.read_u8()  # flags
        if serial_version_uid(klass) != uid:
            raise FormatError(f"serialVersionUID mismatch for {name}")
        if isinstance(klass, InstanceKlass):
            nfields = reader.read_u16()
            if nfields != len(klass.fields):
                raise FormatError(f"field count mismatch for {name}")
            for descriptor in klass.fields:
                code = reader.read_u8()
                if _KIND_BY_CODE.get(code) is not descriptor.kind:
                    raise FormatError(f"field kind mismatch in {name}")
                reader.read_utf()  # field name
                if descriptor.kind.is_reference:
                    reader.read_utf()  # type string
        else:
            reader.read_u16()
            reader.read_u8()
        return reader._pos

    def _deserialize_planned(
        self, stream: SerializedStream, heap: Heap, limits: DecodeLimits
    ) -> DeserializationResult:
        """Compiled-plan deserialize: identical heap image and profile.

        Class descriptors are validated with one slice comparison against
        the plan's expected bytes; field values accumulate into a slot-word
        list committed with one bulk ``write_words`` per object, preserving
        the interpreter's allocation order (and therefore identity hashes).
        """
        data = stream.data
        n_data = len(data)
        limits.check_stream_bytes(n_data)
        max_objects = limits.max_objects
        max_array_length = limits.max_array_length
        max_depth = limits.max_depth
        memory = heap.memory
        header_slots = heap.header_slots
        pos = 0

        if n_data < 4:
            offset = 0 if n_data < 2 else 2
            raise TruncatedStreamError(
                offset=offset, needed=2, available=n_data - offset
            )
        if data[:4] != _STREAM_HEADER:
            raise FormatError("bad Java serialization stream header")
        pos = 4

        handle_table: list = []  # Klass and HeapObject entries, handle order
        plans_local: Dict[Klass, object] = {}

        objects = 0
        allocations = 0
        instr = 0
        reflect_instr = 0
        aux = 0
        value_fields = 0
        reference_fields = 0
        graph_bytes = 0

        def underflow(count: int) -> FormatError:
            return TruncatedStreamError(
                offset=pos, needed=count, available=n_data - pos
            )

        def read_class_desc():
            """Parse a classdesc; returns ``(klass, plan)``."""
            nonlocal pos, instr
            if pos >= n_data:
                raise underflow(1)
            tag = data[pos]
            pos += 1
            if tag == TC_REFERENCE:
                if pos + 4 > n_data:
                    raise underflow(4)
                handle = _U32.unpack_from(data, pos)[0]
                pos += 4
                value = handle_table[handle] if handle < len(handle_table) else None
                if not isinstance(value, Klass):
                    raise FormatError(
                        "class-descriptor handle resolves to non-class"
                    )
                plan = plans_local.get(value)
                if plan is None:
                    plan = P.plan_for(self.name, value, header_slots)
                    plans_local[value] = plan
                return value, plan
            if tag != TC_CLASSDESC:
                raise FormatError(f"expected class descriptor, got tag {tag:#x}")
            if pos + 2 > n_data:
                raise underflow(2)
            name_length = data[pos] | (data[pos + 1] << 8)
            pos += 2
            if pos + name_length > n_data:
                raise underflow(name_length)
            try:
                name = data[pos:pos + name_length].decode("utf-8")
            except UnicodeDecodeError as error:
                raise FormatError(f"invalid UTF-8 in stream: {error}") from None
            pos += name_length
            try:
                klass = heap.registry.by_name(name)
            except HeapError:
                raise UnknownClassError(
                    repr(name), detail="class name not registered", offset=pos
                ) from None
            plan = plans_local.get(klass)
            if plan is None:
                plan = P.plan_for(self.name, klass, header_slots)
                plans_local[klass] = plan
            tail = plan.desc_tail
            if data[pos:pos + len(tail)] == tail:
                pos += len(tail)
            else:
                pos = self._slow_parse_class_desc(data, pos, klass, name)
            instr += plan.desc_de_instr
            handle_table.append(klass)
            return klass, plan

        def run_dec_ops(ops, index: int, words: list) -> int:
            """Execute decode ops until done or the next DOP_REF; returns
            the op index where execution stopped."""
            nonlocal pos, value_fields
            op_count = len(ops)
            while index < op_count:
                op, field_index, extra = ops[index]
                if op == P.DOP_REF:
                    return index
                if op == P.DOP_WORDS:
                    nbytes = extra * 8
                    if pos + nbytes > n_data:
                        raise underflow(nbytes)
                    words[field_index:field_index + extra] = struct.unpack_from(
                        f"<{extra}Q", data, pos
                    )
                    pos += nbytes
                elif op == P.DOP_INT:
                    if pos + 4 > n_data:
                        raise underflow(4)
                    words[field_index] = _I32.unpack_from(data, pos)[0] & _MASK64
                    pos += 4
                elif op == P.DOP_FLOAT:
                    if pos + 4 > n_data:
                        raise underflow(4)
                    words[field_index] = _U64.unpack(
                        _F64.pack(_F32.unpack_from(data, pos)[0])
                    )[0]
                    pos += 4
                elif op == P.DOP_BOOL:
                    if pos >= n_data:
                        raise underflow(1)
                    words[field_index] = 1 if data[pos] else 0
                    pos += 1
                elif op == P.DOP_BYTE:
                    if pos >= n_data:
                        raise underflow(1)
                    raw = data[pos]
                    pos += 1
                    words[field_index] = (
                        raw if raw < 128 else (raw - 256) & _MASK64
                    )
                elif op == P.DOP_CHAR:
                    if pos + 2 > n_data:
                        raise underflow(2)
                    words[field_index] = data[pos] | (data[pos + 1] << 8)
                    pos += 2
                else:  # DOP_SHORT
                    if pos + 2 > n_data:
                        raise underflow(2)
                    raw = data[pos] | (data[pos + 1] << 8)
                    pos += 2
                    words[field_index] = (
                        raw if raw < 32768 else (raw - 65536) & _MASK64
                    )
                index += 1
            return index

        def start_content():
            """Parse one content item: ``(0, value)`` for null/backref/leaf
            objects, ``(1, frame)`` for objects awaiting reference children."""
            nonlocal pos, objects, allocations, instr, reflect_instr, aux
            nonlocal value_fields, reference_fields, graph_bytes
            if pos >= n_data:
                raise underflow(1)
            tag = data[pos]
            pos += 1
            if tag == TC_NULL:
                return 0, None
            if tag == TC_REFERENCE:
                if pos + 4 > n_data:
                    raise underflow(4)
                handle = _U32.unpack_from(data, pos)[0]
                pos += 4
                value = handle_table[handle] if handle < len(handle_table) else None
                if not isinstance(value, HeapObject):
                    raise FormatError("object handle resolves to non-object")
                return 0, value
            if tag not in (TC_OBJECT, TC_ARRAY):
                raise FormatError(f"unexpected tag {tag:#x}")
            klass, plan = read_class_desc()
            objects += 1
            if objects > max_objects:
                limits.check_objects(objects)
            allocations += 1
            aux += plan.de_aux
            if tag == TC_ARRAY:
                if not isinstance(klass, ArrayKlass):
                    raise FormatError("TC_ARRAY with non-array class")
                if pos + 4 > n_data:
                    raise underflow(4)
                length = _U32.unpack_from(data, pos)[0]
                pos += 4
                if length > max_array_length:
                    limits.check_array_length(length)
                obj = heap.allocate(klass, length)
                handle_table.append(obj)
                instr += plan.de_instr + length * plan.de_elem_instr
                graph_bytes += obj.size_bytes
                if plan.is_ref:
                    reference_fields += length
                    if length == 0:
                        return 0, obj
                    return 1, [1, obj, [0] * length, 0]
                value_fields += length
                nbytes = length * plan.element_width
                if nbytes:
                    if pos + nbytes > n_data:
                        raise underflow(nbytes)
                    memory.write(obj.fields_base + 8, data[pos:pos + nbytes])
                    pos += nbytes
                return 0, obj
            if not isinstance(klass, InstanceKlass):
                raise FormatError("TC_OBJECT with array class")
            obj = heap.allocate(klass)
            handle_table.append(obj)
            instr += plan.de_instr
            reflect_instr += plan.de_reflect_instr
            value_fields += plan.n_prim
            reference_fields += plan.n_ref
            graph_bytes += plan.size_bytes
            words = [0] * plan.field_count
            if plan.n_ref == 0:
                run_dec_ops(plan.dec_ops, 0, words)
                if words:
                    memory.write_words(obj.fields_base, words)
                return 0, obj
            return 1, [0, obj, plan.dec_ops, 0, words]

        _UNSET = object()
        kind, payload = start_content()
        if kind == 0:
            if payload is None:
                raise FormatError("stream root must be an object")
            root_obj = payload  # a leaf object: fully parsed inline
            stack: List[list] = []
        else:
            stack = [payload]
            root_obj = payload[1]
        pending = _UNSET
        while stack:
            frame = stack[-1]
            descend = None
            if frame[0] == 0:  # instance frame
                obj, ops, words = frame[1], frame[2], frame[4]
                index = frame[3]
                if pending is not _UNSET:
                    child, pending = pending, _UNSET
                    words[ops[index][1]] = 0 if child is None else child.address
                    index += 1
                op_count = len(ops)
                while True:
                    index = run_dec_ops(ops, index, words)
                    if index >= op_count:
                        break
                    kind, payload = start_content()
                    if kind == 0:
                        words[ops[index][1]] = (
                            0 if payload is None else payload.address
                        )
                        index += 1
                    else:
                        descend = payload
                        break
                frame[3] = index
                if descend is None:
                    if words:
                        memory.write_words(obj.fields_base, words)
                    stack.pop()
                    pending = obj
            else:  # reference-array frame
                obj, words = frame[1], frame[2]
                index = frame[3]
                if pending is not _UNSET:
                    child, pending = pending, _UNSET
                    words[index] = 0 if child is None else child.address
                    index += 1
                count = len(words)
                while index < count:
                    kind, payload = start_content()
                    if kind == 0:
                        words[index] = 0 if payload is None else payload.address
                        index += 1
                    else:
                        descend = payload
                        break
                frame[3] = index
                if descend is None:
                    memory.write_words(obj.fields_base + 8, words)
                    stack.pop()
                    pending = obj
            if descend is not None:
                if len(stack) >= max_depth:
                    limits.check_depth(len(stack) + 1)
                stack.append(descend)

        instr += reflect_instr + n_data * _INSTR_PER_STREAM_BYTE
        profile = WorkProfile()
        profile.instructions = instr
        profile.objects = objects
        profile.allocations = allocations
        profile.value_fields = value_fields
        profile.reference_fields = reference_fields
        profile.aux_random_accesses = aux
        profile.bytes_read = n_data
        profile.bytes_written = graph_bytes
        return DeserializationResult(root_obj, profile)
