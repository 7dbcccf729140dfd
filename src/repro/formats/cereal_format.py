"""The Cereal serialization format (paper Section IV, Figures 4 and 5).

The stream decouples three structures so hardware can process them in
parallel (value copying and reference adjustment become independent):

* **value array** — every *value* slot of every object, in image order:
  the mark word, the class-ID word (the klass pointer translated through
  the Klass Pointer Table), the zeroed Cereal extension word, and all
  primitive field slots, each 8 B;
* **reference array** — one entry per *reference* slot in image order: the
  target's relative address in the deserialized image (biased by +1 so 0
  encodes null), packed with the Section IV-B scheme;
* **layout bitmaps** — per-object bitmaps, one bit per 8 B slot (1 =
  reference), packed with the same scheme. A bitmap's bit length times 8 is
  the object's size, so no separate size table is needed.

Objects appear in **breadth-first** order — the order the hardware's header
manager queue discovers them (Section V-B).

Stream framing (all little-endian):

    u32 graph_total_bytes     u32 object_count
    u32 value_array_bytes     value array
    u32 ref_data_bytes        u32 ref_end_map_bytes      u32 ref_count
    packed references         reference end map
    u32 bitmap_data_bytes     u32 bitmap_end_map_bytes
    packed layout bitmaps     bitmap end map

This module is the *functional reference implementation*; the cycle-level
model in :mod:`repro.cereal` produces identical bytes while accounting time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional

from repro.common.bufpool import acquire_buffer, release_buffer
from repro.common.errors import (
    FormatError,
    RegistrationError,
    TruncatedStreamError,
)
from repro.formats.base import (
    DeserializationResult,
    SerializationResult,
    SerializedStream,
    Serializer,
    WorkProfile,
)
from repro.common.bitstream import bits_to_word, word_to_bits
from repro.common.bitutils import bytes_to_bits
from repro.formats import plans as P
from repro.formats.packing import (
    PackedArray,
    pack_bitmap_words,
    pack_items,
    unpack_bitmap_words,
    unpack_items,
)
from repro.formats.limits import DecodeLimits, resolve_limits
from repro.jvm.layout_cache import layout_of
from repro.formats.registry import ClassRegistration
from repro.jvm.graph import ObjectGraph, SlotRunGraph
from repro.jvm.heap import Heap, HeapObject, NULL_ADDRESS
from repro.jvm.klass import ArrayKlass, SLOT_BYTES
from repro.jvm.markword import MarkWord, identity_hash_for

SECTION_META = "metadata"
SECTION_VALUES = "value_array"
SECTION_REFS = "reference_array"
SECTION_REF_END_MAP = "reference_end_map"
SECTION_BITMAPS = "layout_bitmap"
SECTION_BITMAP_END_MAP = "bitmap_end_map"

_MARK_SLOT = 0
_KLASS_SLOT = 1

# Stream framing flags (one byte after the graph size / object count).
_FLAG_PACKED = 0x01
_FLAG_MARK_STRIPPED = 0x02

_INSTR_PER_OBJECT = 20
_INSTR_PER_SLOT = 2


@dataclass
class CerealStreamSections:
    """Decoded views of a Cereal stream's three structures.

    ``packed`` selects which representation is populated: the optimized
    Section IV-B format carries :class:`PackedArray`s, the Section IV-A
    baseline carries raw 8 B reference words and length-prefixed bitmaps.
    """

    graph_total_bytes: int
    object_count: int
    value_words: List[int]
    references: Optional[PackedArray] = None
    bitmaps: Optional[PackedArray] = None
    packed: bool = True
    mark_stripped: bool = False
    raw_references: Optional[List[int]] = None
    raw_bitmaps: Optional[List[List[int]]] = None

    def reference_values(self) -> List[int]:
        """Reference-array entries (relative+1, 0=null), either format."""
        if self.packed:
            assert self.references is not None
            return unpack_items(self.references)
        assert self.raw_references is not None
        return list(self.raw_references)

    def layout_bitmaps(self) -> List[List[int]]:
        """Per-object layout bitmaps, either format."""
        return [
            word_to_bits(word, width)
            for word, width in self.layout_bitmap_words()
        ]

    def layout_bitmap_words(self) -> List[tuple]:
        """Per-object layout bitmaps as ``(word, width)`` pairs (fast path)."""
        if self.packed:
            assert self.bitmaps is not None
            return unpack_bitmap_words(self.bitmaps)
        assert self.raw_bitmaps is not None
        return [bits_to_word(bitmap) for bitmap in self.raw_bitmaps]

    @property
    def reference_count(self) -> int:
        if self.packed:
            assert self.references is not None
            return self.references.item_count
        assert self.raw_references is not None
        return len(self.raw_references)


class CerealSerializer(Serializer):
    """Functional model of Cereal's S/D with the optimized packed format.

    ``RegisterClass`` must be called for every serializable type, mirroring
    the hardware's Klass Pointer Table / Class ID Table population
    (Section V-A); the tables bound the number of types (Section V-E).

    ``strip_mark_word=True`` enables the header-strip size optimization of
    Figure 16: mark words are dropped from the value array and rebuilt at
    the receiver (identity hashes change).
    """

    name = "cereal"

    def __init__(
        self,
        registration: Optional[ClassRegistration] = None,
        max_class_types: int = 4096,
        strip_mark_word: bool = False,
        use_packing: bool = True,
        use_plans: bool = True,
    ):
        if registration is None:
            registration = ClassRegistration(max_entries=max_class_types)
        self.registration = registration
        self.strip_mark_word = strip_mark_word
        # use_packing=False emits the Section IV-A baseline format: raw
        # 8 B reference offsets and an 8 B length word per layout bitmap.
        self.use_packing = use_packing
        # use_plans=True serializes through encode_walk and decodes through
        # compiled per-shape plans (repro.formats.plans); False keeps the
        # interpreter (the oracle). Streams are byte-identical either way.
        self.use_plans = use_plans

    def register_class(self, klass) -> int:
        """The paper's ``RegisterClass(Class Type)`` API."""
        return self.registration.register(klass)

    # ------------------------------------------------------------------ serialize

    def serialize(self, root: HeapObject) -> SerializationResult:
        if self.use_plans:
            return super().serialize(root)
        graph = ObjectGraph.from_root(root, order="bfs")
        profile = WorkProfile()
        heap = root.heap
        memory = heap.memory
        header_slots = heap.header_slots

        value_words: List[int] = []
        reference_values: List[int] = []
        bitmap_words: List[tuple] = []
        relative_address = graph.relative_address

        for obj in graph:
            profile.objects += 1
            profile.add_instructions(_INSTR_PER_OBJECT)
            if not self.registration.is_registered(obj.klass):
                raise RegistrationError(
                    f"class {obj.klass.name!r} not registered with Cereal; "
                    f"call register_class() first"
                )
            class_id = self.registration.id_of(obj.klass)
            # All per-shape metadata comes from the memoized klass layout;
            # the whole object image is read in one bulk word access.
            layout = layout_of(obj.klass, header_slots, obj.length)
            bitmap_words.append((layout.bitmap_word, layout.bitmap_width))
            words = memory.read_words(obj.address, layout.total_slots)
            profile.add_instructions(_INSTR_PER_SLOT * layout.total_slots)

            if not self.strip_mark_word:
                value_words.append(words[_MARK_SLOT])
            value_words.append(class_id)
            value_words.extend([0] * (header_slots - 2))  # zeroed extension
            reference_slot_set = layout.reference_slot_set
            for field_slot in range(layout.field_slots):
                raw = words[header_slots + field_slot]
                if field_slot in reference_slot_set:
                    profile.reference_fields += 1
                    if raw == NULL_ADDRESS:
                        reference_values.append(0)
                    else:
                        reference_values.append(relative_address[raw] + 1)
                else:
                    profile.value_fields += 1
                    value_words.append(raw)

        return self._assemble_stream(
            value_words,
            reference_values,
            bitmap_words,
            graph.total_bytes,
            graph.object_count,
            profile,
        )

    def encode_walk(self, root: HeapObject, out):
        """The production encode: per-shape gathers over bulk word reads,
        written against the sink ``out``.

        The value array's length word precedes the values, so the walk
        makes two passes: one plan probe per object to size the value
        array (and to reject unregistered classes before any byte is
        written), then the streaming pass that gathers each object's
        value words through the plan's precomputed index tuples and packs
        them one sink step at a time. References and layout bitmaps — the
        trailing minority sections — collect as int lists during that
        pass and are framed at the end exactly as :meth:`_trailer` lays
        them out for the interpreter. Streams and profiles are identical
        to the interpreter path.
        """
        ready, step = P.sink_state(out)
        graph = SlotRunGraph.from_root(root, order="bfs")
        objects = graph.objects
        heap = root.heap
        read_words = heap.memory.read_words
        header_slots = heap.header_slots
        registration = self.registration
        relative_address = graph.relative_address
        strip_mark = self.strip_mark_word
        extension = [0] * (header_slots - 2)  # zeroed Cereal extension words
        start = len(out)

        # Pass 1: one probe per object into a per-call memo over the
        # process-wide plan cache.
        cells: dict = {}  # (klass, length) -> (plan, class_id)
        object_cells = []
        instr = 0
        value_fields = 0
        reference_fields = 0
        for obj in objects:
            klass = obj.klass
            shape = (klass, obj.length)
            cell = cells.get(shape)
            if cell is None:
                if not registration.is_registered(klass):
                    raise RegistrationError(
                        f"class {klass.name!r} not registered with Cereal; "
                        f"call register_class() first"
                    )
                plan = P.plan_for(
                    CerealSerializer.name, klass, header_slots, obj.length
                )
                cell = cells[shape] = (plan, registration.id_of(klass))
            object_cells.append(cell)
            plan = cell[0]
            instr += plan.instr
            value_fields += plan.n_value
            reference_fields += plan.n_ref
        head_words = (0 if strip_mark else 1) + 1 + len(extension)
        value_bytes_len = (head_words * len(objects) + value_fields) * 8

        flags = (_FLAG_PACKED if self.use_packing else 0) | (
            _FLAG_MARK_STRIPPED if strip_mark else 0
        )
        header = struct.pack(
            "<IIB", graph.total_bytes, graph.object_count, flags
        )
        value_frame = struct.pack("<I", value_bytes_len)
        out += header
        out += value_frame

        # Pass 2: gather value words, packed and written once per step.
        flush_words = step // 8
        values: List[int] = []
        append_value = values.append
        extend_values = values.extend
        reference_values: List[int] = []
        append_ref = reference_values.append
        bitmap_words: List[tuple] = []
        append_bitmap = bitmap_words.append
        for obj, (plan, class_id) in zip(objects, object_cells):
            words = read_words(obj.address, plan.total_slots)
            if not strip_mark:
                append_value(words[_MARK_SLOT])
            append_value(class_id)
            if extension:
                extend_values(extension)
            for index in plan.value_word_indices:
                append_value(words[index])
            for index in plan.ref_word_indices:
                raw = words[index]
                if raw == NULL_ADDRESS:
                    append_ref(0)
                else:
                    append_ref(relative_address[raw] + 1)
            append_bitmap((plan.bitmap_word, plan.bitmap_width))
            if len(values) > flush_words:
                out += struct.pack(f"<{len(values)}Q", *values)
                values.clear()
                if ready:
                    yield
        if values:
            out += struct.pack(f"<{len(values)}Q", *values)

        ref_frame, ref_payload, bitmap_frame, bitmap_payload, trailer = (
            self._trailer(reference_values, bitmap_words)
        )
        out += ref_frame
        for blob in ref_payload:
            yield from P.write_slices(out, blob, ready, step)
        out += bitmap_frame
        for blob in bitmap_payload:
            yield from P.write_slices(out, blob, ready, step)

        total = len(out) - start
        sections = {
            SECTION_META: len(header)
            + len(value_frame)
            + len(ref_frame)
            + len(bitmap_frame),
            SECTION_VALUES: value_bytes_len,
        }
        sections.update(trailer)
        profile = WorkProfile(
            instructions=instr + total // 4,
            objects=len(objects),
            value_fields=value_fields,
            reference_fields=reference_fields,
            bytes_read=graph.total_bytes,
            bytes_written=total,
        )
        return P.EncodeSummary(
            self.name,
            total,
            sections,
            profile,
            graph.object_count,
            graph.total_bytes,
        )

    def _trailer(self, reference_values: List[int], bitmap_words: List[tuple]):
        """Frame the reference array and layout bitmaps.

        Returns ``(ref_frame, ref_payload, bitmap_frame, bitmap_payload,
        sections)``: the two frame words, the blobs following each, and
        their section sizes. Shared by the walk and the interpreter so the
        byte format stays single-source.
        """
        if self.use_packing:
            packed_refs = pack_items(reference_values)
            packed_bitmaps = pack_bitmap_words(bitmap_words)
            ref_frame = struct.pack(
                "<III",
                len(packed_refs.data),
                len(packed_refs.end_map),
                packed_refs.item_count,
            )
            bitmap_frame = struct.pack(
                "<II", len(packed_bitmaps.data), len(packed_bitmaps.end_map)
            )
            ref_payload = [packed_refs.data, packed_refs.end_map]
            bitmap_payload = [packed_bitmaps.data, packed_bitmaps.end_map]
            sections = {
                SECTION_REFS: len(packed_refs.data),
                SECTION_REF_END_MAP: len(packed_refs.end_map),
                SECTION_BITMAPS: len(packed_bitmaps.data),
                SECTION_BITMAP_END_MAP: len(packed_bitmaps.end_map),
            }
        else:
            # Baseline (Section IV-A): 8 B per reference, and each bitmap
            # stored as an 8 B bit-length word plus its raw bytes.
            ref_bytes = struct.pack(
                f"<{len(reference_values)}Q", *reference_values
            )
            bitmap_chunks = []
            for word, width in bitmap_words:
                nbytes = (width + 7) // 8
                bitmap_chunks.append(struct.pack("<Q", width))
                bitmap_chunks.append(
                    (word << (nbytes * 8 - width)).to_bytes(nbytes, "big")
                )
            bitmap_bytes = b"".join(bitmap_chunks)
            ref_frame = struct.pack("<I", len(reference_values))
            bitmap_frame = struct.pack("<I", len(bitmap_bytes))
            ref_payload = [ref_bytes]
            bitmap_payload = [bitmap_bytes]
            sections = {
                SECTION_REFS: len(ref_bytes),
                SECTION_BITMAPS: len(bitmap_bytes),
            }
        return ref_frame, ref_payload, bitmap_frame, bitmap_payload, sections

    def _assemble_stream(
        self,
        value_words: List[int],
        reference_values: List[int],
        bitmap_words: List[tuple],
        graph_total_bytes: int,
        object_count: int,
        profile: WorkProfile,
    ) -> SerializationResult:
        """Frame the interpreter's three gathered structures into the
        output stream."""
        value_bytes = struct.pack(f"<{len(value_words)}Q", *value_words)
        flags = (_FLAG_PACKED if self.use_packing else 0) | (
            _FLAG_MARK_STRIPPED if self.strip_mark_word else 0
        )
        header = struct.pack("<IIB", graph_total_bytes, object_count, flags)
        value_frame = struct.pack("<I", len(value_bytes))
        ref_frame, ref_payload, bitmap_frame, bitmap_payload, trailer = (
            self._trailer(reference_values, bitmap_words)
        )
        out = acquire_buffer()
        out += header
        out += value_frame
        out += value_bytes
        out += ref_frame
        for chunk in ref_payload:
            out += chunk
        out += bitmap_frame
        for chunk in bitmap_payload:
            out += chunk
        data = bytes(out)
        release_buffer(out)
        sections = {
            SECTION_META: len(header)
            + len(value_frame)
            + len(ref_frame)
            + len(bitmap_frame),
            SECTION_VALUES: len(value_bytes),
        }
        sections.update(trailer)
        profile.bytes_read = graph_total_bytes
        profile.bytes_written = len(data)
        profile.add_instructions(len(data) // 4)
        stream = SerializedStream(
            format_name=self.name,
            data=data,
            sections=sections,
            object_count=object_count,
            graph_bytes=graph_total_bytes,
        )
        stream.check_sections()
        return SerializationResult(stream, profile)

    # -------------------------------------------------------------- stream decoding

    @staticmethod
    def decode_sections(stream: SerializedStream) -> CerealStreamSections:
        """Parse the framing into the three structures (no object rebuild)."""
        data = stream.data
        if len(data) < 13:
            raise FormatError("Cereal stream too short for framing")
        offset = 0

        def take(count: int) -> bytes:
            nonlocal offset
            if offset + count > len(data):
                raise TruncatedStreamError(
                    offset=offset, needed=count, available=len(data) - offset
                )
            out = data[offset : offset + count]
            offset += count
            return out

        graph_total, object_count, flags = struct.unpack("<IIB", take(9))
        packed = bool(flags & _FLAG_PACKED)
        mark_stripped = bool(flags & _FLAG_MARK_STRIPPED)
        (value_len,) = struct.unpack("<I", take(4))
        if value_len % SLOT_BYTES:
            raise FormatError("value array length not slot aligned")
        value_bytes = take(value_len)
        value_words = list(
            struct.unpack(f"<{value_len // SLOT_BYTES}Q", value_bytes)
        )
        if packed:
            ref_data_len, ref_end_len, ref_count = struct.unpack("<III", take(12))
            references = PackedArray(
                data=take(ref_data_len),
                end_map=take(ref_end_len),
                item_count=ref_count,
            )
            bitmap_data_len, bitmap_end_len = struct.unpack("<II", take(8))
            bitmaps = PackedArray(
                data=take(bitmap_data_len),
                end_map=take(bitmap_end_len),
                item_count=object_count,
            )
            raw_references = None
            raw_bitmaps = None
        else:
            references = None
            bitmaps = None
            (ref_count,) = struct.unpack("<I", take(4))
            raw_references = list(
                struct.unpack(f"<{ref_count}Q", take(ref_count * 8))
            )
            (bitmap_len,) = struct.unpack("<I", take(4))
            bitmap_blob = take(bitmap_len)
            raw_bitmaps = []
            cursor = 0
            for _ in range(object_count):
                if cursor + 8 > len(bitmap_blob):
                    raise FormatError("baseline bitmap table truncated")
                (bit_length,) = struct.unpack(
                    "<Q", bitmap_blob[cursor : cursor + 8]
                )
                cursor += 8
                byte_length = (bit_length + 7) // 8
                chunk = bitmap_blob[cursor : cursor + byte_length]
                if len(chunk) != byte_length:
                    raise FormatError("baseline bitmap truncated")
                cursor += byte_length
                raw_bitmaps.append(bytes_to_bits(chunk, bit_count=bit_length))
            if cursor != len(bitmap_blob):
                raise FormatError("trailing bytes in baseline bitmap table")
        if offset != len(data):
            raise FormatError(f"{len(data) - offset} trailing bytes in Cereal stream")
        return CerealStreamSections(
            graph_total_bytes=graph_total,
            object_count=object_count,
            value_words=value_words,
            references=references,
            bitmaps=bitmaps,
            packed=packed,
            mark_stripped=mark_stripped,
            raw_references=raw_references,
            raw_bitmaps=raw_bitmaps,
        )

    # ---------------------------------------------------------------- deserialize

    def deserialize(
        self,
        stream: SerializedStream,
        heap: Heap,
        limits: Optional[DecodeLimits] = None,
    ) -> DeserializationResult:
        limits = resolve_limits(limits)
        limits.check_stream_bytes(len(stream.data))
        sections = self.decode_sections(stream)
        profile = WorkProfile()
        if sections.object_count == 0:
            raise FormatError("empty Cereal stream")
        limits.check_objects(sections.object_count)
        limits.check_graph_bytes(sections.graph_total_bytes)

        references = sections.reference_values()
        bitmap_items = sections.layout_bitmap_words()
        if len(bitmap_items) != sections.object_count:
            raise FormatError(
                f"header claims {sections.object_count} objects, bitmap "
                f"table holds {len(bitmap_items)}"
            )
        base = heap.reserve(sections.graph_total_bytes)
        memory = heap.memory
        header_slots = heap.header_slots
        value_words_in = sections.value_words
        value_count = len(value_words_in)

        value_cursor = 0
        ref_cursor = 0
        offset = 0
        root_obj: Optional[HeapObject] = None
        reference_slot_addresses = []  # (slot address, relative) to validate
        # Reference-free objects (the common case in array-heavy workloads)
        # take a bulk-slice path: the memoized bitmap classification says
        # "no reference slots", so the whole image is a contiguous run of
        # the value array. Mark-stripped streams rebuild the mark word per
        # object and stay on the per-slot loop.
        use_fast = self.use_plans and not sections.mark_stripped

        for bitmap_word, bitmap_width in bitmap_items:
            address = base + offset
            profile.objects += 1
            profile.allocations += 1
            profile.add_instructions(_INSTR_PER_OBJECT)
            if bitmap_width < header_slots:
                raise FormatError("layout bitmap smaller than the object header")
            if offset + bitmap_width * SLOT_BYTES > sections.graph_total_bytes:
                # A lying bitmap would otherwise let the image walk write
                # past the reserved region into unrelated heap memory.
                raise FormatError(
                    f"object at image offset {offset} extends past the "
                    f"{sections.graph_total_bytes}-byte image"
                )
            klass = None
            if use_fast and not P.bitmap_reference_slots(bitmap_word, bitmap_width):
                end = value_cursor + bitmap_width
                if end > value_count:
                    raise FormatError("value array exhausted mid-object")
                slot_words = value_words_in[value_cursor:end]
                value_cursor = end
                klass = self.registration.klass_of(slot_words[_KLASS_SLOT])
                assert klass.metaspace_address is not None
                slot_words[_KLASS_SLOT] = klass.metaspace_address
                profile.add_instructions(_INSTR_PER_SLOT * bitmap_width)
                profile.value_fields += bitmap_width
                memory.write_words(address, slot_words)
                length = 0
                if isinstance(klass, ArrayKlass):
                    length = slot_words[header_slots]
                obj = heap.register_object(address, klass, length)
                if root_obj is None:
                    root_obj = obj
                if obj.size_bytes != bitmap_width * SLOT_BYTES:
                    raise FormatError(
                        f"bitmap length {bitmap_width} disagrees with object size "
                        f"{obj.size_bytes} for {klass.name}"
                    )
                offset += obj.size_bytes
                continue
            # Assemble the whole object image in Python, then commit it to
            # simulated memory with one bulk word write.
            slot_words = []
            for slot in range(bitmap_width):
                profile.add_instructions(_INSTR_PER_SLOT)
                if (bitmap_word >> (bitmap_width - 1 - slot)) & 1:
                    relative = references[ref_cursor]
                    ref_cursor += 1
                    profile.reference_fields += 1
                    if relative == 0:
                        slot_words.append(NULL_ADDRESS)
                    else:
                        slot_words.append(base + relative - 1)
                        reference_slot_addresses.append(
                            (address + slot * SLOT_BYTES, relative - 1)
                        )
                    continue
                if slot == _MARK_SLOT and sections.mark_stripped:
                    # Header strip: rebuild the mark word at the receiver.
                    word = MarkWord(
                        identity_hash=identity_hash_for(address)
                    ).encode()
                    profile.add_instructions(12)
                elif value_cursor < value_count:
                    word = value_words_in[value_cursor]
                    value_cursor += 1
                else:
                    raise FormatError("value array exhausted mid-object")
                if slot == _KLASS_SLOT:
                    # Class ID Table lookup: class ID -> klass address.
                    klass = self.registration.klass_of(word)
                    assert klass.metaspace_address is not None
                    slot_words.append(klass.metaspace_address)
                else:
                    slot_words.append(word)
                profile.value_fields += 1
            memory.write_words(address, slot_words)

            if klass is None:
                raise FormatError("object bitmap marks the klass slot as reference")
            length = 0
            if isinstance(klass, ArrayKlass):
                length = slot_words[header_slots]
            obj = heap.register_object(address, klass, length)
            if root_obj is None:
                root_obj = obj
            if obj.size_bytes != bitmap_width * SLOT_BYTES:
                raise FormatError(
                    f"bitmap length {bitmap_width} disagrees with object size "
                    f"{obj.size_bytes} for {klass.name}"
                )
            offset += obj.size_bytes

        if offset != sections.graph_total_bytes:
            raise FormatError(
                f"image walked {offset} bytes, header said "
                f"{sections.graph_total_bytes}"
            )
        if ref_cursor != len(references):
            raise FormatError("unconsumed reference-array entries")
        if value_cursor != len(sections.value_words):
            raise FormatError("unconsumed value-array words")
        # Validate every reference against the materialized object starts
        # so a corrupted stream cannot leave dangling references behind.
        valid_offsets = set()
        cursor = 0
        for _, bitmap_width in bitmap_items:
            valid_offsets.add(cursor)
            cursor += bitmap_width * SLOT_BYTES
        for slot_address, relative in reference_slot_addresses:
            if relative not in valid_offsets:
                raise FormatError(
                    f"reference offset {relative} does not target an object"
                )

        assert root_obj is not None
        profile.bytes_read = len(stream.data)
        profile.bytes_written = sections.graph_total_bytes
        profile.add_instructions(sections.graph_total_bytes // 8)
        return DeserializationResult(root_obj, profile)
