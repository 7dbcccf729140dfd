"""Serialization Unit timing model (paper Section V-B, Figure 7).

The SU is a four-stage pipeline working through the object graph in the
order its internal reference queue discovers it (breadth-first):

* **header manager (HM)** — reads each encountered object's header, checks
  the visited counter, assigns/fetches the relative address, and updates
  the header with an atomic RMW through the MAI. For a *new* object it
  cannot proceed past the relative-address assignment until the object
  metadata manager has returned the previous new object's size (the
  serialized-size counter dependency the paper calls out).
* **object metadata manager (OMM)** — fetches the klass metadata (object
  layout + size) from memory, generates the packed layout bitmap, and
  stores it (posted 64 B writes).
* **object handler (OH)** — loads the object image, separates values from
  references using the layout, translates the klass pointer to a class ID
  through the Klass Pointer Table CAM, buffers values into 64 B chunks
  stored to the value array, and feeds extracted references back to the HM
  queue (in original order, via the MAI reorder buffers).
* **reference array writer (RAW)** — packs each relative address
  (significant bits + end bit, Section IV-B) into the reference array.

With ``pipelined=False`` ("Cereal Vanilla", Figure 10) the stages do not
overlap across objects: each object's full HM→OMM→OH→RAW chain completes
before the next encounter starts.

The model's *modelled* memory traffic is what it issues through the MAI.
Its functional reads and writes of the heap (the extension word, the
children's addresses) are host bookkeeping that decides what the hardware
would do; no caller runs them under a :class:`~repro.memory.space.MemorySpace`
trace, so they are done in whatever shape is cheapest: one extension-word
read per encounter, one write per claim, one bulk image read per object
with reference slots.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.common.config import CerealConfig
from repro.common.errors import HeapError
from repro.cereal.mai import MemoryAccessInterface
from repro.cereal.tables import KlassPointerTable
from repro.formats.registry import ClassRegistration
from repro.jvm.heap import (
    COUNTER_MASK,
    EXTENSION_OFFSET,
    NULL_ADDRESS,
    RELADDR_MASK,
    RELADDR_SHIFT,
    UNIT_MASK,
    UNIT_SHIFT,
    HeapObject,
)
from repro.jvm.klass import SLOT_BYTES
from repro.jvm.layout_cache import layout_of

# Synthetic physical placement of the serialized output (disjoint from the
# heap) so output writes map onto DRAM channels like any other traffic.
OUTPUT_REGION_BASE = 0x40_0000_0000
_VALUE_REGION = 0x0_0000_0000
_REF_REGION = 0x1_0000_0000
_BITMAP_REGION = 0x2_0000_0000

_HM_CYCLE_NS = 1.0  # per-encounter header-manager occupancy
_OMM_BITMAP_BITS_PER_CYCLE = 64  # bitmap generation throughput
_OH_SLOTS_PER_CYCLE = 1.0  # value/reference extraction rate
_RAW_ITEMS_PER_CYCLE = 1.0  # packing throughput
_RAW_ITEM_NS = 1.0 / _RAW_ITEMS_PER_CYCLE
_KLASS_METADATA_BYTES = 32  # layout + size fetched per class
_FALLBACK_NS = 60.0  # software visited-hash insert when a header is foreign


@dataclass
class SUResult:
    """Timing and traffic of one serialization operation on one SU."""

    start_ns: float
    finish_ns: float
    objects: int
    encounters: int  # reference-queue pops (visited re-encounters included)
    null_references: int
    heap_bytes_read: int
    value_bytes_written: int
    reference_bytes_written: int
    bitmap_bytes_written: int
    stalls_on_counter_ns: float = 0.0
    # Section V-E shared-object support: objects whose header area was
    # reserved by a different unit, forcing the software-fallback path
    # (a thread-local hash table instead of the header metadata).
    fallback_objects: int = 0

    @property
    def elapsed_ns(self) -> float:
        return self.finish_ns - self.start_ns

    @property
    def stream_bytes_written(self) -> int:
        return (
            self.value_bytes_written
            + self.reference_bytes_written
            + self.bitmap_bytes_written
        )


class _BufferedStore:
    """64 B write-combining buffer in front of the MAI (posted stores)."""

    def __init__(self, mai: MemoryAccessInterface, base: int, chunk: int = 64):
        self.mai = mai
        self.base = base
        self.chunk = chunk
        self.pending = 0
        self.total = 0

    def push(self, when_ns: float, nbytes: int) -> None:
        self.pending += nbytes
        self.total += nbytes
        while self.pending >= self.chunk:
            self.mai.write(when_ns, self.base + self.total - self.pending, self.chunk)
            self.pending -= self.chunk

    def flush(self, when_ns: float) -> None:
        if self.pending:
            self.mai.write(when_ns, self.base + self.total - self.pending, self.pending)
            self.pending = 0


class SerializationUnit:
    """Cycle-accounted model of one SU."""

    def __init__(
        self,
        mai: MemoryAccessInterface,
        klass_table: KlassPointerTable,
        config: Optional[CerealConfig] = None,
        unit_id: int = 0,
    ):
        self.mai = mai
        self.klass_table = klass_table
        self.config = config or CerealConfig()
        self.unit_id = unit_id

    def run(
        self,
        root: HeapObject,
        registration: ClassRegistration,
        start_ns: float = 0.0,
        serialization_counter: int = 1,
    ) -> SUResult:
        """Simulate serializing the graph under ``root``; returns timing.

        Visited tracking uses the Section V-E header-extension mechanism
        when the heap carries the Cereal extension: an object is "visited"
        when its header's 16-bit counter equals ``serialization_counter``,
        and the unit claims the header area by writing its unit ID. A
        header already claimed by a *different* unit in the same counter
        epoch forces the software-fallback path for that object (thread-
        local hash table), which costs extra time but stays functionally
        identical.

        Each encounter reads the extension word once and decides from it
        (visited, claim, or foreign claim); each new object takes its
        geometry from one layout probe and, when it has reference slots,
        its children from one bulk read of its image.
        """
        pipelined = self.config.pipelined
        heap = root.heap
        memory = heap.memory
        read_u64 = memory.read_u64
        write_u64 = memory.write_u64
        read_words = memory.read_words
        object_at = heap.object_at
        header_slots = heap.header_slots
        use_header_metadata = heap.cereal_extension
        mai = self.mai
        mai_read = mai.read
        lookup = self.klass_table.lookup

        # The claim written into a new object's extension word; a counter
        # or unit ID out of its field's range fails at the first claim.
        own_unit = self.unit_id + 1
        claim_error = None
        if not 0 <= serialization_counter <= COUNTER_MASK:
            claim_error = (
                f"serialization counter out of 16-bit range: {serialization_counter}"
            )
        elif not 0 <= own_unit <= UNIT_MASK:
            claim_error = f"unit ID out of 8-bit range: {own_unit}"
        claim = serialization_counter | own_unit << UNIT_SHIFT
        kept_bits = ~((RELADDR_MASK << RELADDR_SHIFT) | (UNIT_MASK << UNIT_SHIFT) | COUNTER_MASK)

        value_store = _BufferedStore(mai, OUTPUT_REGION_BASE + _VALUE_REGION)
        ref_store = _BufferedStore(mai, OUTPUT_REGION_BASE + _REF_REGION)
        bitmap_store = _BufferedStore(mai, OUTPUT_REGION_BASE + _BITMAP_REGION)
        push_ref = ref_store.push

        hm_free = start_ns
        omm_free = start_ns
        oh_free = start_ns
        raw_free = start_ns
        counter_ready = start_ns  # serialized-size counter availability

        visited: Set[int] = set()  # internal tracking without the extension
        fallback_visited: Dict[int, int] = {}  # software hash table path
        # Queue entries: (object, time the reference became available to HM).
        queue: deque = deque([(root, start_ns)])
        popleft = queue.popleft
        append = queue.append
        objects = 0
        encounters = 0
        null_references = 0
        heap_bytes_read = 0
        stalls = 0.0
        fallback_objects = 0
        serialized_size = 0  # the HM's running relative-address counter

        # max(a, b) is spelled "b if b > a else a" below: the same float.
        while queue:
            obj, available_ns = popleft()
            encounters += 1
            address = obj.address
            # Packed bytes of this encounter's relative-address item. The
            # object's heap offset stands in for its relative address (same
            # magnitude distribution); exact stream bytes come from the
            # functional encoder, this is timing-side accounting only.
            ref_bytes = (((address & 0xFFFF_FFFF) or 1).bit_length() + 8) // 8

            # -- header manager: read and inspect the (extended) header.
            hm_start = available_ns if available_ns > hm_free else hm_free
            header_done = mai_read(hm_start, address, 16)
            foreign = False
            if address in fallback_visited:
                seen = True
            elif use_header_metadata:
                # Only this unit's own claim counts: a header claimed by a
                # different unit in this epoch belongs to a concurrent
                # operation whose stream this one cannot reference.
                word = read_u64(address + EXTENSION_OFFSET)
                if word & COUNTER_MASK == serialization_counter:
                    seen = (word >> UNIT_SHIFT) & UNIT_MASK == own_unit
                    foreign = not seen
                else:
                    seen = False
            else:
                seen = address in visited
            if seen:
                # Relative address already in the header: forward to RAW.
                hm_free = header_done + _HM_CYCLE_NS
                raw_free = (header_done if header_done > raw_free else raw_free) + _RAW_ITEM_NS
                push_ref(raw_free, ref_bytes)
                continue
            objects += 1

            # New object: assigning its relative address needs the size
            # counter, which the OMM updates for the previous new object.
            assign_ns = counter_ready if counter_ready > header_done else header_done
            stalls += max(0.0, counter_ready - header_done)
            if foreign:
                # Software fallback: thread-local hash-table insert + probe
                # replaces the header RMW (Section V-E).
                fallback_visited[address] = serialized_size
                fallback_objects += 1
                assign_ns += _FALLBACK_NS
            else:
                if use_header_metadata:
                    if claim_error is not None:
                        raise HeapError(claim_error)
                    write_u64(
                        address + EXTENSION_OFFSET,
                        word & kept_bits
                        | claim
                        | (serialized_size & RELADDR_MASK) << RELADDR_SHIFT,
                    )
                else:
                    visited.add(address)
                mai.atomic_rmw(assign_ns, address + EXTENSION_OFFSET, 8)
            klass = obj.klass
            layout = layout_of(klass, header_slots, obj.length)
            total_slots = layout.total_slots
            size_bytes = total_slots * SLOT_BYTES
            serialized_size += size_bytes
            hm_free = assign_ns + _HM_CYCLE_NS
            raw_free = (assign_ns if assign_ns > raw_free else raw_free) + _RAW_ITEM_NS
            push_ref(raw_free, ref_bytes)

            # -- object metadata manager: fetch klass metadata, make bitmap.
            metaspace = klass.metaspace_address
            assert metaspace is not None
            omm_start = assign_ns if assign_ns > omm_free else omm_free
            metadata_done = mai_read(omm_start, metaspace, _KLASS_METADATA_BYTES)
            counter_ready = metadata_done + 1.0
            bitmap_cycles = (
                total_slots + _OMM_BITMAP_BITS_PER_CYCLE - 1
            ) // _OMM_BITMAP_BITS_PER_CYCLE
            omm_free = metadata_done + bitmap_cycles
            bitmap_store.push(omm_free, (total_slots + 1 + 7) // 8)

            # -- object handler: load the object, split values/references.
            oh_start = metadata_done if metadata_done > oh_free else oh_free
            load_done = mai_read(oh_start, address, size_bytes)
            heap_bytes_read += size_bytes
            extract_ns = total_slots / _OH_SLOTS_PER_CYCLE
            oh_done = (load_done if load_done > oh_start else oh_start) + extract_ns
            # Klass pointer -> class ID CAM lookup (single cycle).
            lookup(metaspace)
            oh_done += 1.0
            oh_free = oh_done

            reference_slots = layout.reference_slots
            value_store.push(oh_done, (total_slots - len(reference_slots)) * 8)
            if reference_slots:
                words = read_words(address, total_slots)
                for slot in reference_slots:
                    child_address = words[header_slots + slot]
                    if child_address == NULL_ADDRESS:
                        null_references += 1
                        raw_free = (oh_done if oh_done > raw_free else raw_free) + _RAW_ITEM_NS
                        push_ref(raw_free, 1)  # packed null: 1 bucket
                    else:
                        append((object_at(child_address), oh_done))

            if not pipelined:
                # Cereal Vanilla: full per-object chain, no stage overlap.
                barrier = max(hm_free, omm_free, oh_free, raw_free)
                hm_free = omm_free = oh_free = raw_free = barrier
                counter_ready = min(counter_ready, barrier)

        finish = max(hm_free, omm_free, oh_free, raw_free)
        value_store.flush(finish)
        ref_store.flush(finish)
        bitmap_store.flush(finish)
        # End maps for the two packed structures (1 bit per packed byte).
        end_map_bytes = (ref_store.total + 7) // 8 + (bitmap_store.total + 7) // 8
        mai.write(finish, OUTPUT_REGION_BASE + _REF_REGION + ref_store.total,
                  max(1, end_map_bytes))
        finish = mai.drain(finish)

        return SUResult(
            start_ns=start_ns,
            finish_ns=finish,
            objects=objects,
            encounters=encounters,
            null_references=null_references,
            heap_bytes_read=heap_bytes_read,
            value_bytes_written=value_store.total,
            reference_bytes_written=ref_store.total + end_map_bytes,
            bitmap_bytes_written=bitmap_store.total,
            stalls_on_counter_ns=stalls,
            fallback_objects=fallback_objects,
        )
