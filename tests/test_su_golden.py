"""Golden pins and a differential check for the SU timing loop.

The pins cover the visited-tracking paths the perfbench device workload
never reaches: a heap without the Cereal extension, the non-pipelined
"Cereal Vanilla" configuration, concurrent serializations whose unit IDs
wrap so both the foreign-claim fallback and the same-unit same-epoch path
run, and an epoch overflow that forces the GC clear of every header.
Each case pins every ``SUResult`` field, the MAI, DRAM and TLB statistics
and a digest of every object's extension word after the run. A host-time
change to the SU or MAI may not move any of them (exact float equality).

``_ReferenceSU`` keeps the original per-word SU loop (one-field header
accessors, closures for the visited checks) as an oracle for the
layout-driven loop on seeded random graphs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from collections import deque
from typing import Dict

import pytest

from repro.cereal import CerealAccelerator
from repro.cereal.mai import MemoryAccessInterface
from repro.cereal.su import (
    _BITMAP_REGION,
    _FALLBACK_NS,
    _HM_CYCLE_NS,
    _KLASS_METADATA_BYTES,
    _OH_SLOTS_PER_CYCLE,
    _OMM_BITMAP_BITS_PER_CYCLE,
    _RAW_ITEMS_PER_CYCLE,
    _REF_REGION,
    _VALUE_REGION,
    OUTPUT_REGION_BASE,
    SerializationUnit,
    SUResult,
    _BufferedStore,
)
from repro.cereal.tables import KlassPointerTable
from repro.common.bitutils import significant_bits
from repro.common.config import CerealConfig
from repro.common.errors import HeapError
from repro.formats import ClassRegistration
from repro.jvm import FieldKind, Heap, HeapObject
from repro.jvm.heap import HEAP_BASE
from repro.memory.dram import DRAMModel
from repro.workloads.datagen import DeterministicRandom
from tests.test_fuzz_roundtrip import build_fuzz_graph, fuzz_registry
from tests.test_serializers import build_tree, make_registry


class _ReferenceSU(SerializationUnit):
    """The original SU loop, kept verbatim as the differential oracle."""

    def run(
        self,
        root: HeapObject,
        registration: ClassRegistration,
        start_ns: float = 0.0,
        serialization_counter: int = 1,
    ) -> SUResult:
        output_base = OUTPUT_REGION_BASE
        pipelined = self.config.pipelined
        heap = root.heap
        use_header_metadata = heap.cereal_extension

        value_store = _BufferedStore(self.mai, output_base + _VALUE_REGION)
        ref_store = _BufferedStore(self.mai, output_base + _REF_REGION)
        bitmap_store = _BufferedStore(self.mai, output_base + _BITMAP_REGION)

        hm_free = start_ns
        omm_free = start_ns
        oh_free = start_ns
        raw_free = start_ns
        counter_ready = start_ns  # serialized-size counter availability

        visited: Dict[int, bool] = {}
        fallback_visited: Dict[int, int] = {}  # software hash table path
        # Queue entries: (object, time the reference became available to HM).
        queue: deque = deque([(root, start_ns)])
        objects = 0
        encounters = 0
        null_references = 0
        heap_bytes_read = 0
        stalls = 0.0
        fallback_objects = 0
        serialized_size = 0  # the HM's running relative-address counter

        def is_visited(obj: HeapObject) -> bool:
            if obj.address in fallback_visited:
                return True
            if use_header_metadata:
                # Only this unit's own claim counts: a header claimed by a
                # different unit belongs to a concurrent operation whose
                # stream this one cannot reference.
                return (
                    obj.serialization_counter == serialization_counter
                    and obj.serialization_unit_id == self.unit_id + 1
                )
            return obj.address in visited

        def mark_visited(obj: HeapObject, relative: int) -> bool:
            """Claim the header; returns False when falling back to software."""
            if not use_header_metadata:
                visited[obj.address] = True
                return True
            if (
                obj.serialization_counter == serialization_counter
                and obj.serialization_unit_id != self.unit_id + 1
            ):
                # Another unit holds this header in the current epoch
                # (shared object across concurrent operations).
                fallback_visited[obj.address] = relative
                return False
            obj.serialization_counter = serialization_counter
            obj.serialization_unit_id = self.unit_id + 1
            obj.serialized_relative_address = relative & 0xFFFF_FFFF
            return True

        while queue:
            obj, available_ns = queue.popleft()
            encounters += 1

            # -- header manager: read and inspect the (extended) header.
            hm_start = max(hm_free, available_ns)
            header_done = self.mai.read(hm_start, obj.address, 16)
            if is_visited(obj):
                # Relative address already in the header: forward to RAW.
                hm_free = header_done + _HM_CYCLE_NS
                raw_free = max(raw_free, header_done) + 1.0 / _RAW_ITEMS_PER_CYCLE
                ref_store.push(raw_free, self._packed_ref_bytes(obj))
                continue
            objects += 1

            # New object: assigning its relative address needs the size
            # counter, which the OMM updates for the previous new object.
            assign_ns = max(header_done, counter_ready)
            stalls += max(0.0, counter_ready - header_done)
            if not mark_visited(obj, serialized_size):
                # Software fallback: thread-local hash-table insert + probe
                # replaces the header RMW (Section V-E).
                fallback_objects += 1
                assign_ns += _FALLBACK_NS
            else:
                self.mai.atomic_rmw(assign_ns, obj.address + 16, 8)
            serialized_size += obj.size_bytes
            hm_free = assign_ns + _HM_CYCLE_NS
            raw_free = max(raw_free, assign_ns) + 1.0 / _RAW_ITEMS_PER_CYCLE
            ref_store.push(raw_free, self._packed_ref_bytes(obj))

            # -- object metadata manager: fetch klass metadata, make bitmap.
            assert obj.klass.metaspace_address is not None
            omm_start = max(omm_free, assign_ns)
            metadata_done = self.mai.read(
                omm_start, obj.klass.metaspace_address, _KLASS_METADATA_BYTES
            )
            counter_ready = metadata_done + 1.0
            bitmap_cycles = (
                obj.total_slots + _OMM_BITMAP_BITS_PER_CYCLE - 1
            ) // _OMM_BITMAP_BITS_PER_CYCLE
            omm_free = metadata_done + bitmap_cycles
            bitmap_store.push(omm_free, self._packed_bitmap_bytes(obj))

            # -- object handler: load the object, split values/references.
            oh_start = max(oh_free, metadata_done)
            load_done = self.mai.read(oh_start, obj.address, obj.size_bytes)
            heap_bytes_read += obj.size_bytes
            extract_ns = obj.total_slots / _OH_SLOTS_PER_CYCLE
            oh_done = max(oh_start, load_done) + extract_ns
            # Klass pointer -> class ID CAM lookup (single cycle).
            self.klass_table.lookup(obj.klass.metaspace_address)
            oh_done += 1.0
            oh_free = oh_done

            reference_slots = set(obj.reference_slots())
            value_slots = obj.total_slots - len(reference_slots)
            value_store.push(oh_done, value_slots * 8)
            for child in obj.referenced_objects():
                if child is None:
                    null_references += 1
                    raw_free = max(raw_free, oh_done) + 1.0 / _RAW_ITEMS_PER_CYCLE
                    ref_store.push(raw_free, 1)  # packed null: 1 bucket
                else:
                    queue.append((child, oh_done))

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
        self.mai.write(finish, OUTPUT_REGION_BASE + _REF_REGION + ref_store.total,
                       max(1, end_map_bytes))
        finish = self.mai.drain(finish)

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

    @staticmethod
    def _packed_ref_bytes(obj: HeapObject) -> int:
        relative = max(1, obj.address & 0xFFFF_FFFF)
        return (significant_bits(relative) + 1 + 7) // 8

    @staticmethod
    def _packed_bitmap_bytes(obj: HeapObject) -> int:
        return (obj.total_slots + 1 + 7) // 8


# -- helpers -----------------------------------------------------------------------


def _extension_digest(heap: Heap):
    """(claimed headers, digest of every object's extension word)."""
    if not heap.cereal_extension:
        return None
    words = [heap.memory.read_u64(obj.address + 16) for obj in heap.objects()]
    blob = struct.pack(f"<{len(words)}Q", *words)
    return (
        sum(1 for word in words if word),
        hashlib.sha256(blob).hexdigest()[:24],
    )


def _op_pin(su: SUResult, mai: MemoryAccessInterface) -> dict:
    return {
        "su": dataclasses.asdict(su),
        "mai": dataclasses.asdict(mai.stats),
        "dram": dataclasses.asdict(mai.dram.stats),
        "tlb": (mai.tlb.hits, mai.tlb.misses),
    }


def _accelerator(registry, config=None) -> CerealAccelerator:
    accelerator = CerealAccelerator(config=config)
    for klass in registry:
        accelerator.register_class(klass)
    return accelerator


def _capture_mais(accelerator: CerealAccelerator) -> list:
    """Record every fresh memory system the accelerator builds."""
    mais = []
    original = accelerator._fresh_memory_system

    def fresh():
        mai = original()
        mais.append(mai)
        return mai

    accelerator._fresh_memory_system = fresh
    return mais


def _serialize_pins(config, heap: Heap, root, repeats: int = 1) -> dict:
    accelerator = _accelerator(heap.registry, config)
    mais = _capture_mais(accelerator)
    ops = []
    for _ in range(repeats):
        _, _, su = accelerator.serialize(root)
        ops.append(_op_pin(su, mais[-1]))
    return {
        "ops": ops,
        "lookups": accelerator.klass_pointer_table.lookups,
        "forced_gc": heap.forced_gc_count,
        "extension": _extension_digest(heap),
    }


def _fuzz_heap(seed: int, **heap_options):
    heap = Heap(registry=fuzz_registry(), **heap_options)
    return heap, build_fuzz_graph(heap, seed)


def _shared_roots(heap: Heap, count: int):
    """``count`` roots over three shared subtrees.

    Root ``i`` holds ``shared[i % 3]``, ``shared[0]`` and a private tree,
    so with eight units root 8 meets ``shared[0]`` already claimed by its
    own unit ID in the same epoch, and every other root meets a header a
    different unit claimed.
    """
    shared = [build_tree(heap, depth=3) for _ in range(3)]
    roots = []
    for index in range(count):
        root = heap.new_array(FieldKind.REFERENCE, 4)
        root.set_element(0, shared[index % 3])
        root.set_element(1, shared[0])
        root.set_element(3, build_tree(heap, depth=1 + index % 3))
        roots.append(root)
    return roots


def _case_extension() -> dict:
    heap, root = _fuzz_heap(3)
    return _serialize_pins(None, heap, root, repeats=2)


def _case_no_extension() -> dict:
    heap, root = _fuzz_heap(3, cereal_extension=False)
    return _serialize_pins(None, heap, root, repeats=2)


def _case_vanilla() -> dict:
    heap, root = _fuzz_heap(5)
    return _serialize_pins(CerealConfig().vanilla(), heap, root)


def _case_concurrent() -> dict:
    heap = Heap(registry=make_registry())
    roots = _shared_roots(heap, 10)
    accelerator = _accelerator(heap.registry)
    mais = _capture_mais(accelerator)
    results = accelerator.serialize_concurrent(roots)
    return {
        "ops": [_op_pin(su, mai) for (_, _, su), mai in zip(results, mais)],
        "lookups": accelerator.klass_pointer_table.lookups,
        "forced_gc": heap.forced_gc_count,
        "extension": _extension_digest(heap),
    }


def _case_epoch_overflow() -> dict:
    heap = Heap(registry=make_registry())
    roots = _shared_roots(heap, 2)
    # A 2-bit counter allows epochs 1..3; the fourth serialize clears every
    # header and restarts at 1.
    config = CerealConfig(header_counter_bits=2)
    accelerator = _accelerator(heap.registry, config)
    mais = _capture_mais(accelerator)
    ops = []
    for index in range(5):
        _, _, su = accelerator.serialize(roots[index % 2])
        ops.append(_op_pin(su, mais[-1]))
    return {
        "ops": ops,
        "lookups": accelerator.klass_pointer_table.lookups,
        "forced_gc": heap.forced_gc_count,
        "extension": _extension_digest(heap),
    }


_CASES = {
    "extension": _case_extension,
    "no_extension": _case_no_extension,
    "vanilla": _case_vanilla,
    "concurrent": _case_concurrent,
    "epoch_overflow": _case_epoch_overflow,
}

# Recorded from the original per-word SU loop. A host-time change to the
# SU or the MAI may not move any of these numbers (exact float equality).
_GOLDEN: Dict[str, dict] = {}
_GOLDEN["concurrent"] = {'ops': [{'su': {'start_ns': 0.0,
                                         'finish_ns': 1642.0000000000005,
                                         'objects': 19,
                                         'encounters': 20,
                                         'null_references': 21,
                                         'heap_bytes_read': 928,
                                         'value_bytes_written': 608,
                                         'reference_bytes_written': 95,
                                         'bitmap_bytes_written': 20,
                                         'stalls_on_counter_ns': 1.6666666666666856,
                                         'fallback_objects': 0},
                                  'mai': {'read_requests': 77,
                                          'write_requests': 33,
                                          'blocks_read': 32,
                                          'blocks_written': 43,
                                          'coalesced_blocks': 65,
                                          'atomic_rmws': 19},
                                  'dram': {'read_bytes': 1024,
                                           'write_bytes': 1376,
                                           'accesses': 75,
                                           'busy_time_ns': 125.00000000000014,
                                           'last_completion_ns': 1642.0000000000005},
                                  'tlb': (105, 5)},
                                 {'su': {'start_ns': 0.0,
                                         'finish_ns': 3295.9999999999977,
                                         'objects': 38,
                                         'encounters': 38,
                                         'null_references': 41,
                                         'heap_bytes_read': 1840,
                                         'value_bytes_written': 1216,
                                         'reference_bytes_written': 180,
                                         'bitmap_bytes_written': 39,
                                         'stalls_on_counter_ns': 0.0,
                                         'fallback_objects': 15},
                                  'mai': {'read_requests': 137,
                                          'write_requests': 47,
                                          'blocks_read': 62,
                                          'blocks_written': 70,
                                          'coalesced_blocks': 113,
                                          'atomic_rmws': 23},
                                  'dram': {'read_bytes': 1984,
                                           'write_bytes': 2240,
                                           'accesses': 132,
                                           'busy_time_ns': 219.99999999999963,
                                           'last_completion_ns': 3295.9999999999977},
                                  'tlb': (179, 5)},
                                 {'su': {'start_ns': 0.0,
                                         'finish_ns': 3965.999999999996,
                                         'objects': 46,
                                         'encounters': 46,
                                         'null_references': 49,
                                         'heap_bytes_read': 2224,
                                         'value_bytes_written': 1472,
                                         'reference_bytes_written': 217,
                                         'bitmap_bytes_written': 47,
                                         'stalls_on_counter_ns': 0.0,
                                         'fallback_objects': 15},
                                  'mai': {'read_requests': 169,
                                          'write_requests': 59,
                                          'blocks_read': 75,
                                          'blocks_written': 87,
                                          'coalesced_blocks': 141,
                                          'atomic_rmws': 31},
                                  'dram': {'read_bytes': 2400,
                                           'write_bytes': 2784,
                                           'accesses': 162,
                                           'busy_time_ns': 269.9999999999996,
                                           'last_completion_ns': 3965.999999999996},
                                  'tlb': (223, 5)},
                                 {'su': {'start_ns': 0.0,
                                         'finish_ns': 2524.3333333333335,
                                         'objects': 19,
                                         'encounters': 20,
                                         'null_references': 21,
                                         'heap_bytes_read': 928,
                                         'value_bytes_written': 608,
                                         'reference_bytes_written': 95,
                                         'bitmap_bytes_written': 20,
                                         'stalls_on_counter_ns': 0.0,
                                         'fallback_objects': 15},
                                  'mai': {'read_requests': 62,
                                          'write_requests': 18,
                                          'blocks_read': 32,
                                          'blocks_written': 28,
                                          'coalesced_blocks': 49,
                                          'atomic_rmws': 4},
                                  'dram': {'read_bytes': 1024,
                                           'write_bytes': 896,
                                           'accesses': 60,
                                           'busy_time_ns': 100.00000000000007,
                                           'last_completion_ns': 2524.3333333333335},
                                  'tlb': (75, 5)},
                                 {'su': {'start_ns': 0.0,
                                         'finish_ns': 4035.666666666663,
                                         'objects': 38,
                                         'encounters': 38,
                                         'null_references': 41,
                                         'heap_bytes_read': 1840,
                                         'value_bytes_written': 1216,
                                         'reference_bytes_written': 180,
                                         'bitmap_bytes_written': 39,
                                         'stalls_on_counter_ns': 41.666666666666515,
                                         'fallback_objects': 30},
                                  'mai': {'read_requests': 122,
                                          'write_requests': 32,
                                          'blocks_read': 62,
                                          'blocks_written': 55,
                                          'coalesced_blocks': 99,
                                          'atomic_rmws': 8},
                                  'dram': {'read_bytes': 1984,
                                           'write_bytes': 1760,
                                           'accesses': 117,
                                           'busy_time_ns': 194.99999999999977,
                                           'last_completion_ns': 4035.666666666663},
                                  'tlb': (149, 5)},
                                 {'su': {'start_ns': 0.0,
                                         'finish_ns': 4460.333333333331,
                                         'objects': 46,
                                         'encounters': 46,
                                         'null_references': 49,
                                         'heap_bytes_read': 2224,
                                         'value_bytes_written': 1472,
                                         'reference_bytes_written': 217,
                                         'bitmap_bytes_written': 47,
                                         'stalls_on_counter_ns': 0.0,
                                         'fallback_objects': 30},
                                  'mai': {'read_requests': 154,
                                          'write_requests': 44,
                                          'blocks_read': 74,
                                          'blocks_written': 72,
                                          'coalesced_blocks': 126,
                                          'atomic_rmws': 16},
                                  'dram': {'read_bytes': 2368,
                                           'write_bytes': 2304,
                                           'accesses': 146,
                                           'busy_time_ns': 243.33333333333283,
                                           'last_completion_ns': 4460.333333333331},
                                  'tlb': (193, 5)},
                                 {'su': {'start_ns': 0.0,
                                         'finish_ns': 2312.3333333333335,
                                         'objects': 19,
                                         'encounters': 20,
                                         'null_references': 21,
                                         'heap_bytes_read': 928,
                                         'value_bytes_written': 608,
                                         'reference_bytes_written': 95,
                                         'bitmap_bytes_written': 20,
                                         'stalls_on_counter_ns': 40.66666666666674,
                                         'fallback_objects': 15},
                                  'mai': {'read_requests': 62,
                                          'write_requests': 18,
                                          'blocks_read': 32,
                                          'blocks_written': 28,
                                          'coalesced_blocks': 50,
                                          'atomic_rmws': 4},
                                  'dram': {'read_bytes': 1024,
                                           'write_bytes': 896,
                                           'accesses': 60,
                                           'busy_time_ns': 100.00000000000007,
                                           'last_completion_ns': 2312.3333333333335},
                                  'tlb': (75, 5)},
                                 {'su': {'start_ns': 0.0,
                                         'finish_ns': 3953.9999999999964,
                                         'objects': 38,
                                         'encounters': 38,
                                         'null_references': 41,
                                         'heap_bytes_read': 1840,
                                         'value_bytes_written': 1216,
                                         'reference_bytes_written': 180,
                                         'bitmap_bytes_written': 39,
                                         'stalls_on_counter_ns': 0.0,
                                         'fallback_objects': 30},
                                  'mai': {'read_requests': 122,
                                          'write_requests': 32,
                                          'blocks_read': 62,
                                          'blocks_written': 55,
                                          'coalesced_blocks': 98,
                                          'atomic_rmws': 8},
                                  'dram': {'read_bytes': 1984,
                                           'write_bytes': 1760,
                                           'accesses': 117,
                                           'busy_time_ns': 194.99999999999977,
                                           'last_completion_ns': 3953.9999999999964},
                                  'tlb': (149, 5)},
                                 {'su': {'start_ns': 0.0,
                                         'finish_ns': 2898.666666666665,
                                         'objects': 31,
                                         'encounters': 32,
                                         'null_references': 33,
                                         'heap_bytes_read': 1504,
                                         'value_bytes_written': 992,
                                         'reference_bytes_written': 150,
                                         'bitmap_bytes_written': 32,
                                         'stalls_on_counter_ns': 41.666666666666515,
                                         'fallback_objects': 15},
                                  'mai': {'read_requests': 110,
                                          'write_requests': 37,
                                          'blocks_read': 52,
                                          'blocks_written': 54,
                                          'coalesced_blocks': 90,
                                          'atomic_rmws': 16},
                                  'dram': {'read_bytes': 1664,
                                           'write_bytes': 1728,
                                           'accesses': 106,
                                           'busy_time_ns': 176.66666666666654,
                                           'last_completion_ns': 2898.666666666665},
                                  'tlb': (142, 5)},
                                 {'su': {'start_ns': 0.0,
                                         'finish_ns': 2474.666666666667,
                                         'objects': 19,
                                         'encounters': 20,
                                         'null_references': 21,
                                         'heap_bytes_read': 928,
                                         'value_bytes_written': 608,
                                         'reference_bytes_written': 95,
                                         'bitmap_bytes_written': 20,
                                         'stalls_on_counter_ns': 0.0,
                                         'fallback_objects': 15},
                                  'mai': {'read_requests': 62,
                                          'write_requests': 18,
                                          'blocks_read': 32,
                                          'blocks_written': 28,
                                          'coalesced_blocks': 49,
                                          'atomic_rmws': 4},
                                  'dram': {'read_bytes': 1024,
                                           'write_bytes': 896,
                                           'accesses': 60,
                                           'busy_time_ns': 100.00000000000007,
                                           'last_completion_ns': 2474.666666666667},
                                  'tlb': (75, 5)}],
                         'lookups': 313,
                         'forced_gc': 0,
                         'extension': (133, 'e34e2b861c830a5d0e8b1b8f')}
_GOLDEN["epoch_overflow"] = {'ops': [{'su': {'start_ns': 0.0,
                                             'finish_ns': 1642.0000000000005,
                                             'objects': 19,
                                             'encounters': 20,
                                             'null_references': 21,
                                             'heap_bytes_read': 928,
                                             'value_bytes_written': 608,
                                             'reference_bytes_written': 95,
                                             'bitmap_bytes_written': 20,
                                             'stalls_on_counter_ns': 1.6666666666666856,
                                             'fallback_objects': 0},
                                      'mai': {'read_requests': 77,
                                              'write_requests': 33,
                                              'blocks_read': 32,
                                              'blocks_written': 43,
                                              'coalesced_blocks': 65,
                                              'atomic_rmws': 19},
                                      'dram': {'read_bytes': 1024,
                                               'write_bytes': 1376,
                                               'accesses': 75,
                                               'busy_time_ns': 125.00000000000014,
                                               'last_completion_ns': 1642.0000000000005},
                                      'tlb': (105, 5)},
                                     {'su': {'start_ns': 0.0,
                                             'finish_ns': 2810.333333333332,
                                             'objects': 38,
                                             'encounters': 38,
                                             'null_references': 41,
                                             'heap_bytes_read': 1840,
                                             'value_bytes_written': 1216,
                                             'reference_bytes_written': 180,
                                             'bitmap_bytes_written': 39,
                                             'stalls_on_counter_ns': 0.0,
                                             'fallback_objects': 0},
                                      'mai': {'read_requests': 152,
                                              'write_requests': 62,
                                              'blocks_read': 62,
                                              'blocks_written': 85,
                                              'coalesced_blocks': 128,
                                              'atomic_rmws': 38},
                                      'dram': {'read_bytes': 1984,
                                               'write_bytes': 2720,
                                               'accesses': 147,
                                               'busy_time_ns': 244.9999999999995,
                                               'last_completion_ns': 2810.333333333332},
                                      'tlb': (209, 5)},
                                     {'su': {'start_ns': 0.0,
                                             'finish_ns': 1642.0000000000005,
                                             'objects': 19,
                                             'encounters': 20,
                                             'null_references': 21,
                                             'heap_bytes_read': 928,
                                             'value_bytes_written': 608,
                                             'reference_bytes_written': 95,
                                             'bitmap_bytes_written': 20,
                                             'stalls_on_counter_ns': 1.6666666666666856,
                                             'fallback_objects': 0},
                                      'mai': {'read_requests': 77,
                                              'write_requests': 33,
                                              'blocks_read': 32,
                                              'blocks_written': 43,
                                              'coalesced_blocks': 65,
                                              'atomic_rmws': 19},
                                      'dram': {'read_bytes': 1024,
                                               'write_bytes': 1376,
                                               'accesses': 75,
                                               'busy_time_ns': 125.00000000000014,
                                               'last_completion_ns': 1642.0000000000005},
                                      'tlb': (105, 5)},
                                     {'su': {'start_ns': 0.0,
                                             'finish_ns': 2810.333333333332,
                                             'objects': 38,
                                             'encounters': 38,
                                             'null_references': 41,
                                             'heap_bytes_read': 1840,
                                             'value_bytes_written': 1216,
                                             'reference_bytes_written': 180,
                                             'bitmap_bytes_written': 39,
                                             'stalls_on_counter_ns': 0.0,
                                             'fallback_objects': 0},
                                      'mai': {'read_requests': 152,
                                              'write_requests': 62,
                                              'blocks_read': 62,
                                              'blocks_written': 85,
                                              'coalesced_blocks': 128,
                                              'atomic_rmws': 38},
                                      'dram': {'read_bytes': 1984,
                                               'write_bytes': 2720,
                                               'accesses': 147,
                                               'busy_time_ns': 244.9999999999995,
                                               'last_completion_ns': 2810.333333333332},
                                      'tlb': (209, 5)},
                                     {'su': {'start_ns': 0.0,
                                             'finish_ns': 1642.0000000000005,
                                             'objects': 19,
                                             'encounters': 20,
                                             'null_references': 21,
                                             'heap_bytes_read': 928,
                                             'value_bytes_written': 608,
                                             'reference_bytes_written': 95,
                                             'bitmap_bytes_written': 20,
                                             'stalls_on_counter_ns': 1.6666666666666856,
                                             'fallback_objects': 0},
                                      'mai': {'read_requests': 77,
                                              'write_requests': 33,
                                              'blocks_read': 32,
                                              'blocks_written': 43,
                                              'coalesced_blocks': 65,
                                              'atomic_rmws': 19},
                                      'dram': {'read_bytes': 1024,
                                               'write_bytes': 1376,
                                               'accesses': 75,
                                               'busy_time_ns': 125.00000000000014,
                                               'last_completion_ns': 1642.0000000000005},
                                      'tlb': (105, 5)}],
                             'lookups': 133,
                             'forced_gc': 1,
                             'extension': (42, '5d00d0267ea7b23fed3d8b93')}
_GOLDEN["extension"] = {'ops': [{'su': {'start_ns': 0.0,
                                        'finish_ns': 15624.99999999988,
                                        'objects': 118,
                                        'encounters': 354,
                                        'null_references': 89,
                                        'heap_bytes_read': 15808,
                                        'value_bytes_written': 12272,
                                        'reference_bytes_written': 1332,
                                        'bitmap_bytes_written': 293,
                                        'stalls_on_counter_ns': 4.333333333332121,
                                        'fallback_objects': 0},
                                 'mai': {'read_requests': 708,
                                         'write_requests': 334,
                                         'blocks_read': 676,
                                         'blocks_written': 555,
                                         'coalesced_blocks': 605,
                                         'atomic_rmws': 118},
                                 'dram': {'read_bytes': 21632,
                                          'write_bytes': 17760,
                                          'accesses': 1231,
                                          'busy_time_ns': 2051.6666666667033,
                                          'last_completion_ns': 15624.99999999988},
                                 'tlb': (1037, 5)},
                                {'su': {'start_ns': 0.0,
                                        'finish_ns': 15624.99999999988,
                                        'objects': 118,
                                        'encounters': 354,
                                        'null_references': 89,
                                        'heap_bytes_read': 15808,
                                        'value_bytes_written': 12272,
                                        'reference_bytes_written': 1332,
                                        'bitmap_bytes_written': 293,
                                        'stalls_on_counter_ns': 4.333333333332121,
                                        'fallback_objects': 0},
                                 'mai': {'read_requests': 708,
                                         'write_requests': 334,
                                         'blocks_read': 676,
                                         'blocks_written': 555,
                                         'coalesced_blocks': 605,
                                         'atomic_rmws': 118},
                                 'dram': {'read_bytes': 21632,
                                          'write_bytes': 17760,
                                          'accesses': 1231,
                                          'busy_time_ns': 2051.6666666667033,
                                          'last_completion_ns': 15624.99999999988},
                                 'tlb': (1037, 5)}],
                        'lookups': 236,
                        'forced_gc': 0,
                        'extension': (118, '13445af84b9fbbffa2ed1ee4')}
_GOLDEN["no_extension"] = {'ops': [{'su': {'start_ns': 0.0,
                                           'finish_ns': 14479.33333333325,
                                           'objects': 118,
                                           'encounters': 354,
                                           'null_references': 89,
                                           'heap_bytes_read': 14864,
                                           'value_bytes_written': 11328,
                                           'reference_bytes_written': 1332,
                                           'bitmap_bytes_written': 292,
                                           'stalls_on_counter_ns': 111.99999999999898,
                                           'fallback_objects': 0},
                                    'mai': {'read_requests': 708,
                                            'write_requests': 319,
                                            'blocks_read': 595,
                                            'blocks_written': 525,
                                            'coalesced_blocks': 489,
                                            'atomic_rmws': 118},
                                    'dram': {'read_bytes': 19040,
                                             'write_bytes': 16800,
                                             'accesses': 1120,
                                             'busy_time_ns': 1866.6666666666956,
                                             'last_completion_ns': 14479.33333333325},
                                    'tlb': (1022, 5)},
                                   {'su': {'start_ns': 0.0,
                                           'finish_ns': 14479.33333333325,
                                           'objects': 118,
                                           'encounters': 354,
                                           'null_references': 89,
                                           'heap_bytes_read': 14864,
                                           'value_bytes_written': 11328,
                                           'reference_bytes_written': 1332,
                                           'bitmap_bytes_written': 292,
                                           'stalls_on_counter_ns': 111.99999999999898,
                                           'fallback_objects': 0},
                                    'mai': {'read_requests': 708,
                                            'write_requests': 319,
                                            'blocks_read': 595,
                                            'blocks_written': 525,
                                            'coalesced_blocks': 489,
                                            'atomic_rmws': 118},
                                    'dram': {'read_bytes': 19040,
                                             'write_bytes': 16800,
                                             'accesses': 1120,
                                             'busy_time_ns': 1866.6666666666956,
                                             'last_completion_ns': 14479.33333333325},
                                    'tlb': (1022, 5)}],
                           'lookups': 236,
                           'forced_gc': 0,
                           'extension': None}
_GOLDEN["vanilla"] = {'ops': [{'su': {'start_ns': 0.0,
                                      'finish_ns': 15308.666666666571,
                                      'objects': 106,
                                      'encounters': 321,
                                      'null_references': 63,
                                      'heap_bytes_read': 11272,
                                      'value_bytes_written': 8208,
                                      'reference_bytes_written': 1183,
                                      'bitmap_bytes_written': 217,
                                      'stalls_on_counter_ns': 0.0,
                                      'fallback_objects': 0},
                               'mai': {'read_requests': 639,
                                       'write_requests': 257,
                                       'blocks_read': 502,
                                       'blocks_written': 408,
                                       'coalesced_blocks': 564,
                                       'atomic_rmws': 106},
                               'dram': {'read_bytes': 16064,
                                        'write_bytes': 13056,
                                        'accesses': 910,
                                        'busy_time_ns': 1516.6666666666797,
                                        'last_completion_ns': 15308.666666666571},
                               'tlb': (891, 5)}],
                      'lookups': 106,
                      'forced_gc': 0,
                      'extension': (106, 'f9cdcb2cf95361cabe38ff88')}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_su_golden_pins(case):
    assert _CASES[case]() == _GOLDEN[case]


# -- differential: the layout-driven loop against the original ----------------------


def _random_graph(heap: Heap, seed: int):
    """Roots into a random graph of nodes, mixed records and arrays.

    Every reference is null, a self-reference, or any object of the
    population, so the graph has cycles, shared subgraphs, null holes and
    reference arrays; primitive arrays give objects of many sizes.
    """
    rng = DeterministicRandom(seed=seed * 0x2545 + 7)
    population = []
    for _ in range(rng.randint(20, 90)):
        pick = rng.random()
        if pick < 0.4:
            obj = heap.new_instance("Node")
            obj.set("value", rng.randint(-99, 99))
        elif pick < 0.55:
            obj = heap.new_instance("Mixed")
            obj.set("big", rng.randint(0, 2**40))
        elif pick < 0.65:
            obj = heap.new_instance("Point")
        elif pick < 0.85:
            obj = heap.new_array(FieldKind.REFERENCE, rng.randint(0, 12))
        else:
            obj = heap.new_array(FieldKind.LONG, rng.randint(0, 40))
        population.append(obj)

    def target():
        return None if rng.random() < 0.3 else rng.choice(population)

    for obj in population:
        name = obj.klass.name
        if name == "Node":
            obj.set("left", target())
            obj.set("right", target())
        elif name == "Mixed":
            obj.set("child", target())
        elif obj.klass.is_array and obj.klass.element_kind is FieldKind.REFERENCE:
            for index in range(obj.length):
                obj.set_element(index, target())
    return [rng.choice(population) for _ in range(4)]


def _straddling_graph(heap: Heap, seed: int):
    """A random graph whose addresses cross from 23 to 24 significant bits,
    where a packed relative-address item grows by one byte."""
    heap.reserve(0x80_0000 - 64 * seed - HEAP_BASE - heap.used_bytes)
    return _random_graph(heap, seed)


def _fuzz_roots(heap: Heap, seed: int):
    root = build_fuzz_graph(heap, seed)
    return [root, root.get_element(0), root.get_element(root.length - 1)]


def _run_units(unit_class, make_heap, build, config, unit_ids, counter):
    """Run ``unit_class`` over each root on one shared device DRAM."""
    heap = make_heap()
    roots = build(heap)
    registration = ClassRegistration()
    table = KlassPointerTable()
    for klass in heap.registry:
        table.install(klass.metaspace_address, registration.register(klass))
    dram = DRAMModel(out_of_order=True)
    ops = []
    for unit_id, root in zip(unit_ids, roots):
        mai = MemoryAccessInterface(dram, config)
        unit = unit_class(mai, table, config, unit_id=unit_id)
        su = unit.run(root, registration, start_ns=10.0 * unit_id,
                      serialization_counter=counter)
        ops.append(_op_pin(su, mai))
    words = None
    if heap.cereal_extension:
        words = [heap.memory.read_u64(obj.address + 16) for obj in heap.objects()]
    return ops, table.lookups, words


_DIFFERENTIAL = [
    # (registry, builder, heap options, config, unit IDs, counter)
    (make_registry, _random_graph, {}, CerealConfig(), (0, 1, 0, 2), 5),
    (make_registry, _straddling_graph, {}, CerealConfig(), (0, 1, 0, 2), 3),
    (make_registry, _random_graph, {}, CerealConfig().vanilla(), (3, 3, 4, 3), 1),
    (make_registry, _random_graph, {"cereal_extension": False}, CerealConfig(), (0, 1, 2, 3),
     1),
    (fuzz_registry, _fuzz_roots, {}, CerealConfig(), (0, 7, 0), 0xFFFF),
    (fuzz_registry, _fuzz_roots, {"cereal_extension": False}, CerealConfig().vanilla(),
     (1, 1, 1), 2),
]


@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize("case", range(len(_DIFFERENTIAL)))
def test_matches_reference_loop(case, seed):
    registry, build, options, config, unit_ids, counter = _DIFFERENTIAL[case]

    def make_heap():
        return Heap(registry=registry(), **options)

    def build_seeded(heap):
        return build(heap, seed)

    expected = _run_units(_ReferenceSU, make_heap, build_seeded, config, unit_ids, counter)
    actual = _run_units(
        SerializationUnit, make_heap, build_seeded, config, unit_ids, counter
    )
    assert actual == expected
    assert expected[0][0]["su"]["objects"] > 0


def test_stale_claims_in_flag_bits_survive():
    """A claim rewrites the counter, unit and address fields only."""
    claimed = []
    for unit_class in (_ReferenceSU, SerializationUnit):
        heap = Heap(registry=make_registry())
        root = build_tree(heap, depth=2)
        for obj in heap.objects():
            heap.memory.write_u64(obj.address + 16, 0xA5FF_FFFF_FFFF_FFFF)
        unit, registration = _bare_unit(unit_class, heap.registry, unit_id=2)
        unit.run(root, registration, serialization_counter=9)
        claimed.append([heap.memory.read_u64(obj.address + 16) for obj in heap.objects()])
    assert claimed[1] == claimed[0]
    assert {word >> 56 for word in claimed[1]} == {0xA5}
    assert {word & 0xFF_FFFF for word in claimed[1]} == {9 | 3 << 16}


def _bare_unit(unit_class, registry, unit_id=0):
    registration = ClassRegistration()
    table = KlassPointerTable()
    for klass in registry:
        table.install(klass.metaspace_address, registration.register(klass))
    mai = MemoryAccessInterface(DRAMModel(), CerealConfig())
    return unit_class(mai, table, CerealConfig(), unit_id=unit_id), registration


class TestClaimErrors:
    """Both loops reject what the extension word cannot hold, and a
    dangling reference, with the same ``HeapError``."""

    @pytest.mark.parametrize("unit_class", [_ReferenceSU, SerializationUnit])
    @pytest.mark.parametrize("counter", [-1, 0x1_0000])
    def test_counter_out_of_range(self, unit_class, counter):
        heap = Heap(registry=make_registry())
        root = build_tree(heap, depth=1)
        unit, registration = _bare_unit(unit_class, heap.registry)
        with pytest.raises(HeapError, match="16-bit range"):
            unit.run(root, registration, serialization_counter=counter)

    @pytest.mark.parametrize("unit_class", [_ReferenceSU, SerializationUnit])
    def test_unit_id_out_of_range(self, unit_class):
        heap = Heap(registry=make_registry())
        root = build_tree(heap, depth=1)
        unit, registration = _bare_unit(unit_class, heap.registry, unit_id=255)
        with pytest.raises(HeapError, match="8-bit range"):
            unit.run(root, registration, serialization_counter=1)

    @pytest.mark.parametrize("unit_class", [_ReferenceSU, SerializationUnit])
    def test_out_of_range_is_harmless_without_extension(self, unit_class):
        heap = Heap(registry=make_registry(), cereal_extension=False)
        root = build_tree(heap, depth=1)
        unit, registration = _bare_unit(unit_class, heap.registry, unit_id=255)
        assert unit.run(root, registration, serialization_counter=1 << 20).objects == 3

    @pytest.mark.parametrize("extension", [True, False])
    @pytest.mark.parametrize("unit_class", [_ReferenceSU, SerializationUnit])
    def test_dangling_reference(self, unit_class, extension):
        heap = Heap(registry=make_registry(), cereal_extension=extension)
        root = build_tree(heap, depth=1)
        right = root.slot_address(2)
        heap.memory.write_u64(right, heap.used_bytes + 0x10_0000)
        unit, registration = _bare_unit(unit_class, heap.registry)
        with pytest.raises(HeapError, match="no object at address"):
            unit.run(root, registration, serialization_counter=1)
