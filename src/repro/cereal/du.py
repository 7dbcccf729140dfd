"""Deserialization Unit timing model (paper Section V-C, Figure 8).

The DU turns a Cereal stream back into a heap image at 64 B *block*
granularity, which is what makes it fast: the decoupled format means a
block can be rebuilt knowing only its 8 layout-bitmap bits, the next N
values, and the next M references — independent of object boundaries.

* **layout manager** — eagerly prefetches the packed layout bitmap through
  an internal buffer, unpacks it, and per 64 B block counts the 0s/1s in
  the 8-bit chunk (single cycle) before handing it to the block manager.
* **block manager** — eagerly prefetches the value array and the packed
  reference array, unpacks references, and for each block pulls exactly
  ``zeros`` values and ``ones`` references, dispatching the bundle to a
  free block reconstructor together with the destination address.
* **block reconstructors** (4 per DU by default) — scatter values and
  references into a 64 B output block according to the bitmap, translate a
  class ID to a klass address through the Class ID Table when the block
  holds an object header, and post the 64 B write.

With ``pipelined=False`` ("Cereal Vanilla") there is a single reconstructor
and no eager prefetch: every block's loads are issued on demand and the
whole per-block chain serializes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.bitutils import significant_bits
from repro.common.config import CerealConfig
from repro.common.errors import SimulationError
from repro.cereal.mai import MemoryAccessInterface
from repro.cereal.tables import ClassIDTable

# Synthetic placement of the incoming stream (e.g. a receive buffer).
INPUT_REGION_BASE = 0x60_0000_0000
_VALUE_REGION = 0x0_0000_0000
_REF_REGION = 0x1_0000_0000
_BITMAP_REGION = 0x2_0000_0000

_LM_CHUNK_NS = 1.0  # unpack + popcount of one 8-bit chunk
_BM_DISPATCH_NS = 1.0  # block-manager retrieval + dispatch
_RECONSTRUCT_NS = 9.0  # scan 8 slots + issue write
_PREFETCH_DEPTH = 8  # outstanding 64 B lines per stream prefetcher


@dataclass
class BlockDescriptor:
    """Input requirements of one 64 B output block."""

    value_slots: int  # zeros in the 8-bit bitmap chunk
    reference_slots: int  # ones in the chunk
    has_header: bool  # block contains an object's class-ID slot
    reference_bytes: int  # packed reference-array bytes this block consumes


@dataclass
class DUWorkload:
    """Stream-side description of one deserialization operation."""

    image_bytes: int
    blocks: List[BlockDescriptor]
    value_array_bytes: int
    reference_array_bytes: int
    bitmap_bytes: int

    @classmethod
    def from_stream_sections(cls, sections) -> "DUWorkload":
        """Build block descriptors from decoded Cereal stream sections.

        ``sections`` is a :class:`repro.formats.cereal_format.CerealStreamSections`.
        Flattens the per-object bitmaps into the image's slot sequence and
        slices it into 8-slot blocks, tracking exactly how many values and
        packed reference bytes each block consumes.
        """
        bitmaps = sections.layout_bitmaps()
        references = sections.reference_values()

        flat_bits: List[int] = []
        header_slots: List[int] = []  # absolute slot index of each klass slot
        slot_cursor = 0
        for bitmap in bitmaps:
            header_slots.append(slot_cursor + 1)  # klass slot is slot 1
            flat_bits.extend(bitmap)
            slot_cursor += len(bitmap)

        if sections.packed:
            ref_sizes = [
                (significant_bits(value) + 1 + 7) // 8 for value in references
            ]
        else:
            ref_sizes = [8] * len(references)  # baseline: raw 8 B offsets

        blocks: List[BlockDescriptor] = []
        header_set = set(header_slots)
        ref_index = 0
        for block_start in range(0, len(flat_bits), 8):
            chunk = flat_bits[block_start : block_start + 8]
            ones = sum(chunk)
            ref_bytes = sum(ref_sizes[ref_index : ref_index + ones])
            ref_index += ones
            blocks.append(
                BlockDescriptor(
                    value_slots=len(chunk) - ones,
                    reference_slots=ones,
                    has_header=any(
                        (block_start + i) in header_set for i in range(len(chunk))
                    ),
                    reference_bytes=ref_bytes,
                )
            )
        if sections.packed:
            reference_array_bytes = (
                len(sections.references.data) + len(sections.references.end_map)
            )
            bitmap_bytes = (
                len(sections.bitmaps.data) + len(sections.bitmaps.end_map)
            )
        else:
            reference_array_bytes = len(references) * 8
            bitmap_bytes = sum(8 + (len(b) + 7) // 8 for b in bitmaps)
        return cls(
            image_bytes=sections.graph_total_bytes,
            blocks=blocks,
            value_array_bytes=len(sections.value_words) * 8,
            reference_array_bytes=reference_array_bytes,
            bitmap_bytes=bitmap_bytes,
        )


@dataclass
class DUResult:
    """Timing and traffic of one deserialization operation on one DU."""

    start_ns: float
    finish_ns: float
    blocks: int
    image_bytes_written: int
    stream_bytes_read: int

    @property
    def elapsed_ns(self) -> float:
        return self.finish_ns - self.start_ns


class _StreamPrefetcher:
    """Eager sequential loader with a bounded outstanding-line window.

    Models the layout-bitmap / value-array / reference-array loaders: each
    keeps an internal buffer and issues a new 64 B load whenever a slot
    frees, so the stream arrives at DRAM-bandwidth rate with the zero-load
    latency as a pipeline fill cost.
    """

    def __init__(
        self,
        mai: MemoryAccessInterface,
        base: int,
        length: int,
        start_ns: float,
        depth: int = _PREFETCH_DEPTH,
    ):
        self.mai = mai
        self.base = base
        self.length = length
        self.depth = depth
        self._completions: List[float] = []
        self._issued = 0
        self._start_ns = start_ns

    def _issue_next(self) -> None:
        offset = self._issued * 64
        if offset >= self.length:
            raise SimulationError("prefetcher ran past its stream")
        window_gate = (
            self._completions[self._issued - self.depth]
            if self._issued >= self.depth
            else self._start_ns
        )
        done = self.mai.read(window_gate, self.base + offset, min(64, self.length - offset))
        self._completions.append(done)
        self._issued += 1

    def available_at(self, byte_position: int) -> float:
        """Time the byte *before* ``byte_position`` has arrived (0 => start)."""
        if byte_position <= 0 or self.length == 0:
            return self._start_ns
        byte_position = min(byte_position, self.length)
        line = (byte_position - 1) // 64
        while self._issued <= line:
            self._issue_next()
        return self._completions[line]


class DeserializationUnit:
    """Cycle-accounted model of one DU."""

    def __init__(
        self,
        mai: MemoryAccessInterface,
        class_id_table: ClassIDTable,
        config: Optional[CerealConfig] = None,
        unit_id: int = 0,
    ):
        self.mai = mai
        self.class_id_table = class_id_table
        self.config = config or CerealConfig()
        self.unit_id = unit_id

    def run(
        self,
        workload: DUWorkload,
        destination_base: int,
        start_ns: float = 0.0,
    ) -> DUResult:
        """Simulate deserializing ``workload`` into memory at ``destination_base``."""
        pipelined = self.config.pipelined
        reconstructors = (
            self.config.block_reconstructors_per_du if pipelined else 1
        )
        depth = self.config.du_prefetch_depth if pipelined else 1

        bitmap_stream = _StreamPrefetcher(
            self.mai, INPUT_REGION_BASE + _BITMAP_REGION, workload.bitmap_bytes,
            start_ns, depth,
        )
        value_stream = _StreamPrefetcher(
            self.mai, INPUT_REGION_BASE + _VALUE_REGION, workload.value_array_bytes,
            start_ns, depth,
        )
        ref_stream = _StreamPrefetcher(
            self.mai, INPUT_REGION_BASE + _REF_REGION, workload.reference_array_bytes,
            start_ns, depth,
        )

        lm_free = start_ns
        bm_free = start_ns
        reconstructor_free = [start_ns] * reconstructors

        bitmap_pos = 0
        value_pos = 0
        ref_pos = 0
        finish = start_ns

        for index, block in enumerate(workload.blocks):
            # Layout manager: the packed bitmap for 8 slots is ~1 byte + its
            # end-map share; consume proportionally.
            bitmap_pos += 1
            lm_ready = bitmap_stream.available_at(
                min(bitmap_pos, workload.bitmap_bytes)
            )
            lm_time = max(lm_free, lm_ready) + _LM_CHUNK_NS
            lm_free = lm_time

            # Block manager: needs the block's values and references.
            value_pos += block.value_slots * 8
            ref_pos += block.reference_bytes
            bm_ready = max(
                value_stream.available_at(value_pos),
                ref_stream.available_at(ref_pos),
            )
            bm_time = max(bm_free, lm_time, bm_ready) + _BM_DISPATCH_NS
            bm_free = bm_time

            # Block reconstructor: earliest-free of the pool.
            slot = min(range(reconstructors), key=lambda k: reconstructor_free[k])
            rec_start = max(bm_time, reconstructor_free[slot])
            rec_done = rec_start + _RECONSTRUCT_NS
            if block.has_header:
                self.class_id_table.lookups += 1
                rec_done += 1.0
            self.mai.write(rec_done, destination_base + index * 64, 64)
            reconstructor_free[slot] = rec_done
            finish = max(finish, rec_done)

            if not pipelined:
                # Vanilla: the whole per-block chain serializes.
                lm_free = bm_free = rec_done
                reconstructor_free = [rec_done]

        finish = self.mai.drain(finish)
        stream_bytes = (
            workload.bitmap_bytes
            + workload.value_array_bytes
            + workload.reference_array_bytes
        )
        return DUResult(
            start_ns=start_ns,
            finish_ns=finish,
            blocks=len(workload.blocks),
            image_bytes_written=len(workload.blocks) * 64,
            stream_bytes_read=stream_bytes,
        )
