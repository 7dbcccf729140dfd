"""Chunked, resumable serialization with bounded arenas.

Every format has one production encode, its serializer's
:meth:`~repro.formats.base.Serializer.encode_walk`: a generator that
writes the stream into a sink and whose explicit frame stack is its
suspension state. :func:`encode_cursor` drains that walk through a
:class:`~repro.formats.plans.ChunkingBuffer`, which carves the stream
into fixed-size arenas from a :class:`~repro.common.bufpool.ChunkArenaPool`;
the walk yields whenever a chunk seals, and an
:class:`~repro.formats.plans.EncodeCursor` pulls one chunk at a time, so
the encoder never runs ahead of its consumer by more than the pool
population — backpressure reaches the walk itself.

Resumability is structural, not re-entrant: suspending at a chunk
boundary costs one generator yield, and resuming continues from the
exact frame/index/offset where the walk stopped — the object graph is
never re-walked. Blobs larger than a chunk (primitive-array images,
Kryo varint arrays, Cereal's trailing sections) are written in
chunk-sized steps, so no single uninterruptible write overshoots an
arena by more than one object's worth of bytes.

Byte identity: the concatenation of a walk's chunks is the
``serialize()`` output for every format and every chunk size, including
sizes of 1 byte and sizes larger than the payload, because both drain
the same walk; ``tests/test_streaming.py`` checks both against the
interpreter oracle. Profiles and section splits are identical too, so
the CPU cost model prices a chunked encode exactly like a whole-stream
one (the win is *when* bytes become available, not how many
instructions produce them).

The receiver side is :class:`ChunkAssembler`: CRC-framed chunks are
verified in sequence with :class:`~repro.formats.limits.DecodeLimits`
budgets enforced incrementally — a hostile or clipped stream is rejected
at the offending chunk, before later chunks are even read.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import CorruptionError, TruncatedStreamError
from repro.formats.limits import DecodeLimits, resolve_limits
from repro.formats.plans import ChunkingBuffer, EncodeCursor
from repro.formats.streams import frame_chunk, unframe_chunk
from repro.jvm.heap import HeapObject


def encode_cursor(
    serializer,
    root: HeapObject,
    chunk_bytes: int,
    pool=None,
    block: bool = False,
) -> EncodeCursor:
    """A resumable chunked encode of ``root`` under ``serializer``.

    ``pool`` defaults to the process-wide
    :data:`~repro.common.bufpool.GLOBAL_CHUNK_POOL`; ``block=True``
    makes arena exhaustion wait (threaded producer/consumer pipelines)
    instead of drawing counted overflow arenas.
    """
    buffer = ChunkingBuffer(chunk_bytes, pool=pool, block=block)
    return EncodeCursor(serializer.encode_walk(root, buffer), buffer)


def collect_chunks(
    serializer,
    root: HeapObject,
    chunk_bytes: int,
    pool=None,
    framed: bool = False,
):
    """Drain a full chunked encode; returns ``(chunks, summary)``.

    Each chunk is copied out of its arena (which returns to the pool
    immediately), so this is the reference single-threaded pull loop:
    the pool's high-water mark stays at one chunk regardless of payload
    size. With ``framed=True`` every chunk is wrapped in the CRC chunk
    frame, the final one carrying the LAST flag.
    """
    cursor = encode_cursor(serializer, root, chunk_bytes, pool=pool)
    chunks: List[bytes] = []
    while True:
        arena = cursor.next_chunk()
        if arena is None:
            break
        chunks.append(bytes(arena))
        cursor.recycle(arena)
    if framed:
        last = len(chunks) - 1
        chunks = [
            frame_chunk(seq, chunk, last=(seq == last))
            for seq, chunk in enumerate(chunks)
        ]
    return chunks, cursor.summary


class ChunkAssembler:
    """Receiver-side reassembly of CRC-framed chunks with incremental
    :class:`DecodeLimits` enforcement.

    ``push`` verifies each frame (magic, header CRC, payload CRC, strict
    sequence order) and charges the running payload size against
    ``max_stream_bytes`` *as chunks arrive* — an over-budget or corrupt
    stream is rejected at the offending chunk, before later chunks are
    read. ``payload()`` returns the assembled bytes only once the
    LAST-flagged chunk has landed; a clipped tail raises
    :class:`TruncatedStreamError` whose offset is the point where the
    stream went dark.
    """

    def __init__(self, limits: Optional[DecodeLimits] = None):
        self._limits = resolve_limits(limits)
        self._payload = bytearray()
        self._next_seq = 0
        self.finished = False
        self.chunks_received = 0

    @property
    def assembled_bytes(self) -> int:
        return len(self._payload)

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def push(self, framed_chunk) -> None:
        if self.finished:
            raise CorruptionError(
                f"chunk {self._next_seq} arrived after the LAST-flagged chunk"
            )
        seq, payload, last = unframe_chunk(framed_chunk)
        if seq != self._next_seq:
            raise CorruptionError(
                f"chunk sequence gap: expected {self._next_seq}, got {seq}"
            )
        self._limits.check_stream_bytes(len(self._payload) + len(payload))
        self._payload += payload
        self._next_seq += 1
        self.chunks_received += 1
        if last:
            self.finished = True

    def payload(self) -> bytearray:
        """The reassembled stream payload (zero-copy: the internal
        buffer, safe to hand to decoders directly)."""
        if not self.finished:
            raise TruncatedStreamError(
                offset=len(self._payload), needed=1, available=0
            )
        return self._payload
