"""Serialization formats: Java built-in, Kryo, Skyway, and Cereal.

Every serializer implements the same :class:`~repro.formats.base.Serializer`
interface over the simulated JVM heap:

* ``serialize(root)`` walks the object graph in the canonical order and
  produces a :class:`~repro.formats.base.SerializedStream` — real bytes with
  a per-section size breakdown — plus a :class:`~repro.formats.base.WorkProfile`
  that the CPU/accelerator timing models consume.
* ``deserialize(stream, heap)`` reconstructs an equivalent object graph on a
  destination heap.

The four implementations mirror the paper's comparison set (Sections II-IV):
``JavaSerializer`` (type strings + reflection), ``KryoSerializer`` (integer
class numbering + ReflectASM), ``SkywaySerializer`` (raw object copy +
relative addresses), and ``CerealSerializer`` (decoupled value array /
reference array / layout bitmap with object packing).
"""

from repro.formats.base import (
    DeserializationResult,
    SerializationResult,
    SerializedStream,
    Serializer,
    WorkProfile,
)
from repro.formats.registry import ClassRegistration
from repro.formats.javaser import JavaSerializer
from repro.formats.kryo import KryoSerializer
from repro.formats.skyway import SkywaySerializer
from repro.formats.cereal_format import CerealSerializer, CerealStreamSections
from repro.formats.limits import DEFAULT_LIMITS, DecodeLimits
from repro.formats.packing import pack_items, unpack_items
from repro.formats.chunked import (
    ChunkAssembler,
    collect_chunks,
    encode_cursor,
)
from repro.formats.plans import (
    ChunkingBuffer,
    EncodeCursor,
    EncodeSummary,
)
from repro.formats.secure import (
    VersionedKryo,
    decode_stats,
    schema_fingerprint,
    secure_deserialize,
    secure_deserialize_chunks,
)
from repro.formats.streams import (
    BoundedChunkQueue,
    ChunkSink,
    ChunkSource,
    CollectingChunkSink,
    frame_chunk,
    unframe_chunk,
)
from repro.formats.verify import graphs_equivalent

__all__ = [
    "Serializer",
    "SerializedStream",
    "SerializationResult",
    "DeserializationResult",
    "WorkProfile",
    "ClassRegistration",
    "DecodeLimits",
    "DEFAULT_LIMITS",
    "JavaSerializer",
    "KryoSerializer",
    "SkywaySerializer",
    "CerealSerializer",
    "CerealStreamSections",
    "VersionedKryo",
    "decode_stats",
    "schema_fingerprint",
    "secure_deserialize",
    "secure_deserialize_chunks",
    "ChunkAssembler",
    "BoundedChunkQueue",
    "ChunkSink",
    "ChunkSource",
    "CollectingChunkSink",
    "ChunkingBuffer",
    "EncodeCursor",
    "EncodeSummary",
    "collect_chunks",
    "encode_cursor",
    "frame_chunk",
    "unframe_chunk",
    "pack_items",
    "unpack_items",
    "graphs_equivalent",
]
