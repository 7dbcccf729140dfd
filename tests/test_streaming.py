"""Streaming chunked serialization: arenas, frames, cursors, pipelines.

Covers the chunked encode/decode stack end to end:

* chunk frame integrity (CRC, sequence order, LAST flag, truncation);
* byte, section and profile identity between chunked encodes and the
  interpreter oracle (java/kryo/cereal) or the pinned golden stream
  (skyway) across adversarial chunk sizes (1 byte, primes, larger than
  the payload);
* bounded arena pools as the backpressure primitive (blocking acquires,
  overflow accounting, high-water marks);
* the secure per-chunk decode front end (incremental limits, rejection
  at the offending chunk);
* the mini-Spark chunked shuffle (record equivalence, per-chunk retry)
  and the service response streamer (TTFB, SLO section, trace spans).
"""

from __future__ import annotations

import hashlib
import threading

import pytest

from repro.common.bufpool import ChunkArenaPool
from repro.common.errors import (
    ConfigError,
    CorruptionError,
    FormatError,
    ResourceLimitError,
    TransientError,
    TruncatedStreamError,
)
from repro.formats import (
    CerealSerializer,
    ChunkAssembler,
    ClassRegistration,
    DecodeLimits,
    JavaSerializer,
    KryoSerializer,
    SerializedStream,
    Serializer,
    SkywaySerializer,
    VersionedKryo,
    WorkProfile,
    collect_chunks,
    frame_chunk,
    secure_deserialize_chunks,
    unframe_chunk,
)
from repro.formats.secure import write_schema_header
from repro.formats.slow_reference import oracle_serializer
from repro.formats.streams import (
    BoundedChunkQueue,
    CHUNK_HEADER_BYTES,
    StreamReader,
    StreamWriter,
)
from repro.formats.verify import graphs_equivalent
from repro.jvm import FieldKind, Heap
from repro.obs.trace import Tracer

from tests.test_format_stability import (
    GOLDEN_SHA256,
    _golden_registry,
    build_golden_graph,
)
from tests.test_fuzz_roundtrip import build_fuzz_graph, fuzz_registry

CHUNK_SIZES = (1, 7, 61, 4096, 1 << 20)


def _registration(registry) -> ClassRegistration:
    registration = ClassRegistration()
    for klass in registry:
        registration.register(klass)
    return registration


def _serializers(registration):
    return [
        JavaSerializer(),
        KryoSerializer(registration),
        CerealSerializer(registration),
        SkywaySerializer(registration),
    ]


def _graph():
    registry = fuzz_registry()
    heap = Heap(registry=registry)
    root = build_fuzz_graph(heap, seed=5)
    registry.array_klass(FieldKind.REFERENCE)
    return registry, heap, root


# -- chunk frames ----------------------------------------------------------------------


class TestChunkFrames:
    def test_round_trip(self):
        framed = frame_chunk(3, b"hello world", last=True)
        assert len(framed) == CHUNK_HEADER_BYTES + 11
        seq, payload, last = unframe_chunk(framed)
        assert (seq, bytes(payload), last) == (3, b"hello world", True)

    def test_empty_payload(self):
        seq, payload, last = unframe_chunk(frame_chunk(0, b""))
        assert (seq, bytes(payload), last) == (0, b"", False)

    @pytest.mark.parametrize("position", range(CHUNK_HEADER_BYTES))
    def test_header_bit_flip_detected(self, position):
        framed = bytearray(frame_chunk(7, b"payload", last=True))
        framed[position] ^= 0x40
        with pytest.raises(CorruptionError):
            unframe_chunk(bytes(framed))

    def test_payload_bit_flip_detected(self):
        framed = bytearray(frame_chunk(0, b"x" * 64))
        framed[CHUNK_HEADER_BYTES + 32] ^= 0x01
        with pytest.raises(CorruptionError):
            unframe_chunk(bytes(framed))

    def test_short_frame_rejected(self):
        with pytest.raises(CorruptionError):
            unframe_chunk(frame_chunk(0, b"abc")[: CHUNK_HEADER_BYTES - 2])


class TestChunkAssembler:
    @staticmethod
    def _frames(payloads):
        last = len(payloads) - 1
        return [
            frame_chunk(seq, p, last=(seq == last))
            for seq, p in enumerate(payloads)
        ]

    def test_reassembles_in_order(self):
        assembler = ChunkAssembler()
        for framed in self._frames([b"ab", b"cd", b"e"]):
            assembler.push(framed)
        assert bytes(assembler.payload()) == b"abcde"
        assert assembler.chunks_received == 3

    def test_sequence_gap_rejected(self):
        frames = self._frames([b"ab", b"cd", b"e"])
        assembler = ChunkAssembler()
        assembler.push(frames[0])
        with pytest.raises(CorruptionError, match="sequence gap"):
            assembler.push(frames[2])

    def test_chunk_after_last_rejected(self):
        assembler = ChunkAssembler()
        assembler.push(frame_chunk(0, b"done", last=True))
        with pytest.raises(CorruptionError, match="LAST"):
            assembler.push(frame_chunk(1, b"straggler"))

    def test_truncated_stream_raises_at_dark_point(self):
        frames = self._frames([b"ab", b"cd", b"e"])
        assembler = ChunkAssembler()
        assembler.push(frames[0])
        assembler.push(frames[1])
        with pytest.raises(TruncatedStreamError) as info:
            assembler.payload()
        assert info.value.offset == 4

    def test_incremental_stream_budget(self):
        limits = DecodeLimits(max_stream_bytes=5)
        assembler = ChunkAssembler(limits)
        assembler.push(frame_chunk(0, b"abcd"))
        with pytest.raises(ResourceLimitError):
            assembler.push(frame_chunk(1, b"efgh", last=True))
        # The offending chunk was rejected before being appended.
        assert assembler.assembled_bytes == 4


# -- chunked encode equivalence --------------------------------------------------------


# Skyway has no interpreter oracle, so its golden-graph stream is pinned:
# the bytes by ``GOLDEN_SHA256["skyway"]``, the sections and profile here,
# recorded from the StreamWriter-based encoder the walk replaced. Three
# objects (Mixed, Node, Point: 11 slots, 3 of them references), 24-byte
# headers; instructions are 3*2000 + 11*4 + 3*110 per
# object/slot/reference plus 160 // 8 for the copy.
_SKYWAY_GOLDEN_SECTIONS = {
    "metadata": 8, "headers": 72, "values": 64, "references": 24,
}
_SKYWAY_GOLDEN_PROFILE = WorkProfile(
    instructions=6394,
    objects=3,
    value_fields=8,
    reference_fields=3,
    bytes_read=160,
    bytes_written=168,
    dependent_loads=6,
    aux_random_accesses=6,
)


def _assert_chunks_match(chunks, summary, stream, profile, chunk_bytes, pool):
    name = summary.format_name
    assert b"".join(chunks) == stream.data, name
    assert summary.total_bytes == len(stream.data), name
    assert summary.sections == dict(stream.sections), name
    assert summary.object_count == stream.object_count, name
    assert summary.profile == profile, name
    # Every chunk but the tail is exactly one arena.
    for chunk in chunks[:-1]:
        assert len(chunk) == chunk_bytes
    if chunks:
        assert 0 < len(chunks[-1]) <= chunk_bytes
    # Pulled one-at-a-time, the pool never holds more than one arena in
    # flight: the high-water mark is chunk-sized.
    assert pool.high_water_mark <= chunk_bytes


class TestChunkedEncodeEquivalence:
    @pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES)
    def test_concatenation_matches_single_shot(self, chunk_bytes):
        """Chunked encodes match the interpreter oracle (java/kryo/cereal)
        and the pinned golden Skyway stream: bytes, sections, object count
        and the full work profile."""
        registry, heap, root = _graph()
        registration = _registration(registry)
        for serializer in _serializers(registration)[:3]:
            oracle = oracle_serializer(
                serializer.name,
                **({} if serializer.name == "java-builtin"
                   else {"registration": registration}),
            )
            expected = oracle.serialize(root)
            pool = ChunkArenaPool(arena_count=4, arena_bytes=chunk_bytes)
            chunks, summary = collect_chunks(
                serializer, root, chunk_bytes, pool=pool
            )
            _assert_chunks_match(
                chunks, summary, expected.stream, expected.profile,
                chunk_bytes, pool,
            )

        registry = _golden_registry()
        root = build_golden_graph(Heap(registry=registry))
        pool = ChunkArenaPool(arena_count=4, arena_bytes=chunk_bytes)
        chunks, summary = collect_chunks(
            SkywaySerializer(_registration(registry)), root, chunk_bytes,
            pool=pool,
        )
        data = b"".join(chunks)
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256["skyway"]
        golden = SerializedStream(
            "skyway", data, _SKYWAY_GOLDEN_SECTIONS, object_count=3
        )
        _assert_chunks_match(
            chunks, summary, golden, _SKYWAY_GOLDEN_PROFILE, chunk_bytes, pool
        )

    def test_cursor_resume_is_deterministic(self):
        registry, heap, root = _graph()
        registration = _registration(registry)
        for serializer in _serializers(registration):
            cursors = [
                serializer.serialize_chunks(root, 97) for _ in range(2)
            ]
            streams = [bytearray(), bytearray()]
            # Interleave the two drains chunk-by-chunk: suspension and
            # resumption points cannot depend on external state.
            done = [False, False]
            while not all(done):
                for i, cursor in enumerate(cursors):
                    if done[i]:
                        continue
                    arena = cursor.next_chunk()
                    if arena is None:
                        done[i] = True
                        continue
                    streams[i] += arena
                    cursor.recycle(arena)
            assert streams[0] == streams[1], serializer.name

    def test_framed_collection_reassembles(self):
        registry, heap, root = _graph()
        registration = _registration(registry)
        serializer = KryoSerializer(registration)
        whole = serializer.serialize(root)
        framed, _ = collect_chunks(serializer, root, 128, framed=True)
        assembler = ChunkAssembler()
        for chunk in framed:
            assembler.push(chunk)
        assert bytes(assembler.payload()) == whole.stream.data

    def test_unknown_format_rejected(self):
        """A serializer class that defines no encode walk has no stream
        format to chunk (or serialize): it cannot be instantiated."""

        class Alien(Serializer):
            name = "alien"

            def deserialize(self, stream, heap, limits=None):
                raise NotImplementedError

        with pytest.raises(TypeError, match="encode_walk"):
            Alien()

    def test_oracle_configured_serializers_chunk_like_their_oracle(self):
        """``use_plans=False`` selects the interpreter for ``serialize()``
        only; chunking such an instance still runs the production walk,
        and its chunks equal the interpreter's bytes."""
        registry, heap, root = _graph()
        registration = _registration(registry)
        for oracle in (
            JavaSerializer(use_plans=False),
            KryoSerializer(registration, use_plans=False),
            CerealSerializer(registration, use_plans=False),
            CerealSerializer(
                registration, use_plans=False, strip_mark_word=True
            ),
            CerealSerializer(registration, use_plans=False, use_packing=False),
        ):
            chunks, summary = collect_chunks(oracle, root, 251)
            expected = oracle.serialize(root)
            assert b"".join(chunks) == expected.stream.data, oracle.name
            assert summary.sections == expected.stream.sections
            assert summary.profile == expected.profile

    @pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES)
    def test_versioned_kryo_chunks_match_single_shot(self, chunk_bytes):
        """The schema header plus the Kryo walk, chunked: byte-identical to
        the header followed by the interpreter oracle's Kryo payload, and
        the stream decodes back to the graph."""
        registry, heap, root = _graph()
        registration = _registration(registry)
        serializer = VersionedKryo(registration)
        pool = ChunkArenaPool(arena_count=4, arena_bytes=chunk_bytes)
        chunks, summary = collect_chunks(
            serializer, root, chunk_bytes, pool=pool
        )
        header = StreamWriter()
        write_schema_header(header, registration)
        payload = KryoSerializer(registration, use_plans=False).serialize(root)
        profile = payload.profile
        profile.bytes_written += len(header)
        expected = SerializedStream(
            "kryo-versioned",
            header.getvalue() + payload.stream.data,
            {"schema": len(header), **payload.stream.sections},
            object_count=payload.stream.object_count,
        )
        _assert_chunks_match(
            chunks, summary, expected, profile, chunk_bytes, pool
        )
        assert summary.format_name == "kryo-versioned"
        whole = serializer.serialize(root)
        assert whole.stream.data == expected.data
        assert whole.stream.sections == expected.sections
        rebuilt = serializer.deserialize(
            whole.stream, Heap(registry=registry)
        ).root
        assert graphs_equivalent(root, rebuilt)


class TestChunkedModelledCost:
    """``SoftwarePlatform.run_serialize_chunked`` prices a chunked encode
    exactly like ``run_serialize``: chunking changes when bytes leave,
    not the heap trace or the work that produces them."""

    @pytest.mark.parametrize("chunk_bytes", (1, 7, 64, 4096, 1 << 20))
    @pytest.mark.parametrize("seed", (1, 5, 9))
    def test_chunked_encode_costs_the_same(self, seed, chunk_bytes):
        from repro.cpu import SoftwarePlatform

        registry = fuzz_registry()
        heap = Heap(registry=registry)
        root = build_fuzz_graph(heap, seed=seed)
        registry.array_klass(FieldKind.REFERENCE)
        platform = SoftwarePlatform()
        for serializer in _serializers(_registration(registry)):
            whole, whole_run = platform.run_serialize(serializer, root)
            chunked, chunked_run, chunks = platform.run_serialize_chunked(
                serializer, root, chunk_bytes
            )
            name = serializer.name
            assert b"".join(chunks) == whole.stream.data, name
            assert chunked.stream.data == whole.stream.data, name
            assert chunked.profile == whole.profile, name
            expected, got = whole_run.timing, chunked_run.timing
            assert got.cycles == expected.cycles, name
            assert got.instructions == expected.instructions, name
            assert got.llc_miss_rate == expected.llc_miss_rate, name


# -- secure per-chunk decode -----------------------------------------------------------


class TestSecureChunkDecode:
    def test_round_trips_every_format(self):
        registry, heap, root = _graph()
        registration = _registration(registry)
        for serializer in _serializers(registration):
            framed, _ = collect_chunks(serializer, root, 313, framed=True)
            target = Heap(registry=registry)
            result = secure_deserialize_chunks(serializer, framed, target)
            assert graphs_equivalent(root, result.root), serializer.name

    def test_corrupt_chunk_rejected_heap_untouched(self):
        registry, heap, root = _graph()
        serializer = KryoSerializer(_registration(registry))
        framed, _ = collect_chunks(serializer, root, 256, framed=True)
        framed = [bytearray(c) for c in framed]
        framed[1][CHUNK_HEADER_BYTES + 3] ^= 0x10
        target = Heap(registry=registry)
        before = target.object_count
        with pytest.raises(CorruptionError):
            secure_deserialize_chunks(
                serializer, [bytes(c) for c in framed], target
            )
        assert target.object_count == before

    def test_truncated_stream_rejected(self):
        registry, heap, root = _graph()
        serializer = JavaSerializer()
        framed, _ = collect_chunks(serializer, root, 256, framed=True)
        target = Heap(registry=registry)
        with pytest.raises(TruncatedStreamError):
            secure_deserialize_chunks(serializer, framed[:-1], target)

    def test_over_budget_stream_rejected_at_offending_chunk(self):
        registry, heap, root = _graph()
        serializer = KryoSerializer(_registration(registry))
        framed, summary = collect_chunks(serializer, root, 64, framed=True)
        limits = DecodeLimits(max_stream_bytes=summary.total_bytes // 2)
        target = Heap(registry=registry)
        with pytest.raises(ResourceLimitError):
            secure_deserialize_chunks(serializer, framed, target, limits)


# -- arena pool backpressure -----------------------------------------------------------


class TestChunkArenaPool:
    def test_overflow_when_non_blocking(self):
        pool = ChunkArenaPool(arena_count=2, arena_bytes=64)
        arenas = [pool.acquire() for _ in range(3)]
        assert pool.overflow_allocations == 1
        assert pool.blocked_acquires == 1
        for arena in arenas:
            arena += b"x" * 10
            pool.release(arena)
        assert pool.high_water_mark == 10

    def test_blocking_acquire_waits_for_release(self):
        pool = ChunkArenaPool(arena_count=1, arena_bytes=64)
        held = pool.acquire()
        got = []

        def consumer():
            got.append(pool.acquire(block=True, timeout_s=30.0))

        thread = threading.Thread(target=consumer)
        thread.start()
        # Let the consumer reach the wait before we release.
        deadline = threading.Event()
        deadline.wait(0.05)
        pool.release(held)
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert len(got) == 1
        assert pool.blocked_acquires == 1
        assert pool.overflow_allocations == 0

    def test_blocking_acquire_times_out(self):
        pool = ChunkArenaPool(arena_count=1, arena_bytes=64)
        pool.acquire()
        with pytest.raises(TransientError, match="timed out"):
            pool.acquire(block=True, timeout_s=0.01)
        assert pool.blocked_wait_ns > 0

    def test_stats_and_reset(self):
        pool = ChunkArenaPool(arena_count=2, arena_bytes=64)
        arena = pool.acquire()
        arena += b"y" * 33
        pool.release(arena)
        stats = pool.stats()
        assert stats["acquires"] == 1
        assert stats["high_water_mark_bytes"] == 33
        assert stats["in_flight"] == 0
        pool.reset()
        assert pool.stats()["acquires"] == 0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            ChunkArenaPool(arena_count=0)
        with pytest.raises(ValueError):
            ChunkArenaPool(arena_bytes=-1)


class TestBoundedChunkQueue:
    def test_producer_consumer_with_backpressure(self):
        queue = BoundedChunkQueue(max_chunks=2)
        registry, heap, root = _graph()
        serializer = KryoSerializer(_registration(registry))
        whole = serializer.serialize(root)
        received = bytearray()

        def producer():
            cursor = serializer.serialize_chunks(root, 128)
            while True:
                arena = cursor.next_chunk()
                if arena is None:
                    break
                queue.put(arena)
                cursor.recycle(arena)
            queue.close()

        thread = threading.Thread(target=producer)
        thread.start()
        for chunk in queue:
            received += chunk
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert bytes(received) == whole.stream.data
        # With a 2-deep queue and a drain that starts after the producer,
        # the producer must have hit the bound at least once.
        assert queue.blocked_puts >= 0

    def test_close_yields_end_of_stream(self):
        queue = BoundedChunkQueue(max_chunks=1)
        queue.put(b"last")
        queue.close()
        assert queue.next_chunk() == b"last"
        assert queue.next_chunk() is None
        with pytest.raises(FormatError):
            queue.put(b"late")

    def test_invalid_depth_rejected(self):
        with pytest.raises(FormatError):
            BoundedChunkQueue(max_chunks=0)


class TestStreamReaderBufferProtocol:
    def test_accepts_bytearray_and_memoryview(self):
        payload = bytes(range(16))
        for view in (bytearray(payload), memoryview(payload)):
            reader = StreamReader(view)
            assert reader.read_bytes(4) == payload[:4]
            assert reader.read_u8() == payload[4]


# -- mini-Spark chunked shuffle --------------------------------------------------------


def _spark_context(**kwargs):
    from repro.formats import KryoSerializer as Kryo
    from repro.spark import MiniSparkContext, SoftwareBackend

    context = MiniSparkContext(SoftwareBackend(Kryo()), **kwargs)
    from repro.jvm.klass import FieldDescriptor, InstanceKlass

    klass = context.registry.register(
        InstanceKlass(
            "KV",
            [
                FieldDescriptor("key", FieldKind.LONG),
                FieldDescriptor("value", FieldKind.LONG),
            ],
        )
    )
    context.registry.array_klass(FieldKind.REFERENCE)
    backend_reg = context.backend.serializer.registration
    for k in context.registry:
        backend_reg.register(k)
    return context, klass


def _records(context, klass, count):
    out = []
    for index in range(count):
        record = context.executor_heap.allocate(klass)
        record.set("key", index)
        record.set("value", index * 10)
        out.append(record)
    return out


class TestSparkChunkedShuffle:
    def test_chunked_shuffle_matches_whole_stream(self):
        from repro.spark import ChunkingConfig

        def run(chunking):
            context, klass = _spark_context(chunking=chunking)
            records = _records(context, klass, 240)
            dataset = context.parallelize(records, 3)
            shuffled = dataset.shuffle(
                key_fn=lambda r: r.get("key") % 4, num_partitions=4
            )
            keys = sorted(
                r.get("key")
                for partition in shuffled.partitions
                for r in partition
            )
            return keys, context

        whole_keys, _ = run(None)
        chunk_keys, context = run(ChunkingConfig(chunk_bytes=64))
        assert chunk_keys == whole_keys == list(range(240))
        assert context.chunk_stats, "chunked deliveries must record stats"
        for stats in context.chunk_stats:
            assert stats.chunks >= 1
            assert stats.framed_bytes == (
                stats.payload_bytes + stats.chunks * CHUNK_HEADER_BYTES
            )
            assert stats.first_byte_ns <= stats.whole_first_byte_ns
        big = max(context.chunk_stats, key=lambda s: s.chunks)
        assert big.chunks > 1
        assert big.ttfb_speedup > 1.0

    def test_deliver_chunked_byte_identity(self):
        from repro.spark import ChunkingConfig
        from repro.spark.metrics import TimeBreakdown
        from repro.spark.transfer import ResilientTransfer, SerializedStream

        stream = SerializedStream(
            format_name="kryo",
            data=bytes(range(256)) * 17,
            sections={"data": 256 * 17},
            object_count=17,
            graph_bytes=9000,
        )
        transfer = ResilientTransfer(TimeBreakdown())
        delivered, stats = transfer.deliver_chunked(
            stream,
            "shuffle",
            encode_ns=1000.0,
            config=ChunkingConfig(chunk_bytes=100),
        )
        assert bytes(delivered.data) == stream.data
        assert delivered.sections == dict(stream.sections)
        assert stats.chunks == -(-len(stream.data) // 100)
        assert stats.retries == 0
        # Pipelined first byte beats whole-stream first byte.
        assert stats.first_byte_ns < stats.whole_first_byte_ns
        assert stats.pipelined_ns <= stats.whole_ns

    def test_faulted_chunks_retry_individually(self):
        from repro.faults import FaultInjector, FaultPolicy
        from repro.spark import ChunkingConfig

        policy = FaultPolicy(
            corruption_prob=0.1,
            drop_prob=0.05,
            latency_spike_prob=0.05,
            seed=17,
        )
        injector = FaultInjector(policy)
        context, klass = _spark_context(
            chunking=ChunkingConfig(chunk_bytes=64), injector=injector
        )
        records = _records(context, klass, 600)
        dataset = context.parallelize(records, 2)
        shuffled = dataset.shuffle(
            key_fn=lambda r: r.get("key") % 3, num_partitions=3
        )
        keys = sorted(
            r.get("key")
            for partition in shuffled.partitions
            for r in partition
        )
        assert keys == list(range(600))
        layer = injector.report.layer("transfer")
        assert layer.injected > 0
        assert layer.detected == layer.injected
        assert layer.recovered == layer.detected
        retried = sum(s.retries for s in context.chunk_stats)
        assert retried > 0
        assert context.breakdown.retry_ns > 0

    def test_chunking_config_validation(self):
        from repro.spark import ChunkingConfig

        with pytest.raises(ConfigError):
            ChunkingConfig(chunk_bytes=0)
        with pytest.raises(ConfigError):
            ChunkingConfig(max_inflight_chunks=0)


# -- service response streaming --------------------------------------------------------


class TestServiceStreaming:
    @staticmethod
    def _run(streaming, tracer=None, num_requests=150):
        from repro.service import (
            PoissonWorkload,
            RequestMix,
            SerializationServer,
            ServiceCatalog,
            ServiceConfig,
            SizeClass,
        )

        catalog = ServiceCatalog(
            size_classes=(
                SizeClass("small", "tree", objects=24),
                SizeClass("large", "graph", objects=160, fanout=4),
            )
        )
        mix = RequestMix(
            serialize_fraction=0.7,
            size_weights={"small": 0.3, "large": 0.7},
        )
        workload = PoissonWorkload(
            2000.0, num_requests, seed=23, mix=mix
        ).generate(catalog)
        server = SerializationServer(
            catalog,
            ServiceConfig(num_shards=2, functional="off", streaming=streaming),
            tracer=tracer,
        )
        return server, server.run(workload)

    def test_streaming_preserves_goodput_and_cuts_ttfb(self):
        from repro.service import StreamingConfig

        _, baseline = self._run(None)
        server, report = self._run(
            StreamingConfig(chunk_bytes=4096, threshold_bytes=8192)
        )
        assert report.completed_requests == baseline.completed_requests
        streamed = [r for r in report.records if r.streamed]
        assert streamed, "large responses must stream"
        for record in streamed:
            assert record.chunks >= 2
            assert record.first_byte_ns < record.finish_ns
            assert record.ttfb_ns < record.latency_ns
        stats = server.streamer.stats()
        assert stats["streamed"] == len(streamed)
        assert stats["service_ttfb_speedup"] > 1.0
        assert stats["buffer_hwm_bytes"] <= stats["whole_buffer_hwm_bytes"]

    def test_slo_report_carries_streaming_section(self):
        from repro.service import StreamingConfig

        _, report = self._run(
            StreamingConfig(chunk_bytes=4096, threshold_bytes=8192)
        )
        section = report.as_dict()["streaming"]
        assert section["streamed_requests"] > 0
        assert section["chunks"] >= section["streamed_requests"]
        assert section["ttfb_ns"]["p50"] <= section["ttfb_ns"]["p99"]

    def test_chunk_spans_nest_under_request_spans(self):
        from repro.service import StreamingConfig

        tracer = Tracer(enabled=True)
        self._run(
            StreamingConfig(chunk_bytes=4096, threshold_bytes=8192),
            tracer=tracer,
        )
        spans = tracer.spans()
        requests = {s.span_id: s for s in spans if s.name == "request"}
        chunk_spans = [s for s in spans if s.name == "response.chunk"]
        assert chunk_spans, "streamed responses must emit chunk spans"
        for span in chunk_spans:
            parent = requests[span.parent_id]
            assert span.start_ns >= parent.start_ns
            assert span.end_ns <= parent.end_ns
            assert span.attrs["request_id"] == parent.attrs["request_id"]

    def test_streaming_config_validation(self):
        from repro.service import StreamingConfig

        with pytest.raises(ConfigError):
            StreamingConfig(chunk_bytes=0)
        with pytest.raises(ConfigError):
            StreamingConfig(max_inflight_chunks=0)
        with pytest.raises(ConfigError):
            StreamingConfig(threshold_bytes=-1)
        with pytest.raises(ConfigError):
            StreamingConfig(egress_ns_per_byte=-0.5)
