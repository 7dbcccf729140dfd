"""Host-time attribution by layer, measured from outside the program.

``SpanFolder.install()`` wraps the public entry points of each ``repro``
layer (the boundaries in ``BOUNDARIES``) with a timing span. Spans nest the
way the calls nest, and each one is folded as it closes: its duration minus
the time covered by the spans it caused is added to its layer's self time,
and its call counter is bumped. Folding on close rather than storing every
span keeps memory flat: the DRAM boundary alone fires about 10^5 times per
device pass.

Nothing in ``src/`` is edited; the wrappers replace class attributes and
module-level names in the already-imported ``repro`` modules, and
``uninstall()`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (metric stem, module, attribute path).
#: An attribute path with a dot is ``Class.method``; without one it is a
#: module-level function, patched in every ``repro`` module that bound it.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("cpu.cache_build", "repro.cpu.cache", "CacheHierarchy.__init__"),
    ("cpu.replay", "repro.cpu.cache", "CacheHierarchy.replay"),
    ("cpu.self", "repro.cpu.harness", "SoftwarePlatform.run_serialize"),
    ("cpu.self", "repro.cpu.harness", "SoftwarePlatform.run_serialize_chunked"),
    ("cpu.self", "repro.cpu.harness", "SoftwarePlatform.run_deserialize"),
    ("formats.serialize", "repro.formats.javaser", "JavaSerializer.serialize"),
    ("formats.serialize", "repro.formats.kryo", "KryoSerializer.serialize"),
    ("formats.serialize", "repro.formats.skyway", "SkywaySerializer.serialize"),
    ("formats.serialize", "repro.formats.cereal_format", "CerealSerializer.serialize"),
    ("formats.deserialize", "repro.formats.javaser", "JavaSerializer.deserialize"),
    ("formats.deserialize", "repro.formats.kryo", "KryoSerializer.deserialize"),
    ("formats.deserialize", "repro.formats.skyway", "SkywaySerializer.deserialize"),
    ("formats.deserialize", "repro.formats.cereal_format", "CerealSerializer.deserialize"),
    ("formats.verify", "repro.formats.verify", "graphs_equivalent"),
    ("formats.packing", "repro.formats.packing", "pack_word_items"),
    ("formats.packing", "repro.formats.packing", "unpack_word_items"),
    ("formats.packing", "repro.formats.packing", "pack_items"),
    ("formats.packing", "repro.formats.packing", "unpack_items"),
    ("formats.packing", "repro.formats.packing", "pack_bitmap_words"),
    ("formats.packing", "repro.formats.packing", "unpack_bitmap_words"),
    ("formats.packing", "repro.formats.packing", "pack_bitmaps"),
    ("formats.packing", "repro.formats.packing", "unpack_bitmaps"),
    ("cereal.accel", "repro.cereal.accelerator", "CerealAccelerator.serialize"),
    ("cereal.accel", "repro.cereal.accelerator", "CerealAccelerator.deserialize"),
    ("cereal.device_sim", "repro.cereal.device_sim", "DeviceSimulator.run"),
    ("memory.dram", "repro.memory.dram", "DRAMModel.access"),
    ("spark.transfer", "repro.spark.transfer", "ResilientTransfer.deliver"),
    ("spark.transfer", "repro.spark.transfer", "ResilientTransfer.deliver_chunked"),
    ("memstore.self", "repro.memstore.manager", "ExecutorMemoryManager.admit"),
    ("memstore.self", "repro.memstore.manager", "ExecutorMemoryManager.read_entry"),
    ("memstore.self", "repro.memstore.manager", "ExecutorMemoryManager.read_cached"),
    ("service.self", "repro.service.server", "SerializationServer.__init__"),
    ("service.self", "repro.service.server", "SerializationServer.run"),
    ("service.self", "repro.service.server", "SerializationServer.register"),
    ("service.self", "repro.service.server", "SerializationServer.adopt"),
    ("service.self", "repro.service.server", "SerializationServer.drain"),
    ("service.self", "repro.service.server", "SerializationServer.reap_inflight"),
    ("service.self", "repro.service.server", "SerializationServer.on_arrival"),
    ("service.self", "repro.service.server", "SerializationServer.on_deadline"),
    ("service.self", "repro.service.server", "SerializationServer.flush_remaining"),
    ("cluster.self", "repro.cluster.cluster", "SerializationCluster.__init__"),
    ("cluster.self", "repro.cluster.cluster", "SerializationCluster.run"),
    ("workloads.gen", "repro.service.workload", "ServiceCatalog.__init__"),
    ("workloads.gen", "repro.service.workload", "OpenLoopWorkload.generate"),
)

#: Boundaries whose return value carries a count of simulated events.
EVENT_COUNTERS: Dict[str, Tuple[str, Callable]] = {
    "cpu.replay": ("cpu.sim_trace_accesses", lambda stats: stats.accesses),
}

#: Every self-time stem, in report order; ``spark.self`` spans are opened by
#: the benchmark around each app run and its cached stage.
STEMS: Tuple[str, ...] = (
    "cpu.cache_build",
    "cpu.replay",
    "cpu.self",
    "formats.serialize",
    "formats.deserialize",
    "formats.verify",
    "formats.packing",
    "cereal.accel",
    "cereal.device_sim",
    "memory.dram",
    "spark.self",
    "spark.transfer",
    "memstore.self",
    "service.self",
    "cluster.self",
    "workloads.gen",
)


class SpanFolder:
    """Wraps layer boundaries and folds their spans into self times."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {stem: 0.0 for stem in STEMS}
        self.calls: Dict[str, int] = {stem: 0 for stem in STEMS}
        self.events: Dict[str, int] = {name: 0 for name, _ in EVENT_COUNTERS.values()}
        # One [child seconds] cell per open span, innermost last.
        self._open: List[List[float]] = []
        self._restore: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        """Zero the tallies (spans still open keep folding into them)."""
        for stem in STEMS:
            self.self_s[stem] = 0.0
            self.calls[stem] = 0
        for name in self.events:
            self.events[name] = 0

    def wrap(self, stem: str, fn: Callable) -> Callable:
        open_spans = self._open
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        counter: Optional[Tuple[str, Callable]] = EVENT_COUNTERS.get(stem)
        events = self.events

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell = [0.0]
            open_spans.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                self_s[stem] += elapsed - cell[0]
                calls[stem] += 1
                if open_spans:
                    open_spans[-1][0] += elapsed
            if counter is not None:
                events[counter[0]] += counter[1](result)
            return result

        return traced

    def span(self, stem: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside one span of ``stem`` (for the benchmark's own calls)."""
        return self.wrap(stem, fn)(*args, **kwargs)

    def install(self) -> None:
        for stem, module_name, path in BOUNDARIES:
            module = importlib.import_module(module_name)
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(module, owner_name)
                original = vars(owner)[attr]
                self._set(owner, attr, self.wrap(stem, original))
                continue
            original = getattr(module, path)
            traced = self.wrap(stem, original)
            for name, loaded in list(sys.modules.items()):
                if name.split(".")[0] == "repro" and getattr(loaded, path, None) is original:
                    self._set(loaded, path, traced)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer self times, call counts and the unattributed rest."""
        out: Dict[str, float] = {}
        for stem in STEMS:
            out[f"{stem}_s"] = self.self_s[stem]
            out[f"{stem}.calls"] = self.calls[stem]
        attributed = sum(self.self_s.values())
        out["unattributed_s"] = wall_s - attributed
        out["trace.coverage"] = attributed / wall_s if wall_s > 0 else 0.0
        out.update(self.events)
        return out
