"""One pass of one benchmark workload, in a fresh process.

    python3 perfbench/workloads.py --workload spark --seed 7 --trace 0

Each pass imports the program, builds its inputs (the set-up phase), runs
the measured phase once with every program cache cold, then, with the clock
stopped, checks the outputs and prints one JSON line: host times per step,
peak RSS, operations attempted and failed, the modelled (simulated)
statistics, and a SHA-256 of every modelled output. With ``--trace 1`` the layer boundaries in
``spans.py`` are wrapped and the line also carries per-layer self times.

Workloads (see ``design.json`` for why each was chosen):

* ``spark`` — the six HiBench apps on the java, kryo and cereal backends,
  plus one iterative cached stage per backend under a tight memstore budget.
* ``device`` — the six Table II micro shapes through the single-op
  accelerator model and the 8-unit shared-DRAM device simulator.
* ``serve`` — a Poisson stream on a 2-shard server, a shorter one verified
  request by request, and a Zipf-skewed flash crowd on a 4-node cluster.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import Any, Callable, Dict, List, Optional  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)

from spans import SpanFolder  # noqa: E402

#: Spark apps run at this share of the repository's default record counts.
SPARK_SCALE = 0.1
SPARK_BACKENDS = ("java", "kryo", "cereal")
#: Records each app returns at ``SPARK_SCALE`` (the same on every backend).
SPARK_EXPECTED_RECORDS = {
    "nweight": 28,
    "svm": 120,
    "bayes": 1222,
    "lr": 140,
    "terasort": 200,
    "als": 56,
}
#: Cached stage: records, partitions, reads, and both budgets as multiples
#: of the cached graph bytes. The heap budget is ``tight`` from
#: bench_memory_pressure.py; the off-heap budget holds about one partition's
#: stream, so ``auto`` (serialized under ``lru``) admissions demote earlier
#: partitions to the spilled tier.
CACHE_RECORDS = 400
CACHE_PARTITIONS = 4
CACHE_ITERATIONS = 4
CACHE_PAYLOAD_DOUBLES = 16
CACHE_BUDGET_FACTOR = 1.0 / 0.85
CACHE_OFFHEAP_FACTOR = 1.0 / 3.0
CACHE_CHURN_LONGS = 24

#: Micro shapes are built at 1/DEVICE_SHRINK of the repository's scaled
#: Table II sizes, so the 8-unit simulation of all six fits one pass.
DEVICE_SHRINK = 4

#: Serve: an unverified server stream for the event loop, a short stream
#: verified request by request, and a flash crowd on the fleet. Sampled
#: verification (every 16th dispatched request) is not used: it phase-locks
#: onto the 8-request batches, so its cost varies about 5x with the seed.
SERVER_REQUESTS = 40_000
VERIFIED_REQUESTS = 600
SERVER_LOAD = 0.8
CLUSTER_NODES = 4
CLUSTER_REQUESTS = 30_000
CLUSTER_BASE_LOAD = 0.4

#: Fig. 13 geomean S/D speed-ups over Java quoted in EXPERIMENTS.md.
PAPER_SD_SPEEDUP = {"kryo": 1.67, "cereal": 7.97}


@dataclasses.dataclass
class Outcome:
    """Host timings of a pass's steps, then what its summary extracts."""

    #: Host seconds of each step of the measured phase.
    cells: Dict[str, float] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Modelled statistics reported as ``sim_`` metrics.
    sim: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Every modelled output, hashed into ``model_sha``.
    model: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Host-time rates per simulated event.
    host: Dict[str, float] = dataclasses.field(default_factory=dict)

    @contextlib.contextmanager
    def cell(self, name: str):
        begin = time.perf_counter()
        yield
        self.cells[name] = time.perf_counter() - begin

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def _call(folder: Optional[SpanFolder], stem: str, fn: Callable, *args, **kwargs):
    if folder is None:
        return fn(*args, **kwargs)
    return folder.span(stem, fn, *args, **kwargs)


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- spark -----------------------------------------------------------------------------


class _RecordingPlatform:
    """Forwards to a ``SoftwarePlatform`` and keeps each op's modelled CPU
    counters (Fig. 3) and a digest of the streams it produced."""

    def __init__(self, platform, tally: Dict[str, Any]):
        self._platform = platform
        self._tally = tally

    def _keep(self, run, stream=None) -> None:
        timing = run.timing
        tally = self._tally
        tally["instructions"] += timing.instructions
        tally["cycles"] += timing.cycles
        tally["llc_miss_rates"].append(timing.llc_miss_rate)
        if stream is not None:
            tally["streams"].update(stream.data)

    def run_serialize(self, serializer, root):
        result, run = self._platform.run_serialize(serializer, root)
        self._keep(run, result.stream)
        return result, run

    def run_serialize_chunked(self, serializer, root, chunk_bytes, pool=None):
        result, run, chunks = self._platform.run_serialize_chunked(
            serializer, root, chunk_bytes, pool=pool
        )
        self._keep(run, result.stream)
        return result, run, chunks

    def run_deserialize(self, serializer, stream, heap):
        result, run = self._platform.run_deserialize(serializer, stream, heap)
        self._keep(run)
        return result, run


def _spark_backend(name: str, tally: Dict[str, Any]):
    from repro.cereal import CerealAccelerator
    from repro.formats import JavaSerializer, KryoSerializer
    from repro.spark import CerealBackend, SoftwareBackend

    if name == "cereal":
        return CerealBackend(CerealAccelerator(), keep_streams=True)
    serializer = JavaSerializer() if name == "java" else KryoSerializer()
    backend = SoftwareBackend(serializer)
    backend.platform = _RecordingPlatform(backend.platform, tally)
    return backend


def _register_cache_klasses(registry) -> None:
    from repro.jvm.klass import FieldKind
    from repro.spark.apps.base import ensure_klass

    ensure_klass(
        registry,
        "PressureRecord",
        [("key", FieldKind.LONG), ("payload", FieldKind.REFERENCE)],
    )
    registry.array_klass(FieldKind.DOUBLE)
    registry.array_klass(FieldKind.LONG)
    registry.array_klass(FieldKind.REFERENCE)


def _cache_record_bytes() -> int:
    """Graph bytes of one cached record (record + payload array)."""
    from repro.jvm import Heap
    from repro.jvm.klass import FieldKind

    heap = Heap(registry=None)
    _register_cache_klasses(heap.registry)
    record = heap.allocate(heap.registry.by_name("PressureRecord"))
    payload = heap.new_array(FieldKind.DOUBLE, CACHE_PAYLOAD_DOUBLES)
    return record.size_bytes + payload.size_bytes


def _cache_stage_context(name: str, graph_bytes: int, tally):
    """A context whose memstore runs under the cached stage's budgets."""
    from repro.memstore import MemstoreConfig
    from repro.spark import MiniSparkContext
    from repro.spark.apps.base import register_backend_classes

    config = MemstoreConfig(
        budget_bytes=int(graph_bytes * CACHE_BUDGET_FACTOR),
        storage_fraction=1.0,
        offheap_budget_bytes=int(graph_bytes * CACHE_OFFHEAP_FACTOR),
        policy="lru",
    )
    context = MiniSparkContext(_spark_backend(name, tally), memstore_config=config)
    _register_cache_klasses(context.registry)
    register_backend_classes(context.backend, context.registry)
    return context


def _cache_records(context, seed: int):
    """The cached stage's records, drawn from ``seed``, and their keys."""
    from repro.jvm.klass import FieldKind
    from repro.workloads.datagen import DeterministicRandom

    rng = DeterministicRandom(seed=seed)
    klass = context.registry.by_name("PressureRecord")
    heap = context.executor_heap
    records, keys = [], []
    for _ in range(CACHE_RECORDS):
        record = heap.allocate(klass)
        key = rng.next_u64() >> 1
        record.set("key", key)
        payload = heap.new_array(FieldKind.DOUBLE, CACHE_PAYLOAD_DOUBLES)
        for slot in range(CACHE_PAYLOAD_DOUBLES):
            payload.set_element(slot, rng.random())
        record.set("payload", payload)
        records.append(record)
        keys.append(key)
    return records, sorted(keys)


def _run_cache_stage(context, records) -> List[List[List[Any]]]:
    """Cache with ``tier="auto"``, then read and churn it each iteration;
    returns the partitions each read delivered."""
    from repro.jvm.klass import FieldKind

    heap = context.executor_heap
    cached = context.parallelize(records, CACHE_PARTITIONS).cache(tier="auto")

    def churn(partition):
        for _ in partition:
            heap.new_array(FieldKind.LONG, CACHE_CHURN_LONGS)
        return partition

    delivered = []
    for _ in range(CACHE_ITERATIONS):
        dataset = cached.read()
        delivered.append(dataset.partitions)
        dataset.map_partitions(churn, instructions_per_record=200.0)
    return delivered


def _breakdown_dict(breakdown) -> Dict[str, Any]:
    return {
        "compute_ns": breakdown.compute_ns,
        "gc_ns": breakdown.gc_ns,
        "io_ns": breakdown.io_ns,
        "serialize_ns": breakdown.serialize_ns,
        "deserialize_ns": breakdown.deserialize_ns,
        "retry_ns": breakdown.retry_ns,
        "operations": [dataclasses.astuple(op) for op in breakdown.operations],
    }


def spark_setup(seed: int, folder: Optional[SpanFolder]) -> Dict[str, Any]:
    from repro.spark.apps import SPARK_APPS

    graph_bytes = _cache_record_bytes() * CACHE_RECORDS
    state: Dict[str, Any] = {"apps": SPARK_APPS, "backends": {}}
    for name in SPARK_BACKENDS:
        tally = {"instructions": 0, "cycles": 0.0, "llc_miss_rates": [],
                 "streams": hashlib.sha256()}
        backends = [_spark_backend(name, tally) for _ in SPARK_APPS]
        context = _cache_stage_context(name, graph_bytes, tally)
        records, keys = _call(folder, "workloads.gen", _cache_records, context, seed)
        state["backends"][name] = (tally, backends, context, records, keys)
    return state


def spark_run(state: Dict[str, Any], folder: Optional[SpanFolder], out: Outcome):
    results: Dict[str, Dict[str, Any]] = {}
    stages: Dict[str, Any] = {}
    for name, (_, backends, context, records, _) in state["backends"].items():
        results[name] = {}
        for (app, runner), backend in zip(state["apps"].items(), backends):
            with out.cell(f"{name}.{app}"):
                results[name][app] = _call(folder, "spark.self", runner, backend, scale=SPARK_SCALE)
        with out.cell(f"{name}.cache_stage"):
            stages[name] = _call(folder, "spark.self", _run_cache_stage, context, records)
    return results, stages


def spark_summary(state: Dict[str, Any], raw, out: Outcome) -> None:
    results, stages = raw
    evictions = spills = 0
    for name, (tally, backends, context, _, keys) in state["backends"].items():
        for app, result in results[name].items():
            out.check(result.records == SPARK_EXPECTED_RECORDS[app])
        for partitions in stages[name]:
            out.check(sorted(r.get("key") for part in partitions for r in part) == keys)
        memstore = context.memstore.stats()
        evictions += memstore["evictions"]
        spills += memstore["spills"]
        if name == "cereal":
            for backend in backends + [context.backend]:
                for stream in backend.streams:
                    tally["streams"].update(stream.data)
        out.model[name] = {
            "apps": {
                app: {"records": r.records, "breakdown": _breakdown_dict(r.breakdown)}
                for app, r in results[name].items()
            },
            "cache_stage": {
                "breakdown": _breakdown_dict(context.breakdown),
                "memstore": memstore,
            },
            "streams_sha": tally["streams"].hexdigest(),
        }
        out.sim[f"spark.sim_total_ns.{name}"] = sum(r.total_ns for r in results[name].values())
        out.sim[f"spark.sim_sd_ns.{name}"] = sum(r.breakdown.sd_ns for r in results[name].values())
        if name != "cereal":
            out.sim[f"cpu.sim_ipc.{name}"] = tally["instructions"] / tally["cycles"]
            rates = tally["llc_miss_rates"]
            out.sim[f"cpu.sim_llc_miss_rate.{name}"] = sum(rates) / len(rates)
    for name in ("kryo", "cereal"):
        speedup = _geomean([
            results["java"][app].breakdown.sd_ns / results[name][app].breakdown.sd_ns
            for app in state["apps"]
        ])
        paper = PAPER_SD_SPEEDUP[name]
        out.sim[f"spark.sim_sd_speedup.{name}"] = speedup
        out.sim[f"spark.paper_sd_speedup.{name}"] = paper
        out.sim[f"spark.sd_speedup_rel_err.{name}"] = (speedup - paper) / paper
    out.sim["memstore.sim_evictions"] = evictions
    out.sim["memstore.sim_spills"] = spills


# -- device ----------------------------------------------------------------------------


def device_setup(seed: int, folder: Optional[SpanFolder]) -> Dict[str, Any]:
    """The six shapes, each with its own heap and registered accelerator.

    The shapes use the repository's fixed per-shape generators; ``seed``
    does not reach them.
    """
    from repro.cereal import CerealAccelerator
    from repro.jvm import Heap
    from repro.workloads import MICROBENCH_CONFIGS
    from repro.workloads.micro import (
        build_graph_bench,
        build_list_bench,
        build_tree_bench,
        register_micro_klasses,
    )

    builders = {"tree": build_tree_bench, "list": build_list_bench, "graph": build_graph_bench}
    shapes = {}
    for name, config in MICROBENCH_CONFIGS.items():
        config = dataclasses.replace(config, scale=config.scale * DEVICE_SHRINK)
        heap = Heap(registry=None)
        register_micro_klasses(heap.registry)
        root = _call(folder, "workloads.gen", builders[config.shape], heap, config)
        accelerator = CerealAccelerator()
        for klass in heap.registry:
            accelerator.register_class(klass)
        shapes[name] = (root, accelerator)
    return {"shapes": shapes}


def device_run(state: Dict[str, Any], folder: Optional[SpanFolder], out: Outcome):
    from repro.cereal.device_sim import DeviceSimulator
    from repro.jvm import Heap

    runs = {}
    for name, (root, accelerator) in state["shapes"].items():
        registry = root.heap.registry
        with out.cell(f"{name}.accel"):
            result, ser_timing, _ = accelerator.serialize(root)
            rebuilt, de_timing, _ = accelerator.deserialize(result.stream, Heap(registry=registry))
        with out.cell(f"{name}.device"):
            simulator = DeviceSimulator(accelerator)
            ser_run = simulator.run([("serialize", root)] * accelerator.config.num_serializer_units)
            receivers = [Heap(registry=registry) for _ in range(accelerator.config.num_deserializer_units)]
            de_run = simulator.run([("deserialize", result.stream, heap) for heap in receivers])
        runs[name] = (result.stream, ser_timing, de_timing, rebuilt, ser_run, de_run)
    return runs


def _device_run_dict(run) -> Dict[str, Any]:
    return {
        "wall_time_ns": run.wall_time_ns,
        "dram_bytes": run.dram_bytes,
        "bandwidth_utilization": run.bandwidth_utilization,
        "operations": [
            (op.kind, op.unit_index, op.start_ns, op.finish_ns, op.graph_bytes)
            for op in run.operations
        ],
    }


def device_summary(state: Dict[str, Any], runs, out: Outcome) -> None:
    from repro.formats import graphs_equivalent

    for name, (stream, ser_timing, de_timing, rebuilt, ser_run, de_run) in runs.items():
        source = state["shapes"][name][0]
        for copy in [rebuilt] + [op.root for op in de_run.operations]:
            out.check(copy is not None and graphs_equivalent(source, copy))
        out.model[name] = {
            "serialize": dataclasses.asdict(ser_timing),
            "deserialize": dataclasses.asdict(de_timing),
            "stream_sha": hashlib.sha256(stream.data).hexdigest(),
            "device_serialize": _device_run_dict(ser_run),
            "device_deserialize": _device_run_dict(de_run),
        }
    shapes = runs.values()
    out.sim["cereal.sim_ser_ns"] = sum(r[1].elapsed_ns for r in shapes)
    out.sim["cereal.sim_deser_ns"] = sum(r[2].elapsed_ns for r in shapes)
    out.sim["memory.sim_bw_util_8u.ser"] = sum(r[4].bandwidth_utilization for r in shapes) / len(runs)
    out.sim["memory.sim_bw_util_8u.deser"] = sum(r[5].bandwidth_utilization for r in shapes) / len(runs)


# -- serve -----------------------------------------------------------------------------


def serve_setup(seed: int, folder: Optional[SpanFolder]) -> Dict[str, Any]:
    from repro.service import (
        DEFAULT_TENANTS,
        FlashCrowdWorkload,
        KeySkew,
        PoissonWorkload,
        RequestMix,
        ServiceCatalog,
    )

    catalog = ServiceCatalog()
    mix = RequestMix()
    mean_ns = catalog.mean_service_ns("serialize", mix.size_weights)
    shard_qps = (
        catalog.cereal_config.num_serializer_units * 1e9 / mean_ns
        / max(mix.serialize_fraction, 1e-9)
    )
    qps = SERVER_LOAD * 2 * shard_qps
    crowd = FlashCrowdWorkload(
        qps=CLUSTER_BASE_LOAD * 2 * shard_qps * CLUSTER_NODES,
        num_requests=CLUSTER_REQUESTS,
        seed=seed,
        mix=mix,
        keys=KeySkew(),
        tenants=DEFAULT_TENANTS,
    )
    return {
        "catalog": catalog,
        "streams": {
            "server": PoissonWorkload(
                qps=qps, num_requests=SERVER_REQUESTS, seed=seed, mix=mix
            ).generate(catalog),
            "verified": PoissonWorkload(
                qps=qps, num_requests=VERIFIED_REQUESTS, seed=seed, mix=mix
            ).generate(catalog),
            "cluster": crowd.generate(catalog),
        },
    }


def serve_run(state: Dict[str, Any], folder: Optional[SpanFolder], out: Outcome):
    from repro.cluster import ClusterConfig, SerializationCluster
    from repro.common.errors import SimulationError
    from repro.service import SerializationServer, ServiceConfig

    catalog = state["catalog"]
    unverified = ServiceConfig(num_shards=2, functional="off")
    runs = {
        "server": lambda: SerializationServer(catalog, unverified),
        "verified": lambda: SerializationServer(
            catalog, ServiceConfig(num_shards=2, functional="all")
        ),
        "cluster": lambda: SerializationCluster(
            catalog, ClusterConfig(num_nodes=CLUSTER_NODES, service=unverified)
        ),
    }
    reports: Dict[str, Any] = {}
    for name, build in runs.items():
        with out.cell(name):
            try:
                reports[name] = build().run(state["streams"][name])
            except SimulationError:  # a functional verification failed
                reports[name] = None
    return reports


def serve_summary(state: Dict[str, Any], reports, out: Outcome) -> None:
    for name, stream in state["streams"].items():
        report = reports[name]
        out.attempted += len(stream)
        if report is None:
            out.failed += len(stream)
            continue
        slo = getattr(report, "slo", report)
        accounted = slo.completed_requests + slo.shed_requests + slo.rejected_requests
        out.failed += abs(len(stream) - accounted)
        payload = report.as_dict()
        payload.get("slo", payload).pop("runtime_caches", None)
        out.model[name] = payload
        if name == "server":
            out.sim["service.sim_p99_ns"] = slo.p99()
            out.sim["service.sim_goodput_qps"] = slo.goodput_qps
            out.sim["service.sim_shed"] = slo.shed_requests
            out.host["service.sim_s_per_wall_s"] = slo.makespan_ns * 1e-9 / out.cells[name]
        elif name == "cluster":
            out.sim["cluster.sim_p99_ns"] = slo.p99()
            out.sim["cluster.sim_failovers"] = report.failovers


WORKLOADS = {
    "spark": (spark_setup, spark_run, spark_summary),
    "device": (device_setup, device_run, device_summary),
    "serve": (serve_setup, serve_run, serve_summary),
}


def model_sha(model: Dict[str, Any], sim: Dict[str, float]) -> str:
    blob = json.dumps({"model": model, "sim": sim}, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_pass(workload: str, seed: int, traced: bool) -> Dict[str, Any]:
    setup, run, summarize = WORKLOADS[workload]
    folder = None
    if traced:
        folder = SpanFolder()
        folder.install()
    state = setup(seed, folder)
    setup_s = time.perf_counter() - _START
    record: Dict[str, Any] = {"setup_s": setup_s}
    if folder is not None:
        gen = (folder.self_s["workloads.gen"], folder.calls["workloads.gen"])
        folder.reset()

    out = Outcome()
    begin = time.perf_counter()
    raw = run(state, folder, out)
    record["wall_s"] = time.perf_counter() - begin

    if folder is not None:
        folder.uninstall()
        layers = folder.metrics(record["wall_s"])
        if layers["workloads.gen.calls"]:
            raise RuntimeError("input generation leaked into the measured phase")
        layers["workloads.gen_s"], layers["workloads.gen.calls"] = gen
        record["layers"] = layers
    out.cells["rest"] = record["wall_s"] - sum(out.cells.values())
    summarize(state, raw, out)
    record.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=out.attempted,
        failed=out.failed,
        cells=out.cells,
        host=out.host,
        sim=out.sim,
        model_sha=model_sha(out.model, out.sim),
    )
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
