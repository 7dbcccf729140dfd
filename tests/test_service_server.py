"""End-to-end tests of the event-loop serialization server."""

import hashlib
import json

import pytest

from repro.common.errors import ConfigError, SimulationError
from repro.cluster.autoscale import GAUGE_QUEUE_DEPTH
from repro.faults import FaultInjector, FaultPolicy
from repro.obs.metrics import Gauge
from repro.service import (
    DEFAULT_TENANTS,
    AdmissionConfig,
    BurstyWorkload,
    FlashCrowdWorkload,
    KeySkew,
    PoissonWorkload,
    RequestMix,
    SerializationServer,
    ServiceCatalog,
    ServiceConfig,
    SizeClass,
    StreamingConfig,
)
from repro.service.slo import (
    BACKEND_CEREAL,
    BACKEND_NONE,
    BACKEND_SOFTWARE,
    OUTCOME_DEGRADED,
    OUTCOME_OK,
    OUTCOME_SHED,
)
from repro.service.workload import KIND_SERIALIZE

_SIZE_CLASSES = (
    SizeClass("small", "tree", objects=24),
    SizeClass("large", "graph", objects=96, fanout=4),
)
_MIX = RequestMix(
    serialize_fraction=0.5, size_weights={"small": 0.8, "large": 0.2}
)


@pytest.fixture(scope="module")
def catalog():
    return ServiceCatalog(size_classes=_SIZE_CLASSES)


def _capacity_qps(catalog):
    """Single-shard serialize-pool saturation rate for this catalog."""
    mean_ns = catalog.mean_service_ns(KIND_SERIALIZE, _MIX.size_weights)
    units = catalog.cereal_config.num_serializer_units
    return units * 1e9 / mean_ns / _MIX.serialize_fraction


def _workload(catalog, load_fraction, num_requests=400, seed=11):
    qps = load_fraction * _capacity_qps(catalog)
    return PoissonWorkload(qps, num_requests, seed=seed, mix=_MIX).generate(
        catalog
    )


class TestServerBasics:
    def test_moderate_load_all_served_on_accelerator(self, catalog):
        server = SerializationServer(
            catalog, ServiceConfig(num_shards=2, functional="all")
        )
        report = server.run(_workload(catalog, 0.4))
        assert report.total_requests == 400
        assert report.shed_requests == 0
        assert report.verified_requests == report.completed_requests
        for record in report.records:
            assert record.outcome == OUTCOME_OK
            assert record.backend == BACKEND_CEREAL
            assert record.finish_ns > record.arrival_ns
            assert record.dispatch_ns >= record.arrival_ns
            assert record.batch_id >= 0

    def test_same_seed_same_report(self, catalog):
        def run():
            server = SerializationServer(
                catalog, ServiceConfig(num_shards=2, functional="off")
            )
            return server.run(_workload(catalog, 0.8)).as_dict()

        assert run() == run()

    def test_latency_rises_with_load(self, catalog):
        def p99(load):
            config = ServiceConfig(
                num_shards=1,
                batch_wait_ns=0.0,
                functional="off",
                admission=AdmissionConfig(
                    max_outstanding=100_000, enable_degrade=False
                ),
            )
            server = SerializationServer(catalog, config)
            return server.run(_workload(catalog, load)).p99()

        light, heavy = p99(0.3), p99(1.4)
        assert heavy > 1.5 * light

    def test_more_shards_cut_tail_latency(self, catalog):
        def p99(shards):
            config = ServiceConfig(
                num_shards=shards,
                batch_wait_ns=0.0,
                functional="off",
                admission=AdmissionConfig(
                    max_outstanding=100_000, enable_degrade=False
                ),
            )
            server = SerializationServer(catalog, config)
            return server.run(_workload(catalog, 1.4)).p99()

        assert p99(4) < p99(1)

    def test_batching_amortizes_dispatch_overhead(self, catalog):
        def goodput(wait_ns):
            config = ServiceConfig(
                num_shards=1,
                batch_wait_ns=wait_ns,
                functional="off",
                admission=AdmissionConfig(
                    max_outstanding=100_000, enable_degrade=False
                ),
            )
            server = SerializationServer(catalog, config)
            report = server.run(_workload(catalog, 1.5, num_requests=800))
            return report.goodput_qps, report.mean_batch_size

        unbatched, size_unbatched = goodput(0.0)
        batched, size_batched = goodput(20_000.0)
        assert size_unbatched == 1.0
        assert size_batched > 1.5
        assert batched > unbatched

    def test_run_releases_every_admission_slot(self, catalog):
        """The loop runs until every admitted request has finished, so a
        server reused for another run starts with an empty queue."""
        server = SerializationServer(
            catalog, ServiceConfig(num_shards=1, functional="off")
        )
        report = server.run(_workload(catalog, 1.2))
        assert report.peak_outstanding > 0
        assert server.admission.outstanding == 0
        assert server.inflight_count == 0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            ServiceConfig(num_shards=0)
        with pytest.raises(ConfigError):
            ServiceConfig(routing="random")
        with pytest.raises(ConfigError):
            ServiceConfig(engine="fpga")
        with pytest.raises(ConfigError):
            ServiceConfig(functional="sometimes")

    def test_duplicate_request_ids_rejected(self, catalog):
        requests = _workload(catalog, 0.5, num_requests=4)
        requests[1].request_id = requests[0].request_id
        server = SerializationServer(catalog, ServiceConfig(functional="off"))
        with pytest.raises(ConfigError):
            server.run(requests)


class TestRouting:
    def _run(self, catalog, routing, shards=4):
        config = ServiceConfig(
            num_shards=shards, routing=routing, functional="off"
        )
        server = SerializationServer(catalog, config)
        report = server.run(_workload(catalog, 1.0, num_requests=600))
        return server, report

    @pytest.mark.parametrize("routing", ["round-robin", "least-loaded", "size-aware"])
    def test_policies_complete_all_requests(self, catalog, routing):
        _, report = self._run(catalog, routing)
        assert report.completed_requests == report.total_requests

    def test_round_robin_spreads_batches(self, catalog):
        server, _ = self._run(catalog, "round-robin")
        counts = [shard.dispatched_batches for shard in server.shards]
        assert min(counts) > 0
        assert max(counts) - min(counts) <= 1

    def test_least_loaded_uses_every_shard(self, catalog):
        server, _ = self._run(catalog, "least-loaded")
        assert all(shard.dispatched_requests > 0 for shard in server.shards)

    def test_size_aware_isolates_large_batches(self, catalog):
        """All-large traffic lands on the reserved partition only."""
        mix = RequestMix(serialize_fraction=0.5, size_weights={"large": 1.0})
        qps = 0.5 * _capacity_qps(catalog)
        requests = PoissonWorkload(qps, 200, seed=3, mix=mix).generate(catalog)
        config = ServiceConfig(
            num_shards=4,
            routing="size-aware",
            functional="off",
            size_aware_bytes=1,  # every batch counts as large
        )
        server = SerializationServer(catalog, config)
        server.run(requests)
        assert server.shards[0].dispatched_requests == 200
        assert all(s.dispatched_requests == 0 for s in server.shards[1:])

    def test_size_aware_keeps_small_batches_off_reserved_shard(self, catalog):
        mix = RequestMix(serialize_fraction=0.5, size_weights={"small": 1.0})
        qps = 0.5 * _capacity_qps(catalog)
        requests = PoissonWorkload(qps, 200, seed=3, mix=mix).generate(catalog)
        config = ServiceConfig(
            num_shards=4,
            routing="size-aware",
            functional="off",
            size_aware_bytes=1 << 30,  # nothing counts as large
        )
        server = SerializationServer(catalog, config)
        server.run(requests)
        assert server.shards[0].dispatched_requests == 0
        assert sum(s.dispatched_requests for s in server.shards[1:]) == 200


class TestDegradeAndShed:
    def test_overload_degrades_then_sheds(self, catalog):
        config = ServiceConfig(
            num_shards=1,
            functional="off",
            admission=AdmissionConfig(
                max_outstanding=64, degrade_threshold=0.5
            ),
        )
        server = SerializationServer(catalog, config)
        report = server.run(_workload(catalog, 3.0, num_requests=800))
        assert report.degraded_requests > 0
        assert report.shed_requests > 0
        assert report.completed_requests + report.shed_requests == 800
        for record in report.records:
            if record.outcome == OUTCOME_SHED:
                assert record.backend == BACKEND_NONE
            elif record.outcome == OUTCOME_DEGRADED:
                assert record.backend == BACKEND_SOFTWARE
        summary = report.as_dict()
        assert summary["requests"]["shed"] == report.shed_requests
        assert summary["requests"]["degraded"] == report.degraded_requests
        assert summary["throughput"]["shed_rate"] > 0

    def test_chaos_faults_degrade_without_dropping_requests(self, catalog):
        """Acceptance: capacity faults shed/degrade but never lose work.

        ``functional="all"`` makes the server actually execute and
        round-trip-check every admitted request it claims completed, so
        correctness under the fault schedule is verified, not assumed.
        """
        injector = FaultInjector(
            FaultPolicy(seed=0xC405, accelerator_fault_prob=0.2)
        )
        config = ServiceConfig(
            num_shards=1,
            functional="all",
            admission=AdmissionConfig(
                max_outstanding=128, degrade_threshold=0.75
            ),
        )
        server = SerializationServer(catalog, config, injector=injector)
        report = server.run(_workload(catalog, 1.5, num_requests=600))

        # Nothing is silently lost: every request is accounted for, and
        # every completed one was functionally verified.
        assert report.completed_requests + report.shed_requests == 600
        assert report.verified_requests == report.completed_requests

        # The fault schedule actually fired, and every fault was recovered
        # by falling back to the software lane.
        layer = report.fault_report.layer("accelerator")
        assert layer.injected > 0
        assert layer.recovered == layer.injected
        assert layer.fallbacks > 0
        assert report.degraded_batches > 0
        fallback_requests = sum(
            1
            for r in report.records
            if r.outcome == OUTCOME_DEGRADED and r.batch_id >= 0
        )
        assert fallback_requests == layer.fallbacks

        # The counts surface in the machine-readable report.
        summary = report.as_dict()
        assert summary["faults"]["accelerator"]["injected"] == layer.injected
        assert summary["batching"]["degraded_batches"] == report.degraded_batches
        assert summary["requests"]["degraded"] == report.degraded_requests

    def test_degraded_requests_use_software_timing(self, catalog):
        config = ServiceConfig(
            num_shards=1,
            functional="off",
            admission=AdmissionConfig(
                max_outstanding=32, degrade_threshold=0.25
            ),
        )
        server = SerializationServer(catalog, config)
        report = server.run(_workload(catalog, 3.0, num_requests=400))
        degraded = [
            r for r in report.records if r.outcome == OUTCOME_DEGRADED
        ]
        assert degraded
        assert server.software.served == len(degraded)


class TestDeviceEngine:
    def test_device_engine_serves_and_verifies(self, catalog):
        config = ServiceConfig(
            num_shards=2, engine="device", functional="off"
        )
        server = SerializationServer(catalog, config)
        report = server.run(_workload(catalog, 0.5, num_requests=60))
        assert report.completed_requests == 60
        assert all(r.backend == BACKEND_CEREAL for r in report.records)

    def test_device_and_analytic_agree_on_outcomes(self, catalog):
        """Same workload, same admission outcomes on both engines."""
        requests = _workload(catalog, 0.5, num_requests=60)

        def outcomes(engine):
            server = SerializationServer(
                catalog,
                ServiceConfig(num_shards=2, engine=engine, functional="off"),
            )
            report = server.run(list(requests))
            return [r.outcome for r in report.records]

        assert outcomes("analytic") == outcomes("device")


class TestPeakOutstanding:
    """``peak_outstanding`` is exact for a box, sampled for a fleet."""

    @staticmethod
    def _record_queue_depths(monkeypatch):
        published = []
        original = Gauge.set

        def recording_set(gauge, value):
            if gauge.name == GAUGE_QUEUE_DEPTH:
                published.append(value)
            original(gauge, value)

        monkeypatch.setattr(Gauge, "set", recording_set)
        return published

    def test_standalone_reports_exact_admission_peak(self, catalog, monkeypatch):
        published = self._record_queue_depths(monkeypatch)
        server = SerializationServer(
            catalog, ServiceConfig(num_shards=1, functional="off")
        )
        report = server.run(_workload(catalog, 1.5, num_requests=800))
        assert report.peak_outstanding == server.admission.peak_outstanding
        # The fleet loop sampled the box too, but the box reports the
        # exact peak, which no control-tick sample can exceed.
        assert published
        assert report.peak_outstanding >= max(published)

    def test_fleet_reports_peak_of_sampled_queue_depth(self, catalog, monkeypatch):
        from repro.cluster import ClusterConfig, SerializationCluster

        published = self._record_queue_depths(monkeypatch)
        cluster = SerializationCluster(
            catalog,
            ClusterConfig(
                num_nodes=2, service=ServiceConfig(num_shards=1, functional="off")
            ),
        )
        report = cluster.run(_workload(catalog, 3.0, num_requests=800))
        assert published
        assert report.slo.peak_outstanding == max(published)


# -- verification mutants ----------------------------------------------------------------
#
# A server proves each serialize round trip in full once and then accepts
# byte-identical streams without decoding again. Each mutant below breaks
# one codec call or the source graph *after* that first proof; every one
# must still fail the run.

_KTH_CALL = 3


def _private_catalog():
    """A catalog of its own: the mutants corrupt its codecs and graphs."""
    return ServiceCatalog(size_classes=_SIZE_CLASSES)


def _bump_first_primitive(root, delta=1):
    """Change the root's first primitive field by ``delta``; returns its name."""
    for descriptor in root.klass.fields:
        if not descriptor.kind.is_reference:
            root.set(descriptor.name, root.get(descriptor.name) + delta)
            return descriptor.name
    raise AssertionError(f"{root.klass.name} has no primitive field")


def _serialize_one_slot_off(codec, root):
    """A stream that decodes fine but to a graph with one slot changed."""
    _bump_first_primitive(root)
    try:
        return codec.serialize(root)
    finally:
        _bump_first_primitive(root, -1)


def _serialize_after_corrupting_source(codec, root):
    _bump_first_primitive(root)  # left corrupted: the source graph is bad now
    return codec.serialize(root)


class _KthCallMutant:
    """Delegates to ``codec`` except on the ``k``-th call of ``method``.

    A corrupted serialize returns ``corrupt(codec, root)``; a corrupted
    deserialize decodes faithfully, then changes one slot of the result.
    """

    def __init__(self, codec, method, k=_KTH_CALL, corrupt=_serialize_one_slot_off):
        self.codec = codec
        self.method = method
        self.k = k
        self.corrupt = corrupt
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.codec, name)

    def _hit(self, method):
        if method != self.method:
            return False
        self.calls += 1
        return self.calls == self.k

    def serialize(self, root):
        if self._hit("serialize"):
            return self.corrupt(self.codec, root)
        return self.codec.serialize(root)

    def deserialize(self, stream, heap):
        result = self.codec.deserialize(stream, heap)
        if self._hit("deserialize"):
            _bump_first_primitive(result.root)
        return result


_ROUND_TRIP_PATH = r"did not round-trip: root\.\w+: "


class TestVerificationMutants:
    def test_faithful_wrapper_passes(self):
        catalog = _private_catalog()
        wrapper = _KthCallMutant(catalog.accelerator.codec, "serialize", k=10**9)
        catalog.accelerator.codec = wrapper
        server = SerializationServer(
            catalog, ServiceConfig(num_shards=2, functional="all")
        )
        report = server.run(_workload(catalog, 0.4))
        assert report.verified_requests == report.completed_requests == 400
        assert wrapper.calls > _KTH_CALL

    @pytest.mark.parametrize("functional", ["all", "sample"])
    @pytest.mark.parametrize("method", ["serialize", "deserialize"])
    def test_kth_call_mutant_is_caught(self, method, functional):
        catalog = _private_catalog()
        mutant = _KthCallMutant(catalog.accelerator.codec, method)
        catalog.accelerator.codec = mutant
        server = SerializationServer(
            catalog, ServiceConfig(num_shards=2, functional=functional)
        )
        with pytest.raises(SimulationError, match=_ROUND_TRIP_PATH):
            server.run(_workload(catalog, 0.4))
        assert mutant.calls == _KTH_CALL

    def test_source_graph_corrupted_after_first_proof_is_caught(self):
        catalog = _private_catalog()
        mutant = _KthCallMutant(
            catalog.accelerator.codec,
            "serialize",
            corrupt=_serialize_after_corrupting_source,
        )
        catalog.accelerator.codec = mutant
        server = SerializationServer(
            catalog, ServiceConfig(num_shards=2, functional="all")
        )
        with pytest.raises(SimulationError, match=r"\(deserialize .*" + _ROUND_TRIP_PATH):
            server.run(_workload(catalog, 0.4))
        assert mutant.calls >= _KTH_CALL

    @pytest.mark.parametrize("functional", ["all", "sample"])
    def test_fallback_serializer_mutant_is_caught(self, functional):
        catalog = _private_catalog()
        mutant = _KthCallMutant(catalog.fallback_serializer, "serialize")
        catalog.fallback_serializer = mutant
        injector = FaultInjector(FaultPolicy(seed=7, accelerator_fault_prob=1.0))
        server = SerializationServer(
            catalog,
            ServiceConfig(num_shards=2, functional=functional),
            injector=injector,
        )
        with pytest.raises(
            SimulationError, match=r"via software\) " + _ROUND_TRIP_PATH
        ):
            server.run(_workload(catalog, 0.4))
        assert mutant.calls == _KTH_CALL

    def test_device_shard_failure_names_the_path(self, monkeypatch):
        from repro.service import server as server_module
        from repro.service.timing_cache import LRUCache

        # Cached batch timelines replay an earlier verified execution, so
        # start from an empty cache to make the device check run.
        monkeypatch.setattr(server_module, "device_batch_cache", LRUCache())
        catalog = _private_catalog()
        field = _bump_first_primitive(catalog.entries["small"].root)
        server = SerializationServer(
            catalog, ServiceConfig(num_shards=2, engine="device", functional="off")
        )
        with pytest.raises(
            SimulationError,
            match=rf"deserialize of 'small' did not round-trip: root\.{field}: ",
        ):
            server.run(_workload(catalog, 0.5, num_requests=60))


# -- golden pins ------------------------------------------------------------------------
#
# Seeded runs whose every modelled output is pinned: the SLO report (minus
# the process-wide ``runtime_caches``), each record's timing and placement
# fields, and each shard's dispatch counters. The digests were recorded
# from the two-event-loop implementation, so they hold the one-node fleet
# that now drives a standalone run to the exact same schedule.

_RECORD_FIELDS = (
    "arrival_ns",
    "dispatch_ns",
    "finish_ns",
    "outcome",
    "backend",
    "batch_id",
    "batch_size",
    "streamed",
    "chunks",
    "first_byte_ns",
    "retries",
)


def _server_state(server):
    return {
        "shards": [
            [shard.dispatched_batches, shard.dispatched_requests]
            for shard in server.shards
        ],
        "verified_requests": server.verified_requests,
        "degraded_batches": server.degraded_batches,
    }


def _fingerprint(summary, report, servers):
    payload = {
        "summary": summary,
        "records": [
            [getattr(record, name) for name in _RECORD_FIELDS]
            for record in report.records
        ],
        "servers": [_server_state(server) for server in servers],
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _run_server(catalog, config, requests, injector=None):
    server = SerializationServer(catalog, config, injector=injector)
    report = server.run(requests)
    summary = report.as_dict()
    summary.pop("runtime_caches")
    return report, _fingerprint(summary, report, [server])


def _pin_chaos_sampled(catalog):
    injector = FaultInjector(FaultPolicy(seed=0xC405, accelerator_fault_prob=0.2))
    config = ServiceConfig(
        num_shards=2,
        functional="sample",
        functional_every=4,
        admission=AdmissionConfig(max_outstanding=128, degrade_threshold=0.75),
    )
    return _run_server(
        catalog, config, _workload(catalog, 1.5, num_requests=600), injector
    )


def _pin_streaming_all(catalog):
    config = ServiceConfig(
        num_shards=2,
        functional="all",
        streaming=StreamingConfig(chunk_bytes=1024, threshold_bytes=2048),
    )
    return _run_server(catalog, config, _workload(catalog, 0.8, num_requests=300))


def _pin_malformed_bursty_size_aware(catalog):
    requests = BurstyWorkload(
        qps=1.2 * _capacity_qps(catalog),
        num_requests=600,
        seed=5,
        mix=_MIX,
        malformed_fraction=0.05,
    ).generate(catalog)
    config = ServiceConfig(
        num_shards=4,
        routing="size-aware",
        size_aware_bytes=4096,
        functional="off",
    )
    return _run_server(catalog, config, requests)


def _pin_zero_wait_round_robin(catalog):
    config = ServiceConfig(
        num_shards=3, routing="round-robin", batch_wait_ns=0.0, functional="off"
    )
    return _run_server(catalog, config, _workload(catalog, 1.2, num_requests=600))


def _pin_device_engine(catalog):
    config = ServiceConfig(num_shards=2, engine="device", functional="off")
    return _run_server(catalog, config, _workload(catalog, 0.5, num_requests=60))


def _pin_four_node_cluster(catalog):
    from repro.cluster import ClusterConfig, SerializationCluster

    requests = FlashCrowdWorkload(
        qps=4 * _capacity_qps(catalog),
        num_requests=1500,
        seed=9,
        mix=_MIX,
        keys=KeySkew(),
        tenants=DEFAULT_TENANTS,
    ).generate(catalog)
    cluster = SerializationCluster(
        catalog,
        ClusterConfig(num_nodes=4, service=ServiceConfig(functional="off")),
        injector=FaultInjector(FaultPolicy(seed=23, node_loss_prob=0.1)),
    )
    report = cluster.run(requests)
    summary = report.as_dict()
    summary["slo"].pop("runtime_caches")
    servers = [cluster._nodes[node_id].server for node_id in cluster._order]
    return report.slo, _fingerprint(summary, report.slo, servers)


_GOLDEN = {
    "chaos_sampled": (_pin_chaos_sampled, "76cb207f14f4ae35"),
    "streaming_all": (_pin_streaming_all, "27e39512fbd43b71"),
    "malformed_bursty_size_aware": (_pin_malformed_bursty_size_aware, "c9d5eaae6cf63c53"),
    "zero_wait_round_robin": (_pin_zero_wait_round_robin, "bf98173b3220d692"),
    "device_engine": (_pin_device_engine, "3813fb632f2ed592"),
    "four_node_cluster": (_pin_four_node_cluster, "1240f46b2714cd0a"),
}


class TestGoldenPins:
    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_modelled_outputs_match_pin(self, catalog, name):
        run, expected = _GOLDEN[name]
        report, digest = run(catalog)
        assert report.total_requests > 0
        assert digest == expected, f"{name}: digest {digest} != pinned {expected}"
