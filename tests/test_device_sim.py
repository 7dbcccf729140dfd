"""Tests for the shared-DRAM device simulator and the interval channel."""

import bisect
import dataclasses
import random

import pytest

from repro.cereal import CerealAccelerator, DeviceSimulator
from repro.cereal.du import DUWorkload
from repro.common.config import CerealConfig
from repro.common.errors import FormatError, SimulationError
from repro.formats import CerealSerializer, cereal_format, graphs_equivalent
from repro.jvm import Heap
from repro.memory.dram import DRAMModel, _IntervalChannel
from tests.test_serializers import build_tree, make_registry


class TestIntervalChannel:
    def test_empty_channel_starts_at_issue(self):
        channel = _IntervalChannel()
        assert channel.schedule(100.0, 5.0) == 100.0

    def test_back_to_back_queues(self):
        channel = _IntervalChannel()
        channel.schedule(0.0, 10.0)
        assert channel.schedule(0.0, 10.0) == 10.0

    def test_out_of_order_fills_gap(self):
        channel = _IntervalChannel()
        channel.schedule(0.0, 10.0)  # [0, 10)
        channel.schedule(50.0, 10.0)  # [50, 60)
        # A later-issued access with an earlier timestamp fits the gap.
        assert channel.schedule(20.0, 10.0) == 20.0

    def test_gap_too_small_skipped(self):
        channel = _IntervalChannel()
        channel.schedule(0.0, 10.0)  # [0, 10)
        channel.schedule(15.0, 10.0)  # [15, 25)
        # A 10-unit access cannot fit in the 5-unit gap [10, 15).
        assert channel.schedule(5.0, 10.0) == 25.0

    def test_issue_inside_busy_interval(self):
        channel = _IntervalChannel()
        channel.schedule(0.0, 20.0)  # [0, 20)
        assert channel.schedule(5.0, 5.0) == 20.0

    def test_many_insertions_remain_sorted(self):
        channel = _IntervalChannel()
        issues = (50, 10, 30, 10, 50, 0)
        starts = [channel.schedule(t, 1.0) for t in issues]
        assert all(s >= t for s, t in zip(starts, issues))
        assert channel.starts == sorted(channel.starts)
        # Disjoint runs with a gap between neighbours; the second access at
        # 10 and at 50 each extended the run it abuts.
        assert all(s < e for s, e in zip(channel.starts, channel.ends))
        assert all(e < s for e, s in zip(channel.ends, channel.starts[1:]))
        assert list(zip(channel.starts, channel.ends)) == [
            (0, 1.0), (10, 12.0), (30, 31.0), (50, 52.0)
        ]

    def test_abutting_accesses_leave_one_run(self):
        channel = _IntervalChannel()
        occupancy = DRAMModel().occupancy_ns(32)
        finish = 0.0
        for _ in range(10_000):
            finish = channel.schedule(0.0, occupancy) + occupancy
        assert channel.starts == [0.0]
        assert channel.ends == [finish]

    def test_reservation_closing_a_gap_joins_both_runs(self):
        channel = _IntervalChannel()
        channel.schedule(0.0, 10.0)  # [0, 10)
        channel.schedule(20.0, 10.0)  # [20, 30)
        assert channel.schedule(10.0, 10.0) == 10.0
        assert (channel.starts, channel.ends) == ([0.0], [30.0])


class _ReferenceChannel:
    """First fit over a flat list of every reserved interval.

    The uncoalesced schedule: one entry per reservation, located by
    bisection at the issue time and scanned forward one reservation at a
    time.
    """

    def __init__(self):
        self.starts = []
        self.intervals = []

    def schedule(self, issue_ns, occupancy_ns):
        candidate = issue_ns
        index = bisect.bisect_left(self.starts, candidate)
        if index > 0 and self.intervals[index - 1][1] > candidate:
            candidate = self.intervals[index - 1][1]
        while index < len(self.intervals):
            start, end = self.intervals[index]
            if start - candidate >= occupancy_ns:
                break
            candidate = max(candidate, end)
            index += 1
        self.starts.insert(index, candidate)
        self.intervals.insert(index, (candidate, candidate + occupancy_ns))
        return candidate

    def runs(self):
        """The reservations with exactly abutting neighbours merged."""
        merged = []
        for start, end in self.intervals:
            if merged and merged[-1][1] == start:
                merged[-1] = (merged[-1][0], end)
            else:
                merged.append((start, end))
        return merged


#: Occupancies mixing exact binary fractions with inexact ones: 1/3 and the
#: 32 B MAI block and 64 B line on the default DDR4 channel.
_OCCUPANCIES = (
    1 / 3, 0.5, 1.0, 2.0,
    DRAMModel().occupancy_ns(32), DRAMModel().occupancy_ns(64),
)


def _issue_times(rng, reference, occupancy):
    """Issue times that probe the interesting first-fit cases."""
    intervals = reference.intervals
    choice = rng.random()
    if not intervals or choice < 0.25:
        # Anywhere, on a coarse grid so exact abutments happen often.
        return [rng.randrange(200) * rng.choice(_OCCUPANCIES)]
    start, end = rng.choice(intervals)
    if choice < 0.4:
        return [(start + end) / 2]  # inside a busy run
    if choice < 0.55:
        return [end]  # abutting the end of a reservation
    if choice < 0.7:
        return [start - occupancy]  # would end exactly at a run start
    # Open a gap just smaller than, equal to or larger than the occupancy
    # after ``end``, then issue an access of that occupancy at ``end``.
    slack = rng.choice((-1e-9, -occupancy / 7, 0.0, 1e-9, occupancy / 7))
    return [end + occupancy + slack, end]


class TestIntervalChannelDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_uncoalesced_first_fit(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            channel, reference = _IntervalChannel(), _ReferenceChannel()
            for _ in range(rng.randrange(1, 120)):
                occupancy = rng.choice(_OCCUPANCIES)
                for issue in _issue_times(rng, reference, occupancy):
                    issue = max(0.0, issue)
                    expected = reference.schedule(issue, occupancy)
                    assert channel.schedule(issue, occupancy) == expected
            assert list(zip(channel.starts, channel.ends)) == reference.runs()


class TestOutOfOrderDRAM:
    def test_early_issue_not_queued_behind_late(self):
        in_order = DRAMModel()
        out_of_order = DRAMModel(out_of_order=True)
        for dram in (in_order, out_of_order):
            dram.access(10_000.0, 0, 64, is_write=False)  # late traffic
        blocked = in_order.access(0.0, 0, 64, is_write=False)
        unblocked = out_of_order.access(0.0, 0, 64, is_write=False)
        assert blocked > 10_000.0
        assert unblocked < 100.0

    def test_reset_clears_intervals(self):
        dram = DRAMModel(out_of_order=True)
        dram.access(0.0, 0, 64, is_write=False)
        dram.reset()
        assert dram.access(0.0, 0, 64, is_write=False) < 100.0


@pytest.fixture
def device():
    registry = make_registry()
    accelerator = CerealAccelerator()
    for klass in registry:
        accelerator.register_class(klass)
    heap = Heap(registry=registry)
    return registry, accelerator, heap, DeviceSimulator(accelerator)


class TestDeviceSimulator:
    def test_empty_batch(self, device):
        _, _, _, simulator = device
        result = simulator.run([])
        assert result.wall_time_ns == 0.0
        assert result.operations == []

    def test_pool_overlap_near_single_op_time(self, device):
        """Eight independent serializations on eight SUs ~ one op's time."""
        _, accelerator, heap, simulator = device
        roots = [build_tree(heap, depth=7) for _ in range(8)]
        _, single, _ = accelerator.serialize(build_tree(heap, depth=7))
        batch = simulator.run([("serialize", root) for root in roots])
        assert batch.wall_time_ns < 1.8 * single.elapsed_ns

    def test_oversubscription_queues_on_units(self, device):
        _, accelerator, heap, simulator = device
        roots = [build_tree(heap, depth=6) for _ in range(16)]
        batch_8 = simulator.run([("serialize", root) for root in roots[:8]])
        batch_16 = simulator.run([("serialize", root) for root in roots])
        assert batch_16.wall_time_ns > 1.5 * batch_8.wall_time_ns

    def test_device_bandwidth_scales_with_busy_units(self, device):
        _, _, heap, simulator = device
        one = simulator.run([("serialize", build_tree(heap, depth=7))])
        eight = simulator.run(
            [("serialize", build_tree(heap, depth=7)) for _ in range(8)]
        )
        assert eight.bandwidth_utilization > 4 * one.bandwidth_utilization

    def test_deserialize_wave_functional_and_fast(self, device):
        registry, _, heap, simulator = device
        roots = [build_tree(heap, depth=5) for _ in range(4)]
        ser = simulator.run([("serialize", root) for root in roots])
        receivers = [Heap(registry=registry) for _ in range(4)]
        deser = simulator.run(
            [
                ("deserialize", op.stream, receiver)
                for op, receiver in zip(ser.operations, receivers)
            ]
        )
        for root, op in zip(roots, deser.operations):
            assert graphs_equivalent(root, op.root)
        assert deser.wall_time_ns > 0

    def test_mixed_batch_uses_both_pools(self, device):
        registry, _, heap, simulator = device
        root = build_tree(heap, depth=5)
        ser = simulator.run([("serialize", root)])
        stream = ser.operations[0].stream
        mixed = simulator.run(
            [
                ("serialize", build_tree(heap, depth=5)),
                ("deserialize", stream, Heap(registry=registry)),
            ]
        )
        kinds = {op.kind for op in mixed.operations}
        assert kinds == {"serialize", "deserialize"}
        # Both pools start immediately: neither op waits for the other.
        assert all(op.start_ns == 0.0 for op in mixed.operations)

    def test_unknown_request_kind_rejected(self, device):
        _, _, heap, simulator = device
        with pytest.raises(SimulationError):
            simulator.run([("compress", build_tree(heap, depth=2))])

    def test_small_pool_config_respected(self):
        registry = make_registry()
        accelerator = CerealAccelerator(CerealConfig(num_serializer_units=2))
        for klass in registry:
            accelerator.register_class(klass)
        heap = Heap(registry=registry)
        simulator = DeviceSimulator(accelerator)
        roots = [build_tree(heap, depth=5) for _ in range(4)]
        result = simulator.run([("serialize", root) for root in roots])
        assert {op.unit_index for op in result.operations} == {0, 1}


def _oversubscribed_run(device, num_serialize=20, num_deserialize=8):
    """A run with more requests than units, with uneven op sizes."""
    registry, _, heap, simulator = device
    depths = [3 + (i % 5) for i in range(num_serialize)]
    roots = [build_tree(heap, depth=depth) for depth in depths]
    ser = simulator.run([("serialize", root) for root in roots])
    requests = [("serialize", root) for root in roots]
    requests.extend(
        ("deserialize", op.stream, Heap(registry=registry))
        for op in ser.operations[:num_deserialize]
    )
    return simulator, simulator.run(requests)


class TestSchedulingInvariants:
    """Invariants of the earliest-free-unit dispatch policy.

    ``DeviceRunResult.unit_timeline()`` groups completed operations per
    physical unit in dispatch order; the policy's contract is checked by
    replaying dispatch over the recorded start/finish times.
    """

    def test_no_overlap_on_any_unit(self, device):
        _, result = _oversubscribed_run(device)
        for (kind, unit), ops in result.unit_timeline().items():
            for earlier, later in zip(ops, ops[1:]):
                assert later.start_ns >= earlier.finish_ns, (
                    f"{kind} unit {unit}: op starting at {later.start_ns} "
                    f"overlaps op finishing at {earlier.finish_ns}"
                )

    def test_finish_times_monotone_per_unit(self, device):
        _, result = _oversubscribed_run(device)
        for (kind, unit), ops in result.unit_timeline().items():
            finishes = [op.finish_ns for op in ops]
            assert finishes == sorted(finishes), (
                f"{kind} unit {unit}: finish times {finishes} not monotone"
            )
            for op in ops:
                assert op.finish_ns > op.start_ns

    def test_dispatch_picks_earliest_free_unit(self, device):
        """Greedy replay: each op must land on the unit that freed first.

        Ties break to the lowest unit index, matching ``min`` over the
        free-time list.
        """
        simulator, result = _oversubscribed_run(device)
        pools = {
            "serialize": [0.0] * simulator.config.num_serializer_units,
            "deserialize": [0.0] * simulator.config.num_deserializer_units,
        }
        for op in result.operations:
            free = pools[op.kind]
            expected_unit = min(range(len(free)), key=free.__getitem__)
            assert op.unit_index == expected_unit
            assert op.start_ns == free[expected_unit]
            free[expected_unit] = op.finish_ns

    def test_pools_are_independent(self, device):
        """Serialize load never delays deserialize dispatch (own pool)."""
        _, result = _oversubscribed_run(device)
        du_count = len(
            [op for op in result.operations if op.kind == "deserialize"]
        )
        du_pool = {
            unit
            for (kind, unit) in result.unit_timeline()
            if kind == "deserialize"
        }
        assert du_pool == set(range(min(du_count, 8)))
        first_deser = next(
            op for op in result.operations if op.kind == "deserialize"
        )
        assert first_deser.start_ns == 0.0


# Recorded from an uncoalesced interval channel that derived the DU workload
# per request. A host-time change to the scheduler or the simulator may not
# move any of these numbers (exact float equality).
_GOLDEN_OVERSUBSCRIBED = {
    'wall_time_ns': 18907.333333333307,
    'dram_bytes': 302816,
    'bandwidth_utilization': 0.20853901484432877,
    'operations': [
        ('serialize', 0, 0.0, 1193.3333333333333, 720),
        ('serialize', 1, 0.0, 1754.6666666666674, 1488),
        ('serialize', 2, 0.0, 3196.3333333333308, 3024),
        ('serialize', 3, 0.0, 6319.666666666676, 6096),
        ('serialize', 4, 0.0, 12606.999999999958, 12240),
        ('serialize', 5, 0.0, 1208.6666666666672, 720),
        ('serialize', 6, 0.0, 1860.3333333333346, 1488),
        ('serialize', 7, 0.0, 3160.666666666664, 3024),
        ('serialize', 0, 1193.3333333333333, 7346.000000000017, 6096),
        ('serialize', 5, 1208.6666666666672, 13728.999999999938, 12240),
        ('serialize', 1, 1754.6666666666674, 2576.3333333333317, 720),
        ('serialize', 6, 1860.3333333333346, 3331.999999999995, 1488),
        ('serialize', 1, 2576.3333333333317, 5405.000000000004, 3024),
        ('serialize', 7, 3160.666666666664, 9371.000000000004, 6096),
        ('serialize', 2, 3196.3333333333308, 15701.666666666571, 12240),
        ('serialize', 6, 3331.999999999995, 4211.999999999994, 720),
        ('serialize', 6, 4211.999999999994, 5684.0000000000055, 1488),
        ('serialize', 1, 5405.000000000004, 8264.000000000022, 3024),
        ('serialize', 6, 5684.0000000000055, 11794.333333333305, 6096),
        ('serialize', 3, 6319.666666666676, 18907.333333333307, 12240),
        ('deserialize', 0, 0.0, 346.0, 720),
        ('deserialize', 1, 0.0, 356.0, 1488),
        ('deserialize', 2, 0.0, 424.66666666666686, 3024),
        ('deserialize', 3, 0.0, 672.3333333333333, 6096),
        ('deserialize', 4, 0.0, 1153.6666666666663, 12240),
        ('deserialize', 5, 0.0, 690.9999999999998, 720),
        ('deserialize', 6, 0.0, 908.3333333333326, 1488),
        ('deserialize', 7, 0.0, 1215.3333333333335, 3024),
    ],
}
_GOLDEN_DESERIALIZE_8 = {
    'wall_time_ns': 1457.3333333333342,
    'dram_bytes': 85760,
    'bandwidth_utilization': 0.7662397072278129,
    'operations': [
        ('deserialize', 0, 0.0, 546.3333333333335, 6096),
        ('deserialize', 1, 0.0, 595.0000000000002, 6096),
        ('deserialize', 2, 0.0, 719.3333333333333, 6096),
        ('deserialize', 3, 0.0, 906.9999999999995, 6096),
        ('deserialize', 4, 0.0, 1027.9999999999993, 6096),
        ('deserialize', 5, 0.0, 1154.6666666666663, 6096),
        ('deserialize', 6, 0.0, 1322.3333333333335, 6096),
        ('deserialize', 7, 0.0, 1457.3333333333342, 6096),
    ],
}


def _run_dict(result):
    return {
        "wall_time_ns": result.wall_time_ns,
        "dram_bytes": result.dram_bytes,
        "bandwidth_utilization": result.bandwidth_utilization,
        "operations": [
            (op.kind, op.unit_index, op.start_ns, op.finish_ns, op.graph_bytes)
            for op in result.operations
        ],
    }


def _deserialize_requests(registry, streams):
    return [("deserialize", stream, Heap(registry=registry)) for stream in streams]


class TestGoldenDeviceRuns:
    def test_oversubscribed_run(self, device):
        _, result = _oversubscribed_run(device)
        assert _run_dict(result) == _GOLDEN_OVERSUBSCRIBED

    def test_eight_du_deserialize_of_one_stream(self, device):
        registry, accelerator, heap, simulator = device
        stream = accelerator.serialize(build_tree(heap, depth=6))[0].stream
        result = simulator.run(_deserialize_requests(registry, [stream] * 8))
        assert _run_dict(result) == _GOLDEN_DESERIALIZE_8


class TestDUWorkloadReuse:
    @pytest.fixture
    def derivations(self, monkeypatch):
        calls = []
        original = DUWorkload.from_stream_sections.__func__

        def counting(cls, sections):
            calls.append(sections)
            return original(cls, sections)

        monkeypatch.setattr(DUWorkload, "from_stream_sections", classmethod(counting))
        return calls

    def test_each_distinct_stream_derived_once(self, device, derivations):
        registry, accelerator, heap, simulator = device
        small = accelerator.serialize(build_tree(heap, depth=4))[0].stream
        large = accelerator.serialize(build_tree(heap, depth=6))[0].stream
        streams = [small, large] * 4
        mixed = simulator.run(_deserialize_requests(registry, streams))
        assert len(derivations) == 2
        singles = {
            id(stream): simulator.run(_deserialize_requests(registry, [stream]))
            for stream in (small, large)
        }
        # Every op got its own stream's sections and rebuilt its own graph.
        for stream, op in zip(streams, mixed.operations):
            single = singles[id(stream)].operations[0]
            assert op.graph_bytes == single.graph_bytes
            assert graphs_equivalent(op.root, single.root)
        assert mixed.operations[0].graph_bytes != mixed.operations[1].graph_bytes

        # Equal-content copies are distinct objects, so each request derives
        # its own workload; reuse must not change any timing.
        derivations.clear()
        copies = [dataclasses.replace(stream) for stream in streams]
        fresh = simulator.run(_deserialize_requests(registry, copies))
        assert len(derivations) == len(streams)
        assert _run_dict(fresh) == _run_dict(mixed)


class TestRunLocalCodecReuse:
    """One encode per distinct root and one decode per distinct stream."""

    @pytest.fixture
    def codec_calls(self, monkeypatch):
        calls = {"serialize": 0, "unpack_items": 0}
        serialize = CerealSerializer.serialize
        unpack_items = cereal_format.unpack_items

        def counting_serialize(self, root):
            calls["serialize"] += 1
            return serialize(self, root)

        def counting_unpack(packed):
            calls["unpack_items"] += 1
            return unpack_items(packed)

        monkeypatch.setattr(CerealSerializer, "serialize", counting_serialize)
        monkeypatch.setattr(cereal_format, "unpack_items", counting_unpack)
        return calls

    def test_each_distinct_root_encoded_once(self, device, codec_calls):
        _, accelerator, heap, simulator = device
        small, large = build_tree(heap, depth=3), build_tree(heap, depth=5)
        roots = [small, large, small, small, large, small, large, small, small]
        result = simulator.run([("serialize", root) for root in roots])
        assert codec_calls["serialize"] == 2
        assert len(result.operations) == len(roots)
        fresh = CerealSerializer(accelerator.registration)
        for root, op in zip(roots, result.operations):
            assert op.stream.data == fresh.serialize(root).stream.data

    def test_memo_is_run_local(self, device, codec_calls):
        _, _, heap, simulator = device
        root = build_tree(heap, depth=3)
        first = simulator.run([("serialize", root)] * 3)
        root.set("value", 12345)
        second = simulator.run([("serialize", root)] * 3)
        assert codec_calls["serialize"] == 2
        assert first.operations[0].stream.data != second.operations[0].stream.data
        fresh = CerealSerializer(simulator.accelerator.registration)
        assert second.operations[2].stream.data == fresh.serialize(root).stream.data

    def test_each_distinct_stream_unpacked_once(self, device, codec_calls):
        registry, accelerator, heap, simulator = device
        small = accelerator.serialize(build_tree(heap, depth=3))[0].stream
        large = accelerator.serialize(build_tree(heap, depth=5))[0].stream
        streams = [small, large, small, small, large, small, large, small]
        codec_calls["unpack_items"] = 0
        result = simulator.run(_deserialize_requests(registry, streams))
        assert codec_calls["unpack_items"] == 2
        roots = [op.root for op in result.operations]
        assert len({root.heap for root in roots}) == len(streams)
        for stream, root in zip(streams, roots):
            expected = accelerator.codec.deserialize(stream, Heap(registry=registry)).root
            assert graphs_equivalent(root, expected)

    def test_accelerator_deserialize_decodes_once(self, device, codec_calls, monkeypatch):
        registry, accelerator, heap, _ = device
        decodes = []
        decode_sections = CerealSerializer.decode_sections

        def counting_decode(stream):
            decodes.append(stream)
            return decode_sections(stream)

        monkeypatch.setattr(CerealSerializer, "decode_sections", staticmethod(counting_decode))
        source = build_tree(heap, depth=4)
        stream = accelerator.serialize(source)[0].stream
        codec_calls["unpack_items"] = 0
        root, timing, du = accelerator.deserialize(stream, Heap(registry=registry))
        assert len(decodes) == 1
        assert codec_calls["unpack_items"] == 1
        assert graphs_equivalent(root, source)
        assert timing.objects == 31 and du.blocks > 0

    def test_truncated_stream_rejected(self, device):
        registry, accelerator, heap, simulator = device
        stream = accelerator.serialize(build_tree(heap, depth=2))[0].stream
        truncated = dataclasses.replace(stream, data=stream.data[:-1])
        with pytest.raises(FormatError):
            simulator.run(_deserialize_requests(registry, [truncated]))
