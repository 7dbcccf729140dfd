"""DDR4 memory timing model (Table I).

The model captures the two first-order DRAM properties the paper's results
depend on:

* **Zero-load latency** — every access pays a fixed 40 ns pipe latency.
* **Per-channel bandwidth** — each of the four channels sustains 19.2 GB/s;
  a 64 B line therefore occupies its channel for ``64 / 19.2e9`` seconds.

Addresses are interleaved across channels at line granularity, as in real
controllers, so sequential streams use all channels while a pathological
stride could hammer one. Each channel is modelled as a single server with a
"next free" time; an access's completion time is

    max(issue_time, channel_free) + occupancy + zero_load_latency

which reproduces both the unloaded latency and the bandwidth ceiling that
the accelerator saturates (Figures 11 and 15).

One deliberate simplification: each channel tracks a single ``next free``
time, so an access issued with an *earlier* timestamp than a previously
scheduled one queues behind it rather than slotting into an earlier gap.
For the accelerator this acts as a simple shared-bus contention model
between concurrently active requesters (the DU's three read streams and
its write-back traffic); the resulting per-DU block rate (~25 ns/block)
matches what the paper's Figure 10 deserialization speedups imply.

The out-of-order mode (``DRAMModel(out_of_order=True)``, used by the device
simulator) lifts that simplification: each channel keeps its reserved time
as sorted, disjoint *busy runs*, and an access takes the first gap at or
after its issue time that fits its occupancy (first fit). A new reservation
that ends exactly where the next run starts, or starts exactly where the
previous run ends, is merged into it (exact float equality), so a stream of
back-to-back accesses is one run rather than one entry per access. Merging
abutting runs leaves the set of free instants unchanged, and a first-fit
search only ever asks "is the gap between the candidate time and the next
busy instant long enough", so every answer is the same as over the
unmerged reservations. An access costs one bisection to its issue time,
one step per busy run it has to skip, and one list update; under the
device's mostly back-to-back traffic that is a handful of steps.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.config import DRAMConfig
from repro.common.errors import SimulationError


@dataclass
class DRAMStats:
    """Aggregate counters for one simulation run."""

    read_bytes: int = 0
    write_bytes: int = 0
    accesses: int = 0
    busy_time_ns: float = 0.0  # sum of channel occupancy
    last_completion_ns: float = 0.0

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    def bandwidth_utilization(self, elapsed_ns: float, config: DRAMConfig) -> float:
        """Fraction of peak bandwidth used over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return 0.0
        achieved = self.total_bytes / (elapsed_ns * 1e-9)
        return achieved / config.peak_bandwidth_bytes_per_sec


class _IntervalChannel:
    """A channel schedule that admits out-of-order issue (first fit).

    Used by the device simulator, where several units' operations are
    simulated one after another but overlap in *simulated* time: an access
    issued "in the past" relative to already-scheduled traffic slots into
    the earliest sufficiently large gap instead of queuing at the tail.

    Reserved time is kept as sorted, disjoint busy runs ``[starts[i],
    ends[i])``; exactly abutting reservations are coalesced into one run
    (see the module docstring for why that cannot change an answer).
    """

    __slots__ = ("starts", "ends")

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []

    def schedule(self, issue_ns: float, occupancy_ns: float) -> float:
        """Reserve ``occupancy_ns`` at/after ``issue_ns``; returns start."""
        starts = self.starts
        ends = self.ends
        count = len(starts)
        candidate = issue_ns
        index = bisect_left(starts, candidate)
        # The previous run may still cover the candidate time.
        if index and ends[index - 1] > candidate:
            candidate = ends[index - 1]
        while index < count and starts[index] - candidate < occupancy_ns:
            if ends[index] > candidate:
                candidate = ends[index]
            index += 1
        finish = candidate + occupancy_ns
        if index and ends[index - 1] == candidate:
            if index < count and starts[index] == finish:
                # The reservation closes the gap between two runs.
                ends[index - 1] = ends[index]
                del starts[index]
                del ends[index]
            else:
                ends[index - 1] = finish
        elif index < count and starts[index] == finish:
            starts[index] = candidate
        else:
            starts.insert(index, candidate)
            ends.insert(index, finish)
        return candidate


class DRAMModel:
    """Channel-interleaved, bandwidth-limited DRAM with fixed base latency.

    ``out_of_order=True`` replaces the scalar per-channel "next free" time
    with an interval schedule so accesses issued with earlier timestamps
    than already-scheduled traffic can use earlier channel gaps — required
    when independently-timed operations share one memory system (see
    :mod:`repro.cereal.device_sim`).
    """

    def __init__(
        self, config: DRAMConfig | None = None, out_of_order: bool = False
    ):
        self.config = config or DRAMConfig()
        self.out_of_order = out_of_order
        self._channel_free_ns: List[float] = [0.0] * self.config.channels
        self._interval_channels: Optional[List[_IntervalChannel]] = (
            [_IntervalChannel() for _ in range(self.config.channels)]
            if out_of_order
            else None
        )
        # Per-access constants of the frozen config; occupancy per length.
        self._granule = self.config.access_granularity_bytes
        self._channels = self.config.channels
        self._latency_ns = self.config.zero_load_latency_ns
        self._occupancy: Dict[int, float] = {}
        self.stats = DRAMStats()

    def reset(self) -> None:
        self._channel_free_ns = [0.0] * self.config.channels
        if self.out_of_order:
            self._interval_channels = [
                _IntervalChannel() for _ in range(self.config.channels)
            ]
        self.stats = DRAMStats()

    # -- address mapping ---------------------------------------------------------

    def channel_of(self, address: int) -> int:
        """Line-interleaved channel mapping."""
        line = address // self.config.access_granularity_bytes
        return line % self.config.channels

    def occupancy_ns(self, length: int) -> float:
        """Channel busy time to move ``length`` bytes."""
        return length / self.config.channel_bandwidth_bytes_per_sec * 1e9

    # -- timing ---------------------------------------------------------------------

    def access(
        self, issue_ns: float, address: int, length: int, is_write: bool
    ) -> float:
        """Issue one access; returns its completion time in nanoseconds.

        ``length`` is typically one access granule (64 B); longer accesses are
        allowed and simply occupy the channel proportionally longer.
        """
        if length <= 0:
            raise SimulationError(f"access length must be positive, got {length}")
        if issue_ns < 0:
            raise SimulationError(f"issue time must be non-negative, got {issue_ns}")
        # Same expressions as ``channel_of`` and ``occupancy_ns``.
        channel = address // self._granule % self._channels
        occupancy = self._occupancy.get(length)
        if occupancy is None:
            occupancy = self._occupancy[length] = self.occupancy_ns(length)
        if self._interval_channels is not None:
            start = self._interval_channels[channel].schedule(issue_ns, occupancy)
        else:
            start = max(issue_ns, self._channel_free_ns[channel])
            self._channel_free_ns[channel] = start + occupancy
        completion = start + occupancy + self._latency_ns

        stats = self.stats
        stats.accesses += 1
        stats.busy_time_ns += occupancy
        if is_write:
            stats.write_bytes += length
        else:
            stats.read_bytes += length
        if completion > stats.last_completion_ns:
            stats.last_completion_ns = completion
        return completion

    # -- analytical helpers ------------------------------------------------------------

    def stream_time_ns(self, total_bytes: int, outstanding: int = 16) -> float:
        """Closed-form time to move ``total_bytes`` with ``outstanding`` requests.

        Used by analytical cost models (e.g. the CPU serializer model) that do
        not simulate individual accesses. With ``outstanding`` overlapped
        requests, effective throughput is limited either by bandwidth or by
        latency divided by the overlap factor:

            per_line = max(occupancy_all_channels, zero_load / outstanding)
        """
        if total_bytes <= 0:
            return 0.0
        if outstanding <= 0:
            raise SimulationError("outstanding must be positive")
        line = self.config.access_granularity_bytes
        lines = (total_bytes + line - 1) // line
        bandwidth_limited = line / self.config.peak_bandwidth_bytes_per_sec * 1e9
        latency_limited = self.config.zero_load_latency_ns / outstanding
        per_line = max(bandwidth_limited, latency_limited)
        return lines * per_line + self.config.zero_load_latency_ns
