"""Per-request latency traces and tail-latency / goodput summaries.

Every request that enters the server leaves exactly one
:class:`RequestRecord` behind — admitted or shed, accelerated or degraded
— so the SLO report can be rebuilt from the trace alone. Latency is
measured arrival-to-finish (queueing + batching wait + service); shed
requests have no latency (the client got an immediate rejection) and are
reported through the shed rate instead.

The summary mirrors what a production serving dashboard shows: p50 / p95 /
p99 / p999, goodput vs. offered load, shed and degrade rates, and the
fault-recovery counters when a chaos schedule was active.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.report import ReportTable
from repro.faults.report import FaultReport
from repro.obs.metrics import Histogram, exact_quantile

OUTCOME_OK = "ok"
OUTCOME_DEGRADED = "degraded"
OUTCOME_SHED = "shed"
OUTCOME_REJECTED = "rejected"  # malformed payload refused at admission

BACKEND_CEREAL = "cereal"
BACKEND_SOFTWARE = "software"
BACKEND_NONE = "none"

#: The quantiles every summary reports, in display order.
SLO_QUANTILES = (("p50", 50.0), ("p95", 95.0), ("p99", 99.0), ("p999", 99.9))


@dataclass
class RequestRecord:
    """The full observable history of one request."""

    request_id: int
    kind: str
    size_class: str
    arrival_ns: float
    dispatch_ns: float = 0.0
    finish_ns: float = 0.0
    outcome: str = OUTCOME_OK
    backend: str = BACKEND_CEREAL
    batch_id: int = -1
    batch_size: int = 1
    #: Multi-tenant QoS identity (empty outside tenant-mix workloads).
    tenant: str = ""
    priority: int = 0
    #: The cluster node that finally served the request ("" when the run
    #: is a single standalone server).
    node: str = ""
    #: Failover re-executions: how many times the request was re-routed
    #: after a node loss. Latency always spans arrival to *final* finish,
    #: so retries are inside the SLO, never hidden by it.
    retries: int = 0
    #: Streamed-response egress: when the response left chunk by chunk,
    #: ``first_byte_ns`` is the wire-done time of chunk 0 (the client's
    #: time-to-first-byte) and ``finish_ns`` extends to the last chunk.
    streamed: bool = False
    chunks: int = 0
    first_byte_ns: float = 0.0
    #: Per chunk ``(seq, wire_start_ns, wire_done_ns)``; feeds the
    #: ``response.chunk`` spans nested under the request span.
    chunk_timeline: Optional[List] = None

    @property
    def completed(self) -> bool:
        return self.outcome not in (OUTCOME_SHED, OUTCOME_REJECTED)

    @property
    def ttfb_ns(self) -> float:
        """Arrival to first response byte (falls back to full latency
        when the response was not streamed)."""
        if self.streamed:
            return self.first_byte_ns - self.arrival_ns
        return self.latency_ns

    @property
    def latency_ns(self) -> float:
        return self.finish_ns - self.arrival_ns

    @property
    def queue_ns(self) -> float:
        """Time between arrival and dispatch (batching wait + queueing)."""
        return self.dispatch_ns - self.arrival_ns

    @property
    def service_ns(self) -> float:
        return self.finish_ns - self.dispatch_ns


@dataclass
class SLOReport:
    """Aggregated view over one service run's request records."""

    records: List[RequestRecord]
    fault_report: Optional[FaultReport] = None
    degraded_batches: int = 0
    mean_batch_size: float = 0.0
    peak_outstanding: int = 0
    verified_requests: int = 0
    #: Snapshot of the process-wide serialization caches at end of run
    #: (compiled-plan cache, klass layout cache, output buffer pool) —
    #: plans compile on the first request of a shape and are reused across
    #: every later batch, so warm runs should show a high hit rate here.
    runtime_caches: Optional[Dict] = None

    _latency_cache: Dict[str, List[float]] = field(
        default_factory=dict, repr=False
    )
    _hist_cache: Dict[str, Histogram] = field(default_factory=dict, repr=False)

    # -- basic populations -------------------------------------------------------

    def _latencies(self, kind: str = "all") -> List[float]:
        cached = self._latency_cache.get(kind)
        if cached is None:
            cached = sorted(
                r.latency_ns
                for r in self.records
                if r.completed and (kind == "all" or r.kind == kind)
            )
            self._latency_cache[kind] = cached
        return cached

    @property
    def total_requests(self) -> int:
        return len(self.records)

    @property
    def completed_requests(self) -> int:
        return sum(1 for r in self.records if r.completed)

    @property
    def shed_requests(self) -> int:
        return sum(1 for r in self.records if r.outcome == OUTCOME_SHED)

    @property
    def rejected_requests(self) -> int:
        """Malformed payloads refused by the hardened decoder — a shed
        class of their own, never lumped into capacity shedding."""
        return sum(1 for r in self.records if r.outcome == OUTCOME_REJECTED)

    @property
    def degraded_requests(self) -> int:
        return sum(1 for r in self.records if r.outcome == OUTCOME_DEGRADED)

    @property
    def retried_requests(self) -> int:
        """Requests re-executed at least once after a node failover."""
        return sum(1 for r in self.records if r.retries > 0)

    @property
    def shed_rate(self) -> float:
        if not self.records:
            return 0.0
        return self.shed_requests / self.total_requests

    @property
    def rejected_rate(self) -> float:
        if not self.records:
            return 0.0
        return self.rejected_requests / self.total_requests

    # -- latency ------------------------------------------------------------------

    def _latency_hist(self, kind: str) -> Histogram:
        """An obs histogram over this population's latencies.

        Sized so the exact reservoir covers every record — the quantiles
        below are therefore :func:`repro.obs.metrics.exact_quantile` over
        the raw series, the same definition the tracing exports and
        ``repro.analysis.percentile`` use. That shared definition is what
        lets ``tests/test_obs_reconcile.py`` demand span-derived and
        SLO-reported percentiles agree to the nanosecond.
        """
        cached = self._hist_cache.get(kind)
        if cached is None:
            values = self._latencies(kind)
            cached = Histogram(
                f"slo.latency_ns.{kind}", exact_limit=max(1, len(values))
            )
            for value in values:
                cached.observe(value)
            self._hist_cache[kind] = cached
        return cached

    def latency_ns_at(self, q: float, kind: str = "all") -> float:
        if not self._latencies(kind):
            return 0.0
        return self._latency_hist(kind).quantile(q)

    def p50(self, kind: str = "all") -> float:
        return self.latency_ns_at(50.0, kind)

    def p95(self, kind: str = "all") -> float:
        return self.latency_ns_at(95.0, kind)

    def p99(self, kind: str = "all") -> float:
        return self.latency_ns_at(99.0, kind)

    def p999(self, kind: str = "all") -> float:
        return self.latency_ns_at(99.9, kind)

    def mean_latency_ns(self, kind: str = "all") -> float:
        values = self._latencies(kind)
        if not values:
            return 0.0
        return sum(values) / len(values)

    def max_latency_ns(self, kind: str = "all") -> float:
        values = self._latencies(kind)
        return values[-1] if values else 0.0

    # -- throughput ----------------------------------------------------------------

    @property
    def makespan_ns(self) -> float:
        """First arrival to last completion (the busy horizon)."""
        if not self.records:
            return 0.0
        first = min(r.arrival_ns for r in self.records)
        last = max(
            (r.finish_ns for r in self.records if r.completed),
            default=first,
        )
        return max(0.0, last - first)

    @property
    def offered_qps(self) -> float:
        """Arrival rate over the arrival window."""
        if len(self.records) < 2:
            return 0.0
        first = min(r.arrival_ns for r in self.records)
        last = max(r.arrival_ns for r in self.records)
        if last <= first:
            return 0.0
        return (len(self.records) - 1) / ((last - first) * 1e-9)

    @property
    def goodput_qps(self) -> float:
        """Completed requests per second over the busy horizon."""
        span = self.makespan_ns
        if span <= 0:
            return 0.0
        return self.completed_requests / (span * 1e-9)

    # -- rendering -------------------------------------------------------------------

    def as_dict(self) -> Dict:
        """Stable machine-readable summary (for ``BENCH_*.json``)."""
        summary: Dict = {
            "requests": {
                "total": self.total_requests,
                "completed": self.completed_requests,
                "shed": self.shed_requests,
                "rejected": self.rejected_requests,
                "degraded": self.degraded_requests,
                "retried": self.retried_requests,
                "verified": self.verified_requests,
            },
            "latency_ns": {},
            "throughput": {
                "offered_qps": self.offered_qps,
                "goodput_qps": self.goodput_qps,
                "shed_rate": self.shed_rate,
                "rejected_rate": self.rejected_rate,
            },
            "batching": {
                "mean_batch_size": self.mean_batch_size,
                "degraded_batches": self.degraded_batches,
            },
            "queue": {"peak_outstanding": self.peak_outstanding},
        }
        for kind in ("all", "serialize", "deserialize"):
            if not self._latencies(kind):
                continue
            entry = {
                name: self.latency_ns_at(q, kind) for name, q in SLO_QUANTILES
            }
            entry["mean"] = self.mean_latency_ns(kind)
            entry["max"] = self.max_latency_ns(kind)
            summary["latency_ns"][kind] = entry
        streamed = [r for r in self.records if r.streamed and r.completed]
        if streamed:
            ttfbs = sorted(r.ttfb_ns for r in streamed)
            summary["streaming"] = {
                "streamed_requests": len(streamed),
                "chunks": sum(r.chunks for r in streamed),
                "ttfb_ns": {
                    "p50": exact_quantile(ttfbs, 50.0),
                    "p95": exact_quantile(ttfbs, 95.0),
                    "p99": exact_quantile(ttfbs, 99.0),
                    "mean": sum(ttfbs) / len(ttfbs),
                    "max": ttfbs[-1],
                },
            }
        tenants = sorted({r.tenant for r in self.records if r.tenant})
        if tenants:
            summary["tenants"] = {}
            for tenant in tenants:
                population = [r for r in self.records if r.tenant == tenant]
                done = sorted(
                    r.latency_ns for r in population if r.completed
                )
                entry = {
                    "total": len(population),
                    "completed": len(done),
                    "shed": sum(
                        1 for r in population if r.outcome == OUTCOME_SHED
                    ),
                    "degraded": sum(
                        1 for r in population if r.outcome == OUTCOME_DEGRADED
                    ),
                    "priority": population[0].priority,
                }
                if done:
                    entry["p99_ns"] = exact_quantile(done, 99.0)
                summary["tenants"][tenant] = entry
        if self.runtime_caches is not None:
            summary["runtime_caches"] = self.runtime_caches
        if self.fault_report is not None:
            summary["faults"] = self.fault_report.as_dict()
        return summary

    def to_table(self, title: str = "Service SLO report") -> ReportTable:
        table = ReportTable(
            title,
            ["Kind", "N", "p50 (us)", "p95 (us)", "p99 (us)", "p999 (us)",
             "Mean (us)", "Max (us)"],
        )
        for kind in ("all", "serialize", "deserialize"):
            values = self._latencies(kind)
            if not values:
                continue
            table.add_row(
                kind,
                str(len(values)),
                f"{self.p50(kind) / 1e3:.2f}",
                f"{self.p95(kind) / 1e3:.2f}",
                f"{self.p99(kind) / 1e3:.2f}",
                f"{self.p999(kind) / 1e3:.2f}",
                f"{self.mean_latency_ns(kind) / 1e3:.2f}",
                f"{self.max_latency_ns(kind) / 1e3:.2f}",
            )
        table.add_note(
            f"offered {self.offered_qps:,.0f} rps, goodput "
            f"{self.goodput_qps:,.0f} rps, shed {self.shed_requests} "
            f"({self.shed_rate * 100:.2f}%), rejected "
            f"{self.rejected_requests} ({self.rejected_rate * 100:.2f}%), "
            f"degraded {self.degraded_requests} "
            f"(batches {self.degraded_batches})"
        )
        table.add_note(
            f"mean batch size {self.mean_batch_size:.2f}, peak queue "
            f"{self.peak_outstanding}, verified {self.verified_requests}"
        )
        streamed = [r for r in self.records if r.streamed and r.completed]
        if streamed:
            ttfbs = sorted(r.ttfb_ns for r in streamed)
            table.add_note(
                f"streaming: {len(streamed)} responses in "
                f"{sum(r.chunks for r in streamed)} chunks, TTFB p50 "
                f"{exact_quantile(ttfbs, 50.0) / 1e3:.2f} us / p99 "
                f"{exact_quantile(ttfbs, 99.0) / 1e3:.2f} us"
            )
        if self.runtime_caches is not None:
            plan = self.runtime_caches.get("plan_cache", {})
            layout = self.runtime_caches.get("layout_cache", {})
            pool = self.runtime_caches.get("buffer_pool", {})
            table.add_note(
                f"caches: plan hit rate {plan.get('hit_rate', 0.0) * 100:.1f}% "
                f"({plan.get('entries', 0)} plans), layout hit rate "
                f"{layout.get('hit_rate', 0.0) * 100:.1f}%, arena high water "
                f"{pool.get('high_water_mark_bytes', 0)} B"
            )
        if self.fault_report is not None and self.fault_report.layers:
            totals = self.fault_report.totals
            table.add_note(
                f"faults: injected {totals.injected}, detected "
                f"{totals.detected}, recovered {totals.recovered}, "
                f"fallbacks {totals.fallbacks}"
            )
        return table
