"""One serving node: a :class:`SerializationServer` plus lifecycle state.

The node wraps a loop-free server state machine — shards, software lane,
coalescer, and admission controller, advanced only by the fleet loop's
calls — and adds what the cluster layer needs around it: a lifecycle
state machine, provisioned shard-second accounting (the cost axis every
static-vs-autoscaled comparison normalizes on), and a private metrics
registry the cluster folds into the global one at end of run via
:meth:`repro.obs.metrics.MetricsRegistry.merge_snapshot`. A standalone
:meth:`SerializationServer.run` hands its own server in, so the fleet's
only node is the caller's instance.

State machine::

    STARTING --activate--> UP --start_drain--> DRAINING --finish--> DOWN
                            \\--fail------------------------------> DOWN

``STARTING`` models provisioning lag: the autoscaler pays for the node
(shard-seconds accrue from provisioning) but cannot route to it until
the delay elapses — exactly the window that makes reactive scaling lose
to the flash crowd's leading edge.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.trace import Tracer
from repro.service.server import SerializationServer, ServiceConfig
from repro.service.workload import ServiceCatalog

NODE_STARTING = "starting"
NODE_UP = "up"
NODE_DRAINING = "draining"
NODE_DOWN = "down"

_TRANSITIONS = {
    NODE_STARTING: (NODE_UP, NODE_DOWN),
    NODE_UP: (NODE_DRAINING, NODE_DOWN),
    NODE_DRAINING: (NODE_DOWN,),
    NODE_DOWN: (),
}


class ServerNode:
    """Lifecycle wrapper around one per-node serialization server."""

    def __init__(
        self,
        node_id: str,
        zone: str,
        catalog: ServiceCatalog,
        config: ServiceConfig,
        provisioned_ns: float,
        injector: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
        latency_exact_limit: int = 4096,
        server: Optional[SerializationServer] = None,
    ):
        if not node_id:
            raise ConfigError("node_id must be non-empty")
        self.node_id = node_id
        self.zone = zone
        if server is None:
            server = SerializationServer(
                catalog, config, injector=injector, tracer=tracer
            )
        server.node_id = node_id
        self.server = server
        self.state = NODE_STARTING
        self.provisioned_ns = provisioned_ns
        self.up_ns: Optional[float] = None
        self.stopped_ns: Optional[float] = None
        self.failed = False
        self.served_requests = 0
        #: Node-local metrics; merged into the run registry at teardown.
        self.registry = MetricsRegistry(enabled=True)
        self._latency_exact_limit = latency_exact_limit
        self._completed: Optional[Counter] = None
        self._latency: Optional[Histogram] = None

    def __repr__(self) -> str:
        return f"ServerNode({self.node_id!r}, {self.state})"

    # -- state machine -----------------------------------------------------------------

    def _transition(self, target: str) -> None:
        if target not in _TRANSITIONS[self.state]:
            raise ConfigError(
                f"node {self.node_id}: illegal transition "
                f"{self.state} -> {target}"
            )
        self.state = target

    def activate(self, now_ns: float) -> None:
        """Provisioning finished: the node may take traffic."""
        self._transition(NODE_UP)
        self.up_ns = now_ns

    def start_drain(self) -> None:
        """Stop taking new work; finish what is queued, then retire."""
        self._transition(NODE_DRAINING)

    def fail(self, now_ns: float) -> None:
        """The node dropped out mid-flight (injected node-loss fault)."""
        self._transition(NODE_DOWN)
        self.failed = True
        self.stopped_ns = now_ns

    def finish(self, now_ns: float) -> None:
        """Clean retirement (drain completed, or end of run)."""
        if self.state == NODE_DOWN:
            return
        self.state = NODE_DOWN
        self.stopped_ns = now_ns

    @property
    def routable(self) -> bool:
        return self.state == NODE_UP

    def idle(self, now_ns: float) -> bool:
        """No admitted request is queued, batching, or executing."""
        self.server.drain(now_ns)
        return (
            self.server.inflight_count == 0
            and not self.server.coalescer.pending_requests()
        )

    # -- accounting --------------------------------------------------------------------

    def record_completion(self, latency_ns: float) -> None:
        """Count one request this node finished, into its private metrics.

        The metric handles are fetched once, on the first completion, so
        a node that never serves leaves no metric behind.
        """
        if self._completed is None:
            self._completed = self.registry.counter(
                "node.requests_completed", node=self.node_id
            )
            self._latency = self.registry.histogram(
                "node.latency_ns",
                node=self.node_id,
                exact_limit=self._latency_exact_limit,
            )
        self.served_requests += 1
        self._completed.inc()
        self._latency.observe(latency_ns)

    def shard_seconds(self, now_ns: float) -> float:
        """Provisioned capacity cost: shards × provisioned wall time.

        Accrues from the moment the node is requested (STARTING) until it
        reaches DOWN — a booting node costs money before it serves.
        """
        end = self.stopped_ns if self.stopped_ns is not None else now_ns
        span_ns = max(0.0, end - self.provisioned_ns)
        return self.server.config.num_shards * span_ns * 1e-9

    def summary(self, now_ns: float) -> Dict[str, object]:
        return {
            "node": self.node_id,
            "zone": self.zone,
            "state": self.state,
            "failed": self.failed,
            "provisioned_ns": self.provisioned_ns,
            "up_ns": self.up_ns,
            "stopped_ns": self.stopped_ns,
            "shard_seconds": self.shard_seconds(now_ns),
            "served_requests": self.served_requests,
            "dispatched_batches": sum(
                shard.dispatched_batches for shard in self.server.shards
            ),
            "degraded_batches": self.server.degraded_batches,
            "admission": {
                "admitted": self.server.admission.admitted,
                "shed": self.server.admission.shed,
                "peak_outstanding": self.server.admission.peak_outstanding,
            },
        }
