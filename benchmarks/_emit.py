"""Machine-readable benchmark output shared by every ``bench_*.py``.

The human-readable ``ReportTable`` text under ``benchmarks/results/``
records what a run looked like; the ``BENCH_<name>.json`` files written
here record the numbers themselves, so the performance trajectory across
commits can be diffed and plotted mechanically. One schema for all
benches:

    {
      "schema_version": 1,
      "bench": "<name>",
      "meta": {...seed, grid, calibration...},
      "results": {...bench-specific payload...},
      "runtime": {...plan/layout cache and buffer pool counters...},  # optional
      "checks": {"<check>": {"ok": bool, "detail": "..."}, ...}   # optional
    }

The optional ``runtime`` block is the shared shape for process-wide
serialization-cache health (:func:`runtime_snapshot`): compiled-plan cache
hit rate, layout cache hit rate, and the output buffer pool's high-water
mark. ``bench_wallclock.py`` and ``bench_service_scaling.py`` both emit
it so cache behaviour can be diffed across commits alongside throughput.

Keys are sorted and no wall-clock timestamps are embedded, so a seeded
bench emits byte-identical JSON run-to-run (cache counters are excluded
from that guarantee — they reflect whatever ran in the process first).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

SCHEMA_VERSION = 1


def runtime_snapshot() -> Dict:
    """Snapshot the process-wide serialization caches in the shared shape.

    Every counter here lives in the obs metrics registry
    (:mod:`repro.obs.metrics`) — the ``stats()`` views below are thin
    reads over ``plan_cache.*`` / ``layout_cache.*`` / ``bufpool.*``
    metrics — and the full registry rides along under ``"metrics"``, so
    one ``BENCH_*.json`` carries both the legacy cache shape and
    everything else the run recorded (fault counters, service metrics).
    """
    from repro.common.bufpool import chunk_pool_stats, pool_stats
    from repro.formats.plans import plan_cache_stats
    from repro.formats.secure import decode_stats
    from repro.jvm import layout_cache
    from repro.obs.metrics import get_registry

    pool = pool_stats()
    chunk_pool = chunk_pool_stats()
    plan = plan_cache_stats()
    layout = layout_cache.stats()
    registry_snapshot = get_registry().snapshot()
    memstore = {
        key: value
        for key, value in registry_snapshot.items()
        if key.startswith("memstore.")
    }
    return {
        "plan_cache": plan,
        "plan_cache_hit_rate": plan["hit_rate"],
        "layout_cache": layout,
        "arena_high_water_mark_bytes": pool["high_water_mark_bytes"],
        "buffer_pool": pool,
        "chunk_pool": chunk_pool,
        "chunk_pool_high_water_mark_bytes": chunk_pool[
            "high_water_mark_bytes"
        ],
        "secure_decode": decode_stats(),
        "memstore": memstore,
        "metrics": registry_snapshot,
    }


def trace_json_path(results_dir: str, name: str) -> str:
    return os.path.join(results_dir, f"TRACE_{name}.json")


def emit_trace(results_dir: str, name: str, tracer, metadata=None) -> str:
    """Validate and write ``TRACE_<name>.json`` (Chrome trace-event JSON).

    The file loads directly in ``chrome://tracing`` / Perfetto; returns
    the path. Raises :class:`ValueError` if the tracer's contents render
    to a malformed document, so benches fail loudly rather than shipping
    an unloadable trace.
    """
    from repro.obs.export import write_chrome_trace

    os.makedirs(results_dir, exist_ok=True)
    meta = {"bench": name}
    if metadata:
        meta.update(metadata)
    return write_chrome_trace(
        tracer, trace_json_path(results_dir, name), metadata=meta
    )


def bench_json_path(results_dir: str, name: str) -> str:
    return os.path.join(results_dir, f"BENCH_{name}.json")


def emit_json(
    results_dir: str,
    name: str,
    results: Dict,
    meta: Optional[Dict] = None,
    checks: Optional[Dict] = None,
    runtime: Optional[Dict] = None,
) -> str:
    """Write ``BENCH_<name>.json``; returns the path."""
    if not results:
        raise ValueError(f"refusing to emit empty results for bench {name!r}")
    document: Dict = {
        "schema_version": SCHEMA_VERSION,
        "bench": name,
        "meta": meta or {},
        "results": results,
    }
    if runtime is not None:
        document["runtime"] = runtime
    if checks is not None:
        document["checks"] = checks
    os.makedirs(results_dir, exist_ok=True)
    path = bench_json_path(results_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_json(results_dir: str, name: str) -> Dict:
    """Read a previously emitted ``BENCH_<name>.json``."""
    with open(bench_json_path(results_dir, name), "r", encoding="utf-8") as handle:
        return json.load(handle)
