"""Host-time benchmark of the Cereal reproduction: one command, three workloads.

    python3 perfbench/run.py --workload spark --seed 1 --seconds 20 --trace 0

Runs passes of one workload (``perfbench/workloads.py``), each in a fresh
single-threaded process so every program cache starts cold, until
``--seconds`` are used up (at least ``MIN_ROUNDS``). Run from the root of a
checkout: the program is imported from ``src/`` and the metric names and
units come from ``BENCHMARK.json``.

* ``--trace 0``: untraced passes; reports the ``end_to_end`` metrics as the
  median over passes.
* ``--trace 1``: alternates untraced and traced passes; reports the
  ``per_layer`` metrics from the traced pass with the median wall time, the
  tracing overhead against the untraced passes, and the modelled statistics.

Every pass checks its outputs and hashes its modelled outputs; the run is
correct only if no check failed and every pass, traced or not, produced the
same ``model_sha``. A human-readable report precedes the final line, which is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A pass that crashes ends the run with exit code 1 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("spark", "device", "serve")
#: Rounds run unless the host is so slow that they would overrun
#: ``MAX_STRETCH`` x --seconds: untraced passes with --trace 0, untraced +
#: traced pairs with --trace 1.
MIN_ROUNDS = {0: 3, 1: 1}
MAX_STRETCH = 1.5
#: Every pass must end before this many seconds into the run.
RUN_LIMIT_S = 170.0


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, traced: bool, deadline: float) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
    ]
    timeout = max(1.0, deadline - time.monotonic())
    # A fixed string-hash seed keeps set and dict layouts alike across passes.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as error:
        raise PassFailed(f"{workload} pass exceeded {timeout:.0f} s") from error
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise PassFailed(f"{workload} pass exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: int, trace: int) -> Dict[bool, List[Dict]]:
    """Rounds of passes until one more would overrun ``seconds``."""
    kinds = (False, True) if trace else (False,)
    passes: Dict[bool, List[Dict]] = {False: [], True: []}
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    round_s: List[float] = []
    while True:
        begin = time.monotonic()
        for traced in kinds:
            passes[traced].append(run_pass(workload, seed, traced, deadline))
        round_s.append(time.monotonic() - begin)
        projected = time.monotonic() - start + statistics.median(round_s)
        if projected > MAX_STRETCH * seconds or (
            len(round_s) >= MIN_ROUNDS[trace] and projected > seconds
        ):
            return passes


def _median_pass(passes: List[Dict]) -> Dict:
    return sorted(passes, key=lambda p: p["wall_s"])[(len(passes) - 1) // 2]


def median_wall_s(untraced: List[Dict]) -> float:
    """The measured phase's host seconds: each step's median across passes,
    summed. A burst of contention on the host slows one step of one pass;
    the per-step median drops it where a median of pass totals would not."""
    return sum(
        statistics.median(p["cells"][cell] for p in untraced)
        for cell in untraced[0]["cells"]
    )


def end_to_end(passes: Dict[bool, List[Dict]]) -> Dict[str, float]:
    untraced = passes[False]
    return {
        "wall_s": median_wall_s(untraced),
        "setup_s": statistics.median(p["setup_s"] for p in untraced),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }


def per_layer(passes: Dict[bool, List[Dict]]) -> Dict[str, float]:
    untraced, traced = passes[False], passes[True]
    pick = _median_pass(traced)
    values: Dict[str, float] = dict(pick["layers"])
    values.update(pick["sim"])
    values["trace.wall_s"] = pick["wall_s"]
    values["trace.overhead_s"] = median_wall_s(traced) - median_wall_s(untraced)
    values["memory.sim_dram_accesses"] = values["memory.dram.calls"]
    if values["memory.dram.calls"]:
        values["memory.dram_us_per_access"] = (
            values["memory.dram_s"] / values["memory.dram.calls"] * 1e6
        )
    if values["cpu.sim_trace_accesses"]:
        values["cpu.us_per_trace_access"] = (
            values["cpu.replay_s"] / values["cpu.sim_trace_accesses"] * 1e6
        )
    for name in untraced[0]["host"]:
        values[name] = statistics.median(p["host"][name] for p in untraced)
    values["model.sha48"] = int(pick["model_sha"][:12], 16)
    return values


def report(workload: str, seed: int, passes: Dict[bool, List[Dict]], shas: set) -> None:
    """Human-readable lines ahead of the result."""
    print(f"workload {workload}  seed {seed}  "
          f"passes {len(passes[False])} untraced, {len(passes[True])} traced")
    for name, value in end_to_end(passes).items():
        samples = " ".join(f"{p[name]:.4f}" for p in passes[False])
        print(f"  {name:12s} {value:10.4f}   (per pass: {samples})")
    print(f"  model_sha    {' '.join(sorted(shas))}")
    sim = passes[False][0]["sim"]
    for name in ("kryo", "cereal"):
        key = f"spark.sim_sd_speedup.{name}"
        if key in sim:
            print(f"  {key} {sim[key]:.3f}x  vs Fig. 13 {sim[f'spark.paper_sd_speedup.{name}']}x"
                  f"  (rel err {sim[f'spark.sd_speedup_rel_err.{name}']:+.1%})")
    others = sorted(k for k in sim if ".sim_" in k and "sd_speedup" not in k)
    if others:
        print(f"  unvalidated (no reference result): {', '.join(others)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources under {ROOT}/src", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    try:
        passes = run_rounds(args.workload, args.seed, args.seconds, args.trace)
    except PassFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    every = passes[False] + passes[True]
    shas = {p["model_sha"] for p in every}
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    report(args.workload, args.seed, passes, shas)

    if args.trace:
        values, metrics = per_layer(passes), spec["per_layer"]
    else:
        values, metrics = end_to_end(passes), spec["end_to_end"]
    # A workload reports 0 for the layers and modelled statistics it does not exercise.
    result = {
        "correct": failed == 0 and len(shas) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
