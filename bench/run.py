"""Benchmark of whole netquery driver calls.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed is the workload's only input: workloads.py uses it as both the
port seed and the delivery-order seed.  Load comes from one process at a time, with no
threads.  With ``--trace 0`` this starts child processes one after another,
each of which repeats the set-up and then makes one timed driver call, until
``--seconds`` are used; medians over the children are reported, so no single
process's memory layout decides a figure.  ``setup_s`` and ``query_s`` are
scaled to a nominal host speed (hostspeed.py).  With ``--trace 1`` one child
makes the separate traced calls of layers.py, reported in raw seconds.

Every call's relation is checked against the centralized oracle outside the
timed region, and its simulated metrics against the first call's.  A failed
check or an engine error counts as a failed operation and the run exits 1.

The last stdout line reports the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``); the line before it records the seed, the
host and the samples.  ``--size tiny`` runs the same code on small networks.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from env import host, load_netquery

CHILD = Path(__file__).resolve().parent / "child.py"
# A run must end within 180 s; children share what is left of this.
RUN_TIMEOUT_S = 170

SIM_METRICS = (
    "dist_time",
    "max_msgs_per_node",
    "total_msgs",
    "max_msg_bits",
    "max_in_steps_per_round",
)

E2E_UNITS = {
    "setup_s": "s",
    "query_s": "s",
    "msgs_per_s": "msgs/s",
    "peak_rss_mb": "MB",
    "dist_time": "rounds",
    "max_msgs_per_node": "msgs",
    "total_msgs": "msgs",
    "max_msg_bits": "bits",
    "max_in_steps_per_round": "steps",
}


def parse_args(argv: Optional[list[str]], names: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def spawn(args: argparse.Namespace, mode: str, timeout: float) -> dict:
    """Run one child to completion; a crash becomes a failed call."""
    argv = [args.workload, str(args.seed), args.size, mode]
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *argv],
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"calls": [{"error": f"child timed out after {timeout:.0f} s"}]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"calls": [{"error": f"child failed: {tail[0]}"}]}
    return json.loads(proc.stdout.splitlines()[-1])


class Gate:
    """Counts operations and checks each one's output."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.sim: Optional[list[int]] = None

    def check(self, call: dict, expected: Optional[str]) -> bool:
        self.attempted += 1
        if "error" in call:
            self.failures.append(call["error"])
        elif call["digest"] != expected:
            self.failures.append("relation differs from the oracle's")
        elif self.sim is not None and call["sim"] != self.sim:
            self.failures.append("simulated metrics differ between calls")
        else:
            self.sim = call["sim"]
            return True
        return False


def main(argv: Optional[list[str]] = None) -> int:
    load_netquery()
    from workloads import WORKLOADS

    args = parse_args(argv, list(WORKLOADS))
    gate = Gate()
    children: list[dict] = []
    samples: list[float] = []
    raw_samples: list[float] = []
    start = time.perf_counter()
    mode = "trace" if args.trace else "timed"
    while True:
        t0 = time.perf_counter()
        child = spawn(args, mode, RUN_TIMEOUT_S - (t0 - start))
        children.append(child)
        for call in child["calls"]:
            if gate.check(call, child.get("expected")) and "seconds" in call:
                samples.append(call["seconds"])
                raw_samples.append(call["raw_seconds"])
        now = time.perf_counter()
        # Start another child only if it should end within the budget.
        if args.trace or (now - start) + (now - t0) > args.seconds:
            break

    setup_s = [s for c in children for s in c.get("setup_s", ())]
    metrics: dict[str, float] = {}
    if args.trace:
        if "layers" in children[0]:
            metrics.update(children[0]["spans"])
            metrics.update(children[0]["layers"])
            metrics["trace.setup_s"] = statistics.median(children[0]["raw_setup_s"])
        units = {name: _layer_unit(name) for name in metrics}
    else:
        if samples:
            query_s = statistics.median(samples)
            metrics = {
                "setup_s": statistics.median(setup_s),
                "query_s": query_s,
                "msgs_per_s": gate.sim[2] / query_s,
                # ru_maxrss of the largest child, in KiB on Linux.
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                **dict(zip(SIM_METRICS, gate.sim)),
            }
        units = E2E_UNITS

    failed = len(gate.failures)
    record = {
        "workload": args.workload,
        "size": args.size,
        "graph": children[0].get("graph"),
        "seed": args.seed,
        "port_seed": args.seed,
        "order_seed": args.seed,
        "trace": args.trace,
        "host": host(),
        "oracle_digest": children[0].get("oracle"),
        "children": len(children),
        "setup_reps": len(setup_s),
        "query_samples": samples,
        "raw_query_samples": raw_samples,
        "failures": gate.failures[:10],
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")) or name == "trace.coverage":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
