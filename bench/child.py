"""One benchmark process: set up a workload, then run driver calls in it.

    python3 bench/child.py WORKLOAD SEED SIZE timed|trace

run.py starts these one after another, so every timed call runs in a fresh
process and ``peak_rss_mb`` is the workload's alone.  The last stdout line
is a JSON object: the set-up samples, the oracle digest each call must
match, and one entry per call with its seconds, relation digest and
simulated metrics (or the error it raised).  Set-up and the first call run
under host-speed probes, and their seconds are reported both raw and scaled
(hostspeed.py).  ``timed`` makes that one call; ``trace`` adds a profiled
and a counted call (layers.py).
"""
from __future__ import annotations

import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

from env import load_netquery
from hostspeed import HostSpeed, scale

PINS = Path(__file__).resolve().parent / "oracle_pins.json"

# Set-up is repeated at least this often, and until this much time passed.
SETUP_MIN_REPS = 2
SETUP_MIN_SECONDS = 0.2
SETUP_MAX_REPS = 1000


def expected_digest(name: str, prepared, digest) -> tuple[str, str]:
    """The oracle's digest: pinned for the full-size networks (the oracle
    reads no seed), computed otherwise."""
    pins = json.loads(PINS.read_text())
    key = f"{name}/{prepared.graph}"
    if key in pins:
        return pins[key], "pinned"
    return digest(prepared.oracle()), "computed"


def main(argv: list[str]) -> dict:
    load_netquery()
    import layers
    from netquery.engine_fo import EngineError
    from netquery.netlog import NonterminationError
    from netquery.simnet import RoundCapError
    from workloads import SETUP_SPANS, WORKLOADS, Spans, digest

    name, seed, size, mode = argv[0], int(argv[1]), argv[2], argv[3]
    workload = WORKLOADS[name]
    param = workload.sizes[size]

    speed = HostSpeed()
    raw_setup: list[float] = []
    spans: dict[str, list[float]] = {s: [] for s in SETUP_SPANS}
    prepared = None
    t_setup = time.perf_counter()
    with speed.sampling() as setup_probes:
        while len(raw_setup) < SETUP_MIN_REPS or (
            time.perf_counter() - t_setup < SETUP_MIN_SECONDS
            and len(raw_setup) < SETUP_MAX_REPS
        ):
            span = Spans()
            prepared = None  # drop the previous network before building the next
            gc.collect()
            prepared, seconds = speed.timed(lambda: workload.setup(param, seed, span))
            raw_setup.append(seconds)
            for s, value in span.seconds.items():
                spans[s].append(value / seconds)
    expected, source = expected_digest(name, prepared, digest)

    def operation(run: Callable[[], tuple[tuple[frozenset, Any], Any]]) -> tuple[dict, Any]:
        try:
            (tuples, m), extra = run()
        except (EngineError, RoundCapError, NonterminationError) as err:
            return {"error": f"{type(err).__name__}: {err}"}, None
        sim = [m.dist_time, m.max_msgs_per_node, m.total_msgs, m.max_msg_bits,
               m.max_in_steps_per_round]
        return {"digest": digest(tuples), "sim": sim}, extra

    out: dict[str, Any] = {
        "graph": prepared.graph,
        "expected": expected,
        "oracle": source,
        "raw_setup_s": raw_setup,
        "setup_s": [scale(x, setup_probes) for x in raw_setup],
        "spans": {f"{s}_share": statistics.median(v) for s, v in spans.items()},
    }
    gc.collect()
    with speed.sampling() as probes:
        first, raw_s = operation(lambda: speed.timed(prepared.call))
    if raw_s is not None:
        first["raw_seconds"] = raw_s
        first["seconds"] = scale(raw_s, probes)
    if mode == "timed":
        out["calls"] = [first]
        return out

    untraced, untraced_s = first, raw_s
    gc.collect()
    profiled, prof = operation(lambda: _profiled(layers, prepared.call))
    gc.collect()
    counted, counts = operation(lambda: layers.count_call(prepared.call))
    out["calls"] = [untraced, profiled, counted]
    if untraced_s is None or prof is None or counts is None:
        return out
    traced_s, stats = prof
    self_s = layers.self_time_by_module(stats)
    lay = {f"{mod}.self_share": self_s.get(mod, 0.0) / traced_s for mod in layers.MODULES}
    lay.update(counts)
    lay.update(layers.call_counts(stats))
    lay["trace.untraced_query_s"] = untraced_s
    lay["trace.query_s"] = traced_s
    lay["trace.overhead_ratio"] = traced_s / untraced_s
    lay["trace.coverage"] = sum(self_s.values()) / traced_s
    out["layers"] = lay
    return out


def _profiled(layers, call):
    result, wall, stats = layers.profile_call(call)
    return result, (wall, stats)


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
