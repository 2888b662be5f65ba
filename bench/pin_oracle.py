"""Recompute the oracle digests of the full-size workloads.

    python3 bench/pin_oracle.py

The centralized oracle reads only the graph and the query, never the port
or delivery-order seed, so one digest per workload serves every seed.  The
slowest, ``eval_fp_loc`` on ring_graph(512), takes about half a minute,
which is why child.py reads the digests from oracle_pins.json instead of
evaluating the oracle in every run.
"""
from __future__ import annotations

import json
import time

from env import load_netquery


def main() -> None:
    load_netquery()
    from child import PINS
    from workloads import WORKLOADS, Spans, digest

    pins = {}
    for w in WORKLOADS.values():
        prepared = w.setup(w.sizes["full"], 0, Spans())
        t0 = time.perf_counter()
        pins[f"{w.name}/{prepared.graph}"] = digest(prepared.oracle())
        print(f"{w.name}: oracle took {time.perf_counter() - t0:.1f} s")
    PINS.write_text(json.dumps(pins, indent=2) + "\n")


if __name__ == "__main__":
    main()
