"""Scaling host seconds to a nominal host speed.

On a shared 2-core host (the one baseline.json was measured on) pure-Python
code runs at one of two speeds about 1.8x apart, switching several times a
second, and the share of slow time drifts over minutes.  Raw seconds of the
same driver call then differ by 15 to 30 % between runs, whatever the run
length.

To cancel that, a fixed reference computation is timed every 50 ms while the
measured code runs, from a SIGALRM handler in the same thread, so the
reference sees the same host speed as the code around it.  Probe time is
subtracted from the measured seconds, and the result is scaled by
``NOMINAL_REF_S`` over the mean probe time: seconds on a host where the
reference takes ``NOMINAL_REF_S``.  The reference uses no netquery code, so
a change to netquery moves scaled seconds as it moves raw ones.
"""
from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# The reference's time on the quiet host (the fast speed state).
NOMINAL_REF_S = 0.00075
PROBE_INTERVAL_S = 0.05


def _tree(depth: int) -> tuple:
    return ("x", depth) if depth < 2 else ("&", _tree(depth - 1), _tree(depth - 2))


def _text(t: tuple) -> str:
    if t[0] == "x":
        return f"x{t[1]}"
    return "(" + _text(t[1]) + " & " + _text(t[2]) + ")"


def reference() -> int:
    """Build and print formula-like trees, the kind of work netquery's
    printers and parsers do."""
    seen = set()
    for _ in range(3):
        seen.add(frozenset(_text(_tree(13)).split(" & ")[:50]))
    return len(seen)


class HostSpeed:
    """Probes the host speed while code runs and scales its seconds."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.probe_seconds = 0.0

    def probe(self, *_signal_args: Any) -> None:
        t0 = time.perf_counter()
        reference()
        dt = time.perf_counter() - t0
        self.probes.append(dt)
        self.probe_seconds += dt

    @contextmanager
    def sampling(self) -> Iterator[list[float]]:
        """Probe once, then every PROBE_INTERVAL_S, then once more; yields
        the list that receives this window's probe times."""
        start = len(self.probes)
        window: list[float] = []
        previous = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield window
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()
            window.extend(self.probes[start:])

    def timed(self, call: Callable[[], Any]) -> tuple[Any, float]:
        """Run ``call``; return its result and its seconds without probes."""
        before = self.probe_seconds
        t0 = time.perf_counter()
        out = call()
        return out, time.perf_counter() - t0 - (self.probe_seconds - before)


def scale(seconds: float, probes: list[float]) -> float:
    return seconds * NOMINAL_REF_S / statistics.mean(probes)
