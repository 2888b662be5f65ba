"""Locating the netquery sources and describing the host.

The benchmark runs the package from ``src/`` of the checkout it sits in,
never from an installed copy, so a checkout without sources fails loudly.
"""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "netquery"


def load_netquery() -> None:
    """Put ``src/`` first on the import path and check that ``netquery``
    resolves there; exit with status 2 otherwise."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import netquery
    except ImportError as err:
        sys.exit(f"bench: cannot import netquery from {ROOT / 'src'}: {err}")
    if Path(netquery.__file__).resolve().parent != PACKAGE_DIR:
        sys.exit(f"bench: netquery resolved to {netquery.__file__}, not {PACKAGE_DIR}")


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git (which
    would search directories above the checkout); None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def host() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "git_commit": git_commit(),
    }
