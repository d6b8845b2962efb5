"""Helpers shared by the benchmark process and its load-generator processes."""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

#: The repository root: the benchmark runs from a checkout of the repo.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Sampled epochs (database epoch numbers divisible by this) get the
#: independent shortest-path and query-answer checks.
SAMPLE_EVERY = 10


def require_source() -> None:
    """Exit with an error when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: the program source on the path."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def snapshot_digest(snapshot) -> str:
    """A digest of an :class:`EpochSnapshot` that equals iff ``same_bits`` holds."""
    digest = hashlib.sha1()
    digest.update(repr((snapshot.epoch, snapshot.time_s, snapshot.node_count)).encode())
    arrays = [
        snapshot.node_a,
        snapshot.node_b,
        snapshot.delay_ms,
        snapshot.bandwidth_kbps,
        snapshot.link_type,
    ]
    for shell in sorted(snapshot.active):
        digest.update(repr(shell).encode())
        arrays.append(snapshot.active[shell])
    for array in arrays:
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def send(stream, message: dict) -> None:
    """Write one JSON line to a pipe and flush it."""
    stream.write(json.dumps(message) + "\n")
    stream.flush()
