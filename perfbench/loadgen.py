"""Load-generator processes of the benchmark: a full subscriber and a querier.

Each role runs in its own interpreter, started by ``run.py`` with the
program source on ``PYTHONPATH``, and talks to the benchmark process over
JSON lines on stdin/stdout::

    python3 perfbench/loadgen.py subscriber
    python3 perfbench/loadgen.py querier

The subscriber keeps an :class:`~repro.serve.codec.EpochReplica` of the
full stream and records, per epoch, when its last byte was read and when
the replica had applied it, plus a digest of the replica's snapshot for
the equality check.  It tells the benchmark each epoch it has applied.
The querier is a closed loop over a seeded mix of path queries, with an
optional think time between queries.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SAMPLE_EVERY, send, snapshot_digest  # noqa: E402


def _commands(state: dict, stop_key: str) -> threading.Thread:
    """Read later commands from stdin into ``state`` on a daemon thread."""

    def _read():
        for line in sys.stdin:
            state.update(json.loads(line))
        state.setdefault(stop_key, True)  # stdin closed: the parent is gone

    thread = threading.Thread(target=_read, daemon=True)
    thread.start()
    return thread


def run_subscriber() -> None:
    from repro.serve.client import SubscriptionClient
    from repro.dist.wire import FrameKind

    send(sys.stdout, {"ready": True})
    setup = json.loads(sys.stdin.readline())
    client = SubscriptionClient(
        "127.0.0.1", setup["port"], client_id="bench-subscriber", timeout_s=60.0
    )
    first = client.recv_update()
    send(sys.stdout, {"subscribed": first.epoch})
    state: dict = {}
    _commands(state, "last_epoch")
    records = []
    resyncs = 0
    missed = 0
    try:
        while True:
            last = state.get("last_epoch")
            if last is True or (last is not None and client.replica.epoch >= last):
                break
            # Poll, so that a "last_epoch" arriving after the replica has
            # already caught up ends the loop.
            if not client.transport.poll(0.05):
                continue
            update = client.recv_update(apply=False)
            received = time.perf_counter_ns()
            previous = client.replica.epoch
            client.replica.apply(update)
            applied = time.perf_counter_ns()
            if update.kind is FrameKind.KEYFRAME:
                resyncs += 1
                missed += max(0, update.epoch - previous - 1)
            records.append(
                [
                    update.epoch,
                    len(update.data),
                    received,
                    applied,
                    applied - received,
                    snapshot_digest(client.replica.snapshot()),
                ]
            )
            # The benchmark waits for this before it checks the epoch and
            # starts the next one.
            send(sys.stdout, {"applied": update.epoch})
    finally:
        client.close()
    send(
        sys.stdout,
        {"records": records, "resyncs": resyncs, "missed": missed},
    )


def run_querier() -> None:
    from repro.serve.client import SubscriptionClient

    send(sys.stdout, {"ready": True})
    setup = json.loads(sys.stdin.readline())
    pool = setup["pool"]
    sequence = setup["sequence"]
    think_s = setup["think_s"]
    # Unscoped: a bounding-box scope would make the gateway test every
    # touched satellite against the box in Python on each epoch, a cost of
    # its own that would swamp the queries being measured.
    client = SubscriptionClient(
        "127.0.0.1", setup["port"], client_id="bench-querier", timeout_s=60.0
    )
    send(sys.stdout, {"subscribed": True})
    sys.stdin.readline()  # "go": the timed loop starts
    state: dict = {}
    _commands(state, "stop")
    latencies: list[float] = []
    answers = []
    errors = 0
    position = 0
    try:
        while not state.get("stop"):
            pair = sequence[position % len(sequence)]
            position += 1
            source, destination = pool[pair[0]], pool[pair[1]]
            started = time.perf_counter_ns()
            result = client.query(source, destination)
            latencies.append((time.perf_counter_ns() - started) / 1e6)
            if "error" in result:
                errors += 1
            elif result["epoch"] % SAMPLE_EVERY == 0:
                answers.append([result["epoch"], pair[0], pair[1], result["delay_ms"]])
            # The stream updates buffered while waiting for replies are
            # not the querier's concern; drop them so memory stays flat.
            client._updates.clear()
            if think_s:
                time.sleep(think_s)
    finally:
        client.close()
    latencies.sort()
    summary = {}
    if latencies:
        summary = {
            "median_ms": statistics.median(latencies),
            "p90_ms": statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0],
        }
    send(
        sys.stdout,
        {"attempted": len(latencies), "errors": errors, "answers": answers, **summary},
    )


if __name__ == "__main__":
    role = sys.argv[1] if len(sys.argv) > 1 else ""
    if role == "subscriber":
        run_subscriber()
    elif role == "querier":
        run_querier()
    else:
        sys.exit(f"usage: {sys.argv[0]} subscriber|querier")
