"""Benchmark of Celestial's epoch loop, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload starlink-hosts --seed 1 --seconds 20 --trace 0

Each run brings the workload's testbed up several times, connects the
load generator (a full subscriber and a querier, each in its own
interpreter) to the last one, runs the epoch loop for ``--seconds`` and
checks the outputs against independent computations; then it brings the
testbed up several more times.  The median of all bring-ups is ``setup_s``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``).  The line before it,
prefixed ``report:``, carries the operation counts and check results.
``--short`` is a quick smoke mode (one set-up, two seconds) for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time, process_time_ns

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SAMPLE_EVERY, child_env, require_source, snapshot_digest  # noqa: E402

#: Set-ups per run: at least SETUPS, more while they have taken less than
#: SETUP_BUDGET_S in all (cheap set-ups are noisier), at most SETUPS_MAX.
#: Half of them run before the timed loop and half after it, so that their
#: median samples the machine over the whole run, as the loop's metrics do.
SETUPS = 5
SETUP_BUDGET_S = 4.0
SETUPS_MAX = 40
#: How long to wait for a load-generator message before giving up [s].
LOADGEN_TIMEOUT_S = 60.0
#: How long to wait for the subscriber to apply an epoch [s].
APPLY_TIMEOUT_S = 10.0


def tail_mean(values) -> float:
    """Mean of the slowest tenth (at least one value).

    Steadier than the p90 point itself when a tenth or so of the epochs
    fall in a slower mode: the p90 then flips between the two modes from
    run to run, while the mean of the slowest tenth does not.
    """
    ordered = sorted(values)
    tail = ordered[-max(1, len(ordered) // 10) :]
    return sum(tail) / len(tail)


def median_ms(values_ns) -> float:
    return statistics.median(values_ns) / 1e6


class LoadGenerator:
    """One load-generator role in its own interpreter, spoken to in JSON lines."""

    def __init__(self, role: str):
        self.role = role
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "loadgen.py"), role],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=str(ROOT),
        )
        self._buffer = b""
        #: The last epoch the subscriber reported applied.
        self.applied = -1

    def tell(self, message: dict) -> None:
        self.process.stdin.write((json.dumps(message) + "\n").encode())
        self.process.stdin.flush()

    def hear(self, timeout_s: float = LOADGEN_TIMEOUT_S):
        """The next message, or ``None`` if none came within ``timeout_s``."""
        deadline = perf_counter() + timeout_s
        fd = self.process.stdout.fileno()
        while b"\n" not in self._buffer:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - perf_counter()))
            if not ready:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise RuntimeError(f"the {self.role} load generator has exited")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def answer(self) -> dict:
        """The next message that is not an "applied" report."""
        while True:
            message = self.hear()
            if message is None:
                raise RuntimeError(f"the {self.role} load generator did not answer")
            if "applied" not in message:
                return message
            self.applied = message["applied"]

    def wait_applied(self, epoch: int) -> bool:
        """Wait until the subscriber has applied ``epoch``; False on timeout."""
        deadline = perf_counter() + APPLY_TIMEOUT_S
        while self.applied < epoch:
            message = self.hear(max(0.0, deadline - perf_counter()))
            if message is None:
                return False
            self.applied = message["applied"]
        return True

    def close(self) -> None:
        process = self.process
        for stream in (process.stdin, process.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, setups: int):
        from bed import build_configuration, query_mix

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setups = setups
        self.config = build_configuration(workload, seed)
        self.pool, self.sequence = query_mix(self.config, workload, seed)
        self.setup_s: list[float] = []
        self.setup_wall_s: list[float] = []
        self.placement_ms: list[float] = []

    # -- set-up ------------------------------------------------------------------

    def set_up(self, count: int, budget_s: float, ledger, tracer):
        """Bring the testbed up ``count`` times, or more within ``budget_s``.

        Each bring-up's CPU time goes into ``setup_s`` and its wall-clock
        time into ``setup_wall_s``; the last testbed is returned, still up.
        """
        from bed import Bed

        bed = None
        spent_s = 0.0
        done = 0
        while done < count or (spent_s < budget_s and done < SETUPS_MAX // 2):
            if bed is not None:
                bed.close()
                bed = None
            gc.collect()
            ledger.reset()
            mark = len(tracer.spans) if tracer else 0
            started = perf_counter()
            cpu = process_time()
            bed = Bed(
                self.workload,
                self.config,
                on_publish=tracer.on_publish if tracer else None,
            )
            self.setup_s.append(process_time() - cpu)
            self.setup_wall_s.append(perf_counter() - started)
            spent_s += self.setup_wall_s[-1]
            done += 1
            if tracer:
                self.placement_ms.append(
                    sum(
                        span[3] - span[2]
                        for span in tracer.spans[mark:]
                        if span[0] == "placement.create"
                    )
                    / 1e6
                )
        return bed

    # -- the timed loop ----------------------------------------------------------

    def execute(self) -> dict:
        from checks import DeliveryLedger
        from tracing import Tracer

        tracer = Tracer() if self.trace else None
        ledger = DeliveryLedger()
        ledger.install()
        subscriber = LoadGenerator("subscriber")
        querier = LoadGenerator("querier")
        before_count = (self.setups + 1) // 2
        budget_s = SETUP_BUDGET_S / 2 if self.setups > 1 else 0.0
        bed = None
        try:
            subscriber.answer()
            querier.answer()
            if tracer:
                tracer.install(extra=[("netem.transmit", ledger, "call", True)])
            bed = self.set_up(before_count, budget_s, ledger, tracer)
            subscriber.tell({"port": bed.port})
            querier.tell(
                {
                    "port": bed.port,
                    "pool": self.pool,
                    "sequence": self.sequence,
                    "think_s": self.workload.think_s,
                }
            )
            subscriber.answer()
            querier.answer()
            self.bed = bed
            self.ledger = ledger
            self.subscriber = subscriber
            self._prepare_loop()
            querier.tell({"go": True})
            if tracer:
                tracer.uninstall()
                half = self.seconds / 2.0
                untraced = self._phase(half)
                before = self._counters()
                tracer.folded.clear()
                tracer.install(extra=[("netem.transmit", ledger, "call", True)])
                traced = self._phase(half)
                tracer.uninstall()
                after = self._counters()
            else:
                untraced = self._phase(self.seconds)
                traced = None
            last_epoch = bed.database.epoch
            subscriber.tell({"last_epoch": last_epoch})
            querier.tell({"stop": True})
            streamed = subscriber.answer()
            queried = querier.answer()
            gateway_stats = bed.gateway.statistics()
            result = self._evaluate(untraced, streamed, queried, gateway_stats)
            if tracer:
                result["metrics"] = self._layers(
                    tracer, untraced, traced, streamed, before, after
                )
                tracer.dump(
                    ROOT / ".perfbench" / f"trace-{self.workload.name}-{self.seed}.json"
                )
            bed.close()
            bed = None
            # The second half of the set-ups, untraced.
            after_count = self.setups - before_count
            if after_count > 0:
                self.set_up(after_count, budget_s, ledger, None).close()
            result["report"]["setup_s"] = self.setup_s
            result["report"]["wall"]["setup_s"] = statistics.median(self.setup_wall_s)
            if not tracer:
                result["metrics"]["setup_s"] = {
                    "value": statistics.median(self.setup_s),
                    "unit": "s",
                }
            return result
        finally:
            if tracer:
                tracer.uninstall()
            ledger.uninstall()
            if bed is not None:
                bed.close()
            subscriber.close()
            querier.close()

    def _prepare_loop(self) -> None:
        import numpy as np

        bed = self.bed
        testbed = bed.testbed
        database = bed.database
        coordinator = testbed.coordinator
        #: epoch → (wall start, wall end, CPU time of the process) [ns]
        self.update_ns: dict[int, tuple[int, int, int]] = {}
        update_ns = self.update_ns

        def timed_update(now_s):
            started = perf_counter_ns()
            cpu = process_time_ns()
            state = type(coordinator).update(coordinator, now_s)
            update_ns[database.epoch] = (started, perf_counter_ns(), process_time_ns() - cpu)
            return state

        coordinator.update = timed_update
        index = testbed.calculation.node_index
        names = self.config.ground_station_names
        self.station_nodes = np.array([index.ground_station(n) for n in names], dtype=np.int64)
        pool_nodes = []
        for token in self.pool:
            if "." in token:
                identifier, shell = token.split(".")
                pool_nodes.append(index.satellite(int(shell), int(identifier)))
            else:
                pool_nodes.append(index.ground_station(token))
        self.pool_nodes = np.array(pool_nodes, dtype=np.int64)
        self.sources = np.unique(np.concatenate([self.station_nodes, self.pool_nodes]))
        self.next_time = testbed.sim.now + self.config.update_interval_s
        self.digests: dict[int, str] = {}
        self.expected: dict[int, np.ndarray] = {}
        self.failed_epochs: set[int] = set()
        self.sink_floor_ms = float("inf")
        self.apply_timeouts = 0
        self.first_epoch = database.epoch + 1

    def _phase(self, seconds: float) -> dict:
        """Run epochs for ``seconds`` of wall-clock time; returns the phase record.

        Epochs run back to back, one in flight: after each, the loop waits
        until the subscriber has applied it, then checks it, and only then
        starts the next.  The checks thus never overlap the epoch loop's
        timings or a delivery, and the loop's rhythm does not depend on how
        fast the program is.
        """
        bed = self.bed
        sim = bed.testbed.sim
        database = bed.database
        first_epoch = database.epoch + 1
        sim_start = sim.now
        events_start = sim.processed_events
        epoch_busy_ns = []  # CPU time of the process per epoch
        epoch_wall_ns = []
        started = perf_counter()
        while perf_counter() - started < seconds:
            begin = perf_counter_ns()
            cpu = process_time_ns()
            sim.run(until=self.next_time)
            epoch_busy_ns.append(process_time_ns() - cpu)
            epoch_wall_ns.append(perf_counter_ns() - begin)
            self.next_time += self.config.update_interval_s
            epoch = database.epoch
            if not self.subscriber.wait_applied(epoch):
                self.apply_timeouts += 1
                self.failed_epochs.add(epoch)
            self._check_epoch(database.state, epoch)
        return {
            "start_ns": int(started * 1e9),
            "epochs": range(first_epoch, database.epoch + 1),
            "sim_s": sim.now - sim_start,
            "busy_s": sum(epoch_busy_ns) / 1e9,
            "busy_wall_s": sum(epoch_wall_ns) / 1e9,
            "sim_speed": self._windowed_speed(epoch_busy_ns),
            "sim_speed_wall": self._windowed_speed(epoch_wall_ns),
            "events": sim.processed_events - events_start,
        }

    def _windowed_speed(self, epoch_busy_ns: list[int]) -> float:
        """Median simulated seconds per busy second over whole windows.

        A window spans the least whole number of epochs that also holds a
        whole number of usage sweeps, so every window does the same mix of
        work; the median over windows is robust to bursts of noise from
        other tenants of the machine.
        """
        interval = self.config.update_interval_s
        sweep = self.bed.testbed.usage_sample_interval_s
        epochs = 1
        while abs(round(epochs * interval / sweep) * sweep - epochs * interval) > 1e-9:
            epochs += 1
        windows = [
            epochs * interval / (sum(epoch_busy_ns[i : i + epochs]) / 1e9)
            for i in range(0, len(epoch_busy_ns) - epochs + 1, epochs)
        ]
        if not windows:  # a run too short for one whole window
            return len(epoch_busy_ns) * interval / (sum(epoch_busy_ns) / 1e9)
        return statistics.median(windows)

    def _check_epoch(self, state, epoch: int) -> None:
        from checks import (
            conservation_ok,
            dijkstra_rows,
            ground_station_rows_ok,
            link_floor_ok,
            sink_latency_floor_ms,
        )
        from repro.serve.codec import EpochSnapshot

        self.digests[epoch] = snapshot_digest(EpochSnapshot.from_state(state, epoch))
        ok = link_floor_ok(state)
        ok &= conservation_ok(
            self.bed.testbed.network_statistics(), self.ledger, self.bed.testbed.sim.now
        )
        if epoch % SAMPLE_EVERY in (0, SAMPLE_EVERY - 1, SAMPLE_EVERY - 2):
            rows = dijkstra_rows(state, self.sources)
            position = {int(node): row for row, node in enumerate(self.sources)}
            pool_rows = rows[[position[int(node)] for node in self.pool_nodes]]
            self.expected[epoch] = pool_rows[:, self.pool_nodes]
            if epoch % SAMPLE_EVERY == 0:
                station_rows = rows[[position[int(node)] for node in self.station_nodes]]
                ok &= ground_station_rows_ok(state, station_rows, self.station_nodes)
        if self.workload.app == "dart":
            # Every epoch, so that even a short run has a floor to check.
            nominal = self.bed.app.lstm.inference_nominal_seconds()
            self.sink_floor_ms = min(self.sink_floor_ms, sink_latency_floor_ms(state, nominal))
        if not ok:
            self.failed_epochs.add(epoch)

    # -- evaluation --------------------------------------------------------------

    def _evaluate(self, phase: dict, streamed: dict, queried: dict, gateway_stats: dict) -> dict:
        import numpy as np

        testbed = self.bed.testbed
        timed = range(self.first_epoch, self.bed.database.epoch + 1)
        records = {record[0]: record for record in streamed["records"]}
        failed_epochs = set(self.failed_epochs)
        digest_mismatches = 0
        for epoch, record in records.items():
            if epoch in self.digests and record[5] != self.digests[epoch]:
                failed_epochs.add(epoch)
                digest_mismatches += 1
        missed = sum(1 for epoch in timed if epoch not in records)
        # Queries: an answer labelled epoch k may come from an earlier state.
        # The gateway reads the epoch label after the lookup, outside the
        # database lock (a fault of the program; see CHANGES.md), so an answer
        # that matches one of the two epochs before k is counted apart as
        # mislabelled.  It is not failed: the race hits some runs and not
        # others, and the failed share of a run must not vary.
        query_failures = 0
        checked_answers = 0
        mislabelled = 0

        def matches(want: float, got) -> bool:
            if got is None:
                return bool(np.isinf(want))
            return bool(np.isfinite(want)) and abs(want - got) <= 1e-9 * max(1.0, want)

        for epoch, source, destination, delay in queried["answers"]:
            candidates = [
                self.expected[e][source, destination]
                for e in (epoch, epoch - 1, epoch - 2)
                if e in self.expected
            ]
            if len(candidates) < 3:
                continue
            checked_answers += 1
            if matches(candidates[0], delay):
                continue
            if any(matches(want, delay) for want in candidates[1:]):
                mislabelled += 1
            else:
                query_failures += 1
        attempted = len(timed) + queried["attempted"]
        failed = len(failed_epochs) + query_failures + queried["errors"]
        report = {
            "workload": self.workload.name,
            "seed": self.seed,
            "epochs": len(timed),
            "epochs_failed": len(failed_epochs),
            "replica_mismatches": digest_mismatches,
            "subscriber_missed": missed,
            "subscriber_resyncs": streamed["resyncs"],
            "gateway_evictions": gateway_stats["evictions"],
            "queries": queried["attempted"],
            "query_errors": queried["errors"],
            "query_answers_checked": checked_answers,
            "query_answers_wrong": query_failures,
            "query_answers_mislabelled": mislabelled,
            "subscriber_apply_timeouts": self.apply_timeouts,
            "network": testbed.network_statistics(),
        }
        if self.workload.hosts is not None and self.config.bounding_box is None:
            placed = testbed.booted_machines()
            want = self.config.total_satellites + len(self.config.ground_station_names)
            report["placed_machines"] = placed
            if placed != want:
                failed += 1
        if self.workload.app == "dart":
            latencies = [
                sample.latency_ms
                for series in self.bed.app.results.sink_latencies.values()
                for sample in series.samples
            ]
            below = sum(1 for value in latencies if value < self.sink_floor_ms)
            attempted += len(latencies)
            failed += below
            report["sink_results"] = len(latencies)
            report["sink_floor_ms"] = self.sink_floor_ms
            report["sink_min_ms"] = min(latencies) if latencies else None
        updates = [
            cpu for epoch, (_, _, cpu) in self.update_ns.items() if epoch in phase["epochs"]
        ]
        updates_wall = [
            end - start
            for epoch, (start, end, _) in self.update_ns.items()
            if epoch in phase["epochs"]
        ]
        delivered = [
            records[epoch][3] - self.update_ns[epoch][0]
            for epoch in phase["epochs"]
            if epoch in records and epoch in self.update_ns
        ]
        streamed_bytes = [records[epoch][1] for epoch in phase["epochs"] if epoch in records]
        metrics = {
            "sim_speed": (phase["sim_speed"], "sim-s/s"),
            "update_ms": (median_ms(updates), "ms"),
            "update_tail_ms": (tail_mean(updates) / 1e6, "ms"),
            "stream_kb": (sum(streamed_bytes) / len(streamed_bytes) / 1000.0, "KB/epoch"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        report["samples"] = {"update": len(updates), "deliver": len(delivered)}
        # Too unsteady between runs to gate on; kept as reference figures.
        report["deliver_ms"] = median_ms(delivered)
        report["deliver_tail_ms"] = tail_mean(delivered) / 1e6
        report["query_ms"] = queried.get("median_ms")
        report["query_p90_ms"] = queried.get("p90_ms")
        report["wall"] = {
            "update_ms": median_ms(updates_wall),
            "update_tail_ms": tail_mean(updates_wall) / 1e6,
            "sim_speed": phase["sim_speed_wall"],
        }
        self.phase_update_ms = metrics["update_ms"][0]
        self.phase_sim_speed = metrics["sim_speed"][0]
        return {
            "report": report,
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }

    def _counters(self) -> dict:
        return {
            "gateway": self.bed.gateway.statistics(),
            "paths": self.bed.testbed.path_engine_statistics(),
        }

    def _layers(self, tracer, untraced, traced, streamed, before, after) -> dict:
        """The per-layer metrics of the traced phase, plus the tracing overhead."""
        from tracing import covered_ns

        spans = tracer.spans
        self_ns = tracer.self_times()
        start = traced["start_ns"]
        roots: dict[int, int] = {}  # span → its outermost ancestor

        def root_of(index: int) -> int:
            parent = spans[index][5]
            if parent is None:
                return index
            if index not in roots:
                roots[index] = root_of(parent)
            return roots[index]

        per_root: dict[int, dict] = {}
        intervals: dict[int, list] = {}  # root → its fan-out pool spans
        for index, span in enumerate(spans):
            if span[2] < start or span[3] == 0:
                continue
            totals = per_root.setdefault(root_of(index), {})
            name = span[0]
            dur, own = totals.get(name, (0, 0))
            totals[name] = (dur + span[3] - span[2], own + self_ns[index])
            if span[1] == "pool":
                intervals.setdefault(root_of(index), []).append((span[2], span[3]))

        def per_epoch(root_name: str, name: str, use_self: bool) -> list[float]:
            return [
                totals.get(name, (0, 0))[1 if use_self else 0] / 1e6
                for root, totals in per_root.items()
                if spans[root][0] == root_name
            ]

        def median_of(values) -> float:
            return statistics.median(values) if values else 0.0

        def pool_wall_ms(root_name: str) -> list[float]:
            """Wall time the fan-out pool worked under each root span."""
            return [
                covered_ns(intervals.get(root, ())) / 1e6
                for root in per_root
                if spans[root][0] == root_name
            ]

        updates = [
            (spans[root][3] - spans[root][2], totals["coordinator.update"][1])
            for root, totals in per_root.items()
            if spans[root][0] == "coordinator.update"
        ]
        folded = tracer.folded

        def folded_us(name: str, kind: str = "main") -> float:
            record = folded.get(name)
            samples = record.samples.get(kind) if record else None
            return statistics.median(samples) / 1e3 if samples else 0.0

        def folded_rate(name: str) -> float:
            record = folded.get(name)
            calls = sum(len(s) for s in record.samples.values()) if record else 0
            return calls / traced["sim_s"]

        encode = [
            (span[3] - span[2]) / 1e6
            for span in spans
            if span[0] == "codec.encode" and span[2] >= start and span[3]
        ]
        records = {record[0]: record for record in streamed["records"]}
        fanout = [
            (records[epoch][2] - tracer.publish_ns[epoch]) / 1e6
            for epoch in traced["epochs"]
            if epoch in records and epoch in tracer.publish_ns
        ]
        client_apply = [records[e][4] / 1e6 for e in traced["epochs"] if e in records]
        gateway_before, gateway_after = before["gateway"], after["gateway"]
        queries = gateway_after["queries"] - gateway_before["queries"]
        misses = gateway_after["cache_misses"] - gateway_before["cache_misses"]
        regimes_before = before["paths"]["regimes"]
        regimes_after = after["paths"]["regimes"]
        epochs = len(traced["epochs"])
        cold = sum(
            regimes_after.get(r, 0) - regimes_before.get(r, 0) for r in ("bypass", "cold")
        )
        kernel_rows = (
            after["paths"]["totals"].get("rows_kernel", 0)
            - before["paths"]["totals"].get("rows_kernel", 0)
        )
        root_ns = sum(
            span[3] - span[2]
            for span in spans
            if span[5] is None and span[1] == "main" and span[2] >= start and span[3]
        ) + sum(record.root_ns for record in folded.values())
        update_total = sum(total for total, _ in updates)
        traced_updates = [
            cpu / 1e6
            for epoch, (_, _, cpu) in self.update_ns.items()
            if epoch in traced["epochs"]
        ]
        traced_speed = traced["sim_speed"]
        metrics = {
            "constellation.diff_ms": (median_of(per_epoch("coordinator.update", "constellation.diff", True)), "ms"),
            "paths.advance_ms": (median_of(per_epoch("coordinator.update", "paths.advance", False)), "ms"),
            "paths.cold_epoch_share": (100.0 * cold / epochs, "%"),
            "paths.kernel_rows": (kernel_rows / epochs, "rows/epoch"),
            "coordinator.shard_ms": (median_of([own / 1e6 for _, own in updates]), "ms"),
            "hosts.apply_ms": (median_of(pool_wall_ms("coordinator.update")), "ms"),
            "hosts.sample_ms": (median_of(pool_wall_ms("hosts.sweep")), "ms"),
            "placement.create_ms": (median_of(self.placement_ms), "ms"),
            "database.publish_ms": (median_of(per_epoch("coordinator.update", "database.publish", False)), "ms"),
            "codec.encode_ms": (median_of(encode), "ms"),
            "gateway.fanout_ms": (median_of(fanout), "ms"),
            "client.apply_ms": (median_of(client_apply), "ms"),
            "query.server_ms": (folded_us("query.path", "gateway") / 1e3, "ms"),
            "paths.cache_hit_ratio": (100.0 * (queries - misses) / queries if queries else 0.0, "%"),
            "sim.events_per_s": (untraced["events"] / untraced["busy_s"], "1/s"),
            "net.send_us": (folded_us("net.send"), "us"),
            "net.sends": (folded_rate("net.send"), "1/sim-s"),
            "netem.transmit_us": (folded_us("netem.transmit"), "us"),
            "netem.transmits": (folded_rate("netem.transmit"), "1/sim-s"),
            "database.pair_rule_us": (folded_us("database.pair_rule"), "us"),
            "database.pair_rules": (folded_rate("database.pair_rule"), "1/sim-s"),
            "trace.update_share": (
                100.0 * (update_total - sum(own for _, own in updates)) / update_total
                if update_total
                else 0.0,
                "%",
            ),
            "trace.run_share": (100.0 * root_ns / (traced["busy_wall_s"] * 1e9), "%"),
            "trace.update_ms": (median_of(traced_updates), "ms"),
            "trace.sim_speed": (traced_speed, "sim-s/s"),
            "trace.overhead_update_pct": (
                100.0 * (median_of(traced_updates) / self.phase_update_ms - 1.0), "%"
            ),
            "trace.overhead_sim_speed_pct": (
                100.0 * (1.0 - traced_speed / self.phase_sim_speed), "%"
            ),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="one set-up, two seconds")
    args = parser.parse_args(argv)
    require_source()
    from bed import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    seconds = min(args.seconds, 2.0) if args.short else args.seconds
    run = Run(
        WORKLOADS[args.workload],
        args.seed,
        seconds,
        bool(args.trace),
        setups=1 if args.short else SETUPS,
    )
    result = run.execute()
    print("report: " + json.dumps(result.pop("report")), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
