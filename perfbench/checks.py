"""Correctness checks made apart from the program.

Each check recomputes a property from the epoch's published graph arrays
(SciPy's Dijkstra, the speed of light, counts the benchmark made itself)
rather than comparing with stored copies of earlier output.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

#: The speed of light in vacuum [km/ms].
C_KM_PER_MS = 299_792.458 / 1000.0
#: Delays are snapped to a sub-nanosecond grid, so a link may read up to
#: half a grid step below distance / c; one nanosecond bounds that.
FLOOR_TOLERANCE_MS = 1e-6


def dijkstra_rows(state, sources: np.ndarray) -> np.ndarray:
    """One-way delays [ms] from ``sources`` over the epoch's published links."""
    graph = state.graph
    count = len(graph.index)
    matrix = coo_matrix(
        (graph.delays_ms, (graph.node_a, graph.node_b)), shape=(count, count)
    ).tocsr()
    return dijkstra(matrix, directed=False, indices=sources)


def rows_match(expected: np.ndarray, actual: np.ndarray) -> bool:
    """Equal within float tolerance, with unreachable (inf) in the same places."""
    finite = np.isfinite(expected)
    if not np.array_equal(finite, np.isfinite(actual)):
        return False
    return bool(np.allclose(actual[finite], expected[finite], rtol=1e-9, atol=1e-9))


def link_floor_ok(state) -> bool:
    """Every link's delay is at least its length divided by c."""
    graph = state.graph
    floor = graph.distances_km / C_KM_PER_MS
    return bool(np.all(graph.delays_ms >= floor - FLOOR_TOLERANCE_MS))


def ground_station_rows_ok(state, expected_rows: np.ndarray, station_nodes) -> bool:
    """The engine's ground-station delay rows equal an independent Dijkstra."""
    return all(
        rows_match(expected_rows[row], state.paths.delays_from(int(node)))
        for row, node in enumerate(station_nodes)
    )


class DeliveryLedger:
    """Counts every copy the emulated links put in flight, by arrival time.

    Installed around :meth:`EmulatedLink.transmit`; with it the benchmark
    checks that messages are conserved: sent + extra copies = delivered +
    dropped + in flight, where "in flight" is counted here, from the
    delivery times the links returned, not from the network's counters.
    """

    def __init__(self):
        self._pending: list[float] = []
        self.extra_copies = 0
        self._original = None
        #: The wrapped ``transmit``; a tracer may wrap this attribute in turn.
        self.call = None

    def install(self) -> None:
        from repro.netem.link import EmulatedLink

        ledger = self
        self._original = self.call = EmulatedLink.transmit

        def transmit(link, size_bytes, now_s):
            deliveries = ledger.call(link, size_bytes, now_s)
            ledger.record(now_s, deliveries)
            return deliveries

        EmulatedLink.transmit = transmit

    def uninstall(self) -> None:
        from repro.netem.link import EmulatedLink

        if self._original is not None:
            EmulatedLink.transmit = self._original
            self._original = None

    def reset(self) -> None:
        self._pending.clear()
        self.extra_copies = 0

    def record(self, now_s: float, deliveries) -> None:
        for delivery in deliveries:
            # The instant the simulation schedules the delivery for.
            heapq.heappush(
                self._pending, now_s + max(0.0, delivery.arrival_time_s - now_s)
            )
        if len(deliveries) > 1:
            self.extra_copies += len(deliveries) - 1

    def in_flight(self, now_s: float) -> int:
        pending = self._pending
        while pending and pending[0] <= now_s:
            heapq.heappop(pending)
        return len(pending)


def conservation_ok(statistics: dict, ledger: DeliveryLedger, now_s: float) -> bool:
    """sent + extra copies = delivered + dropped + in flight."""
    return statistics["sent"] + ledger.extra_copies == (
        statistics["delivered"] + statistics["dropped"] + ledger.in_flight(now_s)
    )


def sink_latency_floor_ms(state, nominal_processing_s: float) -> float:
    """The least latency a DART result can have, from the geometry alone.

    A reading goes up from a buoy to the satellite that runs inference and
    the result comes down to a sink: at least two links, each no shorter
    than the gap between the lowest satellite and the highest ground
    station, at c, plus the nominal inference time.
    """
    lowest_orbit = min(
        float(np.min(np.linalg.norm(positions, axis=1)))
        for positions in state.satellite_positions_ecef.values()
    )
    highest_station = max(
        float(np.linalg.norm(position)) for position in state.ground_positions_ecef.values()
    )
    return 2.0 * (lowest_orbit - highest_station) / C_KM_PER_MS + nominal_processing_s * 1000.0
