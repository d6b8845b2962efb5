"""The benchmark's workloads and the testbed each one brings up.

Every workload builds its configuration from a registered scenario and runs
it through the production objects: ``Configuration`` → ``Celestial`` →
``Coordinator.update`` (the path ``repro-celestial run`` takes), with a
``GatewayServer`` attached.  ``--seed`` seeds the testbed's random
streams and draws the query mix.  The constellation's start instant and the
scenarios' station lists are fixed, so every seed runs the same orbits and
the spread between runs is the machine's, not the geometry's.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from datetime import datetime
from typing import Optional

import numpy as np

from repro.apps import DartExperiment
from repro.core.testbed import Celestial
from repro.experiments import registry
from repro.orbits import Epoch
from repro.serve.client import SubscriptionClient
from repro.serve.gateway import GatewayServer


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    scenario: str
    params: tuple
    #: Host count override (``None`` keeps the scenario's).
    hosts: Optional[int]
    #: ``"dart"`` runs the §5 DART app; ``"ping"`` a light echo app.
    app: str
    #: The querier's think time between queries (0: closed loop, no pause).
    think_s: float
    #: Satellites in the query pool (ground stations are added to it).
    query_satellites: int
    #: Share of satellite→satellite queries.  The rest are anchored on a
    #: ground station and answered from the main path table; a satellite
    #: source needs a table of its own, which the calculation then carries
    #: (and advances) every epoch while it stays cached.
    satellite_pairs: float


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="starlink-hosts",
            scenario="west-africa-meetup",
            params=(("shells", "all"), ("use_bounding_box", False)),
            hosts=4,
            app="ping",
            think_s=0.1,
            query_satellites=8,
            satellite_pairs=0.0,
        ),
        Workload(
            name="dart-satellite",
            scenario="pacific-dart",
            # 2 s epochs instead of the scenario's 5 s: ~100 updates in a
            # 30 s run, so the slowest tenth holds ~10 of them.
            params=(("deployment", "satellite"), ("update_interval_s", 2.0)),
            hosts=None,
            app="dart",
            think_s=0.1,
            query_satellites=8,
            satellite_pairs=0.0,
        ),
        Workload(
            name="starlink-serve",
            scenario="west-africa-meetup",
            params=(("shells", "all"), ("use_bounding_box", True)),
            hosts=None,
            app="ping",
            think_s=0.01,
            query_satellites=4,
            satellite_pairs=0.25,
        ),
    )
}

#: The constellation's start instant, the same for every seed.
START = datetime(2022, 1, 1)

#: Ping app: each client station sends one datagram per simulated second to
#: the echo station, which sends it back.
PING_CLIENTS = ("accra", "abuja", "yaounde")
PING_SERVER = "johannesburg-cloud"
PING_BYTES = 200


def build_configuration(workload: Workload, seed: int):
    """The workload's configuration for a seed (its random streams)."""
    config = registry.build(
        workload.scenario,
        **dict(workload.params),
        duration_s=1e9,
        seed=seed,
        epoch=Epoch(START),
    )
    if workload.hosts is not None:
        config = dataclasses.replace(
            config, hosts=dataclasses.replace(config.hosts, count=workload.hosts)
        )
    return config


#: Length of the query pair sequence the querier cycles through.
QUERY_SEQUENCE = 4096


def query_mix(config, workload: Workload, seed: int):
    """The query mix: a fixed pool of endpoints and a seeded pair sequence.

    The pool is the same for every seed: up to 8 ground stations and
    ``query_satellites`` satellites.  The seed draws the sequence uniformly
    from it.  A share ``satellite_pairs`` of the pairs joins two
    satellites; the rest join a satellite and a ground station, in either
    order.  The first query from each satellite builds its path table,
    which the calculation then carries, so after the first second or so
    every query is answered from a carried table (a cache hit).
    """
    # Which satellites get path tables of their own sets the update's cost,
    # and that should not vary by seed.
    fixed = np.random.default_rng(0)
    stations = list(config.ground_station_names)
    stations = [stations[i] for i in sorted(fixed.choice(len(stations), min(8, len(stations)), replace=False))]
    sizes = config.shell_sizes
    satellites = []
    while len(satellites) < workload.query_satellites:
        shell = int(fixed.integers(len(sizes)))
        token = f"{int(fixed.integers(sizes[shell]))}.{shell}"
        if token not in satellites:
            satellites.append(token)
    rng = np.random.default_rng([seed, 1])
    pool = stations + satellites
    sequence = []
    for _ in range(QUERY_SEQUENCE):
        first = int(rng.integers(len(satellites)))
        source = len(stations) + first
        if rng.random() < workload.satellite_pairs:
            # Any satellite of the pool but the source.
            second = (first + 1 + int(rng.integers(len(satellites) - 1))) % len(satellites)
            destination = len(stations) + second
        else:
            destination = int(rng.integers(len(stations)))
            if rng.random() < 0.5:
                source, destination = destination, source
        sequence.append([source, destination])
    return pool, sequence


class _PingApp:
    """A light echo workload: a few datagrams per simulated second."""

    def __init__(self, testbed: Celestial):
        self.testbed = testbed

    def start(self) -> None:
        testbed = self.testbed
        server = testbed.endpoint(testbed.ground_station(PING_SERVER))
        testbed.sim.process(self._echo(server))
        for name in PING_CLIENTS:
            endpoint = testbed.endpoint(testbed.ground_station(name))
            testbed.sim.process(self._client(endpoint, server.machine))
            testbed.sim.process(self._receive(endpoint))

    def _client(self, endpoint, server):
        while True:
            endpoint.send(server, PING_BYTES)
            yield self.testbed.sim.timeout(1.0)

    def _echo(self, endpoint):
        while True:
            message = yield endpoint.receive()
            endpoint.send(message.source, message.size_bytes)

    def _receive(self, endpoint):
        while True:
            yield endpoint.receive()


class Bed:
    """One brought-up testbed: Celestial, app, gateway and the first epoch.

    Construction is the set-up the benchmark times: from the built
    configuration to the first epoch applied on the hosts, sampled, and
    delivered as a keyframe to a subscriber that has applied it.
    ``on_publish`` (the tracer's hook) is registered as a database
    listener ahead of the gateway's.
    """

    def __init__(self, workload: Workload, config, on_publish=None):
        self.workload = workload
        self.testbed = testbed = Celestial(config)
        self.database = testbed.database
        if on_publish is not None:
            self.database.add_listener(on_publish)
        self.gateway = GatewayServer(self.database)
        self.app = None
        try:
            self.gateway.start()
            if workload.app == "dart":
                self.app = DartExperiment(testbed, deployment="satellite")
                # Starts the testbed and the DART processes, then runs the
                # events of t=0: the first update and the first readings.
                self.app.run(duration_s=0.0)
            else:
                testbed.start()
                self.app = _PingApp(testbed)
                self.app.start()
                testbed.run(until=0.0)
            host, port = self.gateway.address
            with SubscriptionClient(host, port, client_id="setup-probe") as probe:
                probe.recv_update()
        except BaseException:
            self.close()
            raise

    @property
    def port(self) -> int:
        return self.gateway.address[1]

    def close(self) -> None:
        self.gateway.stop()
        self.testbed.close()
