"""cluster_churn: gossip, codec and table work under writes, in the simulator.

A deterministic SimCluster of 32 nodes joined to n0, with 5 % datagram loss
and 16 named services per node. Each measured tick runs the cluster's tick
step, then one new registration on a random node, one service restart (trap
close, then a re-bind of the same port, which bumps the incarnation) and four
read pairs through the in-process trap: a DNS resolve, then a connect to the
resolved service. Reads only target services every node already shows.

Work is fixed by the arguments: 3 measured ticks per requested second, so
convergence ticks and envelope bytes repeat exactly for a seed. After the
measured ticks a quiet phase with loss turned off must bring every node to an
identical dump() with every registration converged.

Left out on purpose (ROADMAP items 1 and 3): app removals that outlive
TOMBSTONE_TTL, and tables past the 1 272-record envelope ceiling.
"""

from __future__ import annotations

import random
import time
from ipaddress import IPv4Address

from common import CheckFailed, Outcome, SetupError, median, percentile
from hostspeed import Probe

NODES = 32
SERVICES_PER_NODE = 16
LOSS = 0.05
TICKS_PER_SECOND = 3
READ_PAIRS_PER_TICK = 4
OPS_PER_TICK = 2 + 2 * READ_PAIRS_PER_TICK  # registration, restart, reads
SETUP_MAX_TICKS = 400
QUIET_MAX_TICKS = 200


class _Service:
    def __init__(self, label: str, node: str, name: str, port: int) -> None:
        self.label = label
        self.node = node
        self.name = name
        self.port = port
        self.vip: IPv4Address | None = None
        self.incarnation = 0
        self.handle = 0


class _Churn:
    def __init__(self, seed: int) -> None:
        from appnet.simharness import SimCluster
        from appnet.simnet import NetProfile

        self.rng = random.Random(f"churn:{seed}")
        self.cluster = SimCluster(seed=seed, profile=NetProfile(loss=LOSS))
        self.labels = [f"n{i}" for i in range(NODES)]
        self.services: list[_Service] = []
        self.pending: dict[str, int] = {}  # service label -> tick its change was made
        self.converge_ticks: list[int] = []
        self.readers: dict[str, object] = {}

    # --- writes ---

    def register(self, node: str) -> _Service:
        from appnet.trap import HandleKind

        index = len(self.services)
        service = _Service(f"s{index}", node, f"svc{index}-{self.rng.randrange(16**4):04x}",
                           self.rng.randrange(1024, 49152))
        app = self.cluster.add_app(node, service.label,
                                   ["--name", service.name, "--tag", "grp=bench"])
        service.vip = app.identity.effective_vip
        service.handle = app.shim.socket(HandleKind.STREAM)
        bound = app.shim.bind(service.handle, (IPv4Address("0.0.0.0"), service.port))
        if bound != (service.vip, service.port):
            raise CheckFailed(f"{service.label} bound {bound}")
        app.shim.listen(service.handle)
        app.serving.append(service.handle)
        service.incarnation = self._incarnation(node, service)
        self.services.append(service)
        self.pending[service.label] = self.cluster.clock
        return service

    def restart(self, service: _Service) -> None:
        from appnet.trap import HandleKind

        app = self.cluster.apps[service.label]
        app.serving.remove(service.handle)
        app.shim.close(service.handle)
        service.handle = app.shim.socket(HandleKind.STREAM)
        app.shim.bind(service.handle, (IPv4Address("0.0.0.0"), service.port))
        app.shim.listen(service.handle)
        app.serving.append(service.handle)
        incarnation = self._incarnation(service.node, service)
        if incarnation <= service.incarnation:
            raise CheckFailed(f"restart of {service.label} did not bump its incarnation")
        service.incarnation = incarnation
        self.pending.setdefault(service.label, -1)  # restarts are not timed for convergence

    def _incarnation(self, node: str, service: _Service) -> int:
        """Incarnation of `service` as `node` sees it alive, or 0."""
        table = self.cluster.nodes[node].node.table
        owner = self.cluster.nodes[service.node].node.host
        for entry in table.entries_for_app(owner, service.label):
            if entry.key.port == service.port:
                return entry.incarnation
        return 0

    def settle(self) -> None:
        """Retire pending changes that every node now shows alive."""
        if not self.pending:
            return
        from appnet.service_table import EntryState, ServiceEntry

        views = [
            {(r.host, r.app_id, r.key.port): r.incarnation
             for r in self.cluster.nodes[n].node.table.records()
             if isinstance(r, ServiceEntry) and r.state is EntryState.ALIVE}
            for n in self.labels
        ]
        by_label = {s.label: s for s in self.services}
        for label, since in list(self.pending.items()):
            service = by_label[label]
            key = (self.cluster.nodes[service.node].node.host, label, service.port)
            if all(view.get(key, 0) >= service.incarnation for view in views):
                del self.pending[label]
                if since >= 0:
                    self.converge_ticks.append(self.cluster.clock - since)

    def settled(self) -> list[_Service]:
        return [s for s in self.services if s.label not in self.pending]

    def read_target(self, node: str) -> _Service:
        """A random settled service that `node` shows alive.

        A false death declaration under loss can hide a settled service on
        some nodes until its owner refutes; such a service is not a target.
        """
        candidates = self.settled()
        self.rng.shuffle(candidates)
        for service in candidates:
            if self._incarnation(node, service) >= service.incarnation:
                return service
        raise CheckFailed(f"node {node} shows no settled service")

    # --- reads ---

    def reader(self, node: str):
        from appnet.trap import HandleKind

        if node not in self.readers:
            app = self.cluster.add_app(node, f"r{node}", ["--tag", "grp=bench"])
            self.readers[node] = (app.shim, app.shim.socket(HandleKind.DATAGRAM))
        return self.readers[node]

    def read_pair(self, node: str, service: _Service, qid: int) -> tuple[float, float]:
        """Resolve the service's name, then connect to it; returns both durations."""
        from appnet import names
        from appnet.trap import HandleKind

        shim, dgram = self.reader(node)
        query = names.build_query(qid, service.name)
        t0 = time.perf_counter()
        shim.sendto(dgram, (IPv4Address("127.0.0.1"), 53), query)
        _, answer = shim.recvfrom(dgram)
        t1 = time.perf_counter()
        got_qid, rcode, vip, _ = names.parse_answer(answer)
        if got_qid != qid or rcode != names.RCODE_OK or vip != service.vip:
            raise CheckFailed(f"resolve {service.name} on {node}: rcode {rcode} vip {vip}")
        t2 = time.perf_counter()
        handle = shim.socket(HandleKind.STREAM)
        transport = shim.connect(handle, (vip, service.port))
        t3 = time.perf_counter()
        if transport is None:
            raise CheckFailed(f"connect to {service.name} returned no transport")
        shim.close(handle)
        transport.close()
        return t1 - t0, t3 - t2

    def step(self) -> float:
        started = time.perf_counter()
        self.cluster.run_until(self.cluster.clock + 1)
        return time.perf_counter() - started

    def dumps_identical(self) -> bool:
        first = self.cluster.nodes[self.labels[0]].node.dump()
        return all(self.cluster.nodes[n].node.dump() == first for n in self.labels[1:])


def _setup(seed: int, probe: Probe) -> _Churn:
    churn = _Churn(seed)
    cluster = churn.cluster
    cluster.start_node(churn.labels[0])
    for label in churn.labels[1:]:
        cluster.start_node(label, join=churn.labels[0])
    cluster.run_until(1)
    for node in churn.labels:
        churn.reader(node)
        for _ in range(SERVICES_PER_NODE):
            churn.register(node)
    while churn.pending:
        probe.sample()
        if cluster.clock > SETUP_MAX_TICKS:
            raise SetupError(f"{len(churn.pending)} services unconverged after {SETUP_MAX_TICKS} ticks")
        try:
            churn.step()
        except RuntimeError as exc:  # SimNetwork.pump's guard
            raise SetupError(f"set-up tick {cluster.clock}: {exc}") from exc
        churn.settle()
    churn.converge_ticks.clear()
    cluster.trace.events.clear()
    return churn


def run(seed: int, seconds: float, recorder=None) -> Outcome:
    from appnet.errors import AppNetError

    out = Outcome(scaled=True)
    started = time.perf_counter()
    churn = _setup(seed, out.probe)
    # Set-up is CPU-bound Python like the ticks, so its time is scaled too;
    # the reference task's own runs are taken out of it.
    setup_s = time.perf_counter() - started - sum(out.probe.wall)
    out.setup_s.append(setup_s * out.probe.scale(0, out.probe.mark()))
    cluster = churn.cluster
    rng = churn.rng
    ticks = max(1, round(seconds * TICKS_PER_SECOND))
    tick_s: list[float] = []
    reads: list[float] = []
    lost0 = cluster.network.counters["lost"]
    # Ticks, writes and reads count as measured, in wall and CPU time; the
    # generator's own bookkeeping (convergence checks, target choice) does not.
    busy = 0.0
    gossip_bytes = 0
    if recorder is not None:
        recorder.reset()
    qid = 0
    # The measured ticks are one epoch, scaled by the reference task's median
    # over all of them: splitting them (per tick, into 10- or 20-tick
    # segments, taking the best segment) was no steadier over runs.
    out.begin_epoch()
    for done in range(ticks):
        if recorder is not None:
            recorder.request = cluster.clock + 1
        out.probe.sample()
        cpu0 = time.process_time()
        try:
            tick_s.append(churn.step())
        except RuntimeError as exc:  # SimNetwork.pump's guard
            out.fail((ticks - done) * OPS_PER_TICK, f"tick {cluster.clock}: {exc}")
            break
        busy += tick_s[-1]
        out.cpu_s += time.process_time() - cpu0
        out.attempted += OPS_PER_TICK
        node, restarted = rng.choice(churn.labels), rng.choice(churn.settled())
        started, cpu0 = time.perf_counter(), time.process_time()
        try:
            churn.register(node)
            churn.restart(restarted)
        except (AppNetError, CheckFailed) as exc:
            out.fail(2, f"write at tick {cluster.clock}: {type(exc).__name__}: {exc}")
        busy += time.perf_counter() - started
        out.cpu_s += time.process_time() - cpu0
        for _ in range(READ_PAIRS_PER_TICK):
            node = rng.choice(churn.labels)
            qid = (qid + 1) & 0xFFFF
            try:
                target = churn.read_target(node)
            except CheckFailed as exc:
                out.fail(2, f"read on {node}: {exc}")
                continue
            started, cpu0 = time.perf_counter(), time.process_time()
            try:
                resolve_s, connect_s = churn.read_pair(node, target, qid)
            except (AppNetError, CheckFailed) as exc:
                out.fail(2, f"read of {target.name} on {node}: {type(exc).__name__}: {exc}")
                continue
            finally:
                busy += time.perf_counter() - started
                out.cpu_s += time.process_time() - cpu0
            reads += [resolve_s, connect_s]
            out.op_s.append(resolve_s + connect_s)
        out.probe.sample()
        churn.settle()
        gossip_bytes += _take_envelope_bytes(cluster)
    out.end_epoch()
    out.measured_s = busy
    measured_ticks = len(tick_s)
    gossip_bytes += _take_envelope_bytes(cluster)
    lost = cluster.network.counters["lost"] - lost0
    _quiet(churn, out)

    named = out.named
    if tick_s:
        named.put("node_tick_us", sum(tick_s) * 1e6 / (NODES * measured_ticks), "us", measured_ticks)
        named.put("gossip_bytes_per_node_tick", gossip_bytes / (NODES * measured_ticks), "B",
                  measured_ticks)
    if reads:
        named.put("read_p50_us", median(reads) * 1e6, "us", len(reads))
    if churn.converge_ticks:
        named.put("converge_ticks_p99", percentile(churn.converge_ticks, 99), "ticks",
                  len(churn.converge_ticks))
    out.layer.put("simnet.lost", lost, "count")
    out.layer.put("service_table.records_end",
                  max(len(rt.node.table.records()) for rt in cluster.nodes.values()), "count")
    out.node_ticks = NODES * measured_ticks
    return out


def _take_envelope_bytes(cluster) -> int:
    """Envelope bytes the cluster's trace recorded since the last call.

    The trace is emptied each time: left to grow, its records made every
    garbage collection longer and the reads slower tick by tick.
    """
    size = sum(e["size"] for e in cluster.trace.events if e.get("event") == "envelope")
    cluster.trace.events.clear()
    return size


def _quiet(churn: _Churn, out: Outcome) -> None:
    """Loss off; every node must reach an identical table with all changes converged."""
    from appnet.simnet import NetProfile

    churn.cluster.network.profile = NetProfile(loss=0.0)
    for _ in range(QUIET_MAX_TICKS):
        try:
            churn.step()
        except RuntimeError as exc:
            out.fail(1, f"quiet phase: {exc}")
            return
        churn.settle()
        if not churn.pending and churn.dumps_identical():
            return
    out.fail(1, f"quiet phase: {len(churn.pending)} changes unconverged, "
                f"dumps identical: {churn.dumps_identical()}")
