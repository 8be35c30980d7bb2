"""The firewall and load balancer that a connect runs through, in the simulator.

Eight backends of one named service, each on its own node, and clients on a
node of their own. Both functions run once per connect inside the client
node's switch: the firewall compares `grp` tags, the load balancer ranks the
allowed backends by rendezvous hash or round robin.
"""

import pytest

from appnet import errors, names
from appnet.model import ServiceKey
from appnet.simharness import SimCluster
from appnet.switch import SelectionStrategy, StrategyMode

PORT = 8080
CLIENTS = 400


def _cluster(backends: int, mode: StrategyMode = StrategyMode.RENDEZVOUS):
    """Backends b0.. named "web" on nodes n0.., and a client node "c"."""
    cluster = SimCluster(seed=58)
    cluster.start_node("c", strategy=SelectionStrategy(mode=mode, seed=58))
    for i in range(backends):
        cluster.start_node(f"n{i}", join="c")
    cluster.run_until(1)
    for i in range(backends):
        cluster.add_app(f"n{i}", f"b{i}", ["--name", "web", "--tag", "grp=1"])
        cluster.serve(f"b{i}", PORT)
    key = ServiceKey(cluster.apps["b0"].identity.effective_vip, PORT)
    table = cluster.nodes["c"].node.table
    while len(table.lookup(key)) < backends:
        assert cluster.clock < 50, "backends never reached the client node"
        cluster.run_until(cluster.clock + 1)
    return cluster, key


def _picks(cluster: SimCluster, clients: list[str], key: ServiceKey) -> dict[str, str]:
    """The backend each client's connect lands on, read off the accept queues."""
    backends = [label for label in cluster.apps if label.startswith("b")]

    def queued() -> dict[str, int]:
        return {
            b: cluster.apps[b].switch.pending_accepts(b, cluster.apps[b].serving[0])
            for b in backends
        }

    picks = {}
    for client in clients:
        before = queued()
        assert cluster.connect(client, key)["status"] == "ok"
        after = queued()
        [picks[client]] = [b for b in backends if after[b] > before[b]]
    return picks


def _add_clients(cluster: SimCluster, count: int, tag: str = "grp=1") -> list[str]:
    clients = [f"k{i:03d}" for i in range(count)]
    for client in clients:
        cluster.add_app("c", client, ["--tag", tag])
    return clients


def test_rendezvous_spreads_400_clients_over_8_backends():
    cluster, key = _cluster(8)
    picks = _picks(cluster, _add_clients(cluster, CLIENTS), key)
    counts = {b: list(picks.values()).count(b) for b in sorted(set(picks.values()))}
    # Every backend gets between half and one and a half times its fair
    # share of 50: about 3.8 binomial standard deviations either way.
    assert len(counts) == 8, counts
    assert all(25 <= n <= 75 for n in counts.values()), counts


def test_removing_a_backend_moves_only_its_clients():
    cluster, key = _cluster(8)
    clients = _add_clients(cluster, CLIENTS)
    before = _picks(cluster, clients, key)
    cluster.remove_app("b3")
    table = cluster.nodes["c"].node.table
    while len(table.lookup(key)) > 7:
        assert cluster.clock < 50, "the removal never reached the client node"
        cluster.run_until(cluster.clock + 1)
    after = _picks(cluster, clients, key)
    moved = {c for c in clients if after[c] != before[c]}
    assert moved == {c for c in clients if before[c] == "b3"}
    assert moved and "b3" not in after.values()


def test_round_robin_visits_every_backend_once_per_eight_connects():
    cluster, key = _cluster(8, StrategyMode.ROUND_ROBIN)
    [client] = _add_clients(cluster, 1)
    picks = [_picks(cluster, [client], key)[client] for _ in range(24)]
    for start in range(0, 24, 8):
        assert sorted(picks[start:start + 8]) == [f"b{i}" for i in range(8)]
    assert picks[:8] == picks[8:16] == picks[16:]


def test_denied_connect_names_its_reason():
    cluster, key = _cluster(8)
    [client] = _add_clients(cluster, 1, tag="grp=2")
    app = cluster.apps[client]
    handle = app.shim.socket()
    with pytest.raises(errors.Denied) as denied:
        app.shim.connect(handle, key)
    assert str(denied.value) == "no shared 'grp' value: client ['2'] vs server ['1']"


def test_connect_to_a_lone_backend_never_hashes(monkeypatch):
    cluster, key = _cluster(1)
    [client] = _add_clients(cluster, 1)

    def no_hash(*_):
        raise AssertionError("a connect with one candidate hashed it")

    monkeypatch.setattr(names, "fnv1a64", no_hash)
    assert _picks(cluster, [client], key) == {client: "b0"}


def test_round_robin_counters_go_with_their_apps():
    cluster, key = _cluster(2, StrategyMode.ROUND_ROBIN)
    switch = cluster.nodes["c"].node.switch
    for client in _add_clients(cluster, 100):
        assert cluster.connect(client, key)["status"] == "ok"
        cluster.remove_app(client)
    assert switch._rr_counters == {}
