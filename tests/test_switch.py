import inspect
import random
from ipaddress import IPv4Address

import pytest

from appnet import names
from appnet.model import HostId, RealEndpoint, ServiceKey, TagSet, new_host_id
from appnet.realnet import RealNodeRuntime
from appnet.service_table import EntryState, ServiceEntry
from appnet.simnet import SimFabric
from appnet.switch import (
    Fabric,
    PolicyDecision,
    SelectionStrategy,
    StrategyMode,
    decode_preamble,
    encode_preamble,
    policy_allows,
    selection_order,
)

H = [HostId(bytes([i]) * 16) for i in range(1, 6)]


def tags(*pairs):
    return TagSet.from_pairs(list(pairs))


def candidate(i, port=80):
    return ServiceEntry(
        key=ServiceKey(IPv4Address("10.1.1.1"), port),
        real=RealEndpoint(IPv4Address(f"10.0.0.{i}"), 41000 + i),
        host=H[i - 1],
        app_id=f"a{i}",
        tags=TagSet(),
        name=None,
        incarnation=1,
        state=EntryState.ALIVE,
    )


KEY = ServiceKey(IPv4Address("10.1.1.1"), 80)


class TestPolicy:
    def test_shared_group_allows(self):
        assert policy_allows(tags("grp=1"), tags("grp=1", "grp=2")).allowed

    def test_disjoint_groups_deny(self):
        decision = policy_allows(tags("grp=1"), tags("grp=2"))
        assert not decision.allowed
        assert "grp" in decision.reason

    def test_untagged_server_allows_anyone(self):
        assert policy_allows(tags(), tags()).allowed
        assert policy_allows(tags("grp=9"), tags()).allowed

    def test_tagged_server_rejects_untagged_client(self):
        assert not policy_allows(tags(), tags("grp=1")).allowed

    def test_non_policy_tags_ignored(self):
        assert policy_allows(tags("env=dev"), tags("env=prod", "grp=1")).allowed is False
        assert policy_allows(tags("grp=1"), tags("env=prod", "grp=1")).allowed


class TestSelection:
    def test_single_candidate(self):
        only = [candidate(1)]
        assert selection_order("c", KEY, only, SelectionStrategy())[0] == only[0]

    def test_round_robin_alternates_exactly(self):
        cands = [candidate(1), candidate(2)]
        strategy = SelectionStrategy(mode=StrategyMode.ROUND_ROBIN)
        picks = [
            selection_order("c", KEY, cands, strategy, rr_counter=i)[0].app_id
            for i in range(4)
        ]
        assert picks == ["a1", "a2", "a1", "a2"]

    def test_rendezvous_deterministic(self):
        cands = [candidate(1), candidate(2), candidate(3)]
        s = SelectionStrategy()
        a = selection_order("client-x", KEY, cands, s)[0]
        b = selection_order("client-x", KEY, list(reversed(cands)), s)[0]
        assert a == b

    def test_rendezvous_stable_under_removal_of_non_chosen(self):
        cands = [candidate(1), candidate(2), candidate(3)]
        s = SelectionStrategy()
        for client in (f"c{i}" for i in range(50)):
            chosen = selection_order(client, KEY, cands, s)[0]
            remaining = [c for c in cands if c != chosen]
            survivors = [chosen] + remaining[:1]
            assert selection_order(client, KEY, survivors, s)[0] == chosen

    def test_rendezvous_spread_across_3000_clients(self):
        # Brute-force recomputation of the selection hash for every client,
        # then distribution bounds on the observed counts.
        cands = [candidate(1), candidate(2), candidate(3)]
        s = SelectionStrategy()
        counts = {c.app_id: 0 for c in cands}
        for i in range(3000):
            client = f"c{i:04d}"
            weights = {
                c.app_id: names.fnv1a64(
                    f"{s.seed}|{client}|{KEY}|{c.host.hex()}:{c.app_id}".encode()
                )
                for c in cands
            }
            oracle_pick = max(weights, key=lambda k: weights[k])
            chosen = selection_order(client, KEY, cands, s)[0]
            assert chosen.app_id == oracle_pick
            counts[chosen.app_id] += 1
        for n in counts.values():
            assert 0.25 * 3000 <= n <= 0.42 * 3000

    @pytest.mark.parametrize("n", [2, 8, 64, 512])
    def test_rendezvous_order_matches_brute_force_ranking(self, n):
        # The prefix hash is continued per candidate, and there is no
        # pre-sort; the full order must still be the one that hashing each
        # candidate's whole material from scratch gives.
        rng = random.Random(n)
        cands = [
            ServiceEntry(
                key=KEY,
                real=RealEndpoint(IPv4Address(f"10.0.{i // 250}.{i % 250 + 1}"), 41000),
                host=new_host_id(rng),
                app_id=f"app{rng.randrange(10**6)}",
                tags=TagSet(),
                name=None,
                incarnation=1,
                state=EntryState.ALIVE,
            )
            for i in range(n)
        ]
        s = SelectionStrategy(seed=n)
        for client in ("c0", "client-with-a-longer-id", "gw.a1b2c3.8080"):
            oracle = sorted(
                cands,
                key=lambda c: (
                    names.fnv1a64(f"{s.seed}|{client}|{KEY}|{c.host.hex()}:{c.app_id}".encode()),
                    c.host,
                    c.app_id,
                ),
                reverse=True,
            )
            got = selection_order(client, KEY, list(reversed(cands)), s)
            assert [(c.host, c.app_id) for c in got] == [(c.host, c.app_id) for c in oracle]

    def test_fewer_than_two_candidates_are_not_ranked(self, monkeypatch):
        def no_hash(*_):
            raise AssertionError("a lone candidate was hashed")

        monkeypatch.setattr(names, "fnv1a64", no_hash)
        only = [candidate(1)]
        for strategy in (SelectionStrategy(), SelectionStrategy(StrategyMode.ROUND_ROBIN)):
            assert selection_order("c", KEY, only, strategy, rr_counter=5) == only
            assert selection_order("c", KEY, [], strategy) == []

    def test_selection_order_is_full_ranking(self):
        cands = [candidate(1), candidate(2), candidate(3)]
        order = selection_order("c9", KEY, cands, SelectionStrategy())
        assert len(order) == 3
        assert set(e.app_id for e in order) == {"a1", "a2", "a3"}


def test_preamble_round_trip():
    addr = (IPv4Address("169.254.7.9"), 0)
    data = encode_preamble(addr)
    assert len(data) == 11
    assert data[:4] == b"ASPW"
    assert decode_preamble(data) == addr
    # Bytes written by the earlier field-by-field encoder.
    golden = bytes.fromhex("41535057010a090807ffff")
    assert encode_preamble((IPv4Address("10.9.8.7"), 65535)) == golden
    assert decode_preamble(golden) == (IPv4Address("10.9.8.7"), 65535)


def test_preamble_rejects_noise():
    assert decode_preamble(b"") is None
    assert decode_preamble(b"x" * 11) is None
    assert decode_preamble(encode_preamble((IPv4Address("1.2.3.4"), 5))[:-1]) is None
    assert decode_preamble(encode_preamble((IPv4Address("1.2.3.4"), 5)) + b"\x00") is None
    wrong_version = bytearray(encode_preamble((IPv4Address("1.2.3.4"), 5)))
    wrong_version[4] = 2
    assert decode_preamble(bytes(wrong_version)) is None


def _parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


@pytest.mark.parametrize("backend", [SimFabric, RealNodeRuntime])
def test_each_backend_defines_every_fabric_method_with_its_parameters(backend):
    methods = [
        name for name, attr in vars(Fabric).items()
        if inspect.isfunction(attr) and not name.startswith("_")
    ]
    assert sorted(methods) == [
        "bind_dgram", "bind_external", "bind_stream", "connect_stream",
        "open_local_pair", "send_dgram",
    ]
    for name in methods:
        assert _parameters(getattr(backend, name)) == _parameters(getattr(Fabric, name)), name
