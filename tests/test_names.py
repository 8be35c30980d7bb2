from ipaddress import IPv4Address

import pytest

from appnet import names
from appnet.errors import AmbiguousName, DecodeError


def _oracle_fnv1a64(data: bytes) -> int:
    # Independent restatement of the hash for cross-checking.
    h = 14695981039346656037
    for b in data:
        h = ((h ^ b) * 1099511628211) % 2**64
    return h


def test_fnv1a64_against_oracle():
    for key in [b"", b"a", b"web#0", b"appnet", bytes(range(256))]:
        assert names.fnv1a64(key) == _oracle_fnv1a64(key)


def test_fnv1a64_continues_from_a_prefix_hash():
    for prefix, rest in [(b"", b""), (b"", b"abc"), (b"7|c1|10.1.1.1:80|", b"00ff:a1")]:
        assert names.fnv1a64(rest, names.fnv1a64(prefix)) == _oracle_fnv1a64(prefix + rest)


def test_allocate_is_deterministic():
    assert names.allocate_internal_ip("web") == names.allocate_internal_ip("web")
    expected = _oracle_fnv1a64(b"web#0") % 2**24
    vip = names.allocate_internal_ip("web")
    assert int(vip) == int(IPv4Address("240.0.0.0")) | expected


def test_allocate_matches_probe_sequence_with_taken_map():
    # Brute-force recomputation of the probe walk: the first offset not taken
    # by a different name wins.
    name = "svc"
    taken = {}
    for i in range(3):
        offset = _oracle_fnv1a64(f"{name}#{i}".encode()) % 2**24
        taken[IPv4Address(int(IPv4Address("240.0.0.0")) | offset)] = f"other{i}"
    expect_offset = _oracle_fnv1a64(f"{name}#3".encode()) % 2**24
    got = names.allocate_internal_ip(name, taken.get)
    assert int(got) == int(IPv4Address("240.0.0.0")) | expect_offset


def test_allocation_reuses_own_claim():
    vip = names.allocate_internal_ip("web")
    assert names.allocate_internal_ip("web", {vip: "web"}.get) == vip


def test_colliding_first_probe_diverges():
    # These two names share their first probe value mod 2^24 (found by
    # searching the hash space); with one allocated, the other must walk on.
    a, b = "svc-1348", "svc-44084"
    assert _oracle_fnv1a64(f"{a}#0".encode()) % 2**24 == _oracle_fnv1a64(f"{b}#0".encode()) % 2**24
    vip_a = names.allocate_internal_ip(a)
    assert vip_a == names.allocate_internal_ip(b)  # same when unconstrained
    vip_b = names.allocate_internal_ip(b, {vip_a: a}.get)
    assert vip_b != vip_a
    assert int(vip_b) == int(IPv4Address("240.0.0.0")) | (
        _oracle_fnv1a64(f"{b}#1".encode()) % 2**24
    )


def test_link_local_allocation():
    vip = names.allocate_link_local("abc123.1")
    assert vip in __import__("appnet.model", fromlist=["LINK_LOCAL_POOL"]).LINK_LOCAL_POOL
    assert vip != IPv4Address("169.254.0.0")
    assert names.allocate_link_local("abc123.1") == vip


# --- DNS wire format ---


def _resolver(table):
    def resolve(name):
        value = table.get(name)
        if value == "ambiguous":
            raise AmbiguousName(name)
        return value
    return resolve


def test_dns_a_query_answered():
    vip = IPv4Address("240.1.2.3")
    query = names.build_query(7, "web")
    response = names.dns_answer(query, _resolver({"web": vip}))
    qid, rcode, answer, ttl = names.parse_answer(response)
    assert (qid, rcode, answer, ttl) == (7, names.RCODE_OK, vip, 1)
    assert len(response) <= 512


def test_truncated_answer_raises_only_decode_error():
    vip = IPv4Address("240.1.2.3")
    response = names.dns_answer(names.build_query(7, "web"), _resolver({"web": vip}))
    assert len(response) == 37
    for cut in range(len(response)):
        with pytest.raises(DecodeError):
            names.parse_answer(response[:cut])


def test_dns_unknown_name_nxdomain():
    response = names.dns_answer(names.build_query(9, "nosuch"), _resolver({}))
    _, rcode, answer, _ = names.parse_answer(response)
    assert rcode == names.RCODE_NXDOMAIN
    assert answer is None


def test_dns_aaaa_not_implemented():
    vip = IPv4Address("240.1.2.3")
    query = names.build_query(9, "web", qtype=28)
    response = names.dns_answer(query, _resolver({"web": vip}))
    _, rcode, answer, _ = names.parse_answer(response)
    assert rcode == names.RCODE_NOTIMP
    assert answer is None


def test_dns_ambiguous_name_servfail():
    response = names.dns_answer(
        names.build_query(9, "web"), _resolver({"web": "ambiguous"})
    )
    _, rcode, _, _ = names.parse_answer(response)
    assert rcode == names.RCODE_SERVFAIL


def test_dns_malformed_query_formerr():
    query = names.build_query(3, "web")
    response = names.dns_answer(query[:14], _resolver({}))
    _, rcode, _, _ = names.parse_answer(response)
    assert rcode == names.RCODE_FORMERR


def test_dns_bad_labels_get_an_answer():
    header = names.build_query(5, "web")[:12]
    question_tail = b"\x00\x01\x00\x01"
    non_ascii = names.dns_answer(header + b"\x03w\xe9b\x00" + question_tail, _resolver({}))
    assert names.parse_answer(non_ascii)[:2] == (5, names.RCODE_FORMERR)
    dot = names.dns_answer(header + b"\x01.\x00" + question_tail, _resolver({}))
    assert names.parse_answer(dot)[:2] in {(5, names.RCODE_FORMERR), (5, names.RCODE_NXDOMAIN)}


def test_dns_garbage_rejected():
    with pytest.raises(DecodeError):
        names.dns_answer(b"\x01\x02", _resolver({}))


def test_dns_dotted_names_round_trip():
    vip = IPv4Address("240.9.9.9")
    query = names.build_query(1, "api.internal.svc")
    response = names.dns_answer(query, _resolver({"api.internal.svc": vip}))
    _, rcode, answer, _ = names.parse_answer(response)
    assert (rcode, answer) == (names.RCODE_OK, vip)
