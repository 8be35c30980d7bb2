import random
from ipaddress import IPv4Address

import pytest
from hypothesis import given, strategies as st

from appnet import model
from appnet.errors import InvalidName, InvalidSpec, InvalidTag, InvalidVip
from appnet.model import PoolClass, TagSet, classify_vip, parse_app_spec


def test_parse_full_spec():
    spec = parse_app_spec(["--ip", "10.1.1.1", "--name", "web", "--tag", "grp=1"])
    assert spec.name == "web"
    assert spec.vip == IPv4Address("10.1.1.1")
    assert spec.tags.values("grp") == {"1"}
    assert spec.expose is None


def test_parse_empty_spec_is_anonymous_client():
    spec = parse_app_spec([])
    assert spec.name is None
    assert spec.vip is None
    assert not spec.tags
    assert spec.expose is None


def test_link_local_vip_rejected():
    with pytest.raises(InvalidVip):
        parse_app_spec(["--ip", "169.254.0.5"])


def test_auto_pool_vip_rejected():
    with pytest.raises(InvalidVip):
        parse_app_spec(["--ip", "240.1.2.3"])


@pytest.mark.parametrize("bad", ["0.0.0.0", "255.255.255.255", "300.1.1.1", "nonsense"])
def test_unusable_vips_rejected(bad):
    with pytest.raises(InvalidVip):
        model.parse_vip(bad)


def test_unknown_flag_rejected():
    with pytest.raises(InvalidSpec):
        parse_app_spec(["--bogus", "x"])


def test_expose_variants():
    assert parse_app_spec(["--expose"]).expose == "auto"
    assert parse_app_spec(["--expose", "auto"]).expose == "auto"
    assert parse_app_spec(["--expose", "30080"]).expose == 30080
    assert parse_app_spec(["--expose", "30080", "--name", "w"]).name == "w"
    with pytest.raises(InvalidSpec):
        parse_app_spec(["--expose", "99999"])


@pytest.mark.parametrize(
    "addr,pool",
    [
        ("10.1.1.1", PoolClass.USER_VIRTUAL),
        ("240.0.0.7", PoolClass.AUTO_POOL),
        ("169.254.1.2", PoolClass.LINK_LOCAL),
        ("239.255.255.255", PoolClass.USER_VIRTUAL),
        ("240.0.0.0", PoolClass.AUTO_POOL),
        ("240.255.255.255", PoolClass.AUTO_POOL),
        ("241.0.0.0", PoolClass.USER_VIRTUAL),
        ("169.254.0.0", PoolClass.LINK_LOCAL),
        ("169.254.255.255", PoolClass.LINK_LOCAL),
        ("169.253.255.255", PoolClass.USER_VIRTUAL),
        ("169.255.0.0", PoolClass.USER_VIRTUAL),
    ],
)
def test_classify_boundaries(addr, pool):
    assert classify_vip(IPv4Address(addr)) is pool


@given(st.integers(min_value=1, max_value=2**32 - 2))
def test_classify_partition_property(raw):
    # Every address lands in exactly one pool.
    addr = IPv4Address(raw)
    matches = [
        addr in model.LINK_LOCAL_POOL,
        addr in model.AUTO_POOL and addr not in model.LINK_LOCAL_POOL,
        classify_vip(addr) is PoolClass.USER_VIRTUAL,
    ]
    assert sum(bool(m) for m in matches) == 1


def test_tags_merge_and_dedupe():
    assert TagSet.from_pairs(["grp=1", "grp=2"]).values("grp") == {"1", "2"}
    assert TagSet.from_pairs([]).entries == {}
    assert TagSet.from_pairs(["grp=1", "grp=1"]).values("grp") == {"1"}


def test_tags_idempotent_and_order_insensitive():
    a = TagSet.from_pairs(["a=1", "b=2", "a=3"])
    b = TagSet.from_pairs(["a=3", "a=1", "b=2"])
    assert a == b
    assert TagSet.from_pairs(a.pairs()) == a


@pytest.mark.parametrize("bad", ["noequals", "=1", "k=", "k k=v"])
def test_bad_tags_rejected(bad):
    with pytest.raises(InvalidTag):
        TagSet.from_pairs([bad])


def test_bad_names_rejected():
    for bad in ["", "-x", "x-", "x..y", "x" * 254, "sp ace"]:
        with pytest.raises(InvalidName):
            model.validate_name(bad)
    assert model.validate_name("a.b-c.d1") == "a.b-c.d1"


_tag_keys = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=8,
)
_names = st.from_regex(r"[a-z]([a-z0-9-]{0,10}[a-z0-9])?", fullmatch=True)


@given(
    name=st.none() | _names,
    vip_last=st.none() | st.integers(min_value=1, max_value=254),
    tags=st.dictionaries(_tag_keys, st.sets(st.sampled_from("12345"), min_size=1), max_size=3),
    expose=st.none() | st.just("auto") | st.integers(min_value=1, max_value=65535),
)
def test_spec_round_trip(name, vip_last, tags, expose):
    pairs = [f"{k}={v}" for k, vs in tags.items() for v in vs]
    spec = model.AppSpec(
        name=name,
        vip=IPv4Address(f"10.0.0.{vip_last}") if vip_last else None,
        tags=TagSet.from_pairs(pairs),
        expose=expose,
    )
    assert parse_app_spec(model.render_app_spec(spec)) == spec


def test_new_host_id_is_16_bytes_drawn_from_the_rng():
    ids = [model.new_host_id(random.Random(seed)) for seed in (3, 3, 4)]
    assert all(type(h) is bytes and len(h) == 16 for h in ids)
    assert ids[0] == ids[1] != ids[2]
    # 128 bits drawn big-endian: the pinned scenario traces depend on these bytes.
    assert ids[0] == random.Random(3).getrandbits(128).to_bytes(16, "big")
    assert len(ids[0].hex()) == 32
    assert model.HostId(bytes(range(16))) < model.HostId(bytes([255] * 16))
