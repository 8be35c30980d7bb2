from ipaddress import IPv4Address

import pytest
from hypothesis import given, strategies as st

from appnet import errors, trap
from appnet.trap import (
    HandleKind,
    TrapOp,
    TrapReply,
    TrapRequest,
    decode_reply,
    decode_request,
    encode_reply,
    encode_request,
)


def test_connect_request_round_trips_bit_exactly():
    req = TrapRequest(
        op=TrapOp.CONNECT, handle=3, addr=(IPv4Address("10.1.1.1"), 80)
    )
    data = encode_request(req)
    decoded = decode_request(data)
    assert decoded == req
    assert encode_request(decoded) == data


def test_truncated_frame_rejected():
    data = encode_request(TrapRequest(op=TrapOp.BIND, handle=1, addr=(IPv4Address("0.0.0.0"), 80)))
    for cut in (0, 3, 15, len(data) - 1 if len(data) > 16 else 15):
        with pytest.raises(errors.DecodeError):
            decode_request(data[:cut])


def test_unknown_op_rejected():
    data = bytearray(encode_request(TrapRequest(op=TrapOp.CLOSE, handle=1)))
    for code in (0, 11, 99, 200, 255):
        data[1] = code
        with pytest.raises(errors.DecodeError, match=f"unknown trap op {code}"):
            decode_request(bytes(data))


@pytest.mark.parametrize("op", [TrapOp.LISTEN, TrapOp.ACCEPT, TrapOp.CLOSE, TrapOp.RECV_FROM])
def test_address_bytes_of_non_address_ops_decode_as_absent(op):
    frame = trap._HEADER.pack(trap.TRAP_VERSION, op.value, 7, 0x0A010101, 80, 0)
    req = decode_request(frame)
    assert req == TrapRequest(op=op, handle=7, addr=None)


def test_sendto_with_payload_round_trips():
    req = TrapRequest(
        op=TrapOp.SEND_TO,
        handle=9,
        addr=(IPv4Address("240.0.0.9"), 53),
        payload=b"\x00" * 1400,
    )
    assert decode_request(encode_request(req)) == req


def test_reply_addr_presence():
    got = decode_reply(encode_reply(TrapReply(addr=(IPv4Address("10.1.1.1"), 0))))
    assert got.addr == (IPv4Address("10.1.1.1"), 0)
    got = decode_reply(encode_reply(TrapReply()))
    assert got.addr is None
    got = decode_reply(encode_reply(TrapReply(addr=(IPv4Address("0.0.0.0"), 0))))
    assert got.addr is None
    # Only an all-zero address field means "no address": a port alone keeps it.
    got = decode_reply(encode_reply(TrapReply(addr=(IPv4Address("0.0.0.0"), 8080))))
    assert got.addr == (IPv4Address("0.0.0.0"), 8080)


# Frames and the hex the earlier field-by-field Writer codec produced for them.
_GOLDEN_FRAMES = [
    (
        encode_request,
        TrapRequest(op=TrapOp.CONNECT, handle=3, addr=(IPv4Address("10.1.1.1"), 80)),
        "0104000000030a010101005000000000",
    ),
    (
        encode_request,
        TrapRequest(
            op=TrapOp.SEND_TO,
            handle=0x01020304,
            addr=(IPv4Address("240.0.0.9"), 53),
            payload=b"query",
        ),
        "010801020304f00000090035000000057175657279",
    ),
    (
        encode_request,
        TrapRequest(op=TrapOp.SOCKET, payload=bytes([1])),
        "0101000000000000000000000000000101",
    ),
    (
        encode_reply,
        TrapReply(handle=7, addr=(IPv4Address("192.168.0.2"), 49152)),
        "010000000007c0a80002c00000000000",
    ),
    (
        encode_reply,
        TrapReply(status=8, payload=b"refused"),
        "0108000000000000000000000000000772656675736564",
    ),
]


@pytest.mark.parametrize("encode,frame,golden", _GOLDEN_FRAMES)
def test_frames_encode_to_golden_bytes(encode, frame, golden):
    data = encode(frame)
    assert data.hex() == golden
    decode = decode_request if encode is encode_request else decode_reply
    assert decode(data) == frame
    assert trap.frame_payload_length(data[: trap.HEADER_SIZE]) == len(frame.payload)


def _malformed_frames():
    good = encode_request(
        TrapRequest(
            op=TrapOp.SEND_TO,
            handle=5,
            addr=(IPv4Address("240.0.0.9"), 53),
            payload=b"hello",
        )
    )
    frames = [good[:cut] for cut in range(len(good))]
    frames.append(good + b"\x00")
    frames.append(b"\x02" + good[1:])
    oversized = bytearray(good)
    oversized[12:16] = (trap.MAX_FRAME_PAYLOAD + 1).to_bytes(4, "big")
    frames.append(bytes(oversized))
    return frames


def test_malformed_frames_raise_only_decode_error():
    for data in _malformed_frames():
        for decode in (decode_request, decode_reply):
            with pytest.raises(errors.DecodeError):
                decode(data)
    with pytest.raises(errors.DecodeError):
        trap.frame_payload_length(b"\x01" * (trap.HEADER_SIZE - 1))


def test_status_error_mapping_round_trip():
    for exc in [
        errors.NoSuchService("x"),
        errors.Denied("policy"),
        errors.ConnRefused("y"),
        errors.WouldBlock("z"),
    ]:
        reply = trap.error_reply(exc)
        with pytest.raises(type(exc)):
            trap.raise_for_status(decode_reply(encode_reply(reply)))


_ops = st.sampled_from(list(TrapOp))
_addrs = st.none() | st.tuples(
    st.integers(min_value=1, max_value=2**32 - 2).map(IPv4Address),
    st.integers(min_value=0, max_value=65535),
)


@given(
    op=_ops,
    handle=st.integers(min_value=0, max_value=2**32 - 1),
    addr=_addrs,
    payload=st.binary(max_size=2048),
)
def test_request_decode_encode_identity(op, handle, addr, payload):
    req = TrapRequest(op=op, handle=handle, addr=addr, payload=payload)
    decoded = decode_request(encode_request(req))
    assert decoded.op == op and decoded.handle == handle and decoded.payload == payload
    # Address survives exactly for ops that carry one; others drop it.
    if op in (TrapOp.BIND, TrapOp.CONNECT, TrapOp.SEND_TO):
        expected = addr if addr is not None else (IPv4Address("0.0.0.0"), 0)
        assert decoded.addr == expected
        assert encode_request(decoded) == encode_request(req)
    else:
        assert decoded.addr is None


@given(
    status=st.integers(min_value=0, max_value=99),
    handle=st.integers(min_value=0, max_value=2**32 - 1),
    addr=_addrs,
    payload=st.binary(max_size=2048),
)
def test_reply_decode_encode_identity(status, handle, addr, payload):
    reply = TrapReply(status=status, handle=handle, addr=addr, payload=payload)
    data = encode_reply(reply)
    decoded = decode_reply(data)
    assert encode_reply(decoded) == data
    if addr is not None and addr != (IPv4Address("0.0.0.0"), 0):
        assert decoded.addr == addr
    else:
        assert decoded.addr is None


def test_in_proc_channel_counts_messages_and_traces():
    seen = []

    def dispatch(app_id, req):
        return TrapReply(handle=7), None

    channel = trap.InProcChannel("app1", dispatch, sink=lambda *a: seen.append(a))
    shim = trap.SocketShim(channel)
    handle = shim.socket(HandleKind.STREAM)
    assert handle == 7
    assert channel.messages == 1
    assert seen[0][0] == "app1"
    assert seen[0][2].handle == 7


def test_detached_channel_refuses_calls():
    channel = trap.InProcChannel("app1", lambda a, r: (TrapReply(), None))
    channel.detached = True
    with pytest.raises(errors.AttachFailed):
        channel.call(TrapRequest(op=TrapOp.SOCKET))


def test_shim_rejects_oversized_datagram():
    channel = trap.InProcChannel("app1", lambda a, r: (TrapReply(), None))
    shim = trap.SocketShim(channel)
    with pytest.raises(errors.MessageTooLong):
        shim.sendto(1, (IPv4Address("10.0.0.1"), 5), b"x" * (trap.MAX_DGRAM + 1))
    assert channel.messages == 0
