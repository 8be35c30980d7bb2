"""Spans around the calls into each appnet layer, installed from outside src/.

`install(recorder)` replaces public functions and methods at the places the
program looks them up (the class attribute, or the module global a caller
imported by name) with wrappers that record a span: id, name, start, end,
parent span and request id. Spans stay in memory; `aggregate` turns them into
self times and counts per layer. Nothing under src/ is modified.
"""

from __future__ import annotations

import itertools
import threading
import time
from bisect import bisect_right
from collections import defaultdict

from common import Metrics, percentile

TRAP_OPS = ("socket", "connect", "accept", "sendto", "recvfrom", "close")
SWITCH_OPS = ("socket", "bind", "listen", "connect", "accept", "sendto", "recvfrom", "close")
ERROR_STATUSES = ("would_block", "no_such_service", "conn_refused", "denied", "other")
TABLE_CALLS = ("lookup", "lookup_name", "merge_record", "digest", "records_newer_than",
               "digest_has_news", "gc_tombstones")
ENVELOPE_KINDS = ("ping", "ping_req", "ack", "sync", "sync_reply")

# Every per-layer metric the traced run reports, with its unit and direction.
PER_LAYER: list[tuple[str, str, str]] = [
    ("realnet.in_loop.wait_us.p50", "us", "lower"),
    ("realnet.in_loop.wait_us.p99", "us", "lower"),
    ("realnet.daemon_cpu_us_per_cycle", "us", "lower"),
    ("realnet.daemon_cpu_us_per_mb", "us", "lower"),
    ("realnet.threads_peak", "count", "lower"),
    ("realnet.threads_end", "count", "lower"),
    ("realnet.rss_kb_end", "kB", "lower"),
    *[(f"trap.rtt.{op}.p50_us", "us", "lower") for op in TRAP_OPS],
    ("trap.accept.would_block", "count", "lower"),
    ("trap.inproc.self_us", "us", "lower"),
    *[m for op in SWITCH_OPS for m in ((f"switch.dispatch.{op}.self_us", "us", "lower"),
                                      (f"switch.dispatch.{op}.calls", "count", "lower"))],
    *[(f"switch.dispatch.errors.{status}", "count", "lower") for status in ERROR_STATUSES],
    ("switch.connect_for_gateway.self_us", "us", "lower"),
    ("switch.connect_for_gateway.calls", "count", "lower"),
    *[m for call in TABLE_CALLS for m in ((f"service_table.{call}.self_us", "us", "lower"),
                                         (f"service_table.{call}.calls", "count", "lower"))],
    ("service_table.merge.applied", "count", "higher"),
    ("service_table.merge.stale", "count", "lower"),
    ("service_table.merge.refuted", "count", "lower"),
    ("service_table.records_end", "count", "lower"),
    ("gossip.tick.self_us", "us", "lower"),
    ("gossip.handle_envelope.self_us", "us", "lower"),
    ("gossip.encode_envelope.self_us", "us", "lower"),
    ("gossip.decode_envelope.self_us", "us", "lower"),
    *[(f"gossip.bytes.{kind}", "B", "lower") for kind in ENVELOPE_KINDS],
    ("gossip.sync_per_period", "count", "lower"),
    ("gossip.deaths_declared", "count", "lower"),
    ("gossip.delta_applied_ratio", "ratio", "higher"),
    ("names.dns_answer.self_us", "us", "lower"),
    ("names.dns_answer.calls", "count", "lower"),
    ("node.tick.self_us", "us", "lower"),
    ("node.on_envelope.calls", "count", "lower"),
    ("gateway.sessions_opened", "count", "higher"),
    ("gateway.sessions_retained", "count", "lower"),
    ("gateway.bytes_proxied", "B", "higher"),
    ("simnet.pump.self_us", "us", "lower"),
    ("simnet.lost", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.requests", "count", "higher"),
]


class Recorder:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        # (span id, name, start ns, end ns, parent span id or 0, request id)
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.monotonic_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.monotonic_ns()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.request))

    def adopt(self, parent: int, fn):
        """Run fn on this thread as a child of span `parent` from another thread."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn()
        finally:
            stack.pop()

    def reset(self) -> None:
        """Forget what was recorded so far, e.g. during a workload's set-up."""
        self.spans.clear()
        self.counts.clear()

    def dump(self) -> dict:
        # Copies, because daemon worker threads may still be recording.
        return {"spans": list(self.spans), "counts": dict(self.counts)}


def op_name(op) -> str:
    """TrapOp.SEND_TO -> "sendto", as the socket call is spelled."""
    return op.name.lower().replace("_", "")


def _status_name(status: int) -> str:
    from appnet import errors, trap

    by_status = {
        trap.status_for_error(errors.WouldBlock("")): "would_block",
        trap.status_for_error(errors.NoSuchService("")): "no_such_service",
        trap.status_for_error(errors.ConnRefused("")): "conn_refused",
        trap.status_for_error(errors.Denied("")): "denied",
    }
    return by_status.get(status, "other")


def install(rec: Recorder) -> dict:
    """Wrap every layer boundary the per-layer metrics need.

    Returns a dict that collects the runtimes started afterwards, so a traced
    daemon can report its final state.
    """
    from appnet import names, node, realnet, simharness
    from appnet.gossip import Gossip
    from appnet.node import Node
    from appnet.service_table import ServiceTable
    from appnet.simnet import SimNetwork
    from appnet.switch import Switch
    from appnet.trap import InProcChannel, TrapOp

    started: dict = {"runtimes": []}

    def wrap_method(cls, attr: str, name: str) -> None:
        original = getattr(cls, attr)

        def wrapper(self, *args, **kwargs):
            return rec.call(name, original, self, *args, **kwargs)

        setattr(cls, attr, wrapper)

    for cls, attr, name in (
        (Node, "dispatch_trap", "node.dispatch_trap"),
        (Node, "tick", "node.tick"),
        (Node, "on_envelope", "node.on_envelope"),
        (Gossip, "tick", "gossip.tick"),
        (Gossip, "handle_envelope", "gossip.handle_envelope"),
        (ServiceTable, "lookup", "service_table.lookup"),
        (ServiceTable, "lookup_name", "service_table.lookup_name"),
        (ServiceTable, "digest", "service_table.digest"),
        (ServiceTable, "records_newer_than", "service_table.records_newer_than"),
        (ServiceTable, "digest_has_news", "service_table.digest_has_news"),
        (ServiceTable, "gc_tombstones", "service_table.gc_tombstones"),
        (SimNetwork, "pump", "simnet.pump"),
        (InProcChannel, "call", "trap.inproc.call"),
    ):
        wrap_method(cls, attr, name)

    merge_record = ServiceTable.merge_record

    def merge_wrapper(self, record, now):
        outcome = rec.call("service_table.merge_record", merge_record, self, record, now)
        rec.counts[f"service_table.merge.{outcome.name.lower()}"] += 1
        return outcome

    ServiceTable.merge_record = merge_wrapper

    tombstone_host = ServiceTable.tombstone_host

    def tombstone_host_wrapper(self, host, now):
        rec.counts["gossip.deaths_declared"] += 1
        return tombstone_host(self, host, now)

    ServiceTable.tombstone_host = tombstone_host_wrapper

    dispatch = Switch.dispatch

    def dispatch_wrapper(self, app_id, req):
        reply, transport = rec.call(f"switch.dispatch.{op_name(req.op)}", dispatch, self, app_id, req)
        if not reply.ok:
            status = _status_name(reply.status)
            rec.counts[f"switch.dispatch.errors.{status}"] += 1
            if req.op is TrapOp.ACCEPT and status == "would_block":
                rec.counts["trap.accept.would_block"] += 1
        return reply, transport

    Switch.dispatch = dispatch_wrapper

    connect_for_gateway = Switch.connect_for_gateway

    def connect_for_gateway_wrapper(self, *args, **kwargs):
        result = rec.call("switch.connect_for_gateway", connect_for_gateway, self, *args, **kwargs)
        rec.counts["gateway.sessions_opened"] += 1
        return result

    Switch.connect_for_gateway = connect_for_gateway_wrapper

    in_loop = realnet.RealNodeRuntime.in_loop

    def in_loop_wrapper(self, fn):
        def body():
            parent = rec.current()
            return in_loop(self, lambda: rec.adopt(parent, fn))

        return rec.call("realnet.in_loop", body)

    realnet.RealNodeRuntime.in_loop = in_loop_wrapper

    start = realnet.RealNodeRuntime.start

    def start_wrapper(self):
        started["runtimes"].append(self)
        return start(self)

    realnet.RealNodeRuntime.start = start_wrapper

    unix_call = realnet.UnixTrapChannel.call

    def unix_call_wrapper(self, req):
        return rec.call(f"trap.rtt.{op_name(req.op)}", unix_call, self, req)

    realnet.UnixTrapChannel.call = unix_call_wrapper

    for module in (realnet, simharness):
        encode = module.encode_envelope

        def encode_wrapper(env, _encode=encode):
            data = rec.call("gossip.encode_envelope", _encode, env)
            kind = env.kind.name.lower()
            rec.counts[f"gossip.bytes.{kind}"] += len(data)
            rec.counts[f"gossip.envelopes.{kind}"] += 1
            return data

        module.encode_envelope = encode_wrapper

    decode = node.decode_envelope
    node.decode_envelope = lambda data: rec.call("gossip.decode_envelope", decode, data)

    dns_answer = names.dns_answer
    names.dns_answer = lambda data, resolve: rec.call("names.dns_answer", dns_answer, data, resolve)
    return started


def final_state(runtime) -> dict:
    """Figures read from a stopped runtime's node."""
    sessions = runtime.node.gateway_sessions
    return {
        "records": len(runtime.node.table.records()),
        "gateway_sessions": len(sessions),
        "ext_to_int": sum(s.ext_to_int for s in sessions),
        "int_to_ext": sum(s.int_to_ext for s in sessions),
    }


# --- aggregation ---


class _Stats:
    def __init__(self) -> None:
        self.calls = 0
        self.self_ns: list[int] = []


def self_times(spans) -> dict[str, _Stats]:
    """Per span name: calls and self times (duration minus direct children)."""
    child_ns: dict[int, int] = defaultdict(int)
    for _sid, _name, start, end, parent, _req in spans:
        if parent:
            child_ns[parent] += end - start
    stats: dict[str, _Stats] = defaultdict(_Stats)
    for sid, name, start, end, _parent, _req in spans:
        entry = stats[name]
        entry.calls += 1
        entry.self_ns.append(end - start - child_ns.get(sid, 0))
    return stats


def assign_requests(spans, windows: list[tuple[int, int]]) -> list:
    """Daemon spans inside the measured windows, each given the id of its window.

    Spans from before the first or after the last window (set-up, shutdown)
    are dropped; the daemon's counters still cover its whole life.
    """
    if not windows:
        return []
    starts = [w[0] for w in windows]
    first, last = windows[0][0], windows[-1][1]
    out = []
    for sid, name, start, end, parent, _req in spans:
        if start < first or start > last:
            continue
        k = bisect_right(starts, start) - 1
        req = k + 1 if start <= windows[k][1] else 0
        out.append((sid, name, start, end, parent, req))
    return out


def aggregate(sources: list[dict], windows: list[tuple[int, int]], extra: Metrics,
              node_ticks: int = 0) -> Metrics:
    """Per-layer metrics from the recorders of every traced process.

    `sources` are Recorder dumps (plus a "final" dict for daemons); `extra`
    holds figures measured without tracing or by the workload itself;
    `node_ticks` is nodes x ticks for the sim, used for per-period rates.
    """
    stats: dict[str, _Stats] = defaultdict(_Stats)
    counts: dict[str, int] = defaultdict(int)
    requests: set[tuple[int, int]] = set()
    span_total = 0
    for index, source in enumerate(sources):
        spans = source["spans"]
        if "final" in source:
            spans = assign_requests(spans, windows)
        span_total += len(spans)
        requests.update((index, s[5]) for s in spans if s[5])
        for name, entry in self_times(spans).items():
            stats[name].calls += entry.calls
            stats[name].self_ns.extend(entry.self_ns)
        for name, value in source["counts"].items():
            counts[name] += value

    m = Metrics()

    def mean_self_us(name: str) -> float:
        entry = stats.get(name)
        if entry is None or not entry.calls:
            return 0.0
        return sum(entry.self_ns) / entry.calls / 1e3

    def calls(name: str) -> int:
        entry = stats.get(name)
        return entry.calls if entry else 0

    waits = stats.get("realnet.in_loop")
    if waits and waits.self_ns:
        wait_s = [ns / 1e9 for ns in waits.self_ns]
        m.put("realnet.in_loop.wait_us.p50", percentile(wait_s, 50) * 1e6, "us", len(wait_s))
        m.put("realnet.in_loop.wait_us.p99", percentile(wait_s, 99) * 1e6, "us", len(wait_s))
    for op in TRAP_OPS:
        entry = stats.get(f"trap.rtt.{op}")
        if entry and entry.self_ns:
            # The client-side span has no children in the generator, so its
            # self time is the whole round trip.
            m.put(f"trap.rtt.{op}.p50_us", percentile(entry.self_ns, 50) / 1e3, "us", entry.calls)
    m.put("trap.accept.would_block", counts["trap.accept.would_block"], "count")
    m.put("trap.inproc.self_us", mean_self_us("trap.inproc.call"), "us", calls("trap.inproc.call"))
    for op in SWITCH_OPS:
        name = f"switch.dispatch.{op}"
        m.put(f"{name}.self_us", mean_self_us(name), "us", calls(name))
        m.put(f"{name}.calls", calls(name), "count")
    for status in ERROR_STATUSES:
        m.put(f"switch.dispatch.errors.{status}", counts[f"switch.dispatch.errors.{status}"], "count")
    m.put("switch.connect_for_gateway.self_us", mean_self_us("switch.connect_for_gateway"), "us")
    m.put("switch.connect_for_gateway.calls", calls("switch.connect_for_gateway"), "count")
    for call in TABLE_CALLS:
        name = f"service_table.{call}"
        m.put(f"{name}.self_us", mean_self_us(name), "us", calls(name))
        m.put(f"{name}.calls", calls(name), "count")
    for outcome in ("applied", "stale", "refuted"):
        m.put(f"service_table.merge.{outcome}", counts[f"service_table.merge.{outcome}"], "count")
    for name in ("gossip.tick", "gossip.handle_envelope", "gossip.encode_envelope",
                 "gossip.decode_envelope", "names.dns_answer", "node.tick", "simnet.pump"):
        m.put(f"{name}.self_us", mean_self_us(name), "us", calls(name))
    for kind in ENVELOPE_KINDS:
        m.put(f"gossip.bytes.{kind}", counts[f"gossip.bytes.{kind}"], "B")
    from appnet.gossip import ANTI_ENTROPY_PERIOD

    node_ticks = node_ticks or calls("node.tick")
    syncs = counts["gossip.envelopes.sync"]
    m.put("gossip.sync_per_period",
          syncs * ANTI_ENTROPY_PERIOD / node_ticks if node_ticks else 0.0, "count")
    m.put("gossip.deaths_declared", counts["gossip.deaths_declared"], "count")
    merged = calls("service_table.merge_record")
    applied = counts["service_table.merge.applied"]
    m.put("gossip.delta_applied_ratio", applied / merged if merged else 0.0, "ratio", merged)
    m.put("names.dns_answer.calls", calls("names.dns_answer"), "count")
    m.put("node.on_envelope.calls", calls("node.on_envelope"), "count")
    m.put("gateway.sessions_opened", counts["gateway.sessions_opened"], "count")
    finals = [s["final"] for s in sources if "final" in s]
    m.put("gateway.sessions_retained", sum(f["gateway_sessions"] for f in finals), "count")
    m.put("gateway.bytes_proxied", sum(f["ext_to_int"] + f["int_to_ext"] for f in finals), "B")
    if finals:
        m.put("service_table.records_end", max(f["records"] for f in finals), "count")
    m.put("trace.spans", span_total, "count")
    m.put("trace.requests", len(requests), "count")
    m.values.update(extra.values)
    return m
