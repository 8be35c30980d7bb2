"""The appnet benchmark: one command, three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload <connect_mix|gateway_stream|cluster_churn>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. With --trace 0 the run is untraced and
its last stdout line holds the end-to-end metrics. With --trace 1 the time is
split: an untraced half, then a traced half in which spans are recorded around
the calls into each layer (in this process and, through traced_daemon.py, in
the daemons); the last line then holds the per-layer metrics, the untraced
figures of the workload's named metrics (e2e.*) and the tracing overhead
(traced minus untraced end-to-end values). The line before it is a report
with provenance, sample counts and any errors. Exit code 0 means every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import common
import hostspeed
from common import Metrics, SetupError, median

WORKLOADS = ("connect_mix", "gateway_stream", "cluster_churn")

# An untraced run of a real-socket workload is split into this many epochs,
# each on freshly started daemons; setup_s is the median of their set-ups.
# The sim cluster's set-up is ~10 s of deterministic work and is done once,
# its time scaled like the timings below; its measured ticks are one epoch.
EPOCHS = {"connect_mix": 5, "gateway_stream": 5, "cluster_churn": 1}

# The operation behind op_*: the client's calls of a connect_mix cycle (two
# DNS queries, two socket+connect), a gateway_stream phase-2 write of 64 KiB
# and its echo, a cluster_churn read pair (resolve, then connect).
# cpu_us_per_op is the CPU the system under test used (the daemons, or the
# simulator's own process) per completed operation. On a shared 2-vCPU
# machine the same pure-Python work ran 30-70 % slower in some seconds or
# minutes than in others. Where a fixed reference task (hostspeed.py) was
# measured to track a figure, each epoch's figure is scaled to a reference
# host speed: both figures of connect_mix and of cluster_churn.
# gateway_stream's round trips and daemon CPU, much of it kernel socket
# copies, do not track it and stay unscaled. Both figures are the median of
# the epochs' figures. Tail latencies are reported (op_p95_ms and the named
# figures) but not gated: a gateway session's p95 moved by more than half
# between runs of the same code.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("cpu_us_per_op", "us"),
)

# The workloads' own end-to-end figures, reported untraced in the report line
# and, as e2e.<name>, in the traced run.
NAMED = (
    ("op_p95_ms", "ms"),
    ("dns_p50_ms", "ms"),
    ("dns_p99_ms", "ms"),
    ("connect_local_p50_ms", "ms"),
    ("connect_local_p99_ms", "ms"),
    ("connect_remote_p50_ms", "ms"),
    ("connect_remote_p99_ms", "ms"),
    ("accept_remote_p99_ms", "ms"),
    ("proxy_session_p50_ms", "ms"),
    ("proxy_session_p99_ms", "ms"),
    ("proxy_mb_s", "MB/s"),
    ("node_tick_us", "us"),
    ("read_p50_us", "us"),
    ("converge_ticks_p99", "ticks"),
    ("gossip_bytes_per_node_tick", "B"),
)


def _measure(workload: str, seed: int, seconds: float, traced: bool, epochs: int, recorder=None):
    if workload == "connect_mix":
        import connect_mix

        out = connect_mix.run(seed, seconds, traced=traced, epochs=epochs, recorder=recorder)
    elif workload == "gateway_stream":
        import gateway_stream

        out = gateway_stream.run(seed, seconds, traced=traced, epochs=epochs)
    else:
        import cluster_churn

        out = cluster_churn.run(seed, seconds, recorder=recorder)
    if out.op_s:
        out.named.timing("op", out.op_s, "ms", pcts=(95,))
    return out


def _end_to_end(out) -> Metrics:
    m = Metrics()
    m.put("setup_s", median(out.setup_s), "s", len(out.setup_s))
    if out.epochs:
        m.put("op_p50_ms", median([median(e.op_s) * e.speed for e in out.epochs]) * 1e3, "ms",
              len(out.op_s))
    costs = [e.cpu_s / e.done * e.cpu_speed for e in out.epochs if e.cpu_s > 0 and e.done > 0]
    if costs:
        m.put("cpu_us_per_op", median(costs) * 1e6, "us", out.attempted - out.failed)
    return m


def _unscaled(out) -> dict:
    """Each epoch's end-to-end figures before scaling, and the reference task's median."""
    return {
        "op_p50_ms": [median(e.op_s) * 1e3 for e in out.epochs],
        "cpu_us_per_op": [e.cpu_s / e.done * 1e6 for e in out.epochs if e.done],
        "reference_ms": [hostspeed.REFERENCE_S / e.speed * 1e3 for e in out.epochs if out.scaled],
    }


def _check_gateway_bytes(out) -> None:
    """The gateway's session counters must match what the external clients got back."""
    finals = [t["final"] for t in out.daemon_traces if "final" in t]
    proxied_out = sum(f["int_to_ext"] for f in finals)
    proxied_in = sum(f["ext_to_int"] for f in finals)
    echoed = out.client_bytes["echoed"]
    if proxied_out != echoed or proxied_in != proxied_out:
        out.fail(1, f"gateway counters: in {proxied_in} B, out {proxied_out} B; client got {echoed} B")


def _traced(workload: str, seed: int, seconds: float):
    """Untraced half, then traced half; returns (per-layer metrics, outcomes)."""
    import tracing

    base = _measure(workload, seed, seconds / 2, traced=False, epochs=1)
    recorder = tracing.Recorder()
    tracing.install(recorder)
    traced = _measure(workload, seed, seconds / 2, traced=True, epochs=1, recorder=recorder)
    extra = Metrics()
    extra.values.update(base.layer.values)
    for name, unit in NAMED:
        if name in base.named.values:
            extra.put(f"e2e.{name}", base.named.get(name), unit, base.named.values[name].get("samples"))
    untraced_e2e, traced_e2e = _end_to_end(base), _end_to_end(traced)
    for name, unit in END_TO_END[1:]:
        if name in traced_e2e.values and name in untraced_e2e.values:
            extra.put(f"trace_overhead.{name}", traced_e2e.get(name) - untraced_e2e.get(name), unit)
    layer = tracing.aggregate([recorder.dump(), *traced.daemon_traces], traced.windows, extra,
                              node_ticks=traced.node_ticks)
    # A layer or figure this workload does not exercise reads 0.
    for name, unit, _better in per_layer_names():
        if name not in layer.values:
            layer.put(name, 0, unit)
    if workload == "gateway_stream":
        _check_gateway_bytes(traced)
    return layer, [base, traced]


def per_layer_names() -> list[tuple[str, str, str]]:
    import tracing

    names = list(tracing.PER_LAYER)
    names += [(f"e2e.{name}", unit, "higher" if unit == "MB/s" else "lower") for name, unit in NAMED]
    names += [(f"trace_overhead.{name}", unit, "lower") for name, unit in END_TO_END[1:]]
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    common.require_source()
    # A SIGTERM unwinds through the finally blocks that stop the daemons.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    try:
        if args.trace:
            metrics, outcomes = _traced(args.workload, args.seed, args.seconds)
            wanted = per_layer_names()
        else:
            outcome = _measure(args.workload, args.seed, args.seconds, traced=False,
                               epochs=EPOCHS[args.workload])
            metrics, outcomes = _end_to_end(outcome), [outcome]
            wanted = [(name, unit, "") for name, unit in END_TO_END]
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 3
    finally:
        leftovers = common.leftover_processes()
        common.kill_and_wait(leftovers)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    errors = [e for o in outcomes for e in o.errors]
    if leftovers:
        failed += 1
        errors.append(f"benchmark processes still alive after the run: {leftovers}")
    missing = [name for name, _unit, _ in wanted if name not in metrics.values]
    if missing:
        errors.append(f"metrics not measured: {missing}")
    correct = failed == 0 and not missing
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": common.provenance(),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "setup_s_samples": [s for o in outcomes for s in o.setup_s],
        "unscaled_per_epoch": [_unscaled(o) for o in outcomes],
        "ops_per_s": [(o.attempted - o.failed) / o.measured_s for o in outcomes if o.measured_s],
        "named": dict(zip(("untraced", "traced"), (o.named.values for o in outcomes))),
        "untraced_layer": outcomes[0].layer.values,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": metrics.values[name]["value"], "unit": unit}
            for name, unit, _ in wanted
            if name in metrics.values
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
