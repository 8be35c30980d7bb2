"""The appnet command line.

    appnet daemon --bind <ip:port> [--join <ip:port>] [--gateway]
                  [--strategy rr|rendezvous] [--run-dir <path>]
    appnet run [--name N] [--ip A] [--tag k=v]... [--expose [port]] -- <program> [args...]
    appnet list
    appnet remove <app_id>
    appnet bench --size <bytes> --seconds <s>

APPNET_RUN_DIR overrides the run directory. Exit codes: 0 ok, 2 bad
application spec, 3 daemon unreachable.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile

from appnet.errors import (
    AppNetError,
    DaemonUnreachable,
    InvalidName,
    InvalidSpec,
    InvalidTag,
    InvalidVip,
)
from appnet.model import RealEndpoint, parse_app_spec, parse_endpoint
from appnet.node import NodeConfig
from appnet.switch import SelectionStrategy, StrategyMode

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SPEC = 2
EXIT_NO_DAEMON = 3

_SPEC_ERRORS = (InvalidVip, InvalidTag, InvalidName, InvalidSpec)


def default_run_dir() -> str:
    return os.environ.get(
        "APPNET_RUN_DIR", os.path.join(tempfile.gettempdir(), "appnet")
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="appnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    with_run_dir = argparse.ArgumentParser(add_help=False)
    with_run_dir.add_argument("--run-dir", default=None)

    daemon = sub.add_parser("daemon", parents=[with_run_dir], help="run the per-host node")
    daemon.add_argument("--bind", required=True, metavar="IP:PORT")
    daemon.add_argument("--join", metavar="IP:PORT")
    daemon.add_argument("--gateway", action="store_true")
    daemon.add_argument("--strategy", choices=["rr", "rendezvous"], default="rendezvous")
    daemon.add_argument("--period-ms", type=int, default=200, help=argparse.SUPPRESS)

    # Spec flags and the program are split on "--" before argparse sees them.
    sub.add_parser("run", parents=[with_run_dir], help="run a program inside an appnet sandbox")
    sub.add_parser("list", parents=[with_run_dir], help="print the service table")
    remove = sub.add_parser("remove", parents=[with_run_dir], help="remove an application")
    remove.add_argument("app_id")

    bench = sub.add_parser("bench", help="same-host fast path vs loopback TCP")
    bench.add_argument("--size", type=int, default=65536)
    bench.add_argument("--seconds", type=float, default=1.0)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "run":
        return _cmd_run(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "daemon":
            return _cmd_daemon(args)
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "remove":
            return _cmd_remove(args)
        if args.command == "bench":
            return _cmd_bench(args)
    except _SPEC_ERRORS as exc:
        print(f"appnet: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except DaemonUnreachable as exc:
        print(f"appnet: {exc}", file=sys.stderr)
        return EXIT_NO_DAEMON
    except AppNetError as exc:
        print(f"appnet: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_ERROR


def _cmd_daemon(args) -> int:
    from appnet.realnet import RealNodeRuntime

    bind_ip, bind_port = parse_endpoint(args.bind)
    join = None
    if args.join:
        join_ip, join_port = parse_endpoint(args.join)
        join = RealEndpoint(join_ip, join_port)
    config = NodeConfig(
        bind=RealEndpoint(bind_ip, bind_port),
        join=join,
        gateway=args.gateway,
        strategy=SelectionStrategy(mode=StrategyMode(args.strategy)),
    )
    run_dir = args.run_dir or default_run_dir()
    runtime = RealNodeRuntime(config, run_dir, period_ms=args.period_ms).start()
    print(f"appnet daemon {runtime.node.host.hex()} on {args.bind}", flush=True)
    stop = {"flag": False}

    def handle_signal(signum, frame) -> None:
        stop["flag"] = True

    signal.signal(signal.SIGTERM, handle_signal)
    signal.signal(signal.SIGINT, handle_signal)
    try:
        while not stop["flag"]:
            signal.pause()
    finally:
        runtime.stop()
    return EXIT_OK


def _cmd_run(argv: list[str]) -> int:
    from appnet.realnet import ControlClient

    if "--" not in argv:
        print("appnet: run needs '-- <program> [args...]'", file=sys.stderr)
        return EXIT_SPEC
    split = argv.index("--")
    flags, command = argv[:split], argv[split + 1 :]
    if not command:
        print("appnet: no program given after '--'", file=sys.stderr)
        return EXIT_SPEC
    run_dir = default_run_dir()
    spec_args = []
    i = 0
    while i < len(flags):
        if flags[i] == "--run-dir":
            if i + 1 == len(flags):
                print("appnet: --run-dir needs a path", file=sys.stderr)
                return EXIT_SPEC
            run_dir = flags[i + 1]
            i += 2
        else:
            spec_args.append(flags[i])
            i += 1
    try:
        parse_app_spec(spec_args)  # fail fast, before touching the daemon
    except _SPEC_ERRORS as exc:
        print(f"appnet: {exc}", file=sys.stderr)
        return EXIT_SPEC
    control = ControlClient(run_dir)
    try:
        added = control.call({"op": "add", "args": spec_args})
    except DaemonUnreachable as exc:
        print(f"appnet: {exc}", file=sys.stderr)
        return EXIT_NO_DAEMON
    if not added.get("ok"):
        print(f"appnet: {added.get('detail', added)}", file=sys.stderr)
        return EXIT_SPEC if added.get("error", "").startswith("Invalid") else EXIT_ERROR
    env = dict(os.environ)
    env["APPNET_TRAP_SOCKET"] = added["trap"]
    env["APPNET_APP_ID"] = added["app_id"]
    env["APPNET_VIP"] = added["vip"]
    env["APPNET_RUN_DIR"] = run_dir
    try:
        completed = subprocess.run(command, env=env)
        return completed.returncode
    finally:
        try:
            control.call({"op": "remove", "app_id": added["app_id"]})
        except (DaemonUnreachable, AppNetError):
            pass


def _cmd_list(args) -> int:
    from appnet.realnet import ControlClient

    response = ControlClient(args.run_dir or default_run_dir()).call({"op": "list"})
    dump = response.get("dump", "")
    if dump:
        print(dump)
    return EXIT_OK


def _cmd_remove(args) -> int:
    from appnet.realnet import ControlClient

    response = ControlClient(args.run_dir or default_run_dir()).call(
        {"op": "remove", "app_id": args.app_id}
    )
    if not response.get("ok"):
        print(f"appnet: {response.get('detail', response)}", file=sys.stderr)
        return EXIT_ERROR
    print(f"removed {args.app_id} ({response['tombstoned']} entries tombstoned)")
    return EXIT_OK


def _cmd_bench(args) -> int:
    from appnet.bench import run_bench

    result = run_bench(args.size, args.seconds)
    print(result.csv_row())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
