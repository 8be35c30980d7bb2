"""A traced appnet daemon: the same RealNodeRuntime `appnet daemon` runs.

Usage: python3 perfbench/traced_daemon.py --spans <file> <appnet daemon args>

Installs the span wrappers from tracing.py, then runs appnet's own daemon
command. Spans stay in memory; when SIGTERM stops the daemon they are
written to <file> as JSON together with the node's final state.
"""

import json
import sys
from pathlib import Path

from common import require_source


def main() -> int:
    args = sys.argv[1:]
    if len(args) < 2 or args[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path = Path(args[1])
    require_source()
    import tracing
    from appnet import cli

    recorder = tracing.Recorder()
    started = tracing.install(recorder)
    code = cli.main(["daemon", *args[2:]])
    dump = recorder.dump()
    if started["runtimes"]:
        dump["final"] = tracing.final_state(started["runtimes"][0])
    partial = spans_path.with_suffix(".partial")
    partial.write_text(json.dumps(dump))
    partial.replace(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
