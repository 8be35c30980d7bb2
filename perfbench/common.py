"""Shared pieces of the benchmark: statistics, provenance, daemon processes.

Everything here runs from the root of a source checkout. Daemons are the
unmodified `appnet daemon` (``python3 -m appnet.cli daemon``) or, for traced
runs, ``perfbench/traced_daemon.py``; their run directories live under
``.perfbench-run/`` in the checkout and are removed when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import Probe

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
RUN_BASE = Path(".perfbench-run")
LOCALHOST = "127.0.0.1"

START_ATTEMPTS = 5
DAEMON_START_TIMEOUT = 15.0
STOP_GRACE = 3.0
TRACED_STOP_GRACE = 20.0  # a traced daemon writes its spans before exiting


class SetupError(RuntimeError):
    """The workload could not reach its first measured operation."""


class CheckFailed(RuntimeError):
    """An output of the program was not what the workload expects."""


def require_source() -> None:
    """Exit non-zero, printing no result, when the checkout has no sources."""
    if not (SRC / "appnet" / "__init__.py").is_file():
        print(f"perfbench: no appnet sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# --- statistics ---


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50)


class Metrics:
    """Named values with units and the sample counts behind them."""

    def __init__(self) -> None:
        self.values: dict[str, dict] = {}

    def put(self, name: str, value: float, unit: str, samples: int | None = None) -> None:
        entry = {"value": value, "unit": unit}
        if samples is not None:
            entry["samples"] = samples
        self.values[name] = entry

    def timing(self, prefix: str, samples_s: list[float], unit: str, pcts=(50, 99)) -> None:
        """Record percentiles of samples given in seconds, scaled to `unit`."""
        scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        for q in pcts:
            self.put(f"{prefix}_p{q}_{unit}", percentile(samples_s, q) * scale, unit, len(samples_s))

    def get(self, name: str) -> float:
        return self.values[name]["value"]


# --- provenance (reads /proc and the checkout only) ---


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if ref.startswith("ref: "):
        try:
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        except OSError:
            return None
    return ref


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "appnet").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256_16": _source_digest(),
        "network": "loopback interface only; no real link is crossed",
    }


# --- /proc readings of one process ---


def proc_cpu_s(pid: int) -> float:
    """utime + stime of a process, in seconds."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_status(pid: int) -> dict[str, int]:
    """Threads and VmRSS (kB) of a process."""
    out = {}
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        key, _, rest = line.partition(":")
        if key in ("Threads", "VmRSS"):
            out[key] = int(rest.split()[0])
    return out


# --- ports ---


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind((LOCALHOST, 0))
        return probe.getsockname()[1]


def wait_for(predicate, timeout: float, interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# --- daemon processes ---


class Daemon:
    def __init__(self, label: str, process: subprocess.Popen, run_dir: Path, port: int,
                 spans_path: Path | None) -> None:
        self.label = label
        self.process = process
        self.run_dir = run_dir
        self.port = port
        self.spans_path = spans_path

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def endpoint(self) -> str:
        return f"{LOCALHOST}:{self.port}"

    def alive(self) -> bool:
        return self.process.poll() is None


class DaemonSet:
    """Starts daemons for one workload and always stops them again.

    Use as a context manager: on exit every daemon gets SIGTERM, then SIGKILL
    after a grace period, is waited for, and the run directories are removed.
    """

    def __init__(self, traced: bool = False) -> None:
        self.traced = traced
        self.daemons: list[Daemon] = []
        self.apps: list[subprocess.Popen] = []
        self.base = RUN_BASE / f"{os.getpid()}-{time.monotonic_ns() % 10**9}"
        self.base.mkdir(parents=True, exist_ok=True)

    def __enter__(self) -> "DaemonSet":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def start(self, label: str, join: Daemon | None = None, gateway: bool = False) -> Daemon:
        """Start one daemon on a fresh loopback port, retrying when the port races."""
        run_dir = self.base / label
        last_error = ""
        for _ in range(START_ATTEMPTS):
            port = free_port()
            args = ["--bind", f"{LOCALHOST}:{port}", "--run-dir", str(run_dir)]
            if join is not None:
                args += ["--join", join.endpoint]
            if gateway:
                args.append("--gateway")
            spans_path = None
            if self.traced:
                spans_path = self.base / f"{label}.spans.json"
                command = [sys.executable, str(BENCH_DIR / "traced_daemon.py"),
                           "--spans", str(spans_path), *args]
            else:
                command = [sys.executable, "-m", "appnet.cli", "daemon", *args]
            if run_dir.exists():
                shutil.rmtree(run_dir)
            log_path = self.base / f"{label}.log"
            with open(log_path, "wb") as log:
                process = subprocess.Popen(command, env=self._env(), stdout=log,
                                           stderr=subprocess.STDOUT, cwd=ROOT)
            daemon = Daemon(label, process, run_dir, port, spans_path)
            self.daemons.append(daemon)
            if wait_for(lambda: self._started(daemon, log_path), DAEMON_START_TIMEOUT):
                if daemon.alive():
                    return daemon
            last_error = log_path.read_text(errors="replace")[-400:]
            self._stop_one(daemon)
            self.daemons.remove(daemon)
            if "Address already in use" not in last_error:
                break
        raise SetupError(f"daemon {label} did not start: {last_error.strip()}")

    @staticmethod
    def _started(daemon: Daemon, log_path: Path) -> bool:
        if not daemon.alive():
            return True  # stop waiting; the caller sees it died
        return (daemon.run_dir / "control.sock").exists() and "appnet daemon" in log_path.read_text(
            errors="replace")

    def _stop_one(self, daemon: Daemon) -> None:
        if daemon.alive():
            daemon.process.send_signal(signal.SIGTERM)
            try:
                daemon.process.wait(timeout=TRACED_STOP_GRACE if self.traced else STOP_GRACE)
            except subprocess.TimeoutExpired:
                daemon.process.kill()
        daemon.process.wait()

    def run_app(self, daemon: Daemon, spec_args: list[str], program: list[str]) -> subprocess.Popen:
        """`appnet run` a program in its own process group against `daemon`."""
        command = [sys.executable, "-m", "appnet.cli", "run", "--run-dir", str(daemon.run_dir),
                   *spec_args, "--", *program]
        log = open(self.base / f"app{len(self.apps)}.log", "wb")
        with log:
            process = subprocess.Popen(command, env=self._env(), stdout=log, stderr=subprocess.STDOUT,
                                       cwd=ROOT, start_new_session=True)
        self.apps.append(process)
        return process

    def terminate(self) -> None:
        """SIGTERM, then SIGKILL; wait for every app and daemon to end."""
        for app in self.apps:
            # The group holds `appnet run` and the program it started.
            for sig in (signal.SIGTERM, signal.SIGKILL):
                try:
                    os.killpg(app.pid, sig)
                except ProcessLookupError:
                    break
                try:
                    app.wait(timeout=STOP_GRACE)
                except subprocess.TimeoutExpired:
                    pass
            app.wait()
        for daemon in self.daemons:
            if daemon.alive():
                daemon.process.send_signal(signal.SIGTERM)
        for daemon in self.daemons:
            self._stop_one(daemon)

    def stop(self) -> None:
        """Terminate every daemon and remove the run directories."""
        self.terminate()
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            RUN_BASE.rmdir()
        except OSError:
            pass

    def read_traces(self) -> list[dict]:
        """What each traced daemon wrote when it stopped; call after terminate()."""
        return [
            json.loads(d.spans_path.read_text())
            for d in self.daemons
            if d.spans_path is not None and d.spans_path.exists()
        ]

    def any_dead(self) -> bool:
        return any(not d.alive() for d in self.daemons)

    def crashed(self) -> list[str]:
        return [d.label for d in self.daemons if not d.alive()]


def kill_and_wait(pids: list[int], timeout: float = 5.0) -> None:
    """SIGKILL processes that are not our children and wait until they are gone."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    wait_for(lambda: not any(_running(pid) for pid in pids), timeout)


def _running(pid: int) -> bool:
    """True while the process exists and is not a zombie (whose cmdline is empty)."""
    try:
        return bool(Path(f"/proc/{pid}/cmdline").read_bytes())
    except OSError:
        return False


def leftover_processes() -> list[int]:
    """Pids of daemons and apps this benchmark process started that still run."""
    marker = f"{RUN_BASE}/{os.getpid()}-".encode()  # DaemonSet.base
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
            environ = (entry / "environ").read_bytes()
            cwd = os.readlink(entry / "cwd")
        except OSError:
            continue
        if cwd == str(ROOT) and (marker in cmdline or marker in environ):
            found.append(int(entry.name))
    return found


# --- what a workload run hands back ---


@dataclass
class Epoch:
    """One daemon lifetime (or the sim's measured ticks): what it measured, how fast the host ran."""

    op_s: list[float]
    cpu_s: float
    done: int
    speed: float  # hostspeed scale of the epoch's op times, or 1
    cpu_speed: float  # hostspeed scale of its CPU time, or 1


@dataclass
class Outcome:
    """One measured pass of a workload, traced or not."""

    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    measured_s: float = 0.0
    cpu_s: float = 0.0  # CPU the system under test used while measured
    named: Metrics = field(default_factory=Metrics)
    layer: Metrics = field(default_factory=Metrics)
    errors: list[str] = field(default_factory=list)
    daemon_traces: list[dict] = field(default_factory=list)
    client_bytes: dict = field(default_factory=dict)
    node_ticks: int = 0
    windows: list[tuple[int, int]] = field(default_factory=list)
    # Samples of the hostspeed reference task, and whether they scale the
    # epochs' figures: only where the task was measured to track them.
    probe: Probe = field(default_factory=Probe)
    scaled: bool = False
    epochs: list[Epoch] = field(default_factory=list)
    _mark: tuple[int, float, int, int] = (0, 0.0, 0, 0)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(why)

    def begin_epoch(self) -> None:
        self._mark = (len(self.op_s), self.cpu_s, self.attempted - self.failed, self.probe.mark())

    def end_epoch(self) -> None:
        """Close the epoch; one without operations is dropped."""
        start, cpu0, done0, probe0 = self._mark
        probe1 = self.probe.mark()
        if len(self.op_s) == start:
            return
        speed = self.probe.scale(probe0, probe1) if self.scaled else 1.0
        cpu_speed = self.probe.scale(probe0, probe1, cpu=True) if self.scaled else 1.0
        self.epochs.append(Epoch(self.op_s[start:], self.cpu_s - cpu0,
                                 self.attempted - self.failed - done0, speed, cpu_speed))


class DaemonWatch:
    """Samples thread counts of daemons while a workload runs (reads /proc)."""

    def __init__(self, daemons: list[Daemon], interval: float = 0.25) -> None:
        self.daemons = daemons
        self.interval = interval
        self.threads_peak = 0
        self._next = 0.0

    def sample(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now < self._next:
            return
        self._next = now + self.interval
        for daemon in self.daemons:
            try:
                threads = proc_status(daemon.pid)["Threads"]
            except (OSError, KeyError):
                continue
            self.threads_peak = max(self.threads_peak, threads)

    def cpu_s(self) -> float:
        return sum(proc_cpu_s(d.pid) for d in self.daemons)

    def record_end(self, layer: Metrics) -> None:
        """Threads and RSS of the busiest daemon now; the peak stays in threads_peak."""
        self.sample(force=True)
        ends = [proc_status(d.pid) for d in self.daemons if d.alive()]
        layer.put("realnet.threads_end", max((e["Threads"] for e in ends), default=0), "count")
        layer.put("realnet.rss_kb_end", max((e["VmRSS"] for e in ends), default=0), "kB")
