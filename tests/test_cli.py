import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from appnet.cli import EXIT_NO_DAEMON, EXIT_SPEC, main
from appnet.realnet import free_port

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _appnet(args, run_dir, timeout=30, **kwargs):
    env = dict(os.environ)
    env["APPNET_RUN_DIR"] = str(run_dir)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "appnet.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        **kwargs,
    )


@pytest.fixture
def daemon(tmp_path):
    port = free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "appnet.cli", "daemon",
            "--bind", f"127.0.0.1:{port}",
            "--run-dir", str(tmp_path),
            "--period-ms", "50",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    control = tmp_path / "control.sock"
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline and not control.exists():
        time.sleep(0.05)
    assert control.exists(), "daemon never created its control socket"
    try:
        yield tmp_path
    finally:
        process.send_signal(signal.SIGTERM)
        # communicate(), not wait(): it also reads and closes both pipes.
        try:
            process.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()


SERVER_PROGRAM = r"""
import sys
from ipaddress import IPv4Address
from appnet.realnet import connect_shim
from appnet.trap import HandleKind

shim = connect_shim()
h = shim.socket(HandleKind.STREAM)
vip, port = shim.bind(h, (IPv4Address("0.0.0.0"), 80))
print(f"bound {vip}:{port}", flush=True)
shim.listen(h)
conn, peer, sock = shim.accept(h)
print(f"peer {peer[0]}:{peer[1]}", flush=True)
data = sock.recv(65536)
sock.sendall(data.upper())
sock.close()
"""

CLIENT_PROGRAM = r"""
import sys
from ipaddress import IPv4Address
from appnet.realnet import connect_shim
from appnet.trap import HandleKind
from appnet import names

shim = connect_shim()
r = shim.socket(HandleKind.DATAGRAM)
shim.sendto(r, (IPv4Address("127.0.0.1"), 53), names.build_query(5, "upper"))
_, response = shim.recvfrom(r)
_, rcode, vip, ttl = names.parse_answer(response)
assert rcode == 0, f"rcode {rcode}"
h = shim.socket(HandleKind.STREAM)
sock = shim.connect(h, (vip, 80))
sock.sendall(b"hello appnet")
print(sock.recv(65536).decode(), flush=True)
sock.close()
"""


def test_run_list_remove_round_trip(daemon):
    run_dir = daemon
    server = None
    env = dict(os.environ)
    env["APPNET_RUN_DIR"] = str(run_dir)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "appnet.cli", "run",
            "--name", "upper", "--ip", "10.77.0.1", "--tag", "grp=cli",
            "--", sys.executable, "-c", SERVER_PROGRAM,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 20
        listed = ""
        while time.monotonic() < deadline:
            result = _appnet(["list"], run_dir)
            if "10.77.0.1:80" in result.stdout:
                listed = result.stdout
                break
            time.sleep(0.1)
        assert "10.77.0.1:80" in listed, f"service never listed: {listed!r}"
        fields = [l for l in listed.splitlines() if l.startswith("10.77.0.1:80")][0].split("\t")
        assert fields[3] == "alive"
        assert fields[5] == "upper"
        assert fields[6] == "grp=cli"

        client = _appnet(
            ["run", "--tag", "grp=cli", "--", sys.executable, "-c", CLIENT_PROGRAM],
            run_dir,
            timeout=40,
        )
        assert client.returncode == 0, client.stderr
        assert client.stdout.strip() == "HELLO APPNET"

        server_out, server_err = server.communicate(timeout=20)
        assert server.returncode == 0, server_err
        assert "bound 10.77.0.1:80" in server_out
        assert "peer 169.254." in server_out  # anonymous client identity
    finally:
        if server.poll() is None:
            server.kill()
    # The server exited, so its registration is gone.
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if "alive" not in _appnet(["list"], run_dir).stdout:
            break
        time.sleep(0.1)
    assert "alive" not in _appnet(["list"], run_dir).stdout


def test_bad_spec_exits_2(daemon):
    result = _appnet(
        ["run", "--ip", "169.254.0.9", "--", "true"], daemon
    )
    assert result.returncode == EXIT_SPEC
    assert "pool" in result.stderr


def test_unreachable_daemon_exits_3(tmp_path):
    result = _appnet(["list"], tmp_path / "nowhere")
    assert result.returncode == EXIT_NO_DAEMON


def test_run_requires_separator(tmp_path):
    assert main(["run", "echo", "hi"]) == EXIT_SPEC


def test_run_dir_without_a_path_exits_2(capsys):
    assert main(["run", "--run-dir", "--", "true"]) == EXIT_SPEC
    assert capsys.readouterr().err == "appnet: --run-dir needs a path\n"


def test_remove_unknown_app_reports_error(daemon):
    result = _appnet(["remove", "no-such-app"], daemon)
    assert result.returncode == 1
    assert "no-such-app" in result.stderr or "UnknownApp" in result.stderr
