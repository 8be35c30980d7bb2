"""Echo service run inside an appnet sandbox by `appnet run`.

Usage: python3 perfbench/echo_app.py <service-port>

Binds the service port through the trap channel named by APPNET_TRAP_SOCKET,
accepts in the main thread and echoes each connection on its own thread. It
exits when the daemon closes the trap channel.
"""

import sys
import threading
from ipaddress import IPv4Address

from appnet.errors import AppNetError
from appnet.realnet import connect_shim
from appnet.trap import HandleKind


def _echo(sock) -> None:
    with sock:
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return
                sock.sendall(chunk)
        except OSError:
            return


def main() -> int:
    port = int(sys.argv[1])
    shim = connect_shim()
    listener = shim.socket(HandleKind.STREAM)
    shim.bind(listener, (IPv4Address("0.0.0.0"), port))
    shim.listen(listener)
    while True:
        try:
            handle, _peer, sock = shim.accept(listener)
            shim.close(handle)
        except (AppNetError, ConnectionError, OSError):
            return 0
        threading.Thread(target=_echo, args=(sock,), daemon=True).start()


if __name__ == "__main__":
    sys.exit(main())
