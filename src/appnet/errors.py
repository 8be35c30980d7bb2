"""Exception types raised across the package.

Most of these surface to applications as trap reply status codes; the mapping
lives in `appnet.trap`.
"""


class AppNetError(Exception):
    """Base class for every error this package raises on purpose."""


# --- identity / spec parsing ---

class InvalidVip(AppNetError):
    """Virtual IP is malformed or falls in an allocator-owned pool."""


class InvalidTag(AppNetError):
    """Tag is not a well-formed key=value pair."""


class InvalidName(AppNetError):
    """Name is not a valid DNS label sequence."""


class InvalidSpec(AppNetError):
    """Application spec arguments do not follow the CLI grammar."""


# --- service table ---

class DuplicateAppBinding(AppNetError):
    """The same application already holds this service key."""


class AmbiguousName(AppNetError):
    """A name maps to more than one virtual IP across live entries."""


# --- trap / switch ---

class DecodeError(AppNetError):
    """Wire bytes could not be decoded."""


class AttachFailed(AppNetError):
    """Sandbox channel could not be attached."""


class BadHandle(AppNetError):
    """Unknown handle id, or the handle is in the wrong role for the call."""


class AddrInUse(AppNetError):
    """This application already bound the requested service port."""


class Unidentified(AppNetError):
    """Anonymous applications cannot register a service."""


class NoSuchService(AppNetError):
    """No live entry for the requested virtual address."""


class Denied(AppNetError):
    """Segmentation policy rejected the connection."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class ConnRefused(AppNetError):
    """Transport establishment failed for every candidate."""


class NotConnected(AppNetError):
    """Name query on a handle without an established connection."""


class MessageTooLong(AppNetError):
    """Datagram payload exceeds the supported maximum."""


class WouldBlock(AppNetError):
    """Non-blocking operation had nothing to deliver."""


# --- allocation ---

class PoolExhausted(AppNetError):
    """No free address remains in the allocation pool."""


# --- gateway ---

class NoGateway(AppNetError):
    """No live gateway node to expose through."""


class PortUnavailable(AppNetError):
    """Requested external port is already bound on the chosen gateway."""


# --- node / CLI ---

class UnknownApp(AppNetError):
    """No such application on this node."""


class BindFailed(AppNetError):
    """Node could not bind its configured address."""


class DaemonUnreachable(AppNetError):
    """No daemon is listening on the run directory's control socket."""


# --- simulation harness ---

class ScriptError(AppNetError):
    """Cluster script could not be parsed or refers to unknown labels."""


class AssertionFailed(AppNetError):
    """A scripted assertion did not hold."""

    def __init__(self, tick: int, expected: object, observed: object):
        super().__init__(f"tick {tick}: expected {expected!r}, observed {observed!r}")
        self.tick = tick
        self.expected = expected
        self.observed = observed
