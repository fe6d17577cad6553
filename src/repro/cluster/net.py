"""Network transport for the cluster: TCP/Unix listener + client library.

PR 6's :class:`~repro.cluster.gateway.ClusterService` is in-host only —
callers must share the gateway's process. This module puts a real
listener in front of it so predict / yield / load / canary traffic
crosses process *and* host boundaries over the same length-prefixed
frame protocol the gateway already speaks to its shards
(:mod:`repro.cluster.protocol`).

:class:`ClusterListener`
    Accepts ``"host:port"`` (TCP, port 0 picks a free one) or
    ``"unix:PATH"`` addresses and serves client connections **on the
    gateway's own event loop** — each frame is dispatched straight to
    the service's async internals (``_predict_async`` & friends), never
    through the blocking façade (which would deadlock the loop). One
    connection serves one request at a time; clients open more
    connections for parallelism. Errors cross the wire as structured
    ``error`` frames carrying an ``etype`` from the serving taxonomy
    (``shed`` / ``deadline`` / ``crash`` / ``protocol`` /
    ``validation`` / ``serving``) so the client re-raises the same
    exception class the in-process API would have raised. A malformed
    or oversized frame is answered with a ``protocol`` error frame and
    the connection closed — never a listener death. The ``"net"``
    fault-injection site fires once per client frame: ``net:drop@i``
    closes the connection unanswered, ``net:slow@i:secs`` delays the
    answer.

:class:`ClusterClient` / :class:`AsyncClusterClient`
    Blocking (thread-safe, one request in flight per connection) and
    asyncio clients sharing one surface, written once: ``predict``,
    ``predict_many``, ``yield_report``, ``load``, ``set_canary``,
    ``promote``, ``clear_canary``, ``describe_routes``, ``report``,
    ``ping``. The asyncio client's methods return awaitables.

Deadlines on the wire are **relative**: a client ships ``deadline_s``
(seconds of budget), the gateway anchors it on its own
``time.monotonic()`` clock, and shard frames carry the remaining budget
re-stamped at write time — no wall-clock instant ever crosses a machine
boundary, so NTP steps and cross-host clock skew cannot expire or
immortalize a request.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import socket
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.gateway import (
    _decode_results,
    _parse_specs,
    _validate_predict,
)
from repro.cluster.protocol import (
    ProtocolError,
    read_frame,
    read_frame_async,
    send_frame,
    write_frame_async,
)
from repro.errors import (
    DeadlineError,
    ServingError,
    ShardCrashError,
    ShedError,
)
from repro.faults import FaultPlan
from repro.serving.requests import PredictionResult

__all__ = [
    "AsyncClusterClient",
    "ClusterClient",
    "ClusterListener",
    "parse_address",
]


def parse_address(address: str) -> Tuple[str, Union[Tuple[str, int], str]]:
    """Parse ``"host:port"`` / ``"unix:PATH"`` into ``(scheme, target)``.

    Returns ``("tcp", (host, port))`` or ``("unix", path)``. IPv6
    literals may be bracketed (``"[::1]:9000"``).
    """
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise ValueError("unix address needs a path: 'unix:PATH'")
        return "unix", path
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"address must be 'host:port' or 'unix:PATH', got {address!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"address has a non-integer port: {address!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port must be in [0, 65535], got {port}")
    return "tcp", (host.strip("[]"), port)


# ----------------------------------------------------------------------
# Error taxonomy <-> wire etype.
# ----------------------------------------------------------------------
#: isinstance checks run in order — most specific classes first
#: (ProtocolError subclasses ServingError, for instance).
_WIRE_ETYPES: Tuple[Tuple[type, str], ...] = (
    (ShedError, "shed"),
    (DeadlineError, "deadline"),
    (ShardCrashError, "crash"),
    (ProtocolError, "protocol"),
    (ServingError, "serving"),
    (ValueError, "validation"),
)

_CLIENT_ERRORS: Dict[str, type] = {
    "shed": ShedError,
    "deadline": DeadlineError,
    "crash": ShardCrashError,
    "protocol": ProtocolError,
    "validation": ValueError,
    "serving": ServingError,
}


def _wire_etype(error: BaseException) -> str:
    for cls, etype in _WIRE_ETYPES:
        if isinstance(error, cls):
            return etype
    return "serving"


def _error_from_frame(header: Dict) -> Exception:
    cls = _CLIENT_ERRORS.get(header.get("etype"), ServingError)
    return cls(str(header.get("error", "cluster error")))


# ----------------------------------------------------------------------
# Listener op table: frame kind -> handler(service, header, arrays),
# each answering ``(reply header, reply arrays)`` through the service's
# async internals.
# ----------------------------------------------------------------------
def _name(header: Dict) -> str:
    name = header.get("name")
    if not isinstance(name, str):
        raise ProtocolError(
            f"{header.get('kind')} frame needs a string 'name', "
            f"got {name!r}"
        )
    return name


async def _op_predict(service, header, arrays):
    if len(arrays) != 2:
        raise ProtocolError(
            f"predict frame needs [x, states] payload arrays, "
            f"got {len(arrays)}"
        )
    name = _name(header)
    x, states = _validate_predict(arrays[0], arrays[1])
    deadline_s = service._resolve_deadline(header.get("deadline_s"))
    if x.shape[0] == 0:
        return (
            {"kind": "result", "metrics": [], "version": 0},
            [np.zeros(0, dtype=np.uint8)],
        )
    return await service._predict_async(name, x, states, deadline_s)


async def _op_yield(service, header, arrays):
    reply = await service._yield_async(
        _name(header),
        header.get("specs", ()),
        int(header.get("n_samples", 400)),
        int(header.get("seed", 0)),
        float(header.get("confidence", 0.95)),
        header.get("states"),
        service._resolve_deadline(header.get("deadline_s")),
    )
    return reply, []


async def _op_load(service, header, arrays):
    key = await service._load_async(str(header.get("key")))
    return {"kind": "loaded", "key": key}, []


async def _op_set_canary(service, header, arrays):
    key = await service._set_canary_async(
        str(header.get("name")),
        str(header.get("canary")),
        float(header.get("weight", 0.0)),
    )
    return {"kind": "canary", "key": key}, []


async def _op_promote(service, header, arrays):
    key = service.promote(str(header.get("name")))
    return {"kind": "promoted", "key": key}, []


async def _op_clear_canary(service, header, arrays):
    service.clear_canary(str(header.get("name")))
    return {"kind": "ok"}, []


async def _op_routes(service, header, arrays):
    return {"kind": "routes", "routes": service.describe_routes()}, []


async def _op_report(service, header, arrays):
    return {"kind": "report", "text": await service._report_async()}, []


async def _op_ping(service, header, arrays):
    return {"kind": "pong"}, []


_OPS = {
    "predict": _op_predict,
    "yield": _op_yield,
    "load": _op_load,
    "set-canary": _op_set_canary,
    "promote": _op_promote,
    "clear-canary": _op_clear_canary,
    "routes": _op_routes,
    "report": _op_report,
    "ping": _op_ping,
}


# ----------------------------------------------------------------------
# Listener (gateway side).
# ----------------------------------------------------------------------
class ClusterListener:
    """Serve a :class:`ClusterService` on a TCP or Unix-domain socket.

    Runs on the service's gateway loop: frames are dispatched to the
    service's async internals directly, so a listener request shares
    the exact routing / batching / shedding / failover path of the
    in-process API. Start the service first; stop the listener before
    stopping the service.

    Parameters
    ----------
    service:
        A **started** :class:`~repro.cluster.gateway.ClusterService`.
    address:
        ``"host:port"`` (``:0`` picks a free port — read
        :attr:`address` for the bound one) or ``"unix:PATH"``.
    faults:
        Optional :class:`~repro.faults.FaultPlan`; its ``"net"`` site
        fires once per client frame (``net:drop`` / ``net:slow``).
    """

    def __init__(
        self,
        service,
        address: str = "127.0.0.1:0",
        faults: Optional[FaultPlan] = None,
    ) -> None:
        parse_address(address)  # fail fast on a bad spec
        self.service = service
        self.faults = faults
        self._address = address
        self._bound: Optional[str] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: set = set()

    @property
    def address(self) -> str:
        """The bound address (``"host:port"`` or ``"unix:PATH"``)."""
        if self._bound is None:
            raise ServingError("listener is not started")
        return self._bound

    def start(self) -> "ClusterListener":
        """Bind and start accepting clients; returns ``self``."""
        if self._server is not None:
            raise ServingError("listener already started")
        self.service._require_started()
        self._server = self.service._run(self._start_async())
        return self

    async def _start_async(self) -> asyncio.AbstractServer:
        scheme, target = parse_address(self._address)
        if scheme == "tcp":
            host, port = target
            server = await asyncio.start_server(
                self._handle, host=host, port=port
            )
            bound_host, bound_port = server.sockets[0].getsockname()[:2]
            self._bound = f"{bound_host}:{bound_port}"
        else:
            server = await asyncio.start_unix_server(
                self._handle, path=target
            )
            self._bound = f"unix:{target}"
        return server

    def stop(self) -> None:
        """Stop accepting and close every live client connection."""
        server, self._server = self._server, None
        if server is None:
            return
        self._bound = None
        self.service._run(self._stop_async(server))

    async def _stop_async(self, server: asyncio.AbstractServer) -> None:
        server.close()
        for writer in list(self._writers):
            with contextlib.suppress(OSError, RuntimeError):
                writer.close()
        await server.wait_closed()

    def __enter__(self) -> "ClusterListener":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- per-connection frame loop (gateway loop) -----------------------
    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    header, arrays = await read_frame_async(reader)
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    OSError,
                ):
                    return  # clean close or mid-frame disconnect
                except ProtocolError as error:
                    # Corrupt prefix / malformed frame: the stream
                    # position is unrecoverable, so answer once and
                    # hang up — but never die.
                    await self._try_write(
                        writer,
                        {
                            "kind": "error",
                            "id": None,
                            "etype": "protocol",
                            "error": str(error),
                        },
                    )
                    return
                fault = (
                    self.faults.fire("net")
                    if self.faults is not None
                    else None
                )
                if fault is not None and fault.mode == "drop":
                    return
                if fault is not None and fault.mode == "slow":
                    await asyncio.sleep(fault.stall_seconds)
                request_id = header.get("id")
                try:
                    handler = _OPS.get(str(header.get("kind")))
                    if handler is None:
                        raise ProtocolError(
                            f"unknown frame kind {header.get('kind')!r}"
                        )
                    reply, reply_arrays = await handler(
                        self.service, header, arrays
                    )
                except Exception as error:  # answer, keep serving
                    reply, reply_arrays = {
                        "kind": "error",
                        "etype": _wire_etype(error),
                        "error": str(error),
                    }, []
                if not await self._try_write(
                    writer, dict(reply, id=request_id), reply_arrays
                ):
                    return
        finally:
            self._writers.discard(writer)
            with contextlib.suppress(OSError, RuntimeError):
                writer.close()

    async def _try_write(
        self,
        writer: asyncio.StreamWriter,
        header: Dict,
        arrays: Sequence[np.ndarray] = (),
    ) -> bool:
        try:
            await write_frame_async(writer, header, arrays)
            return True
        except (ConnectionError, OSError):
            return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterListener({self._bound or self._address!r}, "
            f"started={self._server is not None})"
        )


# ----------------------------------------------------------------------
# Clients.
# ----------------------------------------------------------------------
def _reply_key(reply: Dict, arrays) -> str:
    return reply["key"]


class _ClientSurface:
    """The request surface of both clients, written once.

    Each method builds a request header (plus payload arrays) and a
    reply decoder ``decode(header, arrays)`` and hands them to each
    client's ``_call(header, decode, arrays)``: :class:`ClusterClient`
    runs the exchange to completion and returns the decoded reply,
    :class:`AsyncClusterClient` returns it as an awaitable.
    """

    def _roundtrip(self, header: Dict, arrays: Sequence[np.ndarray] = ()):
        """Send one raw frame; the reply's ``(header, arrays)``."""
        return self._call(
            header, lambda reply, payload: (reply, payload), arrays
        )

    def _predict(self, name, x, states, deadline_s, decode):
        header: Dict = {"kind": "predict", "name": str(name)}
        if deadline_s is not None:
            header["deadline_s"] = float(deadline_s)
        return self._call(header, decode, [
            np.ascontiguousarray(np.asarray(x, dtype=float)),
            np.ascontiguousarray(np.asarray(states, dtype=np.int64)),
        ])

    # -- serving --------------------------------------------------------
    def predict_many(
        self,
        name: str,
        x,
        states,
        deadline_s: Optional[float] = None,
    ) -> List[PredictionResult]:
        """Predict a batch; mirrors ``ClusterService.predict_many``."""
        return self._predict(name, x, states, deadline_s, _decode_results)

    def predict(
        self,
        name: str,
        x,
        state: int,
        deadline_s: Optional[float] = None,
    ) -> PredictionResult:
        """Predict one design point."""
        return self._predict(
            name, np.asarray(x, dtype=float)[None, :], [state], deadline_s,
            lambda reply, arrays: _decode_results(reply, arrays)[0],
        )

    def yield_report(
        self,
        name: str,
        specs: Sequence,
        n_samples: int = 400,
        seed: int = 0,
        confidence: float = 0.95,
        states: Optional[Sequence[int]] = None,
        deadline_s: Optional[float] = None,
    ) -> Dict:
        """Fleet yield/moment report; mirrors the service method."""
        header: Dict = {
            "kind": "yield",
            "name": str(name),
            "specs": _parse_specs(specs),
            "n_samples": int(n_samples),
            "seed": int(seed),
            "confidence": float(confidence),
        }
        if states is not None:
            header["states"] = [int(s) for s in states]
        if deadline_s is not None:
            header["deadline_s"] = float(deadline_s)
        return self._call(header, lambda reply, _: reply)

    # -- control plane --------------------------------------------------
    def load(self, key: str) -> str:
        """Export + load ``key`` server-side; returns the resolved key."""
        return self._call({"kind": "load", "key": str(key)}, _reply_key)

    def set_canary(self, name: str, canary_key: str, weight: float) -> str:
        """Start a weighted canary split server-side."""
        return self._call({
            "kind": "set-canary",
            "name": str(name),
            "canary": str(canary_key),
            "weight": float(weight),
        }, _reply_key)

    def promote(self, name: str) -> str:
        """Promote the canary to stable."""
        return self._call({"kind": "promote", "name": str(name)}, _reply_key)

    def clear_canary(self, name: str) -> None:
        """Drop the canary split."""
        return self._call(
            {"kind": "clear-canary", "name": str(name)}, lambda *_: None
        )

    def describe_routes(self) -> Dict[str, Dict]:
        """The server's routing-table digest."""
        return self._call(
            {"kind": "routes"}, lambda reply, _: reply["routes"]
        )

    def report(self) -> str:
        """The server's full text report."""
        return self._call({"kind": "report"}, lambda reply, _: reply["text"])

    def ping(self) -> bool:
        """Round-trip liveness probe."""
        return self._call(
            {"kind": "ping"}, lambda reply, _: reply.get("kind") == "pong"
        )


class ClusterClient(_ClientSurface):
    """Blocking client for a :class:`ClusterListener` endpoint.

    Thread-safe: a lock serializes the one-request-per-connection wire
    exchange. Open one client per concurrent caller (or per thread) for
    parallelism — connections are cheap, the models live server-side.

    Parameters
    ----------
    address:
        ``"host:port"`` or ``"unix:PATH"``, as bound by the listener.
    connect_timeout_s:
        Socket connect timeout; after connecting the socket reverts to
        blocking mode (request bounds come from server-side deadlines).
    """

    def __init__(
        self, address: str, connect_timeout_s: float = 30.0
    ) -> None:
        scheme, target = parse_address(address)
        if scheme == "tcp":
            self._sock = socket.create_connection(
                target, timeout=connect_timeout_s
            )
            self._sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        else:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(connect_timeout_s)
            self._sock.connect(target)
        self._sock.settimeout(None)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.address = address

    def _call(self, header, decode, arrays=()):
        request = dict(header, id=next(self._ids))
        with self._lock:
            send_frame(self._sock, request, arrays)
            reply, reply_arrays = read_frame(self._sock)
        if reply.get("kind") == "error":
            raise _error_from_frame(reply)
        return decode(reply, reply_arrays)

    def close(self) -> None:
        """Close the connection (idempotent)."""
        with contextlib.suppress(OSError):
            self._sock.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ClusterClient({self.address!r})"


class AsyncClusterClient(_ClientSurface):
    """Asyncio client for a :class:`ClusterListener` endpoint.

    Build with :meth:`connect`; every request method returns an
    awaitable (``await client.load(key)``). One request is in flight
    per client at a time (an ``asyncio.Lock`` serializes the exchange)
    — open several clients to overlap requests from one loop.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        address: str,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()
        self._ids = itertools.count(1)
        self.address = address

    @classmethod
    async def connect(cls, address: str) -> "AsyncClusterClient":
        """Open a connection to ``address`` and wrap it."""
        scheme, target = parse_address(address)
        if scheme == "tcp":
            host, port = target
            reader, writer = await asyncio.open_connection(host, port)
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        else:
            reader, writer = await asyncio.open_unix_connection(target)
        return cls(reader, writer, address)

    async def _call(self, header, decode, arrays=()):
        request = dict(header, id=next(self._ids))
        async with self._lock:
            await write_frame_async(self._writer, request, arrays)
            reply, reply_arrays = await read_frame_async(self._reader)
        if reply.get("kind") == "error":
            raise _error_from_frame(reply)
        return decode(reply, reply_arrays)

    async def close(self) -> None:
        """Close the connection (idempotent)."""
        with contextlib.suppress(OSError, RuntimeError):
            self._writer.close()
            await self._writer.wait_closed()

    async def __aenter__(self) -> "AsyncClusterClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AsyncClusterClient({self.address!r})"
