"""Async client for the McCuckoo KV service.

:class:`McCuckooClient` keeps a pool of plain TCP connections (opened
lazily, up to ``pool_size``) and issues one request per acquired
connection, so up to ``pool_size`` requests are in flight concurrently.
Pipelining is done with BATCH frames: :meth:`McCuckooClient.batch` packs
many operations into a single round trip and returns per-op replies in
order.

Server-signalled errors surface as exceptions (:class:`ServerBusyError`
for backpressure, :class:`RequestTimeoutError`, :class:`ServeError` for
the rest) — except inside a batch, where per-op error replies are returned
in place so one hot shard can't poison its neighbours' results.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar, Union

from ..core.errors import ReproError
from ..hashing import KeyLike, canonical_key
from .protocol import (
    MAX_FRAME_BYTES,
    BatchReply,
    BatchRequest,
    DeleteReply,
    DeleteRequest,
    ErrorCode,
    ErrorReply,
    GetRequest,
    ProtocolError,
    PutReply,
    PutRequest,
    Reply,
    Request,
    SimpleReply,
    SimpleRequest,
    StatsReply,
    StatsRequest,
    ValueReply,
    decode_reply,
    encode_request,
    read_frame,
    write_frame,
)

#: batch ops are given as tuples: ("get", key), ("put", key, value),
#: ("delete", key), or ("stats",)
BatchOp = Union[
    Tuple[str, KeyLike],
    Tuple[str, KeyLike, bytes],
    Tuple[str],
]

_Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


class ServeError(ReproError):
    """The server answered with an error frame."""

    def __init__(self, code: ErrorCode, message: str = "") -> None:
        super().__init__(f"{code.name}: {message}" if message else code.name)
        self.code = code


class ServerBusyError(ServeError):
    """Backpressure: a shard's write bound or the connection limit is
    saturated."""


class RequestTimeoutError(ServeError):
    """The server gave up on the request after its configured timeout."""


class ServerUnavailableError(ServeError):
    """The op was in flight to a worker process that died mid-request."""


def _raise_for(reply: ErrorReply) -> None:
    if reply.code is ErrorCode.BUSY:
        raise ServerBusyError(reply.code, reply.message)
    if reply.code is ErrorCode.TIMEOUT:
        raise RequestTimeoutError(reply.code, reply.message)
    if reply.code is ErrorCode.UNAVAILABLE:
        raise ServerUnavailableError(reply.code, reply.message)
    raise ServeError(reply.code, reply.message)


#: failures worth replaying: backpressure, lost/garbled transport, and a
#: worker death with the op in flight.  A lost or corrupted ack after an
#: applied write is indistinguishable from a never-delivered request, so
#: only idempotent requests are safe to replay — every verb here qualifies
#: (PUT with the same bytes, DELETE, GET, STATS); UNAVAILABLE is the same
#: outcome-unknown shape with the loss inside the server's process
#: topology instead of on the wire.  Server-side TIMEOUT/INTERNAL frames
#: are definitive replies and are NOT retried.
_RETRYABLE = (ServerBusyError, ServerUnavailableError, ConnectionError,
              ProtocolError, OSError)

_T = TypeVar("_T")


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential backoff with seeded jitter.

    The schedule — ``base_delay * multiplier**n`` capped at ``max_delay``,
    each step scaled by ``1 ± jitter`` drawn from a ``random.Random(seed)``
    — is a pure function of the policy's fields (see :meth:`delays`), so a
    failing run replays identically from its seed.  ``deadline`` bounds
    one *logical* request end-to-end: attempts plus backoff sleeps; when it
    expires the client raises :class:`RequestTimeoutError` and stops — it
    never leaves a straggler attempt running.
    """

    max_attempts: int = 6
    base_delay: float = 0.005
    multiplier: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.2
    deadline: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delays(self) -> Iterator[float]:
        """The backoff schedule, regenerated identically per request."""
        rng = random.Random(self.seed)
        delay = self.base_delay
        while True:
            yield min(delay, self.max_delay) * (
                1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            )
            delay *= self.multiplier


class McCuckooClient:
    """Connection-pooled async client; use as an async context manager."""

    def __init__(
        self,
        host: str,
        port: int,
        pool_size: int = 4,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.max_frame_bytes = max_frame_bytes
        self.retry = retry
        self.retries = 0
        """Transport/BUSY failures replayed so far (all requests)."""
        self._idle: asyncio.LifoQueue = asyncio.LifoQueue()
        self._slots = asyncio.Semaphore(pool_size)
        self._open: List[_Connection] = []
        self._closed = False

    # ------------------------------------------------------------------
    # pool plumbing
    # ------------------------------------------------------------------

    async def _acquire(self) -> _Connection:
        if self._closed:
            raise RuntimeError("client is closed")
        await self._slots.acquire()
        try:
            while True:
                try:
                    connection = self._idle.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if not connection[1].is_closing():
                    return connection
                self._discard(connection)
            reader, writer = await asyncio.open_connection(self.host, self.port)
            connection = (reader, writer)
            self._open.append(connection)
            return connection
        except BaseException:
            self._slots.release()
            raise

    def _release(self, connection: _Connection) -> None:
        self._idle.put_nowait(connection)
        self._slots.release()

    def _discard(self, connection: _Connection) -> None:
        _, writer = connection
        if connection in self._open:
            self._open.remove(connection)
        writer.close()

    async def close(self) -> None:
        """Close every pooled connection; the client is unusable after."""
        self._closed = True
        for connection in list(self._open):
            self._discard(connection)
        self._open = []

    async def __aenter__(self) -> "McCuckooClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # request/response
    # ------------------------------------------------------------------

    async def request(self, request: Request) -> Reply:
        """One framed round trip; raises on transport or framing failure."""
        connection = await self._acquire()
        reader, writer = connection
        try:
            await write_frame(writer, encode_request(request))
            body = await read_frame(reader, self.max_frame_bytes)
        except BaseException:
            self._discard(connection)
            self._slots.release()
            raise
        if not body:
            self._discard(connection)
            self._slots.release()
            raise ConnectionError("server closed the connection")
        self._release(connection)
        return decode_reply(body)

    async def _with_retry(self, attempt: Callable[[], Awaitable[_T]]) -> _T:
        """Run one logical request under the client's retry policy.

        Retries :data:`_RETRYABLE` failures with the policy's deterministic
        backoff; a configured deadline caps attempts *and* sleeps, raising
        :class:`RequestTimeoutError` once it expires (the in-flight attempt
        is cancelled, so nothing is sent after the deadline).
        """
        policy = self.retry
        if policy is None:
            return await attempt()
        loop = asyncio.get_running_loop()
        start = loop.time()
        delays = policy.delays()
        tries = 0

        def remaining() -> Optional[float]:
            if policy.deadline is None:
                return None
            return policy.deadline - (loop.time() - start)

        def expired() -> RequestTimeoutError:
            return RequestTimeoutError(
                ErrorCode.TIMEOUT,
                f"client deadline of {policy.deadline}s exceeded "
                f"after {tries} attempt(s)",
            )

        while True:
            tries += 1
            budget = remaining()
            if budget is not None and budget <= 0:
                raise expired()
            try:
                if budget is not None:
                    return await asyncio.wait_for(attempt(), budget)
                return await attempt()
            except asyncio.TimeoutError as error:
                raise expired() from error
            except _RETRYABLE:
                self.retries += 1
                if tries >= policy.max_attempts:
                    raise
                pause = next(delays)
                budget = remaining()
                if budget is not None:
                    if budget <= 0:
                        raise expired()
                    pause = min(pause, budget)
                await asyncio.sleep(pause)

    async def _simple(self, request: SimpleRequest) -> SimpleReply:
        async def attempt() -> Reply:
            reply = await self.request(request)
            if isinstance(reply, ErrorReply):
                _raise_for(reply)  # BUSY raises inside the retry scope
            return reply

        reply = await self._with_retry(attempt)
        assert not isinstance(reply, (BatchReply, ErrorReply))
        return reply

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------

    async def get(self, key: KeyLike) -> Optional[bytes]:
        """The stored value, or None when the key is absent."""
        reply = await self._simple(GetRequest(canonical_key(key)))
        assert isinstance(reply, ValueReply)
        return reply.value if reply.found else None

    async def put(self, key: KeyLike, value: bytes) -> bool:
        """Store ``value``; True when the key was new, False on update."""
        reply = await self._simple(PutRequest(canonical_key(key), bytes(value)))
        assert isinstance(reply, PutReply)
        return reply.created

    async def delete(self, key: KeyLike) -> bool:
        """Remove the key; True when it existed."""
        reply = await self._simple(DeleteRequest(canonical_key(key)))
        assert isinstance(reply, DeleteReply)
        return reply.deleted

    async def stats(self) -> Dict[str, float]:
        """The server's counter/gauge snapshot (STATS verb)."""
        reply = await self._simple(StatsRequest())
        assert isinstance(reply, StatsReply)
        return dict(reply.stats)

    async def batch(self, ops: Sequence[BatchOp]) -> List[SimpleReply]:
        """Pipeline many ops in one frame; replies come back in op order.

        Per-op failures are returned as :class:`ErrorReply` entries rather
        than raised, so callers see exactly which ops bounced (e.g. BUSY
        from one saturated shard).
        """
        request = BatchRequest(tuple(map(_to_request, ops)))

        async def attempt() -> Reply:
            reply = await self.request(request)
            if isinstance(reply, ErrorReply):
                _raise_for(reply)  # whole-frame BUSY retries; per-op doesn't
            return reply

        reply = await self._with_retry(attempt)
        assert isinstance(reply, BatchReply)
        return list(reply.replies)


def _to_request(op: BatchOp) -> SimpleRequest:
    verb = op[0]
    if verb == "get":
        return GetRequest(canonical_key(op[1]))
    if verb == "put":
        return PutRequest(canonical_key(op[1]), bytes(op[2]))  # type: ignore[misc]
    if verb == "delete":
        return DeleteRequest(canonical_key(op[1]))
    if verb == "stats":
        return StatsRequest()
    raise ProtocolError(f"unknown batch verb {verb!r}")


__all__ = [
    "BatchOp",
    "McCuckooClient",
    "RequestTimeoutError",
    "RetryPolicy",
    "ServeError",
    "ServerBusyError",
    "ServerUnavailableError",
]
