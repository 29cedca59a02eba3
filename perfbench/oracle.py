"""The benchmark's own model of the store, and the reply checker.

Every key belongs to exactly one of the client connections (see
``Stream``), and a connection is a closed loop with one batch in flight,
so the right answer to every GET is fixed by the order in which that
connection's own writes were acknowledged.  A plain dict per connection
is therefore a complete oracle: it never asks the program under test
what it holds.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.protocol import DeleteReply, PutReply, ValueReply

#: One expected outcome per wire op, built when the op is generated:
#: ("get", key, value-or-None), ("put", key, created), ("delete", key, deleted).
Expect = Tuple[str, int, object]


class Oracle:
    """Counts attempted and failed operations, with a reason per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons[reason] += count

    def check_replies(self, expected: Sequence[Expect], replies: Sequence[object]) -> int:
        """Check one batch's replies op by op; returns the ops that failed."""
        self.attempted += len(expected)
        bad = 0
        if len(replies) != len(expected):
            self.fail("reply count mismatch", len(expected))
            return len(expected)
        for (verb, _key, want), reply in zip(expected, replies):
            if verb == "get":
                if not isinstance(reply, ValueReply):
                    reason = "get: error reply"
                elif want is None and reply.found:
                    reason = "get: phantom key"
                elif want is not None and not reply.found:
                    reason = "get: dropped key"
                elif want is not None and reply.value != want:
                    reason = "get: wrong value"
                else:
                    continue
            elif verb == "put":
                if isinstance(reply, PutReply) and reply.created == want:
                    continue
                reason = "put: wrong reply"
            else:
                if isinstance(reply, DeleteReply) and reply.deleted == want:
                    continue
                reason = "delete: wrong reply"
            self.fail(reason)
            bad += 1
        return bad


class Model:
    """What one connection has written: key -> value bytes."""

    def __init__(self) -> None:
        self.values: Dict[int, bytes] = {}
        self.user_bytes_written = 0
        self.live_bytes = 0
        """Bytes of live keys (8 each) and their values."""

    def put(self, key: int, value: bytes) -> bool:
        """Record a write about to be sent; True when the key is new."""
        old = self.values.get(key)
        self.values[key] = value
        self.user_bytes_written += 8 + len(value)
        self.live_bytes += len(value) - (len(old) if old is not None else -8)
        return old is None

    def delete(self, key: int) -> bool:
        self.user_bytes_written += 8
        old = self.values.pop(key, None)
        if old is not None:
            self.live_bytes -= 8 + len(old)
        return old is not None

    def get(self, key: int) -> Optional[bytes]:
        return self.values.get(key)


def readback_batches(
    model: Model, absent: Sequence[int], batch: int
) -> List[Tuple[List[tuple], List[Expect]]]:
    """GET every live key of ``model`` and every key in ``absent``, as
    ``batch``-op frames with their expected answers."""
    ops: List[tuple] = []
    expect: List[Expect] = []
    for key, value in model.values.items():
        ops.append(("get", key))
        expect.append(("get", key, value))
    for key in absent:
        ops.append(("get", key))
        expect.append(("get", key, None))
    return [
        (ops[i : i + batch], expect[i : i + batch]) for i in range(0, len(ops), batch)
    ]
