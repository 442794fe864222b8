"""The service wire protocol: length-prefixed JSON frames.

Every message — request or response — is one UTF-8 JSON object preceded by
its byte length as an unsigned 4-byte big-endian integer.  The framing is
deliberately minimal: any language with sockets and a JSON parser can speak
it, and JSON round-trips every value the dialects produce exactly (Python
ints are arbitrary precision, ``float`` survives ``dumps``/``loads``
bit-for-bit), which is what makes byte-identical campaign results through
the service possible.

Requests carry ``op`` plus op-specific fields and an optional ``id``;
responses echo the ``id`` and carry either ``ok: true`` with a payload or
``ok: false`` with an ``error`` object (``type``/``message``).
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Iterator, List, Optional

#: Upper bound on one frame's JSON payload.  Large enough for any plan text
#: or result set the campaigns produce; a violation means a corrupt stream
#: (or a hostile peer), so the connection is dropped rather than buffered.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(Exception):
    """A malformed frame: bad length prefix or undecodable payload."""


def _scalar_default(value: Any) -> Any:
    # NumPy scalars (possible in rows produced by the array kernels) convert
    # losslessly to the equivalent Python scalar; anything else is a bug.
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def encode_message(message: Dict[str, Any]) -> bytes:
    """Serialize *message* into one length-prefixed frame."""
    payload = json.dumps(
        message, separators=(",", ":"), default=_scalar_default
    ).encode("utf-8")
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message of {len(payload)} bytes exceeds the frame limit")
    return _LENGTH.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """Parse one frame's JSON payload."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # undecodable, or nested past the parser's stack
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return message


class FrameDecoder:
    """Incremental decoder: feed raw bytes, get complete messages out.

    For readers that take whatever bytes a stream delivers (partial frames
    included) instead of blocking for an exact count as :func:`recv_message`
    does; the decoder buffers across ``feed`` calls and yields each message
    exactly once, in order.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Absorb *data* and return every message completed by it."""
        self._buffer.extend(data)
        messages: List[Dict[str, Any]] = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                return messages
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > MAX_MESSAGE_BYTES:
                raise ProtocolError(f"frame of {length} bytes exceeds the frame limit")
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                return messages
            payload = bytes(self._buffer[_LENGTH.size:end])
            del self._buffer[:end]
            messages.append(decode_payload(payload))


# -- blocking socket helpers (client and server) --------------------------------------------


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_message(message))


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame from a blocking socket (``None`` on clean EOF)."""
    header = _recv_exactly(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the frame limit")
    payload = _recv_exactly(sock, length)
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    return decode_payload(payload)


def _recv_exactly(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly *count* bytes (``None`` if EOF arrives before byte one)."""
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
