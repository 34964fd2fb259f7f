"""Coherence message types and traffic accounting.

The model is not cycle-accurate, but counting protocol messages (and the
hops they travel, via :class:`~repro.coherence.interconnect.MeshInterconnect`)
lets experiments reason about the *traffic* consequences of directory
decisions — in particular the extra invalidation and re-fetch traffic
caused by forced invalidations and by inexact sharer encodings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict

__all__ = ["MessageType", "TrafficStats", "MESSAGE_BYTES_BY_TYPE", "message_bytes"]


class MessageType(str, Enum):
    """Protocol message classes exchanged between tiles."""

    GET_SHARED = "GetS"          #: read miss request to the home directory
    GET_MODIFIED = "GetM"        #: write miss / upgrade request to the home
    PUT_SHARED = "PutS"          #: clean eviction notification
    PUT_MODIFIED = "PutM"        #: dirty eviction (write-back) notification
    INVALIDATE = "Inv"           #: directory-to-sharer invalidation
    INV_ACK = "InvAck"           #: sharer acknowledgement
    DATA = "Data"                #: data response (from home or owner)
    FWD_GET = "FwdGet"           #: request forwarded to the current owner


# Message payload sizes in bytes: control messages carry an address and a
# handful of command bits (8 B); data messages carry a 64 B cache block plus
# the control header.
_CONTROL_BYTES = 8
_DATA_BYTES = 72


def message_bytes(message_type: MessageType) -> int:
    """Wire size of one message of the given type."""
    if message_type is MessageType.DATA:
        return _DATA_BYTES
    return _CONTROL_BYTES


#: Precomputed wire size per message type, covering every member;
#: :meth:`TrafficStats.record` and ``TiledCMP._drain_compiled`` index it
#: unconditionally.
MESSAGE_BYTES_BY_TYPE: Dict[MessageType, int] = {
    t: message_bytes(t) for t in MessageType
}


@dataclass
class TrafficStats:
    """Counts of protocol messages and the hops they traversed."""

    messages: Dict[MessageType, int] = field(
        default_factory=lambda: {t: 0 for t in MessageType}
    )
    hops: int = 0
    bytes_transferred: int = 0

    def record(self, message_type: MessageType, hops: int = 0, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        messages = self.messages
        messages[message_type] = messages.get(message_type, 0) + count
        self.hops += hops * count
        self.bytes_transferred += MESSAGE_BYTES_BY_TYPE[message_type] * count

    @property
    def total_messages(self) -> int:
        return sum(self.messages.values())

    @property
    def invalidation_messages(self) -> int:
        return self.messages.get(MessageType.INVALIDATE, 0)

    def merge(self, other: "TrafficStats") -> "TrafficStats":
        merged = TrafficStats()
        for key in set(self.messages) | set(other.messages):
            merged.messages[key] = self.messages.get(key, 0) + other.messages.get(key, 0)
        merged.hops = self.hops + other.hops
        merged.bytes_transferred = self.bytes_transferred + other.bytes_transferred
        return merged
