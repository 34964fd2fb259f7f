"""Coherence message types and traffic accounting.

The model is not cycle-accurate, but counting protocol messages (and the
hops they travel, via :class:`~repro.coherence.interconnect.MeshInterconnect`)
lets experiments reason about the *traffic* consequences of directory
decisions — in particular the extra invalidation and re-fetch traffic
caused by forced invalidations and by inexact sharer encodings.
"""

from __future__ import annotations

from array import array
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


#: Precomputed wire size per message type, covering every member.
MESSAGE_BYTES_BY_TYPE: Dict[MessageType, int] = {
    t: message_bytes(t) for t in MessageType
}


#: The columns of a traffic row: one count per message type, then the hops
#: (``N_*`` in ``_kernels.c``, which counts into the row in place).
_TYPES = tuple(MessageType)
_HOPS = len(_TYPES)


class TrafficStats:
    """Counts of protocol messages and the hops they traversed.

    The counts live in one int64 row; bytes follow from them.
    """

    __slots__ = ("_row",)

    def __init__(self) -> None:
        self._row = array("q", bytes(8 * (_HOPS + 1)))

    @property
    def messages(self) -> Dict[MessageType, int]:
        """Messages per type (a copy of the row's counts)."""
        return dict(zip(_TYPES, self._row))

    @property
    def hops(self) -> int:
        return self._row[_HOPS]

    @property
    def bytes_transferred(self) -> int:
        return sum(
            count * MESSAGE_BYTES_BY_TYPE[message]
            for message, count in zip(_TYPES, self._row)
        )

    def record(self, message_type: MessageType, hops: int = 0, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        self._row[_TYPES.index(message_type)] += count
        self._row[_HOPS] += hops * count

    def clear(self) -> None:
        """Zero every count in place."""
        self._row[:] = array("q", bytes(8 * len(self._row)))

    @property
    def total_messages(self) -> int:
        return sum(self._row[:_HOPS])

    @property
    def invalidation_messages(self) -> int:
        return self.messages[MessageType.INVALIDATE]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrafficStats):
            return NotImplemented
        return self._row == other._row

    def merge(self, other: "TrafficStats") -> "TrafficStats":
        merged = TrafficStats()
        merged._row[:] = array("q", map(int.__add__, self._row, other._row))
        return merged
