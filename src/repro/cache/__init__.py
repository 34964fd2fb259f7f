"""Set-associative cache models.

The coherence directory's behaviour is driven entirely by which blocks the
private caches hold, so the library contains a faithful (if timing-free)
cache model: set-associative arrays with LRU replacement (the paper's
cache policy), write-back dirty tracking, and MESI block states that the
coherence layer manages.  Evictions are surfaced to the caller because the directory must
observe them (Section 5.2: "Dirty and clean evictions from the private
caches are tracked by the directory").
"""

from repro.cache.cache import (
    CODE_TO_STATE,
    STATE_EXCLUSIVE,
    STATE_INVALID,
    STATE_MODIFIED,
    STATE_SHARED,
    STATE_TO_CODE,
    AccessResult,
    CacheBlock,
    CoherenceState,
    SetAssociativeCache,
)

__all__ = [
    "AccessResult",
    "CacheBlock",
    "CoherenceState",
    "SetAssociativeCache",
    "STATE_INVALID",
    "STATE_SHARED",
    "STATE_EXCLUSIVE",
    "STATE_MODIFIED",
    "STATE_TO_CODE",
    "CODE_TO_STATE",
]
