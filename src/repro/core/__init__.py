"""The paper's primary contribution: the Cuckoo directory.

* :class:`~repro.core.cuckoo_hash.CuckooHashTable` — a generic d-ary
  cuckoo hash table with the displacement-based insertion procedure the
  hardware implements (Section 4.2): parallel candidate lookup, bounded
  insertion walk, round-robin start way, and eviction of the most recently
  displaced entry when the walk is cut off.  Its second insert policy,
  LRU, evicts the least recently used candidate at once: the Sparse and
  Skewed baselines are that table.
* :class:`~repro.core.cuckoo_directory.CuckooDirectory` — the coherence
  directory built on that table, implementing the same
  :class:`~repro.directories.base.Directory` interface as every baseline
  organization so it can be dropped into the coherence system and the
  experiments unchanged.
"""

from repro.core.cuckoo_hash import CuckooHashTable, InsertOutcome, InsertResult
from repro.core.cuckoo_directory import CuckooDirectory
from repro.core.stashed_cuckoo import StashedCuckooDirectory

__all__ = [
    "CuckooHashTable",
    "InsertOutcome",
    "InsertResult",
    "CuckooDirectory",
    "StashedCuckooDirectory",
]
