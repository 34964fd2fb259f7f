"""Skewed-associative coherence directory (the "Skewed 2x" baseline).

Adapted from the skewed-associative cache [Seznec '93]: each way is a
direct-mapped array indexed by a *different* hash function, which breaks
most (but not all) conflict clusters and roughly doubles the perceived
associativity.  Crucially — and this is the distinction the paper draws in
Section 4.1 — the insertion procedure is still conventional: when all of a
block's candidate slots are occupied, one of them is victimised
immediately.  There is no displacement walk, so transitive conflicts still
cause forced invalidations, just less often than in a Sparse directory of
the same geometry.

That makes it the Cuckoo directory's table with the LRU insert policy in
place of the walk (:class:`~repro.directories.table.TableDirectory`): the
least recently used candidate is the victim.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cuckoo_hash import CuckooHashTable
from repro.directories.table import TableDirectory
from repro.hashing.base import HashFamily

__all__ = ["SkewedDirectory"]


class SkewedDirectory(TableDirectory):
    """Skewed-associative directory with single-step LRU victimisation.

    ``hash_family`` defaults to the Seznec–Bodin skewing family; the other
    parameters are those of :class:`~repro.directories.sparse.
    SparseDirectory`.
    """

    def __init__(
        self,
        num_caches: int,
        num_sets: int,
        num_ways: int = 4,
        hash_family: Optional[HashFamily] = None,
    ) -> None:
        table = CuckooHashTable(
            num_ways, num_sets, hash_family, max_attempts=1, lru=True
        )
        super().__init__(num_caches, table)
