"""The Cuckoo directory: the paper's proposed coherence directory.

A directory slice whose tag store is a d-ary cuckoo hash table
(:class:`~repro.core.cuckoo_hash.CuckooHashTable`).  Lookups cost the same
as a low-associativity set-associative lookup; insertions use displacement
to avoid victimising live entries, so forced invalidations essentially
disappear without over-provisioning the capacity (Sections 4 and 5).

The directory operations and their statistics are those of every
table-backed organization (:class:`~repro.directories.table.
TableDirectory`); what makes this one the Cuckoo directory is its table's
insert policy: if the bounded insertion walk fails, the most recently
displaced entry is discarded and reported as a forced invalidation.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cuckoo_hash import CuckooHashTable
from repro.directories.table import TableDirectory
from repro.hashing.base import HashFamily

__all__ = ["CuckooDirectory"]


class CuckooDirectory(TableDirectory):
    """Coherence-directory organization built on a d-ary cuckoo hash table.

    Parameters
    ----------
    num_caches:
        Number of tracked private caches (sharer-set width).
    num_sets:
        Entries per way; the paper's chosen designs are 4×512 (Shared-L2)
        and 3×8192 (Private-L2).
    num_ways:
        Number of ways / hash functions (3 or 4 in the paper).
    hash_family:
        Indexing functions; defaults to the Seznec–Bodin skewing family.
    max_insertion_attempts:
        Bound on the displacement walk (32 in the paper).
    """

    def __init__(
        self,
        num_caches: int,
        num_sets: int,
        num_ways: int = 4,
        hash_family: Optional[HashFamily] = None,
        max_insertion_attempts: int = 32,
    ) -> None:
        table = CuckooHashTable(
            num_ways=num_ways,
            num_sets=num_sets,
            hash_family=hash_family,
            max_attempts=max_insertion_attempts,
        )
        super().__init__(num_caches, table)
