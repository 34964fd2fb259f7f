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

from typing import Optional, Type

from repro.core.cuckoo_hash import CuckooHashTable
from repro.directories.sharers import FullBitVector, SharerSet
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
    sharer_cls:
        Sharer-set representation stored in each entry; any of the classes
        in :mod:`repro.directories.sharers` (the paper pairs the Cuckoo
        organization with Coarse and Hierarchical encodings at scale).
    max_insertion_attempts:
        Bound on the displacement walk (32 in the paper).
    tag_bits:
        Stored tag width, used for the bits-read/written accounting.
    """

    def __init__(
        self,
        num_caches: int,
        num_sets: int,
        num_ways: int = 4,
        hash_family: Optional[HashFamily] = None,
        sharer_cls: Type[SharerSet] = FullBitVector,
        max_insertion_attempts: int = 32,
        tag_bits: int = 36,
        **sharer_kwargs,
    ) -> None:
        table = CuckooHashTable(
            num_ways=num_ways,
            num_sets=num_sets,
            hash_family=hash_family,
            max_attempts=max_insertion_attempts,
        )
        super().__init__(num_caches, table, sharer_cls, tag_bits, **sharer_kwargs)

    # -- convenience constructors -------------------------------------------------
    @classmethod
    def paper_shared_l2_design(
        cls, num_caches: int = 32, **kwargs
    ) -> "CuckooDirectory":
        """The 4-way × 512-set slice the paper selects for the Shared-L2
        configuration (Section 5.3)."""
        return cls(num_caches=num_caches, num_sets=512, num_ways=4, **kwargs)

    @classmethod
    def paper_private_l2_design(
        cls, num_caches: int = 16, **kwargs
    ) -> "CuckooDirectory":
        """The 3-way × 8192-set slice the paper selects for the Private-L2
        configuration (Section 5.3)."""
        return cls(num_caches=num_caches, num_sets=8192, num_ways=3, **kwargs)
