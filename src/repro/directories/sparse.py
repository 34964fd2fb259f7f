"""Sparse (set-associative) coherence directory.

The Sparse directory [Gupta et al. '90] reduces the associativity of the
Duplicate-Tag organization by spreading entries across many sets indexed
by low-order tag bits.  Because the one-to-one correspondence between
directory entries and cache frames is lost, each entry carries an explicit
sharer set.  The cost is *set conflicts*: when a set fills up, inserting a
new entry forces a live entry out, and the blocks it tracked must be
invalidated in the private caches (a *forced invalidation*, Figure 12's
metric).  The paper evaluates Sparse directories at 2x and 8x capacity
over-provisioning to keep that conflict rate down.

The set's ways are the ways of a table-backed directory
(:class:`~repro.directories.table.TableDirectory`) whose every way is
indexed by ``address % num_sets``, with the LRU insert policy: a full set
victimises its least recently used entry.
"""

from __future__ import annotations

from repro.core.cuckoo_hash import CuckooHashTable
from repro.directories.table import TableDirectory
from repro.hashing.modulo import ModuloHashFamily

__all__ = ["SparseDirectory"]


class SparseDirectory(TableDirectory):
    """Set-associative directory with LRU victimisation.

    Parameters
    ----------
    num_caches:
        Number of private caches tracked (width of the sharer sets).
    num_sets, num_ways:
        Geometry of the tag store.  Capacity is ``num_sets * num_ways``.
    """

    def __init__(self, num_caches: int, num_sets: int, num_ways: int) -> None:
        table = CuckooHashTable(
            num_ways, num_sets, ModuloHashFamily(num_ways, num_sets),
            max_attempts=1, lru=True,
        )
        super().__init__(num_caches, table)
