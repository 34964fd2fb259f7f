"""Set-associative indexing: every way indexed by ``address % num_sets``.

A Sparse directory [Gupta et al. '90] keeps the ways of set
``address % num_sets``; expressed as a hash family, all of its ways share
that one index function, so a cuckoo table with the LRU insert policy over
it is a set-associative tag store with LRU victimisation.  Unlike the
skewing family it takes any set count, not only powers of two, and a
single way.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.base import HashFamily

__all__ = ["ModuloHashFamily"]


class ModuloHashFamily(HashFamily):
    """The same ``address % num_sets`` index in every way."""

    def index(self, way: int, address: int) -> int:
        self._check_way(way)
        if address < 0:
            raise ValueError("address must be non-negative")
        return address % self._num_sets

    def batch_indices_array(self, addresses) -> np.ndarray:
        """One vectorized modulo, repeated across the ways."""
        sets = np.asarray(addresses, dtype=np.int64) % self._num_sets
        return np.tile(sets, (self._num_ways, 1))

    def descriptor(self):
        """Kind 0."""
        return self._descriptor(0)
