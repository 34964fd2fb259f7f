"""Common interface for directory-indexing hash families."""

from __future__ import annotations

import abc
import math
from array import array
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["HashFunction", "HashFamily"]


class HashFunction(abc.ABC):
    """Maps a block address to a set index in ``[0, num_sets)``."""

    def __init__(self, num_sets: int) -> None:
        if num_sets <= 0:
            raise ValueError("num_sets must be positive")
        self._num_sets = num_sets

    @property
    def num_sets(self) -> int:
        return self._num_sets

    @abc.abstractmethod
    def __call__(self, address: int) -> int:
        """Return the set index for ``address``."""


class HashFamily(abc.ABC):
    """An ordered collection of hash functions, one per directory way.

    A *d*-way cuckoo (or skewed) structure indexes way *i* with function
    *i*; the family guarantees the functions are pairwise different so
    conflicting addresses in one way rarely conflict in another.
    """

    def __init__(self, num_ways: int, num_sets: int) -> None:
        if num_ways <= 0:
            raise ValueError("num_ways must be positive")
        if num_sets <= 0:
            raise ValueError("num_sets must be positive")
        self._num_ways = num_ways
        self._num_sets = num_sets
        self._index_bits = int(math.log2(num_sets)) if num_sets > 1 else 0

    @property
    def num_ways(self) -> int:
        return self._num_ways

    @property
    def num_sets(self) -> int:
        return self._num_sets

    @property
    def index_bits(self) -> int:
        """Number of index bits when ``num_sets`` is a power of two."""
        return self._index_bits

    @abc.abstractmethod
    def index(self, way: int, address: int) -> int:
        """Return the set index of ``address`` in ``way``."""

    def way_function(self, way: int) -> Callable[[int], int]:
        """A single-argument callable computing ``index(way, address)``.

        A caller hashing many keys binds one callable per way once and then
        pays no per-call way dispatch.  The returned callable is a *trusted*
        fast path: it assumes non-negative addresses and skips argument
        validation.
        Subclasses override this with closures that inline their mixing
        arithmetic.
        """
        self._check_way(way)
        index = self.index
        return lambda address: index(way, address)

    def way_functions(self) -> List[Callable[[int], int]]:
        """One :meth:`way_function` per way, in way order."""
        return [self.way_function(way) for way in range(self._num_ways)]

    def indices(self, address: int) -> List[int]:
        """Return the candidate set index of ``address`` for every way."""
        return [self.index(way, address) for way in range(self._num_ways)]

    def batch_indices(self, addresses: Sequence[int]) -> List[Tuple[int, ...]]:
        """Candidate indices for a batch of addresses, one tuple per address.

        Equivalent to ``[tuple(self.indices(a)) for a in addresses]``: the
        rows of :meth:`batch_indices_array` as tuples (the Figure 7 sweep
        precomputes its candidate indices this way).
        """
        return list(zip(*self.batch_indices_array(addresses).tolist()))

    def batch_indices_array(self, addresses) -> np.ndarray:
        """Candidate indices as a ``(num_ways, n)`` int64 array.

        Figure 7 hashes its keys this way, and the tests hold the compiled
        kernels' hashing (:meth:`descriptor`) to it.  This generic version
        calls the way functions per address; the skewing, strong and modulo
        families override it with numpy arithmetic.
        """
        values = np.asarray(addresses, dtype=np.int64).tolist()
        return np.array(
            [[fn(value) for value in values] for fn in self.way_functions()],
            dtype=np.int64,
        ).reshape(self._num_ways, len(values))

    def descriptor(self) -> Optional[array]:
        """The compiled kernels' description of these index functions.

        A ``uint64`` array of kind (0 modulo, 1 skewing, 2 strong), ways,
        sets, index bits and offset bits, then one seed per way, from which
        ``core/_kernels.c`` hashes every key itself.  ``None`` (the default)
        means the family has no compiled twin, and a
        :class:`~repro.core.cuckoo_hash.CuckooHashTable` refuses it.
        """
        return None

    def _descriptor(self, kind: int, offset_bits: int = 0, seeds=()) -> array:
        return array(
            "Q",
            [kind, self._num_ways, self._num_sets, self._index_bits, offset_bits,
             *(seeds or [0] * self._num_ways)],
        )

    def _check_way(self, way: int) -> None:
        if not 0 <= way < self._num_ways:
            raise IndexError(f"way {way} out of range [0, {self._num_ways})")


def validate_distinctness(family: HashFamily, addresses: Sequence[int]) -> float:
    """Fraction of addresses whose candidate indices are not all identical.

    Diagnostic helper used by tests: a good family should place almost every
    address at distinct indices across ways (when ``num_sets > 1``).
    """
    if not addresses:
        return 1.0
    distinct = 0
    for address in addresses:
        indices = family.indices(address)
        if len(set(indices)) > 1:
            distinct += 1
    return distinct / len(addresses)
