"""Strong ("cryptographic") hash functions.

Figure 7 of the paper characterises d-ary cuckoo hashing with strong
cryptographic hash functions so the measured insertion behaviour reflects
the hash-table algorithm rather than hash-function bias.  Section 5.5 then
shows that in practice the cheap skewing functions are sufficient.

A full cryptographic hash is unnecessary for that purpose; what matters is
that the per-way functions are statistically independent and uniform.  We
use the SplitMix64 finaliser (a well-studied 64-bit avalanche mixer) with a
distinct per-way seed, which passes standard avalanche tests and is orders
of magnitude faster in Python than hashlib digests.  A SHA-256 based family
is also provided for tests that want a reference.

The scalar mixer is inlined into the per-way closures returned by
:meth:`StrongHashFamily.way_function`, and
:meth:`StrongHashFamily.batch_indices_array` runs the same finaliser over
numpy ``uint64`` arrays — bit-identical to the scalar path because ``uint64``
arithmetic wraps exactly like the explicit 64-bit masking.  The compiled
kernels run it in C from the seeds in the family's descriptor.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from repro.hashing.base import HashFamily

__all__ = ["mix64", "StrongHashFamily", "Sha256HashFamily"]

_MASK64 = (1 << 64) - 1

# Large odd constants from the SplitMix64 / Murmur3 finalisers.
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def mix64(value: int) -> int:
    """SplitMix64 finaliser: a 64-bit bijective avalanche mixer."""
    value &= _MASK64
    value ^= value >> 30
    value = (value * _MIX_MULT_1) & _MASK64
    value ^= value >> 27
    value = (value * _MIX_MULT_2) & _MASK64
    value ^= value >> 31
    return value


class StrongHashFamily(HashFamily):
    """Per-way SplitMix64-based hash functions with independent seeds."""

    def __init__(self, num_ways: int, num_sets: int, seed: int = 0) -> None:
        super().__init__(num_ways, num_sets)
        self._seeds = [
            mix64(seed + (way + 1) * _GOLDEN_GAMMA) for way in range(num_ways)
        ]

    def index(self, way: int, address: int) -> int:
        self._check_way(way)
        if address < 0:
            raise ValueError("address must be non-negative")
        return mix64(address ^ self._seeds[way]) % self._num_sets

    def way_function(self, way: int) -> Callable[[int], int]:
        """A trusted per-way closure with the mixer arithmetic inlined."""
        self._check_way(way)

        def way_index(
            address: int,
            _seed: int = self._seeds[way],
            _sets: int = self._num_sets,
            _m1: int = _MIX_MULT_1,
            _m2: int = _MIX_MULT_2,
            _mask: int = _MASK64,
        ) -> int:
            value = (address ^ _seed) & _mask
            value ^= value >> 30
            value = (value * _m1) & _mask
            value ^= value >> 27
            value = (value * _m2) & _mask
            value ^= value >> 31
            return value % _sets

        return way_index

    def batch_indices_array(self, addresses) -> np.ndarray:
        """Vectorized SplitMix64 over ``uint64`` arrays, one pass per way."""
        values = np.asarray(addresses, dtype=np.uint64)
        sets = np.uint64(self._num_sets)
        mult1 = np.uint64(_MIX_MULT_1)
        mult2 = np.uint64(_MIX_MULT_2)
        s30, s27, s31 = np.uint64(30), np.uint64(27), np.uint64(31)
        out = np.empty((self._num_ways, values.size), dtype=np.int64)
        with np.errstate(over="ignore"):
            for way, seed in enumerate(self._seeds):
                mixed = values ^ np.uint64(seed)
                mixed = mixed ^ (mixed >> s30)
                mixed = mixed * mult1
                mixed = mixed ^ (mixed >> s27)
                mixed = mixed * mult2
                mixed = mixed ^ (mixed >> s31)
                out[way] = mixed % sets
        return out

    def descriptor(self):
        """Kind 2, with the per-way seeds."""
        return self._descriptor(2, seeds=self._seeds)


class Sha256HashFamily(HashFamily):
    """Reference family based on SHA-256 (slow; used only by tests)."""

    def __init__(self, num_ways: int, num_sets: int, seed: int = 0) -> None:
        super().__init__(num_ways, num_sets)
        self._seed = seed

    def index(self, way: int, address: int) -> int:
        self._check_way(way)
        if address < 0:
            raise ValueError("address must be non-negative")
        payload = f"{self._seed}:{way}:{address}".encode()
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "little") % self._num_sets
