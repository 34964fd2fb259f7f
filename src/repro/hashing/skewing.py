"""Seznec–Bodin skewing hash functions.

The skewed-associative cache [Seznec & Bodin, PARLE '93] indexes each way
with a different function built from a handful of XOR gates over two
address bit-fields.  The Cuckoo directory paper uses exactly this family
for its default design (Section 5.5) because it costs only "several levels
of logic" in hardware.

The construction implemented here follows the published family:

* split the block address (above the offset bits) into two ``n``-bit
  fields ``A1`` (low) and ``A2`` (high), where ``n`` is the number of
  index bits;
* way *i* is indexed by ``sigma^i(A1) XOR A2`` where ``sigma`` is a
  single-cycle permutation of the ``n`` index bits (a rotate-and-flip
  feedback function in the original paper; we use a bit rotation combined
  with a conditional bit flip, which has the same hardware cost and the
  same inter-way decorrelation property).

Because ``sigma`` permutes only ``n``-bit values and ``n`` is small, every
power of sigma a way needs is precomputed as a lookup table of ``num_sets``
entries, the first time Python indexes through the family; the per-address
work then collapses to three masked shifts, two table loads and two XORs,
with no Python-level loop.  The compiled kernels, which hash every key of
the simulator (the drain, the walk and the directory API alike), apply
sigma themselves, from the family's :meth:`~repro.hashing.base.HashFamily.
descriptor`, so a simulation never builds the tables.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.hashing.base import HashFamily

__all__ = ["SkewingHashFamily", "skew_sigma"]

#: Above this set count the sigma lookup tables are not materialised (the
#: one-time build cost and memory would dwarf any per-call saving).
_MAX_TABLE_SETS = 1 << 18


def skew_sigma(value: int, bits: int) -> int:
    """One application of the skewing permutation ``sigma`` on ``bits`` bits.

    The permutation rotates the field left by one and XORs the wrapped-around
    most-significant bit into bit 1, the classic "shuffle with feedback" used
    by skewed-associative caches.  It is a bijection on ``bits``-bit values.
    """
    if bits <= 0:
        return 0
    mask = (1 << bits) - 1
    value &= mask
    msb = (value >> (bits - 1)) & 1
    rotated = ((value << 1) | msb) & mask
    if bits >= 2:
        rotated ^= msb << 1
    return rotated


class SkewingHashFamily(HashFamily):
    """The XOR-based skewing family used by the paper's default design.

    Way ``i`` maps address ``a`` (block address, offset bits already
    stripped by the caller or ignored via ``offset_bits``) to::

        sigma^i(A1) ^ sigma^(i // 2)(A2) ^ A3   mod num_sets

    where ``A1``, ``A2`` and ``A3`` are consecutive index-sized bit-fields
    of the address.  Applying ``sigma`` a different number of times per way
    keeps the functions pairwise distinct while remaining a few XOR levels
    deep.
    """

    def __init__(self, num_ways: int, num_sets: int, offset_bits: int = 0) -> None:
        super().__init__(num_ways, num_sets)
        if num_sets & (num_sets - 1):
            raise ValueError("SkewingHashFamily requires a power-of-two set count")
        if offset_bits < 0:
            raise ValueError("offset_bits must be non-negative")
        self._offset_bits = offset_bits
        # The sigma tables, built on first use on the Python side (the
        # compiled kernels apply sigma from the descriptor), and their numpy
        # copies, built on the first batch_indices_array call.
        self._tables = None
        self._sigma_arrays = None

    @property
    def _sigma_tables(self) -> List[List[int]]:
        """``tables[p][v] == sigma^p(v)`` for every power any way uses."""
        if self._tables is None:
            bits, tables = self.index_bits, []
            if bits and self._num_sets <= _MAX_TABLE_SETS:
                tables = [list(range(self._num_sets))]
                for _ in range(1, self._num_ways):
                    tables.append([skew_sigma(value, bits) for value in tables[-1]])
            self._tables = tables
        return self._tables

    @property
    def offset_bits(self) -> int:
        return self._offset_bits

    def index(self, way: int, address: int) -> int:
        self._check_way(way)
        if address < 0:
            raise ValueError("address must be non-negative")
        bits = self.index_bits
        if bits == 0:
            return 0
        block = address >> self._offset_bits
        mask = (1 << bits) - 1
        field1 = block & mask
        field2 = (block >> bits) & mask
        field3 = (block >> (2 * bits)) & mask
        if self._sigma_tables:
            field1 = self._sigma_tables[way][field1]
            field2 = self._sigma_tables[way // 2][field2]
        else:
            for _ in range(way):
                field1 = skew_sigma(field1, bits)
            for _ in range(way // 2):
                field2 = skew_sigma(field2, bits)
        return (field1 ^ field2 ^ field3) & mask

    def way_function(self, way: int) -> Callable[[int], int]:
        """A trusted per-way closure with the sigma tables bound as defaults."""
        self._check_way(way)
        bits = self.index_bits
        if bits == 0:
            return lambda address: 0
        if not self._sigma_tables:
            index = self.index
            return lambda address: index(way, address)
        mask = (1 << bits) - 1
        bits2 = 2 * bits

        def way_index(
            address: int,
            _t1: List[int] = self._sigma_tables[way],
            _t2: List[int] = self._sigma_tables[way // 2],
            _mask: int = mask,
            _bits: int = bits,
            _bits2: int = bits2,
            _offset: int = self._offset_bits,
        ) -> int:
            block = address >> _offset
            return (
                _t1[block & _mask]
                ^ _t2[(block >> _bits) & _mask]
                ^ ((block >> _bits2) & _mask)
            )

        return way_index

    def batch_indices_array(self, addresses) -> np.ndarray:
        """Vectorized candidate indices: three shifts, two table gathers."""
        bits = self.index_bits
        if bits == 0 or not self._sigma_tables:
            return super().batch_indices_array(addresses)
        blocks = np.asarray(addresses, dtype=np.int64) >> self._offset_bits
        mask = (1 << bits) - 1
        field1 = blocks & mask
        field2 = (blocks >> bits) & mask
        field3 = (blocks >> (2 * bits)) & mask
        tables = self._sigma_arrays
        if tables is None:
            tables = [np.asarray(table, dtype=np.int64) for table in self._sigma_tables]
            self._sigma_arrays = tables
        out = np.empty((self._num_ways, blocks.size), dtype=np.int64)
        for way in range(self._num_ways):
            np.bitwise_xor(tables[way][field1], tables[way // 2][field2], out=out[way])
            out[way] ^= field3
        return out

    def descriptor(self):
        """Kind 1: the compiled kernels apply sigma themselves."""
        return self._descriptor(1, self._offset_bits)
