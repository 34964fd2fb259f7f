"""The reference first-touch page mapper: a dict page table and one scalar
draw per redraw.

This is the allocator :class:`repro.coherence.paging.PageMapper` is held
to (``tests/coherence/test_paging.py``): every new virtual page takes
``rng.integers(0, physical_pages)``, redrawn while the page is taken, and
the mapping lives in a dict.  A batch allocates its unseen pages in order
of first occurrence, so batch and scalar calls interleave freely.
"""

from __future__ import annotations

from typing import Dict, Set

import numpy as np


class ReferencePageMapper:
    """``PageMapper``'s semantics, one page and one draw at a time."""

    def __init__(
        self, page_bytes: int = 8192, physical_pages: int = 1 << 24, seed: int = 0
    ) -> None:
        self._page_bytes = page_bytes
        self._physical_pages = physical_pages
        self._rng = np.random.default_rng(seed)
        self._page_table: Dict[int, int] = {}
        self._allocated: Set[int] = set()

    @property
    def pages_mapped(self) -> int:
        return len(self._page_table)

    def translate(self, virtual_address: int) -> int:
        if virtual_address < 0:
            raise ValueError("virtual_address must be non-negative")
        virtual_page, offset = divmod(virtual_address, self._page_bytes)
        physical_page = self._page_table.get(virtual_page)
        if physical_page is None:
            physical_page = self._allocate()
            self._page_table[virtual_page] = physical_page
        return physical_page * self._page_bytes + offset

    def translate_batch(self, virtual_addresses) -> np.ndarray:
        addresses = np.asarray(virtual_addresses, dtype=np.int64)
        if addresses.size and int(addresses.min()) < 0:
            raise ValueError("virtual_address must be non-negative")
        pages, offsets = np.divmod(addresses, self._page_bytes)
        unique, first_seen, inverse = np.unique(
            pages, return_index=True, return_inverse=True
        )
        table = self._page_table
        # First-touch order: allocate in stream order, not sorted order.
        for _, page in sorted(
            (position, page)
            for page, position in zip(unique.tolist(), first_seen.tolist())
            if page not in table
        ):
            table[page] = self._allocate()
        frames = np.array([table[page] for page in unique.tolist()], dtype=np.int64)
        return frames[inverse.reshape(-1)] * self._page_bytes + offsets

    def _allocate(self) -> int:
        if len(self._allocated) >= self._physical_pages:
            raise RuntimeError("physical page pool exhausted")
        while True:
            candidate = int(self._rng.integers(0, self._physical_pages))
            if candidate not in self._allocated:
                self._allocated.add(candidate)
                return candidate
