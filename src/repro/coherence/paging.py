"""Virtual-to-physical page mapping.

The workload generators lay their footprints out in contiguous *virtual*
regions, but caches and coherence directories are physically indexed: the
operating system allocates physical pages essentially at random, so blocks
that are contiguous in an application's address space end up scattered
across physical memory at page granularity.

This scattering is what makes real directory sets fill *unevenly* — and
the resulting set conflicts are precisely the effect the Sparse-directory
baselines of Figure 12 suffer from.  Feeding the contiguous virtual
addresses directly to the directories would index every set perfectly
uniformly and hide those conflicts entirely, so the coherence system
passes every access through a :class:`PageMapper` that emulates an OS
first-touch physical allocator: the first time a virtual page is seen it
is assigned a random free physical page, and the assignment is remembered
for the rest of the run.

The mapping is deterministic for a given seed, and identical access
streams therefore see identical physical layouts regardless of which
directory organization is being evaluated — exactly the controlled
comparison the paper performs.

Storage and the compiled kernel
-------------------------------
The page table is typed state the compiled ``translate`` kernel
(``core/_kernels.c``) reads and writes: an open-addressing table of int64
virtual pages (``-1`` vacant) and their int64 physical pages, a power of
two slots kept at most half full, beside a one-item row counting the pages
mapped.  A new page takes the next entry of the *allocation sequence*: the
physical pages the allocator hands out, in order.  The allocator draws a
page uniformly from the pool and redraws while the page is taken, so its
sequence is the draws with every repeat dropped.  The sequence is drawn
ahead, at least 4,096 pages at a time, on the first miss and whenever it
runs out: numpy's ``integers(0, n, size=k)`` returns exactly the ``k``
draws that ``k`` scalar calls would, so the pages come out as they would
one at a time.
The kernel translates a whole trace slice straight into the drain's
five-row trace, stopping early only for the sequence to be refilled or
the table doubled.
"""

from __future__ import annotations

import numpy as np

from repro.core import native

__all__ = ["PageMapper"]

#: Page-table slots at first (64 KB of keys and pages).
_INITIAL_SLOTS = 1 << 12

#: Pages drawn ahead at least, per refill of the allocation sequence.
_DRAWS = 1 << 12

#: ``translate_trace`` geometry that yields physical byte addresses in the
#: block row: no offset bits, one slice, one core.
_PHYSICAL = (0, 1, 1, 0)


class PageMapper:
    """First-touch random physical page allocator.

    Parameters
    ----------
    page_bytes:
        Page size; Table 1 uses 8 KB pages (scaled-down systems scale the
        page with the caches so the pages-per-directory-set ratio is
        preserved).
    physical_pages:
        Size of the physical page pool to draw from.  The default (2^24
        pages) is far larger than any generated footprint, so allocation
        never fails and collisions are resolved by redrawing.
    seed:
        RNG seed; the same seed reproduces the same layout.
    """

    def __init__(
        self,
        page_bytes: int = 8192,
        physical_pages: int = 1 << 24,
        seed: int = 0,
    ) -> None:
        if page_bytes <= 0:
            raise ValueError("page_bytes must be positive")
        if physical_pages <= 0:
            raise ValueError("physical_pages must be positive")
        self._page_bytes = page_bytes
        self._physical_pages = physical_pages
        self._rng = np.random.default_rng(seed)
        self._keys = np.full(_INITIAL_SLOTS, -1, dtype=np.int64)
        self._pages = np.zeros(_INITIAL_SLOTS, dtype=np.int64)
        self._mapped = np.zeros(1, dtype=np.int64)
        self._sequence = np.empty(0, dtype=np.int64)
        self._state = self._kernel_state()

    def _kernel_state(self) -> tuple:
        return self._keys, self._pages, self._mapped, self._sequence, self._page_bytes

    @property
    def page_bytes(self) -> int:
        return self._page_bytes

    @property
    def pages_mapped(self) -> int:
        """Number of virtual pages touched so far."""
        return int(self._mapped[0])

    def translate(self, virtual_address: int) -> int:
        """Translate a virtual byte address to its physical byte address."""
        return int(self.translate_batch(np.array([virtual_address], dtype=np.int64))[0])

    def translate_batch(self, virtual_addresses: np.ndarray) -> np.ndarray:
        """Translate a one-dimensional array of virtual byte addresses at once.

        Equivalent to mapping :meth:`translate` over the array — including
        the first-touch allocation order: unseen pages are allocated in
        order of first occurrence within the array, so interleaving batch
        and scalar translation over the same access stream produces the
        same page table.
        """
        addresses = np.ascontiguousarray(virtual_addresses, dtype=np.int64)
        cores, flags = np.zeros(addresses.size, np.int64), np.zeros(addresses.size, np.bool_)
        return self.translate_trace(cores, addresses, flags, flags, _PHYSICAL)[0]

    def translate_trace(self, cores, addresses, writes, instrs, geometry) -> np.ndarray:
        """Translate a trace slice into the compiled drain's five-row trace.

        ``cores`` and ``addresses`` are contiguous int64 arrays, ``writes``
        and ``instrs`` contiguous one-byte flags, all of one length;
        ``geometry`` is ``(block offset bits, slices, cores, core shift)``.
        Returns the int64 ``(5, n)`` trace of physical blocks, slice-local
        addresses, homes (``block % slices``), tracked caches (``core <<
        shift``, plus one for a data access when the shift is one) and
        write flags.  A core out of range raises :class:`IndexError` and a
        negative address :class:`ValueError`, before any page is mapped; an
        exhausted pool raises :class:`RuntimeError` at the page that finds
        it so, with the pages before it mapped.
        """
        fields = (cores, addresses, writes, instrs)
        trace = np.empty((5, len(cores)), dtype=np.int64)
        translate = native.KERNELS.translate
        position = 0
        while (position := translate(self._state, fields, trace, geometry, position)) < len(cores):
            if self._mapped[0] == self._sequence.size:
                self._refill()
            else:
                self._grow()
        return trace

    def _refill(self) -> None:
        """Draw the allocation sequence further ahead (module docstring).

        The sequence's pages are distinct, so the first occurrences of the
        pages among it and the new draws are the sequence, then the new
        pages in draw order."""
        if self._sequence.size >= self._physical_pages:
            raise RuntimeError("physical page pool exhausted")
        while self._mapped[0] == self._sequence.size:
            draws = self._rng.integers(
                0, self._physical_pages, size=max(_DRAWS, self._sequence.size)
            )
            pages = np.concatenate((self._sequence, draws))
            _, first = np.unique(pages, return_index=True)
            self._sequence = pages[np.sort(first)]
        self._state = self._kernel_state()

    def _grow(self) -> None:
        """Double the page table.

        The mappings are re-placed by the kernel itself: their virtual pages,
        translated at one byte per page into the empty doubled table, take
        their own physical pages as the allocation sequence.
        """
        live = self._keys >= 0
        pages, frames = self._keys[live], self._pages[live]
        self._keys = np.full(2 * self._keys.size, -1, dtype=np.int64)
        self._pages = np.zeros(self._keys.size, dtype=np.int64)
        self._mapped[0] = 0
        cores, flags = np.zeros(pages.size, np.int64), np.zeros(pages.size, np.bool_)
        native.KERNELS.translate(
            (self._keys, self._pages, self._mapped, frames, 1),
            (cores, pages, flags, flags),
            np.empty((5, pages.size), dtype=np.int64), _PHYSICAL, 0,
        )
        self._state = self._kernel_state()
