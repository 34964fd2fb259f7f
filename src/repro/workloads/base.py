"""Workload abstractions shared by every trace generator."""

from __future__ import annotations

import abc
from enum import Enum
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.coherence.simulator import chunk_accesses
from repro.coherence.system import MemoryAccess
from repro.config import SystemConfig
from repro.core import native

__all__ = ["WorkloadCategory", "Workload", "ZipfSampler", "AddressSpaceLayout"]


class WorkloadCategory(str, Enum):
    """Table 2 groups (plus the multi-programmed mixes this repo adds)."""

    OLTP = "OLTP"
    DSS = "DSS"
    WEB = "Web"
    SCIENTIFIC = "Sci"
    SYNTHETIC = "Synthetic"
    MIX = "Mix"


class ZipfSampler:
    """Bounded Zipf(α) sampler over ``[0, population)``.

    ``alpha == 0`` degenerates to a uniform distribution.  Otherwise a
    sample inverts the CDF at a uniform ``u``: the first rank whose CDF is
    at least ``u``, exactly ``np.searchsorted(cdf, u, side="left")``.  The
    compiled ``zipf`` kernel (``core/_kernels.c``) finds it through a
    Chen–Asau guide table of ``M + 1`` entries, ``guide[j] =
    searchsorted(cdf, j / M)`` for ``M`` the smallest power of two at least
    twice the population: ``u``'s answer lies in ``cdf[guide[j] ..
    guide[j + 1]]`` for ``j = floor(u * M)``, a scan of about half an entry.
    That is exact, because scaling by a power of two is exact in float64
    (so ``j / M <= u < (j + 1) / M``) and the search is monotone in ``u``.
    The ``synthetic`` kernel resolves a chunk's ranks through the same
    tables (:attr:`tables`), one rank per access.
    """

    def __init__(self, population: int, alpha: float, rng: np.random.Generator) -> None:
        if population <= 0:
            raise ValueError("population must be positive")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self._population = population
        self._alpha = alpha
        self._rng = rng
        if alpha == 0.0:
            self._cdf: Optional[np.ndarray] = None
        else:
            ranks = np.arange(1, population + 1, dtype=np.float64)
            weights = ranks ** (-alpha)
            self._cdf = np.cumsum(weights)
            self._cdf /= self._cdf[-1]
            buckets = 1 << (2 * population - 1).bit_length()
            self._guide = np.searchsorted(
                self._cdf, np.arange(buckets + 1) / buckets
            ).astype(np.int64)

    @property
    def population(self) -> int:
        return self._population

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def tables(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The CDF and its guide table, as the compiled kernels read them;
        None when ``alpha == 0``."""
        return None if self._cdf is None else (self._cdf, self._guide)

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` indices in ``[0, population)``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if self._cdf is None:
            return self._rng.integers(0, self._population, size=count, dtype=np.int64)
        out = np.empty(count, dtype=np.int64)
        native.KERNELS.zipf(self._cdf, self._guide, self._rng.random(count), out)
        return out


class AddressSpaceLayout:
    """Carves the physical address space into non-overlapping regions.

    Every workload places its footprints (shared instructions, shared
    data, per-core private data, …) in disjoint regions so that an address
    unambiguously identifies the kind of block it is, which makes the
    generated sharing behaviour auditable in tests.
    """

    def __init__(self, block_bytes: int, base_address: int = 0x1000_0000) -> None:
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        self._block_bytes = block_bytes
        self._next_base = base_address

    def allocate(self, num_blocks: int) -> int:
        """Reserve a region of ``num_blocks`` blocks; returns its base address."""
        if num_blocks < 0:
            raise ValueError("num_blocks must be non-negative")
        base = self._next_base
        self._next_base += max(1, num_blocks) * self._block_bytes
        return base

    @property
    def block_bytes(self) -> int:
        return self._block_bytes


class Workload(abc.ABC):
    """A named, reproducible source of :class:`MemoryAccess` streams."""

    def __init__(self, name: str, category: WorkloadCategory) -> None:
        self._name = name
        self._category = category

    @property
    def name(self) -> str:
        return self._name

    @property
    def category(self) -> WorkloadCategory:
        return self._category

    @abc.abstractmethod
    def trace(self, system: SystemConfig, seed: int = 0) -> Iterator[MemoryAccess]:
        """Yield an unbounded stream of accesses for ``system``.

        The stream must be deterministic for a given ``(system, seed)``.
        Callers bound it with the simulator's ``max_accesses``.
        """

    def trace_chunks(
        self, system: SystemConfig, seed: int = 0, chunk_size: int = 4096
    ) -> Iterator[tuple]:
        """Yield the same stream as :meth:`trace` in chunked form.

        Each chunk is a tuple of parallel sequences ``(cores, addresses,
        is_writes, is_instructions)`` consumed by
        :meth:`~repro.coherence.simulator.TraceSimulator.run_chunks` via
        the batched front-end (:meth:`~repro.coherence.system.TiledCMP.
        access_batch`), which accepts numpy arrays and plain lists alike.
        The default implementation batches :meth:`trace` into lists
        (:func:`~repro.coherence.simulator.chunk_accesses`); generators
        with a vectorisable structure (the synthetic workloads, trace
        replays, mixes) override it to hand over whole numpy chunks without
        building per-access objects.  The flattened chunk stream is always
        access-for-access identical to :meth:`trace` for the same
        ``(system, seed)``.
        """
        return chunk_accesses(self.trace(system, seed), chunk_size)

    def _trace_via_chunks(
        self, system: SystemConfig, seed: int = 0
    ) -> Iterator[MemoryAccess]:
        """Adapt :meth:`trace_chunks` back into a per-access stream.

        The inverse of the default :meth:`trace_chunks`: chunk-native
        workloads (the vectorised generators, trace replays, mixes)
        implement ``trace`` by delegating here.  Chunk fields may be numpy
        arrays; the int()/bool() coercions keep the yielded
        :class:`MemoryAccess` objects on plain Python scalars.
        """
        for cores, addresses, writes, instrs in self.trace_chunks(system, seed=seed):
            for core, address, is_write, is_instruction in zip(
                cores, addresses, writes, instrs
            ):
                yield MemoryAccess(
                    core=int(core),
                    address=int(address),
                    is_write=bool(is_write),
                    is_instruction=bool(is_instruction),
                )

    def recommended_warmup(self, system: SystemConfig) -> int:
        """Accesses needed to warm the tracked caches before measuring.

        Heuristic: a few times the aggregate tracked-cache capacity, which
        is enough for LRU state and directory contents to reach steady
        state for these generators.
        """
        frames = (
            system.num_tracked_caches * system.tracked_cache_config.num_frames
        )
        return 3 * frames

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self._name!r}, {self._category.value})"
