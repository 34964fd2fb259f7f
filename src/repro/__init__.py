"""repro — reproduction of the Cuckoo Directory (HPCA 2011).

A trace-driven model of CMP cache coherence directories built around the
paper's contribution, the *Cuckoo directory*: a coherence directory whose
tag store is a d-ary cuckoo hash table, giving set-associative lookup cost
with practically no conflict-induced invalidations and no capacity
over-provisioning.

Public API overview
-------------------
``repro.core``
    :class:`~repro.core.CuckooHashTable` and
    :class:`~repro.core.CuckooDirectory` — the paper's contribution.
``repro.directories``
    The simulated baselines (Sparse, Skewed) and the full-bit-vector
    sharer set every organization stores.
``repro.cache`` / ``repro.coherence``
    The tiled-CMP substrate: set-associative caches, the MESI protocol,
    address-interleaved directory slices and the trace simulator.
``repro.workloads``
    Synthetic Table 2 workload generators.
``repro.energy``
    The analytical energy/area scaling model behind Figures 4 and 13, the
    only place Duplicate-Tag, Tagless, In-Cache and the coarse and
    hierarchical sharer encodings appear (as in the paper).
``repro.experiments``
    One driver per paper figure.

Quick start
-----------
>>> from repro import CuckooDirectory
>>> directory = CuckooDirectory(num_caches=32, num_sets=512, num_ways=4)
>>> directory.add_sharer(0x1234, cache_id=3).inserted_new_entry
True
>>> sorted(directory.lookup(0x1234).sharers)
[3]
"""

from repro.config import (
    CacheConfig,
    CacheLevel,
    DirectoryConfig,
    PAPER_EVENT_MIX,
    PRIVATE_L2_16CORE,
    SHARED_L2_16CORE,
    SystemConfig,
)
from repro.core import CuckooDirectory, CuckooHashTable
from repro.coherence import MemoryAccess, SimulationResult, TiledCMP, TraceSimulator
from repro.directories import (
    Directory,
    DirectoryStats,
    SkewedDirectory,
    SparseDirectory,
)

__version__ = "1.4.0"

__all__ = [
    "__version__",
    "CacheConfig",
    "CacheLevel",
    "DirectoryConfig",
    "SystemConfig",
    "SHARED_L2_16CORE",
    "PRIVATE_L2_16CORE",
    "PAPER_EVENT_MIX",
    "CuckooHashTable",
    "CuckooDirectory",
    "Directory",
    "DirectoryStats",
    "SparseDirectory",
    "SkewedDirectory",
    "MemoryAccess",
    "TiledCMP",
    "TraceSimulator",
    "SimulationResult",
]
