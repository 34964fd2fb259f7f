"""Coherence-directory organizations and sharer representations.

This package contains every *baseline* directory organization the paper
compares against, behind a single :class:`~repro.directories.base.Directory`
interface:

* :class:`~repro.directories.duplicate_tag.DuplicateTagDirectory` — mirrors
  the private-cache tag arrays (Piranha / Niagara style).
* :class:`~repro.directories.sparse.SparseDirectory` — the classic
  set-associative sparse directory with configurable over-provisioning.
* :class:`~repro.directories.skewed.SkewedDirectory` — skewed-associative
  indexing with conventional single-step victimisation.
* :class:`~repro.directories.in_cache.InCacheDirectory` — sharer vectors
  embedded in the inclusive shared-L2 tags (a Sparse directory with the
  shared cache's geometry).
* :class:`~repro.directories.tagless.TaglessDirectory` — the Bloom-filter
  grid of Zebchuk et al. (super-set sharer tracking).

The Cuckoo directory itself (the paper's contribution) lives in
:mod:`repro.core`, and also implements the same interface.  Sparse,
Skewed and Cuckoo share one implementation,
:class:`~repro.directories.table.TableDirectory` over the cuckoo hash
table: their constructors choose only the table's index functions and its
insert policy (LRU eviction for the baselines, the displacement walk for
Cuckoo), and all three run on the simulator's vectorized drain.

Sharer-set representations (full bit vector, coarse vector, limited
pointers, hierarchical) live in :mod:`repro.directories.sharers` and are
pluggable into any tag-based organization.
"""

from repro.directories.base import (
    Directory,
    DirectoryEntry,
    DirectoryStats,
    LookupResult,
    UpdateResult,
)
from repro.directories.duplicate_tag import DuplicateTagDirectory
from repro.directories.in_cache import InCacheDirectory
from repro.directories.sharers import (
    CoarseVector,
    FullBitVector,
    HierarchicalVector,
    LimitedPointer,
    SharerSet,
    sharer_format,
)
from repro.directories.skewed import SkewedDirectory
from repro.directories.sparse import SparseDirectory
from repro.directories.tagless import TaglessDirectory

__all__ = [
    "Directory",
    "DirectoryEntry",
    "DirectoryStats",
    "LookupResult",
    "UpdateResult",
    "DuplicateTagDirectory",
    "SparseDirectory",
    "SkewedDirectory",
    "InCacheDirectory",
    "TaglessDirectory",
    "SharerSet",
    "FullBitVector",
    "CoarseVector",
    "LimitedPointer",
    "HierarchicalVector",
    "sharer_format",
]
