"""The baseline coherence-directory organizations and their sharer set.

This package contains the two *baseline* directory organizations the
paper simulates beside the Cuckoo directory, behind a single
:class:`~repro.directories.base.Directory` interface:

* :class:`~repro.directories.sparse.SparseDirectory` — the classic
  set-associative sparse directory with configurable over-provisioning.
* :class:`~repro.directories.skewed.SkewedDirectory` — skewed-associative
  indexing with conventional single-step victimisation.

The Cuckoo directory itself (the paper's contribution) lives in
:mod:`repro.core`, and also implements the same interface.  Sparse,
Skewed and Cuckoo share one implementation,
:class:`~repro.directories.table.TableDirectory` over the cuckoo hash
table: their constructors choose only the table's index functions and its
insert policy (LRU eviction for the baselines, the displacement walk for
Cuckoo), and all three run on the simulator's compiled drain.

Every entry stores a full bit vector, as a uint64 presence mask in the
table (:class:`~repro.directories.sharers.FullBitVector` is the same
encoding as an object).  Duplicate-Tag,
Tagless, In-Cache and the coarse and hierarchical sharer encodings appear
only in the paper's analytical Figures 4 and 13, and only as the models of
:mod:`repro.energy.model`.
"""

from repro.directories.base import (
    Directory,
    DirectoryStats,
    LookupResult,
    UpdateResult,
)
from repro.directories.sharers import FullBitVector
from repro.directories.skewed import SkewedDirectory
from repro.directories.sparse import SparseDirectory

__all__ = [
    "Directory",
    "DirectoryStats",
    "LookupResult",
    "UpdateResult",
    "SparseDirectory",
    "SkewedDirectory",
    "FullBitVector",
]
