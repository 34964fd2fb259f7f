"""MESI coherence protocol and tiled-CMP system model.

This package is the substrate the paper's evaluation runs on: a
trace-driven model of the tiled CMP of Table 1.  Cores issue memory
accesses; private caches filter them; misses and upgrades travel to the
block's address-interleaved *home* tile, where the directory slice is
consulted and invalidations are sent to sharers.  Both system
configurations of the paper are supported:

* **Shared-L2** — the directory tracks the split I/D L1 caches (two
  tracked caches per core) in front of an address-interleaved shared L2;
* **Private-L2** — the directory tracks unified private L2 caches (one
  tracked cache per core), representative of private-L2 or three-level
  hierarchies.

The directory organization is pluggable: any
:class:`~repro.directories.base.Directory` factory can be used, which is
how the experiments swap Sparse/Skewed/Cuckoo organizations over
identical access streams.
"""

from repro.coherence.interconnect import MeshInterconnect
from repro.coherence.messages import MessageType, TrafficStats
from repro.coherence.paging import PageMapper
from repro.coherence.simulator import SimulationResult, TraceSimulator
from repro.coherence.system import MemoryAccess, TiledCMP

__all__ = [
    "MemoryAccess",
    "TiledCMP",
    "TraceSimulator",
    "SimulationResult",
    "MeshInterconnect",
    "MessageType",
    "TrafficStats",
    "PageMapper",
]
