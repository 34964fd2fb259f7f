"""Per-organization energy and area scaling models (Figures 4 and 13).

Each model answers two questions as a function of the core count:

* how many bits does one directory slice store? (area)
* how many bits does each kind of directory operation activate? (energy)

The per-core quantities plotted by the paper then follow directly, because
with one address-interleaved slice per core the per-core directory cost
*is* the per-slice cost:

* the number of blocks a slice must track is constant
  (``caches_per_core × frames per tracked cache``) regardless of the core
  count;
* what changes with core count is (a) the width of sharer encodings
  (linear for full vectors, logarithmic for coarse vectors, ~square-root
  for hierarchical), and (b) the associativity of Duplicate-Tag-like
  lookups and the width of Tagless filter rows (both linear in the number
  of caches).

Operation energies are weighted with the paper's measured event mix
(footnote 1: insert 23.5 %, add sharer 26.9 %, remove sharer 24.9 %,
remove tag 23.5 %, invalidate-all 1.2 %).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Sequence

from repro.config import PAPER_EVENT_MIX, CacheConfig
from repro.energy.sram import (
    DEFAULT_PARAMETERS,
    SramParameters,
    cam_area,
    cam_search_energy,
    l2_data_array_area,
    l2_tag_lookup_energy,
    sram_area,
    sram_read_energy,
    sram_write_energy,
)

__all__ = [
    "ScalingScenario",
    "DirectoryEnergyAreaModel",
    "DuplicateTagModel",
    "TaglessModel",
    "SparseModel",
    "InCacheModel",
    "CuckooModel",
    "ORGANIZATIONS",
    "organization_names",
    "relative_energy",
    "relative_area",
    "scaling_table",
]


# --------------------------------------------------------------------------- #
# Scenario
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScalingScenario:
    """Everything the scaling formulas need besides the core count.

    ``tracked_cache`` is the private cache the directory tracks (64 KB
    2-way L1 in the Shared-L2 configuration, 1 MB 16-way L2 in the
    Private-L2 configuration); ``caches_per_core`` is 2 for split I/D L1s
    and 1 for unified private L2s; ``l2_config`` provides the two
    normalisation references (tag-lookup energy and data-array area).
    """

    tracked_cache: CacheConfig
    caches_per_core: int
    l2_config: CacheConfig
    is_shared_l2: bool
    address_bits: int = 48
    event_mix: Mapping[str, float] = field(default_factory=lambda: dict(PAPER_EVENT_MIX))
    params: SramParameters = DEFAULT_PARAMETERS

    @classmethod
    def shared_l2(cls) -> "ScalingScenario":
        """The paper's Shared-L2 scenario: 2 × 64 KB 2-way L1 caches per core."""
        return cls(
            tracked_cache=CacheConfig(size_bytes=64 * 1024, associativity=2),
            caches_per_core=2,
            l2_config=CacheConfig(size_bytes=1024 * 1024, associativity=16),
            is_shared_l2=True,
        )

    @classmethod
    def private_l2(cls) -> "ScalingScenario":
        """The paper's Private-L2 scenario: one 1 MB 16-way L2 per core."""
        return cls(
            tracked_cache=CacheConfig(size_bytes=1024 * 1024, associativity=16),
            caches_per_core=1,
            l2_config=CacheConfig(size_bytes=1024 * 1024, associativity=16),
            is_shared_l2=False,
        )

    # -- derived quantities ------------------------------------------------
    def num_caches(self, cores: int) -> int:
        """Total number of tracked private caches at ``cores`` cores."""
        return cores * self.caches_per_core

    def frames_per_slice(self) -> int:
        """Blocks one slice must be able to track (constant in core count)."""
        return self.caches_per_core * self.tracked_cache.num_frames

    def tag_bits(self) -> int:
        """Stored tag width (block address bits; index bits are kept for
        simplicity, a small constant offset that cancels in the ratios)."""
        return self.address_bits - self.tracked_cache.block_offset_bits

    def reference_energy(self) -> float:
        return l2_tag_lookup_energy(self.l2_config, self.address_bits, self.params)

    def reference_area(self) -> float:
        return l2_data_array_area(self.l2_config, self.params)


@lru_cache(maxsize=None)
def _sharer_bits(encoding: str, num_caches: int) -> float:
    """Per-entry sharer-encoding width for ``num_caches`` caches.

    The only definition of the full, coarse and hierarchical encodings'
    widths: the simulated directories store only the full bit vector.
    Memoized so the Figure 13 sweep — which costs every organization at
    every core count — resolves each (encoding, cache-count) width once
    instead of recomputing ``math.log2`` per entry."""
    if num_caches <= 0:
        raise ValueError("num_caches must be positive")
    log_caches = max(1.0, math.ceil(math.log2(num_caches)))
    if encoding == "full":
        return float(num_caches)
    if encoding == "coarse":
        # The paper's Sparse Coarse budget: 2*log2(#caches) bits per entry.
        return 2.0 * log_caches
    if encoding == "hierarchical":
        # First-level group vector + one second-level sub-vector, both of
        # width ~sqrt(#caches) (Wallach '92 / Guo et al. '10 organization).
        return 2.0 * math.ceil(math.sqrt(num_caches))
    raise ValueError(f"unknown sharer encoding {encoding!r}")


# --------------------------------------------------------------------------- #
# Model base class
# --------------------------------------------------------------------------- #
class DirectoryEnergyAreaModel(abc.ABC):
    """Area and per-operation energy of one directory organization."""

    def __init__(self, name: str) -> None:
        self._name = name

    @property
    def name(self) -> str:
        return self._name

    def applicable(self, scenario: ScalingScenario) -> bool:
        """Whether the organization exists in this scenario (e.g. the
        in-cache directory requires an inclusive shared L2)."""
        return True

    @abc.abstractmethod
    def storage_bits(self, scenario: ScalingScenario, cores: int) -> float:
        """Bits stored by one directory slice."""

    @abc.abstractmethod
    def area(self, scenario: ScalingScenario, cores: int) -> float:
        """Area of one directory slice (per-core area)."""

    @abc.abstractmethod
    def operation_energies(
        self, scenario: ScalingScenario, cores: int
    ) -> Dict[str, float]:
        """Energy of each directory event type (keys of ``PAPER_EVENT_MIX``)."""

    def energy_per_operation(self, scenario: ScalingScenario, cores: int) -> float:
        """Event-mix-weighted average energy of one directory operation."""
        energies = self.operation_energies(scenario, cores)
        mix = scenario.event_mix
        total_weight = sum(mix.values())
        return sum(energies[event] * weight for event, weight in mix.items()) / total_weight

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self._name!r})"


# --------------------------------------------------------------------------- #
# Duplicate-Tag
# --------------------------------------------------------------------------- #
class DuplicateTagModel(DirectoryEnergyAreaModel):
    """Duplicate-Tag directory: mirrors every tracked cache's tag array.

    Storage per slice is one tag per tracked frame (constant per core),
    but every lookup searches ``cache associativity × number of caches``
    tags associatively, so lookup energy grows linearly with the core
    count — the quadratic aggregate growth of Section 3.1.
    """

    def __init__(self, name: str = "Duplicate-Tag") -> None:
        super().__init__(name)

    def storage_bits(self, scenario: ScalingScenario, cores: int) -> float:
        return scenario.frames_per_slice() * (scenario.tag_bits() + 1)

    def area(self, scenario: ScalingScenario, cores: int) -> float:
        # The wide associative search requires CAM-style cells.
        return cam_area(self.storage_bits(scenario, cores), scenario.params)

    def operation_energies(
        self, scenario: ScalingScenario, cores: int
    ) -> Dict[str, float]:
        params = scenario.params
        tag = scenario.tag_bits()
        searched = scenario.tracked_cache.associativity * scenario.num_caches(cores) * tag
        lookup = cam_search_energy(searched, params)
        write_entry = sram_write_energy(tag + 1, params)
        return {
            "insert_tag": lookup + write_entry,
            "add_sharer": lookup + write_entry,
            "remove_sharer": lookup + write_entry,
            "remove_tag": lookup + write_entry,
            "invalidate_all": lookup,
        }


# --------------------------------------------------------------------------- #
# Tagless
# --------------------------------------------------------------------------- #
class TaglessModel(DirectoryEnergyAreaModel):
    """Tagless directory (Zebchuk et al.): grid of Bloom filters.

    The organization stores no tags — only a few filter bits per tracked
    frame — which makes its area tiny and essentially constant per core.
    Every lookup, however, must test (and every update must read-modify-
    write) a sharer-vector-wide row per probed filter position, so the
    bits touched per operation grow linearly with the number of caches:
    the same energy-scaling slope as the Duplicate-Tag organization, just
    offset by a constant factor (Section 3.3).
    """

    def __init__(
        self,
        name: str = "Tagless",
        bits_per_frame: float = 3.0,
        num_probes: int = 2,
    ) -> None:
        super().__init__(name)
        if bits_per_frame <= 0:
            raise ValueError("bits_per_frame must be positive")
        if num_probes <= 0:
            raise ValueError("num_probes must be positive")
        self._bits_per_frame = bits_per_frame
        self._num_probes = num_probes

    def storage_bits(self, scenario: ScalingScenario, cores: int) -> float:
        return scenario.frames_per_slice() * self._bits_per_frame

    def area(self, scenario: ScalingScenario, cores: int) -> float:
        return sram_area(self.storage_bits(scenario, cores), scenario.params)

    def operation_energies(
        self, scenario: ScalingScenario, cores: int
    ) -> Dict[str, float]:
        params = scenario.params
        row_bits = scenario.num_caches(cores)
        lookup = sram_read_energy(self._num_probes * row_bits, params)
        update = lookup + sram_write_energy(self._num_probes * row_bits, params)
        return {
            "insert_tag": update,
            "add_sharer": update,
            "remove_sharer": update,
            "remove_tag": update,
            "invalidate_all": lookup,
        }


# --------------------------------------------------------------------------- #
# Sparse (set-associative) family
# --------------------------------------------------------------------------- #
class SparseModel(DirectoryEnergyAreaModel):
    """Set-associative Sparse directory with a configurable sharer encoding.

    The capacity must be over-provisioned (8x in the paper's scalable
    variants) to keep set-conflict invalidations rare, which is exactly
    the area cost the Cuckoo directory removes.
    """

    def __init__(
        self,
        name: str,
        provisioning: float = 8.0,
        ways: int = 8,
        encoding: str = "coarse",
        area_overhead: float = 1.0,
    ) -> None:
        super().__init__(name)
        if provisioning <= 0:
            raise ValueError("provisioning must be positive")
        if ways <= 0:
            raise ValueError("ways must be positive")
        if area_overhead < 1.0:
            raise ValueError("area_overhead must be >= 1")
        self._provisioning = provisioning
        self._ways = ways
        self._encoding = encoding
        self._area_overhead = area_overhead

    @property
    def provisioning(self) -> float:
        return self._provisioning

    @property
    def ways(self) -> int:
        return self._ways

    @property
    def encoding(self) -> str:
        return self._encoding

    def entries(self, scenario: ScalingScenario) -> float:
        return self._provisioning * scenario.frames_per_slice()

    def entry_bits(self, scenario: ScalingScenario, cores: int) -> float:
        return (
            1
            + scenario.tag_bits()
            + _sharer_bits(self._encoding, scenario.num_caches(cores))
        )

    def storage_bits(self, scenario: ScalingScenario, cores: int) -> float:
        return self.entries(scenario) * self.entry_bits(scenario, cores)

    def area(self, scenario: ScalingScenario, cores: int) -> float:
        return self._area_overhead * sram_area(
            self.storage_bits(scenario, cores), scenario.params
        )

    def operation_energies(
        self, scenario: ScalingScenario, cores: int
    ) -> Dict[str, float]:
        params = scenario.params
        tag = scenario.tag_bits()
        sharer_bits = _sharer_bits(self._encoding, scenario.num_caches(cores))
        lookup = sram_read_energy(self._ways * tag + sharer_bits, params)
        write_entry = sram_write_energy(tag + sharer_bits + 1, params)
        write_sharers = sram_write_energy(sharer_bits, params)
        return {
            "insert_tag": lookup + write_entry,
            "add_sharer": lookup + write_sharers,
            "remove_sharer": lookup + write_sharers,
            "remove_tag": lookup + write_sharers,
            "invalidate_all": lookup,
        }


class InCacheModel(DirectoryEnergyAreaModel):
    """In-cache directory: sharer vectors embedded in the shared-L2 tags.

    Tag storage and tag-lookup energy come for free with the L2 access,
    but there is one (full) sharer vector per L2 frame, so both area and
    the bits touched per operation grow linearly with the core count —
    the organization stops being attractive beyond ~128 cores
    (Section 5.6).  Only meaningful for the Shared-L2 configuration.
    """

    def __init__(self, name: str = "Sparse 8x In-Cache", encoding: str = "full") -> None:
        super().__init__(name)
        self._encoding = encoding

    def applicable(self, scenario: ScalingScenario) -> bool:
        return scenario.is_shared_l2

    def storage_bits(self, scenario: ScalingScenario, cores: int) -> float:
        vector_bits = _sharer_bits(self._encoding, scenario.num_caches(cores))
        return scenario.l2_config.num_frames * vector_bits

    def area(self, scenario: ScalingScenario, cores: int) -> float:
        return sram_area(self.storage_bits(scenario, cores), scenario.params)

    def operation_energies(
        self, scenario: ScalingScenario, cores: int
    ) -> Dict[str, float]:
        params = scenario.params
        vector_bits = _sharer_bits(self._encoding, scenario.num_caches(cores))
        read_vector = sram_read_energy(vector_bits, params)
        write_vector = sram_write_energy(vector_bits, params)
        return {
            "insert_tag": read_vector + write_vector,
            "add_sharer": read_vector + write_vector,
            "remove_sharer": read_vector + write_vector,
            "remove_tag": read_vector + write_vector,
            "invalidate_all": read_vector,
        }


# --------------------------------------------------------------------------- #
# Cuckoo
# --------------------------------------------------------------------------- #
class CuckooModel(DirectoryEnergyAreaModel):
    """Cuckoo directory: low associativity, no capacity over-provisioning.

    Lookup cost equals a ``ways``-way set-associative lookup; insertions
    additionally rewrite ``average_attempts`` entries (measured at well
    under 2 for the paper's chosen designs, Section 5.3).  Because set
    conflicts are resolved by displacement instead of over-provisioning,
    the slice needs only ~1x–1.5x the worst-case entry count.
    """

    def __init__(
        self,
        name: str,
        provisioning: float = 1.0,
        ways: int = 4,
        encoding: str = "coarse",
        average_attempts: float = 1.2,
        area_overhead: float = 1.0,
    ) -> None:
        super().__init__(name)
        if provisioning <= 0:
            raise ValueError("provisioning must be positive")
        if ways < 2:
            raise ValueError("a cuckoo directory needs at least 2 ways")
        if average_attempts < 1.0:
            raise ValueError("average_attempts must be >= 1")
        if area_overhead < 1.0:
            raise ValueError("area_overhead must be >= 1")
        self._provisioning = provisioning
        self._ways = ways
        self._encoding = encoding
        self._average_attempts = average_attempts
        self._area_overhead = area_overhead

    @property
    def provisioning(self) -> float:
        return self._provisioning

    @property
    def ways(self) -> int:
        return self._ways

    @property
    def encoding(self) -> str:
        return self._encoding

    def entries(self, scenario: ScalingScenario) -> float:
        return self._provisioning * scenario.frames_per_slice()

    def entry_bits(self, scenario: ScalingScenario, cores: int) -> float:
        return (
            1
            + scenario.tag_bits()
            + _sharer_bits(self._encoding, scenario.num_caches(cores))
        )

    def storage_bits(self, scenario: ScalingScenario, cores: int) -> float:
        return self.entries(scenario) * self.entry_bits(scenario, cores)

    def area(self, scenario: ScalingScenario, cores: int) -> float:
        return self._area_overhead * sram_area(
            self.storage_bits(scenario, cores), scenario.params
        )

    def operation_energies(
        self, scenario: ScalingScenario, cores: int
    ) -> Dict[str, float]:
        params = scenario.params
        tag = scenario.tag_bits()
        sharer_bits = _sharer_bits(self._encoding, scenario.num_caches(cores))
        entry_bits = tag + sharer_bits + 1
        lookup = sram_read_energy(self._ways * tag + sharer_bits, params)
        write_sharers = sram_write_energy(sharer_bits, params)
        insert = lookup + self._average_attempts * sram_write_energy(entry_bits, params)
        return {
            "insert_tag": insert,
            "add_sharer": lookup + write_sharers,
            "remove_sharer": lookup + write_sharers,
            "remove_tag": lookup + write_sharers,
            "invalidate_all": lookup,
        }


# --------------------------------------------------------------------------- #
# Registry and convenience functions
# --------------------------------------------------------------------------- #
def _build_registry() -> Dict[str, DirectoryEnergyAreaModel]:
    models: List[DirectoryEnergyAreaModel] = [
        DuplicateTagModel(),
        TaglessModel(),
        InCacheModel(name="Sparse 8x In-Cache"),
        SparseModel(name="Sparse 8x Hierarchical", encoding="hierarchical", area_overhead=1.3),
        SparseModel(name="Sparse 8x Coarse", encoding="coarse"),
        SparseModel(name="Sparse 8x Full", encoding="full"),
        CuckooModel(name="Cuckoo Hierarchical", provisioning=1.5, ways=4,
                    encoding="hierarchical", area_overhead=1.3),
        CuckooModel(name="Cuckoo Coarse", provisioning=1.5, ways=4, encoding="coarse"),
    ]
    return {model.name: model for model in models}


#: Every organization the paper plots (Figures 4 and 13), by legend name.
ORGANIZATIONS: Dict[str, DirectoryEnergyAreaModel] = _build_registry()

#: The organizations in Figure 4 (baselines only).
FIGURE4_ORGANIZATIONS = [
    "Duplicate-Tag",
    "Tagless",
    "Sparse 8x In-Cache",
    "Sparse 8x Hierarchical",
    "Sparse 8x Coarse",
]

#: The organizations in Figure 13 (baselines + Cuckoo variants).
FIGURE13_ORGANIZATIONS = FIGURE4_ORGANIZATIONS + [
    "Cuckoo Hierarchical",
    "Cuckoo Coarse",
]


def organization_names() -> List[str]:
    """Names of every modelled organization."""
    return list(ORGANIZATIONS)


def relative_energy(
    organization: str, scenario: ScalingScenario, cores: int
) -> float:
    """Average directory-operation energy relative to a 1 MB L2 tag lookup."""
    model = ORGANIZATIONS[organization]
    return model.energy_per_operation(scenario, cores) / scenario.reference_energy()


def relative_area(organization: str, scenario: ScalingScenario, cores: int) -> float:
    """Per-core directory area relative to a 1 MB L2 data array."""
    model = ORGANIZATIONS[organization]
    return model.area(scenario, cores) / scenario.reference_area()


def scaling_table(
    organizations: Sequence[str],
    scenario: ScalingScenario,
    core_counts: Sequence[int] = (16, 32, 64, 128, 256, 512, 1024),
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Energy/area scaling series for a set of organizations.

    Returns ``{organization: {cores: {"energy": e, "area": a}}}`` with both
    values normalised as in the paper; organizations not applicable to the
    scenario (e.g. in-cache in Private-L2) are omitted.
    """
    table: Dict[str, Dict[int, Dict[str, float]]] = {}
    for name in organizations:
        model = ORGANIZATIONS[name]
        if not model.applicable(scenario):
            continue
        table[name] = {
            cores: {
                "energy": relative_energy(name, scenario, cores),
                "area": relative_area(name, scenario, cores),
            }
            for cores in core_counts
        }
    return table
