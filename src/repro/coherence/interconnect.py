"""Simple 2-D mesh interconnect model.

Tiled CMPs route coherence messages over an on-chip network; only hop
counts matter for the traffic accounting in this library (no contention or
timing).  Tiles are laid out row-major on the smallest square-ish mesh
that fits the core count, and messages take dimension-ordered (X-then-Y)
routes, so the hop count between two tiles is their Manhattan distance.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = ["MeshInterconnect"]


class MeshInterconnect:
    """Manhattan-distance hop model over a near-square 2-D mesh."""

    def __init__(self, num_tiles: int) -> None:
        if num_tiles <= 0:
            raise ValueError("num_tiles must be positive")
        self._num_tiles = num_tiles
        self._columns = max(1, int(math.ceil(math.sqrt(num_tiles))))
        self._rows = int(math.ceil(num_tiles / self._columns))

    @property
    def num_tiles(self) -> int:
        return self._num_tiles

    @property
    def dimensions(self) -> Tuple[int, int]:
        """(rows, columns) of the mesh."""
        return self._rows, self._columns

    def coordinates(self, tile: int) -> Tuple[int, int]:
        """Row-major (row, column) position of a tile."""
        self._check(tile)
        return divmod(tile, self._columns)

    def hops(self, source: int, destination: int) -> int:
        """Manhattan distance between two tiles (0 for the same tile)."""
        sr, sc = self.coordinates(source)
        dr, dc = self.coordinates(destination)
        return abs(sr - dr) + abs(sc - dc)

    def hop_table(self) -> np.ndarray:
        """:meth:`hops` between every pair of tiles, as an int64 array."""
        rows, columns = np.divmod(np.arange(self._num_tiles, dtype=np.int64), self._columns)
        return (
            np.abs(rows[:, None] - rows[None, :])
            + np.abs(columns[:, None] - columns[None, :])
        )

    def average_distance(self) -> float:
        """Mean hop count over all ordered tile pairs (diagnostic)."""
        return float(self.hop_table().mean())

    def _check(self, tile: int) -> None:
        if not 0 <= tile < self._num_tiles:
            raise IndexError(f"tile {tile} out of range [0, {self._num_tiles})")
