"""2-D mesh topology: tile coordinates and memory-controller anchors.

Cores are numbered row-major: core ``r * cols + c`` sits at coordinates
``(r, c)``.  Memory controllers attach off-chip at the top and bottom
edges (as on the Tile-Gx72): the first half of the controllers anchor to
row 0 tiles, the second half to the bottom row, at evenly spread columns.
This placement is what lets IRONHIDE assign rows of cores to a cluster
with that cluster's controllers on its own edge, so deterministic routing
never crosses the cluster boundary.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigError


class MeshTopology:
    """Geometry of the tiled multicore."""

    def __init__(self, rows: int, cols: int, n_mcs: int):
        if n_mcs < 1 or n_mcs % 2:
            raise ConfigError("the mesh model expects an even number of controllers >= 2")
        self.rows = rows
        self.cols = cols
        self.n_mcs = n_mcs
        self.n_cores = rows * cols
        self._anchors = self._place_controllers()

    def _place_controllers(self) -> List[Tuple[int, int]]:
        # Anchor columns include the row ends.  A cluster allocated as a
        # row-major prefix of cores therefore always contains the anchor
        # of its first top controller (tile (0, 0)), and the suffix
        # cluster always contains the anchor of the last bottom
        # controller (tile (rows-1, cols-1)): even one-core clusters can
        # reach a dedicated controller without transiting foreign tiles.
        half = self.n_mcs // 2
        if half == 1:
            top_cols = [0]
            bottom_cols = [self.cols - 1]
        else:
            top_cols = [i * (self.cols - 1) // (half - 1) for i in range(half)]
            bottom_cols = top_cols
        anchors = [(0, col) for col in top_cols]
        anchors.extend((self.rows - 1, col) for col in bottom_cols)
        return anchors

    def coords(self, core: int) -> Tuple[int, int]:
        if not 0 <= core < self.n_cores:
            raise ConfigError(f"core {core} outside mesh of {self.n_cores}")
        return divmod(core, self.cols)

    def core_at(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ConfigError(f"coordinates ({row}, {col}) outside mesh")
        return row * self.cols + col

    def mc_anchor(self, mc: int) -> Tuple[int, int]:
        """Edge tile the controller's off-chip port attaches to."""
        return self._anchors[mc]

    def mc_anchor_core(self, mc: int) -> int:
        row, col = self._anchors[mc]
        return self.core_at(row, col)

    def is_top_mc(self, mc: int) -> bool:
        return mc < self.n_mcs // 2

    @property
    def top_mcs(self) -> List[int]:
        return list(range(self.n_mcs // 2))

    @property
    def bottom_mcs(self) -> List[int]:
        return list(range(self.n_mcs // 2, self.n_mcs))

    def hops(self, a: int, b: int) -> int:
        """Manhattan distance between two tiles."""
        ra, ca = divmod(a, self.cols)
        rb, cb = divmod(b, self.cols)
        return abs(ra - rb) + abs(ca - cb)

    def hops_to_mc(self, core: int, mc: int) -> int:
        """Tile-to-controller distance (one extra hop off the edge)."""
        row, col = self._anchors[mc]
        r, c = divmod(core, self.cols)
        return abs(r - row) + abs(c - col) + 1

    @cached_property
    def _distance_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(core_distances, mc_distances)``, computed once per mesh."""
        rows = np.arange(self.n_cores) // self.cols
        cols = np.arange(self.n_cores) % self.cols
        core_dist = np.abs(rows[:, None] - rows[None, :]) + np.abs(
            cols[:, None] - cols[None, :]
        )
        mc_dist = np.zeros((self.n_cores, self.n_mcs), dtype=np.int64)
        for mc in range(self.n_mcs):
            ar, ac = self._anchors[mc]
            mc_dist[:, mc] = np.abs(rows - ar) + np.abs(cols - ac) + 1
        return core_dist.astype(np.int64), mc_dist

    @property
    def core_distances(self) -> np.ndarray:
        """[n_cores, n_cores] Manhattan hop counts."""
        return self._distance_tables[0]

    @property
    def mc_distances(self) -> np.ndarray:
        """[n_cores, n_mcs] tile-to-controller hop counts."""
        return self._distance_tables[1]

    def rows_of_cores(self, cores) -> List[int]:
        """Sorted list of distinct mesh rows covered by ``cores``."""
        return sorted({c // self.cols for c in cores})

    def __repr__(self) -> str:  # pragma: no cover
        return f"MeshTopology({self.rows}x{self.cols}, {self.n_mcs} MCs)"
