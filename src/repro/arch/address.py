"""Physical address space, DRAM regions and per-process page tables.

The machine's physical memory is divided into ``n_regions`` DRAM regions
(the paper's unit of static memory partitioning).  A physical page is
identified by a dense *global frame number*::

    frame = region_id * frames_per_region + index_within_region

Dense frame numbers let the hierarchy keep side tables (the L2 homing
table) as flat numpy arrays, which is what makes trace replay fast.

Processes observe a private virtual address space; :class:`VirtualMemory`
is the per-process page table.  Pages are allocated on first touch from
the DRAM regions the owning process is entitled to — the strong-isolation
policies restrict that entitlement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.config import SystemConfig
from repro.errors import AllocationError


@dataclass
class RegionState:
    """Bump allocator state for one DRAM region."""

    region_id: int
    n_frames: int
    next_free: int = 0

    @property
    def free_frames(self) -> int:
        return self.n_frames - self.next_free


class AddressSpace:
    """Machine-wide physical frame allocator, region aware."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.frames_per_region = config.mem.region_bytes // config.page_bytes
        self.regions: List[RegionState] = [
            RegionState(r, self.frames_per_region) for r in range(config.mem.n_regions)
        ]

    @property
    def total_frames(self) -> int:
        return self.frames_per_region * len(self.regions)

    def region_of_frame(self, frame: int) -> int:
        """DRAM region a global frame number belongs to."""
        return frame // self.frames_per_region

    def alloc(self, n_pages: int, regions: Sequence[int]) -> List[int]:
        """Allocate ``n_pages`` frames round-robin over ``regions``.

        Round-robin interleaving across the entitled regions mirrors
        Tilera's ``tmc_alloc_set_nodes_interleaved`` behaviour and spreads
        a process's footprint over its memory controllers.
        """
        if not regions:
            raise AllocationError("no DRAM regions to allocate from")
        for r in regions:
            if not 0 <= r < len(self.regions):
                raise AllocationError(f"region {r} does not exist")
        frames: List[int] = []
        idx = 0
        attempts = 0
        while len(frames) < n_pages:
            region = self.regions[regions[idx % len(regions)]]
            idx += 1
            if region.free_frames > 0:
                frames.append(region.region_id * self.frames_per_region + region.next_free)
                region.next_free += 1
                attempts = 0
            else:
                attempts += 1
                if attempts >= len(regions):
                    raise AllocationError(
                        f"out of physical memory in regions {list(regions)}"
                    )
        return frames


@dataclass
class VirtualMemory:
    """Per-process page table mapping virtual pages to global frames."""

    name: str
    address_space: AddressSpace
    regions: List[int]
    page_table: Dict[int, int] = field(default_factory=dict)

    def set_regions(self, regions: Iterable[int]) -> None:
        """Change the DRAM regions future allocations draw from."""
        self.regions = list(regions)

    def ensure_mapped(self, vpages: np.ndarray) -> np.ndarray:
        """Map any unmapped virtual pages; return frames for ``vpages``.

        ``vpages`` must be a 1-D array of *unique* virtual page numbers.
        Returns the matching global frame numbers, allocating on demand.
        """
        pages = vpages.tolist() if isinstance(vpages, np.ndarray) else list(vpages)
        table = self.page_table
        missing = [p for p in pages if p not in table]
        if missing:
            table.update(zip(missing, self.address_space.alloc(len(missing), self.regions)))
        return np.asarray([table[p] for p in pages], dtype=np.int64)

    def translate(self, vpage: int) -> int:
        """Translate a single virtual page, allocating on first touch."""
        frame = self.page_table.get(vpage)
        if frame is None:
            frame = self.address_space.alloc(1, self.regions)[0]
            self.page_table[vpage] = frame
        return frame

    @property
    def mapped_frames(self) -> List[int]:
        return list(self.page_table.values())

    def __len__(self) -> int:
        return len(self.page_table)
