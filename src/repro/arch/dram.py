"""DRAM regions and their mapping onto memory controllers.

Main memory is split into physically isolated regions (the paper's unit
of static partitioning).  Each region is served by exactly one memory
controller; with R regions and M controllers, region ``r`` is served by
controller ``r % M``, so the regions entitled to a set of controllers are
exactly those whose index maps into that set.  IRONHIDE dedicates
controllers to clusters via the ``pos`` bit-mask (``0b0011`` = MC0+MC1
for the secure cluster in the paper) — :func:`regions_for_controllers`
computes the matching region entitlement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.config import SystemConfig
from repro.errors import ConfigError, MemoryIsolationViolation


@dataclass
class DramRegion:
    """One physically isolated DRAM region."""

    region_id: int
    controller: int
    size_bytes: int
    owner: str = "unassigned"


class DramSystem:
    """All DRAM regions plus the region->controller map."""

    def __init__(self, config: SystemConfig):
        self.config = config
        n_mcs = config.mem.n_controllers
        self.regions: List[DramRegion] = [
            DramRegion(r, r % n_mcs, config.mem.region_bytes)
            for r in range(config.mem.n_regions)
        ]

    def controller_of(self, region: int) -> int:
        return self.regions[region].controller

    def regions_for_controllers(self, mcs: Sequence[int]) -> List[int]:
        """All regions served by the given controller set."""
        mcset = set(mcs)
        return [r.region_id for r in self.regions if r.controller in mcset]

    def assign_owner(self, regions: Sequence[int], owner: str) -> None:
        """Record which security domain owns each region."""
        for region in regions:
            self.regions[region].owner = owner

    def owner_of(self, region: int) -> str:
        return self.regions[region].owner

    def check_access(self, region: int, domain: str) -> None:
        """Strong-isolation check: a domain may only touch its regions.

        Regions owned by ``shared`` (the IPC buffer's insecure region) are
        accessible from both domains, matching §III-A3 of the paper.
        """
        owner = self.regions[region].owner
        if owner in ("unassigned", "shared", domain):
            return
        raise MemoryIsolationViolation(
            f"domain {domain!r} accessed DRAM region {region} owned by {owner!r}"
        )

    @staticmethod
    def controllers_from_mask(mask: int, n_mcs: int) -> List[int]:
        """Decode the paper's ``pos`` bit-mask into controller ids."""
        if mask <= 0 or mask >= (1 << n_mcs):
            raise ConfigError(f"controller mask {mask:#b} out of range for {n_mcs} MCs")
        return [i for i in range(n_mcs) if mask & (1 << i)]
