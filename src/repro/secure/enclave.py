"""Enclave lifecycle for the temporally-shared machines (SGX-like, MI6).

Each secure-enclave entry and exit flushes the core pipeline and pays
the cryptographic cost of the SGX memory-encryption engine — HotCalls
measures 2.5–5 us per ECALL/OCALL, and the paper injects a constant 5 us
per crossing.  MI6 additionally purges the microarchitecture state; the
machines combine this module with :class:`~repro.secure.purge.PurgeModel`
for that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional

from repro.config import SystemConfig
from repro.errors import ReproError


class EnclaveState(Enum):
    INACTIVE = "inactive"
    ACTIVE = "active"


@dataclass
class Enclave:
    """One secure enclave's identity and lifecycle counters."""

    name: str
    measurement: bytes = b""
    state: EnclaveState = EnclaveState.INACTIVE
    entries: int = 0
    exits: int = 0

    @property
    def crossings(self) -> int:
        return self.entries + self.exits


class EnclaveManager:
    """Tracks enclaves and charges entry/exit crossing costs."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self._enclaves: Dict[str, Enclave] = {}
        self.crossing_cycles_total = 0

    def create(self, name: str, measurement: bytes = b"") -> Enclave:
        if name in self._enclaves:
            raise ReproError(f"enclave {name!r} already exists")
        enclave = Enclave(name, measurement)
        self._enclaves[name] = enclave
        return enclave

    def get(self, name: str) -> Enclave:
        return self._enclaves[name]

    def enter(self, name: str) -> int:
        """Enter the enclave; returns the crossing cost in cycles."""
        enclave = self._enclaves[name]
        if enclave.state is EnclaveState.ACTIVE:
            raise ReproError(f"enclave {name!r} is already active")
        enclave.state = EnclaveState.ACTIVE
        enclave.entries += 1
        cost = self.config.costs.sgx_crossing_cycles
        self.crossing_cycles_total += cost
        return cost

    def exit(self, name: str) -> int:
        """Exit the enclave; returns the crossing cost in cycles."""
        enclave = self._enclaves[name]
        if enclave.state is EnclaveState.INACTIVE:
            raise ReproError(f"enclave {name!r} is not active")
        enclave.state = EnclaveState.INACTIVE
        enclave.exits += 1
        cost = self.config.costs.sgx_crossing_cycles
        self.crossing_cycles_total += cost
        return cost
