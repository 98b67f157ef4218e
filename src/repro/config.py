"""System configuration for the simulated Tile-Gx72-like multicore.

The paper prototypes IRONHIDE on a Tilera Tile-Gx72.  The experiments use
64 cores split into two clusters of 32 (initially), four memory
controllers (MC0..MC3) and per-tile 256 KB L2 slices that together form
the distributed shared cache.  ``SystemConfig.tile_gx72()`` captures those
parameters; every component takes its numbers from here so that tests and
ablations can build smaller machines cheaply.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.units import KB, MB, cycles_from_us


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one set-associative cache."""

    size_bytes: int
    associativity: int
    line_bytes: int = 64
    hit_latency: int = 2

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.line_bytes):
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible by "
                f"{self.associativity} ways of {self.line_bytes}B lines"
            )
        if self.n_sets & (self.n_sets - 1):
            raise ConfigError(f"number of sets {self.n_sets} must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class TlbConfig:
    """A fully-associative, LRU-replaced TLB."""

    entries: int = 32
    hit_latency: int = 0
    miss_walk_latency: int = 50


@dataclass(frozen=True)
class NocConfig:
    """2-D mesh network parameters."""

    hop_latency: int = 1
    router_latency: int = 1
    link_width_bytes: int = 8

    def traversal_latency(self, hops: int) -> int:
        """One-way latency of a packet crossing ``hops`` links."""
        return hops * (self.hop_latency + self.router_latency)


@dataclass(frozen=True)
class MemConfig:
    """Memory controllers and DRAM."""

    n_controllers: int = 4
    n_regions: int = 8
    region_bytes: int = 512 * MB
    dram_latency: int = 90
    mc_service_latency: int = 18
    queue_depth: int = 64
    writeback_drain_latency: int = 30


@dataclass(frozen=True)
class CostConfig:
    """Fixed costs of the security protocols (paper's measured constants).

    ``sgx_crossing_us`` is HotCalls' measured per-ECALL/OCALL overhead the
    paper injects (5 us per entry and per exit).  ``attestation_us`` is a
    one-time secure-kernel admission cost.  ``reconfig_page_us`` is the
    per-page unmap/re-home/remap cost of dynamic hardware isolation; the
    paper measures the whole one-time reconfiguration at ~15 ms.
    """

    sgx_crossing_us: float = 5.0
    attestation_us: float = 100.0
    reconfig_stall_us: float = 50.0
    reconfig_page_us: float = 2.5
    pipeline_flush_cycles: int = 200
    tlb_flush_cycles: int = 500
    # The flush-and-invalidate dummy-buffer read: per-line reload cost
    # (an L2 round trip with limited memory-level parallelism) and the
    # buffer size in lines.  The buffer matches the real 32 KB L1
    # (512 lines); it is a protocol cost, so capacity-scaled evaluation
    # configs keep the full-size value, like the 5 us SGX crossings.
    dummy_read_line_cycles: int = 28
    dummy_buffer_lines: int = 512

    @property
    def sgx_crossing_cycles(self) -> int:
        return cycles_from_us(self.sgx_crossing_us)


@dataclass(frozen=True)
class CoreConfig:
    """Simple in-order core timing: cycles per instruction when not
    stalled on memory, and how the workload's sync overhead scales."""

    base_cpi: float = 0.8


#: Valid values for :attr:`SystemConfig.replay_engine`.
REPLAY_ENGINES = ("scalar", "vector")


@dataclass(frozen=True)
class SystemConfig:
    """Complete machine description.

    ``replay_engine`` selects the trace-replay implementation used by
    :class:`repro.arch.hierarchy.MemoryHierarchy`: ``"scalar"`` is the
    original per-event reference loop, ``"vector"`` the batched engine
    over the compiled kernels (see ``repro.arch.native``); without a C
    toolchain a ``"vector"`` configuration runs the scalar oracle.
    Both produce identical counters; the scalar path is kept as the
    oracle for the equivalence suite.
    """

    mesh_rows: int = 8
    mesh_cols: int = 8
    page_bytes: int = 4096
    replay_engine: str = "scalar"
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(32 * KB, 8, hit_latency=2))
    l2_slice: CacheConfig = field(default_factory=lambda: CacheConfig(256 * KB, 8, hit_latency=11))
    tlb: TlbConfig = field(default_factory=TlbConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    mem: MemConfig = field(default_factory=MemConfig)
    costs: CostConfig = field(default_factory=CostConfig)
    core: CoreConfig = field(default_factory=CoreConfig)

    def __post_init__(self) -> None:
        if self.replay_engine not in REPLAY_ENGINES:
            raise ConfigError(
                f"unknown replay engine {self.replay_engine!r}; "
                f"expected one of {REPLAY_ENGINES}"
            )
        if self.mesh_rows < 2 or self.mesh_cols < 2:
            raise ConfigError("mesh must be at least 2x2")
        if self.mem.n_regions % self.mem.n_controllers:
            raise ConfigError("DRAM regions must divide evenly across controllers")
        if self.page_bytes % self.l1.line_bytes:
            raise ConfigError("page size must be a multiple of the line size")

    @property
    def n_cores(self) -> int:
        return self.mesh_rows * self.mesh_cols

    @property
    def line_bytes(self) -> int:
        return self.l1.line_bytes

    @property
    def regions_per_controller(self) -> int:
        return self.mem.n_regions // self.mem.n_controllers

    def with_engine(self, engine: str) -> "SystemConfig":
        """A copy of this configuration using the given replay engine."""
        return replace(self, replay_engine=engine)

    def config_hash(self) -> str:
        """Stable content digest of every machine parameter.

        The experiment result store keys cached runs by this value, so
        any change to the machine description — geometry, latencies,
        protocol costs, replay engine — invalidates previously stored
        results.  The digest is derived from the dataclass ``repr``,
        which covers all nested configs field by field.
        """
        return hashlib.sha1(repr(self).encode()).hexdigest()

    @classmethod
    def tile_gx72(cls) -> "SystemConfig":
        """The configuration used throughout the paper's evaluation."""
        return cls()

    @classmethod
    def evaluation(cls) -> "SystemConfig":
        """The capacity-scaled machine used by the experiment harness.

        The workload traces are scaled-down representatives of the real
        applications (see ``AppSpec.time_scale``), so cache capacities
        scale with them: a 16 KB L1 and 64 KB L2 slices keep the ratio
        of working set to capacity — which is what the paper's locality
        and partitioning effects depend on — in the same regime as the
        full-size Tile-Gx72.  All latencies and protocol costs remain
        the full-size values.
        """
        return cls(
            l1=CacheConfig(16 * KB, 8, hit_latency=2),
            l2_slice=CacheConfig(64 * KB, 8, hit_latency=11),
        )

    @classmethod
    def small(cls, rows: int = 4, cols: int = 4) -> "SystemConfig":
        """A small machine for fast unit tests."""
        return cls(
            mesh_rows=rows,
            mesh_cols=cols,
            l1=CacheConfig(4 * KB, 4, hit_latency=2),
            l2_slice=CacheConfig(16 * KB, 4, hit_latency=11),
            mem=MemConfig(n_controllers=2, n_regions=4, region_bytes=64 * MB),
        )
