"""The evaluated machine models.

* :class:`InsecureMachine` — no security primitives (normalization base).
* :class:`SgxMachine` — SGX-like enclaves: 5 us crossings, no
  partitioning, no purging (temporal sharing leaks state).
* :class:`Mi6Machine` — multicore MI6: static L2/DRAM partitioning plus
  full microarchitecture-state purges at every enclave crossing.
* :class:`IronhideMachine` — the paper's contribution: spatially
  isolated clusters, pinned processes, one-time dynamic reconfiguration.
* :class:`FenceTsMachine` — fence.t.s temporal partitioning: a periodic
  ISA fence wipes core-local state every N interactions, L2 untouched.
* :class:`SimfMachine` — SIMF: MI6's full flush set as one ISA
  instruction at every crossing (no software purge-sequence cost).

``MACHINES`` is the registry every driver, test suite and doc table
derives its machine list from — the single source of truth for what
exists.  The ``machines.*`` static-analysis rule checks that the docs
tables list every registered machine; ``TestRegistryCoverage`` in
``tests/test_machines.py`` checks that every scalar-vs-vector gate
covers every registered machine; the golden tests fail when the golden
grids and the registry disagree; and ``keys.model-version-audit``
reports a ``machines/`` module missing from the model-audit manifest.
Each machine's flush behaviour lives in its
:class:`~repro.machines.policy.PurgePolicy`; :func:`machine_policy`
exposes the registered default so the sweep store keys and the attack
models can consult it without instantiating a machine.
"""

from repro.machines.base import Machine
from repro.machines.insecure import InsecureMachine
from repro.machines.ironhide import IronhideMachine
from repro.machines.mi6 import Mi6Machine
from repro.machines.policy import PurgePolicy
from repro.machines.sgx import SgxMachine
from repro.machines.temporal import FenceTsMachine, SimfMachine, TemporalMachine

MACHINES = {
    "insecure": InsecureMachine,
    "sgx": SgxMachine,
    "mi6": Mi6Machine,
    "ironhide": IronhideMachine,
    "fence_ts": FenceTsMachine,
    "simf": SimfMachine,
}


def build_machine(name: str, config=None, **kwargs) -> Machine:
    """Construct one of the evaluated machines by name."""
    try:
        cls = MACHINES[name]
    except KeyError:
        raise ValueError(
            f"unknown machine {name!r}; choose from {sorted(MACHINES)}"
        ) from None
    return cls(config=config, **kwargs)


def machine_policy(name: str) -> PurgePolicy:
    """The registered default purge policy of machine ``name``."""
    try:
        cls = MACHINES[name]
    except KeyError:
        raise ValueError(
            f"unknown machine {name!r}; choose from {sorted(MACHINES)}"
        ) from None
    return cls.purge_policy


__all__ = [
    "Machine",
    "InsecureMachine",
    "SgxMachine",
    "Mi6Machine",
    "IronhideMachine",
    "TemporalMachine",
    "FenceTsMachine",
    "SimfMachine",
    "PurgePolicy",
    "MACHINES",
    "build_machine",
    "machine_policy",
]
