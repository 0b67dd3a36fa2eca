"""Deterministic fault injection for robustness studies.

The package splits *description* from *execution*: a
:class:`FaultSchedule` is a frozen, serializable description of what
goes wrong (which fault kinds, at what per-epoch rates, how severe,
over which epoch windows), and a :class:`FaultInjector` is the stateful
seeded executor a controller run drives. The same schedule + seed
always reproduces the same faults.

See ``docs/robustness.md`` for the fault taxonomy, the on-disk spec
format, and the fault-rate sweep (``experiments/specs/fault_rates.json``).
"""

from repro.faults.injector import FaultInjector, InjectedFault
from repro.faults.spec import (
    COUNTER_FAULTS,
    FAULT_KINDS,
    HOST_FAULTS,
    IO_FAULTS,
    MACHINE_FAULTS,
    RECONFIG_FAULTS,
    STORE_FAULTS,
    FaultSchedule,
    FaultSpec,
    mixed_schedule,
    noise_schedule,
)

__all__ = [
    "COUNTER_FAULTS",
    "FAULT_KINDS",
    "HOST_FAULTS",
    "IO_FAULTS",
    "MACHINE_FAULTS",
    "RECONFIG_FAULTS",
    "STORE_FAULTS",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "InjectedFault",
    "mixed_schedule",
    "noise_schedule",
]
