"""Per-component power models (Table 2 of the paper).

The paper's system power model sums CPU power and platform power, where the
platform consists of chipset, RAM, HDD, NIC, fan and PSU.  Each component
draws a different amount of power depending on the platform power mode
(*operating*, *idle*, *sleep*, *deep sleep*, *deeper sleep* in the table's
column labels).  The CPU's draw additionally depends on the DVFS frequency
setting through the :class:`~repro.power.dvfs.DvfsModel`.

This module provides:

* :class:`ComponentMode` — the five columns of Table 2;
* :class:`ComponentPower` — power of a single (non-CPU) component in each mode;
* :class:`CpuPowerModel` — the frequency-dependent CPU power in each C-state;
* the Xeon component inventory of Table 2 and an Atom-class variant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.power.states import CpuState


class ComponentMode(enum.Enum):
    """The five power modes that Table 2 tabulates for each component."""

    OPERATING = "operating"
    IDLE = "idle"
    SLEEP = "sleep"
    DEEP_SLEEP = "deep_sleep"
    DEEPER_SLEEP = "deeper_sleep"


#: Mapping from a CPU C-state to the Table 2 column used for the platform
#: components when the platform remains in S0: the platform components follow
#: the "idle"-like columns whenever the CPU is not actively computing.
CPU_STATE_TO_MODE: dict[CpuState, ComponentMode] = {
    CpuState.C0_ACTIVE: ComponentMode.OPERATING,
    CpuState.C0_IDLE: ComponentMode.IDLE,
    CpuState.C1: ComponentMode.SLEEP,
    CpuState.C3: ComponentMode.DEEP_SLEEP,
    CpuState.C6: ComponentMode.DEEPER_SLEEP,
}


@dataclass(frozen=True)
class ComponentPower:
    """Power draw (watts) of a single platform component in each mode.

    ``count`` allows multiple identical parts (e.g. six DIMMs of RAM) to be
    described by a single entry; :meth:`power` multiplies by it.
    """

    name: str
    operating: float
    idle: float
    sleep: float
    deep_sleep: float
    deeper_sleep: float
    count: int = 1

    def __post_init__(self) -> None:
        for label, value in self.per_unit_power_by_mode().items():
            if value < 0:
                raise ConfigurationError(
                    f"component {self.name!r} has negative power {value} W "
                    f"in mode {label.value}"
                )
        if self.count < 1:
            raise ConfigurationError(
                f"component {self.name!r} must have count >= 1, got {self.count}"
            )

    def per_unit_power_by_mode(self) -> dict[ComponentMode, float]:
        """Power of a single unit of this component, per mode."""
        return {
            ComponentMode.OPERATING: self.operating,
            ComponentMode.IDLE: self.idle,
            ComponentMode.SLEEP: self.sleep,
            ComponentMode.DEEP_SLEEP: self.deep_sleep,
            ComponentMode.DEEPER_SLEEP: self.deeper_sleep,
        }

    def power(self, mode: ComponentMode) -> float:
        """Total power (watts) for all ``count`` units in *mode*."""
        return self.per_unit_power_by_mode()[mode] * self.count


@dataclass(frozen=True)
class CpuPowerModel:
    """Frequency-dependent CPU power model.

    With linear DVFS (voltage proportional to frequency) the dynamic power in
    the operating states scales as ``coefficient * f**3``:

    * ``C0(a)``: ``active_coefficient * f**3`` (130 W at ``f=1`` for Xeon),
    * ``C0(i)``: ``idle_coefficient * f**3`` (75 W at ``f=1``),
    * ``C1``: ``halt_coefficient * f**2`` — only leakage, which scales with
      ``V**2`` i.e. quadratically in ``f`` under linear DVFS (47 W at ``f=1``),
    * ``C3``: constant ``c3_power`` (22 W),
    * ``C6``: constant ``c6_power`` (15 W).
    """

    active_coefficient: float = 130.0
    idle_coefficient: float = 75.0
    halt_coefficient: float = 47.0
    c3_power: float = 22.0
    c6_power: float = 15.0

    def __post_init__(self) -> None:
        values = (
            self.active_coefficient,
            self.idle_coefficient,
            self.halt_coefficient,
            self.c3_power,
            self.c6_power,
        )
        if any(v < 0 for v in values):
            raise ConfigurationError("CPU power coefficients must be non-negative")

    def _check_frequency(self, frequency: float) -> None:
        if not 0.0 <= frequency <= 1.0:
            raise ConfigurationError(
                f"frequency scaling factor must lie in [0, 1], got {frequency}"
            )

    def power(self, state: CpuState, frequency: float = 1.0) -> float:
        """CPU power (watts) in *state* at DVFS scaling factor *frequency*."""
        self._check_frequency(frequency)
        if state is CpuState.C0_ACTIVE:
            return self.active_coefficient * frequency**3
        if state is CpuState.C0_IDLE:
            return self.idle_coefficient * frequency**3
        if state is CpuState.C1:
            return self.halt_coefficient * frequency**2
        if state is CpuState.C3:
            return self.c3_power
        if state is CpuState.C6:
            return self.c6_power
        raise ConfigurationError(f"unknown CPU state {state!r}")  # pragma: no cover


@dataclass(frozen=True)
class ComponentInventory:
    """A set of platform components plus a CPU power model.

    The platform power at a given :class:`ComponentMode` is the sum over all
    components; the system power adds the CPU power for the CPU's own state
    and frequency on top.
    """

    cpu: CpuPowerModel
    components: tuple[ComponentPower, ...] = field(default_factory=tuple)
    name: str = "custom"
    #: ``platform_power`` per mode, filled on first use (at most one entry
    #: per :class:`ComponentMode`); not part of equality, repr or pickles.
    _platform_cache: dict[ComponentMode, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_platform_cache"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _platform_cache={})

    def platform_power(self, mode: ComponentMode) -> float:
        """Total non-CPU platform power (watts) with every component in *mode*.

        Independent of the CPU frequency, so it is summed once per mode.
        """
        value = self._platform_cache.get(mode)
        if value is None:
            value = sum(component.power(mode) for component in self.components)
            self._platform_cache[mode] = value
        return value

    def component(self, name: str) -> ComponentPower:
        """Look up a component by name (case-insensitive)."""
        for component in self.components:
            if component.name.lower() == name.lower():
                return component
        raise ConfigurationError(
            f"inventory {self.name!r} has no component named {name!r}"
        )

    def table(self) -> dict[str, dict[str, float]]:
        """A Table 2-like mapping ``component -> mode -> total watts``.

        Useful for the Table 2 reproduction benchmark and for documentation.
        """
        rows: dict[str, dict[str, float]] = {}
        for component in self.components:
            rows[component.name] = {
                mode.value: component.power(mode) for mode in ComponentMode
            }
        rows["Platform total"] = {
            mode.value: self.platform_power(mode) for mode in ComponentMode
        }
        return rows


def xeon_component_inventory() -> ComponentInventory:
    """The Xeon-class component inventory of Table 2.

    Component counts and per-mode draws follow the table exactly: one
    chipset, six DIMMs, one HDD, one NIC, one fan and one PSU.  The platform
    totals come out to 120 W in the operating mode, 60.5 W in the idle-like
    modes and 13.1 W in the deeper-sleep (S3) mode, matching the table.
    """
    components = (
        ComponentPower("Chipset", 7.8, 7.8, 7.8, 7.8, 7.8),
        ComponentPower("RAM", 23.1 / 6, 10.4 / 6, 10.4 / 6, 10.4 / 6, 3.0 / 6, count=6),
        ComponentPower("HDD", 6.2, 4.6, 4.6, 4.6, 0.8),
        ComponentPower("NIC", 2.9, 1.7, 1.7, 1.7, 0.5),
        ComponentPower("Fan", 10.0, 1.0, 1.0, 1.0, 0.0),
        ComponentPower("PSU", 70.0, 35.0, 35.0, 35.0, 1.0),
    )
    return ComponentInventory(cpu=CpuPowerModel(), components=components, name="xeon")


def atom_component_inventory() -> ComponentInventory:
    """An Atom-class component inventory.

    The paper references Atom power numbers from Guevara et al. [12] without
    tabulating them; we build a representative low-power server: a CPU with a
    small dynamic range (about 8 W peak) attached to a platform whose fixed
    power dominates.  This reproduces the paper's qualitative observation
    that for Atom systems running DNS-like jobs at low utilisation the best
    strategy is to run fast and sleep immediately, because CPU dynamic power
    is small relative to platform power.
    """
    cpu = CpuPowerModel(
        active_coefficient=8.0,
        idle_coefficient=4.0,
        halt_coefficient=2.0,
        c3_power=1.0,
        c6_power=0.5,
    )
    components = (
        ComponentPower("Chipset", 5.0, 5.0, 5.0, 5.0, 5.0),
        ComponentPower("RAM", 4.0, 2.0, 2.0, 2.0, 0.8, count=2),
        ComponentPower("SSD", 2.0, 1.0, 1.0, 1.0, 0.2),
        ComponentPower("NIC", 2.9, 1.7, 1.7, 1.7, 0.5),
        ComponentPower("Fan", 3.0, 0.5, 0.5, 0.5, 0.0),
        ComponentPower("PSU", 20.0, 10.0, 10.0, 10.0, 0.5),
    )
    return ComponentInventory(cpu=cpu, components=components, name="atom")
