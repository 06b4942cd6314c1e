"""Whole-server power model: CPU plus platform components.

This module ties together the pieces of the power substrate:

* the per-component Table 2 numbers (:mod:`repro.power.components`),
* the state taxonomy and wake-up latencies (:mod:`repro.power.states`),
* the DVFS model (:mod:`repro.power.dvfs`),

into a single :class:`ServerPowerModel` that can answer the questions the
simulator, analytic model and policy manager ask:

* "how much power does the server draw in combined state X at frequency f?"
* "give me the ``(P_i, tau_i, w_i)`` spec for low-power state X" (to build
  :class:`~repro.power.sleep.SleepSequence` objects),
* "what is the peak (active, f=1) power P0?"

Two presets are provided: :func:`xeon_power_model` built from Table 2, and
:func:`atom_power_model` for the Atom-class sensitivity discussion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.power.components import (
    CPU_STATE_TO_MODE,
    ComponentInventory,
    ComponentMode,
    atom_component_inventory,
    xeon_component_inventory,
)
from repro.power.dvfs import DvfsModel
from repro.power.sleep import SleepSequence, SleepStateSpec
from repro.power.states import (
    ACTIVE,
    DEFAULT_WAKE_UP_LATENCIES,
    LOW_POWER_STATES,
    CpuState,
    PlatformState,
    SystemState,
    default_wake_up_latency,
)


@dataclass(frozen=True)
class ServerPowerModel:
    """Power model of a complete server.

    Parameters
    ----------
    inventory:
        The CPU power model and platform component inventory (Table 2).
    dvfs:
        The DVFS model mapping frequency scaling factors to power factors.
    wake_up_latencies:
        Mapping from low-power :class:`SystemState` to its average wake-up
        latency in seconds.  Defaults to the representative values the paper
        fixes in Section 4.2.
    name:
        A short identifier used in reports, e.g. ``"xeon"``.
    """

    inventory: ComponentInventory
    dvfs: DvfsModel = field(default_factory=DvfsModel)
    wake_up_latencies: Mapping[SystemState, float] = field(
        default_factory=lambda: dict(DEFAULT_WAKE_UP_LATENCIES)
    )
    name: str = "server"

    def __post_init__(self) -> None:
        for state, latency in self.wake_up_latencies.items():
            if latency < 0:
                raise ConfigurationError(
                    f"wake-up latency for {state.name} must be non-negative, "
                    f"got {latency}"
                )

    # ------------------------------------------------------------------
    # Power queries
    # ------------------------------------------------------------------

    def cpu_power(
        self, state: CpuState, frequency: float | np.ndarray = 1.0
    ) -> float | np.ndarray:
        """CPU power (watts) in *state* at DVFS factor *frequency*.

        Like every power query below, *frequency* may be an array of factors
        (see :meth:`CpuPowerModel.power`).
        """
        return self.inventory.cpu.power(state, frequency)

    def platform_power(self, state: PlatformState, cpu_state: CpuState) -> float:
        """Platform (non-CPU) power (watts) for the given platform/CPU states.

        When the platform is in ``S0`` the component mode follows the CPU
        state's column of Table 2 (operating for ``C0(a)``, idle-like
        otherwise).  When the platform is in ``S3`` all components are in the
        deeper-sleep column.
        """
        if state is PlatformState.S3:
            return self.inventory.platform_power(ComponentMode.DEEPER_SLEEP)
        if state is PlatformState.S0_ACTIVE:
            return self.inventory.platform_power(ComponentMode.OPERATING)
        # S0(i): platform components sit in the column matching the CPU state
        # but never deeper than "deep sleep" because RAM etc. stay powered.
        mode = CPU_STATE_TO_MODE[cpu_state]
        if mode is ComponentMode.DEEPER_SLEEP:
            mode = ComponentMode.DEEP_SLEEP
        if mode is ComponentMode.OPERATING:
            mode = ComponentMode.IDLE
        return self.inventory.platform_power(mode)

    def system_power(
        self, state: SystemState, frequency: float | np.ndarray = 1.0
    ) -> float | np.ndarray:
        """Total server power (watts) in combined *state* at *frequency*."""
        return self.cpu_power(state.cpu, frequency) + self.platform_power(
            state.platform, state.cpu
        )

    def active_power(self, frequency: float | np.ndarray = 1.0) -> float | np.ndarray:
        """Power while actively serving jobs at DVFS factor *frequency*.

        This is the paper's ``P0 * f**3`` CPU term plus the active platform
        power; at ``frequency=1`` it is the peak power ``P0`` plus platform.
        """
        return self.system_power(ACTIVE, frequency)

    def peak_power(self) -> float:
        """Active power at full frequency (the most the server can draw)."""
        return self.active_power(1.0)

    def idle_power(self, frequency: float | np.ndarray = 1.0) -> float | np.ndarray:
        """Power in the operating-idle state ``C0(i)S0(i)`` at *frequency*."""
        return self.system_power(
            SystemState(CpuState.C0_IDLE, PlatformState.S0_IDLE), frequency
        )

    # ------------------------------------------------------------------
    # Wake-up latencies and sleep-state specs
    # ------------------------------------------------------------------

    def wake_up_latency(self, state: SystemState) -> float:
        """Average wake-up latency (seconds) from low-power *state*."""
        latency = self.wake_up_latencies.get(state)
        if latency is not None:
            return float(latency)
        return default_wake_up_latency(state)

    def sleep_state_spec(
        self,
        state: SystemState,
        entry_delay: float = 0.0,
        frequency: float = 1.0,
    ) -> SleepStateSpec:
        """Build the ``(P_i, tau_i, w_i)`` tuple for low-power *state*.

        The resident power of ``C0(i)S0(i)`` and ``C1S0(i)`` depends on the
        DVFS setting left in place when the server idles (the paper holds
        voltage and frequency at the last DVFS setting in ``C0(i)``), hence
        the *frequency* argument; deeper states are frequency-independent.
        """
        if state.is_active:
            raise ConfigurationError(
                "cannot build a sleep-state spec for the active state"
            )
        return SleepStateSpec(
            state=state,
            power=self.system_power(state, frequency),
            entry_delay=entry_delay,
            wake_up_latency=self.wake_up_latency(state),
        )

    def immediate_sleep_sequence(
        self, state: SystemState, frequency: float = 1.0
    ) -> SleepSequence:
        """Single-state sequence entered as soon as the queue empties."""
        return SleepSequence([self.sleep_state_spec(state, 0.0, frequency)])

    def sleep_sequence(
        self,
        states: Sequence[SystemState],
        entry_delays: Sequence[float],
        frequency: float = 1.0,
    ) -> SleepSequence:
        """Multi-state sequence with explicit entry delays ``tau_i``."""
        if len(states) != len(entry_delays):
            raise ConfigurationError(
                f"got {len(states)} states but {len(entry_delays)} entry delays"
            )
        specs = [
            self.sleep_state_spec(state, delay, frequency)
            for state, delay in zip(states, entry_delays, strict=True)
        ]
        return SleepSequence(specs)

    def full_throttle_back_sequence(
        self, entry_delays: Sequence[float], frequency: float = 1.0
    ) -> SleepSequence:
        """The paper's "sequential power throttle-back": all five states in order.

        ``entry_delays`` gives the ``tau_i`` for
        ``C0(i)S0(i), C1S0(i), C3S0(i), C6S0(i), C6S3`` in that order.
        """
        return self.sleep_sequence(list(LOW_POWER_STATES), entry_delays, frequency)

    def low_power_state_table(self, frequency: float = 1.0) -> dict[str, dict[str, float]]:
        """Summary of each low-power state: power and wake-up latency.

        Used by reports and the Table 2 / Table 4 benchmarks.
        """
        table: dict[str, dict[str, float]] = {}
        for state in LOW_POWER_STATES:
            table[state.name] = {
                "power_w": self.system_power(state, frequency),
                "wake_up_latency_s": self.wake_up_latency(state),
            }
        return table


def xeon_power_model(
    dvfs: DvfsModel | None = None,
    wake_up_latencies: Mapping[SystemState, float] | None = None,
) -> ServerPowerModel:
    """The Xeon-class server of Table 2 with the paper's default latencies."""
    return ServerPowerModel(
        inventory=xeon_component_inventory(),
        dvfs=dvfs or DvfsModel(),
        wake_up_latencies=dict(wake_up_latencies or DEFAULT_WAKE_UP_LATENCIES),
        name="xeon",
    )


def atom_power_model(
    dvfs: DvfsModel | None = None,
    wake_up_latencies: Mapping[SystemState, float] | None = None,
) -> ServerPowerModel:
    """An Atom-class low-power server (see DESIGN.md substitution #3)."""
    return ServerPowerModel(
        inventory=atom_component_inventory(),
        dvfs=dvfs or DvfsModel(),
        wake_up_latencies=dict(wake_up_latencies or DEFAULT_WAKE_UP_LATENCIES),
        name="atom",
    )
