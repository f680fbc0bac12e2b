"""First-order core power model (paper Section V-G).

The paper assumes a 20 mW peak in-order single-issue core at 11 nm
(obtained by scaling the FPU energy/flop of Galal & Horowitz [31] and
dividing by the FPU's typical share of core power), then splits power
into:

* **Non-data-dependent (NDD)**: leakage + ungated clocks, burned for the
  entire wall-clock runtime regardless of activity.  Two scenarios are
  studied: NDD = 10 % and 40 % of peak.
* **Data-dependent (DD)**: scales with achieved IPC -- "if the IPC is
  0.25, the runtime data-dependent power is 25 % of the peak
  data-dependent power".

The punchline the model exists to demonstrate: a faster network shrinks
runtime, and with it the *core's* NDD energy -- the dominant term -- so
an "uncore" component can win system energy without being efficient
itself.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Peak power of one in-order single-issue core at 11 nm (W).
CORE_PEAK_POWER_W = 20e-3


@dataclass(frozen=True)
class CorePowerModel:
    """Per-core first-order power model.

    Attributes
    ----------
    ndd_fraction:
        Fraction of the ``CORE_PEAK_POWER_W`` peak that is
        non-data-dependent (0.10 or 0.40, Figure 17).
    """

    ndd_fraction: float = 0.10

    def __post_init__(self) -> None:
        if not 0.0 <= self.ndd_fraction <= 1.0:
            raise ValueError(
                f"ndd_fraction must be in [0,1], got {self.ndd_fraction}"
            )

    @property
    def ndd_power_w(self) -> float:
        """Power burned every second of runtime, active or not (W)."""
        return CORE_PEAK_POWER_W * self.ndd_fraction

    @property
    def peak_dd_power_w(self) -> float:
        """Data-dependent power at IPC = 1 (W)."""
        return CORE_PEAK_POWER_W * (1.0 - self.ndd_fraction)

    def dd_energy_j(self, instructions: int, freq_hz: float) -> float:
        """DD energy for a run that retired ``instructions`` (J).

        DD energy is activity-proportional, so it depends only on the
        retired instruction count, not on how long the run took:
        E = P_dd_peak * (instructions / freq) because IPC * runtime =
        instructions / freq.  This is why the paper observes "core
        data-dependent energies are roughly identical between
        architectures".
        """
        if instructions < 0:
            raise ValueError(f"instructions must be non-negative, got {instructions}")
        return self.peak_dd_power_w * instructions / freq_hz
