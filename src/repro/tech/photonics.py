"""Photonic device and link models (paper Table II + Section II).

Models the nanophotonic communication fabric of the ONet: a
multi-wavelength laser source, waveguides, modulator rings, filter
rings, and photodetectors/receivers.  The central computation is the
**laser power budget**: starting from the optical power the receiver
needs to resolve a bit, walk backwards through the drop loss, the
through losses of every ring the wavelength passes, the waveguide
propagation loss, and the 1/N broadcast power split, then divide by the
laser wall-plug efficiency to get electrical laser power.

The adaptive SWMR link (Section IV-A) scales the laser between three
modes:

* ``idle``      -- laser off (0 W) if power gating is available, else
  stuck at broadcast power,
* ``unicast``   -- power for exactly one receiver,
* ``broadcast`` -- power for all receivers (linear in receiver count).

Ring thermal tuning (when rings are not athermal) is a constant power
per ring, the "Ring Heating" wedge of Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


def db_to_linear(db: float) -> float:
    """Convert a dB loss (positive number) to a linear power ratio >= 1."""
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class PhotonicParams:
    """Optical technology parameters, defaults per paper Table II."""

    laser_efficiency: float = 0.30  # wall-plug
    waveguide_pitch_um: float = 4.0
    waveguide_loss_db_per_cm: float = 0.2
    ring_through_loss_db: float = 0.0001
    ring_drop_loss_db: float = 1.0
    ring_area_um2: float = 100.0
    photodetector_responsivity_a_per_w: float = 1.1
    #: coupler loss when light enters/exits the chip (off-chip laser only)
    coupling_loss_db: float = 1.0
    #: photocurrent the receiver front-end needs to resolve a bit (A).
    receiver_sensitivity_ua: float = 5.0
    #: thermal tuning power per ring when rings are NOT athermal (W).
    #: (electrically-assisted thermal tuning per Georgas et al. [28])
    ring_tuning_uw_per_ring: float = 5.0
    #: modulator driver energy per bit (J)
    modulator_energy_fj_per_bit: float = 40.0
    #: receiver (TIA + clocking) energy per bit (J)
    receiver_energy_fj_per_bit: float = 50.0
    #: time for an on-chip Ge laser to power up/down or retarget (s)
    laser_switch_time_ns: float = 1.0

    def validate(self) -> None:
        """Raise ``ValueError`` on nonsensical parameters."""
        if not 0.0 < self.laser_efficiency <= 1.0:
            raise ValueError(
                f"laser_efficiency must be in (0,1], got {self.laser_efficiency}"
            )
        for name in (
            "waveguide_pitch_um",
            "photodetector_responsivity_a_per_w",
            "receiver_sensitivity_ua",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in (
            "waveguide_loss_db_per_cm",
            "ring_through_loss_db",
            "ring_drop_loss_db",
            "coupling_loss_db",
            "ring_tuning_uw_per_ring",
            "modulator_energy_fj_per_bit",
            "receiver_energy_fj_per_bit",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def receiver_sensitivity_w(self) -> float:
        """Optical power needed at the photodetector to resolve a bit (W)."""
        return (
            self.receiver_sensitivity_ua * 1e-6
            / self.photodetector_responsivity_a_per_w
        )

    def ideal(self) -> "PhotonicParams":
        """The ATAC+(Ideal) device set: lossless optics, 100 % laser."""
        return replace(
            self,
            laser_efficiency=1.0,
            waveguide_loss_db_per_cm=0.0,
            ring_through_loss_db=0.0,
            ring_drop_loss_db=0.0,
            coupling_loss_db=0.0,
        )


@dataclass(frozen=True)
class OpticalLinkModel:
    """End-to-end power model of one SWMR wavelength channel.

    One channel = one (wavelength, waveguide) pair: a single writer hub
    modulating, and ``n_receivers`` candidate reader hubs around the
    ring.

    Attributes
    ----------
    n_receivers:
        Hubs that can receive on this channel (63 for a 64-hub ONet:
        everyone but the sender).
    waveguide_length_cm:
        Physical length of the ring waveguide the light traverses.
    n_rings_passed:
        Ring resonators the wavelength passes *through* (off-resonance)
        on its worst-case trip; each contributes the tiny through loss.
    on_chip_laser:
        On-chip Ge laser (no coupling loss, power-gateable) vs off-chip
        source (coupling loss, cannot be gated).
    """

    params: PhotonicParams = field(default_factory=PhotonicParams)
    n_receivers: int = 63
    waveguide_length_cm: float = 8.0
    n_rings_passed: int = 4096
    on_chip_laser: bool = True

    def __post_init__(self) -> None:
        if self.n_receivers < 1:
            raise ValueError(f"n_receivers must be >= 1, got {self.n_receivers}")
        if self.waveguide_length_cm <= 0:
            raise ValueError("waveguide_length_cm must be positive")
        if self.n_rings_passed < 0:
            raise ValueError("n_rings_passed must be non-negative")

    # ------------------------------------------------------------------
    # Loss budget
    # ------------------------------------------------------------------
    def path_loss_db(self) -> float:
        """Worst-case optical path loss, excluding the broadcast split (dB)."""
        p = self.params
        loss = p.waveguide_loss_db_per_cm * self.waveguide_length_cm
        loss += p.ring_through_loss_db * self.n_rings_passed
        loss += p.ring_drop_loss_db  # the receiver's own drop filter
        if not self.on_chip_laser:
            loss += p.coupling_loss_db
        return loss

    def optical_power_w(self, n_targets: int) -> float:
        """Optical power the laser must emit to reach ``n_targets`` receivers (W).

        Laser power is ~linear in the number of receivers (Section IV):
        each tuned-in receiver must be delivered the full sensitivity
        power after path loss.
        """
        if n_targets < 0 or n_targets > self.n_receivers:
            raise ValueError(
                f"n_targets must be in [0, {self.n_receivers}], got {n_targets}"
            )
        if n_targets == 0:
            return 0.0
        per_rx = self.params.receiver_sensitivity_w
        return per_rx * n_targets * db_to_linear(self.path_loss_db())

    def electrical_laser_power_w(self, n_targets: int) -> float:
        """Electrical (wall-plug) laser power for ``n_targets`` receivers (W)."""
        return self.optical_power_w(n_targets) / self.params.laser_efficiency

    # -- the three SWMR modes ------------------------------------------
    def unicast_power_w(self) -> float:
        """Electrical laser power while transmitting to one receiver (W)."""
        return self.electrical_laser_power_w(1)

    def broadcast_power_w(self) -> float:
        """Electrical laser power while transmitting to all receivers (W)."""
        return self.electrical_laser_power_w(self.n_receivers)

    def idle_power_w(self, power_gated: bool) -> float:
        """Electrical laser power while the channel is idle (W).

        With fast on-chip laser gating the idle power is zero; without
        it the laser must be provisioned at worst-case (broadcast) power
        at all times -- the ATAC+(Cons) scenario.
        """
        if power_gated:
            return 0.0
        return self.broadcast_power_w()

    def transition_energy_j(self) -> float:
        """Energy of one laser mode transition (power-up / re-bias).

        The Ge laser settles within ``laser_switch_time_ns``; during
        that window it burns roughly half its target (unicast-scale)
        power without carrying data.  Charged per mode transition by
        the energy accounting.
        """
        settle_s = self.params.laser_switch_time_ns * 1e-9
        return 0.5 * self.unicast_power_w() * settle_s


@dataclass(frozen=True)
class OnetGeometry:
    """Physical inventory of the ONet photonics for area & tuning power.

    For a ``n_hubs``-hub, ``data_width``-waveguide ONet, each hub places
    one modulator ring per waveguide (its own wavelength) and one filter
    ring per waveguide per *other* wavelength, giving ``n_hubs * n_hubs``
    rings per waveguide column, i.e. ~260 K rings for the 64-hub,
    64-bit ATAC+ (matching the paper's "~260K rings").
    """

    n_hubs: int = 64
    data_width_bits: int = 64
    select_width_bits: int = 6  # log2(64 hubs)
    params: PhotonicParams = field(default_factory=PhotonicParams)
    #: physical length of one ring waveguide loop (cm).  The paper's own
    #: area accounting (Section V-D: waveguides + devices ~= 40 mm^2 at
    #: 64-bit width with ~260K rings of 100 um^2 = 26 mm^2 of rings)
    #: implies ~5 cm of routed waveguide, so that is the default.
    waveguide_length_cm: float = 5.0

    def __post_init__(self) -> None:
        if self.n_hubs < 2:
            raise ValueError(f"n_hubs must be >= 2, got {self.n_hubs}")
        if self.data_width_bits < 1:
            raise ValueError("data_width_bits must be >= 1")
        if self.waveguide_length_cm <= 0:
            raise ValueError("waveguide_length_cm must be positive")

    @property
    def n_waveguides(self) -> int:
        """Data + select waveguides."""
        return self.data_width_bits + self.select_width_bits

    @property
    def n_rings(self) -> int:
        """Total ring resonator count (modulators + filters)."""
        # per waveguide: each hub has 1 modulator + (n_hubs-1) filters
        per_wg = self.n_hubs * (1 + (self.n_hubs - 1))
        return per_wg * self.n_waveguides

    @property
    def rings_passed_worst_case(self) -> int:
        """Rings a wavelength passes through on a full loop of one waveguide."""
        return self.n_hubs * self.n_hubs

    def ring_tuning_power_w(self, athermal: bool) -> float:
        """Total thermal tuning power for every ring on the chip (W)."""
        if athermal:
            return 0.0
        return self.n_rings * self.params.ring_tuning_uw_per_ring * 1e-6

    def photonics_area_mm2(self) -> float:
        """Active-area footprint of waveguides + rings (mm^2).

        The paper reports ~40 mm^2 at 64-bit flit width and ~160 mm^2 at
        256 bits (Section V-D) -- i.e. linear in waveguide count, which
        this model reproduces via pitch x length x count + ring areas.
        """
        wg_area = (
            self.n_waveguides
            * self.params.waveguide_pitch_um * 1e-3      # pitch in mm
            * self.waveguide_length_cm * 10.0            # length in mm
        )
        ring_area = self.n_rings * self.params.ring_area_um2 * 1e-6
        return wg_area + ring_area

    def data_link(self, on_chip_laser: bool = True) -> OpticalLinkModel:
        """The per-channel power model for this geometry's data links."""
        return OpticalLinkModel(
            params=self.params,
            n_receivers=self.n_hubs - 1,
            waveguide_length_cm=self.waveguide_length_cm,
            n_rings_passed=self.rings_passed_worst_case,
            on_chip_laser=on_chip_laser,
        )
