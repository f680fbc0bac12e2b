"""DSENT-like energy/area models for electrical network blocks.

The paper uses DSENT [26] to obtain per-event energies, static power and
area for on-chip routers, links and hubs, at the 11 nm node of Table
III.  This module rebuilds those models compositionally from the
primitives in :mod:`repro.tech.electrical`:

* :class:`RouterModel` -- a wormhole input-buffered router (buffer write
  + read, crossbar traversal, switch arbitration, clock, leakage).
* :class:`LinkModel`  -- a repeated point-to-point electrical link of a
  given physical length.
* :class:`HubModel`   -- the ATAC cluster hub: the electrical-side
  buffering and muxing between ENet / ONet / StarNet-BNet.

All ``*_energy_j`` values are **per flit** unless suffixed ``_per_bit``.
Static/clock power is reported in watts so callers can multiply by the
measured completion time (this is exactly the paper's toolflow: Graphite
event counts x DSENT per-event energies + static power x runtime).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tech.electrical import (
    PORT_SPAN_UM,
    REGISTER_AREA_UM2,
    REGISTER_CLOCK_ENERGY_J,
    REGISTER_LEAKAGE_W,
    REGISTER_WRITE_ENERGY_J,
    WIRE_AREA_PER_BIT_MM_UM2,
    WIRE_ENERGY_PER_BIT_MM_J,
    WIRE_LEAKAGE_PER_BIT_MM_W,
    arbiter_energy_j,
    crossbar_energy_per_bit_j,
    demux_energy_per_bit_j,
)

#: FIFO depth of each hub port (flits).
HUB_BUFFER_DEPTH_FLITS = 8
#: Physical length of one hub->core receive-net link (mm); a cluster is
#: ~2.5 mm across.
RECEIVE_LINK_LENGTH_MM = 1.25


@dataclass(frozen=True)
class LinkModel:
    """A repeated electrical point-to-point link.

    Attributes
    ----------
    width_bits:
        Datapath width (flit size), Table I: 64 bits.
    length_mm:
        Physical length of one hop.
    """

    width_bits: int = 64
    length_mm: float = 0.625

    def __post_init__(self) -> None:
        if self.width_bits <= 0:
            raise ValueError(f"width_bits must be positive, got {self.width_bits}")
        if self.length_mm <= 0:
            raise ValueError(f"length_mm must be positive, got {self.length_mm}")

    def dynamic_energy_j(self) -> float:
        """Energy for one flit to traverse the link (J)."""
        per_bit = WIRE_ENERGY_PER_BIT_MM_J * self.length_mm
        return per_bit * self.width_bits

    def leakage_power_w(self) -> float:
        """Repeater leakage of the whole link (W)."""
        return WIRE_LEAKAGE_PER_BIT_MM_W * self.length_mm * self.width_bits

    def area_mm2(self) -> float:
        """Routing area of the link (mm^2)."""
        um2 = WIRE_AREA_PER_BIT_MM_UM2 * self.length_mm * self.width_bits
        return um2 * 1e-6


@dataclass(frozen=True)
class RouterModel:
    """An input-buffered wormhole router (single virtual channel).

    The per-flit cost decomposes exactly the way DSENT reports it:
    ``buffer write + buffer read + crossbar + (per-packet) arbitration``.
    Clock power covers the input-buffer flip-flops and pipeline
    registers and is burned every cycle (non-data-dependent); leakage
    likewise.

    Attributes
    ----------
    n_ports:
        Router radix (5 for a mesh: N/S/E/W + local).
    width_bits:
        Flit width.
    buffer_depth_flits:
        FIFO depth per input port.
    """

    n_ports: int = 5
    width_bits: int = 64
    buffer_depth_flits: int = 4

    def __post_init__(self) -> None:
        if self.n_ports < 2:
            raise ValueError(f"n_ports must be >= 2, got {self.n_ports}")
        if self.width_bits <= 0:
            raise ValueError(f"width_bits must be positive, got {self.width_bits}")
        if self.buffer_depth_flits < 1:
            raise ValueError(
                f"buffer_depth_flits must be >= 1, got {self.buffer_depth_flits}"
            )

    # -- per-event energies -------------------------------------------
    def buffer_write_energy_j(self) -> float:
        """Energy to write one flit into an input FIFO (J)."""
        return REGISTER_WRITE_ENERGY_J * self.width_bits

    def buffer_read_energy_j(self) -> float:
        """Energy to read one flit out of an input FIFO (J).

        Reads are mux traversals, cheaper than writes by ~2x.
        """
        return 0.5 * REGISTER_WRITE_ENERGY_J * self.width_bits

    def crossbar_energy_j(self) -> float:
        """Energy for one flit through the switch fabric (J)."""
        return crossbar_energy_per_bit_j(self.n_ports) * self.width_bits

    def arbitration_energy_j(self) -> float:
        """Energy for one switch-allocation decision (per packet) (J)."""
        return arbiter_energy_j(self.n_ports)

    def flit_energy_j(self) -> float:
        """Total per-flit traversal energy (buffer wr+rd, crossbar) (J)."""
        return (
            self.buffer_write_energy_j()
            + self.buffer_read_energy_j()
            + self.crossbar_energy_j()
        )

    # -- non-data-dependent costs --------------------------------------
    @property
    def n_buffer_bits(self) -> int:
        """Total storage bits in the router."""
        return self.n_ports * self.buffer_depth_flits * self.width_bits

    def clock_power_w(self, freq_hz: float) -> float:
        """Clock-tree power of the router's sequential state (W).

        The clock is ungated: the paper treats ungated clocks as a
        primary NDD consumer.
        """
        per_cycle = REGISTER_CLOCK_ENERGY_J * self.n_buffer_bits
        return per_cycle * freq_hz

    def leakage_power_w(self) -> float:
        """Static leakage of buffers + crossbar + control (W)."""
        buffer_leak = REGISTER_LEAKAGE_W * self.n_buffer_bits
        # crossbar + allocator logic: ~40% of buffer transistor count.
        return buffer_leak * 1.4

    def area_mm2(self) -> float:
        """Router footprint (mm^2): buffers + crossbar + control."""
        buffer_um2 = REGISTER_AREA_UM2 * self.n_buffer_bits
        xbar_um2 = (self.n_ports * PORT_SPAN_UM) ** 2 * 0.02  # sparse matrix xbar
        return (buffer_um2 * 1.4 + xbar_um2) * 1e-6


@dataclass(frozen=True)
class HubModel:
    """The electrical side of an ATAC cluster hub.

    The hub receives flits from the ENet (to be modulated onto the
    ONet), and from the ONet photodetectors (to be forwarded onto the
    StarNet/BNet).  Electrically it is a pair of FIFOs plus muxing; we
    model it as a 3-port router of the same flit width with shallow
    buffers, which matches DSENT's treatment of simple interface blocks.
    """

    width_bits: int = 64

    def _router(self) -> RouterModel:
        return RouterModel(
            n_ports=3,
            width_bits=self.width_bits,
            buffer_depth_flits=HUB_BUFFER_DEPTH_FLITS,
        )

    def flit_energy_j(self) -> float:
        """Energy per flit crossing the hub in either direction (J)."""
        return self._router().flit_energy_j()

    def clock_power_w(self, freq_hz: float) -> float:
        """Hub sequential clock power (W)."""
        return self._router().clock_power_w(freq_hz)

    def leakage_power_w(self) -> float:
        """Hub leakage (W)."""
        return self._router().leakage_power_w()

    def area_mm2(self) -> float:
        """Hub electrical footprint (mm^2)."""
        return self._router().area_mm2()


@dataclass(frozen=True)
class ReceiveNetModel:
    """Energy model for the cluster receive network (BNet or StarNet).

    Both networks deliver a flit from the hub to core(s) of a 16-core
    cluster within one cycle (Section IV-B: "The performance of the
    StarNet is exactly the same as the BNet").  They differ *only* in
    energy:

    * **BNet**: a fanout tree -- every delivery (unicast or broadcast)
      drives all 16 leaves.
    * **StarNet**: a 1-to-16 demux + 16 dedicated point-to-point links
      -- a unicast drives one link (~1/8 the BNet energy); a broadcast
      drives all 16 links (~2x the BNet tree, which shares trunk
      segments).

    The constants below realize exactly those paper-stated ratios.
    """

    kind: str = "starnet"  # "starnet" | "bnet"
    width_bits: int = 64
    cluster_size: int = 16

    def __post_init__(self) -> None:
        if self.kind not in ("starnet", "bnet"):
            raise ValueError(f"kind must be 'starnet' or 'bnet', got {self.kind!r}")
        if self.cluster_size < 1:
            raise ValueError(f"cluster_size must be >= 1, got {self.cluster_size}")

    def _one_link_energy_j(self) -> float:
        wire_e = WIRE_ENERGY_PER_BIT_MM_J * RECEIVE_LINK_LENGTH_MM
        demux_e = demux_energy_per_bit_j(self.cluster_size)
        return (wire_e + demux_e) * self.width_bits

    def unicast_energy_j(self) -> float:
        """Energy to deliver one flit to a single core (J)."""
        one = self._one_link_energy_j()
        if self.kind == "starnet":
            return one
        # BNet: the fanout tree lights up regardless of the recipient.
        # Trunk sharing makes the tree ~ cluster_size/2 links of wire,
        # hence a unicast costs ~8x the StarNet's single link.
        return one * (self.cluster_size / 2.0)

    def broadcast_energy_j(self) -> float:
        """Energy to deliver one flit to every core in the cluster (J)."""
        one = self._one_link_energy_j()
        if self.kind == "starnet":
            return one * self.cluster_size
        return one * (self.cluster_size / 2.0)

    def leakage_power_w(self) -> float:
        """Repeater leakage of all links/branches (W)."""
        per_link = (
            WIRE_LEAKAGE_PER_BIT_MM_W * RECEIVE_LINK_LENGTH_MM * self.width_bits
        )
        n_links = self.cluster_size if self.kind == "starnet" else self.cluster_size // 2
        return per_link * max(1, n_links)

    def area_mm2(self) -> float:
        """Wiring area (mm^2)."""
        per_link_um2 = (
            WIRE_AREA_PER_BIT_MM_UM2 * RECEIVE_LINK_LENGTH_MM * self.width_bits
        )
        n_links = self.cluster_size if self.kind == "starnet" else self.cluster_size // 2
        return per_link_um2 * max(1, n_links) * 1e-6
