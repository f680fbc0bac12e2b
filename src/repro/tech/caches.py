"""McPAT-like SRAM cache energy/area models at the 11 nm node.

The paper obtains L1-I, L1-D, L2 and directory-cache power/area from
McPAT [27] fed with the Table III transistor parameters.  We rebuild
the essentials analytically:

* **Area**: bitcell area x bits x peripheral overhead.
* **Dynamic energy per access**: the energy to cycle the accessed
  subarray -- wordline + ``line_bits`` bitline swings + sense amps +
  decode, all scaling with the access width and (weakly) capacity.
* **Leakage**: per-bit cell leakage (HVT) + peripheral leakage,
  proportional to capacity.  This is non-data-dependent energy, the
  quantity Figure 7's analysis hinges on (the L2's energy is "evenly
  split between the leakage and dynamic components").

Calibration targets at 1 GHz / 0.6 V / 11 nm HVT: a 32 KB L1 read costs
a few pJ; a 256 KB private L2 leaks a fraction of a milliwatt and, at
typical L2 access rates, burns a comparable dynamic power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# 11 nm HVT SRAM macro constants.
#: 6T SRAM cell footprint (um^2); ~0.04 um^2 projected at 11 nm.
BITCELL_AREA_UM2 = 0.04
#: Multiplier over raw cell area for decoders/sense/IO.
PERIPHERY_AREA_FACTOR = 2.0
#: Energy to swing one bitline pair + sense one bit (fJ).
BITLINE_ENERGY_FJ_PER_BIT = 25.0
#: Fixed per-access decode + wordline energy (fJ).
DECODE_ENERGY_FJ = 400.0
#: Leakage per bitcell, HVT (pW); the periphery adds
#: ``PERIPHERY_LEAKAGE_FACTOR`` on top.
CELL_LEAKAGE_PW = 500.0
PERIPHERY_LEAKAGE_FACTOR = 0.5


@dataclass(frozen=True)
class CacheGeometry:
    """Physical organization of one cache instance."""

    capacity_bytes: int
    associativity: int = 4
    line_bytes: int = 64
    #: extra bits per line for tag + state (directory caches override).
    overhead_bits_per_line: int = 48

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {self.capacity_bytes}")
        if self.line_bytes <= 0 or self.capacity_bytes % self.line_bytes:
            raise ValueError(
                f"capacity {self.capacity_bytes} not a multiple of line size {self.line_bytes}"
            )
        if self.associativity < 1:
            raise ValueError(f"associativity must be >= 1, got {self.associativity}")
        if self.n_lines % self.associativity:
            raise ValueError(
                f"{self.n_lines} lines not divisible by associativity {self.associativity}"
            )

    @property
    def n_lines(self) -> int:
        """Total cache lines."""
        return self.capacity_bytes // self.line_bytes

    @property
    def total_bits(self) -> int:
        """Data + tag/state bits."""
        return self.n_lines * (self.line_bytes * 8 + self.overhead_bits_per_line)


@dataclass(frozen=True)
class CacheModel:
    """Energy/area model for one cache (or directory) instance of the
    given organization."""

    geometry: CacheGeometry

    # ------------------------------------------------------------------
    def area_mm2(self) -> float:
        """Total macro area (mm^2)."""
        cells_um2 = self.geometry.total_bits * BITCELL_AREA_UM2
        return cells_um2 * PERIPHERY_AREA_FACTOR * 1e-6

    # ------------------------------------------------------------------
    def _access_bits(self, data_bits: int | None) -> int:
        """Bits cycled per access: all ways' tags + the data width read."""
        g = self.geometry
        tag_bits = g.overhead_bits_per_line * g.associativity
        if data_bits is None:
            data_bits = g.line_bytes * 8
        return tag_bits + data_bits

    def read_energy_j(self, data_bits: int | None = None) -> float:
        """Dynamic energy for one read access (J).

        ``data_bits`` defaults to a full line (the common case for L2
        fills and coherence transfers); L1 word accesses may pass 64.
        """
        bits = self._access_bits(data_bits)
        return (DECODE_ENERGY_FJ + bits * BITLINE_ENERGY_FJ_PER_BIT) * 1e-15

    def write_energy_j(self, data_bits: int | None = None) -> float:
        """Dynamic energy for one write access (J); writes swing full rails."""
        bits = self._access_bits(data_bits)
        return (DECODE_ENERGY_FJ + bits * BITLINE_ENERGY_FJ_PER_BIT * 1.2) * 1e-15

    def tag_probe_energy_j(self) -> float:
        """Energy for a tag-only probe (e.g. an invalidation lookup) (J)."""
        g = self.geometry
        bits = g.overhead_bits_per_line * g.associativity
        return (DECODE_ENERGY_FJ + bits * BITLINE_ENERGY_FJ_PER_BIT) * 1e-15

    # ------------------------------------------------------------------
    def leakage_power_w(self) -> float:
        """Static leakage of the whole macro (W)."""
        cells = self.geometry.total_bits * CELL_LEAKAGE_PW * 1e-12
        return cells * (1.0 + PERIPHERY_LEAKAGE_FACTOR)


def l1i_cache() -> CacheModel:
    """Per-core private L1 instruction cache (Table I: 32 KB)."""
    return CacheModel(CacheGeometry(32 * 1024, associativity=4))


def l1d_cache() -> CacheModel:
    """Per-core private L1 data cache (Table I: 32 KB)."""
    return CacheModel(CacheGeometry(32 * 1024, associativity=4))


def l2_cache() -> CacheModel:
    """Per-core private L2 cache (Table I: 256 KB)."""
    return CacheModel(CacheGeometry(256 * 1024, associativity=8))


def directory_cache(
    n_lines_tracked: int,
    hardware_sharers: int,
    n_cores: int = 1024,
) -> CacheModel:
    """Per-core directory slice for an ACKwise_k / Dir_kB protocol.

    A directory entry stores the tag/state plus ``k`` hardware pointers
    of log2(n_cores) bits each (plus the global bit / sharer count).
    Entry width -- and hence directory area and energy -- grows linearly
    with ``k``, which is what drives the 2x energy growth from 4 to 1024
    sharers in Figure 16.
    """
    if hardware_sharers < 1:
        raise ValueError(f"hardware_sharers must be >= 1, got {hardware_sharers}")
    if n_lines_tracked < 1:
        raise ValueError(f"n_lines_tracked must be >= 1, got {n_lines_tracked}")
    ptr_bits = max(1, math.ceil(math.log2(max(2, n_cores))))
    # Pointer storage caps at a full-map bit vector: past n_cores bits,
    # pointers are strictly worse than one presence bit per core.
    sharer_bits = min(hardware_sharers * ptr_bits, n_cores)
    entry_bits = 48 + sharer_bits + ptr_bits + 1
    # Model the directory as a "cache" whose line is one entry of pure
    # overhead bits (minimal 1-byte payload granule).
    geometry = CacheGeometry(
        capacity_bytes=n_lines_tracked,
        associativity=4,
        line_bytes=1,
        overhead_bits_per_line=entry_bits,
    )
    return CacheModel(geometry)
