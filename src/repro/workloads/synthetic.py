"""Open-loop synthetic traffic for network-only studies (Figure 3).

The paper's Figure 3 measures latency vs offered load under "uniform
random unicast traffic and 0.1% broadcast injection" for the routing
schemes Cluster and Distance-{5,15,25,35,All}.  This module generates
that traffic and drives any :class:`repro.network.engine.Network`.

Injection is Bernoulli per core per cycle at a rate chosen so the
*offered load* (flits/cycle/core) matches the request; destinations are
uniform over the other cores; a small fraction of packets are
broadcasts.  Traffic is pre-generated with NumPy as time, source and
destination columns and streamed into the network in time order (the
engine requires ordered sends): one ``Network.send_stream`` call for
the warm-up window and one for the measured window.  On the ATAC
family each window runs as one loop that walks every unicast's route,
optical channel and receive port inline (``AtacNetwork._send_window``,
one frame per window); it sends exactly what ``send`` per packet would.

Fig 3 traffic is the only user of NumPy in the package, so NumPy is
imported inside :meth:`SyntheticTraffic.generate`, not at module level:
the full-system path reaches this module through the
:mod:`repro.workloads` package and never pays NumPy's import.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from repro.network.engine import Network
from repro.network.types import BROADCAST


@dataclass(frozen=True)
class LoadSweepPoint:
    """One measured point of a latency-vs-load curve."""

    offered_load: float          # requested flits/cycle/core
    measured_load: float         # injected flits/cycle/core (post-warmup)
    mean_latency: float          # cycles
    max_latency: int
    packets: int
    saturated: bool              # latency diverged past the cutoff


@dataclass(slots=True)
class TrafficColumns:
    """One run's packets as columns, in injection-time order: packet
    ``i`` goes from ``srcs[i]`` to ``dsts[i]`` (a core or
    :data:`BROADCAST`) at cycle ``times[i]``.  ``len()`` counts packets."""

    times: list[int]
    srcs: list[int]
    dsts: list[int]
    size_bits: int

    def __len__(self) -> int:
        return len(self.times)


def check_columns(times, srcs, dsts, n_cores: int, cycles: int) -> None:
    """Raise ``ValueError`` unless every packet's time is in ``[0,
    cycles)``, its source a core and its destination a core or
    :data:`BROADCAST`: one vectorized pass over NumPy columns."""
    bad = ((times < 0) | (times >= cycles) | (srcs < 0) | (srcs >= n_cores)
           | (dsts < BROADCAST) | (dsts >= n_cores))
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"generated packet {i} out of range: time={times[i]}, "
                         f"src={srcs[i]}, dst={dsts[i]}")


class SyntheticTraffic:
    """Uniform-random traffic with a broadcast fraction.

    Parameters
    ----------
    n_cores:
        Cores injecting (and receiving) traffic.
    load:
        Offered load in flits/cycle/core.
    broadcast_fraction:
        Fraction of *packets* that are broadcasts (paper: 0.1 %).
    packet_bits:
        Size of every packet (default: an 88-bit coherence message).
    seed:
        RNG seed; every run is deterministic.
    """

    def __init__(
        self,
        n_cores: int,
        load: float,
        broadcast_fraction: float = 0.001,
        packet_bits: int = 88,
        flit_bits: int = 64,
        seed: int = 1234,
    ) -> None:
        if n_cores < 2:
            raise ValueError(f"n_cores must be >= 2, got {n_cores}")
        if load <= 0:
            raise ValueError(f"load must be positive, got {load}")
        if not 0.0 <= broadcast_fraction <= 1.0:
            raise ValueError(
                f"broadcast_fraction must be in [0,1], got {broadcast_fraction}"
            )
        if packet_bits <= 0:
            raise ValueError(f"packet_bits must be positive, got {packet_bits}")
        self.n_cores = n_cores
        self.load = load
        self.broadcast_fraction = broadcast_fraction
        self.packet_bits = packet_bits
        self.flit_bits = flit_bits
        self.seed = seed
        flits_per_packet = -(-packet_bits // flit_bits)
        #: per-core per-cycle packet injection probability
        self.p_inject = min(1.0, load / flits_per_packet)

    def generate(self, cycles: int) -> TrafficColumns:
        """All packets for a run of ``cycles``, in injection-time order."""
        if cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {cycles}")
        import numpy as np

        rng = np.random.default_rng(self.seed)
        # Bernoulli thinning over the (cycle, core) grid, vectorized.
        n_trials = cycles * self.n_cores
        hits = np.flatnonzero(rng.random(n_trials) < self.p_inject)
        times = hits // self.n_cores          # row-major: cycle-major order
        srcs = hits % self.n_cores
        is_bcast = rng.random(hits.size) < self.broadcast_fraction
        # uniform destination over the *other* cores
        dsts = rng.integers(0, self.n_cores - 1, size=hits.size)
        dsts = np.where(dsts >= srcs, dsts + 1, dsts)
        dsts = np.where(is_bcast, BROADCAST, dsts)
        check_columns(times, srcs, dsts, self.n_cores, cycles)
        return TrafficColumns(
            times.tolist(), srcs.tolist(), dsts.tolist(), self.packet_bits
        )


def run_load_point(
    network: Network,
    traffic: SyntheticTraffic,
    cycles: int = 2000,
    warmup_cycles: int = 500,
    saturation_latency: float = 400.0,
) -> LoadSweepPoint:
    """Drive ``network`` with ``traffic`` and measure steady-state latency.

    Packets injected during the warm-up window are routed (they load the
    network) but excluded from the latency statistics, standard
    open-loop methodology.
    """
    if warmup_cycles >= cycles:
        raise ValueError("warmup_cycles must be < cycles")
    cols = traffic.generate(cycles)
    measured_cycles = cycles - warmup_cycles
    times, srcs, dsts = cols.times, cols.srcs, cols.dsts
    split = bisect_left(times, warmup_cycles)
    # The warm-up window, then a reset, then the measured window.
    network.send_stream(times[:split], srcs[:split], dsts[:split],
                        cols.size_bits)
    if warmup_cycles > 0:
        network.reset_stats()
    network.send_stream(times[split:], srcs[split:], dsts[split:],
                        cols.size_bits)
    stats = network.stats
    mean = stats.mean_latency
    return LoadSweepPoint(
        offered_load=traffic.load,
        measured_load=stats.offered_load(measured_cycles, traffic.n_cores)
        if stats.injected_flits
        else 0.0,
        mean_latency=mean,
        max_latency=stats.latency_max,
        packets=stats.packets_sent,
        saturated=mean > saturation_latency,
    )
