"""The ATAC family's unicast paths against their stage methods.

``AtacNetwork`` sends a unicast two ways: ``_send_unicast`` (per
``send``) inlines the routing rule over per-core tables and calls the
optical stage methods, and ``_send_window`` (per ``send_stream``
window) also walks the ENet legs, the channel's unicast branch of
``transmit`` and the receive-port reservation inline, counting per
window.  Corona shares both, reading two class constants (the
receiver's channel, after ``TOKEN_DELAY``); HERMES inherits them and
never routes a unicast optically.  The references here compose the
stage methods one by one -- ``_to_hub`` ->
``AdaptiveSWMRLink.transmit`` -> ``ReceiveNetwork.deliver_unicast`` --
from topology calls, behind the policy's own ``use_onet`` verdict
(ATAC, HERMES) or the cluster test (Corona), and are driven through
``send``.  Either fast path must leave identical counters, link state,
receive ports and mesh port state; ``send`` must also deliver the same
packets at the same cycles.  In-window broadcasts still go through
``transmit``, so the laser mode passes between the inline stage and
``transmit`` inside and across windows; one case drives exactly that
on one hub's channel.
"""

import random
from dataclasses import asdict

import pytest

from repro.network.atac import AtacNetwork
from repro.network.corona import TOKEN_DELAY, CoronaNetwork
from repro.network.engine import HUB_DELAY
from repro.network.hermes import HermesNetwork
from repro.network.routing import ClusterRouting, DistanceRouting, distance_all
from repro.network.topology import MeshTopology
from repro.network.types import BROADCAST, CONTROL_MSG_BITS, DATA_MSG_BITS


class StagedAtac(AtacNetwork):
    """ATAC whose unicasts compose the stage methods one by one."""

    def _send_unicast(self, src, dst, t, n_flits):
        topo = self.topology
        if not self.routing.use_onet(topo, src, dst):
            return self._traverse(src, dst, t, n_flits)
        src_cluster = topo.cluster_of(src)
        dst_cluster = topo.cluster_of(dst)
        at_hub = self._to_hub(src, t, n_flits)
        hub_arrival = self.onet_links[src_cluster].transmit(
            at_hub, n_flits, broadcast=False
        )
        self.stats.hub_flit_traversals += n_flits
        local = topo.cluster_cores(dst_cluster).index(dst)
        return self.receive_nets[dst_cluster].deliver_unicast(
            hub_arrival + HUB_DELAY, n_flits, local
        )


class StagedCorona(CoronaNetwork):
    """Corona whose unicasts compose the stage methods one by one."""

    def _send_unicast(self, src, dst, t, n_flits):
        topo = self.topology
        dst_cluster = topo.cluster_of(dst)
        if topo.cluster_of(src) == dst_cluster:
            return self._traverse(src, dst, t, n_flits)
        at_hub = self._to_hub(src, t, n_flits)
        hub_arrival = self.onet_links[dst_cluster].transmit(
            at_hub + TOKEN_DELAY, n_flits, broadcast=False
        )
        self.stats.hub_flit_traversals += n_flits
        local = topo.cluster_cores(dst_cluster).index(dst)
        return self.receive_nets[dst_cluster].deliver_unicast(
            hub_arrival + HUB_DELAY, n_flits, local
        )


class StagedHermes(HermesNetwork):
    """HERMES whose unicasts compose the stage methods one by one."""

    _send_unicast = StagedAtac._send_unicast


def _traffic(n_cores, count, seed):
    """Time-ordered unicasts of both sizes, dense enough to queue at the
    links and receive ports, with a few broadcasts mixed in."""
    rng = random.Random(seed)
    t = 0
    out = []
    for _ in range(count):
        t += rng.randrange(2)
        src = rng.randrange(n_cores)
        if rng.random() < 0.01:
            dst = BROADCAST
        else:
            dst = rng.randrange(n_cores - 1)
            dst += dst >= src
        out.append((src, dst, rng.choice((CONTROL_MSG_BITS, DATA_MSG_BITS)), t))
    return out


def _link_state(net):
    return [
        (l.free_at, l.mode_transitions, l.last_mode, l.unicast_cycles,
         l.broadcast_cycles)
        for l in net.onet_links
    ]


def _receive_state(net):
    return [
        [(p.free_at, p.busy_cycles) for p in rnet._ports]
        for rnet in net.receive_nets
    ]


POLICIES = {
    "cluster": lambda topo: ClusterRouting(),
    "distance-15": lambda topo: DistanceRouting(15),
    "distance-all": distance_all,
}


def _windows(traffic):
    """The traffic as ``send_stream`` windows: one per run of
    same-size packets, as (times, srcs, dsts, size_bits)."""
    out = []
    for src, dst, bits, t in traffic:
        if not out or out[-1][3] != bits:
            out.append(([], [], [], bits))
        times, srcs, dsts, _ = out[-1]
        times.append(t)
        srcs.append(src)
        dsts.append(dst)
    return out


def _assert_same_state(fast, staged):
    assert asdict(fast.stats) == asdict(staged.stats)
    assert _link_state(fast) == _link_state(staged)
    assert _receive_state(fast) == _receive_state(staged)
    assert fast._free_at == staged._free_at
    assert fast.port_busy() == staged.port_busy()


def _assert_same(fast, staged, traffic):
    for src, dst, bits, t in traffic:
        got = fast.send(src, dst, bits, t)
        want = staged.send(src, dst, bits, t)
        assert got == want, (src, dst, t)
    _assert_same_state(fast, staged)


def _assert_same_windowed(fast, staged, traffic):
    windows = _windows(traffic)
    assert len(windows) > 1
    for window in windows:
        fast.send_stream(*window)
    for src, dst, bits, t in traffic:
        staged.send(src, dst, bits, t)
    _assert_same_state(fast, staged)
    assert fast._last_send_time == staged._last_send_time


@pytest.mark.parametrize("width", [8, 16])
@pytest.mark.parametrize("policy", list(POLICIES))
def test_unicast_path_equals_stage_composition(policy, width):
    topo = MeshTopology(width=width, cluster_width=4)
    fast = AtacNetwork(topo, routing=POLICIES[policy](topo))
    staged = StagedAtac(topo, routing=POLICIES[policy](topo))
    _assert_same(fast, staged, _traffic(topo.n_cores, 4000, seed=width))
    # Distance-15 reaches the ONet only on a chip wider than 15 hops.
    if policy == "cluster" or (policy == "distance-15" and width == 16):
        assert fast.stats.onet_unicasts > 0


@pytest.mark.parametrize("width", [8, 16])
def test_corona_unicast_path_equals_stage_composition(width):
    topo = MeshTopology(width=width, cluster_width=4)
    fast = CoronaNetwork(topo)
    staged = StagedCorona(topo)
    _assert_same(fast, staged, _traffic(topo.n_cores, 4000, seed=width))
    assert fast.stats.onet_unicasts > 0


@pytest.mark.parametrize("width", [8, 16])
@pytest.mark.parametrize("policy", list(POLICIES))
def test_window_kernel_equals_stage_composition(policy, width):
    topo = MeshTopology(width=width, cluster_width=4)
    fast = AtacNetwork(topo, routing=POLICIES[policy](topo))
    staged = StagedAtac(topo, routing=POLICIES[policy](topo))
    _assert_same_windowed(fast, staged, _traffic(topo.n_cores, 4000, seed=width))
    if policy == "cluster" or (policy == "distance-15" and width == 16):
        assert fast.stats.onet_unicasts > 0


@pytest.mark.parametrize("width", [8, 16])
def test_corona_window_kernel_equals_stage_composition(width):
    topo = MeshTopology(width=width, cluster_width=4)
    fast = CoronaNetwork(topo)
    staged = StagedCorona(topo)
    _assert_same_windowed(fast, staged, _traffic(topo.n_cores, 4000, seed=width))
    assert fast.stats.onet_unicasts > 0


@pytest.mark.parametrize("width", [8, 16])
def test_hermes_window_kernel_equals_stage_composition(width):
    topo = MeshTopology(width=width, cluster_width=4)
    fast = HermesNetwork(topo)
    staged = StagedHermes(topo)
    _assert_same_windowed(fast, staged, _traffic(topo.n_cores, 4000, seed=width))
    assert fast.stats.onet_unicasts == 0
    assert fast.stats.onet_broadcasts > 0


@pytest.mark.parametrize("width", [8, 16])
def test_window_kernel_mode_transitions_across_broadcasts(width):
    """Windows that alternate unicasts and broadcasts on hub 0's channel
    hand the laser mode between the kernel's inline stage and
    ``transmit`` (which serves the broadcasts) inside windows and across
    their boundaries.  The channel stays backlogged after its first
    message, so it sees one power-up plus one transition per
    UNICAST<->BROADCAST change, in send order."""
    topo = MeshTopology(width=width, cluster_width=4)
    fast = AtacNetwork(topo, routing=ClusterRouting())
    staged = StagedAtac(topo, routing=ClusterRouting())
    senders = topo.cluster_cores(0)
    far = [c for c in range(topo.n_cores) if topo.cluster_of(c) != 0]
    rng = random.Random(width)
    pattern = (("u", "u"), ("u", "b", "u"), ("b",))
    windows, modes = [], []
    for k in range(30):
        kinds = pattern[k % len(pattern)]
        dsts = [BROADCAST if kind == "b" else rng.choice(far) for kind in kinds]
        srcs = [rng.choice(senders) for _ in kinds]
        windows.append(([k] * len(kinds), srcs, dsts, CONTROL_MSG_BITS))
        modes += kinds
    for window in windows:
        fast.send_stream(*window)
        for t, src, dst in zip(*window[:3]):
            staged.send(src, dst, CONTROL_MSG_BITS, t)
    _assert_same_state(fast, staged)
    changes = sum(a != b for a, b in zip(modes, modes[1:]))
    link = fast.onet_links[0]
    assert link.mode_transitions == 1 + changes
    assert fast.stats.onet_mode_transitions == 1 + changes
    assert fast.stats.onet_unicasts == modes.count("u")
    assert fast.stats.onet_broadcasts == modes.count("b")
