"""Injected faults must never slip past the sanitizer.

Each fault from :mod:`repro.sanitizer.faults` gets a handcrafted
workload on which it deterministically fires, and the test asserts the
sanitizer raises the matching invariant.  Property-based companions
re-check over random seeded cases: whenever the fault fires, the run
must end in the expected violation (and when it never fires, the run
must stay clean -- arming alone is not a perturbation).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sanitizer import InvariantViolation
from repro.sanitizer.faults import inject_fault
from repro.sanitizer.fuzz import (
    MAX_EVENTS,
    case_config,
    case_traces,
    generate_case,
)
from repro.sim.system import ManycoreSystem

from .cases import handcrafted


def run_injected(case, fault):
    """Sanitized run with ``fault`` armed.

    Returns ``(state, outcome)`` where outcome is ``None`` (clean),
    an :class:`InvariantViolation`, or the protocol's own
    ``RuntimeError`` -- timing corruption (double-reserve) can derail
    message ordering badly enough that the protocol state machine
    trips over an impossible message before any sanitizer audit runs.
    """
    system = ManycoreSystem(case_config(case), sanitize=True)
    state = inject_fault(system, fault)
    try:
        system.run(case_traces(case), app="fault", max_events=MAX_EVENTS)
    except (InvariantViolation, RuntimeError) as failure:
        return state, failure
    return state, None


#: Core 0 reads line 64 and holds it across the barrier; core 1 then
#: writes it, forcing an invalidation of core 0 and thus an INV_ACK.
_READ_THEN_REMOTE_WRITE = {
    0: [["m", 64, 0], ["b", 0]],
    1: [["b", 0], ["m", 64, 1]],
}

#: Three readers overflow an ACKwise_2 sharer list; the phase-1 write
#: then raises a true invalidation *broadcast* through every cluster's
#: receive network.
_BROADCAST_WRITE = {
    0: [["m", 64, 0], ["b", 0]],
    1: [["m", 64, 0], ["b", 0]],
    2: [["m", 64, 0], ["b", 0]],
    3: [["b", 0], ["m", 64, 1]],
}


@pytest.mark.parametrize("protocol", ["ackwise", "dirkb"])
def test_dropped_ack_deadlocks_and_is_reported(protocol):
    state, violation = run_injected(
        handcrafted(_READ_THEN_REMOTE_WRITE, protocol=protocol), "drop-ack"
    )
    assert state["fired"]
    assert violation is not None and violation.invariant == "deadlock"
    # the structured report names the stuck transaction and requester
    assert violation.details["busy_lines"]


def test_stale_sharer_bit_caught_at_quiescence():
    state, violation = run_injected(
        handcrafted({0: [["m", 64, 0]]}), "stale-sharer"
    )
    assert state["fired"]
    assert violation is not None
    assert violation.invariant == "directory-consistency"


@pytest.mark.parametrize("network,mesh_width", [
    ("emesh-pure", 4),   # flat-array port accounting (mesh fallback)
    ("emesh-pure", 8),
    ("emesh-bcast", 4),
    ("emesh-bcast", 8),
    ("atac+", 8),        # receive-network PortResource double-booking
])
def test_double_reserved_port_fails_end_of_run_audit(network, mesh_width):
    state, violation = run_injected(
        handcrafted(_BROADCAST_WRITE, network=network, mesh_width=mesh_width),
        "double-reserve",
    )
    assert state["fired"]
    assert violation is not None and violation.invariant == "port-accounting"


def test_double_reserved_receive_port_serves_unicasts():
    """The fault's port replaces the original everywhere: every core the
    original served now unicasts through the faulty port, which the
    end-of-run audit reads."""
    case = handcrafted(_BROADCAST_WRITE, network="atac+", mesh_width=8)
    system = ManycoreSystem(case_config(case), sanitize=True)
    inject_fault(system, "double-reserve")
    rnet = system.network.receive_nets[0]
    faulty = rnet._ports[0]
    assert type(faulty).__name__ == "_DoubleReservedPort"
    served = [p for p in rnet._port_of_local if p is faulty]
    assert len(served) == rnet.cluster_size // len(rnet._ports)
    assert {id(p) for p in rnet._port_of_local} == {id(p) for p in rnet._ports}
    rnet.deliver_unicast(0, 1, local_index=0)
    assert faulty.busy_cycles == 1


@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_random_cases_drop_ack_never_missed(seed):
    state, violation = run_injected(
        generate_case(seed, fault="drop-ack"), "drop-ack"
    )
    if state["fired"]:
        assert violation is not None and violation.invariant == "deadlock"
    else:
        assert violation is None


@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_random_cases_double_reserve_never_missed(seed):
    """A fired double-reservation never completes cleanly: either the
    end-of-run port audit flags it, or the too-early deliveries it
    causes crash the protocol mid-run."""
    state, outcome = run_injected(
        generate_case(seed, fault="double-reserve"), "double-reserve"
    )
    if state["fired"]:
        assert outcome is not None
        if isinstance(outcome, InvariantViolation):
            assert outcome.invariant == "port-accounting"
    else:
        assert outcome is None


@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_random_cases_stale_sharer_no_collateral(seed):
    """A stale sharer bit surfaces as directory inconsistency, stalls
    the protocol into a reported deadlock (the bogus target never
    responds usefully), or is erased by a later exclusive request
    before any quiescent check -- it must never masquerade as an
    unrelated violation or a silent wrong result."""
    state, outcome = run_injected(
        generate_case(seed, fault="stale-sharer"), "stale-sharer"
    )
    if outcome is not None:
        assert state["fired"]
        assert isinstance(outcome, InvariantViolation)
        assert outcome.invariant in ("directory-consistency", "deadlock")
