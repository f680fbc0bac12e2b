"""The sanitizer must be silent on correct executions.

Two angles:

* property-based -- randomized fuzz cases (the same generator ``repro
  fuzz`` uses) must pass both the sanitized run and the differential
  comparison against the unbatched reference simulator;
* deterministic -- a sharing-heavy handcrafted workload on every
  (network, protocol) cell, plus byte-identity of sanitized vs plain
  results (the sanitizer observes, it must never perturb).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sanitizer.fuzz import check_case, generate_case, run_case
from repro.network.registry import network_names

from .cases import handcrafted

#: Readers on line 128 in phase 0; core 3 writes it in phase 1; a second
#: shared line (192) keeps unicast traffic flowing alongside the
#: invalidation broadcast.  With hardware_sharers=2 the three readers
#: overflow the ACKwise sharer list, so the write exercises the global
#: broadcast path as well.
_SHARING_OPS = {
    0: [["m", 128, 0], ["m", 192, 0], ["b", 0], ["m", 192, 1], ["b", 1]],
    1: [["m", 128, 0], ["c", 3], ["b", 0], ["m", 128, 0], ["b", 1]],
    2: [["m", 128, 0], ["b", 0], ["m", 192, 0], ["b", 1]],
    3: [["b", 0], ["m", 128, 1], ["b", 1], ["m", 128, 1]],
}


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_random_cases_sanitized_and_differential(seed):
    """Random workloads: no violation, and batched == reference."""
    assert check_case(generate_case(seed)) is None


@pytest.mark.parametrize("protocol", ["ackwise", "dirkb"])
@pytest.mark.parametrize("network", network_names())
def test_sharing_workload_clean_on_every_cell(network, protocol):
    mesh_width = 4 if network.startswith("emesh") else 8
    case = handcrafted(
        _SHARING_OPS, network=network, protocol=protocol,
        mesh_width=mesh_width,
    )
    assert check_case(case) is None


def test_sanitizer_does_not_perturb_results():
    """Sanitized and plain runs of the same case are byte-identical."""
    case = generate_case(12345)
    sanitized = run_case(case, sanitize=True)
    plain = run_case(case, sanitize=False)
    assert sanitized.to_dict() == plain.to_dict()
