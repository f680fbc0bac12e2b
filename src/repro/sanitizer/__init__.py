"""Opt-in runtime invariant checking for the simulator.

Enable per run with ``ManycoreSystem(config, sanitize=True)`` /
``RunSpec(sanitize=True)``, per invocation with ``repro run
--sanitize``, or with ``REPRO_SANITIZE=1`` for every spec that
``spec_for`` builds (the figure drivers and the CLI).  Disabled (the
default), none of this code is even imported on the simulation path.

See DESIGN.md section 10 for the invariant catalogue and
:mod:`repro.sanitizer.fuzz` for the differential fuzzer built on top.
"""

from repro.sanitizer.violations import InvariantViolation, describe_event

__all__ = ["InvariantViolation", "describe_event"]
