"""Grep-based lint: only the probe module attaches observers to a system.

The sanitizer, the telemetry collector and the fault injectors hook a
running :class:`~repro.sim.system.ManycoreSystem` through the seams of
``repro/sim/probes.py``, which also fixes the order they stack in.  An
observer that assigns a seam attribute itself -- ``system.send_msg``,
``network.send``, ``barriers.arrive``, ``system.run`` or
``system.eventq`` -- would bypass that order, so ``src/repro`` may do
so only inside the probe module.  An object setting its *own* attribute
in its constructor (``self.eventq = eventq``) is not a hook.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the one module allowed to assign seam attributes.
ALLOWED = {SRC / "sim" / "probes.py"}

_SEAM = r"(?:\.send_msg|\bnetwork\.send|\.arrive|\.run|\.eventq)"

PATTERNS = (
    # obj.seam = ... / obj.seam += ..., but not self.seam = ...
    re.compile(rf"^\s*(?!self\.\w+\s*=)[\w.\[\]]*{_SEAM}\s*[-+]?=(?!=)"),
    # setattr(obj, "seam", ...)
    re.compile(r"setattr\([^,]+,\s*['\"](?:send_msg|send|arrive|run|eventq)['\"]"),
)


def test_probe_module_is_the_only_seam_writer():
    assert SRC.is_dir(), SRC
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path in ALLOWED:
            continue
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            if any(pattern.search(line) for pattern in PATTERNS):
                offenders.append(
                    f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
                )
    assert not offenders, (
        "seam attribute assigned outside repro/sim/probes.py "
        "(define a Probe seam method and install it instead):\n  "
        + "\n  ".join(offenders)
    )


def test_patterns_catch_hand_rolled_hooks():
    hooks = (
        "system.send_msg = self._send_msg",
        "        self.system.eventq = SanitizedEventQueue(self)",
        "system.network.send = self._net_send",
        "network.send = send",
        "system.barriers.arrive = self._arrive",
        "system.run = self._run",
        'setattr(system, "send_msg", hook)',
    )
    not_hooks = (
        "        self.eventq = eventq",
        "        self.run_unit = run_unit",
        "        deliveries = self.network.send(pkt)",
        "        if system.run == other:",
    )
    for line in hooks:
        assert any(p.search(line) for p in PATTERNS), line
    for line in not_hooks:
        assert not any(p.search(line) for p in PATTERNS), line
