"""Derive the frozen reference eigenvalues in ``reference.json``.

Run from the repository root:  ``python3 perfbench/derive_reference.py``.

For every (coupling, state) a benchmark check needs, this computes

* ``shoot``: ``boxeig.oracle.shoot_root`` (RK4 shooting, Richardson
  extrapolated) with the bracket starting at min v = min(0, lambda), so the
  state index counts every eigenvalue, negative ones included;
* ``value``: the same eigenvalue to 40 significant digits.  For lambda = 0
  it is (k+1)^2 pi^2.  Otherwise it is the ``exact_linear`` root (at 40
  digits) that agrees with ``shoot`` to 1e-7, which fixes its state label
  independently of ``exact_linear``'s own scan.  When no such root exists
  (the ground state of lambda = -30, which ``exact_linear`` cannot reach),
  ``value`` is the shooting root and ``err`` its accuracy.

The benchmark only reads the result; nothing here runs while it measures.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from boxeig.cli import format_significant  # noqa: E402
from boxeig.model import PotentialSpec  # noqa: E402
from boxeig.oracle import exact_box, exact_linear, shoot_root  # noqa: E402
from boxeig.rootfind import mpf_to_rational  # noqa: E402

import workloads  # noqa: E402

DIGITS = 40
LABEL_TOL = 1e-7
#: Accuracy claimed for a shooting root used as a value: on every other
#: entry of reference.json, 10000 RK4 steps plus one Richardson step agree
#: with the 40-digit root to 4e-12.
SHOOT_ERR = "1e-8"


def needed_states() -> dict[str, set[int]]:
    """(coupling -> states) that the checker compares against."""
    need: dict[str, set[int]] = {}
    builds = [build(c) for build in workloads.WORKLOADS.values() for c in workloads.COUPLINGS]
    for cmds in (*builds, *workloads.SMOKE.values()):
        # a known-defect command is also checked as its --state 1 twin
        cmds = [*cmds, *(replace(c, state=c.state + 1) for c in cmds if c.known_defect)]
        for cmd in cmds:
            if cmd.verb == "table":
                continue
            states = need.setdefault(cmd.lam, set())
            states.add(cmd.state)
            if cmd.verb == "solve":
                states.add(cmd.state + 1)  # upper end of the state-label check
    return need


def derive(lam_text: str, state: int) -> dict:
    lam = Fraction(lam_text)
    spec = PotentialSpec.linear(lam)
    lo = min(Fraction(0), lam)
    hi = (state + 2) ** 2 * math.pi**2 * max(1.0, 1.0 + float(lam))
    shoot = shoot_root(spec, bracket=(float(lo), hi), state=state)
    entry = {"shoot": shoot}
    if lam == 0:
        exact = exact_box(state, digits=DIGITS + 5)
        entry.update(value=format_significant(mpf_to_rational(exact), DIGITS), err="1e-35",
                     source="exact_box")
        return entry
    for label in range(state, -1, -1):
        exact = exact_linear(lam, label, digits=DIGITS)
        if abs(float(exact) - shoot) < LABEL_TOL:
            entry.update(value=format_significant(mpf_to_rational(exact), DIGITS), err="1e-35",
                         source=f"exact_linear(state={label})")
            return entry
    entry.update(value=repr(shoot), err=SHOOT_ERR, source="shoot_root")
    return entry


def main() -> int:
    table: dict[str, dict[str, dict]] = {}
    for lam_text, states in sorted(needed_states().items()):
        for state in sorted(states):
            entry = derive(lam_text, state)
            table.setdefault(lam_text, {})[str(state)] = entry
            print(f"lambda={lam_text} state={state}: {entry}", file=sys.stderr)
    payload = {
        "derivation": "python3 perfbench/derive_reference.py; see its docstring",
        "eigenvalues": table,
    }
    (HERE / "reference.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
