"""The benchmark's workloads: fixed lists of ``boxeig`` commands.

Each workload is one list of commands, typed exactly as a user would type
them after ``boxeig``.  One pass runs the list once.  The workload seed
permutes the order of the commands and draws one extra coupling from
:data:`COUPLINGS` for ``series-sweep`` and ``reference``; every other
command (the lambda = 0, 1 and -30 ones in particular) is the same for every
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Couplings the seed draws from.  All have a positive ground state, take the
#: Airy path in ``exact`` and cost about the same in every seeded command;
#: ``calibrate.py`` measures that (see README.md for the numbers).
COUPLINGS = ("-6", "-7", "-8")

#: The two lambda = -30 ground-state commands print the first excited state
#: (24.756) instead of the ground state (-6.1007).  They stay in the
#: ``reference`` workload and fail their check until that defect is fixed.
NEGATIVE_GROUND_STATE = "lambda=-30 ground state is negative and gets mislabelled"


@dataclass(frozen=True)
class Command:
    """One ``boxeig`` invocation and what the checker needs to know about it."""

    verb: str  # "solve", "table" or "exact"
    lam: str = "0"
    n: str = ""  # solve: the --n value as typed (``7``, ``4..13``)
    methods: str = ""
    state: int = 0
    digits: int | None = None
    fmt: str | None = None
    table: int = 0
    known_defect: str | None = None

    @property
    def argv(self) -> list[str]:
        if self.verb == "table":
            return ["table", str(self.table)]
        argv = [self.verb]
        if self.verb == "solve":
            argv += ["--methods", self.methods, "--n", self.n]
        argv.append(f"--lambda={self.lam}")
        if self.state:
            argv += ["--state", str(self.state)]
        if self.digits is not None:
            argv += ["--digits", str(self.digits)]
        if self.fmt is not None:
            argv += ["--format", self.fmt]
        return argv

    @property
    def n_values(self) -> list[int]:
        if ".." in self.n:
            lo, hi = self.n.split("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(part) for part in self.n.split(",")]

    def __str__(self) -> str:
        return "boxeig " + " ".join(self.argv)


def _sweep(lam: str, n: str) -> Command:
    return Command("solve", lam=lam, n=n, methods="a1,a2,a3", digits=20, fmt="json")


def _rr(lam: str, n: str, state: int = 0) -> Command:
    return Command("solve", lam=lam, n=n, methods="rr", state=state, digits=20, fmt="json")


def _exact(lam: str, state: int = 0) -> Command:
    return Command("exact", lam=lam, state=state, digits=30)


def _series_sweep(coupling: str) -> list[Command]:
    # The paper's main sweep.  High N gives large stationarity polynomials,
    # so root isolation dominates.  N = 17..19 and N > 20 are left out to
    # keep a pass near 7 s, for five passes per run.  Multi-row commands run
    # on the CLI's row pool.  N = 4..13 is split in two so that the median
    # command time falls between two commands rather than on one.
    return [
        *(_sweep("1", n) for n in ("4..9", "10..13", "14..16", "20")),
        _sweep("0", "14..16"),
        _sweep(coupling, "14..15"),
    ]


def _goldens(coupling: str) -> list[Command]:
    # Many small low-degree polynomials: root finding pays per-call
    # overhead here, not coefficient growth.
    return [Command("table", table=k) for k in (1, 2, 3, 4)]


def _reference(coupling: str) -> list[Command]:
    # Both reference computations (the secular determinant and the Airy /
    # Taylor-ODE oracle); root finding is a small share of the time.  Sized
    # like series-sweep, for about five passes per run.
    return [
        *(_rr("1", n) for n in ("8..12", "16")),
        _rr("1", "12", state=2),
        _exact("-5", state=1),  # Airy path
        _exact("1/10"),  # |z| leaves the Airy range: Taylor-ODE fallback
        Command("exact", lam="-30", known_defect=NEGATIVE_GROUND_STATE),
        Command("solve", lam="-30", n="8", methods="rr", known_defect=NEGATIVE_GROUND_STATE),
        _exact(coupling),
    ]


WORKLOADS = {
    "series-sweep": _series_sweep,
    "goldens": _goldens,
    "reference": _reference,
}

#: A few cheap commands of each workload's kinds, for the self-tests.
SMOKE = {
    "series-sweep": [_sweep("1", "4..8"), _sweep("0", "14")],
    "goldens": [Command("table", table=4)],
    "reference": [
        _rr("1", "8"),
        _exact("50", state=1),
        Command("solve", lam="-30", n="8", methods="rr", known_defect=NEGATIVE_GROUND_STATE),
    ],
}


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's command list for one seed, in the seed's order."""
    rng = random.Random(f"{workload}/{seed}")
    coupling = rng.choice(COUPLINGS)
    cmds = WORKLOADS[workload](coupling)
    rng.shuffle(cmds)
    return cmds

