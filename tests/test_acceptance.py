"""Acceptance gate: the nine headline guarantees, one printed line each.

Each test records exactly one ``criterion k: PASS/FAIL`` line (replayed in
the terminal summary, see conftest) and then asserts on it.
"""

import math
import random
import time
from fractions import Fraction

import mpmath

import conftest

from boxeig import goldens
from boxeig.cli import table_values
from boxeig.model import PotentialSpec
from boxeig.oracle import exact_box, exact_linear, mpf_to_rational, shoot_root
from boxeig.poly import RationalPoly
from boxeig.rayleigh_ritz import _pencil, solve_secular
from boxeig.series import build_series
from boxeig.variational import solve_a2

from references import count_real_roots, monomial
from test_rayleigh_ritz import band_to_dense, secular_at
from test_rootfind import grid_scan_count
from test_variational import kinetic_energy_forms, quotient_at

V0 = PotentialSpec.linear(0)
V1 = PotentialSpec.linear(Fraction(1))


def announce(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def reproduce_table(table_id: int):
    """Recompute every cell of a stored golden table; return the tally."""
    table = goldens.TABLES[table_id]
    start = time.perf_counter()
    computed = table_values(table)
    matched, no_root, mismatches = 0, 0, []
    for i, n in enumerate(table.n_values):
        for j, col in enumerate(table.columns):
            golden = table.cells[i][j]
            if golden == goldens.NO_ROOT:
                no_root += 1
            if goldens.cell_matches(golden, computed[i][j]):
                matched += 1
            else:
                mismatches.append(f"N={n} {col.label}")
    elapsed = time.perf_counter() - start
    total = len(table.n_values) * len(table.columns)
    return matched, total, no_root, elapsed, mismatches


def test_criterion_1_table_1_free_box():
    matched, total, no_root, elapsed, bad = reproduce_table(1)
    ok = matched == total == 40 and no_root == 2 and elapsed < 10.0
    announce(
        1,
        ok,
        f"table 1 (lam=0): {matched}/{total} cells within one final-digit unit, "
        f"{no_root} no-root cells confirmed, {elapsed:.1f}s"
        + (f"; mismatches: {', '.join(bad)}" if bad else ""),
    )


def test_criterion_2_table_2_ramp():
    matched, total, no_root, elapsed, bad = reproduce_table(2)
    ok = matched == total == 40 and no_root == 2 and elapsed < 10.0
    announce(
        2,
        ok,
        f"table 2 (lam=1): {matched}/{total} cells within one final-digit unit, "
        f"{no_root} no-root cells confirmed, {elapsed:.1f}s"
        + (f"; mismatches: {', '.join(bad)}" if bad else ""),
    )


def test_criterion_3_table_3_high_orders():
    matched, total, _, elapsed, bad = reproduce_table(3)
    table = goldens.TABLES[3]
    last = table.n_values.index(21)
    pinned = (table.cells[last][0], table.cells[last][1]) == ("9.869604401", "10.36850716")
    ok = matched == total == 14 and pinned and elapsed < 60.0
    announce(
        3,
        ok,
        f"table 3 (boundary roots N=15..21): {matched}/{total} cells, "
        f"N=21 row pinned to 9.869604401 / 10.36850716, {elapsed:.1f}s"
        + (f"; mismatches: {', '.join(bad)}" if bad else ""),
    )


def test_criterion_4_table_4_reference_method():
    matched, total, _, elapsed, bad = reproduce_table(4)
    ok = matched == total == 6
    announce(
        4,
        ok,
        f"table 4 (secular determinant, N=4,6,8, both couplings): "
        f"{matched}/{total} cells, {elapsed:.1f}s"
        + (f"; mismatches: {', '.join(bad)}" if bad else ""),
    )


def test_criterion_5_oracle_precision():
    start = time.perf_counter()
    box = exact_box(0, digits=30)
    ramp = exact_linear(1, 0, digits=30)
    elapsed = time.perf_counter() - start
    with mpmath.workdps(40):
        rel_box = abs(mpmath.mpf(str(box)) / mpmath.mpf(goldens.BENCHMARK_EPS_FREE) - 1)
        rel_ramp = abs(mpmath.mpf(str(ramp)) / mpmath.mpf(goldens.BENCHMARK_EPS_RAMP) - 1)
        tol = mpmath.mpf(10) ** -18
        ok = rel_box < tol and rel_ramp < tol and elapsed < 5.0
        announce(
            5,
            ok,
            f"oracle at 30 digits: |rel err| = {mpmath.nstr(rel_box, 2)} (box), "
            f"{mpmath.nstr(rel_ramp, 2)} (ramp) vs 20-digit references, {elapsed:.1f}s",
        )


def test_criterion_6_variational_bound():
    bounds_checked = 0
    worst = None
    ok = True
    for lam, potential in ((0, V0), (1, V1)):
        eps0 = mpf_to_rational(
            exact_box(0, digits=30) if lam == 0 else exact_linear(lam, 0, digits=30)
        )
        floor = eps0 - Fraction(1, 10**12)
        for n in range(4, 14):
            est = solve_a2(quotient_at(potential, n))
            margin = est.w - eps0
            if worst is None or margin < worst:
                worst = margin
            ok = ok and est.w >= floor
            bounds_checked += 1
    announce(
        6,
        ok,
        f"quotient value bounds the ground state in all {bounds_checked} cases "
        f"(N=4..13, lam in {{0,1}}); smallest margin {float(worst):.2e}",
    )


def test_criterion_7_independent_oracles_agree():
    diffs = []
    for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
        quantization = float(exact_linear(lam, 0, digits=20))
        shooting = shoot_root(PotentialSpec.linear(lam))
        diffs.append(abs(quantization - shooting))
    ok = all(d < 1e-10 for d in diffs)
    announce(
        7,
        ok,
        "wall-series quantization vs shooting roots for lam=1/2,1,2: max diff "
        f"{max(diffs):.2e} (tolerance 1e-10)",
    )


def test_criterion_8_structural_exactness():
    # (a) flat-potential series coefficients are the sine-series ones, exactly
    series = build_series(V0, 21)
    sine_ok = all(series.c[j].is_zero for j in range(2, 22, 2)) and all(
        series.c[2 * k + 1]
        == monomial(k, Fraction((-1) ** k, math.factorial(2 * k + 1)), "eps")
        for k in range(11)
    )

    # (b) integral of phi'^2 equals integral of -phi phi'' exactly
    rng = random.Random(20260816)
    kinetic_ok = True
    kinetic_cases = 0
    for _ in range(15):
        n = rng.randint(4, 10)
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
        potential = PotentialSpec.general(RationalPoly.from_coeffs(coeffs, "q"))
        by_parts, literal = kinetic_energy_forms(build_series(potential, n))
        kinetic_ok = kinetic_ok and by_parts == literal
        kinetic_cases += 1

    # (c) both secular matrices exactly symmetric: band row i of R H and
    # R S over r_i is row i of H and S
    symmetry_ok = True
    for potential in (V0, V1, PotentialSpec.general(RationalPoly.from_coeffs([2, -1, 3], "q"))):
        a, b, r = _pencil(potential, 9)
        for rows in (band_to_dense(a), band_to_dense(b)):
            for i in range(len(r)):
                for j in range(len(r)):
                    symmetry_ok = symmetry_ok and rows[i][j] * r[j] == rows[j][i] * r[i]

    # (d) Sturm counts equal exact grid scans on 100 seeded random polynomials
    rng = random.Random(20260816)
    scan_agreements = 0
    for _ in range(100):
        degree = rng.randint(1, 8)
        coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        p = RationalPoly.from_coeffs(coeffs)
        if count_real_roots(p, Fraction(-10), Fraction(10)) == grid_scan_count(
            coeffs, -10, 10, 1, 10_000
        ):
            scan_agreements += 1

    ok = sine_ok and kinetic_ok and symmetry_ok and scan_agreements == 100
    announce(
        8,
        ok,
        f"sine series exact to N=21: {sine_ok}; kinetic identity exact in "
        f"{kinetic_cases}/15 random cases: {kinetic_ok}; secular matrices "
        f"symmetric: {symmetry_ok}; Sturm vs grid scan: {scan_agreements}/100",
    )


def test_criterion_9_monotone_estimates_and_perturbative_slope():
    monotone_ok = True
    for potential in (V0, V1):
        values = [solve_secular(secular_at(potential, n)).eps for n in (4, 6, 8)]
        monotone_ok = monotone_ok and values[0] >= values[1] >= values[2]

    lam = Fraction(1, 10000)
    with mpmath.workdps(30):
        shift = mpmath.mpf(str(exact_linear(lam, 0, digits=25))) - mpmath.mpf(
            str(exact_box(0, digits=25))
        )
        slope = shift / mpmath.mpf("0.0001")
        slope_ok = abs(slope - mpmath.mpf(1) / 2) < 0.005
        ok = monotone_ok and slope_ok
        announce(
            9,
            ok,
            f"secular ground state nonincreasing over N=4,6,8 (both couplings): "
            f"{monotone_ok}; perturbative slope at lam=1e-4 is {mpmath.nstr(slope, 8)} "
            "(target 1/2 within 1%)",
        )
