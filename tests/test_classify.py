"""Tests for the compatibility system, its determinant, and the scan."""

import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from virkit import classify, suite
from virkit.classify import (
    RELATIONS,
    ClassificationCase,
    build_functional_equation,
    build_linear_system,
    certify_factorization,
    check_constant_solution,
    compare_with_expected,
    compute_delta,
    condition_pair_holds,
    constant_residual,
    enumerate_cases,
    equation_residual,
    grid_values,
    linear_factor_1,
    linear_factor_2,
    specialize_s0,
)
from virkit.errors import ParameterError
from virkit.golden import (
    DATA_VERSION,
    recorded_delta3_difference,
    reference_delta1,
    reference_delta2,
    reference_delta3,
    reference_s0,
)
from virkit.poly import ALPHABET, MultiPoly, canonical_string, parse_poly, poly_divrem

DATA_DIR = Path(__file__).parent / "data" / DATA_VERSION

HALF = Fraction(1, 2)

A = MultiPoly.var("a")
B = MultiPoly.var("b")
BP = MultiPoly.var("bp")
RHO = MultiPoly.var("rho")
P = MultiPoly.var("p")
K = MultiPoly.var("k")
M = MultiPoly.var("m")
C = MultiPoly.var("c")


def load_golden(name: str) -> MultiPoly:
    return parse_poly((DATA_DIR / name).read_text().strip())


def random_point(rng, names=("a", "b", "bp", "rho", "p", "k", "m")):
    return {n: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for n in names}


# -- recurrence --------------------------------------------------------------------


def test_functional_equation_coefficients():
    eq = build_functional_equation()
    coeffs = dict(eq.terms)
    assert coeffs[(0, 0)] == A + P + K + BP * M
    assert coeffs[(0, 1)] == -(A + K + B * M)
    assert coeffs[(1, 0)] == -(P - M * RHO)
    assert eq.argument_shifts() == ((0, 0), (0, 1), (1, 0))


def test_equation_residual_constant_candidate():
    eq = build_functional_equation()
    table = {(p, k): Fraction(1) for p in range(-9, 10) for k in range(-9, 10)}
    point = {k: Fraction(v) for k, v in
             dict(a=0, b=3, bp=3, rho=1, p=1, k=0, m=2).items()}
    assert equation_residual(eq, table, point) == 2


def test_equation_residual_solved_table_is_zero():
    # with both slopes equal and rho = 0 every constant table is a solution
    eq = build_functional_equation()
    table = {(p, k): Fraction(5) for p in range(-9, 10) for k in range(-9, 10)}
    rng = random.Random(20240822)
    for _ in range(25):
        point = random_point(rng)
        point["bp"] = point["b"]
        point["rho"] = Fraction(0)
        point["p"] = Fraction(rng.randint(-4, 4))
        point["k"] = Fraction(rng.randint(-4, 4))
        point["m"] = Fraction(rng.randint(-4, 4))
        assert equation_residual(eq, table, point) == 0


def test_equation_residual_missing_entry():
    eq = build_functional_equation()
    point = {k: Fraction(v) for k, v in
             dict(a=0, b=0, bp=0, rho=0, p=1, k=0, m=1).items()}
    with pytest.raises(ParameterError):
        equation_residual(eq, {(Fraction(1), Fraction(0)): Fraction(1)}, point)
    with pytest.raises(ParameterError):
        equation_residual(eq, {}, {"a": Fraction(0)})


def test_constant_residual_shape():
    eq = build_functional_equation()
    assert constant_residual(eq) == C * M * (BP - B + RHO)


def test_check_constant_solution_law():
    values = [Fraction(n, d) for n in range(-2, 3) for d in (1, 2)]
    for rho in values:
        for c in values:
            assert check_constant_solution(rho, c) == (rho == 0 or c == 0)


# -- system transcription -----------------------------------------------------------


def test_system_rows_vanish_on_degenerate_point():
    point = {k: Fraction(v) for k, v in
             dict(a=0, b=0, bp=0, rho=0, p=1, k=0, m=1).items()}
    rows = build_linear_system()
    values = [tuple(entry.evaluate(point) for entry in row) for row in rows]
    assert values[2] == (0, 0, 0)


def test_system_row3_independent_arithmetic():
    # same entries recomputed with plain Fraction arithmetic, no polynomials
    a, b, bp, rho, p, k, m = (Fraction(x) for x in (1, 2, 3, 1, 2, 1, 1))
    e31 = (a + k - b * m) * (a + k + p - m + bp * m)
    e32 = -(
        (a + k + p - bp * m) * (a + k + p - m + bp * m)
        - (p + m * rho) * (-m + p - m * rho)
        + (a + k + b * m) * (a + k + m - b * m)
    )
    e33 = (a + k + b * m) * (a + k + p + m - bp * m)
    point = {"a": a, "b": b, "bp": bp, "rho": rho, "p": p, "k": k, "m": m}
    row3 = build_linear_system()[2]
    assert tuple(entry.evaluate(point) for entry in row3) == (e31, e32, e33)


def test_system_rows_annihilate_constants_at_special_slopes():
    # at rho = 0 with equal slopes, (1, 1, 1) lies in the kernel identically
    for row in build_linear_system():
        total = row[0] + row[1] + row[2]
        assert total.substitute({"bp": B, "rho": 0}).is_zero()


def test_row_symmetry_under_window_reflection():
    # negating m swaps the two outer rows and reverses the columns
    rows = build_linear_system()
    flip = {"m": -M}
    for j in range(3):
        assert rows[0][j].substitute(flip) == rows[1][2 - j]


# -- determinant and factorisation ---------------------------------------------------


# sha256 of canonical_string(compute_delta()) as computed with the Fraction
# schoolbook product, before products moved to packed integer keys
DELTA_SHA256 = "b531e2beaf1a796960325c84d63f5b7f3cc337ff8a478a07c5905b813f112950"


def test_delta_matches_frozen_value():
    delta = compute_delta()
    text = canonical_string(delta)
    assert text == (DATA_DIR / "delta.txt").read_text().strip()
    assert len(delta.terms()) == 187
    assert hashlib.sha256(text.encode()).hexdigest() == DELTA_SHA256


def test_delta_matches_numeric_determinant_of_the_system():
    # independent oracle: evaluate the nine entries first, then take a plain
    # 3x3 Fraction determinant, so no polynomial product is involved
    rng = random.Random(20261018)
    rows = build_linear_system()
    delta = compute_delta()
    for _ in range(60):
        point = random_point(rng)
        (x00, x01, x02), (x10, x11, x12), (x20, x21, x22) = [
            [entry.evaluate(point) for entry in row] for row in rows
        ]
        numeric = (
            x00 * x11 * x22 + x01 * x12 * x20 + x02 * x10 * x21
            - x02 * x11 * x20 - x00 * x12 * x21 - x01 * x10 * x22
        )
        assert delta.evaluate(point) == numeric


def test_delta_vanishes_on_linear_factor_loci():
    rng = random.Random(20240823)
    delta = compute_delta()
    for _ in range(200):
        point = random_point(rng)
        point["bp"] = point["b"] - point["rho"]
        assert linear_factor_1().evaluate(point) == 0
        assert delta.evaluate(point) == 0
    for _ in range(200):
        point = random_point(rng)
        point["bp"] = 1 + point["b"] - point["rho"]
        assert linear_factor_2().evaluate(point) == 0
        assert delta.evaluate(point) == 0
    for _ in range(50):
        point = random_point(rng)
        point["m"] = Fraction(0)
        assert delta.evaluate(point) == 0


def test_certificate_divisibility_and_shape():
    cert = certify_factorization()
    assert cert.divisible
    assert cert.shape_ok


def bucketed_coefficients(quotient):
    """(C1, C2, C3) by bucketing the quotient's terms on their (a, p, k, m) exponents."""
    slot = {name: i for i, name in enumerate(ALPHABET)}
    buckets = {}
    for exps, coeff in quotient.terms().items():
        if exps[slot["n"]] or exps[slot["c"]]:
            return False, (MultiPoly.zero(),) * 3
        outer = tuple(exps[slot[name]] for name in ("a", "p", "k", "m"))
        inner = list(exps)
        for name in ("a", "p", "k", "m"):
            inner[slot[name]] = 0
        buckets.setdefault(outer, {})[tuple(inner)] = coeff
    allowed = {(0, 0, 0, 2), (1, 1, 0, 0), (0, 1, 1, 0), (0, 2, 0, 0)}
    if not set(buckets) <= allowed:
        return False, (MultiPoly.zero(),) * 3
    c1 = MultiPoly(buckets.get((0, 0, 0, 2), {}))
    c2_from_a = MultiPoly(buckets.get((1, 1, 0, 0), {}))
    c2_from_k = MultiPoly(buckets.get((0, 1, 1, 0), {}))
    c3 = MultiPoly(buckets.get((0, 2, 0, 0), {}))
    if c2_from_a != c2_from_k:
        return False, (MultiPoly.zero(),) * 3
    return True, (c1, c2_from_a, c3)


@pytest.mark.parametrize(
    "mutation",
    [MultiPoly.zero(), A * M, MultiPoly.var("n") * P**2, A * P * B, P**3],
    ids=["none", "a*m", "n*p^2", "a*p-unlike-k*p", "p^3"],
)
def test_coefficient_extraction_equals_bucketing(monkeypatch, mutation):
    _, quotient = classify._reduced_quotient()
    mutated = quotient + mutation
    monkeypatch.setattr(classify, "_reduced_quotient", lambda: (True, mutated))
    extracted = classify._quadratic_coefficients.__wrapped__()
    assert extracted == bucketed_coefficients(mutated)
    assert extracted[0] == mutation.is_zero()


def test_certificate_first_two_coefficients_match_reference():
    cert = certify_factorization()
    assert cert.differences[0].is_zero()
    assert cert.differences[1].is_zero()
    assert cert.coefficients[0] == reference_delta1()
    assert cert.coefficients[1] == reference_delta2()


def test_certificate_third_coefficient_difference_is_frozen():
    cert = certify_factorization()
    assert not cert.differences[2].is_zero()
    assert cert.differences[2] == recorded_delta3_difference()
    assert cert.coefficients[2] == reference_delta3() + recorded_delta3_difference()
    assert not cert.matches_reference()


def test_certificate_difference_is_deterministic():
    first = canonical_string(certify_factorization().differences[2])
    second = canonical_string(certify_factorization().differences[2])
    assert first == second
    assert first == (DATA_DIR / "delta3_difference.txt").read_text().strip()


def test_certificate_coefficients_match_frozen_values():
    cert = certify_factorization()
    assert cert.coefficients[0] == load_golden("delta1.txt")
    assert cert.coefficients[1] == load_golden("delta2.txt")
    assert cert.coefficients[2] == load_golden("delta3.txt")


def test_comparison_detects_mutated_reference():
    cert = certify_factorization()
    assert cert.coefficients[1] - (reference_delta2() + 1) == MultiPoly.const(-1)


def test_recorded_difference_vanishes_on_solution_relations():
    diff = recorded_delta3_difference()
    assert diff.substitute({"bp": B}).is_zero()
    assert diff.substitute({"bp": 1 - B}).is_zero()


def test_s0_specialisation_divisibility():
    computed = specialize_s0().computed
    for divisor in (RHO - 1, RHO, 1 + RHO, M**6):
        _, rem = poly_divrem(computed, divisor)
        assert rem.is_zero()


def test_s0_specialisation_is_minus_reference():
    cert = specialize_s0()
    assert not cert.matches_reference()
    assert (cert.computed + reference_s0()).is_zero()
    assert cert.difference == -2 * reference_s0()
    assert canonical_string(cert.computed) == (
        DATA_DIR / "s0_specialization.txt"
    ).read_text().strip()


def test_criterion_3_summary_checks_the_recorded_sign(monkeypatch):
    result = suite.criterion_3()
    assert result.summary == "specialisation is exactly -1 times the reference display"
    monkeypatch.setattr(suite, "recorded_s0_sign", lambda: 1)
    other = suite.criterion_3()
    assert other.summary == "specialisation is not the recorded multiple of the reference display"
    assert (other.passed, other.details) == (result.passed, result.details)


# -- vanishing conditions -------------------------------------------------------------


def test_condition_pair_examples():
    assert condition_pair_holds(0, Fraction(1, 3), Fraction(1, 3)) == (True, True)
    assert condition_pair_holds(HALF, 0, HALF) == (True, True)
    assert condition_pair_holds(5, 0, 0) == (False, False)


def test_condition_pair_swap_symmetry():
    rng = random.Random(20240824)
    for _ in range(30):
        rho = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        bp = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        first, second = condition_pair_holds(rho, b, bp)
        swapped = condition_pair_holds(rho, bp, b)
        assert swapped == (second, first)


# -- grid scan --------------------------------------------------------------------------


def test_grid_values():
    grid = grid_values(4, 4)
    assert len(grid) == 23
    assert Fraction(3, 2) in grid and Fraction(-4) in grid
    assert Fraction(5, 2) not in grid
    assert grid == sorted(grid)
    assert grid_values(1, 1) == [Fraction(-1), Fraction(0), Fraction(1)]
    with pytest.raises(ParameterError):
        grid_values(-1, 1)
    with pytest.raises(ParameterError):
        grid_values(2, 0)


def test_enumerate_rejects_other_s():
    with pytest.raises(ParameterError):
        enumerate_cases(Fraction(1, 3), 2, 2)


def _case_index(result):
    return {
        (case.rho, case.relation): case.points for case in result.cases
    }


def test_half_scan_full_bounds():
    result = enumerate_cases(HALF, 4, 4)
    index = _case_index(result)
    pt = Fraction
    assert set(index) == {
        (pt(-1, 2), "points"),
        (pt(0), "bp=b"),
        (pt(0), "b+bp=1"),
        (pt(1, 2), "bp=b+1/2"),
        (pt(1, 2), "bp=b-1/2"),
        (pt(1, 2), "points"),
        (pt(1), "bp=b"),
        (pt(1), "points"),
        (pt(3, 2), "points"),
        (pt(2), "points"),
    }
    assert index[(pt(3, 2), "points")] == (
        (pt(0), pt(1, 2)),
        (pt(1, 2), pt(0)),
        (pt(1, 2), pt(1)),
        (pt(1), pt(1, 2)),
    )
    assert index[(pt(2), "points")] == (
        (pt(0), pt(0)),
        (pt(0), pt(1)),
        (pt(1), pt(0)),
        (pt(1), pt(1)),
    )
    assert index[(pt(-1, 2), "points")] == (
        (pt(0), pt(1, 2)),
        (pt(1, 2), pt(0)),
        (pt(1, 2), pt(1)),
        (pt(1), pt(1, 2)),
    )
    assert index[(pt(1, 2), "points")] == (
        (pt(-1, 2), pt(1)),
        (pt(0), pt(3, 2)),
        (pt(1), pt(-1, 2)),
        (pt(3, 2), pt(0)),
    )
    assert index[(pt(1), "points")] == ((pt(0), pt(1)), (pt(1), pt(0)))


def test_half_scan_comparison_reports_known_gaps():
    comparison = compare_with_expected(enumerate_cases(HALF, 4, 4))
    assert set(comparison["missing"]) == {
        "rho=3/2: point (b=0, bp=1)",
        "rho=3/2: point (b=1, bp=0)",
    }
    assert "rho=0: family bp=b" in comparison["matched"]
    assert "rho=0: family b+bp=1" in comparison["matched"]
    assert "rho=1: family bp=b" in comparison["extra"]
    assert "rho=1/2: family bp=b+1/2" in comparison["extra"]
    assert comparison["outside_bounds"] == ()


def test_s0_scan_full_bounds_matches_expected():
    result = enumerate_cases(0, 4, 4)
    index = _case_index(result)
    assert set(index) == {
        (Fraction(0), "b free"),
        (Fraction(1), "b free"),
        (Fraction(2), "points"),
    }
    assert index[(Fraction(2), "points")] == (Fraction(0), Fraction(1))
    comparison = compare_with_expected(result)
    assert comparison["missing"] == ()
    assert comparison["extra"] == ()
    assert comparison["outside_bounds"] == ()


def test_small_bounds_report_out_of_range_expectations():
    comparison = compare_with_expected(enumerate_cases(HALF, 1, 1))
    assert len(comparison["outside_bounds"]) == 6
    assert all("rho=3/2" in text for text in comparison["outside_bounds"])
    assert comparison["missing"] == ()

    comparison0 = compare_with_expected(enumerate_cases(0, 1, 1))
    assert set(comparison0["outside_bounds"]) == {
        "rho=2: point b=0",
        "rho=2: point b=1",
    }


def test_scan_hits_grow_with_bounds():
    for s in (Fraction(0), HALF):
        small = set(enumerate_cases(s, 2, 2).hits)
        large = set(enumerate_cases(s, 3, 3).hits)
        assert small <= large


def test_case_sorting_is_stable():
    for s in (Fraction(0), HALF):
        order = [*RELATIONS[s], "points"]
        keys = [(case.rho, order.index(case.relation)) for case in enumerate_cases(s, 4, 4).cases]
        assert keys == sorted(set(keys))
