"""Compatibility system for an extra weight family, and the parameter scan.

A weight module with chains indexed by Z and Z + 1/2 carries slopes b (integer
chain) and bp (shifted chain).  Compatibility of the extra family's action
f(p, k) with the bracket relations yields a linear recurrence; pushing it one
step further gives a 3x3 homogeneous linear system in the window
(f(p, k-m), f(p, k), f(p, k+m)).  Nontrivial solutions force its determinant
to vanish identically in (a, k, p, m), which factors through two linear forms
in (b, bp, rho) and a quadratic form whose coefficients are the delta
polynomials certified against the frozen reference table in golden.py.

The scan enumerates rational parameter choices on a bounded grid and groups
the solutions into one-parameter families and isolated points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Collection, Mapping

from .errors import ParameterError
from .golden import (
    EXPECTED_HALF_FAMILIES,
    EXPECTED_HALF_POINTS,
    EXPECTED_S0_FAMILIES,
    EXPECTED_S0_POINTS,
    recorded_delta3_difference,
    reference_delta1,
    reference_delta2,
    reference_delta3,
    reference_s0,
)
from .poly import _VAR_INDEX, MultiPoly, det3, univariate_gcd, univariate_value
from .rationals import format_rational

_A = MultiPoly.var("a")
_B = MultiPoly.var("b")
_BP = MultiPoly.var("bp")
_RHO = MultiPoly.var("rho")
_P = MultiPoly.var("p")
_K = MultiPoly.var("k")
_M = MultiPoly.var("m")
_C = MultiPoly.var("c")

HALF = Fraction(1, 2)

HALF_RELATIONS = ("bp=b", "b+bp=1", "bp=b+1/2", "bp=b-1/2")

# Each s = 1/2 relation as the line b -> bp.
_RELATION_LINES = {
    "bp=b": lambda b: b,
    "b+bp=1": lambda b: 1 - b,
    "bp=b+1/2": lambda b: b + HALF,
    "bp=b-1/2": lambda b: b - HALF,
}

_RELATION_RANK = {"bp=b": 0, "b+bp=1": 1, "bp=b+1/2": 2, "bp=b-1/2": 3, "b free": 0, "points": 9}


# -- the one-step recurrence -------------------------------------------------------


@dataclass(frozen=True)
class FunctionalEquation:
    """sum of coeff * f(p + dp*m, k + dk*m) over terms ((dp, dk), coeff) = 0."""

    terms: tuple[tuple[tuple[int, int], MultiPoly], ...]

    def argument_shifts(self) -> tuple[tuple[int, int], ...]:
        return tuple(shift for shift, _ in self.terms)


def build_functional_equation() -> FunctionalEquation:
    """Recurrence tying f(p, k), f(p, k+m) and f(p+m, k) together."""
    return FunctionalEquation(
        terms=(
            ((0, 0), _A + _P + _K + _BP * _M),
            ((0, 1), -(_A + _K + _B * _M)),
            ((1, 0), -(_P - _M * _RHO)),
        )
    )


def equation_residual(
    eq: FunctionalEquation,
    table: Mapping[tuple[Fraction, Fraction], Fraction],
    point: Mapping[str, Fraction],
) -> Fraction:
    """Residual of the recurrence at a numeric point, reading f from a table."""
    for name in ("a", "b", "bp", "rho", "p", "k", "m"):
        if name not in point:
            raise ParameterError(f"point is missing a value for {name}")
    p, k, m = point["p"], point["k"], point["m"]
    total = Fraction(0)
    for (dp, dk), coeff in eq.terms:
        args = (p + dp * m, k + dk * m)
        if args not in table:
            raise ParameterError(
                f"table has no entry for f({format_rational(args[0])}, {format_rational(args[1])})"
            )
        total += coeff.evaluate(point) * table[args]
    return total


def constant_residual(eq: FunctionalEquation) -> MultiPoly:
    """Symbolic residual of the constant candidate f = c."""
    total = MultiPoly.zero()
    for _, coeff in eq.terms:
        total = total + coeff
    return _C * total


def check_constant_solution(rho: Fraction | int, c: Fraction | int) -> bool:
    """Does f = c solve the recurrence identically once both slopes agree?"""
    eq = build_functional_equation()
    residual = constant_residual(eq).substitute({"bp": _B})
    residual = residual.substitute({"rho": Fraction(rho), "c": Fraction(c)})
    return residual.is_zero()


# -- the 3x3 system and its determinant --------------------------------------------


def build_linear_system() -> tuple[tuple[MultiPoly, MultiPoly, MultiPoly], ...]:
    """Coefficient matrix on the unknowns (f(p, k-m), f(p, k), f(p, k+m))."""
    a, b, bp, rho, p, k, m = _A, _B, _BP, _RHO, _P, _K, _M
    e11 = (p - 2 * m * rho) * (a + k - m + p + bp * m) * (a + k + p + bp * m) - (
        p - m * rho
    ) * (m + p - m * rho) * (a + k - m + p + 2 * bp * m)
    e12 = -2 * (p - 2 * m * rho) * (a + k - m + b * m) * (a + k + p + bp * m)
    e13 = (p - 2 * m * rho) * (a + k - m + b * m) * (a + k + b * m) + (p - m * rho) * (
        m + p - m * rho
    ) * (a + k - m + 2 * b * m)
    e21 = (a + k + m - 2 * b * m) * (p + m * rho) * (-m + p + m * rho) + (
        p + 2 * m * rho
    ) * (a + k + m - b * m) * (a + k - b * m)
    e22 = -2 * (p + 2 * m * rho) * (a + k + m - b * m) * (a + k + p - bp * m)
    e23 = (p + 2 * m * rho) * (a + k + m + p - bp * m) * (a + k + p - bp * m) - (
        p + m * rho
    ) * (-m + p + m * rho) * (a + k + m + p - 2 * bp * m)
    e31 = (a + k - b * m) * (a + k + p - m + bp * m)
    e32 = -(
        (a + k + p - bp * m) * (a + k + p - m + bp * m)
        - (p + m * rho) * (-m + p - m * rho)
        + (a + k + b * m) * (a + k + m - b * m)
    )
    e33 = (a + k + b * m) * (a + k + p + m - bp * m)
    return ((e11, e12, e13), (e21, e22, e23), (e31, e32, e33))


@lru_cache(maxsize=1)
def compute_delta() -> MultiPoly:
    """Determinant of the 3x3 system, fully expanded."""
    return det3(build_linear_system())


def linear_factor_1() -> MultiPoly:
    return _BP - _B + _RHO


def linear_factor_2() -> MultiPoly:
    return 1 + _B - _BP - _RHO


@dataclass(frozen=True)
class FactorizationCertificate:
    """Outcome of dividing the determinant by its claimed factors.

    differences holds computed-minus-reference for the three quadratic-form
    coefficients; an entry of zero means exact agreement with the table.
    """

    divisible: bool
    shape_ok: bool
    coefficients: tuple[MultiPoly, MultiPoly, MultiPoly]
    differences: tuple[MultiPoly, MultiPoly, MultiPoly]

    def matches_reference(self) -> bool:
        return all(d.is_zero() for d in self.differences)


@lru_cache(maxsize=1)
def _reduced_quotient() -> tuple[bool, MultiPoly]:
    """(all divisions exact, determinant / (L1 * L2 * m^6))."""
    quotient, rem1 = compute_delta().divrem(linear_factor_1())
    quotient, rem2 = quotient.divrem(linear_factor_2())
    quotient, rem3 = quotient.divrem(_M**6)
    exact = rem1.is_zero() and rem2.is_zero() and rem3.is_zero()
    return exact, quotient


@lru_cache(maxsize=1)
def _quadratic_coefficients() -> tuple[bool, tuple[MultiPoly, MultiPoly, MultiPoly]]:
    """Extract (C1, C2, C3) with quotient = C1 m^2 + C2 (a+k) p + C3 p^2."""
    _, quotient = _reduced_quotient()
    buckets: dict[tuple[int, int, int, int], dict[tuple[int, ...], Fraction]] = {}
    for exps, coeff in quotient.terms().items():
        if exps[_VAR_INDEX["n"]] or exps[_VAR_INDEX["c"]]:
            return False, (MultiPoly.zero(),) * 3
        outer = tuple(exps[_VAR_INDEX[name]] for name in ("a", "p", "k", "m"))
        inner = list(exps)
        for name in ("a", "p", "k", "m"):
            inner[_VAR_INDEX[name]] = 0
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


def certify_factorization() -> FactorizationCertificate:
    """Divide out the linear factors and m^6, then compare with the reference."""
    divisible, _ = _reduced_quotient()
    shape_ok, (c1, c2, c3) = _quadratic_coefficients()
    references = (reference_delta1(), reference_delta2(), reference_delta3())
    differences = tuple(comp - ref for comp, ref in zip((c1, c2, c3), references))
    return FactorizationCertificate(
        divisible=divisible,
        shape_ok=shape_ok,
        coefficients=(c1, c2, c3),
        differences=differences,
    )


@dataclass(frozen=True)
class S0Certificate:
    """Comparison of the bp = b specialisation against the reference display."""

    computed: MultiPoly
    difference: MultiPoly

    def matches_reference(self) -> bool:
        return self.difference.is_zero()


@lru_cache(maxsize=1)
def specialize_s0() -> S0Certificate:
    computed = compute_delta().substitute({"bp": _B})
    return S0Certificate(computed=computed, difference=computed - reference_s0())


# -- vanishing conditions -----------------------------------------------------------


def _coefficients() -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(C1, C2, C3) of the quadratic form; vanishing cannot be tested without them."""
    shape_ok, coefficients = _quadratic_coefficients()
    if not shape_ok:
        raise ParameterError("quadratic shape extraction failed; cannot test vanishing")
    return coefficients


@lru_cache(maxsize=65536)
def _vanishes_at(rho: Fraction, b: Fraction, bp: Fraction) -> bool:
    """Is the determinant identically zero in (a, k, p, m) at these parameters?

    The point oracle: the scan decides whole grids with _vanishing_locus and
    _diagonal_locus instead.
    """
    point = {"b": b, "bp": bp, "rho": rho}
    if linear_factor_1().evaluate(point) == 0 or linear_factor_2().evaluate(point) == 0:
        return True
    return all(coeff.evaluate(point) == 0 for coeff in _coefficients())


def condition_pair_holds(
    rho: Fraction | int, b: Fraction | int, bp: Fraction | int
) -> tuple[bool, bool]:
    """Vanishing condition in the given slope order and with the slopes swapped."""
    rho, b, bp = Fraction(rho), Fraction(b), Fraction(bp)
    return (_vanishes_at(rho, b, bp), _vanishes_at(rho, bp, b))


# -- grid scan ------------------------------------------------------------------------


# Largest accepted max_num and max_den.  The s = 1/2 scan takes about G^2
# small gcds for G grid values; at 16/16 (G = 319) the CLI run takes about
# 17 s on a 2-vCPU Xeon, and the cost grows as the fourth power of the bound.
MAX_GRID_BOUND = 16


def grid_values(max_num: int, max_den: int) -> list[Fraction]:
    """Reduced rationals with numerator and denominator within the bounds."""
    if max_num < 0 or max_den < 1:
        raise ParameterError("grid bounds must satisfy max_num >= 0 and max_den >= 1")
    if max_num > MAX_GRID_BOUND or max_den > MAX_GRID_BOUND:
        raise ParameterError(f"grid bounds must be at most {MAX_GRID_BOUND}")
    values = {
        Fraction(n, d)
        for n in range(-max_num, max_num + 1)
        for d in range(1, max_den + 1)
    }
    return sorted(v for v in values if abs(v.numerator) <= max_num and v.denominator <= max_den)


@dataclass(frozen=True)
class ClassificationCase:
    """One scan outcome row: a family along a relation, or isolated points."""

    rho: Fraction
    relation: str
    points: tuple
    satisfied_by: tuple

    def sort_key(self) -> tuple:
        return (self.rho, _RELATION_RANK[self.relation], self.points)


@dataclass(frozen=True)
class ScanResult:
    s: Fraction
    max_num: int
    max_den: int
    cases: tuple[ClassificationCase, ...]
    hits: tuple


def _rows_in_bp(poly: MultiPoly) -> list[list[int]]:
    """A polynomial in (b, bp) as integer coefficient lists in b, one per power of bp.

    The polynomial is scaled by the lcm of its denominators first, which keeps
    its roots.
    """
    rows = [[0] * (poly.degree_in("b") + 1) for _ in range(poly.degree_in("bp") + 1)]
    for coeff, eb, ebp in poly.integer_rows(("b", "bp"))[0]:
        rows[ebp][eb] = coeff
    return rows


def _vanishing_locus(rho: Fraction, grid: list[Fraction]) -> set[tuple[Fraction, Fraction]]:
    """Grid pairs (b, bp) at which the determinant vanishes identically.

    That is L1 = 0, L2 = 0, or C1 = C2 = C3 = 0.  With rho and b fixed the
    C's are univariate in bp, and their common roots are the roots of their gcd.
    """
    on_grid = set(grid)
    specialized = [_rows_in_bp(c.substitute({"rho": rho})) for c in _coefficients()]
    degree = max((len(row) for rows in specialized for row in rows), default=1) - 1
    locus = set()
    for b in grid:
        # d^degree times each C at b = n/d, with integer coefficients in bp
        n, d = b.numerator, b.denominator
        powers = [n**i * d ** (degree - i) for i in range(degree + 1)]
        common = univariate_gcd(
            *([sum(map(mul, row, powers)) for row in rows] for rows in specialized)
        )
        if common != [1]:  # the zero gcd vanishes at every bp
            locus.update((b, bp) for bp in grid if not univariate_value(common, bp))
        for bp in (b - rho, b + 1 - rho):
            if bp in on_grid:
                locus.add((b, bp))
    return locus


def _diagonal_locus(rho: Fraction, grid: list[Fraction]) -> set[Fraction]:
    """Grid values b at which the determinant vanishes identically with bp = b.

    On the diagonal L1 = rho and L2 = 1 - rho, so rho in {0, 1} frees b;
    otherwise the hits are the grid roots of gcd(C1, C2, C3) at bp = b.
    """
    if rho in (0, 1):
        return set(grid)
    # each C at bp = b is one row in b, or no row when it vanishes there
    on_diagonal = [c.substitute({"rho": rho, "bp": _B}) for c in _coefficients()]
    common = univariate_gcd(*(row for c in on_diagonal for row in _rows_in_bp(c)))
    return {b for b in grid if not univariate_value(common, b)}


def _line(relation: str, grid: Collection[Fraction]) -> set[tuple[Fraction, Fraction]]:
    """Grid pairs on one s = 1/2 relation."""
    on_grid = set(grid)
    line = _RELATION_LINES[relation]
    return {(b, line(b)) for b in grid if line(b) in on_grid}


def enumerate_cases(s: Fraction | int, max_num: int, max_den: int) -> ScanResult:
    """Scan the rational grid for parameters meeting the vanishing conditions."""
    s = Fraction(s)
    grid = grid_values(max_num, max_den)
    rho_grid = [r for r in grid if r != -1]
    cases: list[ClassificationCase] = []
    hits: list[tuple] = []
    if s == HALF:
        for rho in rho_grid:
            locus = _vanishing_locus(rho, grid)
            # the vanishing condition must hold in both slope orders
            rho_hits = {(b, bp) for (b, bp) in locus if (bp, b) in locus}
            hits.extend((rho, b, bp) for (b, bp) in sorted(rho_hits))
            covered: set[tuple[Fraction, Fraction]] = set()
            for relation in HALF_RELATIONS:
                on_line = _line(relation, grid)
                if on_line and on_line <= rho_hits:
                    cases.append(
                        ClassificationCase(
                            rho=rho,
                            relation=relation,
                            points=(),
                            satisfied_by=tuple(sorted(on_line)),
                        )
                    )
                    covered |= on_line
            leftover = sorted(rho_hits - covered)
            if leftover:
                cases.append(
                    ClassificationCase(
                        rho=rho,
                        relation="points",
                        points=tuple(leftover),
                        satisfied_by=tuple(leftover),
                    )
                )
    elif s == 0:
        for rho in rho_grid:
            rho_hits = _diagonal_locus(rho, grid)
            hits.extend((rho, b) for b in sorted(rho_hits))
            if rho_hits == set(grid):
                cases.append(
                    ClassificationCase(
                        rho=rho,
                        relation="b free",
                        points=(),
                        satisfied_by=tuple(sorted(rho_hits)),
                    )
                )
            elif rho_hits:
                ordered = tuple(sorted(rho_hits))
                cases.append(
                    ClassificationCase(
                        rho=rho, relation="points", points=ordered, satisfied_by=ordered
                    )
                )
    else:
        raise ParameterError("the scan is defined for s = 0 and s = 1/2 only")
    cases.sort(key=ClassificationCase.sort_key)
    return ScanResult(
        s=s, max_num=max_num, max_den=max_den, cases=tuple(cases), hits=tuple(hits)
    )


# -- comparison against the expected outcome ------------------------------------------


def _family_text(rho: Fraction, relation: str) -> str:
    return f"rho={format_rational(rho)}: family {relation}"


def _point_text(s: Fraction, rho: Fraction, point) -> str:
    if s == HALF:
        b, bp = point
        return f"rho={format_rational(rho)}: point (b={format_rational(b)}, bp={format_rational(bp)})"
    return f"rho={format_rational(rho)}: point b={format_rational(point)}"


def compare_with_expected(result: ScanResult) -> dict[str, tuple[str, ...]]:
    """Match scan cases against the frozen expected list, bounds-aware."""
    if result.s == HALF:
        expected_families = EXPECTED_HALF_FAMILIES
        expected_points = EXPECTED_HALF_POINTS
    elif result.s == 0:
        expected_families = EXPECTED_S0_FAMILIES
        expected_points = EXPECTED_S0_POINTS
    else:
        raise ParameterError("the scan is defined for s = 0 and s = 1/2 only")
    grid = set(grid_values(result.max_num, result.max_den))
    rho_grid = {r for r in grid if r != -1}

    computed_families = {
        (case.rho, case.relation) for case in result.cases if case.relation != "points"
    }
    computed_points = {
        (case.rho, point)
        for case in result.cases
        if case.relation == "points"
        for point in case.points
    }
    satisfied = {}
    for case in result.cases:
        satisfied.setdefault(case.rho, set()).update(case.satisfied_by)

    matched, missing, outside = [], [], []
    for rho, relation in expected_families:
        if result.s == HALF:
            in_bounds = rho in rho_grid and bool(_line(relation, grid))
        else:
            in_bounds = rho in rho_grid
        if not in_bounds:
            outside.append(_family_text(rho, relation))
        elif (rho, relation) in computed_families:
            matched.append(_family_text(rho, relation))
        else:
            missing.append(_family_text(rho, relation))
    for rho, point in expected_points:
        coords = point if result.s == HALF else (point,)
        if rho not in rho_grid or any(x not in grid for x in coords):
            outside.append(_point_text(result.s, rho, point))
        elif point in satisfied.get(rho, set()) or (rho, point) in computed_points:
            matched.append(_point_text(result.s, rho, point))
        else:
            missing.append(_point_text(result.s, rho, point))

    expected_family_set = set(expected_families)
    expected_point_set = set(expected_points)
    extra = []
    for rho, relation in sorted(computed_families, key=lambda t: (t[0], _RELATION_RANK[t[1]])):
        if (rho, relation) not in expected_family_set:
            extra.append(_family_text(rho, relation))
    for rho, point in sorted(computed_points):
        if (rho, point) in expected_point_set:
            continue
        on_expected_family = False
        for erho, erel in expected_families:
            if erho != rho:
                continue
            if result.s == 0 and erel == "b free":
                on_expected_family = True
            elif result.s == HALF and point[1] == _RELATION_LINES[erel](point[0]):
                on_expected_family = True
        if not on_expected_family:
            extra.append(_point_text(result.s, rho, point))

    return {
        "matched": tuple(matched),
        "missing": tuple(missing),
        "extra": tuple(extra),
        "outside_bounds": tuple(outside),
    }
