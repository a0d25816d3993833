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
from math import lcm
from operator import mul
from typing import Mapping

from .errors import ParameterError
from .golden import (
    EXPECTED_HALF_FAMILIES,
    EXPECTED_HALF_POINTS,
    EXPECTED_S0_FAMILIES,
    EXPECTED_S0_POINTS,
    reference_delta1,
    reference_delta2,
    reference_delta3,
    reference_s0,
)
from .poly import MultiPoly, det3, univariate_gcd
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

# For each scanned slope, its relations in case order, each as the line b -> bp.
# The s = 0 scan runs on the diagonal bp = b, and its one family frees b there.
RELATIONS = {
    HALF: {
        "bp=b": lambda b: b,
        "b+bp=1": lambda b: 1 - b,
        "bp=b+1/2": lambda b: b + HALF,
        "bp=b-1/2": lambda b: b - HALF,
    },
    Fraction(0): {"b free": lambda b: b},
}

_EXPECTED = {
    HALF: (EXPECTED_HALF_FAMILIES, EXPECTED_HALF_POINTS),
    Fraction(0): (EXPECTED_S0_FAMILIES, EXPECTED_S0_POINTS),
}


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
    c1 = quotient.substitute({"a": 0, "k": 0, "p": 0, "m": 1})
    c3 = quotient.substitute({"a": 0, "k": 0, "m": 0, "p": 1})
    c2 = quotient.substitute({"a": 1, "p": 1, "k": 0, "m": 0}) - c3
    # the substitutions read the right coefficients only if the shape holds exactly
    if quotient != c1 * _M**2 + c2 * (_A + _K) * _P + c3 * _P**2 or any(
        set(c.variables()) - {"b", "bp", "rho"} for c in (c1, c2, c3)
    ):
        return False, (MultiPoly.zero(),) * 3
    return True, (c1, c2, c3)


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

    The point oracle: the scan decides whole grid lines with _locus instead.
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
# small gcds for G grid values, and G grows about as the square of the bound;
# at 16/16 (G = 319) the CLI run takes about 6 s on a 2-vCPU Xeon.
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


@dataclass(frozen=True)
class ScanResult:
    s: Fraction
    max_num: int
    max_den: int
    cases: tuple[ClassificationCase, ...]
    hits: tuple


def _grid_roots(polys: list[list[int]], grid: list[Fraction]) -> list[Fraction]:
    """Grid values at which every polynomial (coefficients from the constant term up) vanishes.

    These are the grid roots of their gcd: every value when it is zero, none
    when it is 1.
    """
    common = univariate_gcd(*polys)
    if common == [1]:
        return []
    scale = lcm(*(c.denominator for c in common))
    ints = [c.numerator * (scale // c.denominator) for c in common]
    # d^degree times the gcd at x = n/d, in ints
    degree = len(ints) - 1
    return [
        x for x in grid
        if not sum(c * x.numerator**i * x.denominator ** (degree - i) for i, c in enumerate(ints))
    ]


def _locus(rho: Fraction, s: Fraction, grid: list[Fraction]) -> set[tuple[Fraction, Fraction]]:
    """Grid pairs (b, bp) at which the determinant vanishes identically in both slope orders.

    That is L1 = 0, L2 = 0, or C1 = C2 = C3 = 0.  Specialised at rho, each C
    is one integer table in (b, bp); restricted to a line it is univariate,
    and the common roots there are the grid roots of a gcd.  s = 1/2 scans
    the lines b = n/d, one per grid value; s = 0 scans the diagonal bp = b.
    """
    tables = [c.substitute({"rho": rho}).integer_rows(("b", "bp"))[0] for c in _coefficients()]
    size = 1 + max((e for table in tables for _, *exps in table for e in exps), default=0)
    locus = set()
    if s == 0:
        # on bp = b the coefficient of b^e sums the entries with i + j = e,
        # and L1 = rho, L2 = 1 - rho
        diagonal = [[0] * (2 * size - 1) for _ in tables]
        for coeffs, table in zip(diagonal, tables):
            for c, i, j in table:
                coeffs[i + j] += c
        locus = {(b, b) for b in (grid if rho in (0, 1) else _grid_roots(diagonal, grid))}
    else:
        # each C as rows of b-coefficients, one row per power of bp
        matrices = [[[0] * size for _ in range(size)] for _ in tables]
        for matrix, table in zip(matrices, tables):
            for c, i, j in table:
                matrix[j][i] = c
        on_grid = set(grid)
        for b in grid:
            # d^(size - 1) times each C at b = n/d, with integer coefficients in bp
            n, d = b.numerator, b.denominator
            powers = [n**i * d ** (size - 1 - i) for i in range(size)]
            on_line = [[sum(map(mul, row, powers)) for row in matrix] for matrix in matrices]
            locus.update((b, bp) for bp in _grid_roots(on_line, grid))
            locus.update((b, bp) for bp in (b - rho, b + 1 - rho) if bp in on_grid)
    return {(b, bp) for b, bp in locus if (bp, b) in locus}


def _shown(s: Fraction, pair: tuple[Fraction, Fraction]):
    """A scan pair (b, bp) as slope s shows it: b alone for s = 0, where bp = b."""
    return pair[0] if s == 0 else pair


def _as_pair(s: Fraction, point) -> tuple[Fraction, Fraction]:
    """The scan pair (b, bp) of a point shown for slope s."""
    return (point, point) if s == 0 else point


def enumerate_cases(s: Fraction | int, max_num: int, max_den: int) -> ScanResult:
    """Scan the rational grid for parameters meeting the vanishing conditions."""
    s = Fraction(s)
    grid = grid_values(max_num, max_den)
    if s not in RELATIONS:
        raise ParameterError("the scan is defined for s = 0 and s = 1/2 only")
    on_grid = set(grid)
    lines = {
        relation: {(b, line(b)) for b in grid if line(b) in on_grid}
        for relation, line in RELATIONS[s].items()
    }
    cases: list[ClassificationCase] = []
    hits: list[tuple] = []
    for rho in grid:
        if rho == -1:
            continue
        rho_hits = _locus(rho, s, grid)
        hits.extend((rho, *pair[: 1 if s == 0 else 2]) for pair in sorted(rho_hits))
        covered: set[tuple[Fraction, Fraction]] = set()
        for relation, on_line in lines.items():
            if on_line and on_line <= rho_hits:
                cases.append(
                    ClassificationCase(
                        rho=rho,
                        relation=relation,
                        points=(),
                        satisfied_by=tuple(_shown(s, pair) for pair in sorted(on_line)),
                    )
                )
                covered |= on_line
        leftover = tuple(_shown(s, pair) for pair in sorted(rho_hits - covered))
        if leftover:
            cases.append(
                ClassificationCase(rho=rho, relation="points", points=leftover, satisfied_by=leftover)
            )
    return ScanResult(
        s=s, max_num=max_num, max_den=max_den, cases=tuple(cases), hits=tuple(hits)
    )


# -- comparison against the expected outcome ------------------------------------------


def _family_text(rho: Fraction, relation: str) -> str:
    return f"rho={format_rational(rho)}: family {relation}"


def _point_text(s: Fraction, rho: Fraction, point) -> str:
    if s == 0:
        return f"rho={format_rational(rho)}: point b={format_rational(point)}"
    b, bp = point
    return f"rho={format_rational(rho)}: point (b={format_rational(b)}, bp={format_rational(bp)})"


def compare_with_expected(result: ScanResult) -> dict[str, tuple[str, ...]]:
    """Match scan cases against the frozen expected list, bounds-aware."""
    if result.s not in RELATIONS:
        raise ParameterError("the scan is defined for s = 0 and s = 1/2 only")
    s, lines = result.s, RELATIONS[result.s]
    expected_families, expected_points = _EXPECTED[s]
    grid = grid_values(result.max_num, result.max_den)
    on_grid = set(grid)
    rho_grid = on_grid - {-1}

    satisfied = {}
    for case in result.cases:
        satisfied.setdefault(case.rho, set()).update(case.satisfied_by)
    families = [(case.rho, case.relation) for case in result.cases if case.relation != "points"]
    points = [
        (case.rho, point)
        for case in result.cases
        if case.relation == "points"
        for point in case.points
    ]

    matched, missing, outside = [], [], []
    for rho, relation in expected_families:
        if rho not in rho_grid or not any(lines[relation](b) in on_grid for b in grid):
            outside.append(_family_text(rho, relation))
        elif (rho, relation) in families:
            matched.append(_family_text(rho, relation))
        else:
            missing.append(_family_text(rho, relation))
    for rho, point in expected_points:
        if rho not in rho_grid or not on_grid.issuperset(_as_pair(s, point)):
            outside.append(_point_text(s, rho, point))
        elif point in satisfied.get(rho, set()) or (rho, point) in points:
            matched.append(_point_text(s, rho, point))
        else:
            missing.append(_point_text(s, rho, point))

    extra = [_family_text(*family) for family in families if family not in expected_families]
    for rho, point in points:
        b, bp = _as_pair(s, point)
        on_expected_family = any(
            erho == rho and bp == lines[erel](b) for erho, erel in expected_families
        )
        if (rho, point) not in expected_points and not on_expected_family:
            extra.append(_point_text(s, rho, point))

    return {
        "matched": tuple(matched),
        "missing": tuple(missing),
        "extra": tuple(extra),
        "outside_bounds": tuple(outside),
    }
