"""Graded Lie algebras given by structure constants, with window checks.

Supported algebras (over exact rationals):

  Vir      one family L_n (n in Z), [L_m, L_n] = (n-m) L_{m+n}
  W        L plus a family Y_p (p in Z+s), [L_m, Y_p] = (p - m*rho) Y_{m+p},
           [Y_p, Y_q] = 0; parameters s in {0, 1/2} and rho != -1
  SV       L, Y, M with [L_m, Y_p] = (p - m/2) Y_{p+m}, [L_m, M_n] = n M_{n+m},
           [Y_p, Y_q] = (q - p) M_{q+p}, [Y, M] = [M, M] = 0; s in {0, 1/2}
  D        L, Y, M (all integer-graded) with [L_m, Y_n] = (n - (rho+1)/2 m) Y_{n+m},
           [L_m, M_n] = (n - rho*m) M_{n+m}, [Y_n, Y_m] = (m - n) M_{n+m},
           [Y, M] = [M, M] = 0; rho not in {0, -1, -3}

Every bracket of basis elements is a multiple of a single basis element, and
every coefficient is a polynomial in the degrees.  The checks exploit both:
each identity is evaluated once per family tuple at symbolic degrees, and the
resulting residual table both certifies the identity and lists its violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from math import ceil, floor, prod

from .errors import ParameterError
from .names import ALGEBRA_NAMES, COCYCLE_NAMES
from .poly import Combination, MultiPoly
from .rationals import format_rational
from .reports import CheckReport, Violation

FAMILY_ORDER = {"L": 0, "Y": 1, "M": 2}


@dataclass(frozen=True)
class BasisElement:
    family: str
    degree: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.degree, (int, Fraction, MultiPoly)):
            raise ValueError(f"not an exact degree: {self.degree!r}")

    def __str__(self) -> str:
        return f"{self.family}_{format_rational(self.degree)}"

    def sort_key(self) -> tuple:
        return (FAMILY_ORDER[self.family], self.degree)


class Element(Combination):
    """Finite rational linear combination of basis elements."""

    __slots__ = ()

    _order = staticmethod(BasisElement.sort_key)

    @classmethod
    def from_basis(cls, basis: BasisElement, coeff: Fraction | int = 1) -> "Element":
        return cls({basis: coeff})


@dataclass(frozen=True)
class AlgebraSpec:
    name: str
    s: Fraction
    rho: Fraction | None
    families: tuple[str, ...]

    def label(self) -> str:
        if self.name == "Vir":
            return "Vir"
        if self.name == "W":
            return f"W({format_rational(self.rho)})[{format_rational(self.s)}]"
        if self.name == "SV":
            return f"sv[{format_rational(self.s)}]"
        return f"D({format_rational(self.rho)})"

    def family_offset(self, family: str) -> Fraction:
        """Degree lattice offset: family degrees live in Z + offset."""
        if family == "Y" and self.name in ("W", "SV"):
            return self.s
        return Fraction(0)


def make_algebra(
    name: str,
    rho: Fraction | int | None = None,
    s: Fraction | int = 0,
) -> AlgebraSpec:
    """Validate parameters and build an algebra description."""
    s = Fraction(s)
    rho = Fraction(rho) if rho is not None else None
    if name == "Vir":
        if rho is not None:
            raise ParameterError("Vir takes no rho parameter")
        if s != 0:
            raise ParameterError("Vir requires s = 0")
        return AlgebraSpec("Vir", s, None, ("L",))
    if name == "W":
        if s not in (Fraction(0), Fraction(1, 2)):
            raise ParameterError("W requires s in {0, 1/2}")
        if rho is None:
            raise ParameterError("W requires a rho parameter")
        if rho == -1:
            raise ParameterError("W excludes rho = -1")
        return AlgebraSpec("W", s, rho, ("L", "Y"))
    if name == "SV":
        if s not in (Fraction(0), Fraction(1, 2)):
            raise ParameterError("SV requires s in {0, 1/2}")
        if rho is not None:
            raise ParameterError("SV takes no rho parameter")
        return AlgebraSpec("SV", s, None, ("L", "Y", "M"))
    if name == "D":
        if s != 0:
            raise ParameterError("D requires s = 0")
        if rho is None:
            raise ParameterError("D requires a rho parameter")
        if rho in (Fraction(0), Fraction(-1), Fraction(-3)):
            raise ParameterError("D excludes rho in {0, -1, -3}")
        return AlgebraSpec("D", s, rho, ("L", "Y", "M"))
    raise ParameterError(f"unknown algebra {name!r}; choose from {ALGEBRA_NAMES}")


# -- structure constants -------------------------------------------------------


def struct(alg: AlgebraSpec, x: BasisElement, y: BasisElement):
    """[x, y] as (coefficient, basis element), or None when structurally zero.

    Degrees may be Fractions or MultiPoly; the formulas never branch on them.
    """
    fx, fy = x.family, y.family
    dx, dy = x.degree, y.degree
    if fx == "L" and fy == "L":
        return (dy - dx, BasisElement("L", dx + dy))
    if fx == "L" and fy == "Y":
        return (_l_on_y(alg, dx, dy), BasisElement("Y", dx + dy))
    if fx == "Y" and fy == "L":
        return (-_l_on_y(alg, dy, dx), BasisElement("Y", dx + dy))
    if fx == "Y" and fy == "Y":
        if alg.name in ("SV", "D"):
            return (dy - dx, BasisElement("M", dx + dy))
        return None
    if fx == "L" and fy == "M":
        return (_l_on_m(alg, dx, dy), BasisElement("M", dx + dy))
    if fx == "M" and fy == "L":
        return (-_l_on_m(alg, dy, dx), BasisElement("M", dx + dy))
    # [Y, M], [M, Y], [M, M] all vanish in SV and D
    return None


def _l_on_y(alg: AlgebraSpec, m: Fraction, p: Fraction) -> Fraction:
    if alg.name == "W":
        return p - m * alg.rho
    if alg.name == "SV":
        return p - m / 2
    if alg.name == "D":
        return p - (alg.rho + 1) / 2 * m
    raise ParameterError(f"{alg.label()} has no Y family")


def _l_on_m(alg: AlgebraSpec, m: Fraction, n: Fraction) -> Fraction:
    if alg.name == "SV":
        return n
    if alg.name == "D":
        return n - alg.rho * m
    raise ParameterError(f"{alg.label()} has no M family")


def bracket(alg: AlgebraSpec, x, y) -> Element:
    """Bilinear bracket of elements or basis elements."""
    if isinstance(x, BasisElement):
        x = Element.from_basis(x)
    if isinstance(y, BasisElement):
        y = Element.from_basis(y)
    return Element.bilinear(x, y, partial(struct, alg))


# -- basis enumeration ---------------------------------------------------------


def lattice_points(offset: Fraction, bound: Fraction | int) -> list[Fraction]:
    """All points d of Z + offset with |d| <= bound, ascending."""
    return [z + offset for z in range(ceil(-bound - offset), floor(bound - offset) + 1)]


def basis_degrees(alg: AlgebraSpec, family: str, window: int) -> list[Fraction]:
    """All degrees d of the family with |d| <= window, ascending."""
    return lattice_points(alg.family_offset(family), window)


def basis_elements(alg: AlgebraSpec, window: int) -> list[BasisElement]:
    out = []
    for family in alg.families:
        out.extend(BasisElement(family, d) for d in basis_degrees(alg, family, window))
    return out


# -- window checks --------------------------------------------------------------
#
# One residual table per identity decides antisymmetry, Jacobi and the cocycle
# identity.  Basis elements get degrees p, k, m (integer variables) plus their
# family's lattice offset, and struct evaluates the residual on them once per
# family tuple.  Every term lands on the sum of the input degrees, so the table
# keys a residual by its target family, as integer rows in p, k, m.  An empty
# table certifies the identity for every degree.  Otherwise the table is
# evaluated in ints on the window's tuples; only violations become rationals.

# Largest window a check accepts.  A certified identity costs the same at any
# window; a failing one is listed instance by instance.  At 16 a failing
# Aabc1c2 module axiom takes about 2 s and 90 MB on a 2-vCPU Xeon under
# Python 3.11.
MAX_WINDOW = 16


def validate_window(window: int) -> None:
    """Accept 0 <= window <= MAX_WINDOW; anything else is a ParameterError."""
    if window < 0:
        raise ParameterError("window must be non-negative")
    if window > MAX_WINDOW:
        raise ParameterError(f"window must be at most {MAX_WINDOW}")


def _antisymmetry_residual(alg: AlgebraSpec, x, y) -> dict:
    """[x,y] + [y,x], by target family."""
    acc: dict = {}
    for coeff, basis in filter(None, (struct(alg, x, y), struct(alg, y, x))):
        acc[basis.family] = acc.get(basis.family, 0) + coeff
    return acc


def _jacobi_residual(alg: AlgebraSpec, x, y, z) -> dict:
    """[[x,y],z] + [[y,z],x] + [[z,x],y], by target family."""
    acc: dict = {}
    for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
        inner = struct(alg, u, v)
        outer = inner and struct(alg, inner[1], w)
        if outer:
            coeff, basis = outer
            acc[basis.family] = acc.get(basis.family, 0) + inner[0] * coeff
    return acc


def _residual_table(alg: AlgebraSpec, arity: int, residual, closed: bool = False) -> dict:
    """{family tuple: {target: (integer rows, denominator)}} for the nonzero residuals.

    The slots' degrees are p, k, m in turn; with closed, the last one is minus
    the sum of the other two.
    """
    slots = "pkm"[:arity]
    symbolic = [{f: BasisElement(f, MultiPoly.var(v) + alg.family_offset(f)) for f in alg.families}
                for v in slots]
    table = {}
    for families in product(alg.families, repeat=arity):
        args = [by_family[f] for by_family, f in zip(symbolic, families)]
        if closed:
            args[-1] = BasisElement(families[-1], -args[0].degree - args[1].degree)
        entry = {target: (MultiPoly() + value).integer_rows(slots)
                 for target, value in residual(alg, *args).items() if value}
        if entry:
            table[families] = entry
    return table


def _window_listing(alg: AlgebraSpec, window: int, table: dict) -> CheckReport:
    """Every tuple of basis elements in the window with a nonzero residual, in order.

    A residual keyed None is a scalar of degree 0 (a cocycle value), listed only
    where the degrees sum to 0; the others are terms of an Element.
    """
    violations = []
    if not table:
        return CheckReport.from_violations(window, violations)
    points = [(b.family, int(b.degree - alg.family_offset(b.family)), int(2 * b.degree), b)
              for b in basis_elements(alg, window)]
    for args in product(points, repeat=len(next(iter(table)))):
        families, slots, twice, bases = zip(*args)
        entry = table.get(families)
        if entry is None or None in entry and sum(twice):
            continue
        values = {}
        for target, (rows, den) in entry.items():
            value = sum(c * prod(map(pow, slots, exps)) for c, *exps in rows)
            if value:
                values[target] = Fraction(value, den)
        if values:
            degree = Fraction(sum(twice), 2)
            residual = values[None] if None in values else Element._wrap(
                {BasisElement(family, degree): v for family, v in values.items()})
            violations.append(Violation(bases, residual))
    return CheckReport.from_violations(window, violations)


def certify_antisymmetry(alg: AlgebraSpec) -> bool:
    """True when antisymmetry holds identically in the degrees, per family pair."""
    return not _residual_table(alg, 2, _antisymmetry_residual)


def certify_jacobi(alg: AlgebraSpec) -> bool:
    """True when the Jacobi identity holds identically in the degrees, per family triple."""
    return not _residual_table(alg, 3, _jacobi_residual)


def check_antisymmetry(alg: AlgebraSpec, window: int) -> CheckReport:
    """[x,y] + [y,x] = 0 over all basis pairs with |degree| <= window."""
    validate_window(window)
    return _window_listing(alg, window, _residual_table(alg, 2, _antisymmetry_residual))


def check_jacobi(alg: AlgebraSpec, window: int) -> CheckReport:
    """[[x,y],z] + [[y,z],x] + [[z,x],y] = 0 over all basis triples in the window."""
    validate_window(window)
    return _window_listing(alg, window, _residual_table(alg, 3, _jacobi_residual))


# -- central-extension cocycles --------------------------------------------------

# Admissible base algebras per cocycle name: W(rho)[0] with the rho values below.
_COCYCLE_RHO = {
    "gamma0": (Fraction(0), Fraction(1)),
    "gamma01": (Fraction(0),),
    "gamma02": (Fraction(0),),
    "gamma11": (Fraction(1),),
}


def cocycle_value(name: str, x: BasisElement, y: BasisElement) -> Fraction:
    """Value on a pair of basis elements; pairs outside the support give 0.

    Every cocycle is supported on pairs whose degrees sum to 0.  With
    MultiPoly degrees the support test holds only where that sum vanishes
    identically (see certify_cocycle).
    """
    if name not in COCYCLE_NAMES:
        raise ParameterError(f"unknown cocycle {name!r}; choose from {COCYCLE_NAMES}")
    m, n = x.degree, y.degree
    pair = (x.family, y.family)
    if name == "gamma0":
        if pair == ("L", "L") and m + n == 0:
            return (m**3 - m) / 12
        return Fraction(0)
    if name == "gamma02":
        if pair == ("Y", "Y") and m + n == 0:
            return n
        return Fraction(0)
    # gamma01 / gamma11 pair L with Y; the (Y, L) direction is the
    # antisymmetrized extension of the printed (L, Y) values
    shape = (lambda d: d**2 - d) if name == "gamma01" else (lambda d: (d**3 - d) / 12)
    if pair == ("L", "Y") and m + n == 0:
        return shape(m)
    if pair == ("Y", "L") and m + n == 0:
        return -shape(n)
    return Fraction(0)


def _cocycle_residual(name: str, alg: AlgebraSpec, x, y, z) -> dict:
    """gamma([x,y],z) + gamma([y,z],x) + gamma([z,x],y), a scalar keyed None."""
    total = 0
    for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
        got = struct(alg, u, v)
        if got:
            coeff, basis = got
            total += coeff * cocycle_value(name, basis, w)
    return {None: total}


def certify_cocycle(name: str, alg: AlgebraSpec) -> bool:
    """True when the cocycle identity holds identically on every family triple.

    Each cocycle vanishes unless its two degrees sum to 0, so every term of
    the identity vanishes off the plane x+y+z = 0; on it, z = -p-k.
    """
    return not _residual_table(alg, 3, partial(_cocycle_residual, name), closed=True)


def check_cocycle(name: str, alg: AlgebraSpec, window: int) -> CheckReport:
    """2-cocycle identity gamma([x,y],z) + gamma([y,z],x) + gamma([z,x],y) = 0."""
    if name not in COCYCLE_NAMES:
        raise ParameterError(f"unknown cocycle {name!r}; choose from {COCYCLE_NAMES}")
    if alg.name != "W" or alg.s != 0 or alg.rho not in _COCYCLE_RHO[name]:
        allowed = " or ".join(f"W({format_rational(r)})[0]" for r in _COCYCLE_RHO[name])
        raise ParameterError(f"{name} is defined on {allowed}, not {alg.label()}")
    validate_window(window)
    table = _residual_table(alg, 3, partial(_cocycle_residual, name), closed=True)
    return _window_listing(alg, window, table)
