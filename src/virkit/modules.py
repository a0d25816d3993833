"""Weight modules with one-dimensional weight spaces, plus window checks.

Module kinds and their host algebras:

  Aab      over Vir: L_m . v_i = (a + i + b m) v_{m+i}, indices i in Z
  Aa       over Vir: L_m . v_i = (i + m) v_{m+i} for i != 0,
           L_m . v_0 = m (m + a) v_m
  Ba       over Vir: L_m . v_i = i v_{m+i} for i != -m,
           L_m . v_{-m} = -m (m + a) v_0
  Aabc     over W(rho)[0]: L as in Aab, Y_p . v_k = c v_{p+k}, indices in Z
  Aabc1c2  over W(rho)[1/2]: indices in (1/2) Z; L_m uses weight slope b on
           integer indices and bp on half-odd indices; Y_p . v_k = c1 v_{p+k}
           for integer k and c2 v_{p+k} for half-odd k

For Aab, Aabc and Aabc1c2 an integer offset a is normalised to 0, since
shifting every index by an integer gives an isomorphic module.  The special
points of Aa and Ba are pinned to index 0, so no normalisation applies there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, product

from .algebras import (
    AlgebraSpec,
    BasisElement,
    Element,
    basis_elements,
    lattice_points,
    make_algebra,
    struct,
    validate_window,
)
from .errors import ParameterError
from .names import MODULE_KINDS
from .poly import Combination, MultiPoly, _as_fraction
from .rationals import format_rational
from .reports import CheckReport, Violation

_PARAM_NAMES = ("a", "b", "bp", "c", "c1", "c2")


class WeightVector(Combination):
    """Finite rational linear combination of weight vectors v_i."""

    __slots__ = ()

    _name = staticmethod(lambda index: f"v_{format_rational(index)}")

    @classmethod
    def basis(cls, index: Fraction | int, coeff: Fraction | int = 1) -> "WeightVector":
        return cls({_as_fraction(index): coeff})


@dataclass(frozen=True)
class ModuleSpec:
    kind: str
    host: AlgebraSpec
    a: Fraction | None = None
    b: Fraction | None = None
    bp: Fraction | None = None
    c: Fraction | None = None
    c1: Fraction | None = None
    c2: Fraction | None = None

    def params(self) -> dict[str, Fraction]:
        out = {}
        for name in _PARAM_NAMES:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def label(self) -> str:
        inner = ", ".join(f"{k}={format_rational(v)}" for k, v in self.params().items())
        return f"{self.kind}({inner}) over {self.host.label()}"

    def index_offsets(self) -> tuple[Fraction, ...]:
        """Cosets of Z populated by weight indices."""
        if self.kind == "Aabc1c2":
            return (Fraction(0), Fraction(1, 2))
        return (Fraction(0),)


_REQUIRED = {
    "Aab": ("a", "b"),
    "Aa": ("a",),
    "Ba": ("a",),
    "Aabc": ("a", "b", "c"),
    "Aabc1c2": ("a", "b", "c1", "c2"),
}

_OPTIONAL = {"Aabc1c2": ("bp",)}

_NEEDS_RHO = ("Aabc", "Aabc1c2")


def make_module(
    kind: str,
    a: Fraction | int | None = None,
    b: Fraction | int | None = None,
    bp: Fraction | int | None = None,
    c: Fraction | int | None = None,
    c1: Fraction | int | None = None,
    c2: Fraction | int | None = None,
    rho: Fraction | int | None = None,
) -> ModuleSpec:
    """Validate parameters, build the host algebra and the module description."""
    if kind not in MODULE_KINDS:
        raise ParameterError(f"unknown module kind {kind!r}; choose from {MODULE_KINDS}")
    given = {"a": a, "b": b, "bp": bp, "c": c, "c1": c1, "c2": c2}
    given = {k: Fraction(v) for k, v in given.items() if v is not None}
    required = _REQUIRED[kind]
    allowed = set(required) | set(_OPTIONAL.get(kind, ()))
    for name in required:
        if name not in given:
            raise ParameterError(f"{kind} requires parameter {name}")
    for name in given:
        if name not in allowed:
            raise ParameterError(f"{kind} does not take parameter {name}")
    if kind in _NEEDS_RHO:
        if rho is None:
            raise ParameterError(f"{kind} requires parameter rho")
        host = make_algebra("W", rho=rho, s=0 if kind == "Aabc" else Fraction(1, 2))
    else:
        if rho is not None:
            raise ParameterError(f"{kind} does not take parameter rho")
        host = make_algebra("Vir")
    if kind in ("Aab", "Aabc", "Aabc1c2") and given["a"].denominator == 1:
        given["a"] = Fraction(0)
    if kind == "Aabc1c2" and "bp" not in given:
        given["bp"] = given["b"]
    return ModuleSpec(kind=kind, host=host, **given)


def _check_index(mod: ModuleSpec, index: Fraction) -> None:
    if all((index - off).denominator != 1 for off in mod.index_offsets()):
        raise ParameterError(f"index {format_rational(index)} is not on the {mod.kind} lattice")


def _on_integer_coset(index) -> bool:
    """Is the index in Z rather than Z + 1/2?

    A symbolic index is a sum of integer variables plus a constant offset,
    so its constant term decides the coset.
    """
    if isinstance(index, MultiPoly):
        index = index.constant_term()
    return index.denominator == 1


def act_basis(mod: ModuleSpec, x: BasisElement, index) -> tuple:
    """Coefficient and target index of x . v_index; the coefficient may be 0.

    The index and x.degree may also be MultiPoly (see _residual_table);
    the pinned branches of Aa and Ba are then taken only where the pinning
    condition holds identically.
    """
    if not isinstance(index, MultiPoly):
        index = Fraction(index)
        _check_index(mod, index)
    m = x.degree
    target = index + m
    if x.family == "L":
        if mod.kind in ("Aab", "Aabc"):
            return (mod.a + index + mod.b * m, target)
        if mod.kind == "Aabc1c2":
            slope = mod.b if _on_integer_coset(index) else mod.bp
            return (mod.a + index + slope * m, target)
        if mod.kind == "Aa":
            if index != 0:
                return (index + m, target)
            return (m * (m + mod.a), target)
        if mod.kind == "Ba":
            if index != -m:
                return (index, target)
            return (-m * (m + mod.a), target)
    if x.family == "Y" and mod.kind == "Aabc":
        return (mod.c, target)
    if x.family == "Y" and mod.kind == "Aabc1c2":
        return (mod.c1 if _on_integer_coset(index) else mod.c2, target)
    raise ParameterError(f"{x.family} does not act on {mod.kind}")


def act(mod: ModuleSpec, x: Element | BasisElement, vec: WeightVector) -> WeightVector:
    """Action of an algebra element on a module element, extended bilinearly."""
    if isinstance(x, BasisElement):
        x = Element.from_basis(x)
    return WeightVector.bilinear(x, vec, partial(act_basis, mod))


def module_indices(mod: ModuleSpec, bound: Fraction | int) -> list[Fraction]:
    """All weight indices i with |i| <= bound, ascending."""
    return sorted(i for off in mod.index_offsets() for i in lattice_points(off, bound))


# -- window checks ----------------------------------------------------------------
#
# The axiom for x = family_p, y = family_k on v_{n + offset} is evaluated once
# with symbolic p, k, n (integer variables) through act_basis: the residual
# table.  A table of zeros certifies the axiom for every degree and index.
# Otherwise the window is listed by evaluating the nonzero entries at each
# integer point (p, k, n), in int arithmetic over one common denominator.


def _axiom_residual(mod: ModuleSpec, x, y, i):
    """Coefficient of v_{i + deg x + deg y} in [x,y].v_i - x.(y.v_i) + y.(x.v_i).

    Every action moves v_i by the degree of the acting element, so all three
    terms land on that one vector.
    """
    total = MultiPoly()
    br = struct(mod.host, x, y)
    if br is not None:
        c0, b0 = br
        total += c0 * act_basis(mod, b0, i)[0]
    cy, ty = act_basis(mod, y, i)
    total -= cy * act_basis(mod, x, ty)[0]
    cx, tx = act_basis(mod, x, i)
    return total + cx * act_basis(mod, y, tx)[0]


def _pinned_forms(p, k, n) -> tuple:
    """Where Aa or Ba switches formula inside the axiom for L_p, L_k on v_n.

    These are the _action_forms of all its actions: n, n+k, n+p and n+p+k.
    """
    return (n, n + k, n + p, n + p + k)


def _action_forms(m, n) -> tuple:
    """Where Aa (at n = 0) or Ba (at n + m = 0) switches formula for L_m on v_n."""
    return (n, n + m)


def _vanishing_forms(forms, *point) -> frozenset[int]:
    """Positions of the forms that vanish at the point (identically, for MultiPoly)."""
    return frozenset(j for j, form in enumerate(forms(*point)) if not form)


@cache
def _pinned_cases(forms, variables: str, pinned: bool) -> dict:
    """Images of the variables per case, keyed by the forms vanishing identically there.

    An unpinned kind has the one case None.  For Aa and Ba every integer point lies
    on the intersection of the hyperplanes containing it and off the others, so the
    point's own vanishing forms pick the case that holds at it.
    """
    start = tuple(MultiPoly.var(v) for v in variables)
    if not pinned:
        return {None: start}
    count = len(forms(*start))
    cases = {}
    for size in range(count + 1):
        for subset in combinations(range(count), size):
            images = start
            for j in subset:
                form = forms(*images)[j]
                if form.is_zero():
                    continue
                var = form.variables()[-1]
                rest = form.substitute({var: 0})
                slope = (form.substitute({var: 1}) - rest).constant_value()
                images = tuple(image.substitute({var: -rest / slope}) for image in images)
            cases.setdefault(_vanishing_forms(forms, *images), images)
    return cases


def _residual_table(mod: ModuleSpec) -> dict[tuple, MultiPoly]:
    """The axiom's residual as a polynomial in p, k, n, per (fx, fy, offset, case).

    x = family_p and y = family_k act on v_{n + offset}.  The case is None,
    or for Aa and Ba the vanishing forms of a pinned case.
    """
    host = mod.host
    cases = _pinned_cases(_pinned_forms, "pkn", mod.kind in ("Aa", "Ba"))
    table = {}
    for fx, fy in product(host.families, repeat=2):
        for offset in mod.index_offsets():
            for case, (p, k, n) in cases.items():
                x = BasisElement(fx, p + host.family_offset(fx))
                y = BasisElement(fy, k + host.family_offset(fy))
                table[fx, fy, offset, case] = _axiom_residual(mod, x, y, n + offset)
    return table


def certify_module_axiom(mod: ModuleSpec) -> bool:
    """True when the module axiom holds identically in the degrees and the index."""
    return not any(_residual_table(mod).values())


def window_module_axiom(mod: ModuleSpec, window: int) -> CheckReport:
    """Every (x, y, v_i) in the window with a nonzero residual, in window order."""
    offsets = mod.index_offsets()
    table: dict = {}
    for (fx, fy, offset, case), poly in _residual_table(mod).items():
        if poly:
            cosets = table.setdefault((fx, fy), [{} for _ in offsets])
            cosets[offsets.index(offset)][case] = poly.integer_rows("pkn")
    violations = []
    if not table:
        return CheckReport.from_violations(window, violations)
    host = mod.host
    pinned = mod.kind in ("Aa", "Ba")
    points = [(i, offsets.index(i % 1), int(i - i % 1), WeightVector.basis(i))
              for i in module_indices(mod, window)]
    for x, y in product(basis_elements(host, window), repeat=2):
        cosets = table.get((x.family, y.family))
        if cosets is None:
            continue
        p = int(x.degree - host.family_offset(x.family))
        k = int(y.degree - host.family_offset(y.family))
        shift = x.degree + y.degree
        for i, coset, n, vec in points:
            entry = cosets[coset].get(_vanishing_forms(_pinned_forms, p, k, n) if pinned else None)
            if entry is None:
                continue
            rows, den = entry
            value = sum(c * p**ep * k**ek * n**en for c, ep, ek, en in rows)
            if value:
                residual = WeightVector._wrap({i + shift: Fraction(value, den)})
                violations.append(Violation((x, y, vec), residual))
    return CheckReport.from_violations(window, violations)


def check_module_axiom(mod: ModuleSpec, window: int) -> CheckReport:
    """[x,y].v - x.(y.v) + y.(x.v) = 0 over basis pairs and indices in the window."""
    validate_window(window)
    return window_module_axiom(mod, window)


class MissingIndices:
    """Weight indices a generator fails to reach inside the window."""

    __slots__ = ("indices",)

    def __init__(self, indices):
        self.indices = tuple(sorted(indices))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MissingIndices):
            return NotImplemented
        return self.indices == other.indices

    def __str__(self) -> str:
        return "missing " + ", ".join(f"v_{format_rational(i)}" for i in self.indices)

    __repr__ = __str__


def _reach_sets(mod: ModuleSpec, window: int) -> tuple[list[Fraction], list[set[int]]]:
    """The indices i with |i| <= window, ascending, and the positions each one reaches.

    One step joins v_i to v_t when the basis element of degree t - i in some
    family acts on v_i with a nonzero coefficient.  That coefficient comes once
    from act_basis with symbolic m, n per case, as in _residual_table, and is
    evaluated in ints, with indices and degrees doubled.
    """
    host = mod.host
    pinned = mod.kind in ("Aa", "Ba")
    cases = _pinned_cases(_action_forms, "mn", pinned)
    indices = module_indices(mod, window)
    twice = [int(2 * i) for i in indices]
    reach = [{q} for q in range(len(indices))]
    for family, offset in product(host.families, mod.index_offsets()):
        table = {}
        for case, (m, n) in cases.items():
            x = BasisElement(family, m + host.family_offset(family))
            table[case] = (MultiPoly() + act_basis(mod, x, n + offset)[0]).integer_rows("mn")[0]
        shift = int(2 * host.family_offset(family))
        for i, twice_i, reached in zip(indices, twice, reach):
            if i % 1 != offset:
                continue
            n = int(i - offset)
            for t, twice_t in enumerate(twice):
                m, odd = divmod(twice_t - twice_i - shift, 2)
                if odd:
                    continue
                rows = table[_vanishing_forms(_action_forms, m, n) if pinned else None]
                if sum(c * m**em * n**en for c, em, en in rows):
                    reached.add(t)
    for k, via in enumerate(reach):  # Warshall: close the steps through each index in turn
        for reached in reach:
            if k in reached:
                reached |= via
    return indices, reach


def reachable_indices(mod: ModuleSpec, start: Fraction | int, window: int) -> set[Fraction]:
    """Indices reachable from v_start by repeated basis actions, staying in the window.

    Reads the reach sets of check_window_cyclic: any jump between two in-window
    indices is one basis element, of degree at most 2*window.
    """
    start = Fraction(start)
    _check_index(mod, start)
    if abs(start) > window:
        raise ParameterError("start index lies outside the window")
    indices, reach = _reach_sets(mod, window)
    return {indices[t] for t in reach[indices.index(start)]}


def check_window_cyclic(mod: ModuleSpec, window: int) -> CheckReport:
    """Does each v_i with |i| <= window/2 reach every index in that range?

    One violation per failing generator, recording the missed indices.  The
    reach sets are built once, in ints, for every generator.
    """
    validate_window(window)
    indices, reach = _reach_sets(mod, window)
    required = [q for q, i in enumerate(indices) if 2 * abs(i) <= window]
    violations = []
    for q in required:
        missing = [indices[t] for t in required if t not in reach[q]]
        if missing:
            violations.append(Violation((WeightVector.basis(indices[q]),), MissingIndices(missing)))
    return CheckReport.from_violations(window, violations)


def simplicity_criterion(mod: ModuleSpec) -> bool:
    """Parameter test for simplicity; defined for Aab, Aabc and Aabc1c2 only."""
    if mod.kind == "Aab":
        return not (mod.a.denominator == 1 and mod.b in (0, 1))
    if mod.kind == "Aabc":
        return not (mod.a.denominator == 1 and mod.b in (0, 1) and mod.c == 0)
    if mod.kind == "Aabc1c2":
        return mod.c1 * mod.c2 != 0
    raise ParameterError(f"no simplicity criterion is implemented for {mod.kind}")
