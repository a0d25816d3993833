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
    basis_degrees,
    basis_elements,
    lattice_points,
    make_algebra,
    struct,
    symbolic_basis,
    validate_window,
)
from .errors import ParameterError
from .poly import Combination, MultiPoly
from .rationals import format_rational
from .reports import CheckReport, Violation

MODULE_KINDS = ("Aab", "Aa", "Ba", "Aabc", "Aabc1c2")

_PARAM_NAMES = ("a", "b", "bp", "c", "c1", "c2")


class WeightVector(Combination):
    """Finite rational linear combination of weight vectors v_i."""

    __slots__ = ()

    _name = staticmethod(lambda index: f"v_{format_rational(index)}")

    @classmethod
    def basis(cls, index: Fraction | int, coeff: Fraction | int = 1) -> "WeightVector":
        return cls({Fraction(index): coeff})


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

    The index and x.degree may also be MultiPoly (see certify_module_axiom);
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


def _axiom_residual(mod: ModuleSpec, x, y, br, i) -> dict:
    """[x,y].v_i - x.(y.v_i) + y.(x.v_i) by target index; br is struct(host, x, y)."""
    acc: dict = {}
    if br is not None:
        c0, b0 = br
        if c0:
            coeff, target = act_basis(mod, b0, i)
            if c0 * coeff:
                acc[target] = acc.get(target, 0) + c0 * coeff
    cy, ty = act_basis(mod, y, i)
    if cy:
        cx, t2 = act_basis(mod, x, ty)
        if cy * cx:
            acc[t2] = acc.get(t2, 0) - cy * cx
    cx, tx = act_basis(mod, x, i)
    if cx:
        cy2, t2 = act_basis(mod, y, tx)
        if cx * cy2:
            acc[t2] = acc.get(t2, 0) + cx * cy2
    return acc


@cache
def _pinned_cases() -> tuple[dict[str, MultiPoly], ...]:
    """Substitutions for (p, k, n) onto every intersection of pinned hyperplanes.

    Aa switches formula at index 0 and Ba at index -m.  Inside the axiom for
    L_p, L_k on v_n those indices are n, n+k and n+p, and Ba also meets
    n+p+k.  Every point of Z^3 lies on the intersection of the hyperplanes
    containing it and generically off the others, so checking each
    intersection with act_basis's identical-vanishing test covers them all.
    """
    names = ("p", "k", "n")
    p, k, n = (MultiPoly.var(v) for v in names)
    forms = (n, n + k, n + p, n + p + k)
    cases = {}
    for size in range(len(forms) + 1):
        for subset in combinations(forms, size):
            images = {v: MultiPoly.var(v) for v in names}
            for form in subset:
                form = form.substitute(images)
                if form.is_zero():
                    continue
                var = form.variables()[-1]
                rest = form.substitute({var: 0})
                slope = (form.substitute({var: 1}) - rest).constant_value()
                solution = -rest / slope
                images = {v: image.substitute({var: solution}) for v, image in images.items()}
            cases[tuple(images.values())] = images
    return tuple(cases.values())


def certify_module_axiom(mod: ModuleSpec) -> bool:
    """True when the module axiom holds identically in the degrees and the index.

    One identity per family pair and index coset, on each pinned case.
    """
    host = mod.host
    for fx, fy in product(host.families, repeat=2):
        x, y = symbolic_basis(host, fx, "p"), symbolic_basis(host, fy, "k")
        for offset in mod.index_offsets():
            i = MultiPoly.var("n") + offset
            for images in _pinned_cases() if mod.kind in ("Aa", "Ba") else ({},):
                xs = BasisElement(fx, x.degree.substitute(images))
                ys = BasisElement(fy, y.degree.substitute(images))
                if any(_axiom_residual(mod, xs, ys, struct(host, xs, ys), i.substitute(images)).values()):
                    return False
    return True


def window_module_axiom(mod: ModuleSpec, window: int) -> CheckReport:
    """The module axiom instance by instance, listing every violation in the window."""
    host = mod.host
    elements = basis_elements(host, window)
    indices = module_indices(mod, window)
    violations = []
    for x, y in product(elements, repeat=2):
        br = struct(host, x, y)
        for i in indices:
            residual = WeightVector(_axiom_residual(mod, x, y, br, i))
            if not residual.is_zero():
                violations.append(Violation((x, y, WeightVector.basis(i)), residual))
    return CheckReport.from_violations(window, violations)


def check_module_axiom(mod: ModuleSpec, window: int) -> CheckReport:
    """[x,y].v - x.(y.v) + y.(x.v) = 0 over basis pairs and indices in the window."""
    validate_window(window)
    if certify_module_axiom(mod):
        return CheckReport.from_violations(window, [])
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


def _operator_degrees(mod: ModuleSpec, window: int) -> list[tuple[str, Fraction]]:
    host = mod.host
    return [(f, d) for f in host.families for d in basis_degrees(host, f, 2 * window)]


def reachable_indices(mod: ModuleSpec, start: Fraction | int, window: int) -> set[Fraction]:
    """Indices reachable from v_start by repeated basis actions, staying in the window.

    Operator degrees up to 2*window are allowed, so any jump between two
    in-window indices can be realised by a single basis element when its
    action coefficient is nonzero.
    """
    start = Fraction(start)
    _check_index(mod, start)
    if abs(start) > window:
        raise ParameterError("start index lies outside the window")
    degrees = _operator_degrees(mod, window)
    seen = {start}
    frontier = [start]
    while frontier:
        j = frontier.pop()
        for family, d in degrees:
            target = j + d
            if abs(target) > window or target in seen:
                continue
            coeff, _ = act_basis(mod, BasisElement(family, d), j)
            if coeff:
                seen.add(target)
                frontier.append(target)
    return seen


def check_window_cyclic(mod: ModuleSpec, window: int) -> CheckReport:
    """Does each v_i with |i| <= window/2 reach every index in that range?

    One violation per failing generator, recording the missed indices.
    """
    validate_window(window)
    required = module_indices(mod, Fraction(window, 2))
    violations = []
    for i in required:
        reached = reachable_indices(mod, i, window)
        missing = [j for j in required if j not in reached]
        if missing:
            violations.append(Violation((WeightVector.basis(i),), MissingIndices(missing)))
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
