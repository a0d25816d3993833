"""Differential tests: the symbolic identity engine against the window loops.

The symbolic verdict (zero residual for every family tuple) must equal the
window verdict on each case.  Where the residual is nonzero, the public check
must list exactly the violations of the plain window loop.  Those loops are
kept here as oracles, with Fraction arithmetic at every instance: the library
lists violations from its residual tables instead.  `oracle_window_antisymmetry`,
`oracle_window_jacobi` and `oracle_window_cocycle` call algebras.struct, and
`oracle_window_module_axiom` calls modules.act_basis, at call time, so a
monkeypatched structure or action is seen by oracle and library alike.
Likewise cyclicity keeps the per-generator search that calls act_basis at
every step (`oracle_reachable_indices`); the library searches one integer
action graph.
"""

import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virkit import algebras, modules, suite
from virkit.algebras import (
    MAX_WINDOW,
    BasisElement,
    Element,
    certify_antisymmetry,
    certify_cocycle,
    certify_jacobi,
    check_antisymmetry,
    check_cocycle,
    check_jacobi,
    cocycle_value,
    make_algebra,
)
from virkit.algebras import basis_degrees, basis_elements, struct
from virkit.cli import run_capture
from virkit.errors import ParameterError
from virkit.modules import (
    MissingIndices,
    WeightVector,
    certify_module_axiom,
    check_module_axiom,
    check_window_cyclic,
    make_module,
    module_indices,
    reachable_indices,
    window_module_axiom,
)
from virkit.names import COCYCLE_NAMES
from virkit.reports import CheckReport, Violation

# Enough for describe() to render every violation of these windows.
ALL = 10**6


def oracle_axiom_residual(mod, x, y, br, i):
    """[x,y].v_i - x.(y.v_i) + y.(x.v_i) by target index; br is struct(host, x, y).

    act_basis is looked up on the module at call time, so a monkeypatched
    action is seen here as it is by the library.
    """
    act_basis = modules.act_basis
    acc = {}
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


def oracle_window_module_axiom(mod, window):
    """The module axiom instance by instance, with Fraction actions at every point."""
    host = mod.host
    elements = basis_elements(host, window)
    indices = module_indices(mod, window)
    violations = []
    for x, y in product(elements, repeat=2):
        br = struct(host, x, y)
        for i in indices:
            residual = WeightVector(oracle_axiom_residual(mod, x, y, br, i))
            if not residual.is_zero():
                violations.append(Violation((x, y, WeightVector.basis(i)), residual))
    return CheckReport.from_violations(window, violations)


def oracle_brackets(alg, x, y):
    """The terms (coefficient, basis element) of [x, y] from algebras.struct."""
    got = algebras.struct(alg, x, y)
    return () if got is None else (got,)


def oracle_window(alg, window, arity, residual):
    """Every tuple of basis elements in the window with a nonzero residual, in order."""
    violations = []
    for args in product(basis_elements(alg, window), repeat=arity):
        value = residual(*args)
        if value:
            violations.append(Violation(args, value))
    return CheckReport.from_violations(window, violations)


def oracle_window_antisymmetry(alg, window):
    """[x,y] + [y,x] instance by instance, with Fraction brackets."""
    def residual(x, y):
        acc = {}
        for u, v in ((x, y), (y, x)):
            for coeff, basis in oracle_brackets(alg, u, v):
                acc[basis] = acc.get(basis, 0) + coeff
        return Element(acc)

    return oracle_window(alg, window, 2, residual)


def oracle_window_jacobi(alg, window):
    """[[x,y],z] + [[y,z],x] + [[z,x],y] instance by instance, with Fraction brackets."""
    def residual(x, y, z):
        acc = {}
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            for c1, b1 in oracle_brackets(alg, u, v):
                for c2, b2 in oracle_brackets(alg, b1, w):
                    acc[b2] = acc.get(b2, 0) + c1 * c2
        return Element(acc)

    return oracle_window(alg, window, 3, residual)


def oracle_window_cocycle(name, alg, window):
    """gamma([x,y],z) + gamma([y,z],x) + gamma([z,x],y) instance by instance."""
    def residual(x, y, z):
        total = Fraction(0)
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            for coeff, basis in oracle_brackets(alg, u, v):
                if coeff:
                    total += coeff * cocycle_value(name, basis, w)
        return total

    return oracle_window(alg, window, 3, residual)


def assert_same_algebra_listing(alg, window):
    """Both checks list exactly the oracles' violations; a certified identity lists none.

    Returns (certified, window passed) for antisymmetry and for Jacobi.
    """
    verdicts = []
    for certify, check, oracle in (
        (certify_antisymmetry, check_antisymmetry, oracle_window_antisymmetry),
        (certify_jacobi, check_jacobi, oracle_window_jacobi),
    ):
        expected = oracle(alg, window)
        report = check(alg, window)
        assert report.violations == expected.violations
        assert report.describe(ALL) == expected.describe(ALL)
        certified = certify(alg)
        assert expected.passed or not certified
        verdicts.append((certified, expected.passed))
    return verdicts


def assert_same_algebra_verdicts(alg, window):
    for certified, passed in assert_same_algebra_listing(alg, window):
        assert certified == passed


def assert_same_module_verdict(mod, window):
    symbolic = certify_module_axiom(mod)
    oracle = oracle_window_module_axiom(mod, window)
    assert symbolic == oracle.passed
    for report in (window_module_axiom(mod, window), check_module_axiom(mod, window)):
        assert report.violations == oracle.violations
        assert report.describe(ALL) == oracle.describe(ALL)
    return symbolic


def oracle_reachable_indices(mod, start, window):
    """Indices reachable from v_start, calling act_basis with Fractions at every step."""
    host = mod.host
    degrees = [(f, d) for f in host.families for d in basis_degrees(host, f, 2 * window)]
    start = Fraction(start)
    seen = {start}
    frontier = [start]
    while frontier:
        j = frontier.pop()
        for family, d in degrees:
            target = j + d
            if abs(target) > window or target in seen:
                continue
            coeff, _ = modules.act_basis(mod, BasisElement(family, d), j)
            if coeff:
                seen.add(target)
                frontier.append(target)
    return seen


def oracle_window_cyclic(mod, window, reach=None):
    """One search per generator; reach(i) may supply the oracle's set for start i."""
    reach = reach or (lambda i: oracle_reachable_indices(mod, i, window))
    required = module_indices(mod, Fraction(window, 2))
    violations = []
    for i in required:
        reached = reach(i)
        missing = [j for j in required if j not in reached]
        if missing:
            violations.append(Violation((WeightVector.basis(i),), MissingIndices(missing)))
    return CheckReport.from_violations(window, violations)


def assert_same_cyclicity(mod, window):
    """The report and the set reached from every in-window start match the oracle."""
    reached = {i: oracle_reachable_indices(mod, i, window) for i in module_indices(mod, window)}
    oracle = oracle_window_cyclic(mod, window, reached.__getitem__)
    report = check_window_cyclic(mod, window)
    assert report.violations == oracle.violations
    assert report.describe(ALL) == oracle.describe(ALL)
    for i, expected in reached.items():
        assert reachable_indices(mod, i, window) == expected
    return oracle.passed


# -- algebras --------------------------------------------------------------------


@pytest.mark.parametrize("alg", suite.algebra_sample(), ids=lambda a: a.label())
def test_criterion_5_algebras_agree_at_window_3(alg):
    assert certify_antisymmetry(alg) and certify_jacobi(alg)
    assert_same_algebra_verdicts(alg, 3)


def twisted_l_on_y(alg, x, y):
    # quadratic twist of the L-on-Y weight: antisymmetric, not a Lie bracket
    if x.family == "L" and y.family == "Y":
        return (y.degree - x.degree**2 * alg.rho, BasisElement("Y", x.degree + y.degree))
    if x.family == "Y" and y.family == "L":
        return (-(x.degree - y.degree**2 * alg.rho), BasisElement("Y", x.degree + y.degree))
    return struct(alg, x, y)


def twisted_y_on_y(alg, x, y):
    # [Y_p, Y_q] = (q - p + p q) M_{p+q}: neither antisymmetric nor a Lie bracket
    if x.family == "Y" and y.family == "Y":
        return (y.degree - x.degree + x.degree * y.degree, BasisElement("M", x.degree + y.degree))
    return struct(alg, x, y)


def test_jacobi_detects_corrupted_structure_constants(monkeypatch):
    monkeypatch.setattr(algebras, "struct", twisted_l_on_y)
    alg = make_algebra("W", rho=1, s=0)
    assert certify_antisymmetry(alg) and check_antisymmetry(alg, 2).passed
    report = check_jacobi(alg, 2)
    assert not certify_jacobi(alg) and not report.passed
    assert len(report.violations) == 180
    assert report.describe(ALL) == oracle_window_jacobi(alg, 2).describe(ALL)


@pytest.mark.parametrize("s", [0, Fraction(1, 2)])
@pytest.mark.parametrize("rho", [1, 3, Fraction(1, 2)])
def test_corrupted_struct_listing_matches_the_oracle_at_windows_0_to_4(rho, s, monkeypatch):
    monkeypatch.setattr(algebras, "struct", twisted_l_on_y)
    alg = make_algebra("W", rho=rho, s=s)
    assert not certify_jacobi(alg)
    for window in range(5):
        assert_same_algebra_listing(alg, window)
    assert not check_jacobi(alg, 4).passed


# The L-on-Y twist leaves a residual free of the Y degree; this one depends on
# both Y degrees, so on sv[1/2] it also sees the half-integer offset of Y.
@pytest.mark.parametrize(
    "alg",
    [make_algebra("SV", s=0), make_algebra("SV", s=Fraction(1, 2)), make_algebra("D", rho=Fraction(1, 2))],
    ids=lambda a: a.label(),
)
def test_twisted_y_bracket_lists_m_targets_like_the_oracle(alg, monkeypatch):
    monkeypatch.setattr(algebras, "struct", twisted_y_on_y)
    assert not certify_antisymmetry(alg) and not certify_jacobi(alg)
    assert_same_algebra_listing(alg, 3)
    for report in (check_antisymmetry(alg, 3), check_jacobi(alg, 3)):
        families = {key.family for v in report.violations for key in v.residual.terms()}
        assert families == {"M"}


@pytest.mark.parametrize("rho", [0, 1, 2, Fraction(1, 2), Fraction(-1, 2)])
@pytest.mark.parametrize("name", COCYCLE_NAMES)
def test_every_cocycle_listing_matches_the_oracle(name, rho, monkeypatch):
    # admit every base W(rho)[0], so that check_cocycle reaches failing identities
    alg = make_algebra("W", rho=rho, s=0)
    admitted = algebras._COCYCLE_RHO[name]
    monkeypatch.setitem(algebras._COCYCLE_RHO, name, (alg.rho,))
    expected = oracle_window_cocycle(name, alg, 4)
    report = check_cocycle(name, alg, 4)
    assert report.violations == expected.violations
    assert report.describe(ALL) == expected.describe(ALL)
    assert certify_cocycle(name, alg) is expected.passed
    # gamma0 lives on the L family alone, so it is a cocycle of every W(rho)[0]
    assert expected.passed is (name == "gamma0" or alg.rho in admitted)


@pytest.mark.parametrize("name,rho", suite.COCYCLE_CHECKS)
def test_criterion_6_cocycles_agree(name, rho):
    alg = make_algebra("W", rho=rho, s=0)
    expected = oracle_window_cocycle(name, alg, 4)
    assert certify_cocycle(name, alg) and expected.passed
    assert check_cocycle(name, alg, 4).describe() == expected.describe()


# -- modules ---------------------------------------------------------------------


def test_criterion_7_random_draws_agree():
    draws, _ = suite.module_draws(0)
    assert len(draws) == 40
    for mod in draws:
        assert assert_same_module_verdict(mod, 2), mod.label()


def test_criterion_7_twisted_cases_keep_their_violations():
    _, twisted = suite.module_draws(0)
    for mod, _, _ in twisted:
        assert not assert_same_module_verdict(mod, 4)


def test_criterion_8_modules_agree():
    pinned, grid = suite.cyclicity_modules()
    for mod in pinned + grid:
        assert assert_same_module_verdict(mod, 2), mod.label()


@pytest.mark.parametrize("kind", ["Aa", "Ba"])
def test_defect_on_a_pinned_hyperplane_is_found(kind, monkeypatch):
    # a defect only at index 0 is invisible to the generic formula alone
    original = modules.act_basis

    def shifted(mod, x, index):
        coeff, target = original(mod, x, index)
        return (coeff + 1 if index == 0 else coeff), target

    monkeypatch.setattr(modules, "act_basis", shifted)
    mod = make_module(kind, a=3)
    assert not assert_same_module_verdict(mod, 2)


@pytest.mark.parametrize("window", [2, 3, 4])
@pytest.mark.parametrize("kind", ["Aa", "Ba"])
def test_pinned_defect_listing_matches_the_oracle(kind, window, monkeypatch):
    original = modules.act_basis

    def shifted(mod, x, index):
        coeff, target = original(mod, x, index)
        return (coeff + 1 if index == 0 else coeff), target

    monkeypatch.setattr(modules, "act_basis", shifted)
    assert not assert_same_module_verdict(make_module(kind, a=3), window)


# Window 4 is test_criterion_7_twisted_cases_keep_their_violations.
@pytest.mark.parametrize("window", [2, 3])
@pytest.mark.parametrize("which", [0, 1, 2])
def test_twisted_listing_matches_the_oracle(which, window):
    _, twisted = suite.module_draws(0)
    assert not assert_same_module_verdict(twisted[which][0], window)


@pytest.mark.parametrize("window", [2, 3, 4])
@pytest.mark.parametrize("c2", [3, 0], ids=["split-slopes", "c2-zero"])
def test_aabc1c2_listing_matches_the_oracle(c2, window):
    mod = make_module("Aabc1c2", a=Fraction(1, 3), b=2, bp=Fraction(1, 2), c1=1, c2=c2,
                      rho=Fraction(1, 2))
    assert not assert_same_module_verdict(mod, window)


def test_index_dependent_defect_on_both_cosets_matches_the_oracle(monkeypatch):
    # the true Aabc1c2 residual never depends on the index; this one does, on v_{1/2 + Z} too
    original = modules.act_basis

    def drifting(mod, x, index):
        coeff, target = original(mod, x, index)
        return (coeff + index if x.family == "Y" else coeff), target

    monkeypatch.setattr(modules, "act_basis", drifting)
    mod = make_module("Aabc1c2", a=Fraction(1, 3), b=2, c1=1, c2=3, rho=Fraction(1, 2))
    assert not assert_same_module_verdict(mod, 2)


@pytest.mark.parametrize("c,window", [("5", 6), ("7" * 1000, 4)], ids=["window-6", "c-1000-digits"])
def test_failing_listing_through_the_cli_counts_like_the_oracle(c, window):
    argv = ["module-check", "--kind", "Aabc", "--a", "1/3", "--b", "2", "--c", c,
            "--rho", "1/2", "--window", str(window), "--output", "json"]
    code, text = run_capture(argv)
    mod = make_module("Aabc", a=Fraction(1, 3), b=2, c=int(c), rho=Fraction(1, 2))
    assert code == 1
    count = json.loads(text)["details"]["axiom"]["violation_count"]
    assert count == len(oracle_window_module_axiom(mod, window).violations) > 0


@pytest.mark.parametrize(
    "rho,passes",
    [(Fraction(1, 2), False), (Fraction(1), True)],
    ids=["rho-1/2", "rho-b-bp"],
)
def test_aabc1c2_with_split_slopes_and_a_dead_chain(rho, passes):
    # residual is c1*p*(b - bp - rho) on the integer chain; c2 = 0 kills the other
    mod = make_module("Aabc1c2", a=Fraction(1, 3), b=2, bp=1, c1=5, c2=0, rho=rho)
    assert assert_same_module_verdict(mod, 2) is passes


# -- cyclicity ------------------------------------------------------------------

CYCLICITY_MODULES = [mod for group in suite.cyclicity_modules() for mod in group]


@pytest.mark.parametrize("mod", CYCLICITY_MODULES, ids=lambda m: m.label())
def test_criterion_8_cyclicity_matches_the_oracle_at_windows_1_to_8(mod):
    verdicts = [assert_same_cyclicity(mod, window) for window in range(1, 9)]
    assert verdicts[-1] == (mod in suite.cyclicity_modules()[1])


@pytest.mark.parametrize("a", range(-3, 4))
@pytest.mark.parametrize("kind", ["Aa", "Ba"])
def test_pinned_cyclicity_matches_the_oracle(kind, a):
    # the pinned coefficient m(m + a) vanishes at m = 0, and at m = -a once |a| <= window
    verdicts = [assert_same_cyclicity(make_module(kind, a=a), window) for window in range(1, 7)]
    assert not any(verdicts[1:])


@pytest.mark.parametrize("rho", [0, Fraction(1, 2), 1])
@pytest.mark.parametrize("a,b,c,cyclic", [(Fraction(1, 3), 2, 0, True), (Fraction(1, 3), 2, 5, True),
                                          (0, 1, 0, False), (0, 0, 3, True), (0, 0, 0, False)])
def test_aabc_cyclicity_matches_the_oracle(a, b, c, cyclic, rho):
    mod = make_module("Aabc", a=a, b=b, c=c, rho=rho)
    verdicts = [assert_same_cyclicity(mod, window) for window in range(1, 7)]
    assert verdicts[-1] is cyclic


@pytest.mark.parametrize(
    "b,bp,c1,c2",
    [(2, Fraction(1, 2), 1, 0), (2, Fraction(1, 2), 0, 1), (2, Fraction(1, 2), 1, 1),
     (1, 1, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1)],
)
@pytest.mark.parametrize("a", [Fraction(1, 3), 0])
def test_aabc1c2_cyclicity_matches_the_oracle(a, b, bp, c1, c2):
    mod = make_module("Aabc1c2", a=a, b=b, bp=bp, c1=c1, c2=c2, rho=Fraction(1, 2))
    for window in range(1, 6):
        assert_same_cyclicity(mod, window)


@pytest.mark.parametrize("kind", ["Aa", "Ba"])
def test_cyclicity_sees_a_defect_on_the_pinned_hyperplane(kind, monkeypatch):
    # no action where the kind switches formula (Aa: from v_0, Ba: onto v_0);
    # only the action table's pinned cases carry that defect
    original = modules.act_basis

    def silenced(mod, x, index):
        coeff, target = original(mod, x, index)
        return (0 if (index if kind == "Aa" else target) == 0 else coeff), target

    monkeypatch.setattr(modules, "act_basis", silenced)
    mod = make_module(kind, a=Fraction(1, 2))
    assert not assert_same_cyclicity(mod, 4)
    if kind == "Aa":
        assert reachable_indices(mod, 0, 4) == {0}
    else:
        assert 0 not in reachable_indices(mod, 1, 4)


# -- property --------------------------------------------------------------------

quarters = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4))


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(("Aab", "Aa", "Ba", "Aabc", "Aabc1c2")),
    a=quarters,
    b=quarters,
    bp=quarters,
    c=quarters,
    c2=quarters,
    rho=quarters.filter(lambda r: r != -1),
    split=st.booleans(),
)
def test_symbolic_verdicts_match_window_2(kind, a, b, bp, c, c2, rho, split):
    if kind == "Aab":
        mod = make_module("Aab", a=a, b=b)
    elif kind in ("Aa", "Ba"):
        mod = make_module(kind, a=a)
    elif kind == "Aabc":
        mod = make_module("Aabc", a=a, b=b, c=c, rho=rho)
    else:
        mod = make_module("Aabc1c2", a=a, b=b, bp=bp if split else b, c1=c, c2=c2, rho=rho)
    assert_same_module_verdict(mod, 2)
    assert_same_algebra_verdicts(make_algebra("W", rho=rho, s=Fraction(1, 2)), 2)
    if rho not in (0, -3):
        assert_same_algebra_verdicts(make_algebra("D", rho=rho), 2)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(("Aab", "Aabc", "Aabc1c2")),
    a=quarters,
    b=quarters,
    bp=quarters,
    c=quarters,
    c2=quarters,
    rho=quarters.filter(lambda r: r != -1),
    window=st.integers(1, 5),
)
def test_cyclicity_matches_the_oracle(kind, a, b, bp, c, c2, rho, window):
    if kind == "Aab":
        mod = make_module("Aab", a=a, b=b)
    elif kind == "Aabc":
        mod = make_module("Aabc", a=a, b=b, c=c, rho=rho)
    else:
        mod = make_module("Aabc1c2", a=a, b=b, bp=bp, c1=c, c2=c2, rho=rho)
    assert_same_cyclicity(mod, window)


# -- window bound ----------------------------------------------------------------


def test_windows_past_the_bound_are_parameter_errors():
    alg = make_algebra("Vir")
    mod = make_module("Aab", a=Fraction(1, 2), b=1)
    for call in (
        lambda w: check_antisymmetry(alg, w),
        lambda w: check_jacobi(alg, w),
        lambda w: check_cocycle("gamma0", make_algebra("W", rho=0, s=0), w),
        lambda w: check_module_axiom(mod, w),
        lambda w: check_window_cyclic(mod, w),
    ):
        with pytest.raises(ParameterError):
            call(MAX_WINDOW + 1)
    assert check_jacobi(alg, MAX_WINDOW).passed
