"""Differential tests: the symbolic identity engine against the window loops.

The symbolic verdict (zero residual for every family tuple) must equal the
window verdict on each case.  Where the residual is nonzero, the public check
must list exactly the violations of the plain window loop.  For the module
axiom that loop is kept here as an oracle (`oracle_window_module_axiom`): the
library lists module violations from the residual table instead.  Likewise
cyclicity keeps the per-generator search that calls act_basis at every step
(`oracle_reachable_indices`); the library searches one integer action graph.
"""

import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virkit import modules, suite
from virkit.algebras import (
    MAX_WINDOW,
    BasisElement,
    Element,
    bracket,
    certify_antisymmetry,
    certify_cocycle,
    certify_jacobi,
    check_antisymmetry,
    check_cocycle,
    check_jacobi,
    make_algebra,
    window_antisymmetry,
    window_cocycle,
    window_jacobi,
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


def assert_same_algebra_verdicts(alg, window):
    for certify, check, loop in (
        (certify_antisymmetry, check_antisymmetry, window_antisymmetry),
        (certify_jacobi, check_jacobi, window_jacobi),
    ):
        symbolic = certify(alg)
        report = loop(alg, window)
        assert symbolic == report.passed
        if not symbolic:
            assert check(alg, window).describe() == report.describe()


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


def corrupted(a, x, y):
    # quadratic twist of the L-on-Y weight: antisymmetric, not a Lie bracket
    if x.family == "L" and y.family == "Y":
        coeff = y.degree - x.degree**2 * a.rho
        return Element.from_basis(BasisElement("Y", x.degree + y.degree), coeff)
    if x.family == "Y" and y.family == "L":
        coeff = x.degree - y.degree**2 * a.rho
        return -1 * Element.from_basis(BasisElement("Y", x.degree + y.degree), coeff)
    return bracket(a, x, y)


def test_corrupted_bracket_lists_the_window_violations():
    # an injected bracket is never certified: it always runs the window loop
    alg = make_algebra("W", rho=1, s=0)
    for check, loop in ((check_antisymmetry, window_antisymmetry), (check_jacobi, window_jacobi)):
        assert check(alg, 2, corrupted).describe() == loop(alg, 2, corrupted).describe()
    assert check_antisymmetry(alg, 2, corrupted).passed
    assert check_jacobi(alg, 2, corrupted).violations


@pytest.mark.parametrize("name,rho", suite.COCYCLE_CHECKS)
def test_criterion_6_cocycles_agree(name, rho):
    alg = make_algebra("W", rho=rho, s=0)
    assert certify_cocycle(name, alg)
    assert window_cocycle(name, alg, 4).passed
    assert check_cocycle(name, alg, 4).describe() == window_cocycle(name, alg, 4).describe()


def test_cocycle_on_the_other_base_algebra_is_not_certified():
    # gamma11 is a cocycle of W(1)[0] only; evaluated on W(0)[0] it fails
    alg = make_algebra("W", rho=0, s=0)
    assert not certify_cocycle("gamma11", alg)
    assert not window_cocycle("gamma11", alg, 3).passed


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
