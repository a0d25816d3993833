"""Differential tests: the symbolic identity engine against the window loops.

The symbolic verdict (zero residual for every family tuple) must equal the
window verdict on each case.  Where the residual is nonzero, the public check
must list exactly the violations of the plain window loop.
"""

from fractions import Fraction

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
from virkit.errors import ParameterError
from virkit.modules import (
    certify_module_axiom,
    check_module_axiom,
    check_window_cyclic,
    make_module,
    window_module_axiom,
)


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
    report = window_module_axiom(mod, window)
    assert symbolic == report.passed
    if not symbolic:
        assert check_module_axiom(mod, window).describe() == report.describe()
    return symbolic


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


@pytest.mark.parametrize(
    "rho,passes",
    [(Fraction(1, 2), False), (Fraction(1), True)],
    ids=["rho-1/2", "rho-b-bp"],
)
def test_aabc1c2_with_split_slopes_and_a_dead_chain(rho, passes):
    # residual is c1*p*(b - bp - rho) on the integer chain; c2 = 0 kills the other
    mod = make_module("Aabc1c2", a=Fraction(1, 3), b=2, bp=1, c1=5, c2=0, rho=rho)
    assert assert_same_module_verdict(mod, 2) is passes


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
