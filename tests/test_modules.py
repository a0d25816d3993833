"""Tests for weight modules and their window checks."""

import random
from fractions import Fraction

import pytest

from virkit.algebras import (
    MAX_WINDOW,
    BasisElement,
    Element,
    basis_degrees,
    lattice_points,
    make_algebra,
)
from virkit.errors import ParameterError
from virkit.modules import (
    MODULE_KINDS,
    MissingIndices,
    WeightVector,
    act,
    act_basis,
    check_module_axiom,
    check_window_cyclic,
    make_module,
    module_indices,
    reachable_indices,
    simplicity_criterion,
)

HALF = Fraction(1, 2)


def L(n):
    return BasisElement("L", Fraction(n))


def Y(p):
    return BasisElement("Y", Fraction(p))


def v(i, coeff=1):
    return WeightVector.basis(Fraction(i), Fraction(coeff))


# -- construction ----------------------------------------------------------------


def test_make_module_hosts():
    assert make_module("Aab", a=HALF, b=0).host.label() == "Vir"
    assert make_module("Aabc", a=0, b=1, c=2, rho=1).host.label() == "W(1)[0]"
    mod = make_module("Aabc1c2", a=0, b=1, c1=1, c2=1, rho=HALF)
    assert mod.host.label() == "W(1/2)[1/2]"
    assert mod.bp == 1


def test_make_module_normalises_integer_a():
    assert make_module("Aab", a=3, b=2).a == 0
    assert make_module("Aab", a=HALF, b=2).a == HALF
    assert make_module("Aabc", a=-7, b=0, c=1, rho=0).a == 0
    # the distinguished index of Aa and Ba is pinned, so a stays put
    assert make_module("Aa", a=3).a == 3
    assert make_module("Ba", a=-2).a == -2


def test_make_module_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        make_module("Nope", a=1)
    with pytest.raises(ParameterError):
        make_module("Aab", a=1)
    with pytest.raises(ParameterError):
        make_module("Aab", a=1, b=2, c=3)
    with pytest.raises(ParameterError):
        make_module("Aab", a=1, b=2, rho=0)
    with pytest.raises(ParameterError):
        make_module("Aa", a=1, b=2)
    with pytest.raises(ParameterError):
        make_module("Aabc", a=1, b=2, c=3)
    with pytest.raises(ParameterError):
        make_module("Aabc", a=1, b=2, c=3, rho=-1)
    with pytest.raises(ParameterError):
        make_module("Aabc1c2", a=1, b=2, c1=1, c2=1)


def test_module_label():
    mod = make_module("Aabc", a=Fraction(1, 3), b=2, c=5, rho=1)
    assert mod.label() == "Aabc(a=1/3, b=2, c=5) over W(1)[0]"


# -- actions ----------------------------------------------------------------------


def test_aab_action():
    mod = make_module("Aab", a=HALF, b=0)
    assert act_basis(mod, L(1), 0) == (HALF, Fraction(1))
    mod = make_module("Aab", a=0, b=1)
    assert act_basis(mod, L(2), 1) == (Fraction(3), Fraction(3))
    assert act(mod, L(2), v(1)) == v(3, 3)


def test_aa_action():
    mod = make_module("Aa", a=3)
    assert act_basis(mod, L(2), 1) == (Fraction(3), Fraction(3))
    assert act_basis(mod, L(2), 0) == (Fraction(10), Fraction(2))
    assert act_basis(mod, L(-1), 1) == (Fraction(0), Fraction(0))


def test_ba_action():
    mod = make_module("Ba", a=3)
    assert act_basis(mod, L(2), -2) == (Fraction(-10), Fraction(0))
    assert act_basis(mod, L(2), 1) == (Fraction(1), Fraction(3))
    assert act_basis(mod, L(1), 0) == (Fraction(0), Fraction(1))


def test_aabc_action():
    mod = make_module("Aabc", a=0, b=1, c=4, rho=2)
    assert act_basis(mod, Y(3), 1) == (Fraction(4), Fraction(4))
    zero_c = make_module("Aabc", a=0, b=1, c=0, rho=2)
    assert act(zero_c, Y(3), v(1)).is_zero()


def test_aabc1c2_action():
    mod = make_module("Aabc1c2", a=0, b=0, bp=1, c1=2, c2=3, rho=0)
    assert act_basis(mod, Y(HALF), 0) == (Fraction(2), HALF)
    assert act_basis(mod, Y(HALF), HALF) == (Fraction(3), Fraction(1))
    # slope b on the integer chain, bp on the shifted chain
    assert act_basis(mod, L(2), 1) == (Fraction(1), Fraction(3))
    assert act_basis(mod, L(2), HALF) == (HALF + 2, HALF + 2)


def test_action_rejects_off_lattice_indices():
    mod = make_module("Aab", a=0, b=0)
    with pytest.raises(ParameterError):
        act_basis(mod, L(1), HALF)
    half = make_module("Aabc1c2", a=0, b=0, c1=1, c2=1, rho=0)
    act_basis(half, L(1), HALF)
    with pytest.raises(ParameterError):
        act_basis(half, L(1), Fraction(1, 3))


def test_action_rejects_foreign_families():
    mod = make_module("Aab", a=0, b=0)
    with pytest.raises(ParameterError):
        act_basis(mod, Y(1), 0)
    with pytest.raises(ParameterError):
        act_basis(mod, BasisElement("M", Fraction(1)), 0)


def test_act_is_linear():
    mod = make_module("Aabc", a=Fraction(1, 3), b=2, c=5, rho=1)
    x = Element.from_basis(L(1), 2) + Element.from_basis(Y(-1), Fraction(1, 2))
    vec = v(0) + v(2, -3)
    expected = (
        2 * act(mod, L(1), vec)
        + Fraction(1, 2) * act(mod, Y(-1), vec)
    )
    assert act(mod, x, vec) == expected


def test_weight_vector_str():
    assert str(v(0) + v(HALF, Fraction(-3, 2))) == "v_0 + (-3/2)*v_1/2"
    assert str(WeightVector.zero()) == "0"
    assert str(v(-2, 7)) == "(7)*v_-2"


def test_weight_vector_index_must_be_exact():
    for bad in (0.1, 2.0, "3"):
        with pytest.raises(ValueError):
            WeightVector.basis(bad)
    assert WeightVector.basis(3) == v(3)
    assert str(WeightVector.basis(Fraction(-1, 2), 4)) == "(4)*v_-1/2"


def test_module_indices():
    mod = make_module("Aab", a=0, b=0)
    assert module_indices(mod, 2) == [Fraction(z) for z in (-2, -1, 0, 1, 2)]
    half = make_module("Aabc1c2", a=0, b=0, c1=1, c2=1, rho=0)
    assert module_indices(half, Fraction(3, 2)) == [
        Fraction(-3, 2),
        Fraction(-1),
        Fraction(-1, 2),
        Fraction(0),
        Fraction(1, 2),
        Fraction(1),
        Fraction(3, 2),
    ]


# -- module axiom -----------------------------------------------------------------


def random_fraction(rng, span=6, den=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def test_module_axiom_holds_for_vir_families():
    rng = random.Random(20240820)
    for _ in range(6):
        mod = make_module("Aab", a=random_fraction(rng), b=random_fraction(rng))
        assert check_module_axiom(mod, 3).passed
    for _ in range(6):
        assert check_module_axiom(make_module("Aa", a=random_fraction(rng)), 3).passed
        assert check_module_axiom(make_module("Ba", a=random_fraction(rng)), 3).passed


def test_module_axiom_holds_for_w_families_at_admissible_parameters():
    rng = random.Random(20240821)
    for _ in range(4):
        mod = make_module(
            "Aabc",
            a=random_fraction(rng),
            b=random_fraction(rng),
            c=random_fraction(rng),
            rho=0,
        )
        assert check_module_axiom(mod, 3).passed
    for _ in range(4):
        b = random_fraction(rng)
        mod = make_module(
            "Aabc1c2",
            a=random_fraction(rng),
            b=b,
            bp=b,
            c1=random_fraction(rng),
            c2=random_fraction(rng),
            rho=0,
        )
        assert check_module_axiom(mod, 3).passed


def test_module_axiom_violations_record_the_defect():
    mod = make_module("Aabc", a=Fraction(1, 3), b=2, c=5, rho=1)
    report = check_module_axiom(mod, 3)
    assert not report.passed
    by_inputs = {}
    for violation in report.violations:
        x, y, vec = violation.inputs
        assert {x.family, y.family} == {"L", "Y"}
        m = x.degree if x.family == "L" else y.degree
        assert m != 0
        by_inputs[(str(x), str(y), str(vec))] = violation.residual
    # [L_2, Y_1] applied to v_0 versus the composed actions leaves -rho*c*m = -10
    assert by_inputs[("L_2", "Y_1", "v_0")] == v(3, -10)
    assert by_inputs[("Y_1", "L_2", "v_0")] == v(3, 10)


def test_module_axiom_violation_shape_for_half_family():
    mod = make_module("Aabc1c2", a=0, b=0, bp=1, c1=2, c2=3, rho=0)
    report = check_module_axiom(mod, 2)
    assert not report.passed
    lookup = {tuple(str(t) for t in viol.inputs): viol.residual for viol in report.violations}
    # residual -m*(rho + bp - b)*c1 on the integer chain
    assert lookup[("L_1", "Y_1/2", "v_0")] == v(Fraction(3, 2), -2)
    # residual -m*(rho + b - bp)*c2 on the shifted chain
    assert lookup[("L_1", "Y_1/2", "v_1/2")] == v(2, 3)


# -- cyclicity --------------------------------------------------------------------


def test_cyclicity_distinguishes_the_pinned_vector():
    mod = make_module("Aab", a=0, b=0)
    report = check_window_cyclic(mod, 4)
    assert not report.passed
    assert len(report.violations) == 1
    (violation,) = report.violations
    assert str(violation.inputs[0]) == "v_0"
    assert violation.residual == MissingIndices([-2, -1, 1, 2])


def test_cyclicity_missing_target_zero():
    mod = make_module("Aab", a=0, b=1)
    report = check_window_cyclic(mod, 4)
    assert not report.passed
    assert len(report.violations) == 4
    for violation in report.violations:
        assert str(violation.inputs[0]) != "v_0"
        assert violation.residual == MissingIndices([0])


def test_cyclicity_ba_zero_vector_is_stuck():
    report = check_window_cyclic(make_module("Ba", a=3), 4)
    bad = {str(violation.inputs[0]) for violation in report.violations}
    assert bad == {"v_0"}


def test_cyclicity_full_when_simple():
    assert check_window_cyclic(make_module("Aab", a=HALF, b=0), 4).passed
    assert check_window_cyclic(make_module("Aab", a=0, b=2), 4).passed
    assert check_window_cyclic(make_module("Aabc", a=0, b=0, c=1, rho=1), 4).passed
    mod = make_module("Aabc1c2", a=0, b=0, c1=1, c2=2, rho=0)
    assert check_window_cyclic(mod, 4).passed


def test_reachable_indices_examples():
    mod = make_module("Aab", a=0, b=0)
    assert reachable_indices(mod, 0, 3) == {Fraction(0)}
    assert reachable_indices(mod, 1, 3) == {Fraction(z) for z in range(-3, 4)}
    with pytest.raises(ParameterError):
        reachable_indices(mod, 9, 3)


def test_cyclicity_blocked_lattice_crossing():
    # c2 = 0 strands the shifted chain: nothing maps back to integer indices
    mod = make_module("Aabc1c2", a=0, b=2, c1=1, c2=0, rho=0)
    reached = reachable_indices(mod, HALF, 3)
    assert all(i.denominator == 2 for i in reached)


# -- simplicity -------------------------------------------------------------------


def test_simplicity_criterion():
    assert simplicity_criterion(make_module("Aab", a=HALF, b=7))
    assert not simplicity_criterion(make_module("Aab", a=0, b=0))
    assert not simplicity_criterion(make_module("Aab", a=0, b=1))
    assert simplicity_criterion(make_module("Aab", a=0, b=2))
    assert not simplicity_criterion(make_module("Aab", a=2, b=0))
    assert not simplicity_criterion(make_module("Aabc", a=0, b=1, c=0, rho=1))
    assert simplicity_criterion(make_module("Aabc", a=0, b=1, c=5, rho=1))
    assert simplicity_criterion(make_module("Aabc", a=HALF, b=0, c=0, rho=1))
    assert simplicity_criterion(make_module("Aabc1c2", a=0, b=0, c1=1, c2=1, rho=0))
    assert not simplicity_criterion(make_module("Aabc1c2", a=0, b=0, c1=0, c2=1, rho=0))
    with pytest.raises(ParameterError):
        simplicity_criterion(make_module("Aa", a=1))
    with pytest.raises(ParameterError):
        simplicity_criterion(make_module("Ba", a=1))


# -- the lattice enumerator ----------------------------------------------------------
#
# The three loops that lattice_points replaced, copied as the oracle.


def old_basis_degrees(alg, family, window):
    offset = alg.family_offset(family)
    degrees = []
    low = -window - 1
    for z in range(low, window + 2):
        d = Fraction(z) + offset
        if -window <= d <= window:
            degrees.append(d)
    return degrees


def old_module_indices(mod, bound):
    bound = Fraction(bound)
    out = []
    low = -int(bound) - 1
    high = int(bound) + 2
    for off in mod.index_offsets():
        for z in range(low, high):
            i = Fraction(z) + off
            if -bound <= i <= bound:
                out.append(i)
    out.sort()
    return out


def old_operator_degrees(mod, window):
    host = mod.host
    out = []
    for family in host.families:
        offset = host.family_offset(family)
        for z in range(-2 * window - 1, 2 * window + 2):
            d = Fraction(z) + offset
            if abs(d) <= 2 * window:
                out.append((family, d))
    return out


SAMPLE_MODULES = {
    "Aab": dict(a=Fraction(1, 3), b=2),
    "Aa": dict(a=1),
    "Ba": dict(a=3),
    "Aabc": dict(a=Fraction(1, 3), b=2, c=5, rho=0),
    "Aabc1c2": dict(a=Fraction(1, 3), b=2, bp=HALF, c1=1, c2=0, rho=HALF),
}


def test_lattice_points_match_the_old_loops():
    assert set(SAMPLE_MODULES) == set(MODULE_KINDS)
    algebras = [make_algebra("Vir"), make_algebra("D", rho=2)] + [
        make_algebra(name, rho=rho, s=s)
        for name, rho in (("W", Fraction(1, 2)), ("SV", None))
        for s in (0, HALF)
    ]
    for window in range(MAX_WINDOW + 1):
        for alg in algebras:
            for family in alg.families:
                got = basis_degrees(alg, family, window)
                assert got == old_basis_degrees(alg, family, window)
                assert all(type(d) is Fraction for d in got)
        for kind, params in SAMPLE_MODULES.items():
            mod = make_module(kind, **params)
            for bound in (window, Fraction(window, 2)):
                assert module_indices(mod, bound) == old_module_indices(mod, bound)
            # the operator degrees of the cyclicity oracle (test_identity_engine.py)
            host = mod.host
            degrees = [(f, d) for f in host.families for d in basis_degrees(host, f, 2 * window)]
            assert degrees == old_operator_degrees(mod, window)


def test_lattice_points_at_an_offset():
    assert lattice_points(HALF, Fraction(3, 2)) == [Fraction(z, 2) for z in (-3, -1, 1, 3)]
    assert lattice_points(Fraction(0), Fraction(1, 2)) == [Fraction(0)]
    assert lattice_points(HALF, 0) == []
