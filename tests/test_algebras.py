"""Tests for the structure-constant Lie algebra layer."""

import random
from fractions import Fraction

import pytest

from virkit.algebras import (
    BasisElement,
    Element,
    basis_degrees,
    basis_elements,
    bracket,
    check_antisymmetry,
    check_cocycle,
    check_jacobi,
    cocycle_value,
    make_algebra,
    struct,
)
from virkit.errors import ParameterError
from virkit.poly import MultiPoly

HALF = Fraction(1, 2)


def L(n):
    return BasisElement("L", Fraction(n))


def Y(p):
    return BasisElement("Y", Fraction(p))


def M(n):
    return BasisElement("M", Fraction(n))


# -- construction and validation ------------------------------------------------


def test_make_algebra_labels():
    assert make_algebra("Vir").label() == "Vir"
    assert make_algebra("W", rho=HALF, s=0).label() == "W(1/2)[0]"
    assert make_algebra("W", rho=2, s=HALF).label() == "W(2)[1/2]"
    assert make_algebra("SV", s=HALF).label() == "sv[1/2]"
    assert make_algebra("D", rho=2).label() == "D(2)"


def test_make_algebra_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        make_algebra("W", rho=-1)
    with pytest.raises(ParameterError):
        make_algebra("W", rho=1, s=Fraction(1, 3))
    with pytest.raises(ParameterError):
        make_algebra("W")
    with pytest.raises(ParameterError):
        make_algebra("D", rho=2, s=HALF)
    for bad in (0, -1, -3):
        with pytest.raises(ParameterError):
            make_algebra("D", rho=bad)
    with pytest.raises(ParameterError):
        make_algebra("Vir", rho=1)
    with pytest.raises(ParameterError):
        make_algebra("SV", rho=1)
    with pytest.raises(ParameterError):
        make_algebra("Nope")


# -- bracket values --------------------------------------------------------------


def test_vir_bracket():
    alg = make_algebra("Vir")
    assert bracket(alg, L(2), L(3)) == Element.from_basis(L(5), 1)
    assert bracket(alg, L(3), L(2)) == Element.from_basis(L(5), -1)
    assert bracket(alg, L(1), L(1)).is_zero()


def test_w_half_bracket_kills_matching_degree():
    alg = make_algebra("W", rho=HALF, s=HALF)
    assert bracket(alg, L(1), Y(HALF)).is_zero()
    assert bracket(alg, L(1), Y(Fraction(3, 2))) == Element.from_basis(Y(Fraction(5, 2)), 1)


def test_w_y_commute():
    alg = make_algebra("W", rho=3, s=0)
    assert bracket(alg, Y(1), Y(2)).is_zero()
    assert struct(alg, Y(1), Y(2)) is None


def test_sv_bracket():
    alg = make_algebra("SV", s=0)
    assert bracket(alg, Y(1), Y(2)) == Element.from_basis(M(3), 1)
    assert bracket(alg, L(2), M(3)) == Element.from_basis(M(5), 3)
    assert bracket(alg, L(2), Y(1)).is_zero()
    assert bracket(alg, Y(1), M(2)).is_zero()
    assert bracket(alg, M(1), M(2)).is_zero()


def test_d_bracket():
    alg = make_algebra("D", rho=2)
    assert bracket(alg, L(1), Y(0)) == Element.from_basis(Y(1), Fraction(-3, 2))
    assert bracket(alg, L(1), M(1)) == Element.from_basis(M(2), -1)
    assert bracket(alg, Y(1), Y(4)) == Element.from_basis(M(5), 3)
    assert bracket(alg, Y(1), M(2)).is_zero()


def test_bracket_degree_is_additive():
    rng = random.Random(20240818)
    algebras = [
        make_algebra("Vir"),
        make_algebra("W", rho=Fraction(5, 7), s=HALF),
        make_algebra("SV", s=HALF),
        make_algebra("D", rho=Fraction(1, 2)),
    ]
    for alg in algebras:
        elements = basis_elements(alg, 4)
        for _ in range(200):
            x, y = rng.choice(elements), rng.choice(elements)
            got = struct(alg, x, y)
            if got is None:
                continue
            coeff, basis = got
            assert basis.degree == x.degree + y.degree


def test_bracket_is_bilinear():
    rng = random.Random(20240819)
    alg = make_algebra("D", rho=2)
    elements = basis_elements(alg, 3)

    def random_element():
        out = Element.zero()
        for _ in range(3):
            coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            out = out + coeff * Element.from_basis(rng.choice(elements))
        return out

    for _ in range(40):
        x, y, z = random_element(), random_element(), random_element()
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        left = bracket(alg, a * x + y, z)
        right = a * bracket(alg, x, z) + bracket(alg, y, z)
        assert left == right
        left = bracket(alg, z, a * x + y)
        right = a * bracket(alg, z, x) + bracket(alg, z, y)
        assert left == right


# -- element formatting -----------------------------------------------------------


def test_element_str():
    e = Element.from_basis(L(2), 1) + Element.from_basis(Y(HALF), Fraction(-3, 2))
    assert str(e) == "L_2 + (-3/2)*Y_1/2"
    assert str(Element.zero()) == "0"
    assert str(Element.from_basis(M(-1), 4)) == "(4)*M_-1"


def test_basis_element_degree_must_be_exact():
    for bad in (0.1, 2.0, "3"):
        with pytest.raises(ValueError):
            BasisElement("L", bad)
    assert str(BasisElement("L", 3)) == "L_3"
    assert str(BasisElement("Y", Fraction(-1, 2))) == "Y_-1/2"
    symbolic = BasisElement("Y", MultiPoly.var("p") + Fraction(1, 2))
    assert symbolic.degree.constant_term() == Fraction(1, 2)


# -- basis enumeration ------------------------------------------------------------


def test_basis_degrees_integer_and_shifted():
    alg = make_algebra("W", rho=1, s=HALF)
    assert basis_degrees(alg, "L", 2) == [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    assert basis_degrees(alg, "Y", 2) == [
        Fraction(-3, 2),
        Fraction(-1, 2),
        Fraction(1, 2),
        Fraction(3, 2),
    ]
    names = [str(b) for b in basis_elements(alg, 1)]
    assert names == ["L_-1", "L_0", "L_1", "Y_-1/2", "Y_1/2"]


# -- window checks ----------------------------------------------------------------


ALGEBRA_SAMPLE = [
    make_algebra("Vir"),
    make_algebra("W", rho=0, s=0),
    make_algebra("W", rho=1, s=0),
    make_algebra("W", rho=Fraction(5, 7), s=HALF),
    make_algebra("SV", s=0),
    make_algebra("SV", s=HALF),
    make_algebra("D", rho=2),
    make_algebra("D", rho=Fraction(-1, 2)),
]


@pytest.mark.parametrize("alg", ALGEBRA_SAMPLE, ids=lambda a: a.label())
def test_antisymmetry_window(alg):
    report = check_antisymmetry(alg, 3)
    assert report.passed
    assert report.violations == []


@pytest.mark.parametrize("alg", ALGEBRA_SAMPLE, ids=lambda a: a.label())
def test_jacobi_window(alg):
    report = check_jacobi(alg, 3)
    assert report.passed
    assert report.violations == []


def test_check_rejects_negative_window():
    alg = make_algebra("Vir")
    with pytest.raises(ParameterError):
        check_jacobi(alg, -1)
    with pytest.raises(ParameterError):
        check_antisymmetry(alg, -2)


# -- cocycles ---------------------------------------------------------------------


def test_cocycle_values():
    assert cocycle_value("gamma0", L(2), L(-2)) == HALF
    assert cocycle_value("gamma0", L(1), L(-1)) == 0
    assert cocycle_value("gamma0", L(2), L(3)) == 0
    assert cocycle_value("gamma02", Y(1), Y(-1)) == -1
    assert cocycle_value("gamma02", Y(-3), Y(3)) == 3
    assert cocycle_value("gamma01", L(2), Y(-2)) == 2
    assert cocycle_value("gamma01", Y(-2), L(2)) == -2
    assert cocycle_value("gamma11", L(2), Y(-2)) == HALF
    assert cocycle_value("gamma11", Y(-2), L(2)) == -HALF
    assert cocycle_value("gamma01", L(2), Y(1)) == 0
    assert cocycle_value("gamma0", L(2), Y(-2)) == 0
    with pytest.raises(ParameterError):
        cocycle_value("gamma99", L(1), L(-1))


def test_cocycle_antisymmetry_on_support():
    for name in ("gamma0", "gamma01", "gamma02", "gamma11"):
        for m in range(-4, 5):
            for fx, fy in (("L", "L"), ("L", "Y"), ("Y", "L"), ("Y", "Y")):
                x = BasisElement(fx, Fraction(m))
                y = BasisElement(fy, Fraction(-m))
                assert cocycle_value(name, x, y) == -cocycle_value(name, y, x)


@pytest.mark.parametrize(
    "name,rho",
    [("gamma0", 0), ("gamma0", 1), ("gamma01", 0), ("gamma02", 0), ("gamma11", 1)],
)
def test_cocycle_identity_window(name, rho):
    alg = make_algebra("W", rho=rho, s=0)
    report = check_cocycle(name, alg, 4)
    assert report.passed


def test_cocycle_gating():
    with pytest.raises(ParameterError):
        check_cocycle("gamma0", make_algebra("W", rho=2, s=0), 3)
    with pytest.raises(ParameterError):
        check_cocycle("gamma01", make_algebra("W", rho=1, s=0), 3)
    with pytest.raises(ParameterError):
        check_cocycle("gamma11", make_algebra("W", rho=0, s=0), 3)
    with pytest.raises(ParameterError):
        check_cocycle("gamma0", make_algebra("W", rho=0, s=HALF), 3)
    with pytest.raises(ParameterError):
        check_cocycle("gamma0", make_algebra("Vir"), 3)
    with pytest.raises(ParameterError):
        check_cocycle("gammaX", make_algebra("W", rho=0, s=0), 3)
