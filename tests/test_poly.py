"""Ring, division, evaluation, determinant, and text-form checks for MultiPoly."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virkit.algebras import BasisElement, Element
from virkit.modules import WeightVector
from virkit.poly import (
    ALPHABET,
    Combination,
    MultiPoly,
    canonical_string,
    det3,
    parse_poly,
    poly_divrem,
    univariate_gcd,
    univariate_value,
)

V = {name: MultiPoly.var(name) for name in ALPHABET}
ONE = MultiPoly.const(1)
ZERO = MultiPoly.zero()


# -- strategies / random generators ------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


@st.composite
def polys(draw, max_terms=6, max_exp=3, nvars=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = [0] * len(ALPHABET)
        for i in range(nvars):
            exps[i] = draw(st.integers(0, max_exp))
        terms[tuple(exps)] = draw(rationals)
    return MultiPoly(terms)


def random_poly(rng, nvars=4, max_terms=6, max_exp=3):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = [0] * len(ALPHABET)
        for i in range(nvars):
            exps[i] = rng.randrange(max_exp + 1)
        terms[tuple(exps)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
    return MultiPoly(terms)


def random_point(rng):
    return {
        name: Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
        for name in ALPHABET
    }


# -- construction and simple identities ---------------------------------------


def test_sum_of_opposites_is_zero():
    m = V["m"]
    assert (m + (-m)).is_zero()
    assert m - m == ZERO


def test_difference_of_squares():
    b, bp = V["b"], V["bp"]
    assert (b - bp) * (b + bp) == b**2 - bp**2


def test_integer_scalars_coerce():
    m = V["m"]
    assert 2 * m - m - m == ZERO
    assert (m + 1) * (m - 1) == m**2 - 1


def test_power_by_squaring():
    m = V["m"]
    assert m**6 == m * m * m * m * m * m
    assert (m + 1) ** 0 == ONE
    assert ZERO**0 == ONE


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        V["m"] ** (-1)
    with pytest.raises(ValueError):
        V["m"] ** Fraction(1, 2)  # type: ignore[operator]


def test_unknown_variable_rejected():
    with pytest.raises(ValueError):
        MultiPoly.var("q")


# -- evaluation ---------------------------------------------------------------


def test_evaluate_cubic():
    m = V["m"]
    poly = m**3 - m
    assert poly.evaluate({"m": 2}) == 6
    assert poly.evaluate({"m": Fraction(1, 2)}) == Fraction(-3, 8)


def test_evaluate_zero_poly():
    assert ZERO.evaluate({}) == 0


def test_evaluate_linear_factor_point():
    poly = V["bp"] - V["b"] + V["rho"]
    value = poly.evaluate({"b": 0, "bp": Fraction(1, 2), "rho": Fraction(1, 2)})
    assert value == 1


def test_evaluate_requires_all_occurring_variables():
    poly = V["m"] + V["k"]
    with pytest.raises(ValueError):
        poly.evaluate({"m": 1})
    # unused variables need no assignment
    assert poly.evaluate({"m": 1, "k": 2}) == 3


@settings(max_examples=100, deadline=None)
@given(polys(), polys())
def test_evaluate_is_multiplicative(x, y):
    point = {name: Fraction(3, 2) if i % 2 else Fraction(-2, 3) for i, name in enumerate(ALPHABET)}
    assert (x * y).evaluate(point) == x.evaluate(point) * y.evaluate(point)


# -- ring axioms (property tests) ---------------------------------------------


@settings(max_examples=100, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x * ZERO == ZERO


# -- packed integer product against the schoolbook product --------------------


def schoolbook_product(x, y):
    """Reference product: tuple keys, Fraction coefficients, no packing."""
    out = {}
    for e1, c1 in x.terms().items():
        for e2, c2 in y.terms().items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            out[exps] = out.get(exps, Fraction(0)) + c1 * c2
    return {exps: coeff for exps, coeff in out.items() if coeff}


def assert_product_matches_schoolbook(x, y):
    product = (x * y).terms()
    assert product == schoolbook_product(x, y)
    assert all(type(exps) is tuple and len(exps) == len(ALPHABET) for exps in product)
    assert all(all(type(e) is int for e in exps) for exps in product)
    assert all(type(coeff) is Fraction and coeff for coeff in product.values())


@settings(max_examples=200, deadline=None)
@given(polys(max_terms=6, max_exp=4, nvars=9), polys(max_terms=6, max_exp=4, nvars=9))
def test_product_matches_schoolbook(x, y):
    assert_product_matches_schoolbook(x, y)
    # (x + y)(x - y): the cross terms cancel, and x == y cancels everything
    assert_product_matches_schoolbook(x + y, x - y)
    assert_product_matches_schoolbook(x, x - x)
    assert_product_matches_schoolbook(ZERO, y)


def test_product_with_exponents_past_16_bits():
    big = 2**16
    one = (0,) * (len(ALPHABET) - 1)
    x = MultiPoly({(big, *one): Fraction(1, 3), (*one, big - 1): -2, (0, big + 5, *one[1:]): Fraction(5, 7)})
    y = MultiPoly({(*one, big - 1): Fraction(3, 4), (1, *one): 1, (0, 3, *one[1:]): Fraction(-1, 6)})
    assert_product_matches_schoolbook(x, y)
    assert_product_matches_schoolbook(x, x)
    assert (x * y).degree_in("c") == 2 * big - 2
    assert (x * x).degree_in("b") == 2 * big + 10


# -- substitution ---------------------------------------------------------------


def test_substitute_variable_for_variable():
    poly = V["bp"] ** 2 - V["b"] * V["bp"]
    assert poly.substitute({"bp": V["b"]}) == ZERO


def test_substitute_scalar():
    poly = V["m"] ** 2 + V["p"]
    assert poly.substitute({"m": 3}) == V["p"] + 9


@settings(max_examples=60, deadline=None)
@given(polys(max_terms=4, max_exp=2), polys(max_terms=3, max_exp=2))
def test_substitute_commutes_with_evaluation(x, image):
    point = {name: Fraction(i - 4, 3) for i, name in enumerate(ALPHABET)}
    substituted = x.substitute({"a": image})
    shifted = dict(point)
    shifted["a"] = image.evaluate(point)
    assert substituted.evaluate(point) == x.evaluate(shifted)


def substitute_by_products(poly, images):
    """Reference substitute: each term becomes a one-term MultiPoly times every image power."""
    scalars = {ALPHABET.index(n): Fraction(v) for n, v in images.items() if not isinstance(v, MultiPoly)}
    repl = {ALPHABET.index(n): v for n, v in images.items() if isinstance(v, MultiPoly)}
    total = {}
    for exps, coeff in poly.terms().items():
        kept = list(exps)
        for i in (*scalars, *repl):
            kept[i] = 0
        for i, value in scalars.items():
            coeff *= value ** exps[i]
        term = MultiPoly({tuple(kept): coeff})
        for i, image in repl.items():
            term = term * image ** exps[i]
        for e, c in term.terms().items():
            total[e] = total.get(e, Fraction(0)) + c
    return MultiPoly(total)


substitutions = st.dictionaries(
    st.sampled_from(ALPHABET[:5]),
    st.one_of(rationals, st.integers(-3, 3), polys(max_terms=3, max_exp=2)),
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(polys(max_terms=6, max_exp=3, nvars=5), substitutions)
def test_substitute_matches_per_term_products(x, images):
    got = x.substitute(images)
    want = substitute_by_products(x, images)
    assert got == want
    assert canonical_string(got) == canonical_string(want)


# -- division -------------------------------------------------------------------


def test_divrem_exact_monomial():
    q, r = poly_divrem(V["m"] ** 6 * V["b"], V["m"])
    assert r == ZERO
    assert q == V["m"] ** 5 * V["b"]


def test_divrem_difference_of_squares():
    q, r = poly_divrem(V["b"] ** 2 - V["bp"] ** 2, V["b"] - V["bp"])
    assert r == ZERO
    assert q == V["b"] + V["bp"]


def test_divrem_zero_divisor_rejected():
    with pytest.raises(ValueError):
        poly_divrem(V["m"], ZERO)


@settings(max_examples=100, deadline=None)
@given(polys(), polys(max_terms=3, max_exp=2))
def test_divrem_identity(x, d):
    if d.is_zero():
        return
    q, r = poly_divrem(x, d)
    assert q * d + r == x
    if not r.is_zero():
        d_exps, _ = d.leading_term()
        for exps in r.terms():
            assert not all(a >= b for a, b in zip(exps, d_exps))


def divrem_by_max(x, d):
    """Reference division: pick the leading work term by max() at every step."""
    d_exps, d_coeff = d.leading_term()
    quotient, remainder = {}, {}
    work = x.terms()
    while work:
        exps = max(work, key=lambda e: (sum(e), e))
        coeff = work.pop(exps)
        if all(a >= b for a, b in zip(exps, d_exps)):
            t_exps = tuple(a - b for a, b in zip(exps, d_exps))
            t_coeff = coeff / d_coeff
            quotient[t_exps] = quotient.get(t_exps, Fraction(0)) + t_coeff
            for e2, c2 in d.terms().items():
                if e2 == d_exps:
                    continue
                prod = tuple(a + b for a, b in zip(t_exps, e2))
                acc = work.get(prod, Fraction(0)) - t_coeff * c2
                if acc:
                    work[prod] = acc
                else:
                    work.pop(prod, None)
        else:
            remainder[exps] = coeff
    return quotient, remainder


@settings(max_examples=150, deadline=None)
@given(polys(), polys(max_terms=4, max_exp=2), polys(max_terms=3, max_exp=2))
def test_divrem_matches_max_based_division(x, d, r):
    if d.is_zero():
        return
    # x and x * d + r: the second cancels terms in mid-division
    for dividend in (x, x * d + r):
        q, rem = poly_divrem(dividend, d)
        ref_q, ref_r = divrem_by_max(dividend, d)
        assert list(q.terms().items()) == list(ref_q.items())
        assert list(rem.terms().items()) == list(ref_r.items())


def test_scalar_division():
    m, rho = V["m"], V["rho"]
    assert m / 2 == Fraction(1, 2) * m
    assert (m**3 - m) / 12 == parse_poly("(1/12)*m^3 + (-1/12)*m")
    assert (rho + 1) / 2 * m == parse_poly("(1/2)*rho*m + (1/2)*m")
    assert (m + 1) / Fraction(-2, 3) == Fraction(-3, 2) * m - Fraction(3, 2)
    assert ZERO / 5 == ZERO


def test_scalar_division_rejects_zero_and_polynomials():
    m = V["m"]
    for bad in (0, Fraction(0), m, ONE):
        with pytest.raises(ValueError):
            m / bad
    with pytest.raises(ValueError):
        m / 0.5
    with pytest.raises(TypeError):
        Fraction(1) / m


@settings(max_examples=50, deadline=None)
@given(polys(), rationals)
def test_scalar_division_inverts_multiplication(x, c):
    if c == 0:
        return
    assert (x / c) * c == x
    assert (x * c) / c == x


def test_constant_term():
    assert parse_poly("m^2 + (3/2)").constant_term() == Fraction(3, 2)
    assert V["m"].constant_term() == 0
    assert ZERO.constant_term() == 0


# -- determinant ------------------------------------------------------------------


def test_det3_identity_matrix():
    rows = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    assert det3(rows) == ONE


def test_det3_diagonal():
    x, y, z = V["a"], V["b"], V["c"]
    rows = [[x, ZERO, ZERO], [ZERO, y, ZERO], [ZERO, ZERO, z]]
    assert det3(rows) == x * y * z


def test_det3_swapped_rows_flip_sign():
    rng = random.Random(7)
    rows = [[random_poly(rng) for _ in range(3)] for _ in range(3)]
    swapped = [rows[1], rows[0], rows[2]]
    assert det3(swapped) == -det3(rows)


def test_det3_shape_validated():
    with pytest.raises(ValueError):
        det3([[ONE, ONE], [ONE, ONE]])


def test_det3_matches_numeric_determinant_at_random_points():
    # independent oracle: evaluate entries first, then take a plain 3x3
    # numeric determinant over Fractions
    rng = random.Random(20240817)
    rows = [[random_poly(rng, nvars=5, max_terms=4, max_exp=2) for _ in range(3)] for _ in range(3)]
    symbolic = det3(rows)
    for _ in range(120):
        point = random_point(rng)
        nums = [[entry.evaluate(point) for entry in row] for row in rows]
        numeric = (
            nums[0][0] * (nums[1][1] * nums[2][2] - nums[1][2] * nums[2][1])
            - nums[0][1] * (nums[1][0] * nums[2][2] - nums[1][2] * nums[2][0])
            + nums[0][2] * (nums[1][0] * nums[2][1] - nums[1][1] * nums[2][0])
        )
        assert symbolic.evaluate(point) == numeric


# -- canonical text form ------------------------------------------------------------


def test_canonical_string_examples():
    m = V["m"]
    assert canonical_string(ZERO) == "0"
    assert canonical_string(m**3 - m) == "m^3 + (-1)*m"
    assert canonical_string(Fraction(1, 12) * m**3) == "(1/12)*m^3"
    assert canonical_string(m + 1) == "m + (1)"
    assert canonical_string(V["a"] * V["b"] ** 2 - 2) == "a*b^2 + (-2)"


def test_canonical_string_descending_grlex():
    poly = V["b"] ** 2 - V["bp"] ** 2 + V["b"]
    assert canonical_string(poly) == "b^2 + (-1)*bp^2 + b"


def test_parse_rejects_garbage():
    for bad in ["", "m +", "1*m", "(1/0)", "q^2", "m^-1", "m**2"]:
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_poly(bad)


@settings(max_examples=150, deadline=None)
@given(polys(max_terms=8, max_exp=4, nvars=9))
def test_canonical_string_round_trip(x):
    assert parse_poly(canonical_string(x)) == x


def test_leading_term_grlex():
    poly = V["b"] + V["bp"] + V["rho"]
    exps, coeff = poly.leading_term()
    assert coeff == 1
    assert MultiPoly({exps: 1}) == V["b"]
    with pytest.raises(ValueError):
        ZERO.leading_term()


# -- univariate gcd ------------------------------------------------------------

F = Fraction


def _times(f, g):
    out = [F(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def test_univariate_gcd_finds_common_linear_factor():
    factor = [F(-1, 2), F(1)]  # x - 1/2
    f = _times(factor, [F(3), F(0), F(1)])  # (x - 1/2)(x^2 + 3)
    g = _times([F(-2), F(2, 3)], [F(5), F(1)])  # (2/3)(x - 3) (x + 5)
    h = _times([F(7), F(-14)], [F(1), F(1)])  # -14 (x - 1/2) (x + 1)
    assert univariate_gcd(f, h) == factor
    assert univariate_gcd(f, h, _times(factor, [F(4)])) == factor
    assert univariate_gcd(f, g) == [F(1)]
    assert univariate_value(f, F(1, 2)) == 0 and univariate_value(f, 0) == F(-3, 2)


def test_univariate_gcd_coprime_inputs():
    assert univariate_gcd([1, 0, 1], [-1, 1]) == [F(1)]  # x^2 + 1 and x - 1
    assert univariate_gcd([0, 0, 1], [1, 1]) == [F(1)]
    assert univariate_gcd([0, 0, 3], [0, 6]) == [F(0), F(1)]


def test_univariate_gcd_zero_inputs():
    assert univariate_gcd() == []
    assert univariate_gcd([]) == []
    assert univariate_gcd([0, 0], [F(0)]) == []
    assert univariate_gcd([], [F(2), F(-4)]) == [F(-1, 2), F(1)]
    assert univariate_gcd([F(2), F(-4), 0], []) == [F(-1, 2), F(1)]


def test_univariate_gcd_constant_inputs():
    assert univariate_gcd([5]) == [F(1)]
    assert univariate_gcd([F(-1, 3)], [1, 2, 1]) == [F(1)]
    assert univariate_gcd([1, 2, 1], [F(7)], []) == [F(1)]
    assert univariate_gcd([], [0], [F(2)]) == [F(1)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(rationals, min_size=1, max_size=3),
    st.lists(rationals, min_size=1, max_size=3),
    st.lists(rationals, min_size=1, max_size=3),
)
def test_univariate_gcd_is_a_monic_common_multiple_of_the_factor(common, f, g):
    fc, gc = _times(common, f), _times(common, g)
    result = univariate_gcd(fc, gc)
    assert result == univariate_gcd(gc, fc)
    if not any(fc) and not any(gc):
        assert result == []
        return
    assert result[-1] == 1
    # result divides both inputs, and the shared factor divides result
    assert univariate_gcd(fc, result) == result == univariate_gcd(gc, result)
    if any(common):
        assert univariate_gcd(common, result) == univariate_gcd(common)


# -- the shared linear-combination base ------------------------------------------

# One-term combination of each kind, given its coefficient.
ONE_TERM = {
    "Element": lambda coeff: Element.from_basis(BasisElement("L", Fraction(2)), coeff),
    "WeightVector": lambda coeff: WeightVector.basis(Fraction(1, 2), coeff),
    "MultiPoly": lambda coeff: MultiPoly({(0, 1, 0, 0, 0, 0, 2, 0, 0): coeff}),
}


@pytest.mark.parametrize("kind", list(ONE_TERM))
def test_combinations_share_exactness_truthiness_and_equality(kind):
    make = ONE_TERM[kind]
    x = make(Fraction(-3, 4))
    assert isinstance(x, Combination)
    for bad in (0.1, 0.5, 2.0):
        with pytest.raises(ValueError):
            make(bad)
        with pytest.raises(ValueError):
            bad * x
    zero = type(x).zero()
    assert not zero and zero.is_zero()
    assert not (x - x) and not make(0) and not 0 * x
    assert x and not x.is_zero()
    assert x + x == Fraction(2) * x == make(Fraction(-3, 2))
    assert -x == make(Fraction(3, 4)) and hash(-x) == hash(make(Fraction(3, 4)))
    for other in ONE_TERM:
        if other != kind:
            assert x != ONE_TERM[other](Fraction(-3, 4))
            assert zero != type(ONE_TERM[other](1)).zero()
    assert Element.zero() != WeightVector.zero()


def test_combinations_share_one_term_format():
    coeffs = (1, 4, Fraction(-3, 2))
    assert [str(ONE_TERM["Element"](c)) for c in coeffs] == ["L_2", "(4)*L_2", "(-3/2)*L_2"]
    assert [str(ONE_TERM["WeightVector"](c)) for c in coeffs] == [
        "v_1/2", "(4)*v_1/2", "(-3/2)*v_1/2"
    ]
    assert [str(ONE_TERM["MultiPoly"](c)) for c in coeffs] == ["b*m^2", "(4)*b*m^2", "(-3/2)*b*m^2"]
    assert [str(MultiPoly.const(c)) for c in coeffs] == ["(1)", "(4)", "(-3/2)"]
