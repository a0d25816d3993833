"""Sparse multivariate polynomials over exact rationals.

A polynomial is a mapping from dense exponent tuples to nonzero Fraction
coefficients, over the fixed variable alphabet

    a < b < bp < rho < p < k < m < n < c

(one slot per variable, in that order).  The monomial order is graded
lexicographic: compare total degree first, then the exponent tuples in
alphabet order.  Output ("canonical string") lists terms in descending
order and is bit-exact, so polynomial identities can be frozen as text.

MultiPoly is one kind of Combination, the sparse linear-combination base
that algebra elements and module weight vectors share.
"""

from __future__ import annotations

import re
from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from .rationals import format_rational

Rational = Fraction

ALPHABET: tuple[str, ...] = ("a", "b", "bp", "rho", "p", "k", "m", "n", "c")
_SLOT = {name: i for i, name in enumerate(ALPHABET)}
_NVARS = len(ALPHABET)
_ZERO_EXP = (0,) * _NVARS

Scalar = Union[int, Fraction]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise ValueError(f"not an exact scalar: {value!r}")


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


def _format_monomial(exps: tuple[int, ...]) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(ALPHABET[i])
        elif e > 1:
            parts.append(f"{ALPHABET[i]}^{e}")
    return "*".join(parts)


class Combination:
    """Immutable finite linear combination: keys with nonzero exact coefficients.

    Subclasses fix the key type and its text form: `_order` sorts the keys
    (descending when `_reverse`), and `_name` writes one key.
    """

    __slots__ = ("_terms", "_hash")

    _order = None
    _reverse = False
    _name = staticmethod(str)

    def __init__(self, terms: Mapping | None = None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff:
                    clean[key] = coeff
        self._terms = clean
        self._hash: int | None = None

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def _wrap(cls, terms: dict):
        """Adopt a dict of nonzero Fraction coefficients without copying it."""
        result = cls.__new__(cls)
        result._terms = terms
        result._hash = None
        return result

    @classmethod
    def bilinear(cls, x: "Combination", y: "Combination", rule):
        """Sum of cx * cy * coeff * target over the term pairs of x and y.

        rule(key_x, key_y) gives (coeff, target), or None for a zero product.
        """
        out: dict = {}
        for kx, cx in x._terms.items():
            for ky, cy in y._terms.items():
                got = rule(kx, ky)
                if got is None:
                    continue
                coeff, target = got
                acc = out.get(target, 0) + cx * cy * coeff
                if acc:
                    out[target] = acc
                else:
                    out.pop(target, None)
        return cls._wrap(out)

    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                del out[key]
        return self._wrap(out)

    def __neg__(self):
        return self._wrap({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar: Scalar):
        scalar = _as_fraction(scalar)
        return self._wrap({k: scalar * c for k, c in self._terms.items()} if scalar else {})

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __str__(self) -> str:
        """Terms joined by " + ": `name`, `(n)*name` or `(n/d)*name`.

        A coefficient of exactly 1 is dropped; a key with an empty name (the
        constant monomial) prints as its coefficient alone.
        """
        if not self._terms:
            return "0"
        pieces = []
        for key in sorted(self._terms, key=self._order, reverse=self._reverse):
            coeff, name = self._terms[key], self._name(key)
            text = f"({format_rational(coeff)})"
            if name:
                text = name if coeff == 1 else f"{text}*{name}"
            pieces.append(text)
        return " + ".join(pieces)

    __repr__ = __str__


class MultiPoly(Combination):
    """Immutable sparse polynomial in the fixed alphabet."""

    __slots__ = ()

    _order = staticmethod(_grlex_key)
    _reverse = True
    _name = staticmethod(_format_monomial)

    # -- constructors ----------------------------------------------------

    @classmethod
    def const(cls, value: Scalar) -> "MultiPoly":
        value = _as_fraction(value)
        return cls({_ZERO_EXP: value}) if value else cls()

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        if name not in _SLOT:
            raise ValueError(f"unknown variable {name!r}; alphabet is {ALPHABET}")
        exps = [0] * _NVARS
        exps[_SLOT[name]] = 1
        return cls({tuple(exps): Fraction(1)})

    # -- basic queries ----------------------------------------------------

    def degree_in(self, name: str) -> int:
        """Largest exponent of one variable; -1 for the zero polynomial."""
        if name not in _SLOT:
            raise ValueError(f"unknown variable {name!r}")
        if not self._terms:
            return -1
        i = _SLOT[name]
        return max(e[i] for e in self._terms)

    def variables(self) -> tuple[str, ...]:
        """Variables with a nonzero exponent somewhere, in alphabet order."""
        used = [False] * _NVARS
        for exps in self._terms:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        return tuple(name for i, name in enumerate(ALPHABET) if used[i])

    def constant_term(self) -> Fraction:
        """Coefficient of the constant monomial; 0 when there is none."""
        return self._terms.get(_ZERO_EXP, Fraction(0))

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial."""
        if not self._terms:
            return Fraction(0)
        if set(self._terms) == {_ZERO_EXP}:
            return self._terms[_ZERO_EXP]
        raise ValueError("polynomial is not constant")

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        """Greatest term under the graded-lexicographic order."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self._terms, key=_grlex_key)
        return exps, self._terms[exps]

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        return Combination.__add__(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        return Combination.__sub__(self, _coerce(other))

    def __rsub__(self, other: Scalar) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return Combination.__rmul__(self, other)
        if not self._terms or not other._terms:
            return MultiPoly()
        # Exponent sums stay below 2**width, so adding packed keys never carries.
        top = max(map(max, self._terms)) + max(map(max, other._terms))
        width = top.bit_length() or 1
        xs, dx = _pack(self._terms, width)
        ys, dy = _pack(other._terms, width)
        acc: dict[int, int] = {}
        get = acc.get
        for kx, cx in xs:
            for ky, cy in ys:
                key = kx + ky
                acc[key] = get(key, 0) + cx * cy
        return MultiPoly._wrap(_unpack(acc, width, dx * dy))

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "MultiPoly":
        """Division by a nonzero exact scalar; divide by polynomials with divrem."""
        if isinstance(other, MultiPoly):
            raise ValueError("cannot divide by a polynomial; use divrem")
        other = _as_fraction(other)
        if not other:
            raise ValueError("division by zero")
        return MultiPoly._wrap({e: c / other for e, c in self._terms.items()})

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int):
            raise ValueError("polynomial exponent must be an integer")
        if exponent < 0:
            raise ValueError("negative polynomial exponent")
        result = MultiPoly.const(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        return Combination.__eq__(self, _coerce(other))

    __hash__ = Combination.__hash__

    def __repr__(self) -> str:
        return f"MultiPoly({canonical_string(self)!r})"

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a point; every variable that occurs must be assigned."""
        values: list[Fraction | None] = [None] * _NVARS
        for name, value in assignment.items():
            if name not in _SLOT:
                raise ValueError(f"unknown variable {name!r}")
            values[_SLOT[name]] = _as_fraction(value)
        total = Fraction(0)
        for exps, coeff in self._terms.items():
            term = coeff
            for i, e in enumerate(exps):
                if e:
                    v = values[i]
                    if v is None:
                        raise ValueError(f"variable {ALPHABET[i]!r} is not assigned")
                    term *= v**e
            total += term
        return total

    def integer_rows(self, variables: Sequence[str]) -> tuple[list[tuple[int, ...]], int]:
        """Rows (numerator, exponents of the variables) over one common denominator.

        Every variable that occurs must be one of the variables.
        """
        slots = [ALPHABET.index(v) for v in variables]
        den = lcm(*(c.denominator for c in self._terms.values()))
        rows = [(c.numerator * (den // c.denominator), *(e[j] for j in slots))
                for e, c in self._terms.items()]
        if any(sum(row[1:]) != sum(e) for row, e in zip(rows, self._terms)):
            raise ValueError(f"{self!r} has a variable outside {tuple(variables)}")
        return rows, den

    def substitute(self, images: Mapping[str, "MultiPoly | Scalar"]) -> "MultiPoly":
        """Replace variables by polynomials (or scalars); others stay themselves."""
        scalars: dict[int, Fraction] = {}
        repl: dict[int, MultiPoly] = {}
        for name, image in images.items():
            if name not in _SLOT:
                raise ValueError(f"unknown variable {name!r}")
            if isinstance(image, MultiPoly):
                repl[_SLOT[name]] = image
            else:
                scalars[_SLOT[name]] = _as_fraction(image)
        # The images' product for each combination of replaced exponents, once;
        # each term shifts it by its kept monomial straight into the result.
        products: dict[tuple[int, ...], MultiPoly] = {}
        total: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self._terms.items():
            key = tuple(exps[i] for i in (*scalars, *repl))
            if key not in products:
                factor = Fraction(1)
                for i, value in scalars.items():
                    factor *= value ** exps[i]
                products[key] = MultiPoly.const(factor)
                for i, image in repl.items():
                    products[key] = products[key] * image ** exps[i]
            kept = [0 if i in scalars or i in repl else e for i, e in enumerate(exps)]
            for shift, c in products[key]._terms.items():
                mono = tuple(a + b for a, b in zip(kept, shift))
                total[mono] = total.get(mono, 0) + coeff * c
        return MultiPoly(total)

    # -- division ----------------------------------------------------------

    def divrem(self, divisor: "MultiPoly") -> tuple["MultiPoly", "MultiPoly"]:
        """Single-divisor reduction against the divisor's leading term.

        Returns (q, r) with self == q * divisor + r and no monomial of r
        divisible by the divisor's leading monomial.
        """
        if not isinstance(divisor, MultiPoly) or divisor.is_zero():
            raise ValueError("division by the zero polynomial")
        d_exps, d_coeff = divisor.leading_term()
        tail = [(e, c) for e, c in divisor._terms.items() if e != d_exps]
        quotient: dict[tuple[int, ...], Fraction] = {}
        remainder: dict[tuple[int, ...], Fraction] = {}
        work = dict(self._terms)
        # Every monomial in work is in the grlex-ascending queue, so pop()
        # takes the leading term; entries whose monomial cancelled are stale.
        queue = sorted(work, key=_grlex_key)
        while queue:
            exps = queue.pop()
            coeff = work.pop(exps, None)
            if coeff is None:
                continue
            if all(x >= y for x, y in zip(exps, d_exps)):
                t_exps = tuple(x - y for x, y in zip(exps, d_exps))
                t_coeff = coeff / d_coeff
                quotient[t_exps] = t_coeff
                # subtract t * divisor from the tail; every product is below exps
                for e2, c2 in tail:
                    prod = tuple(x + y for x, y in zip(t_exps, e2))
                    if prod not in work:
                        insort(queue, prod, key=_grlex_key)
                    acc = work.get(prod, Fraction(0)) - t_coeff * c2
                    if acc:
                        work[prod] = acc
                    else:
                        work.pop(prod, None)
            else:
                remainder[exps] = coeff
        return MultiPoly._wrap(quotient), MultiPoly._wrap(remainder)


def _coerce(value: object) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return MultiPoly.const(value)
    return NotImplemented


# -- packed integer products ----------------------------------------------------
#
# A product packs each exponent tuple into one int of _NVARS slots of `width`
# bits, `a` in the most significant slot, and each operand's coefficients into
# integer numerators over one common denominator.


def _pack(terms: Mapping[tuple[int, ...], Fraction], width: int) -> tuple[list, int]:
    """([(packed exponents, numerator)], common denominator)."""
    den = lcm(*(coeff.denominator for coeff in terms.values()))
    packed = []
    for exps, coeff in terms.items():
        key = 0
        for e in exps:
            key = (key << width) | e
        packed.append((key, coeff.numerator * (den // coeff.denominator)))
    return packed, den


def _unpack(acc: Mapping[int, int], width: int, den: int) -> dict[tuple[int, ...], Fraction]:
    """Inverse of _pack over one denominator, dropping zero coefficients."""
    mask = (1 << width) - 1
    shifts = range(width * (_NVARS - 1), -1, -width)
    return {
        tuple([key >> shift & mask for shift in shifts]): Fraction(num, den)
        for key, num in acc.items()
        if num
    }


def poly_divrem(x: MultiPoly, d: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    return x.divrem(d)


def det3(matrix: Iterable[Iterable[MultiPoly]]) -> MultiPoly:
    """Determinant of a 3x3 polynomial matrix by first-row cofactor expansion."""
    rows = [list(row) for row in matrix]
    if len(rows) != 3 or any(len(row) != 3 for row in rows):
        raise ValueError("det3 needs a 3x3 matrix")
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
    return (
        a00 * (a11 * a22 - a12 * a21)
        - a01 * (a10 * a22 - a12 * a20)
        + a02 * (a10 * a21 - a11 * a20)
    )


# -- dense univariate polynomials ---------------------------------------------
#
# A univariate polynomial is a list of coefficients from the constant term
# up; the zero polynomial is the empty list.


def _primitive(coeffs: Iterable[Scalar]) -> list[int]:
    """Integer multiple of the polynomial with coprime coefficients, trailing zeros dropped."""
    ints = list(coeffs)
    while ints and not ints[-1]:
        ints.pop()
    if not all(type(c) is int for c in ints):
        fractions = [_as_fraction(c) for c in ints]
        scale = lcm(*(c.denominator for c in fractions))
        ints = [int(c * scale) for c in fractions]
    content = gcd(*ints)
    return [c // content for c in ints]


def _pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    """Primitive part of the remainder of lc(g)^k * f on division by the nonzero g."""
    r = list(f)
    lead = g[-1]
    while len(r) >= len(g):
        q = r[-1]
        shift = len(r) - len(g)
        r = [c * lead for c in r]
        for i, coeff in enumerate(g):
            r[shift + i] -= q * coeff
        while r and not r[-1]:
            r.pop()
    return _primitive(r)


def univariate_gcd(*polys: Sequence[Scalar]) -> list[Fraction]:
    """Monic greatest common divisor over Q, by Euclid's algorithm.

    Works on primitive integer multiples, which have the same gcd over Q.
    Trailing zero coefficients are ignored.  The gcd of zero polynomials only
    (or of none) is zero, i.e. []; coprime inputs give [1].
    """
    g: list[int] = []
    for poly in polys:
        f = _primitive(poly)
        while f:
            g, f = f, _pseudo_rem(g, f)
        if len(g) == 1:
            return [Fraction(1)]
    return [Fraction(c, g[-1]) for c in g]


# -- canonical text form ----------------------------------------------------


def canonical_string(poly: MultiPoly) -> str:
    """Bit-exact text form: terms in descending graded-lex order.

    The coefficient prefix "(num/den)*" is omitted only for a coefficient of
    exactly 1 on a non-constant monomial; constants always keep parentheses.
    """
    return str(poly)


_COEFF_RE = re.compile(r"^\((-?\d+)(?:/(\d+))?\)$")
_FACTOR_RE = re.compile(r"^([a-z]+)(?:\^(\d+))?$")


def parse_poly(text: str) -> MultiPoly:
    """Inverse of canonical_string (accepts exactly that grammar)."""
    text = text.strip()
    if text == "0":
        return MultiPoly.zero()
    if not text:
        raise ValueError("empty polynomial text")
    terms: dict[tuple[int, ...], Fraction] = {}
    for chunk in text.split(" + "):
        factors = chunk.split("*")
        coeff = Fraction(1)
        if factors and factors[0].startswith("("):
            match = _COEFF_RE.match(factors[0])
            if not match:
                raise ValueError(f"malformed coefficient {factors[0]!r}")
            num, den = match.groups()
            coeff = Fraction(int(num), int(den) if den else 1)
            factors = factors[1:]
        exps = [0] * _NVARS
        for factor in factors:
            match = _FACTOR_RE.match(factor)
            if not match or match.group(1) not in _SLOT:
                raise ValueError(f"malformed monomial factor {factor!r}")
            name, power = match.groups()
            exps[_SLOT[name]] += int(power) if power else 1
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return MultiPoly(terms)
