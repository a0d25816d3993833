"""Strict "int" / "int/int" rational text form shared by reports and the CLI."""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParameterError

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")

# Longest accepted numerator or denominator, in decimal digits.  Far above any
# parameter the paper needs, and below the interpreter's int() digit limit.
MAX_RATIONAL_DIGITS = 1000


def parse_rational(text: str) -> Fraction:
    """Parse "3", "-3", or "3/4"; anything else is a ParameterError."""
    match = _RATIONAL_RE.match(text.strip())
    if not match:
        raise ParameterError(f"malformed rational {text!r}; expected int or int/int")
    num, den = match.groups()
    for digits in (num, den or ""):
        if len(digits.lstrip("-")) > MAX_RATIONAL_DIGITS:
            raise ParameterError(
                f"rational with more than {MAX_RATIONAL_DIGITS} digits "
                "in its numerator or denominator"
            )
    if den is not None and int(den) == 0:
        raise ParameterError(f"zero denominator in {text!r}")
    return Fraction(int(num), int(den) if den is not None else 1)


def format_rational(value: Fraction | int) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
