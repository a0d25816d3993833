"""Argument lists of the benchmark workloads, generated from the seed.

Each invocation is a pair (oracle key, argv).  The oracle key names the
entry of oracle.json that holds the expected exit code and verdict fields;
seeded invocations share one key per template, because the expected verdict
does not depend on the drawn parameters.  The seed changes only rational
parameters and the echoed --seed, never the algebra, module kind or window,
so the work per run stays the same from seed to seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("reproduce", "scan", "cli-small")

# Text-mode README examples, verbatim; reproduce and the 4/4 classify are
# covered by the other two workloads.
README_EXAMPLES = (
    ("readme-jacobi", "jacobi --algebra W --rho 1/2 --s 0 --window 5"),
    ("readme-cocycle", "cocycle --name gamma11 --rho 1 --window 8"),
    ("readme-delta-print", "delta --print"),
    ("readme-delta-check", "delta --check-paper"),
    ("readme-delta-s0-check", "delta --specialize-s0 --check-paper"),
    ("readme-module-aabc", "module-check --kind Aabc --a 1/3 --b 2 --c 5 --rho 0 --window 5"),
    ("readme-module-aab-cyclic", "module-check --kind Aab --a 0 --b 0 --cyclicity --window 6"),
    ("readme-cyclicity-ba", "cyclicity --kind Ba --a 3 --window 6"),
)

FIXED_JSON = (
    ("delta-plain", "delta"),
    ("delta-s0", "delta --specialize-s0"),
    ("delta-print-check", "delta --print --check-paper"),
    ("delta-all-flags", "delta --print --check-paper --specialize-s0"),
    ("classify-half-2-2", "classify --s 1/2 --max-num 2 --max-den 2 --expect-paper"),
    ("classify-s0-2-2", "classify --s 0 --max-num 2 --max-den 2 --expect-paper"),
    ("classify-half-2-1", "classify --s 1/2 --max-num 2 --max-den 1 --expect-paper"),
    ("classify-s0-1-2", "classify --s 0 --max-num 1 --max-den 2 --expect-paper"),
)

# Requests the CLI must refuse with exit code 2.
INVALID = (
    ("invalid-w-rho", "jacobi --algebra W --rho -1 --window 3"),
    ("invalid-scan-s", "classify --s 1/3"),
    ("invalid-cocycle-base", "cocycle --name gamma11 --rho 0 --window 4"),
    ("invalid-module-params", "module-check --kind Aab --a 1 --window 3"),
)


def _rational(rng: random.Random, exclude=(), integral: bool | None = None) -> str:
    """A rational in [-6, 6] with denominator at most 4, outside `exclude`.

    integral=False forces a non-integer, integral=True an integer.
    """
    while True:
        den = 1 if integral else rng.randint(2 if integral is False else 1, 4)
        value = Fraction(rng.randint(-6, 6), den)
        if integral is False and value.denominator == 1:
            continue
        if value not in exclude:
            return str(value)


def _seeded(rng: random.Random) -> list[tuple[str, str]]:
    def r(**kw) -> str:
        return _rational(rng, **kw)

    nonzero = (Fraction(0),)
    cocycle = rng.choice(("gamma0", "gamma01", "gamma02"))
    return [
        ("seeded-jacobi-w", f"jacobi --algebra W --rho={r(exclude=(-1,))} --s 1/2 --window 4"),
        ("seeded-jacobi-d", f"jacobi --algebra D --rho={r(exclude=(0, -1, -3))} --window 3"),
        ("seeded-jacobi-sv", "jacobi --algebra SV --s 1/2 --window 3"),
        ("seeded-cocycle", f"cocycle --name {cocycle} --rho 0 --window 5"),
        ("seeded-module-aab", f"module-check --kind Aab --a={r()} --b={r()} --window 4"),
        ("seeded-module-aa", f"module-check --kind Aa --a={r()} --window 3"),
        ("seeded-module-ba", f"module-check --kind Ba --a={r()} --window 3"),
        ("seeded-module-aabc",
         f"module-check --kind Aabc --a={r()} --b={r()} --c={r()} --rho 0 --window 2"),
        ("seeded-module-aabc-twisted",
         f"module-check --kind Aabc --a={r()} --b={r()} --c={r(exclude=nonzero)}"
         f" --rho={r(exclude=(0, -1))} --window 2"),
        ("seeded-cyclicity-aab", f"cyclicity --kind Aab --a={r(integral=False)} --b={r()} --window 5"),
        ("seeded-cyclicity-ba", f"cyclicity --kind Ba --a={r()} --window 4"),
    ]


def invocations(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The (oracle key, argv) pairs of one pass of `workload` for `seed`."""
    if workload == "reproduce":
        return [("reproduce", ["reproduce", "--output", "json", "--seed", str(seed)])]
    seed_args = ["--seed", str(seed)]
    if workload == "scan":
        # Bounds above the suite's 4/4, so the run times the scan's G^3 growth.
        return [
            ("scan-half-5-5",
             "classify --s 1/2 --max-num 5 --max-den 5 --expect-paper --output json".split()
             + seed_args),
            ("scan-s0-6-6",
             "classify --s 0 --max-num 6 --max-den 6 --expect-paper --output json".split()
             + seed_args),
        ]
    if workload == "cli-small":
        rng = random.Random(seed)
        out = [(key, line.split()) for key, line in README_EXAMPLES]
        json_lines = FIXED_JSON + tuple(_seeded(rng))
        out += [(key, line.split() + ["--output", "json"] + seed_args) for key, line in json_lines]
        out += [(key, line.split()) for key, line in INVALID]
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
