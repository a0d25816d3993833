"""Names the command line offers as choices, kept apart from the layers that use them.

Importing this module loads nothing else, so `virkit --help` can build its
parser without the algebra, module, classification or suite layers.
"""

ALGEBRA_NAMES = ("Vir", "W", "SV", "D")
COCYCLE_NAMES = ("gamma0", "gamma01", "gamma02", "gamma11")
MODULE_KINDS = ("Aab", "Aa", "Ba", "Aabc", "Aabc1c2")

# --only tokens accepted by reproduce, mapped to criterion numbers
ONLY_GROUPS = {
    "delta": (1, 2, 3),
    "cases": (4,),
    "jacobi": (5,),
    "cocycle": (6,),
    "module": (7,),
    "cyclic": (8,),
    "constant": (9,),
    "determinism": (10,),
}
