"""Traced child: wrap the public functions of each virkit layer, then run the CLI.

Usage: python perfbench/tracer.py SPAN_FILE ARG...

The child imports virkit, replaces the functions listed in LAYERS by timing
wrappers, calls virkit.cli.main(ARG...) and exits with its code.  Caches
start as cold as in an untraced process.  Spans (name, parent span, start,
end) are kept in arrays in memory and written to SPAN_FILE at exit, followed
by the work counters, which are computed here from the call arguments with
the program's own enumeration helpers; nothing inside the program counts.
The parent reads the file back with read_spans().
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from fractions import Fraction
from time import perf_counter

# Public functions timed per layer.  Methods are given as Class.method.  Hot
# inner helpers (struct, act_basis, cocycle_value, condition_pair_holds) are
# left out: wrapping them would multiply the run time, and their time shows
# as self time of the check or scan that calls them.
LAYERS = {
    "poly": ("MultiPoly.evaluate", "MultiPoly.substitute", "MultiPoly.divrem",
             "det3", "canonical_string", "parse_poly"),
    "algebras": ("check_antisymmetry", "check_jacobi", "check_cocycle"),
    "modules": ("check_module_axiom", "check_window_cyclic", "simplicity_criterion"),
    "classify": ("build_functional_equation", "build_linear_system", "compute_delta",
                 "certify_factorization", "specialize_s0", "enumerate_cases",
                 "compare_with_expected", "check_constant_solution", "constant_residual"),
    "suite": tuple(f"criterion_{n}" for n in range(1, 11)) + ("run_criteria",),
    "cli": ("build_parser", "_cmd_jacobi", "_cmd_cocycle", "_cmd_delta", "_cmd_classify",
            "_cmd_module_check", "_cmd_cyclicity", "_cmd_reproduce",
            "ReportDocument.to_json", "ReportDocument.to_text"),
}

# Calls whose arguments feed the work counters.
COUNTED = ("check_antisymmetry", "check_jacobi", "check_cocycle", "check_module_axiom",
           "check_window_cyclic", "enumerate_cases")


class Tracer:
    """Spans in parallel arrays; a stack of open span indices gives the parent."""

    def __init__(self, names: list[str]):
        self.names = names
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counted: list[tuple[str, dict, object]] = []

    def wrap(self, name: str, fn):
        name_id = self.names.index(name)
        signature = inspect.signature(fn) if name in COUNTED else None

        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.ends.append(0.0)
            self.stack.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self.stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.counted.append((name, bound, result))
            return result

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> None:
    """Replace every reference to a listed function in every virkit module.

    suite, cli and modules import by name, and suite._CRITERIA and
    cli._HANDLERS hold references in a tuple and a dict, so patching only the
    defining module would miss calls.
    """
    import virkit
    from virkit import algebras, classify, cli, golden, modules, poly, suite

    layer_modules = {"poly": poly, "algebras": algebras, "modules": modules,
                     "classify": classify, "suite": suite, "cli": cli}
    replaced = {}
    for layer, names in LAYERS.items():
        home = layer_modules[layer]
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original)
            setattr(owner, attr, wrapper)
            replaced[id(original)] = wrapper
    for module in (virkit, algebras, classify, cli, golden, modules, poly, suite):
        for key, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, key, replaced[id(value)])
            elif isinstance(value, tuple) and any(id(v) in replaced for v in value):
                setattr(module, key, tuple(replaced.get(id(v), v) for v in value))
            elif isinstance(value, dict):
                for k, v in value.items():
                    if id(v) in replaced:
                        value[k] = replaced[id(v)]


def work_counters(counted) -> dict[str, int]:
    """Instances checked and grid points scanned, from the call arguments."""
    from virkit.algebras import basis_elements
    from virkit.classify import grid_values
    from virkit.modules import module_indices

    out = {"algebras.instances": 0, "modules.instances": 0,
           "classify.grid_points": 0, "classify.hits": 0}
    for name, args, result in counted:
        if name == "check_antisymmetry":
            out["algebras.instances"] += len(basis_elements(args["alg"], args["window"])) ** 2
        elif name in ("check_jacobi", "check_cocycle"):
            out["algebras.instances"] += len(basis_elements(args["alg"], args["window"])) ** 3
        elif name == "check_module_axiom":
            mod, window = args["mod"], args["window"]
            pairs = len(basis_elements(mod.host, window)) ** 2
            out["modules.instances"] += pairs * len(module_indices(mod, window))
        elif name == "check_window_cyclic":
            generators = module_indices(args["mod"], Fraction(args["window"], 2))
            out["modules.instances"] += len(generators) ** 2
        elif name == "enumerate_cases":
            grid = grid_values(args["max_num"], args["max_den"])
            rho_count = sum(1 for r in grid if r != -1)
            axes = 2 if Fraction(args["s"]) == Fraction(1, 2) else 1
            out["classify.grid_points"] += rho_count * len(grid) ** axes
            out["classify.hits"] += len(result.hits)
    return out


def write_spans(path: str, tracer: Tracer, counters: dict[str, int]) -> None:
    header = {"names": tracer.names, "count": len(tracer.starts), "counters": counters}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for arr in (tracer.name_ids, tracer.parents, tracer.starts, tracer.ends):
            arr.tofile(fh)


def read_spans(path):
    """(names, name_ids, parents, starts, ends, counters) from a span file."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in "iidd":
            arr = array(code)
            arr.fromfile(fh, header["count"])
            arrays.append(arr)
    return (header["names"], *arrays, header["counters"])


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer([name for names in LAYERS.values() for name in names])
    install(tracer)
    from virkit import cli

    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        write_spans(span_file, tracer, work_counters(tracer.counted))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
