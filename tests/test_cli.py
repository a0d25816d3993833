"""Tests for the command-line interface: exit codes, schemas, determinism."""

import hashlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from virkit.cli import REPORT_SCHEMA, build_parser, main, run_capture


def run_json(argv):
    code, text = run_capture(argv + ["--output", "json"])
    payload = json.loads(text)
    jsonschema.validate(payload, REPORT_SCHEMA)
    return code, payload


# -- jacobi ----------------------------------------------------------------


def test_jacobi_passes_on_valid_algebra():
    code, text = run_capture(
        ["jacobi", "--algebra", "W", "--rho", "1/2", "--s", "0", "--window", "5"]
    )
    assert code == 0
    assert "passed: yes" in text


def test_jacobi_rejects_excluded_rho():
    code, text = run_capture(["jacobi", "--algebra", "W", "--rho", "-1", "--s", "0"])
    assert code == 2
    assert text.startswith("error:")


def test_hostile_window_is_refused_at_once():
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "virkit", "jacobi", "--algebra", "Vir", "--window", "1000000000"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: window must be at most")
    assert time.perf_counter() - start < 30


def test_huge_rational_is_a_parameter_error():
    # 5000 digits is past int()'s default digit limit as well as the bound
    result = subprocess.run(
        [sys.executable, "-m", "virkit", "jacobi", "--algebra", "W", "--rho", "9" * 5000, "--window", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: rational with more than 1000 digits")


def test_jacobi_json_is_byte_stable():
    argv = ["jacobi", "--algebra", "SV", "--s", "1/2", "--window", "5", "--output", "json"]
    first = run_capture(argv)
    second = run_capture(argv)
    assert first == second
    code, payload = run_json(["jacobi", "--algebra", "SV", "--s", "1/2", "--window", "5"])
    assert code == 0
    assert payload["passed"] is True
    assert payload["details"]["label"] == "sv[1/2]"
    assert payload["params"]["s"] == "1/2"


def test_jacobi_field_order_is_fixed():
    _, payload = run_json(["jacobi", "--algebra", "Vir", "--window", "3"])
    assert list(payload) == ["version", "command", "params", "passed", "details"]


# -- cocycle ----------------------------------------------------------------


def test_cocycle_identity_passes():
    code, payload = run_json(["cocycle", "--name", "gamma02", "--rho", "0", "--window", "6"])
    assert code == 0
    assert payload["details"]["identity"]["violation_count"] == 0


def test_cocycle_wrong_rho_is_a_parameter_error():
    code, _ = run_capture(["cocycle", "--name", "gamma11", "--rho", "0"])
    assert code == 2


# -- delta ----------------------------------------------------------------


def test_delta_print_emits_canonical_string():
    code, payload = run_json(["delta", "--print"])
    assert code == 0
    from virkit.classify import compute_delta
    from virkit.poly import canonical_string

    assert payload["details"]["delta"] == canonical_string(compute_delta())


def test_delta_reference_check_reports_the_third_coefficient():
    code, payload = run_json(["delta", "--check-paper"])
    assert code == 1
    det = payload["details"]
    assert det["divisible"] is True
    assert det["shape_ok"] is True
    assert det["delta1_match"] is True
    assert det["delta2_match"] is True
    assert det["delta3_match"] is False
    from virkit.golden import recorded_delta3_difference
    from virkit.poly import canonical_string

    assert det["delta3_difference"] == canonical_string(recorded_delta3_difference())


def test_delta_s0_check_reports_the_sign_flip():
    code, payload = run_json(["delta", "--specialize-s0", "--check-paper"])
    assert code == 1
    assert payload["details"]["matches_reference"] is False
    assert "difference" in payload["details"]


# -- classify ----------------------------------------------------------------


def test_classify_full_bounds_comparison_is_honest():
    code, payload = run_json(["classify", "--s", "1/2", "--expect-paper"])
    assert code == 1
    comparison = payload["details"]["comparison"]
    assert comparison["missing"] == [
        "rho=3/2: point (b=0, bp=1)",
        "rho=3/2: point (b=1, bp=0)",
    ]
    assert comparison["outside_bounds"] == []


def test_classify_s0_full_bounds_matches():
    code, payload = run_json(["classify", "--s", "0", "--expect-paper"])
    assert code == 0
    comparison = payload["details"]["comparison"]
    assert comparison["missing"] == []
    assert comparison["extra"] == []


def test_classify_small_bounds_moves_points_outside():
    code, payload = run_json(
        ["classify", "--s", "1/2", "--max-num", "1", "--max-den", "1", "--expect-paper"]
    )
    comparison = payload["details"]["comparison"]
    assert comparison["missing"] == []
    assert len(comparison["outside_bounds"]) == 6
    # the only failures are genuine extras, never the out-of-range points
    assert code == 1
    assert all("rho=3/2" in item for item in comparison["outside_bounds"])


def test_classify_rejects_unsupported_s():
    code, _ = run_capture(["classify", "--s", "1/3"])
    assert code == 2


def test_hostile_grid_bound_is_refused_at_once():
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "virkit", "classify", "--s", "1/2", "--max-num", "1000000000"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: grid bounds must be at most")
    assert time.perf_counter() - start < 30


# -- module-check and cyclicity ----------------------------------------------------------------


def test_module_check_passes_at_admissible_parameters():
    code, text = run_capture(
        ["module-check", "--kind", "Aabc", "--a", "1/3", "--b", "2",
         "--c", "5", "--rho", "0", "--window", "5"]
    )
    assert code == 0
    assert "passed: yes" in text


def test_module_check_reports_twisted_residuals():
    code, payload = run_json(
        ["module-check", "--kind", "Aabc", "--a", "1/3", "--b", "2",
         "--c", "5", "--rho", "1", "--window", "3"]
    )
    assert code == 1
    axiom = payload["details"]["axiom"]
    assert axiom["passed"] is False
    assert axiom["violation_count"] == 588
    by_inputs = {tuple(v["inputs"]): v["residual"] for v in axiom["violations"]}
    # residual scale is -m*rho*c = -5m here; the emitted list is capped at 50
    assert len(axiom["violations"]) == 50
    assert by_inputs[("L_-3", "Y_-3", "v_-3")] == "(15)*v_-9"
    assert by_inputs[("L_-3", "Y_3", "v_0")] == "(15)*v_0"


def test_module_check_cyclicity_flags_the_pinned_generator():
    code, payload = run_json(
        ["module-check", "--kind", "Aab", "--a", "0", "--b", "0",
         "--cyclicity", "--window", "6"]
    )
    assert code == 1
    assert payload["details"]["axiom"]["passed"] is True
    assert payload["details"]["simple"] is False
    cyc = payload["details"]["cyclicity"]
    assert cyc["violation_count"] == 1
    assert cyc["violations"][0]["inputs"] == ["v_0"]


def test_cyclicity_subcommand_full_orbit():
    code, payload = run_json(
        ["cyclicity", "--kind", "Aab", "--a", "1/2", "--b", "2", "--window", "6"]
    )
    assert code == 0
    assert payload["details"]["cyclicity"]["violation_count"] == 0


def test_cyclicity_subcommand_stuck_generator():
    code, payload = run_json(["cyclicity", "--kind", "Ba", "--a", "3", "--window", "6"])
    assert code == 1
    residual = payload["details"]["cyclicity"]["violations"][0]["residual"]
    assert residual.startswith("missing ")


def test_module_check_rejects_missing_parameters():
    code, _ = run_capture(["module-check", "--kind", "Aabc", "--a", "0", "--b", "0"])
    assert code == 2


# -- reproduce ----------------------------------------------------------------


def test_reproduce_single_group_passes():
    code, payload = run_json(["reproduce", "--only", "constant"])
    assert code == 0
    criteria = payload["details"]["criteria"]
    assert [c["number"] for c in criteria] == [9]
    assert criteria[0]["passed"] is True


def test_reproduce_delta_group_carries_the_known_discrepancy():
    code, payload = run_json(["reproduce", "--only", "delta"])
    assert code == 1
    by_number = {c["number"]: c["passed"] for c in payload["details"]["criteria"]}
    assert by_number == {1: True, 2: True, 3: False}


def test_reproduce_accepts_numeric_selectors():
    code, payload = run_json(["reproduce", "--only", "9", "--only", "10"])
    assert code == 0
    assert [c["number"] for c in payload["details"]["criteria"]] == [9, 10]


def test_reproduce_json_twice_is_byte_identical():
    argv = ["reproduce", "--only", "constant", "--output", "json", "--seed", "0"]
    assert run_capture(argv) == run_capture(argv)


def test_reproduce_rejects_unknown_selector():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["reproduce", "--only", "bogus"])
    assert exc.value.code == 2


# -- process-level behaviour ----------------------------------------------------------------


def test_main_writes_to_stdout(capsys):
    code = main(["cocycle", "--name", "gamma0", "--rho", "0", "--window", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert "command: cocycle" in captured.out
    assert captured.err == ""


def test_main_writes_errors_to_stderr(capsys):
    code = main(["jacobi", "--algebra", "D", "--rho", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_module_entry_point_runs_end_to_end():
    result = subprocess.run(
        [sys.executable, "-m", "virkit", "jacobi", "--algebra", "Vir",
         "--window", "4", "--output", "json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["command"] == "jacobi"
    assert payload["passed"] is True


# The layers each subcommand may load: handlers import only what they call.
LAYERS = {"suite", "classify", "golden", "algebras", "modules"}
LAYERS_LOADED = {
    "--help": set(),
    "jacobi --algebra Vir --window 1": {"algebras"},
    "cocycle --name gamma0 --rho 0 --window 1": {"algebras"},
    "delta": {"classify", "golden"},
    "classify --s 0 --max-num 1 --max-den 1": {"classify", "golden"},
    "module-check --kind Aab --a 1/2 --b 1 --window 1": {"algebras", "modules"},
    "cyclicity --kind Aab --a 1/2 --b 1 --window 1": {"algebras", "modules"},
    "reproduce --only constant": LAYERS,
}


@pytest.mark.parametrize("line", list(LAYERS_LOADED))
def test_each_subcommand_loads_only_the_layers_it_calls(line):
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "virkit", *line.split()],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    loaded = set(re.findall(r"\|\s+virkit\.(\w+)$", result.stderr, re.M))
    assert "cli" in loaded
    assert loaded & LAYERS == LAYERS_LOADED[line]


def test_the_tracer_still_wraps_every_layer_function(tmp_path):
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spans = tmp_path / "spans"
    argv = ["module-check", "--kind", "Aab", "--a", "1/2", "--b", "1", "--window", "1"]
    result = subprocess.run(
        [sys.executable, str(tracer), str(spans), *argv], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    header = json.loads(spans.read_bytes().split(b"\n", 1)[0])
    assert "check_module_axiom" in header["names"] and header["count"] > 0


# Exit code and sha256 of the rendered output of each README command-line
# example, captured before Element, WeightVector and MultiPoly shared a base.
README_OUTPUTS = {
    "jacobi --algebra W --rho 1/2 --s 0 --window 5": (0, "78833e23859b6b772816e73052c4ed718ef2709aee2a97d4d838fe50427d2203"),
    "cocycle --name gamma11 --rho 1 --window 8": (0, "90fba3fe47a03013123c312c4c7eb4166d161503bf7d1be8017122b12cd78db9"),
    "delta --print": (0, "8fe226811f5b11ad6c7ef36f0d60ac7aa598cdbd9b5258e00f0d37cd91749310"),
    "delta --check-paper": (1, "20ca984d0b83a39d2125106eff8b7f8f4094dcfd3fa4ba0c3348f0b8ae326ee0"),
    "delta --specialize-s0 --check-paper": (1, "064836a122c0deab252165c2a471a603252dde36d2a4ca666316397e00567795"),
    "classify --s 1/2 --max-num 4 --max-den 4 --expect-paper": (1, "5eafcf146dbfae8ae1413f547c19ce0c990227799aecc147d883d3f1d15912b8"),
    "module-check --kind Aabc --a 1/3 --b 2 --c 5 --rho 0 --window 5": (0, "5a97f5c74f288b7df74cfa732799f153646f351188a7792e4908910f90723994"),
    "module-check --kind Aab --a 0 --b 0 --cyclicity --window 6": (1, "1f4f3c53c34a7e58b85b291e8c1a8fac1abb6c3dccf78cbfe7cebaaf26e135bd"),
    "cyclicity --kind Ba --a 3 --window 6": (1, "3377e6065b0571b6f00ada6a9d93042642e957d9c19ab0a2055eff3c2512bed0"),
}


def readme_examples():
    """Argument lists of the README "Command line" block, reproduce excluded."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```\n(.*?)```", readme, re.S).group(1)
    lines = [line.split()[1:] for line in block.splitlines()]
    return [" ".join(argv) for argv in lines if argv[0] != "reproduce"]


def test_readme_examples_are_all_frozen():
    assert readme_examples() == list(README_OUTPUTS)


@pytest.mark.parametrize("line", readme_examples())
def test_readme_example_output_is_byte_identical(line):
    code, text = run_capture(line.split())
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == README_OUTPUTS[line]
