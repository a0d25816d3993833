"""virkit benchmark: runs a workload as real `python -m virkit` processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload {reproduce,scan,cli-small,all}
                             [--seed N] [--seconds S] [--trace {0,1}]

Closed loop, one client: each invocation is a fresh child process, started
only after the previous one has ended.  Every invocation gets a timeout and
its exit code, verdict fields (oracle.json) and stdout digest are checked.

--trace 0 measures the end-to-end metrics: as many passes over the workload
as fit in --seconds (at least one), with set-up samples taken between the
invocations; times are medians.  --trace 1 runs every invocation once
untraced and once traced (tracer.py), in alternating order, and reports the
per-layer metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it print every metric by name with its
unit, sample count, median and quartiles, and the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench_state"

# At least this many set-up samples per run.  They are spread over the gaps
# before, between and after the invocations, so that they span the run like
# the workload does.
SETUP_SAMPLES = 24
IMPORT_SAMPLES = 3
# Whole-run deadline, below the 180 s a run may take; invocations that would
# end past it are cut by their timeout and count as failed.
RUN_DEADLINE_S = 165.0
INVOCATION_TIMEOUT_S = {"reproduce": 120.0, "scan": 90.0, "cli-small": 30.0}
# Leaves whose JSON form is longer than this are frozen as a sha256 digest.
DIGEST_OVER = 200
HANDLERS = tuple(name for name in tracer.LAYERS["cli"] if name.startswith("_cmd_"))


@dataclass
class Invocation:
    key: str
    argv: list[str]
    wall_s: float
    cpu_s: float
    rss_mb: float
    failure: str | None


# -- child processes ---------------------------------------------------------------


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_child(cmd: list[str], timeout: float):
    """Run cmd to completion; (exit code, wall s, rusage, stdout, stderr, timed out)."""
    with tempfile.TemporaryFile(dir=STATE) as out, tempfile.TemporaryFile(dir=STATE) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        timed_out = proc.returncode < 0 and wall >= timeout
        return proc.returncode, wall, usage, out.read(), err.read(), timed_out


# -- correctness oracle ------------------------------------------------------------


def _digest(value) -> dict:
    return {"sha256": hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()}


def flatten_json(value, prefix: str = "", out: dict | None = None) -> dict:
    """Dotted path -> leaf; lists holding containers are indexed."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for key, item in value.items():
            flatten_json(item, f"{prefix}{key}.", out)
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        for i, item in enumerate(value):
            flatten_json(item, f"{prefix}{i}.", out)
    else:
        out[prefix[:-1]] = value
    return out


def flatten_text(text: str) -> dict:
    """Dotted path -> leaf for the indented key/value text report."""
    out: dict = {}
    stack: list[tuple[int, str]] = []
    items: dict[str, int] = {}
    for line in text.splitlines():
        indent = len(line) - len(line.lstrip(" "))
        body = line.strip()
        while stack and stack[-1][0] >= indent:
            stack.pop()
        prefix = "".join(f"{key}." for _, key in stack)
        if body == "-":
            items[prefix] = items.get(prefix, -1) + 1
            stack.append((indent, str(items[prefix])))
        elif body.startswith("- "):
            out.setdefault(prefix[:-1], []).append(body[2:])
        else:
            key, _, value = body.partition(":")
            if value.strip():
                out[prefix + key] = value.strip()
            else:
                stack.append((indent, key))
    return out


def leaves(argv: list[str], stdout: bytes) -> dict:
    text = stdout.decode()
    if "json" in argv:
        return flatten_json(json.loads(text))
    return flatten_text(text)


def frozen(value):
    """The form in which oracle.json stores a leaf."""
    return _digest(value) if len(json.dumps(value)) > DIGEST_OVER else value


def verdict_failure(expected: dict, argv: list[str], code: int, stdout: bytes) -> str | None:
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    if not expected["fields"]:
        return None
    try:
        got = leaves(argv, stdout)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return f"unreadable report: {exc}"
    for path, want in expected["fields"].items():
        if path not in got:
            return f"{path} missing from the report"
        if frozen(got[path]) != want:
            return f"{path} = {json.dumps(got[path])[:80]}, expected {json.dumps(want)[:80]}"
    return None


def code_digest() -> str:
    """sha256 of the Python version and every file under src/, so that stdout
    is only compared between runs of identical code."""
    h = hashlib.sha256(platform.python_version().encode())
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(b"\0" + str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Digests:
    """Stdout digest per (code under test, argv), kept across runs in this checkout.

    Only the stdout of an invocation that passed its verdict check is stored.
    """

    def __init__(self, path: Path):
        self.path = path
        self.all = json.loads(path.read_text()) if path.exists() else {}
        self.seen = self.all.setdefault(code_digest(), {})

    def failure(self, argv: list[str], stdout: bytes) -> str | None:
        key = "\0".join(argv)
        digest = hashlib.sha256(stdout).hexdigest()
        previous = self.seen.setdefault(key, digest)
        return None if previous == digest else "stdout differs from an earlier run of this argv"

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.all))
        os.replace(tmp, self.path)


# -- passes ------------------------------------------------------------------------


class Runner:
    def __init__(self, workload: str, seed: int, oracle: dict, units: dict, digests: Digests):
        self.workload = workload
        self.seed = seed
        self.oracle = oracle
        self.units = units
        self.digests = digests
        self.started = time.perf_counter()

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def invoke(self, key: str, argv: list[str], prefix: list[str]) -> Invocation:
        timeout = min(INVOCATION_TIMEOUT_S[self.workload], self.remaining())
        if timeout <= 0:
            return Invocation(key, argv, 0.0, 0.0, 0.0, "not started: run deadline reached")
        code, wall, usage, stdout, stderr, timed_out = run_child(prefix + argv, timeout)
        if timed_out:
            failure = f"timed out after {timeout:.1f} s"
        else:
            failure = (verdict_failure(self.oracle[key], argv, code, stdout)
                       or self.digests.failure(argv, stdout))
        if failure and stderr:
            failure += f"; stderr: {stderr.decode(errors='replace')[-300:]}"
        return Invocation(key, argv, wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024, failure)

    def run_pass(self, between=None) -> list[Invocation]:
        """One pass over the workload; between() runs before each invocation."""
        out = []
        for key, argv in workloads.invocations(self.workload, self.seed):
            if between:
                between()
            out.append(self.invoke(key, argv, [sys.executable, "-m", "virkit"]))
        return out


def summary(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def percentile(values: list[float], q: int) -> float | None:
    """The q-th percentile, given only when at least ten samples lie beyond it."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(sorted(values), n=100)[q - 1]


def setup_samples(count: int) -> list[float]:
    """Wall times of `count` fresh `python -m virkit --help` processes."""
    help_cmd = [sys.executable, "-m", "virkit", "--help"]
    walls = []
    for _ in range(count):
        code, wall, *_ = run_child(help_cmd, INVOCATION_TIMEOUT_S["cli-small"])
        if code != 0:
            raise SystemExit(f"`python -m virkit --help` exited with {code}; cannot set up")
        walls.append(wall)
    return walls


def end_to_end(runner: Runner, seconds: float):
    setup_samples(1)  # warm-up: compiles the bytecode caches on a fresh checkout
    gaps = len(workloads.invocations(runner.workload, runner.seed)) + 1
    per_gap = -(-SETUP_SAMPLES // gaps)
    setup: list[float] = []
    passes: list[list[Invocation]] = []
    while True:
        passes.append(runner.run_pass(lambda: setup.extend(setup_samples(per_gap))))
        # Start another pass only if its invocations should end within --seconds.
        busy = sum(inv.wall_s for p in passes for inv in p)
        next_pass = busy / len(passes)
        if busy + next_pass > seconds or 2 * next_pass > runner.remaining():
            break
    setup += setup_samples(per_gap)
    invs = [inv for p in passes for inv in p]
    per_call = [inv.wall_s for inv in invs]
    table = {
        "setup_s": summary(setup),
        "wall_s": summary([sum(inv.wall_s for inv in p) for p in passes]),
        "cpu_s": summary([sum(inv.cpu_s for inv in p) for p in passes]),
        "invocation_s": summary(per_call),
        "peak_rss_mb": summary([max(inv.rss_mb for inv in invs)]),
    }
    extra = {
        "invocation_s.p50": (percentile(per_call, 50), len(per_call), "s"),
        "invocation_s.p90": (percentile(per_call, 90), len(per_call), "s"),
        "failed_ratio": (sum(1 for i in invs if i.failure) / len(invs), len(invs), "ratio"),
    }
    metrics = {name: table[name]["median"] for name in ("setup_s", "wall_s", "cpu_s",
                                                        "peak_rss_mb")}
    lines = [f"passes: {len(passes)}"]
    lines += [f"{name:<20} {runner.units.get(name, 's'):<6} n={row['n']:<4} median={row['median']:.6g}"
              f" q1={row['q1']:.6g} q3={row['q3']:.6g}" for name, row in table.items()]
    for name, (value, n, unit) in extra.items():
        shown = "n/a (fewer than ten samples beyond it)" if value is None else f"{value:.6g}"
        lines.append(f"{name:<20} {unit:<6} n={n:<4} {shown}")
    counts = {name: row["n"] for name, row in table.items()}
    counts.update({name: n for name, (_, n, _) in extra.items()})
    return invs, metrics, lines, counts


# -- traced run ----------------------------------------------------------------------


def span_metrics(path: Path) -> dict:
    """calls, outermost busy time and self time per function, plus counters."""
    names, name_ids, parents, starts, ends, counters = tracer.read_spans(path)
    count = len(starts)
    child = [0.0] * count
    for i in range(count):
        if parents[i] >= 0:
            child[parents[i]] += ends[i] - starts[i]
    calls = dict.fromkeys(names, 0)
    busy = dict.fromkeys(names, 0.0)
    self_s = dict.fromkeys(names, 0.0)
    for i in range(count):
        name_id = name_ids[i]
        name = names[name_id]
        dur = ends[i] - starts[i]
        calls[name] += 1
        self_s[name] += dur - child[i]
        p = parents[i]
        while p >= 0 and name_ids[p] != name_id:
            p = parents[p]
        if p < 0:
            busy[name] += dur
    return {"calls": calls, "busy": busy, "self": self_s, "counters": counters}


def import_seconds() -> float:
    """Median cumulative `-X importtime` of virkit.cli in a fresh process."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        code, _, _, _, err, _ = run_child(
            [sys.executable, "-X", "importtime", "-c", "import virkit.cli"], 30.0)
        for line in err.decode().splitlines():
            fields = [f.strip() for f in line.split("|")]
            if code == 0 and len(fields) == 3 and fields[2] == "virkit.cli":
                samples.append(int(fields[1]) / 1e6)
    if not samples:
        raise SystemExit("could not read the import time of virkit.cli")
    return statistics.median(samples)


def traced(runner: Runner):
    """Each invocation once untraced and once traced, the order alternating
    from one invocation (and one seed) to the next so that host drift falls
    on both sides of trace.overhead_ratio."""
    plain, traced_pass, per_call = [], [], []
    with tempfile.TemporaryDirectory(dir=STATE) as tmp:
        for i, (key, argv) in enumerate(workloads.invocations(runner.workload, runner.seed)):
            span_file = Path(tmp) / f"{i}.spans"
            tracer_prefix = [sys.executable, str(HERE / "tracer.py"), str(span_file)]
            first_plain = (i + runner.seed) % 2 == 0
            for plain_now in (first_plain, not first_plain):
                if plain_now:
                    plain.append(runner.invoke(key, argv, [sys.executable, "-m", "virkit"]))
                else:
                    traced_pass.append(runner.invoke(key, argv, tracer_prefix))
            per_call.append(span_metrics(span_file) if span_file.exists() else None)
    invs = plain + traced_pass
    calls, busy, self_s, counters = {}, {}, {}, {}
    overhead = 0.0
    for inv, spans in zip(traced_pass, per_call):
        spans = spans or {"calls": {}, "busy": {}, "self": {}, "counters": {}}
        for total, part in ((calls, spans["calls"]), (busy, spans["busy"]),
                            (self_s, spans["self"]), (counters, spans["counters"])):
            for name, value in part.items():
                total[name] = total.get(name, 0) + value
        overhead += inv.wall_s - sum(spans["busy"].get(h, 0.0) for h in HANDLERS)

    layer_of = {name: layer for layer, names in tracer.LAYERS.items() for name in names}
    m = {}
    for name in ("evaluate", "substitute"):
        m[f"poly.{name}.calls"] = calls.get(f"MultiPoly.{name}", 0)
    for name in ("MultiPoly.evaluate", "MultiPoly.substitute", "MultiPoly.divrem", "det3",
                 "canonical_string"):
        m[f"poly.{name.rpartition('.')[2]}.busy_s"] = busy.get(name, 0.0)
    for name in ("check_jacobi", "check_antisymmetry", "check_cocycle"):
        m[f"algebras.{name}.busy_s"] = busy.get(name, 0.0)
    m["algebras.instances"] = counters.get("algebras.instances", 0)
    for name in ("check_module_axiom", "check_window_cyclic"):
        m[f"modules.{name}.busy_s"] = busy.get(name, 0.0)
    m["modules.instances"] = counters.get("modules.instances", 0)
    for name in ("compute_delta", "certify_factorization"):
        m[f"classify.{name}.busy_s"] = busy.get(name, 0.0)
    m["classify.enumerate_cases.self_s"] = self_s.get("enumerate_cases", 0.0)
    points = counters.get("classify.grid_points", 0)
    m["classify.grid_points"] = points
    m["classify.hit_ratio"] = counters.get("classify.hits", 0) / points if points else 0.0
    m["classify.evaluate_per_point"] = (
        calls.get("MultiPoly.evaluate", 0) / points if points else 0.0)
    for n in range(1, 11):
        m[f"suite.criterion_{n:02d}.busy_s"] = busy.get(f"criterion_{n}", 0.0)
    for layer in tracer.LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if layer_of[k] == layer)
    m["cli.import_s"] = import_seconds()
    m["cli.render_s"] = sum(busy.get(f"ReportDocument.{r}", 0.0) for r in ("to_json", "to_text"))
    m["cli.process_overhead_s"] = overhead
    m["trace.overhead_ratio"] = (sum(i.wall_s for i in traced_pass)
                                 / sum(i.wall_s for i in plain))
    lines = [f"{name:<36} {runner.units[name]:<11} {value:.6g}" for name, value in m.items()]
    return invs, m, lines, {name: 1 for name in m}


# -- run record ---------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    STATE.mkdir(exist_ok=True)
    digests = Digests(STATE / "digests.json")
    oracle = json.loads((HERE / "oracle.json").read_text())
    runner = Runner(workload, seed, oracle, units, digests)
    invs, metrics, lines, counts = (traced(runner) if trace
                                    else end_to_end(runner, seconds))
    digests.save()
    failures = [inv for inv in invs if inv.failure]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(), "git_commit": git_commit(), "sample_counts": counts,
    }
    with open(STATE / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(dict(record, metrics=metrics)) + "\n")
    print(f"== workload {workload} (seed {seed}, trace {int(trace)})")
    for line in lines:
        print(line)
    for inv in failures:
        print(f"FAILED {inv.key}: {' '.join(inv.argv)}: {inv.failure}")
    print("record: " + json.dumps(record))
    return {
        "correct": not failures,
        "attempted": len(invs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name in units},
    }


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "virkit" / "__init__.py").is_file():
        print(f"no virkit sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in chosen:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), units)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
