"""Benchmark of the exact S_H-expansion chain.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload from the root of a checkout, against the sources under
`src/`, and prints one JSON object as the last line of standard output:
`{"correct", "attempted", "failed", "metrics"}`. One operation is one pass
of the workload; a pass whose output check fails counts as failed.

With `--trace 0` the passes are timed for about S seconds and the metrics
are the end-to-end ones: `pass_s` (median pass), `setup_s` (median of nine
cold set-ups in fresh interpreters) and `peak_rss_mb`. With `--trace 1` one
untraced and one traced pass run, and the metrics are the per-layer ones.
Result and trace files go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = {
    "golden-c5": "golden_c5",
    "cli-lagrangian": "cli_lagrangian",
    "algebra-verify": "algebra_verify",
    "chern-weil-c5": "chern_weil_c5",
}
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60
TRACE_FILE_SPANS = 50_000


def parse_args(argv=None) -> argparse.Namespace:
    from seeds import DEFAULT_SEED

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one cold set-up in this interpreter and print it")
    return p.parse_args(argv)


# -- set-up -------------------------------------------------------------------


def setup_probe(args) -> None:
    """Imports the workload (and with it `sexpansion`) and builds its inputs."""
    t0 = time.perf_counter()
    module = importlib.import_module(WORKLOADS[args.workload])
    state = module.setup(args.seed)
    elapsed = time.perf_counter() - t0
    cleanup(state)
    print(repr(elapsed))


def setup_seconds(args) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def cleanup(state) -> None:
    if isinstance(state, dict) and isinstance(state.get("dir"), Path):
        shutil.rmtree(state["dir"], ignore_errors=True)


def peak_rss_mb(workload: str) -> float:
    """Peak resident set of the process doing the work: this one, or for the
    CLI workload the largest child."""
    who = resource.RUSAGE_CHILDREN if workload == "cli-lagrangian" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- scalar-ring microbenchmark ---------------------------------------------------


def scalar_ring_ns() -> dict[str, float]:
    """ns per operation on fixed operands from the c5 tensor and connection."""
    from sexpansion.fixtures import (build_connection, c_tensor_rotated,
                                     make_c_algebra_rotated)

    tensor = c_tensor_rotated(5)
    keys = sorted(tensor.entries)
    x, y = tensor.entries[keys[0]], tensor.entries[keys[1]]  # a0+a1, a0-a1
    connection = build_connection(make_c_algebra_rotated(5))
    vector = max(connection.components.items())[1]  # an h or e component: l^-1
    c = next(iter(vector.terms.values()))
    qx, qc = next(iter(x.terms.values())), next(iter(c.terms.values()))
    ops = {
        "scalars.q2_mul_ns": lambda: qx * qc,
        "scalars.expr_mul_ns": lambda: x * c,
        "scalars.expr_add_ns": lambda: x + y,
    }
    reps, samples = 20_000, 7
    out = {}
    for name, op in ops.items():
        times = []
        for _ in range(samples):
            t0 = time.perf_counter()
            for _ in range(reps):
                op()
            times.append((time.perf_counter() - t0) / reps * 1e9)
        out[name] = statistics.median(times)
    return out


# -- runs -----------------------------------------------------------------------


def timed_pass(module, state, **kwargs):
    t0 = time.perf_counter()
    out = module.run_pass(state, **kwargs)
    return time.perf_counter() - t0, out


def run_timed(args, module) -> dict:
    setup_s = setup_seconds(args)
    state = module.setup(args.seed)
    try:
        durations, attempted, failed = [], 0, 0
        start = time.perf_counter()
        while True:
            dt, out = timed_pass(module, state)
            problems = module.check(state, out)
            del out
            attempted += 1
            failed += bool(problems)
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
            durations.append(dt)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(durations) > args.seconds:
                break
    finally:
        cleanup(state)
    print(f"{args.workload}: passes {[round(d, 3) for d in durations]}",
          file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "metrics": {
        "pass_s": (statistics.median(durations), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
    }}


def cli_startup_s() -> float:
    """One cold CLI child finishing a trivial command, timed from outside."""
    import cli_lagrangian

    state = cli_lagrangian.setup(0)
    cmd, _ = cli_lagrangian.TRIVIAL
    try:
        t0 = time.perf_counter()
        proc = cli_lagrangian.run_cli([cmd, "--config",
                                       str(state["dir"] / "trivial.json")])
        elapsed = time.perf_counter() - t0
    finally:
        cleanup(state)
    if proc.returncode != 0:
        raise RuntimeError(f"trivial CLI command failed: {proc.stderr}")
    return elapsed


def run_traced(args, module) -> dict:
    from tracer import Tracer

    state = module.setup(args.seed)
    try:
        plain_s, out = timed_pass(module, state)
        problems = module.check(state, out)
        failed = int(bool(problems))
        del out
    finally:
        cleanup(state)

    tracer = Tracer()
    tracer.install()
    trace_dir = None
    try:
        state = module.setup(args.seed)
        setup_root_s = tracer.root_s
        if args.workload == "cli-lagrangian":
            trace_dir = state["dir"] / "trace"
            trace_dir.mkdir()
            traced_s, out = timed_pass(module, state, trace_dir=trace_dir)
        else:
            traced_s, out = timed_pass(module, state)
    finally:
        tracer.uninstall()
    try:
        if trace_dir is not None:
            for f in sorted(trace_dir.glob("*.json")):
                tracer.merge(json.loads(f.read_text()))
        traced_problems = module.check(state, out)
        failed += int(bool(traced_problems))
    finally:
        cleanup(state)
    for p in problems + traced_problems:
        print(f"check failed: {p}", file=sys.stderr)

    metrics = {name: (ns, "ns/op") for name, ns in scalar_ring_ns().items()}
    metrics.update(tracer.layer_metrics())
    metrics["cli.startup_s"] = (cli_startup_s(), "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.span_coverage"] = (
        100.0 * (tracer.root_s - setup_root_s) / traced_s, "%")
    write_trace(args, tracer, plain_s, traced_s)
    return {"attempted": 2, "failed": failed, "metrics": metrics}


def write_trace(args, tracer, plain_s: float, traced_s: float) -> None:
    doc = {"workload": args.workload, "seed": args.seed,
           "untraced_pass_s": plain_s, "traced_pass_s": traced_s,
           "layers": tracer.snapshot(),
           "spans_total": tracer.span_count,
           "spans": [dict(zip(("id", "name", "start", "end", "parent"), s))
                     for s in tracer.spans[:TRACE_FILE_SPANS]]}
    (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(doc))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sexpansion" / "__init__.py").is_file():
        print(f"error: no sexpansion sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed string hashing: the same set iteration order in every run
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py")]
                  + sys.argv[1:], env)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args)
        return 0
    OUT.mkdir(exist_ok=True)
    module = importlib.import_module(WORKLOADS[args.workload])
    result = (run_traced if args.trace else run_timed)(args, module)
    doc = {"correct": result["failed"] == 0,
           "attempted": result["attempted"], "failed": result["failed"],
           "metrics": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in result["metrics"].items()}}
    line = json.dumps(doc)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
