"""cli-lagrangian: cold `sexpansion` CLI child processes, one at a time.

One pass runs five configs in an order chosen by the seed: the general-alpha
c5 Lagrangian, the c5 w,e sector against its golden, b5 against its golden,
c3 against its golden, and the README b5 `invariants` config with verify.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from seeds import config_order

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
CHILD = Path(__file__).resolve().parent / "cli_child.py"
CHILD_TIMEOUT_S = 120

# name -> (subcommand, config, format, documented solved scale of the golden)
CONFIGS = {
    "c5_general": ("lagrangian", {
        "dimension": 5, "algebra": "c5_rotated", "tensor": "c5_rotated"},
        "both", None),
    "c5_vielbein_sector": ("lagrangian", {
        "dimension": 5, "algebra": "c5_rotated", "tensor": "c5_rotated",
        "alphas": [1, -1, -1, -1], "fields": ["w", "e"],
        "compare": ["c5_lagrangian_kh0_sector"]}, "json", ("-1", 3)),
    "b5": ("lagrangian", {
        "dimension": 5, "algebra": "b5", "tensor": "b5",
        "compare": ["b5_lagrangian"]}, "json", ("4/3", 3)),
    "c3": ("lagrangian", {
        "dimension": 3, "algebra": "c3_rotated", "tensor": "c3_rotated",
        "compare": ["c3_lagrangian"]}, "both", ("1", 1)),
    "b5_invariants": ("invariants", {
        "algebra": "b5", "tensor": "b5", "verify": True}, "both", None),
}
TRIVIAL = ("semigroup", {"semigroup": "Z2"})


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_cli(args: list[str], trace_file=None) -> subprocess.CompletedProcess:
    """One cold child; with `trace_file` it runs under the span tracer."""
    head = [sys.executable, "-m", "sexpansion.cli"] if trace_file is None \
        else [sys.executable, str(CHILD), str(trace_file)]
    return subprocess.run(head + args, env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def setup(seed: int) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    names = list(CONFIGS)
    order = [names[i] for i in config_order(seed, len(names))]
    for name, (_, config, _, _) in CONFIGS.items():
        (workdir / f"{name}.json").write_text(json.dumps(config))
    trivial_cmd, trivial_config = TRIVIAL
    (workdir / "trivial.json").write_text(json.dumps(trivial_config))
    proc = run_cli([trivial_cmd, "--config", str(workdir / "trivial.json")])
    if proc.returncode != 0:
        raise RuntimeError(f"trivial CLI command failed: {proc.stderr}")
    return {"dir": workdir, "order": order}


def run_pass(state: dict, trace_dir=None) -> dict:
    results = {}
    for name in state["order"]:
        cmd, _, fmt, _ = CONFIGS[name]
        out_dir = state["dir"] / name
        trace_file = None if trace_dir is None else Path(trace_dir) / f"{name}.json"
        proc = run_cli([cmd, "--config", str(state["dir"] / f"{name}.json"),
                        "--out", str(out_dir), "--format", fmt], trace_file)
        results[name] = (proc.returncode, proc.stderr, out_dir)
    return results


def _vielbein_part(form):
    """Monomials built from w and e (and their differentials) only."""
    from sexpansion.forms import ScalarForm
    return ScalarForm({m: c for m, c in form.terms.items()
                       if all(s.field in ("w", "e") for s in m)})


def check(state: dict, out: dict) -> list[str]:
    """Every child exits 0; the w,e monomials of the general-alpha c5
    Lagrangian equal the middle-transgression golden exactly (every outer
    term carries k or h, and the inner transgression vanishes); each
    compared golden matches at its documented scale with every family ok."""
    from sexpansion.forms import scalar_form_from_json_dict
    from sexpansion.goldens import load_golden

    problems = []
    for name, (code, stderr, out_dir) in out.items():
        if code != 0:
            problems.append(f"{name}: exit {code}: {stderr.strip()[-300:]}")
            continue
        scale = CONFIGS[name][3]
        if scale is not None:
            text = (out_dir / "comparison.txt").read_text()
            golden = CONFIGS[name][1]["compare"][0]
            head = f"[{golden}] matched=True scale={scale!r} diffs=0"
            lines = text.splitlines()
            if not lines or lines[0] != head:
                problems.append(f"{name}: comparison is {lines[:1]}, expected {head}")
            if not any(l.startswith("  ok ") for l in lines) or \
                    any(l.startswith("  DIFF") or "outside the printed" in l
                        for l in lines):
                problems.append(f"{name}: not every family agrees")
    if out.get("c5_general", (1,))[0] == 0:
        if "middle" not in state:
            state["middle"] = load_golden("c5_middle_transgression").form()
        payload = json.loads((out["c5_general"][2] / "lagrangian.json").read_text())
        part = _vielbein_part(scalar_form_from_json_dict(payload["form"]))
        if part.is_zero() or part != state["middle"]:
            problems.append("c5_general: w,e monomials differ from "
                            "c5_middle_transgression")
    if out.get("b5_invariants", (1,))[0] == 0:
        tensor = json.loads((out["b5_invariants"][2] / "tensor.json").read_text())
        if not tensor.get("entries"):
            problems.append("b5_invariants: empty tensor")
    return problems
