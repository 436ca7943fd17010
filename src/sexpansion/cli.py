"""Batch front-end: expansion pipelines, tensor lifting, Lagrangian
construction, and golden-expression comparisons.

Every run is driven by a single JSON config file; flags only choose the
subcommand, output paths, formats, and extra comparisons.  Exit codes:
0 success, 1 verification failure, 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

from .expansion import ExpansionError
from .fixtures import algebra_by_name, build_connection, connection_chain, tensor_by_name
from .forms import FIELDS, LieValuedForm, scalar_form_latex, scalar_form_to_json_dict
from .goldens import compare_golden, load_golden
from .invariant_tensor import (InvariantTensor, TensorError, latex_family_table,
                               lift_0s, lift_h, require_fit, verify_invariance)
from .lagrangian import int_separation
from .lie_algebra import LieAlgebra, check_axioms
from .pipeline import (ConfigError, by_name, check_keys, read_json_path, required,
                       required_int, run_pipeline, semigroup_from_config)
from .scalars import Q2, ScalarExpr
from .semigroup import SemigroupError, find_isomorphism


# the config keys each command reads; any other key is a config error, found
# once the command's named inputs resolve and before any check runs
_CONFIG_KEYS = {
    "expand": ("algebra", "steps"),
    "invariants": ("algebra", "tensor", "alphas", "verify"),
    "lagrangian": ("dimension", "algebra", "tensor", "alphas", "fields", "compare",
                   "method", "compare_up_to_scale"),
    "semigroup": ("action", "semigroup", "first", "second"),
    "check": ("algebra", "tensor"),
}
# the keys of each tensor lift kind
_LIFT_KEYS = {"h": ("kind", "n"), "zero": ("kind", "semigroup", "base_dim")}


class VerificationFailure(Exception):
    pass


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        raise ConfigError("--config is required")
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def _flag(config: dict, key: str, default: bool) -> bool:
    """A boolean key; anything but a JSON true or false is a config error."""
    value = config.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _decode_path(spec: dict, what: str, from_json_dict):
    """from_json_dict of the file at spec['path']; a file that lacks a key or
    has the wrong shape is a config error naming the file and the problem."""
    data = read_json_path(spec, what)
    try:
        return from_json_dict(data)
    except KeyError as exc:
        raise ConfigError(f"{what} file {spec['path']!r} lacks the key {exc}")
    except (TypeError, AttributeError, ValueError) as exc:
        raise ConfigError(f"{what} file {spec['path']!r} is malformed: {exc}")


def _resolve_algebra(spec) -> LieAlgebra:
    if isinstance(spec, str):
        return by_name(algebra_by_name, spec)
    if isinstance(spec, dict) and "path" in spec:
        return _decode_path(spec, "algebra", LieAlgebra.from_json_dict)
    raise ConfigError("algebra must be a fixture name or {'path': ...}")


def _resolve_tensor(spec, algebra: LieAlgebra) -> InvariantTensor:
    if isinstance(spec, str):
        tensor = by_name(tensor_by_name, spec)
    elif isinstance(spec, dict) and "path" in spec:
        tensor = _decode_path(spec, "tensor", InvariantTensor.from_json_dict)
    elif isinstance(spec, dict) and "lift" in spec:
        check_keys(spec, ("base", "lift"), "tensor")
        base = by_name(tensor_by_name, required(spec, "base", "tensor"))
        lift = spec["lift"]
        if not isinstance(lift, dict):
            raise ConfigError(f"tensor: 'lift' must be an object with a 'kind', got {lift!r}")
        kind = required(lift, "kind", "tensor lift")
        if not isinstance(kind, str) or kind not in _LIFT_KEYS:
            raise ConfigError(f"unknown lift kind {kind!r}")
        check_keys(lift, _LIFT_KEYS[kind], "tensor lift")
        try:
            if kind == "h":
                return lift_h(required_int(lift, "n", "tensor lift"), algebra, base)
            sg = required(lift, "semigroup", "tensor lift")
            try:
                s = semigroup_from_config(sg)
            except ConfigError as exc:
                raise ConfigError(f"tensor lift: {exc}")
            if s.zero_index is None:
                raise ConfigError(f"tensor lift: semigroup {s.name!r} has no zero element")
            return lift_0s(s, algebra, required_int(lift, "base_dim", "tensor lift"), base)
        except TensorError as exc:  # the lift does not fit the algebra
            raise ConfigError(f"tensor lift: {exc}")
    else:
        raise ConfigError("tensor must be a name, {'path': ...}, or a lift spec")
    try:
        require_fit(algebra, tensor)
    except TensorError as exc:  # a tensor of a larger algebra; a lift always fits
        raise ConfigError(f"tensor: {exc}")
    return tensor


def _specialize(tensor: InvariantTensor, alphas) -> InvariantTensor:
    """Substitute alpha_i -> alphas[i] * alpha_0 for a ratio list."""
    needed = 1 + max((a for v in tensor.entries.values() for (a, _) in v.terms
                      if a is not None), default=-1)
    if not isinstance(alphas, list) or len(alphas) < needed:
        raise ConfigError(f"alphas must be 'general' or a list of {needed} ratios")
    try:
        ratios = [Fraction(str(r)) for r in alphas]
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"alphas must be rational numbers, got {alphas}")
    return InvariantTensor(tensor.rank, {
        k: v.specialize_alphas(ratios) for k, v in tensor.entries.items()})


def _name_list(config: dict, key: str, default: list[str]) -> list[str]:
    names = config.get(key, default)
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ConfigError(f"{key} must be a list of names")
    return names


# A list of at most _SHORT items is rendered to one string, kept for the
# list object at its depth; longer lists and dicts go out item by item, and
# the pending text is written once it holds _CHUNK pieces.
_SHORT = 64
_CHUNK = 4096


def write_json(value, write) -> None:
    """Write json.dumps(value, indent=1) through `write`, in chunks.

    Takes str, int, bool, None, list and dict with str keys, and raises
    TypeError on anything else.  A list object that comes back at the same
    depth, such as a `coeff` list that monomials share, is rendered once."""
    lists: dict[tuple[int, int], str] = {}
    top: list[str] = []

    def put(v, depth: int, out: list[str]) -> None:
        if isinstance(v, str):
            out.append(encode_basestring_ascii(v))
        elif v is None:
            out.append("null")
        elif v is True:
            out.append("true")
        elif v is False:
            out.append("false")
        elif isinstance(v, int):
            out.append(int.__repr__(v))
        elif isinstance(v, (dict, list)) and not v:
            out.append("{}" if isinstance(v, dict) else "[]")
        elif isinstance(v, dict):
            items(v, depth, out)
        elif isinstance(v, list):
            key = (id(v), depth)
            text = lists.get(key)
            if text is None:
                if len(v) > _SHORT:
                    items(v, depth, out)
                    return
                piece: list[str] = []
                items(v, depth, piece)
                text = lists[key] = "".join(piece)
            out.append(text)
        else:
            raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")

    def items(v, depth: int, out: list[str]) -> None:
        """A nonempty dict or list, one item a line at depth + 1."""
        is_dict = isinstance(v, dict)
        inner = "\n" + " " * (depth + 1)
        sep = ("{" if is_dict else "[") + inner
        for item in v.items() if is_dict else v:
            out.append(sep)
            sep = "," + inner
            if is_dict:
                k, item = item
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                out.append(encode_basestring_ascii(k) + ": ")
            put(item, depth + 1, out)
            if out is top and len(top) >= _CHUNK:
                write("".join(top))
                top.clear()
        out.append("\n" + " " * depth + ("}" if is_dict else "]"))

    put(value, 0, top)
    write("".join(top))


class Output:
    def __init__(self, out_dir: Optional[str], fmt: str):
        self.dir = Path(out_dir) if out_dir else None
        self.fmt = fmt

    def emit_json(self, name: str, payload: dict) -> None:
        with self._open(name + ".json") as fh:
            write_json(payload, fh.write)
            fh.write("\n")

    def emit_text(self, name: str, text: str, ext: str = ".txt") -> None:
        with self._open(name + ext) as fh:
            fh.write(text if text.endswith("\n") else text + "\n")

    def emit_latex(self, name: str, text: str) -> None:
        self.emit_text(name, text, ".tex")

    @contextmanager
    def _open(self, filename: str):
        """The file under --out, or stdout after a `--- filename ---` header.
        The --out directory is made here, at the first write, so a run that
        fails before it writes leaves none behind."""
        if self.dir:
            self.dir.mkdir(parents=True, exist_ok=True)
            with open(self.dir / filename, "w") as fh:
                yield fh
        else:
            sys.stdout.write(f"--- {filename} ---\n")
            yield sys.stdout


def cmd_expand(config: dict, out: Output) -> None:
    algebra = _resolve_algebra(config.get("algebra"))
    check_keys(config, _CONFIG_KEYS["expand"], "expand")
    steps = config.get("steps", [])
    result = run_pipeline(algebra, steps)
    report = check_axioms(result)
    if not report.ok:
        raise VerificationFailure(
            f"axiom check failed on the pipeline result at triple {report.violation}")
    out.emit_json("algebra", result.to_json_dict())
    out.emit_text("commutators",
                  "\n".join([f"# {result.name}: dim {result.dim}"]
                            + result.commutator_lines())
                  or "# trivial algebra")


def cmd_invariants(config: dict, out: Output) -> None:
    algebra = _resolve_algebra(config.get("algebra"))
    tensor = _resolve_tensor(config.get("tensor"), algebra)
    check_keys(config, _CONFIG_KEYS["invariants"], "invariants")
    if config.get("alphas") not in (None, "general"):
        tensor = _specialize(tensor, config["alphas"])
    if _flag(config, "verify", True):
        rep = verify_invariance(algebra, tensor)
        if not rep.ok:
            a0, combo = rep.violation
            raise VerificationFailure(
                "invariance fails: rotating slot tuple "
                f"{tuple(str(algebra.labels[i]) for i in combo)} by "
                f"{algebra.labels[a0]} leaves {rep.value}")
    out.emit_json("tensor", tensor.to_json_dict())
    if out.fmt in ("latex", "both"):
        out.emit_latex("tensor_table", latex_family_table(tensor, algebra))


def _lovelock_dictionary() -> dict[str, ScalarExpr]:
    half = Q2(Fraction(1, 2))
    third = Q2(Fraction(1, 3))
    tenth = Q2(Fraction(1, 10))
    return {
        "beta0": (ScalarExpr.alpha(0) + ScalarExpr.alpha(1)).scaled(half),
        "beta1": (ScalarExpr.alpha(1) + ScalarExpr.alpha(2)).scaled(third, -2),
        "beta2": (ScalarExpr.alpha(2) + ScalarExpr.alpha(3)).scaled(tenth, -4),
    }


def lovelock_json() -> dict:
    return {name: expr.to_json_list() for name, expr in _lovelock_dictionary().items()}


def cmd_lagrangian(config: dict, out: Output, extra_compare: list[str]) -> None:
    algebra = _resolve_algebra(config.get("algebra"))
    tensor = _resolve_tensor(config.get("tensor"), algebra)
    check_keys(config, _CONFIG_KEYS["lagrangian"], "lagrangian")
    dimension = config.get("dimension")
    if type(dimension) is not int or dimension != 2 * tensor.rank - 1:
        raise ConfigError(f"dimension must be 2 * rank - 1 = {2 * tensor.rank - 1} "
                          f"for the rank-{tensor.rank} tensor, got {dimension!r}")
    alphas = config.get("alphas", "general")
    if alphas != "general":
        tensor = _specialize(tensor, alphas)
    fields = tuple(_name_list(config, "fields", list(FIELDS)))
    unknown = sorted(set(fields) - FIELDS.keys())
    if unknown:
        raise ConfigError(f"unknown fields {unknown}; fields are a subset of {' '.join(FIELDS)}")
    if len(set(fields)) != len(fields):
        raise ConfigError(f"fields must name each field once, got {list(fields)}")
    goldens = []
    for name in _name_list(config, "compare", []) + extra_compare:
        try:
            golden = load_golden(name)
        except KeyError as exc:
            raise ConfigError(exc.args[0])
        if golden.dimension != dimension:
            raise ConfigError(f"golden {name!r} is a {golden.dimension}d expression")
        goldens.append(golden)
    up_to_scale = _flag(config, "compare_up_to_scale", True)
    method = config.get("method", "separated")
    if method not in ("separated", "direct"):
        raise ConfigError("method must be 'separated' or 'direct'")
    try:  # an algebra with a generator that no field attaches to
        chain = connection_chain(algebra, fields) if method == "separated" \
            else [build_connection(algebra, fields), LieValuedForm.zero()]
    except ValueError as exc:
        raise ConfigError(f"connection: {exc}")
    # the kernel form goes to the writers and comparisons as it is
    lagrangian = int_separation(chain, tensor, dimension, algebra)

    payload = {
        "dimension": dimension,
        "algebra": algebra.name,
        "method": method,
        "fields": list(fields),
        "kappa": "symbolic overall prefactor, not folded into coefficients",
        "form": scalar_form_to_json_dict(lagrangian),
    }
    if dimension == 5:
        payload["lovelock"] = lovelock_json()
    out.emit_json("lagrangian", payload)
    if out.fmt in ("latex", "both"):
        out.emit_latex("lagrangian", scalar_form_latex(lagrangian))

    failures = []
    lines = []
    for golden in goldens:
        name = golden.name
        rep, fam = compare_golden(lagrangian, golden, up_to_scale)
        lines.append(f"[{name}] matched={rep.matched} "
                     f"scale={rep.scale and (str(rep.scale[0]), rep.scale[1])} "
                     f"diffs={len(rep.diffs)}")
        if rep.note:
            lines.append(f"  note: {rep.note}")
        for t in fam.agreements:
            coeff = "(vanishes identically)" if t.vanishes \
                else "(absorbed in earlier family)" if t.machine_coefficient is None \
                else str(t.machine_coefficient)
            lines.append(f"  {'ok ' if t.agrees else 'DIFF'} {t.term}")
            lines.append(f"       machine family coefficient: {coeff}")
        if fam.residual_monomials:
            lines.append(f"  {fam.residual_monomials} computed monomials outside "
                         "the printed families")
        if not rep.matched:
            failures.append(name)
            for d in rep.diffs[:20]:
                lines.append(f"    {d.monomial}: computed {d.computed} "
                             f"vs printed {d.expected}")
            if len(rep.diffs) > 20:
                lines.append(f"    ... {len(rep.diffs) - 20} more")
    if lines:
        out.emit_text("comparison", "\n".join(lines))
    if failures:
        raise VerificationFailure(
            "comparison mismatch for: " + ", ".join(failures))


def cmd_semigroup(config: dict, out: Output) -> None:
    check_keys(config, _CONFIG_KEYS["semigroup"], "semigroup")
    action = config.get("action", "construct")
    if action == "construct":
        s = semigroup_from_config(config.get("semigroup"))
        out.emit_json("semigroup", s.to_json_dict())
    elif action == "verify":
        try:
            semigroup_from_config(config.get("semigroup"))
        except SemigroupError as exc:
            raise VerificationFailure(f"invalid semigroup: {exc}")
        out.emit_text("verify", "ok")
    elif action == "isomorphism":
        s1 = semigroup_from_config(config.get("first"))
        s2 = semigroup_from_config(config.get("second"))
        perm = find_isomorphism(s1, s2)
        out.emit_json("isomorphism",
                      {"first": s1.name, "second": s2.name,
                       "isomorphic": perm is not None,
                       "bijection": list(perm) if perm else None})
        if perm is None:
            raise VerificationFailure("no isomorphism found")
    else:
        raise ConfigError(f"unknown semigroup action {action!r}")


def cmd_check(config: dict, out: Output) -> None:
    algebra = _resolve_algebra(config.get("algebra"))
    tensor = _resolve_tensor(config["tensor"], algebra) if "tensor" in config else None
    check_keys(config, _CONFIG_KEYS["check"], "check")
    rep = check_axioms(algebra)
    lines = [f"axioms: {'ok' if rep.ok else f'Jacobi fails at {rep.violation}'}"]
    ok = rep.ok
    if tensor is not None:
        inv = verify_invariance(algebra, tensor)
        lines.append(f"invariance: {'ok' if inv.ok else f'fails, residue {inv.value}'}")
        ok = ok and inv.ok
    out.emit_text("check", "\n".join(lines))
    if not ok:
        raise VerificationFailure("check failed")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sexpansion",
        description="semigroup expansions, invariant tensors, and exact "
                    "Chern-Simons Lagrangians")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("expand", "invariants", "lagrangian", "semigroup", "check"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=False)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "latex", "both"), default="json")
        if name == "lagrangian":
            p.add_argument("--compare", action="append", default=[],
                           help="golden expression name (repeatable)")
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 2
    try:
        config = _load_config(args.config)
        out = Output(args.out, args.format)
        if args.command == "expand":
            cmd_expand(config, out)
        elif args.command == "invariants":
            cmd_invariants(config, out)
        elif args.command == "lagrangian":
            cmd_lagrangian(config, out, args.compare)
        elif args.command == "semigroup":
            cmd_semigroup(config, out)
        elif args.command == "check":
            cmd_check(config, out)
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
    except (VerificationFailure, ExpansionError, SemigroupError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:  # a config error, whatever raised it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an unwritable --out, an unreadable config, a closed stdout
        if isinstance(exc, BrokenPipeError):
            # what stdout still buffers goes nowhere, so the flush at
            # interpreter shutdown cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
