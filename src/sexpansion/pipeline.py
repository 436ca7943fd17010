"""Pipeline runner: ordered expansion/reduction steps driven by JSON configs.

A pipeline is a list of steps applied to a starting algebra.  Steps that need
the expansion semigroup (zero_reduce, resonant, sign_identify) remember it
from the preceding s_expand; configs stay declarative and reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .expansion import (ResonanceSpec, h_reduce, impose_sign_identification,
                        resonant_subalgebra, s_expand, zero_reduce)
from .lie_algebra import LieAlgebra
from .semigroup import Semigroup


class PipelineError(ValueError):
    pass


def registry() -> dict:
    with resources.files("sexpansion.data").joinpath("registry.json").open() as fh:
        return json.load(fh)


def required(spec: dict, key: str, where: str):
    """spec[key]; a missing key is a config error that names where it is."""
    if key not in spec:
        raise PipelineError(f"{where}: missing {key!r}")
    return spec[key]


def required_int(spec: dict, key: str, where: str) -> int:
    """spec[key] as an integer >= 1: every integer a step or a lift reads
    (n, base_dim) is a count."""
    value = required(spec, key, where)
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise PipelineError(f"{where}: {key!r} must be an integer, got {value!r}")
    if number < 1:
        raise PipelineError(f"{where}: {key!r} must be >= 1, got {number}")
    return number


def resonance_spec_from_config(cfg: dict, base: LieAlgebra, where: str) -> ResonanceSpec:
    """The spec a resonance config describes; a malformed shape is a config
    error that names where it is."""
    subsets = required(cfg, "subsets", where)
    if not isinstance(subsets, list) or not all(
            isinstance(tags, list) and all(type(t) is int for t in tags) for tags in subsets):
        raise PipelineError(f"{where}: 'subsets' must be a list of lists of int tags, "
                            f"got {subsets!r}")
    if "partition" in cfg:
        partition = cfg["partition"]
    elif "partition_by_base" in cfg:
        table = cfg["partition_by_base"]
        if not isinstance(table, dict):
            raise PipelineError(f"{where}: 'partition_by_base' must be an object, got {table!r}")
        try:
            partition = [table[lab.base] for lab in base.labels]
        except KeyError as exc:
            raise PipelineError(f"{where}: partition does not cover base symbol {exc}")
    else:
        raise PipelineError(f"{where}: resonance config needs 'partition' or 'partition_by_base'")
    if (not isinstance(partition, list) or len(partition) != base.dim
            or not all(type(p) is int and 0 <= p < len(subsets) for p in partition)):
        raise PipelineError(
            f"{where}: the partition must give each of the {base.dim} base generators "
            f"a part in 0..{len(subsets) - 1}, got {partition!r}")
    return ResonanceSpec.make(partition, subsets)


@dataclass
class PipelineState:
    algebra: LieAlgebra
    base: Optional[LieAlgebra] = None
    semigroup: Optional[Semigroup] = None


def run_pipeline(start: LieAlgebra, steps: list[dict],
                 semigroup_loader=None) -> LieAlgebra:
    """Execute the steps in order; raises PipelineError on type errors."""
    if semigroup_loader is None:
        from .fixtures import semigroup_by_name
        semigroup_loader = semigroup_by_name
    if not isinstance(steps, list):
        raise PipelineError(f"steps must be a list of step objects, got {steps!r}")
    state = PipelineState(start)
    for i, step in enumerate(steps):
        where = f"step {i}"
        if not isinstance(step, dict):
            raise PipelineError(f"{where}: a step is an object with an 'op' key, got {step!r}")
        op = step.get("op")
        if op == "s_expand":
            sg = required(step, "semigroup", where)
            if isinstance(sg, str):
                try:
                    s = semigroup_loader(sg)
                except ValueError as exc:
                    raise PipelineError(f"{where}: {exc}")
            elif isinstance(sg, dict):
                s = Semigroup.from_json_dict(sg)
            else:
                raise PipelineError(f"{where}: 'semigroup' must be a name or an object")
            state = PipelineState(s_expand(s, state.algebra),
                                  base=state.algebra, semigroup=s)
        elif op == "h_reduce":
            state = PipelineState(h_reduce(required_int(step, "n", where), state.algebra))
        elif op == "zero_reduce":
            if state.semigroup is None:
                raise PipelineError(f"step {i}: zero_reduce without a preceding s_expand")
            if state.semigroup.zero_index is None:
                raise PipelineError(f"step {i}: expansion semigroup has no zero element")
            state = PipelineState(zero_reduce(state.algebra, state.semigroup))
        elif op == "resonant":
            if state.semigroup is None or state.base is None:
                raise PipelineError(f"step {i}: resonant without a preceding s_expand")
            cfg = step.get("resonance")
            if isinstance(cfg, str):
                name, cfg = cfg, registry()["resonances"].get(cfg)
                if cfg is None:
                    raise PipelineError(f"{where}: unknown resonance {name!r}")
            elif cfg is None:
                cfg = step
            spec = resonance_spec_from_config(cfg, state.base, where)
            reduced = resonant_subalgebra(state.algebra, state.semigroup,
                                          state.base, spec)
            state = PipelineState(reduced, base=state.base, semigroup=state.semigroup)
        elif op == "sign_identify":
            if state.semigroup is None:
                raise PipelineError(f"step {i}: sign_identify without a preceding s_expand")
            pairs = required(step, "pairing", where)
            try:
                pairing = {int(a): int(b) for a, b in pairs}
            except (TypeError, ValueError):
                raise PipelineError(
                    f"{where}: 'pairing' must be a list of [tag, tag] pairs, got {pairs!r}")
            pairing.update({b: a for a, b in list(pairing.items())})
            if set(pairing) != set(state.semigroup.elements()):
                raise PipelineError(
                    f"{where}: 'pairing' must cover the tags 0..{state.semigroup.order - 1} "
                    f"of {state.semigroup.name}, got {pairs!r}")
            state = PipelineState(impose_sign_identification(
                state.algebra, state.semigroup, pairing))
        else:
            raise PipelineError(f"step {i}: unknown op {op!r}")
    return state.algebra
