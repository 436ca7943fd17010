"""Pipeline runner: ordered expansion/reduction steps driven by JSON configs,
and the config readers the CLI shares with it.

A pipeline is a list of steps applied to a starting algebra.  Steps that need
the expansion semigroup (zero_reduce, resonant, sign_identify) remember it
from the preceding s_expand; configs stay declarative and reproducible.
Every integer a config states is a JSON int: a bool, a float or a string
where an integer belongs is a config error.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import NamedTuple, Optional

from .expansion import (ResonanceSpec, h_reduce, impose_sign_identification,
                        resonant_subalgebra, s_expand, zero_reduce)
from .lie_algebra import LieAlgebra
from .semigroup import Semigroup


class ConfigError(ValueError):
    """A config that is malformed or names nothing: a usage error, not a
    failed check."""


def registry() -> dict:
    with resources.files("sexpansion.data").joinpath("registry.json").open() as fh:
        return json.load(fh)


# the keys of each config object; any other key is a config error
SEMIGROUP_KEYS = ("name", "order", "table", "zero")
RESONANCE_KEYS = ("partition", "partition_by_base", "subsets")
# the keys of each step op; a resonant step names its resonance or states it
STEP_KEYS = {"s_expand": ("op", "semigroup"), "h_reduce": ("op", "n"),
             "zero_reduce": ("op",), "resonant": ("op", *RESONANCE_KEYS),
             "sign_identify": ("op", "pairing")}


def check_keys(spec: dict, keys, where: str) -> None:
    """A key of spec outside keys is a config error that names where it is."""
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))} for "
                          f"{where}; its keys are {', '.join(keys)}")


def required(spec: dict, key: str, where: str):
    """spec[key]; a missing key is a config error that names where it is."""
    if key not in spec:
        raise ConfigError(f"{where}: missing {key!r}")
    return spec[key]


def required_int(spec: dict, key: str, where: str) -> int:
    """spec[key] as an integer >= 1: every integer a step or a lift reads
    (n, base_dim) is a count."""
    value = required(spec, key, where)
    if type(value) is not int:
        raise ConfigError(f"{where}: {key!r} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigError(f"{where}: {key!r} must be >= 1, got {value}")
    return value


def _int_rows(value) -> bool:
    """Whether value is a list of lists of integers."""
    return isinstance(value, list) and all(
        isinstance(row, list) and all(type(v) is int for v in row) for row in value)


def by_name(lookup, name: str):
    """A named fixture; an unknown name is a config error, not a failed check."""
    try:
        return lookup(name)
    except ValueError as exc:
        raise ConfigError(str(exc))


def read_json_path(spec: dict, what: str):
    """The JSON value in the file at spec['path']; a file that cannot be read
    or is not JSON is a config error naming the file."""
    check_keys(spec, ("path",), what)
    path = spec["path"]
    if not isinstance(path, str):
        raise ConfigError(f"{what}: 'path' must be a string, got {path!r}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file is not valid JSON: {path!r}: {exc}")


def semigroup_from_config(spec) -> Semigroup:
    """A named semigroup or a {name, order, table, zero} descriptor, inline or
    in a file.  A descriptor of the wrong shape or types is a config error;
    whether its table is a semigroup is Semigroup's own (verification) check."""
    if isinstance(spec, str):
        from .fixtures import semigroup_by_name
        return by_name(semigroup_by_name, spec)
    if isinstance(spec, dict) and "path" in spec:
        spec = read_json_path(spec, "semigroup")
    if not isinstance(spec, dict):
        raise ConfigError("semigroup must be a name, a descriptor, or {'path': ...}")
    check_keys(spec, SEMIGROUP_KEYS, "semigroup")
    name, order, table, zero = (required(spec, key, "semigroup")
                                for key in SEMIGROUP_KEYS)
    if not isinstance(name, str):
        raise ConfigError(f"semigroup: 'name' must be a string, got {name!r}")
    if type(order) is not int:
        raise ConfigError(f"semigroup: 'order' must be an integer, got {order!r}")
    if not _int_rows(table):
        raise ConfigError("semigroup: 'table' must be a list of lists of integers")
    if zero is not None and type(zero) is not int:
        raise ConfigError(f"semigroup: 'zero' must be an integer or null, got {zero!r}")
    return Semigroup.from_json_dict(spec)


def resonance_spec_from_config(cfg: dict, base: LieAlgebra, s: Semigroup,
                               where: str) -> ResonanceSpec:
    """The spec a resonance config describes; a malformed shape, a tag
    outside s, a tag of s in no subset or a part no generator uses is a
    config error that names where it is."""
    subsets = required(cfg, "subsets", where)
    if not _int_rows(subsets):
        raise ConfigError(f"{where}: 'subsets' must be a list of lists of int tags, "
                          f"got {subsets!r}")
    cover, tags = set().union(*subsets), set(s.elements())
    if not cover <= tags:
        raise ConfigError(f"{where}: 'subsets' must hold tags in 0..{s.order - 1} "
                          f"of {s.name}, got {subsets!r}")
    if cover != tags:
        raise ConfigError(f"{where}: 'subsets' must cover every tag 0..{s.order - 1} "
                          f"of {s.name}, got {subsets!r}")
    if "partition" in cfg:
        partition = cfg["partition"]
    elif "partition_by_base" in cfg:
        table = cfg["partition_by_base"]
        if not isinstance(table, dict):
            raise ConfigError(f"{where}: 'partition_by_base' must be an object, got {table!r}")
        try:
            partition = [table[lab.base] for lab in base.labels]
        except KeyError as exc:
            raise ConfigError(f"{where}: partition does not cover base symbol {exc}")
    else:
        raise ConfigError(f"{where}: resonance config needs 'partition' or 'partition_by_base'")
    if (not isinstance(partition, list) or len(partition) != base.dim
            or not all(type(p) is int and 0 <= p < len(subsets) for p in partition)):
        raise ConfigError(
            f"{where}: the partition must give each of the {base.dim} base generators "
            f"a part in 0..{len(subsets) - 1}, got {partition!r}")
    if len(set(partition)) != len(subsets):
        raise ConfigError(f"{where}: the partition must use every part 0..{len(subsets) - 1}, "
                          f"one per subset, got {partition!r}")
    return ResonanceSpec.make(partition, subsets)


class PipelineState(NamedTuple):
    algebra: LieAlgebra
    base: Optional[LieAlgebra] = None
    semigroup: Optional[Semigroup] = None


def run_pipeline(start: LieAlgebra, steps: list[dict]) -> LieAlgebra:
    """Execute the steps in order; raises ConfigError on a malformed step."""
    if not isinstance(steps, list):
        raise ConfigError(f"steps must be a list of step objects, got {steps!r}")
    state = PipelineState(start)
    for i, step in enumerate(steps):
        where = f"step {i}"
        if not isinstance(step, dict):
            raise ConfigError(f"{where}: a step is an object with an 'op' key, got {step!r}")
        op = step.get("op")
        if not isinstance(op, str) or op not in STEP_KEYS:
            raise ConfigError(f"step {i}: unknown op {op!r}")
        check_keys(step, ("op", "resonance") if op == "resonant" and "resonance" in step
                   else STEP_KEYS[op], where)
        if op == "s_expand":
            sg = required(step, "semigroup", where)
            try:
                s = semigroup_from_config(sg)
            except ConfigError as exc:
                raise ConfigError(f"{where}: {exc}")
            state = PipelineState(s_expand(s, state.algebra),
                                  base=state.algebra, semigroup=s)
        elif op == "h_reduce":
            state = PipelineState(h_reduce(required_int(step, "n", where), state.algebra))
        elif op == "zero_reduce":
            if state.semigroup is None:
                raise ConfigError(f"step {i}: zero_reduce without a preceding s_expand")
            if state.semigroup.zero_index is None:
                raise ConfigError(f"step {i}: expansion semigroup has no zero element")
            state = PipelineState(zero_reduce(state.algebra, state.semigroup))
        elif op == "resonant":
            if state.semigroup is None or state.base is None:
                raise ConfigError(f"step {i}: resonant without a preceding s_expand")
            cfg = step.get("resonance", step)
            if isinstance(cfg, str):
                name, cfg = cfg, registry()["resonances"].get(cfg)
                if cfg is None:
                    raise ConfigError(f"{where}: unknown resonance {name!r}")
            elif cfg is not step:
                if not isinstance(cfg, dict):
                    raise ConfigError(f"{where}: 'resonance' must be a name or an object, "
                                      f"got {cfg!r}")
                check_keys(cfg, RESONANCE_KEYS, f"{where} resonance")
            spec = resonance_spec_from_config(cfg, state.base, state.semigroup, where)
            reduced = resonant_subalgebra(state.algebra, state.semigroup,
                                          state.base, spec)
            state = PipelineState(reduced, base=state.base, semigroup=state.semigroup)
        elif op == "sign_identify":
            if state.semigroup is None:
                raise ConfigError(f"step {i}: sign_identify without a preceding s_expand")
            pairs = required(step, "pairing", where)
            if not _int_rows(pairs) or any(len(pair) != 2 for pair in pairs):
                raise ConfigError(
                    f"{where}: 'pairing' must be a list of [tag, tag] pairs, got {pairs!r}")
            pairing = dict(pairs)
            pairing.update({b: a for a, b in list(pairing.items())})
            if set(pairing) != set(state.semigroup.elements()):
                raise ConfigError(
                    f"{where}: 'pairing' must cover the tags 0..{state.semigroup.order - 1} "
                    f"of {state.semigroup.name}, got {pairs!r}")
            state = PipelineState(impose_sign_identification(
                state.algebra, state.semigroup, pairing))
    return state.algebra
