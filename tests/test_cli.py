import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from sexpansion import cli
from sexpansion.cli import main, write_json
from sexpansion.fixtures import c_tensor_rotated, connection_chain, make_c_algebra_rotated
from sexpansion.forms import (FormSymbol, IntForm, ScalarForm, canonical_monomial,
                              scalar_form_from_json_dict, scalar_form_latex,
                              scalar_form_to_json_dict, sym)
from sexpansion.goldens import Golden, load_golden
from sexpansion.invariant_tensor import epsilon_tensor
from sexpansion.lagrangian import subspace_separation
from sexpansion.lie_algebra import LieAlgebra, make_named
from sexpansion.scalars import Q2, ScalarExpr


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_expand_pipeline_recovers_lorentz_algebra(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "algebra": "so3",
        "steps": [{"op": "h_reduce", "n": 2}],
    })
    out = tmp_path / "out"
    assert main(["expand", "--config", cfg, "--out", str(out)]) == 0
    dumped = LieAlgebra.from_json_dict(json.loads((out / "algebra.json").read_text()))
    assert dumped.constants_equal(make_named("so31"))
    table = (out / "commutators.txt").read_text()
    assert "[J(1)@0, J(2)@0] = 1 J(3)@0" in table


def test_expand_empty_pipeline_echoes(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"algebra": "so3", "steps": []})
    out = tmp_path / "out"
    assert main(["expand", "--config", cfg, "--out", str(out)]) == 0
    dumped = LieAlgebra.from_json_dict(json.loads((out / "algebra.json").read_text()))
    assert dumped.constants_equal(make_named("so3"))


def test_expand_resonant_pipeline(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "algebra": "ads5",
        "steps": [
            {"op": "s_expand", "semigroup": "SE3"},
            {"op": "resonant", "resonance": "b5"},
            {"op": "zero_reduce"},
        ],
    })
    out = tmp_path / "out"
    assert main(["expand", "--config", cfg, "--out", str(out)]) == 0
    dumped = LieAlgebra.from_json_dict(json.loads((out / "algebra.json").read_text()))
    assert dumped.dim == 30


def test_expand_type_error_is_usage_error(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "algebra": "so3",
        "steps": [{"op": "zero_reduce"}],
    })
    assert main(["expand", "--config", cfg]) == 2


def test_missing_config_is_usage_error():
    assert main(["expand", "--config", "/nonexistent/cfg.json"]) == 2


def test_invariants_emits_table_and_json(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "algebra": "b5", "tensor": "b5", "verify": True,
    })
    out = tmp_path / "out"
    assert main(["invariants", "--config", cfg, "--out", str(out),
                 "--format", "both"]) == 0
    tensor = json.loads((out / "tensor.json").read_text())
    assert tensor["rank"] == 3 and tensor["entries"]
    assert r"\langle" in (out / "tensor_table.tex").read_text()


def test_invariants_failure_exits_one(tmp_path):
    # general-alpha halved lift is not invariant; the command must fail
    cfg = write_config(tmp_path, "cfg.json", {
        "algebra": "c5", "tensor": "c5", "verify": True,
    })
    assert main(["invariants", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_invariants_zero_alphas_gives_empty_table(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "algebra": "c5", "tensor": "c5", "verify": True, "alphas": [0, 0, 0, 0],
    })
    out = tmp_path / "out"
    assert main(["invariants", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "tensor.json").read_text())["entries"] == []


def test_lagrangian_sector_comparison_passes(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "dimension": 3, "algebra": "c3_rotated", "tensor": "c3_rotated",
        "fields": ["w", "e"], "compare": ["c3_lagrangian_kh0_sector"],
    })
    out = tmp_path / "out"
    assert main(["lagrangian", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "comparison.txt").read_text()
    assert "matched=True" in report


def test_lagrangian_reports_a_vanishing_printed_term(tmp_path, monkeypatch):
    sector = load_golden("c3_lagrangian_kh0_sector")
    golden = Golden("with_vanishing", 3, sector.text + "+ eps[abc] T[a] T[b] e[c]\n")
    monkeypatch.setattr(cli, "load_golden", lambda name: golden)
    cfg = write_config(tmp_path, "cfg.json", {
        "dimension": 3, "algebra": "c3_rotated", "tensor": "c3_rotated",
        "fields": ["w", "e"], "compare": ["with_vanishing"],
    })
    out = tmp_path / "out"
    assert main(["lagrangian", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "comparison.txt").read_text()
    assert "matched=True" in report
    assert report.count("  ok  ") == 2
    assert ("  DIFF + eps[abc] T[a] T[b] e[c]\n"
            "       machine family coefficient: (vanishes identically)") in report


def test_lagrangian_writes_the_comparison_note(tmp_path):
    """At [1, -1, -1, -1] the computed anchor is -4*a0*l^-3 against a printed
    2*a1*l^-2 + 2*a2*l^-2, so no alpha-free c*l^k maps one to the other and
    the report says why under the golden's header line."""
    cfg = write_config(tmp_path, "cfg.json", {
        "dimension": 3, "algebra": "c3_rotated", "tensor": "c3_rotated",
        "alphas": [1, -1, -1, -1], "fields": ["w", "e"], "compare": ["c3_lagrangian"],
    })
    out = tmp_path / "out"
    assert main(["lagrangian", "--config", cfg, "--out", str(out)]) == 1
    lines = (out / "comparison.txt").read_text().splitlines()
    assert lines[:2] == ["[c3_lagrangian] matched=False scale=None diffs=1",
                         "  note: no admissible scalar on the anchor term"]
    assert "    e0^e1^e2: computed -4*a0*l^-3 vs printed 2*a1*l^-2 + 2*a2*l^-2" in lines


def test_lagrangian_full_3d_golden(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "dimension": 3, "algebra": "c3_rotated", "tensor": "c3_rotated",
        "compare": ["c3_lagrangian"],
    })
    assert main(["lagrangian", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_lagrangian_compare_flag(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "dimension": 3, "algebra": "c3_rotated", "tensor": "c3_rotated",
        "fields": ["w", "e", "k"],
    })
    out = tmp_path / "out"
    assert main(["lagrangian", "--config", cfg, "--out", str(out),
                 "--compare", "c3_lagrangian_h0_sector"]) == 0
    assert "matched=True" in (out / "comparison.txt").read_text()


def test_lagrangian_deterministic_output(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "dimension": 3, "algebra": "c3_rotated", "tensor": "c3_rotated",
    })
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["lagrangian", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["lagrangian", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "lagrangian.json").read_bytes() == (out2 / "lagrangian.json").read_bytes()


def test_lagrangian_emits_lovelock_dictionary(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "dimension": 5, "algebra": "c5_rotated", "tensor": "c5_rotated",
        "fields": ["w", "e"],
    })
    out = tmp_path / "out"
    assert main(["lagrangian", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "lagrangian.json").read_text())
    assert payload["lovelock"]["beta0"] == [
        {"alpha": 0, "ell_pow": 0, "q": "1/2"},
        {"alpha": 1, "ell_pow": 0, "q": "1/2"},
    ]


def test_lagrangian_mismatch_exits_one(tmp_path):
    # the 3d vielbein sector against the 5d golden is a usage error (dims),
    # while comparing the wrong sector content is a verification failure
    cfg = write_config(tmp_path, "cfg.json", {
        "dimension": 3, "algebra": "c3_rotated", "tensor": "c3_rotated",
        "fields": ["w", "e"], "compare": ["c3_lagrangian"],
    })
    assert main(["lagrangian", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    cfg2 = write_config(tmp_path, "cfg2.json", {
        "dimension": 3, "algebra": "c3_rotated", "tensor": "c3_rotated",
        "compare": ["c5_lagrangian_kh0_sector"],
    })
    assert main(["lagrangian", "--config", cfg2, "--out", str(tmp_path / "o2")]) == 2


def test_semigroup_construct_verify_isomorphism(tmp_path):
    cfg = write_config(tmp_path, "s.json", {"action": "construct", "semigroup": "Z4"})
    out = tmp_path / "out"
    assert main(["semigroup", "--config", cfg, "--out", str(out)]) == 0
    z4 = json.loads((out / "semigroup.json").read_text())
    assert z4["order"] == 4 and z4["zero"] is None

    bad = write_config(tmp_path, "bad.json", {
        "action": "verify",
        "semigroup": {"name": "bad", "order": 2, "table": [[0, 1], [0, 1]], "zero": None},
    })
    assert main(["semigroup", "--config", bad]) == 1

    iso = write_config(tmp_path, "iso.json", {
        "action": "isomorphism", "first": "D4", "second": "Z4",
    })
    assert main(["semigroup", "--config", iso, "--out", str(out)]) == 1
    assert json.loads((out / "isomorphism.json").read_text())["isomorphic"] is False


def test_check_command(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"algebra": "ads5", "tensor": "ads5_eps"})
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    cfg_bad = write_config(tmp_path, "cb.json", {"algebra": "c5", "tensor": "c5"})
    assert main(["check", "--config", cfg_bad, "--out", str(tmp_path / "o2")]) == 1


def test_algebra_round_trip_through_files(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {
        "algebra": "so31", "steps": [],
    })
    assert main(["expand", "--config", cfg, "--out", str(out)]) == 0
    cfg2 = write_config(tmp_path, "cfg2.json", {
        "algebra": {"path": str(out / "algebra.json")}, "steps": [],
    })
    out2 = tmp_path / "out2"
    assert main(["expand", "--config", cfg2, "--out", str(out2)]) == 0
    assert (out / "algebra.json").read_bytes() == (out2 / "algebra.json").read_bytes()


@pytest.mark.parametrize("command, payload", [
    ("check", {"algebra": "nosuch"}),
    ("check", {"algebra": "so3", "tensor": "nosuch"}),
    ("check", {"algebra": "so3", "tensor": {"base": "nosuch",
                                            "lift": {"kind": "h", "n": 2}}}),
    ("semigroup", {"action": "construct", "semigroup": "nosuch"}),
])
def test_unknown_name_is_usage_error(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown") and "nosuch" in err


def _so3_file(constants, dim=3):
    """An algebra file on the three so3 labels with the given (A, B, C, c)."""
    return json.dumps({
        "name": "x", "dim": dim,
        "labels": [{"base": "J", "index": [i]} for i in (1, 2, 3)],
        "constants": [{"A": a, "B": b, "C": c, "c": str(v)} for a, b, c, v in constants]})


def _so3_constant_file(constant):
    """An algebra file on the three so3 labels whose one constant is this
    JSON object, stated as it is."""
    return json.dumps({
        "name": "x", "labels": [{"base": "J", "index": [i]} for i in (1, 2, 3)],
        "constants": [constant]})


def _tensor_file(entries):
    """A rank-2 tensor file with the given (indices, rational coefficient)."""
    return json.dumps({"rank": 2, "entries": [
        {"indices": list(key), "coeff": [{"alpha": None, "ell_pow": 0, "q": str(q)}]}
        for key, q in entries]})


def _coeff_file(*items):
    """A rank-2 tensor file whose one entry, on [0, 0], states these
    coefficient items."""
    return json.dumps({"rank": 2, "entries": [{"indices": [0, 0], "coeff": list(items)}]})


# placeholder in a payload -> (text of the file it names, None for no file;
# what the one error line must say besides the file name)
_PATH_FILES = {
    "MISSING": (None, "error: cannot read"),
    "NOT_JSON": ("{", "file is not valid JSON"),
    "NO_LABELS": ('{"name": "x"}', "algebra file {path} lacks the key 'labels'"),
    "NO_COEFF": ('{"rank": 2, "entries": [{"indices": [0, 1]}]}',
                 "tensor file {path} lacks the key 'coeff'"),
    # a later zero entry on [1, 0] would drop [0, 1] and leave so3's Killing form
    "REPEATED_ENTRY": (_tensor_file([((0, 0), 1), ((1, 1), 1), ((2, 2), 1),
                                     ((0, 1), 3), ((1, 0), 0)]),
                       "tensor file {path} is malformed: entry [0, 1] is stated twice"),
    "REPEATED_TRIPLE": (_so3_file([(0, 1, 2, 1), (0, 1, 2, 5)]),
                        "algebra file {path} is malformed: "
                        "constant (A, B, C) = (0, 1, 2) is stated twice"),
    "FLIPPED_TRIPLE": (_so3_file([(0, 1, 2, 1), (1, 0, 2, -1)]),
                       "algebra file {path} is malformed: "
                       "constant (A, B, C) = (0, 1, 2) is stated twice"),
    "DIM_SEVEN": (_so3_file([(0, 1, 2, 1)], dim=7),
                  "algebra file {path} is malformed: dim 7 does not match the 3 labels"),
    # an item that repeats (alpha, ell_pow) was added to the first, giving 3
    "REPEATED_TERM": (_coeff_file({"alpha": None, "ell_pow": 0, "q": "1"},
                                  {"alpha": None, "ell_pow": 0, "q": "2"}),
                      "tensor file {path} is malformed: coefficient term "
                      "(alpha, ell_pow) = (None, 0) is stated twice"),
    "ALPHA_NOT_INT": (_coeff_file({"alpha": "x", "ell_pow": 0, "q": "1"}),
                      "tensor file {path} is malformed: alpha must be null or a "
                      "non-negative integer, got 'x'"),
    "ALPHA_BOOL": (_coeff_file({"alpha": True, "ell_pow": 0, "q": "1"}),
                   "tensor file {path} is malformed: alpha must be null or a "
                   "non-negative integer, got True"),
    "ELL_NOT_INT": (_coeff_file({"alpha": None, "ell_pow": "2", "q": "1"}),
                    "tensor file {path} is malformed: ell_pow must be an integer, got '2'"),
    # a zero constant on a generator that does not exist read as nothing
    "OUT_OF_RANGE": (_so3_file([(0, 1, 2, 1), (0, 1, 7, 0)]),
                     "algebra file {path} is malformed: "
                     "constant (A, B, C) = (0, 1, 7) names a generator outside 0..2"),
    "NEGATIVE_INDEX": (_so3_file([(-1, 1, 2, 0)]),
                       "algebra file {path} is malformed: "
                       "constant (A, B, C) = (-1, 1, 2) names a generator outside 0..2"),
    "ZERO_DIAGONAL": (_so3_file([(1, 1, 2, 0)]),
                      "algebra file {path} is malformed: "
                      "constant (A, B, C) = (1, 1, 2) has A == B"),
    # a JSON number with a fraction part is a binary float: 0.1 read as
    # 3602879701896397/36028797018963968
    "Q_FLOAT": (_coeff_file({"alpha": None, "ell_pow": 0, "q": 0.1}),
                "tensor file {path} is malformed: q must be an integer or a string, got 0.1"),
    "Q_SQRT2_BOOL": (_coeff_file({"alpha": None, "ell_pow": 0, "q": "1", "q_sqrt2": True}),
                     "tensor file {path} is malformed: "
                     "q_sqrt2 must be an integer or a string, got True"),
    "C_FLOAT": (_so3_constant_file({"A": 0, "B": 1, "C": 2, "c": 0.5}),
                "algebra file {path} is malformed: c must be an integer or a string, got 0.5"),
    "C_SQRT2_FLOAT": (_so3_constant_file({"A": 0, "B": 1, "C": 2, "c": "1", "c_sqrt2": 2.0}),
                      "algebra file {path} is malformed: "
                      "c_sqrt2 must be an integer or a string, got 2.0"),
    # a float that equals an integer is not one: read as one, rank 2.0
    # fails the invariance check and index 0.0 is written into tensor.json
    "RANK_FLOAT": (json.dumps({"rank": 2.0, "entries": []}),
                   "tensor file {path} is malformed: rank must be an integer, got 2.0"),
    "INDEX_FLOAT": (_tensor_file([((0.0, 0), 1), ((1, 1), 1), ((2, 2), 1)]),
                    "tensor file {path} is malformed: "
                    "entry indices must be integers, got [0.0, 0]"),
    "DIM_FLOAT": (_so3_file([(0, 1, 2, 1)], dim=3.0),
                  "algebra file {path} is malformed: dim must be an integer, got 3.0"),
}


@pytest.mark.parametrize("command, payload", [
    ("check", {"algebra": {"path": "MISSING"}}),
    ("check", {"algebra": "so3", "tensor": {"path": "MISSING"}}),
    ("semigroup", {"action": "construct", "semigroup": {"path": "MISSING"}}),
    ("semigroup", {"action": "verify", "semigroup": {"path": "MISSING"}}),
    ("check", {"algebra": {"path": "NOT_JSON"}}),
    ("check", {"algebra": {"path": "NO_LABELS"}}),
    ("check", {"algebra": "so3", "tensor": {"path": "NOT_JSON"}}),
    ("check", {"algebra": "so3", "tensor": {"path": "NO_COEFF"}}),
    ("check", {"algebra": "so3", "tensor": {"path": "REPEATED_ENTRY"}}),
    ("check", {"algebra": {"path": "REPEATED_TRIPLE"}}),
    ("check", {"algebra": {"path": "FLIPPED_TRIPLE"}}),
    ("check", {"algebra": {"path": "DIM_SEVEN"}}),
    ("check", {"algebra": "so3", "tensor": {"path": "REPEATED_TERM"}}),
    ("invariants", {"algebra": "so3", "tensor": {"path": "ALPHA_NOT_INT"}, "alphas": [1]}),
    ("check", {"algebra": "so3", "tensor": {"path": "ALPHA_BOOL"}}),
    ("check", {"algebra": "so3", "tensor": {"path": "ELL_NOT_INT"}}),
    ("check", {"algebra": {"path": "OUT_OF_RANGE"}}),
    ("check", {"algebra": {"path": "NEGATIVE_INDEX"}}),
    ("check", {"algebra": {"path": "ZERO_DIAGONAL"}}),
    ("check", {"algebra": "so3", "tensor": {"path": "Q_FLOAT"}}),
    ("check", {"algebra": "so3", "tensor": {"path": "Q_SQRT2_BOOL"}}),
    ("check", {"algebra": {"path": "C_FLOAT"}}),
    ("check", {"algebra": {"path": "C_SQRT2_FLOAT"}}),
    ("check", {"algebra": "so3", "tensor": {"path": "RANK_FLOAT"}}),
    ("invariants", {"algebra": "so3", "tensor": {"path": "INDEX_FLOAT"}}),
    ("expand", {"algebra": {"path": "DIM_FLOAT"}, "steps": []}),
])
def test_missing_path_file_is_usage_error(tmp_path, capsys, command, payload):
    """A path file that is missing, not JSON, lacks a key, states a value
    twice or has an ill-typed or out-of-range value exits 2 with one error
    line naming the file and the problem."""
    text = json.dumps(payload)
    name = next(k for k in _PATH_FILES if k in text)
    content, message = _PATH_FILES[name]
    path = tmp_path / f"{name.lower()}.json"
    if content is not None:
        path.write_text(content)
    cfg = write_config(tmp_path, "cfg.json", json.loads(text.replace(name, str(path))))
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(str(path)) in err
    assert message.format(path=repr(str(path))) in err
    assert err.count("\n") == 1 and "Traceback" not in err


_C5 = {"dimension": 5, "algebra": "c5_rotated", "tensor": "c5_rotated"}
# the c5 w,e sector at [1, -1, -1, -1] against its golden
_C5_SECTOR = dict(_C5, alphas=[1, -1, -1, -1], fields=["w", "e"],
                  compare=["c5_lagrangian_kh0_sector"])


@pytest.mark.parametrize("payload, message", [
    (dict(_C5, alphas=[1]), "alphas must be"),
    (dict(_C5, alphas=["x", 1, 1, 1]), "alphas must be rational"),
    (dict(_C5, fields=["q"]), "unknown fields"),
    ({"dimension": 5, "algebra": "b5", "tensor": "b5", "compare": "b5_lagrangian"},
     "compare must be a list"),
    ([_C5], "config must be a JSON object"),
    (dict(_C5, dimension=3), "dimension must be 2 * rank - 1 = 5 for the rank-3 tensor, got 3"),
    (dict(_C5, dimension=7), "dimension must be 2 * rank - 1 = 5 for the rank-3 tensor, got 7"),
    (dict(_C5, dimension="5"), "dimension must be 2 * rank - 1 = 5 for the rank-3 tensor, "
                               "got '5'"),
    (dict(_C5, alpha=[1, -1, -1, -1]), "unknown config key 'alpha' for lagrangian"),
    (dict(_C5_SECTOR, compare_up_to_scale="x"),
     "compare_up_to_scale must be true or false, got 'x'"),
    ({"dimension": 3, "algebra": "random6", "tensor": "ads3_eps"},
     "connection: no field assignment for generator N(0,1)"),
    # a float that equals the right dimension is not an integer
    ({"dimension": 3.0, "algebra": "c3_rotated", "tensor": "c3_rotated"},
     "dimension must be 2 * rank - 1 = 3 for the rank-2 tensor, got 3.0"),
])
def test_lagrangian_bad_config_is_usage_error(tmp_path, capsys, payload, message):
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert main(["lagrangian", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command, payload, message", [
    ("expand", {"algebra": "so3", "steps": "x"}, "steps must be a list"),
    ("expand", {"algebra": "so3", "steps": [5]},
     "step 0: a step is an object with an 'op' key"),
    ("expand", {"algebra": "so3", "steps": [{"op": "h_reduce"}]}, "step 0: missing 'n'"),
    ("expand", {"algebra": "so3", "steps": [{"op": "h_reduce", "n": "two"}]},
     "step 0: 'n' must be an integer"),
    ("expand", {"algebra": "so3", "steps": [{"op": "h_reduce", "n": 2},
                                            {"op": "s_expand", "semigroup": "nosuch"}]},
     "step 1: unknown semigroup name"),
    ("invariants", {"algebra": "c5", "tensor": {"base": "ads5_eps", "lift": "h"}},
     "tensor: 'lift' must be an object"),
    ("invariants", {"algebra": "c5", "tensor": {"base": "ads5_eps", "lift": {"kind": "h"}}},
     "tensor lift: missing 'n'"),
    ("expand", {"algebra": "so3", "steps": [{"op": "s_expand", "semigroup": "D4"},
                                            {"op": "sign_identify", "pairing": [1]}]},
     "step 1: 'pairing' must be a list of [tag, tag] pairs"),
    ("expand", {"algebra": "so3", "steps": [{"op": "h_reduce", "n": 0}]},
     "step 0: 'n' must be >= 1"),
    ("invariants", {"algebra": "c5", "tensor": {"base": "ads5_eps",
                                                "lift": {"kind": "h", "n": 0}}},
     "tensor lift: 'n' must be >= 1"),
    ("expand", {"algebra": "ads5", "steps": [{"op": "s_expand", "semigroup": "SE3"},
                                             {"op": "resonant", "resonance": "nosuch"}]},
     "step 1: unknown resonance 'nosuch'"),
    ("invariants", {"algebra": "c5", "tensor": {"base": "ads5_eps", "lift": {
        "kind": "zero", "semigroup": "Z4", "base_dim": 15}}},
     "tensor lift: semigroup 'Z4' has no zero element"),
    ("invariants", {"algebra": "ads5", "tensor": {"base": "ads5_eps",
                                                  "lift": {"kind": "h", "n": 1}}},
     "tensor lift: target generator J(0,1) carries no tag"),
    ("invariants", {"algebra": "b5", "tensor": {"base": "ads5_eps",
                                                "lift": {"kind": "h", "n": 1}}},
     "tensor lift: target generator Z(0,1)@2 carries no tag of Z2"),
    ("invariants", {"algebra": "c5", "tensor": {"base": "ads5_eps",
                                                "lift": {"kind": "h", "n": 3}}},
     "tensor lift: base tensor index 14 is not below base_dim 10"),
    ("invariants", {"algebra": "b5", "tensor": {"base": "ads5_eps", "lift": {
        "kind": "zero", "semigroup": "SE3", "base_dim": 10}}},
     "tensor lift: base tensor index 14 is not below base_dim 10"),
    ("expand", {"algebra": "so3", "steps": [{"op": "s_expand", "semigroup": "D4"},
                                            {"op": "sign_identify", "pairing": [[0, 5]]}]},
     "step 1: 'pairing' must cover the tags 0..3 of D4"),
    ("check", {"algebra": "so3", "tensr": "ads3_eps"},
     "unknown config key 'tensr' for check; its keys are algebra, tensor"),
    ("expand", {"algebra": "so3", "step": []}, "unknown config key 'step' for expand"),
    ("invariants", {"algebra": "c5", "tensor": "c5", "verfy": True},
     "unknown config key 'verfy' for invariants"),
    ("semigroup", {"action": "construct", "semigroup": "Z2", "frist": "Z2"},
     "unknown config key 'frist' for semigroup"),
    ("invariants", {"algebra": "c5", "tensor": "c5", "verify": "no"},
     "verify must be true or false, got 'no'"),
    ("invariants", {"algebra": "c5", "tensor": "c5", "verify": 0},
     "verify must be true or false, got 0"),
    ("expand", {"algebra": "so3", "steps": [
        {"op": "s_expand", "semigroup": "Z2"},
        {"op": "resonant", "partition": "abc", "subsets": [[0, 1]]}]},
     "step 1: the partition must give each of the 3 base generators a part in 0..0"),
    ("expand", {"algebra": "so3", "steps": [
        {"op": "s_expand", "semigroup": "Z2"},
        {"op": "resonant", "partition": [0, 0, 0], "subsets": 5}]},
     "step 1: 'subsets' must be a list of lists of int tags, got 5"),
    ("expand", {"algebra": "so3", "steps": [
        {"op": "s_expand", "semigroup": "Z2"},
        {"op": "resonant", "partition": [0, 0, 1], "subsets": [[0, 1]]}]},
     "step 1: the partition must give each of the 3 base generators a part in 0..0, "
     "got [0, 0, 1]"),
    ("expand", {"algebra": "so3", "steps": [
        {"op": "s_expand", "semigroup": "Z2"},
        {"op": "resonant", "partition": [0, 0, 0]}]},
     "step 1: missing 'subsets'"),
    ("expand", {"algebra": "so3", "steps": [
        {"op": "s_expand", "semigroup": "Z2"},
        {"op": "resonant", "partition": [0, 0], "subsets": [[0, 1]]}]},
     "step 1: the partition must give each of the 3 base generators a part in 0..0, "
     "got [0, 0]"),
    ("expand", {"algebra": "so3", "steps": [
        {"op": "s_expand", "semigroup": "Z2"},
        {"op": "resonant", "partition_by_base": [0], "subsets": [[0, 1]]}]},
     "step 1: 'partition_by_base' must be an object, got [0]"),
    ("expand", {"algebra": "so3", "steps": [{"op": "h_reduce", "n": 2.9}]},
     "step 0: 'n' must be an integer, got 2.9"),
    ("expand", {"algebra": "so3", "steps": [{"op": "h_reduce", "n": True}]},
     "step 0: 'n' must be an integer, got True"),
    ("expand", {"algebra": "so3", "steps": [{"op": "s_expand", "semigroup": "Z2"},
                                            {"op": "sign_identify", "pairing": [[0.0, 1]]}]},
     "step 1: 'pairing' must be a list of [tag, tag] pairs, got [[0.0, 1]]"),
    # a subset that no part of the partition uses
    ("expand", {"algebra": "so3", "steps": [
        {"op": "s_expand", "semigroup": "Z2"},
        {"op": "resonant", "partition": [0, 0, 0], "subsets": [[0, 1], []]}]},
     "step 1: the partition must use every part 0..1, one per subset, got [0, 0, 0]"),
    ("expand", {"algebra": "so3", "steps": [
        {"op": "s_expand", "semigroup": "Z2"},
        {"op": "resonant", "partition": [0, 0, 0], "subsets": [[0, 1, 7]]}]},
     "step 1: 'subsets' must hold tags in 0..1 of Z2, got [[0, 1, 7]]"),
    # a tag of the semigroup that no subset holds
    ("expand", {"algebra": "so3", "steps": [
        {"op": "s_expand", "semigroup": "Z2"},
        {"op": "resonant", "partition": [0, 0, 0], "subsets": [[0]]}]},
     "step 1: 'subsets' must cover every tag 0..1 of Z2, got [[0]]"),
])
def test_malformed_step_is_usage_error(tmp_path, capsys, command, payload, message):
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_well_formed_family_out_of_resonance_is_a_verification_failure(tmp_path, capsys):
    # the subsets cover Z2 and both hold tag 1, but [J1, J3] lands in part 0,
    # whose subset {1} lacks the product of 1 and 1 in Z2, which is 0
    cfg = write_config(tmp_path, "cfg.json", {"algebra": "so3", "steps": [
        {"op": "s_expand", "semigroup": "Z2"},
        {"op": "resonant", "partition": [0, 0, 1], "subsets": [[1], [0, 1]]}]})
    assert main(["expand", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure: ") and "Traceback" not in err


@pytest.mark.parametrize("compare, argv, message", [
    ("c5_lagrangian", [], "compare must be a list of names"),
    (["nosuch"], [], "unknown golden expression 'nosuch'"),
    ([], ["--compare", "c3_lagrangian"], "golden 'c3_lagrangian' is a 3d expression"),
])
def test_bad_compare_exits_before_the_lagrangian_is_built(tmp_path, capsys, monkeypatch,
                                                          compare, argv, message):
    def refuse(*args, **kwargs):
        raise AssertionError("the Lagrangian was built before compare was checked")

    monkeypatch.setattr(cli, "int_separation", refuse)
    cfg = write_config(tmp_path, "cfg.json", dict(_C5, compare=compare))
    out = tmp_path / "o"
    assert main(["lagrangian", "--config", cfg, "--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "lagrangian.json").exists()


_SG = {"name": "x", "order": 2, "table": [[0, 1], [1, 0]], "zero": None}


@pytest.mark.parametrize("command, payload, message", [
    ("semigroup", {"action": "construct", "semigroup": dict(_SG, table=3)},
     "semigroup: 'table' must be a list of lists of integers"),
    ("semigroup", {"action": "construct", "semigroup": dict(_SG, order="x")},
     "semigroup: 'order' must be an integer, got 'x'"),
    ("semigroup", {"action": "construct", "semigroup": dict(_SG, table=[[0, 1], [1, "a"]])},
     "semigroup: 'table' must be a list of lists of integers"),
    ("semigroup", {"action": "isomorphism", "first": dict(_SG, table=[3, 4]), "second": "Z2"},
     "semigroup: 'table' must be a list of lists of integers"),
    ("semigroup", {"action": "verify", "semigroup": dict(_SG, order=True)},
     "semigroup: 'order' must be an integer, got True"),
    ("semigroup", {"action": "construct", "semigroup": dict(_SG, name=5)},
     "semigroup: 'name' must be a string, got 5"),
    ("semigroup", {"action": "construct", "semigroup": dict(_SG, zero="0")},
     "semigroup: 'zero' must be an integer or null, got '0'"),
    ("semigroup", {"action": "verify", "semigroup": {"name": "x", "order": 2,
                                                     "table": [[0, 1], [1, 0]]}},
     "semigroup: missing 'zero'"),
    ("semigroup", {"action": "construct", "semigroup": [_SG]},
     "semigroup must be a name, a descriptor, or {'path': ...}"),
    ("invariants", {"algebra": "b5", "tensor": {"base": "ads5_eps", "lift": {
        "kind": "zero", "semigroup": dict(_SG, table=3), "base_dim": 15}}},
     "semigroup: 'table' must be a list of lists of integers"),
    ("semigroup", {"action": "construct", "semigroup": {"path": None}},
     "semigroup: 'path' must be a string, got None"),
    ("expand", {"algebra": "so3", "steps": [{"op": "s_expand", "semigroup": dict(_SG, table=5)}]},
     "step 0: semigroup: 'table' must be a list of lists of integers"),
    ("expand", {"algebra": "so3", "steps": [{"op": "s_expand", "semigroup": dict(
        _SG, table=[[0, 1], [1, 1.0]])}]},
     "step 0: semigroup: 'table' must be a list of lists of integers"),
    ("expand", {"algebra": "so3", "steps": [{"op": "s_expand", "semigroup": {
        "name": "x", "order": 2, "table": [[0, 1], [1, 0]]}}]},
     "step 0: semigroup: missing 'zero'"),
])
def test_malformed_semigroup_is_usage_error(tmp_path, capsys, command, payload, message):
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    (json.dumps(dict(_SG, table=3)), "semigroup: 'table' must be a list of lists of integers"),
    ("{", "semigroup file is not valid JSON"),
], ids=["bad-table", "bad-json"])
def test_malformed_semigroup_file_is_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "sg.json"
    path.write_text(text)
    cfg = write_config(tmp_path, "cfg.json",
                       {"action": "construct", "semigroup": {"path": str(path)}})
    assert main(["semigroup", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_s_expand_step_reads_a_semigroup_file(tmp_path):
    """A step's semigroup can be a {'path': ...} file, as in the semigroup
    command; Z2 from a file expands so3 as the name Z2 does."""
    out = tmp_path / "out"
    sg = write_config(tmp_path, "sg.json", {"action": "construct", "semigroup": "Z2"})
    assert main(["semigroup", "--config", sg, "--out", str(out)]) == 0
    for name, semigroup in [("named", "Z2"), ("file", {"path": str(out / "semigroup.json")})]:
        cfg = write_config(tmp_path, f"{name}.json", {
            "algebra": "so3", "steps": [{"op": "s_expand", "semigroup": semigroup}]})
        assert main(["expand", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "file" / "algebra.json").read_bytes() == \
        (tmp_path / "named" / "algebra.json").read_bytes()


@pytest.mark.parametrize("action, table, order, message", [
    ("construct", [[0, 5], [5, 1]], 2, "table entry out of range at (0,1)"),
    ("construct", [[0, 1], [1, 0]], 3, "table shape does not match order"),
    ("verify", [[1, 0], [0, 0]], 2, "invalid semigroup: not associative at (0,0,1)"),
])
def test_semigroup_that_fails_its_axioms_exits_one(tmp_path, capsys, action, table, order,
                                                   message):
    cfg = write_config(tmp_path, "cfg.json", {
        "action": action, "semigroup": dict(_SG, table=table, order=order)})
    assert main(["semigroup", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure: ") and message in err


def test_a_library_value_error_is_not_a_verification_failure(tmp_path, capsys):
    """The LaTeX table cannot render a tensor whose one entry is [0, 0]; that
    ValueError is an error (exit 2), not a failed check (exit 1)."""
    path = tmp_path / "t.json"
    path.write_text(_tensor_file([((0, 0), 1)]))
    cfg = write_config(tmp_path, "cfg.json",
                       {"algebra": "so3", "tensor": {"path": str(path)}, "verify": False})
    assert main(["invariants", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--format", "latex"]) == 2
    err = capsys.readouterr().err
    assert err == "error: entry does not look like an epsilon contraction\n"


@pytest.mark.parametrize("command", ["invariants", "check", "lagrangian"])
def test_tensor_beyond_the_algebra_is_usage_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "cfg.json",
                       {"dimension": 5, "algebra": "ads3", "tensor": "ads5_eps"})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == ("error: tensor: tensor entry [0, 7, 14] has an index outside "
                   "the 6 generators of ads3\n")


def test_latex_epsilon_letters_follow_the_tensor_rank(tmp_path):
    """A rank-2 (3d) tensor on an 18-generator algebra contracts eps_abc."""
    cfg = write_config(tmp_path, "expand.json",
                       {"algebra": "ads3", "steps": [{"op": "h_reduce", "n": 3}]})
    assert main(["expand", "--config", cfg, "--out", str(tmp_path / "z6")]) == 0
    cfg = write_config(tmp_path, "inv.json", {
        "algebra": {"path": str(tmp_path / "z6" / "algebra.json")},
        "tensor": {"base": "ads3_eps", "lift": {"kind": "h", "n": 3}},
        "alphas": [1, 2, 3, -1, -2, -3]})
    out = tmp_path / "out"
    assert main(["invariants", "--format", "latex", "--config", cfg, "--out", str(out)]) == 0
    tex = (out / "tensor_table.tex").read_text()
    assert tex.count(r"\varepsilon_{abc}") == tex.count(r"\langle") > 0
    assert "abcde" not in tex


_B5_EXPAND = {"algebra": "ads5", "steps": [
    {"op": "s_expand", "semigroup": "SE3"},
    {"op": "resonant", "resonance": "b5"},
    {"op": "zero_reduce"}]}

# sha256 of every file each README-style run writes under --out, recorded
# before the S_H reduction, the tensor lift and the coefficient codec were
# unified; any change to these bytes is a change to the CLI's output.  The
# two lagrangian.tex hashes were recorded again when TeX began to write a
# fractional multiplier of alpha or ell as \frac.
_PINNED_OUTPUTS = [
    (["expand"], {"algebra": "so3", "steps": [{"op": "h_reduce", "n": 2}]}, 0, {
        "algebra.json": "f265db0f4fb957a2b99f7c33adf7ecdb375369a2ca34125d05c84940fc821f6a",
        "commutators.txt": "01653ff355a1c51f317f34c7c12970240aee7610d9bcc91cbe660a0a302b76f6",
    }),
    (["expand"], _B5_EXPAND, 0, {
        "algebra.json": "4e479362cf2c5b90d8bbb8a2bcd1f4082285f46eb88d72fd06e068e68b4564dd",
        "commutators.txt": "081074e78c0eac5ef7666662f1360eb7ee33a5df691ca7b02d4473e99c997248",
    }),
    (["invariants"], {"algebra": "c5", "alphas": [1, 2, -1, -2],
                      "tensor": {"base": "ads5_eps", "lift": {"kind": "h", "n": 2}}}, 0, {
        "tensor.json": "ad3c933fad271418a3337ead5bf2f6b1fa6c964252a4b1895f0150c0768682ad",
    }),
    (["invariants", "--format", "both"],
     {"algebra": "b5", "tensor": {"base": "ads5_eps", "lift": {
         "kind": "zero", "semigroup": "SE3", "base_dim": 15}}}, 0, {
        "tensor.json": "ca2a6c15dec4523001aca4c91614f2b9786e4ac4ac2e27d051f5144d4801c810",
        "tensor_table.tex": "45022b1daf9bd273840e9427a11cfd7e5304071ecaeb52890c368a10d63229fc",
    }),
    (["lagrangian", "--format", "both"],
     {"dimension": 3, "algebra": "c3_rotated", "tensor": "c3_rotated",
      "compare": ["c3_lagrangian"]}, 0, {
        "comparison.txt": "6039c5d8f6d3450fcb48e84874a3ac6c2d953648ed7f0dfaf6659f160a808dae",
        "lagrangian.json": "a2dca3e44fcd3d1bc9f7d3aae0da3d93bd1e74a9aee7dc70648abcc68b80803d",
        "lagrangian.tex": "7e7bc0a510e340187818506a2a1394ab097ad0d7b38d1735541361ea9ffb0b6c",
    }),
    (["check"], {"algebra": "c5", "tensor": "c5"}, 1, {
        "check.txt": "03a5b3853b7d8bd221b439d127d747c3380db3c32f6714d08dada3586c516ed1",
    }),
    (["lagrangian"], {"dimension": 5, "algebra": "b5", "tensor": "b5",
                      "compare": ["b5_lagrangian"]}, 0, {
        "comparison.txt": "9a896fe8303cd1fc2eff46ebf261115379711a2f5418a8fe3d089ee8865dc0d3",
        "lagrangian.json": "cd0258989b990147c3406365379dd743d684560b52f91b0c05cc24beca0615ca",
    }),
    (["lagrangian"], _C5_SECTOR, 0, {
        "comparison.txt": "b03d5f7280282abcb097213fc86d8852e151f6d20af7492cdf196b8895324dca",
        "lagrangian.json": "7627743e334ced5e75976eeea22c6ef16bbd1392f313f9c2b9fa49ad33903bed",
    }),
    (["lagrangian", "--format", "both"], _C5, 0, {
        "lagrangian.json": "88c07462b606befd94f105524039f423c33fae2aba8defce481cc77812ab030e",
        "lagrangian.tex": "4626af0b108664e19c2b82a1d6940a991012904de59cab2f34a9ff913a4cfc6b",
    }),
]


@pytest.mark.parametrize("argv, payload, code, hashes", _PINNED_OUTPUTS,
                         ids=["expand-lorentz", "expand-b5", "invariants-c5-h",
                              "invariants-b5-zero", "lagrangian-c3", "check-c5",
                              "lagrangian-b5", "lagrangian-c5-kh0-sector",
                              "lagrangian-c5-general"])
def test_readme_outputs_are_byte_identical(tmp_path, argv, payload, code, hashes):
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == code
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert written == hashes


def test_lagrangian_output_does_not_depend_on_the_hash_seed(tmp_path):
    """Two CLI children with different string-hash seeds write the same bytes."""
    cfg = write_config(tmp_path, "cfg.json", _C5_SECTOR)
    src = str(Path(cli.__file__).resolve().parents[1])
    written = []
    for seed in ("1", "2"):
        out = tmp_path / f"out{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "sexpansion.cli", "lagrangian",
                               "--config", cfg, "--out", str(out), "--format", "both"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert set(written[0]) == {"comparison.txt", "lagrangian.json", "lagrangian.tex"}
    assert written[0] == written[1]


# -- the writers ----------------------------------------------------------------
#
# The bodies the CLI's writers had before they rendered each distinct
# coefficient once and wrote JSON in chunks; the writers must keep their bytes.

def reference_scalar_form_to_json_dict(f: ScalarForm) -> dict:
    monomials = []
    for m, c in f.sorted_items():
        name = "^".join(str(s) for s in m) if m else "1"
        monomials.append({"monomial": name, "coeff": c.to_json_list()})
    return {"monomials": monomials}


def reference_scalar_form_latex(f: ScalarForm) -> str:
    if f.is_zero():
        return "0"
    def sym_tex(s: FormSymbol) -> str:
        field = {"w": r"\omega", "e": "e", "k": "k", "h": "h"}[s.field]
        idx = "".join(map(str, s.indices))
        core = field + "^{" + idx + "}"
        return (r"\mathrm{d}" + core) if s.differentiated else core
    lines = []
    for m, c in f.sorted_items():
        mono = r" \wedge ".join(sym_tex(s) for s in m) if m else "1"
        lines.append(f"({c.latex()})\\, {mono}")
    return "\n  + ".join(lines)


def reference_json_text(payload) -> str:
    return json.dumps(payload, indent=1) + "\n"


def written_json(payload) -> str:
    chunks = []
    write_json(payload, chunks.append)
    return "".join(chunks) + "\n"


_SYMBOLS = [sym("w", 0, 1), sym("w", 1, 2), sym("e", 0), sym("e", 2), sym("k", 0, 2),
            sym("h", 1), sym("w", 0, 1, d=True), sym("e", 1, d=True), sym("h", 0, d=True)]


def _random_coefficient(rng: random.Random) -> ScalarExpr:
    def rational():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    out = ScalarExpr()
    for _ in range(rng.randint(1, 4)):
        out.add_term((rng.choice([None, 0, 1, 2, 3]), rng.randint(-3, 1)),
                     Q2(rational(), rng.choice([0, 0, rational()])))
    return out


def random_scalar_form(rng: random.Random) -> ScalarForm:
    """Up to 40 monomials, the monomial 1 among them at times, on a pool of
    six coefficients (sqrt2 parts, alpha and ell terms), so that many
    monomials repeat one coefficient, some under one ScalarExpr object."""
    pool = [_random_coefficient(rng) for _ in range(6)]
    f = ScalarForm()
    for _ in range(rng.randint(0, 40)):
        sign, mono = canonical_monomial(rng.sample(_SYMBOLS, rng.randint(0, 4)))
        if sign:
            c = rng.choice(pool)
            f.add_term(mono, c if rng.random() < 0.5 else c.scaled(Q2(1)))
    return f


def test_writers_keep_the_reference_bytes_on_random_forms():
    """On seeded random forms, and on the same forms through the integer
    kernel (whose coefficients share their Q2 values), the dict, its JSON
    text and the LaTeX equal the reference bodies and json.dumps."""
    rng = random.Random(1605)
    forms = [ScalarForm(), ScalarForm({(): ScalarExpr.const(Q2(1, -2), -1)})]
    forms += [random_scalar_form(rng) for _ in range(60)]
    forms += [IntForm.of(f).into_scalar_form() for f in forms]
    assert any(() in f.terms for f in forms) and any(len(f.terms) > 20 for f in forms)
    for f in forms:
        d = scalar_form_to_json_dict(f)
        assert d == reference_scalar_form_to_json_dict(f)
        assert json.dumps(d, sort_keys=True) == \
            json.dumps(reference_scalar_form_to_json_dict(f), sort_keys=True)
        payload = {"form": d, "lovelock": cli.lovelock_json()}
        assert written_json(payload) == reference_json_text(payload)
        assert scalar_form_latex(f) == reference_scalar_form_latex(f)


def test_writers_read_a_kernel_form_as_its_scalar_form():
    """The CLI hands the writers the separation's IntForm: they write the
    bytes of its ScalarForm and leave the kernel form as it was."""
    rng = random.Random(25)
    for f in [random_scalar_form(rng) for _ in range(40)]:
        k = IntForm.of(f)
        assert scalar_form_to_json_dict(k) == reference_scalar_form_to_json_dict(f)
        assert scalar_form_latex(k) == reference_scalar_form_latex(f)
        assert k.parts == IntForm.of(f).parts


def test_equal_coefficients_share_one_list():
    c = ScalarExpr.alpha(0, Q2(1, 1), -1)
    f = ScalarForm({(sym("e", 0),): c, (sym("e", 1),): c, (sym("e", 2),): -c})
    first, second, third = scalar_form_to_json_dict(f)["monomials"]
    assert first["coeff"] is second["coeff"] and third["coeff"] is not first["coeff"]


@pytest.mark.parametrize("value", [
    {"a": [], "b": {}, "c": [[]], "d": [{}], "e": "", "f": [None, True, False, 0, -7]},
    {"text": "café → \"\\\n\t\x00", "é": ["😀"]},
    [1, [2, [3, [4]]]],
    "top",
    None,
    list(range(200)),
    [{"n": i, "row": list(range(i % 5))} for i in range(3000)],
])
def test_write_json_matches_json_dumps(value):
    assert written_json(value) == reference_json_text(value)


def test_write_json_renders_a_shared_list_at_each_depth():
    shared = [{"q": "1"}, 2]
    value = {"a": shared, "b": [shared, {"c": shared}], "d": shared, "e": [shared] * 70}
    assert written_json(value) == reference_json_text(value)


def test_write_json_hands_over_chunks():
    value = [{"monomial": f"e{i % 10}", "coeff": [{"alpha": None}]} for i in range(5000)]
    chunks = []
    write_json(value, chunks.append)
    assert len(chunks) > 2 and max(map(len, chunks)) < len("".join(chunks)) // 2
    assert "".join(chunks) + "\n" == reference_json_text(value)


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": {2}}, [Fraction(1, 2)],
                                   {"a": [b"x"]}])
def test_write_json_refuses_what_it_does_not_know(value):
    with pytest.raises(TypeError):
        write_json(value, lambda text: None)


def test_every_cli_payload_is_written_as_json_dumps_writes_it(tmp_path, monkeypatch):
    """Each emitted payload kind (algebra, tensor, semigroup, isomorphism,
    and a lagrangian with its lovelock dictionary) reaches the file as
    json.dumps(payload, indent=1) plus a newline."""
    emitted = []
    emit_json = cli.Output.emit_json

    def recording(self, name, payload):
        emitted.append((self.dir / f"{name}.json", payload))
        emit_json(self, name, payload)

    monkeypatch.setattr(cli.Output, "emit_json", recording)
    runs = [
        (["expand"], _B5_EXPAND, 0),
        (["invariants"], {"algebra": "b5", "tensor": "b5"}, 0),
        (["semigroup"], {"semigroup": "SE3"}, 0),
        (["semigroup"], {"action": "isomorphism", "first": "Z4", "second": "Z4"}, 0),
        (["semigroup"], {"action": "isomorphism", "first": "D4", "second": "Z4"}, 1),
        (["lagrangian"], dict(_C5, fields=["w", "e"]), 0),
    ]
    for i, (argv, payload, code) in enumerate(runs):
        cfg = write_config(tmp_path, f"cfg{i}.json", payload)
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / f"out{i}")]) == code
    assert [path.name for path, _ in emitted] == [
        "algebra.json", "tensor.json", "semigroup.json", "isomorphism.json",
        "isomorphism.json", "lagrangian.json"]
    assert "lovelock" in emitted[-1][1] and emitted[3][1]["bijection"]
    for path, payload in emitted:
        assert path.read_text() == reference_json_text(payload)


def test_c5_general_lagrangian_json_is_emitted_in_little_memory(tmp_path):
    """Writing the general-alpha c5 `lagrangian.json` (6,247 monomials, 116
    distinct coefficients) peaks below 8 MB under tracemalloc; json.dumps
    of the unshared dict took 18.7 MB."""
    L = make_c_algebra_rotated(5)
    lagrangian = subspace_separation(connection_chain(L, ("w", "e", "k", "h")),
                                     c_tensor_rotated(5), 5, L)
    out = cli.Output(str(tmp_path), "json")
    tracemalloc.start()
    try:
        out.emit_json("lagrangian", {"form": scalar_form_to_json_dict(lagrangian),
                                     "lovelock": cli.lovelock_json()})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lagrangian.terms) == 6247
    assert peak < 8_000_000, peak


def test_lagrangian_latex_brackets_a_sqrt2_coefficient(tmp_path):
    """The epsilon tensor at (1 + 3 sqrt2)/2 on ads3 gives coefficients like
    (1 + 3 sqrt2) l^-1: TeX writes \\left(1+3\\sqrt{2}\\right)\\ell^{-1}."""
    tensor = epsilon_tensor(3).scaled(ScalarExpr.const(Q2(Fraction(1, 2), Fraction(3, 2))))
    (tmp_path / "t.json").write_text(json.dumps(tensor.to_json_dict()))
    cfg = write_config(tmp_path, "cfg.json", {
        "dimension": 3, "algebra": "ads3", "tensor": {"path": str(tmp_path / "t.json")},
        "fields": ["w", "e"]})
    out = tmp_path / "out"
    assert main(["lagrangian", "--config", cfg, "--out", str(out), "--format", "latex"]) == 0
    tex = (out / "lagrangian.tex").read_text()
    assert tex.startswith(r"(\left(1+3\sqrt{2}\right)\ell^{-1})\, \omega^{01} \wedge")
    assert "sqrt2" not in tex


def test_lagrangian_latex_writes_fractions_before_their_factors(tmp_path):
    """The c3 Lagrangian's -2/3 alpha_0 l^-1 is written \\frac{2}{3}, never
    2/3 right before the alpha, which would typeset as 2/(3 alpha_0 l)."""
    cfg = write_config(tmp_path, "cfg.json", {"dimension": 3, "algebra": "c3_rotated",
                                              "tensor": "c3_rotated"})
    assert main(["lagrangian", "--config", cfg, "--out", str(tmp_path), "--format",
                 "latex"]) == 0
    tex = (tmp_path / "lagrangian.tex").read_text()
    assert r"(-\frac{2}{3}\alpha_{0}\ell^{-1}+2\alpha_{1}\ell^{-1}+\frac{4}{3}\alpha_{2}" \
        r"\ell^{-1})\, k^{01} \wedge k^{02} \wedge h^{0}" in tex
    assert not re.search(r"\d/\d+\\(alpha|ell)", tex)


@pytest.mark.parametrize("where", ["out", "config"])
def test_an_io_error_is_a_usage_error(tmp_path, capsys, where):
    """An --out under a plain file, or a directory as --config, exits 2 with
    one error line."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = write_config(tmp_path, "cfg.json", {"semigroup": "Z2"})
    argv = ["semigroup", "--config", cfg, "--out", str(blocker / "out")] if where == "out" \
        else ["semigroup", "--config", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.count("\n") == 1


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_is_a_usage_error_without_a_traceback(tmp_path, unbuffered):
    """A child whose stdout pipe has no reader (as under `| head`) exits 2
    with one error line, and nothing more at interpreter shutdown, whether
    its stdout fails on a write or, buffered, on the flush."""
    cfg = write_config(tmp_path, "cfg.json", {"semigroup": "SE3"})
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run([sys.executable, "-m", "sexpansion.cli", "semigroup",
                               "--config", cfg], stdout=write_end, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("command, payload", [
    ("expand", {"algebra": "so3", "bogus": 1}),
    ("lagrangian", dict(_C5, dimension=3)),
    ("invariants", {"algebra": "b5", "tensor": "nosuch"}),
])
def test_a_config_error_leaves_no_out_directory(tmp_path, capsys, command, payload):
    """--out is made at the first write, so an exit-2 config error leaves no
    directory behind; a run that succeeds still writes its files there."""
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "leftover"
    assert main([command, "--config", cfg, "--out", str(out / "nested")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    cfg = write_config(tmp_path, "cfg.json", {"algebra": "so3"})
    assert main(["expand", "--config", cfg, "--out", str(out / "nested")]) == 0
    assert sorted(p.name for p in (out / "nested").iterdir()) == \
        ["algebra.json", "commutators.txt"]


def test_the_c5_general_lagrangian_stays_a_kernel_form(tmp_path, monkeypatch):
    """The general-alpha c5 `lagrangian` command writes its JSON and TeX
    from the separation's IntForm: no ScalarForm of the Lagrangian is made."""
    def refuse(self):
        raise AssertionError("IntForm.into_scalar_form was called")

    monkeypatch.setattr(IntForm, "into_scalar_form", refuse)
    cfg = write_config(tmp_path, "cfg.json", _C5)
    out = tmp_path / "out"
    assert main(["lagrangian", "--format", "both", "--config", cfg, "--out", str(out)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == \
        _PINNED_OUTPUTS[-1][3]


def test_c5_general_lagrangian_json_is_read_back_in_little_memory(tmp_path):
    """Reading the general-alpha c5 `lagrangian.json` back peaks below 2 MB
    under tracemalloc (1.0 MB measured; 5.5 MB with one ScalarExpr per
    monomial): its 6,247 monomials share 116 coefficients."""
    cfg = write_config(tmp_path, "cfg.json", _C5)
    assert main(["lagrangian", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "lagrangian.json").read_text())
    tracemalloc.start()
    try:
        form = scalar_form_from_json_dict(payload["form"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(form.terms) == 6247
    assert len({id(c) for c in form.terms.values()}) == 116
    assert peak < 2_000_000, peak
    assert scalar_form_to_json_dict(form) == payload["form"]


def test_a_traced_lagrangian_child_times_the_writers(tmp_path):
    """Under the benchmark's span tracer (perfbench/cli_child.py) the CLI's
    JSON and TeX writers are still the two `cli.emit` spans, with a nonzero
    time."""
    root = Path(cli.__file__).resolve().parents[2]
    cfg = write_config(tmp_path, "cfg.json", dict(_C5, fields=["w", "e"]))
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "cli_child.py"),
                           str(trace), "lagrangian", "--format", "both", "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(trace.read_text())
    assert layers["count"]["cli.emit"] == 2 and layers["self_s"]["cli.emit"] > 0
