"""Span tracer for the benchmark's traced run.

It wraps public functions of `sexpansion` at the layer boundaries, in every
module namespace that holds them, and records one span per call (name,
start, end, parent) plus per-layer counts and self times. A layer's self
time is its span's duration minus the duration of its child spans.
`ScalarForm.__add__` is counted (calls and terms copied), not spanned.
Nothing under `src/` is changed on disk; `uninstall` restores every name.
"""

from __future__ import annotations

import sys
import time

# (defining module, function) -> layer name; a layer may wrap several functions
LAYERS = {
    ("forms", "wedge"): "forms.wedge",
    ("forms", "contract"): "forms.contract",
    ("forms", "exterior_d"): "forms.exterior_d",
    ("forms", "curvature"): "forms.curvature",
    ("forms", "scalar_form_to_json_dict"): "cli.emit",
    ("forms", "scalar_form_latex"): "cli.emit",
    ("lagrangian", "transgression"): "lagrangian.transgression",
    ("lagrangian", "subspace_separation"): "lagrangian.subspace_separation",
    ("lagrangian", "compare_forms"): "lagrangian.compare_forms",
    ("lagrangian", "dual_mc_check"): "lagrangian.dual_mc_check",
    ("targets", "expand_target"): "targets.expand_target",
    ("goldens", "per_term_report"): "goldens.per_term_report",
    ("lie_algebra", "check_axioms"): "lie_algebra.check_axioms",
    ("lie_algebra", "killing_profile"): "lie_algebra.killing_profile",
    ("lie_algebra", "change_basis"): "lie_algebra.change_basis",
    ("lie_algebra", "make_named"): "fixtures.build",
    ("expansion", "h_reduce"): "expansion.h_reduce",
    ("expansion", "s_expand"): "expansion.s_expand",
    ("expansion", "impose_sign_identification"): "expansion.sign_identification",
    ("invariant_tensor", "verify_invariance"): "invariant_tensor.verify_invariance",
    ("invariant_tensor", "lift_h"): "invariant_tensor.lift",
    ("invariant_tensor", "lift_0s"): "invariant_tensor.lift",
    ("invariant_tensor", "rotate_tensor"): "invariant_tensor.rotate_tensor",
    ("semigroup", "check_even_cyclic_identities"): "semigroup.identities",
    ("pipeline", "run_pipeline"): "pipeline.run_pipeline",
    ("fixtures", "make_c_algebra"): "fixtures.build",
    ("fixtures", "make_c_algebra_rotated"): "fixtures.build",
    ("fixtures", "c_tensor"): "fixtures.build",
    ("fixtures", "c_tensor_rotated"): "fixtures.build",
    ("fixtures", "make_b5"): "fixtures.build",
    ("fixtures", "b5_tensor"): "fixtures.build",
    ("fixtures", "build_connection"): "fixtures.build",
    ("fixtures", "connection_chain"): "fixtures.build",
    ("fixtures", "random_nilpotent"): "fixtures.build",
    ("fixtures", "random_solvable_4d"): "fixtures.build",
    ("fixtures", "algebra_by_name"): "fixtures.build",
    ("fixtures", "tensor_by_name"): "fixtures.build",
}

# layers whose call count is a metric of its own
COUNTED = ("forms.wedge", "forms.contract", "lagrangian.transgression",
           "targets.expand_target")

# spans kept in memory beyond this are only aggregated
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.stack: list[list] = []      # [span id, start, child time]
        self.spans: list[tuple] = []     # (id, name, start, end, parent id)
        self.count: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.root_s = 0.0                # duration of spans without a parent
        self.add_calls = 0
        self.add_copied_terms = 0
        self.span_count = 0
        self._patches: list[tuple] = []
        self._add_patch = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self.span_count
            self.span_count += 1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.count[name] = self.count.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                    parent = stack[-1][0]
                else:
                    self.root_s += dur
                    parent = None
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, name, frame[1], end, parent))

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every loaded module namespace that holds a layer function,
        the benchmark's own modules included."""
        import sexpansion.cli  # noqa: F401  (loads every layer module)
        from sexpansion import forms

        namespaces = [vars(m) for m in list(sys.modules.values())
                      if hasattr(m, "__dict__")]
        for (mod_name, fn_name), layer in LAYERS.items():
            original = getattr(sys.modules["sexpansion." + mod_name], fn_name)
            wrapper = self._wrap(layer, original)
            for ns in namespaces:
                if ns.get(fn_name) is original:
                    self._patches.append((ns, fn_name, original))
                    ns[fn_name] = wrapper

        original_add = forms.ScalarForm.__add__

        def counted_add(form, other):
            self.add_calls += 1
            self.add_copied_terms += len(form.terms)
            return original_add(form, other)

        forms.ScalarForm.__add__ = counted_add
        self._add_patch = (forms.ScalarForm, original_add)

    def uninstall(self) -> None:
        for ns, fn_name, original in reversed(self._patches):
            ns[fn_name] = original
        self._patches.clear()
        cls, original_add = self._add_patch
        cls.__add__ = original_add

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {"count": dict(self.count), "self_s": dict(self.self_s),
                "root_s": self.root_s, "add_calls": self.add_calls,
                "add_copied_terms": self.add_copied_terms}

    def merge(self, snap: dict) -> None:
        """Fold in the snapshot of another process (a traced CLI child)."""
        for name, n in snap["count"].items():
            self.count[name] = self.count.get(name, 0) + n
        for name, s in snap["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + s
        self.root_s += snap["root_s"]
        self.add_calls += snap["add_calls"]
        self.add_copied_terms += snap["add_copied_terms"]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {
            "forms.add_calls": (self.add_calls, "count"),
            "forms.add_copied_terms": (self.add_copied_terms, "count"),
        }
        for name in sorted({layer for layer in LAYERS.values()}):
            out[name + "_s"] = (self.self_s.get(name, 0.0), "s")
        for name in COUNTED:
            out[name + "_calls"] = (self.count.get(name, 0), "count")
        return out
