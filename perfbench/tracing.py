"""Spans and counts around horocp's public functions, patched from outside.

``Tracer.install()`` replaces each traced function in every horocp module
that holds a reference to it (``op_norm`` is bound in ``operators``,
``checks``, ``quantum_metric`` and the package namespace), plus three methods
on their classes; ``uninstall()`` puts every original back.  Nothing under
``src/`` is edited.

A span is (name, start, end, parent, run id).  Spans stay in memory and are
written out by ``dump``.  A span's self time is its duration minus the
durations of its child spans.  ``LengthFunction.length`` and
``GroupSpec.multiply`` run millions of times per workload, so they are
aggregated into counters (and, for ``length``, a time that is charged to the
enclosing span as child time) instead of being kept as individual spans.

Every ``op_norm`` result is compared with an independent singular value
(LAPACK, or ARPACK on a sparse copy for large N).  That comparison runs on a
paused clock, so it adds nothing to any span.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

import oracles

SMALL_N, MID_N = 64, 512

# (module, attribute) -> span name.  Module attributes are patched wherever
# the same function object is bound; "Class.method" names patch the class.
SPANS = {
    ("groups", "LengthFunction.ball"): "groups.ball",
    ("horoboundary", "phi"): "horoboundary.phi",
    ("horoboundary", "cocycle_defect"): "horoboundary.cocycle",
    ("horoboundary", "facets"): "horoboundary.facets",
    ("horoboundary", "busemann_along_ray"): "horoboundary.busemann",
    ("horoboundary", "check_ray_geodesic"): "horoboundary.busemann",
    ("stable_norm", "asymptotic_length"): "stable_norm.asymptotic",
    ("stable_norm", "stable_norm_dual"): "stable_norm.dual",
    ("separation", "separation_certificate"): "separation.certificate",
    ("operators", "truncate"): "operators.truncate",
    ("operators", "realize"): "operators.realize",
    ("operators", "realize_phi_twisted"): "operators.realize",
    ("operators", "lambda_op"): "operators.translation",
    ("operators", "pi_tilde"): "operators.diagonal",
    ("operators", "m_ell"): "operators.diagonal",
    ("operators", "m_phi"): "operators.diagonal",
    ("operators", "m_phi_g"): "operators.diagonal",
    ("operators", "even_dirac"): "operators.dirac",
    ("operators", "odd_dirac"): "operators.dirac",
    ("operators", "coset_compress"): "operators.coset_compress",
    ("operators", "lipschitz_seminorm"): "operators.seminorm",
    ("operators", "element_norm"): "operators.element_norm",
    ("operators", "cauchy_gap_norm"): "operators.cauchy_gap",
    ("operators", "op_norm"): "operators.op_norm",
    ("checks", "check_length_axioms"): "checks.length_axioms",
    ("checks", "check_cocycle"): "checks.cocycle",
    ("checks", "check_commutator_identity"): "checks.commutator",
    ("checks", "check_conditional_expectation"): "checks.conditional_expectation",
    ("checks", "check_tail_bound"): "checks.tail_bound",
    ("checks", "check_unitary_conjugation"): "checks.conjugation",
    ("checks", "check_nctorus_equicontinuity"): "checks.nctorus",
    ("checks", "check_af_triple"): "checks.af_triple",
    ("checks", "check_coefficient_bounds"): "checks.coefficient_bounds",
    ("checks", "default_suite"): "checks.default_suite",
    ("quantum_metric", "mk_distance"): "quantum_metric.mk",
    ("aftriple", "af_filtration"): "aftriple.filtration",
    ("cli", "run"): "cli.run",
}
CHECK_FAMILIES = ("length_axioms", "cocycle", "commutator", "conditional_expectation",
                  "tail_bound", "conjugation", "nctorus", "af_triple", "coefficient_bounds")

# Per-layer metrics in the order they are printed, with their units.
LAYER_METRICS = (
    [("groups.ball.s", "s"), ("groups.ball.elements", "count"),
     ("groups.length.calls", "count"), ("groups.length.s", "s"),
     ("groups.multiply.calls", "count")]
    + [(f"{n}.s", "s") for n in ("horoboundary.phi", "horoboundary.cocycle",
                                 "horoboundary.facets", "horoboundary.busemann",
                                 "stable_norm.asymptotic", "stable_norm.dual",
                                 "separation.certificate", "operators.truncate",
                                 "operators.realize", "operators.translation",
                                 "operators.diagonal", "operators.dirac",
                                 "operators.coset_compress")]
    + [("operators.seminorm.self_s", "s")]
    + [(f"operators.op_norm.{kind}.{size}", unit)
       for size in ("small", "mid", "large") for kind, unit in (("calls", "count"), ("s", "s"))]
    + [("operators.op_norm.rel_err_max", "ratio"), ("operators.op_norm.bytes", "B")]
    + [(f"checks.{f}.s", "s") for f in CHECK_FAMILIES]
    + [("checks.escalated", "count"),
       ("quantum_metric.mk.s", "s"), ("quantum_metric.mk.self_s", "s"),
       ("quantum_metric.mk.iterations", "count"), ("quantum_metric.mk.converged_share", "ratio"),
       ("quantum_metric.mk.known_defect_excess_max", "ratio"),
       ("aftriple.filtration.s", "s"), ("cli.self_s", "s"), ("trace.overhead_s", "s")]
)


def size_class(n: int) -> str:
    return "small" if n <= SMALL_N else "mid" if n <= MID_N else "large"


class Tracer:
    def __init__(self):
        self.paused = 0.0
        self.run_id = 0
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1, run id)
        self.stack: list[list] = []   # open spans: [index, name, start, child time]
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.rel_err_max = 0.0
        self._patches: list[tuple] = []
        self._balls: dict[int, object] = {}

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.run_id))
        frame = [len(self.spans) - 1, name, self.now(), 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = self.now()
        self.stack.pop()
        index, name, start, child = frame
        self.spans[index] = (name, start, end, self.spans[index][3], self.run_id)
        duration = end - start
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        # A recursive call (a check escalating its radius) is already inside
        # its caller's span; count the outermost one only.
        if all(f[1] != name for f in self.stack):
            self.total[name] = self.total.get(name, 0.0) + duration
        if self.stack:
            self.stack[-1][3] += duration

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            tracer._observe(name, args, kwargs, result, frame)
            return result

        return wrapper

    def _observe(self, name, args, kwargs, result, frame) -> None:
        if name == "groups.ball":
            self._balls.setdefault(id(result), result)
        elif name == "operators.op_norm":
            self._observe_norm(args, result, frame)
        elif name == "quantum_metric.mk":
            self.count("mk.calls")
            self.count("quantum_metric.mk.iterations", result.iterations)
            self.count("mk.converged", bool(result.converged))
        elif name in ("checks.tail_bound", "checks.coefficient_bounds") \
                and kwargs.get("_escalated"):
            self.count("checks.escalated")

    def _observe_norm(self, args, value, frame) -> None:
        t = args[0]
        a = np.asarray(getattr(t, "matrix", t), dtype=complex)
        n = a.shape[0]
        cls = size_class(n)
        self.count(f"operators.op_norm.calls.{cls}")
        self.count(f"operators.op_norm.s.{cls}", self.spans[frame[0]][2] - frame[2])
        self.count("operators.op_norm.bytes", 16 * n * n)
        started = time.perf_counter()
        ref = oracles.top_singular_value(a)
        if ref > 0:
            self.rel_err_max = max(self.rel_err_max, abs(ref - value) / ref)
        self.paused += time.perf_counter() - started

    # -- leaf counters ---------------------------------------------------------

    def _wrap_length(self, fn):
        tracer = self

        @functools.wraps(fn)
        def length(self_, g):
            start = tracer.now()
            try:
                return fn(self_, g)
            finally:
                elapsed = tracer.now() - start
                tracer.counts["groups.length.calls"] = tracer.counts.get("groups.length.calls", 0) + 1
                tracer.counts["groups.length.s"] = tracer.counts.get("groups.length.s", 0.0) + elapsed
                if tracer.stack:
                    tracer.stack[-1][3] += elapsed

        return length

    def _wrap_multiply(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def multiply(self_, a, b):
            counts["groups.multiply.calls"] = counts.get("groups.multiply.calls", 0) + 1
            return fn(self_, a, b)

        return multiply

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        import horocp.cli  # noqa: F401 - loaded so its imported names get patched
        from horocp.groups import GroupSpec, LengthFunction

        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "horocp" or k.startswith("horocp.")) and m is not None]
        for (mod_name, attr), span in SPANS.items():
            home = sys.modules[f"horocp.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._set(cls, meth, self._wrap(span, getattr(cls, meth)))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        self._set(LengthFunction, "length", self._wrap_length(LengthFunction.length))
        self._set(GroupSpec, "multiply", self._wrap_multiply(GroupSpec.multiply))

    def _set(self, owner, key, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results ---------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        """Every per-layer metric, 0 where the workload does no such work."""
        values = dict(self.counts)
        for name, total in self.total.items():
            values[f"{name}.s"] = total
        values["groups.ball.elements"] = sum(len(b) for b in self._balls.values())
        values["operators.seminorm.self_s"] = self.self_time.get("operators.seminorm", 0.0)
        values["operators.op_norm.rel_err_max"] = self.rel_err_max
        values["quantum_metric.mk.self_s"] = self.self_time.get("quantum_metric.mk", 0.0)
        calls = self.counts.get("mk.calls", 0)
        values["quantum_metric.mk.converged_share"] = (
            self.counts.get("mk.converged", 0) / calls if calls else 0.0)
        values["cli.self_s"] = self.self_time.get("cli.run", 0.0)
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": float(values.get(name, 0)), "unit": unit}
                for name, unit in LAYER_METRICS}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")
