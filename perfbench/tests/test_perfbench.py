"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _checkout_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "ROOT", ROOT)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_smoke_run_of_every_workload(name):
    _, result = run.measure(name, seed=3, seconds=0, trace=False, size="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    record, result = run.measure("operator_large", seed=3, seconds=0, trace=True, size="tiny")
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["operators.op_norm.calls.small"]["value"] > 0
    assert result["metrics"]["operators.realize.s"]["value"] > 0
    assert record["traced_wall_s"] > 0


def _bindings() -> dict:
    import horocp.cli  # noqa: F401 - every horocp module is loaded
    from horocp.groups import GroupSpec, LengthFunction

    out = {(name, key): value
           for name, mod in sys.modules.items() if name.split(".")[0] == "horocp"
           for key, value in vars(mod).items() if callable(value)}
    for cls, key in ((LengthFunction, "ball"), (LengthFunction, "length"),
                     (GroupSpec, "multiply")):
        out[(cls.__name__, key)] = cls.__dict__[key]
    return out


def test_trace_restores_every_name_and_keeps_verify_stdout():
    from horocp import checks, operators, quantum_metric

    inputs = workloads.make_inputs("verify_suite", 3, "tiny")
    before = _bindings()
    plain = workloads.run("verify_suite", inputs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        original = before[("horocp.operators", "op_norm")]
        # op_norm is patched in every module that imported it
        assert operators.op_norm is not original
        assert checks.op_norm is operators.op_norm is quantum_metric.op_norm
        traced = workloads.run("verify_suite", inputs)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert oracles.stdout_digest(traced) == oracles.stdout_digest(plain)
    assert tracer.total["cli.run"] > 0 and tracer.total["checks.commutator"] > 0


def _perturbed(records, op, change):
    out = [dict(r) for r in records]
    rec = next(r for r in out if r["op"] == op)
    rec["value"] = change(rec["value"])
    return out


def test_perturbed_values_count_as_failures_and_shortfall():
    inputs = workloads.make_inputs("operator_large", 3, "tiny")
    records = json.loads(json.dumps(workloads.run("operator_large", inputs)))
    clean = oracles.score("operator_large", inputs, records, {})
    assert clean.failed == 0 and clean.shortfall_max < 1e-6

    # a lower bound pushed above its oracle is a failed operation
    high = _perturbed(records, "z2.lipschitz_seminorm", lambda v: [v[0] * (1 + 1e-9), v[1]])
    scored = oracles.score("operator_large", inputs, high, {})
    assert scored.failed == 1 and scored.failed_share == 1 / scored.attempted

    # a lower bound pushed down shows as shortfall, not as a failure
    low = _perturbed(records, "z2.lipschitz_seminorm", lambda v: [v[0] * (1 - 1e-3), v[1]])
    scored = oracles.score("operator_large", inputs, low, {})
    assert scored.failed == 0 and scored.shortfall_max == pytest.approx(1e-3, rel=1e-3)

    # an exact value off by one, and a check that reports passed=False
    for op, change in (("z2.ball_size", lambda v: v + 1),
                       ("h3.commutator_identity", lambda v: False)):
        scored = oracles.score("operator_large", inputs, _perturbed(records, op, change), {})
        assert scored.failed == 1, op


def test_changed_verify_stdout_is_a_failed_operation():
    inputs = workloads.make_inputs("verify_suite", 3, "tiny")
    records = workloads.run("verify_suite", inputs)
    good = oracles.stdout_digest(records)
    bad = oracles.stdout_digest(_perturbed(records, records[0]["op"], lambda v: v + " "))
    assert bad != good
    # against a recorded reference, every repetition counts
    assert oracles.score_stdout([good, good], good).failed == 0
    scored = oracles.score_stdout([good, bad], good)
    assert (scored.failed, scored.attempted) == (1, 2)
    assert oracles.score_stdout([bad], good).failed == 1
    # without one, later repetitions are compared with the first
    scored = oracles.score_stdout([good, bad, good], None)
    assert (scored.failed, scored.attempted) == (1, 2)


def test_verify_stdout_is_always_compared():
    # the recorded digest covers the full run in its environment; anywhere
    # else a second repetition is forced so that a comparison exists
    env = run.environment(7)
    full = " ".join(" ".join(a) for a in workloads.make_inputs("verify_suite", 3)["argv"])
    assert full == "verify all --seed 7"
    key = next(iter(oracles.VERIFY_STDOUT_SHA256))
    assert oracles.verify_reference(full, dict(env, python=key[1], numpy=key[2], blas=key[3],
                                               blas_threads=key[4])) is not None
    record, result = run.measure("verify_suite", seed=3, seconds=0, trace=False, size="tiny")
    assert record["repetitions"] == 2 and result["failed"] == 0


def test_mk_bound_above_its_witness_ratio_fails():
    inputs = workloads.make_inputs("finite_triples", 3, "tiny")
    records = workloads.run("finite_triples", inputs)
    assert oracles.score("finite_triples", inputs, records, {}).failed == 0
    high = _perturbed(records, "c3.mk_distance",
                      lambda v: dict(v, lower_bound=v["lower_bound"] * (1 + 1e-9)))
    assert oracles.score("finite_triples", inputs, high, {}).failed == 1


def test_known_defects_are_measured_not_scored():
    full = workloads.SIZES["finite_triples"]["full"]
    pairs = [(order, j) for order, _, js in full["cyclic"] + full["known_defects"] for j in js]
    # every pair (chi_0, chi_j), j = 1..order//2, once, on one side or the other
    assert sorted(pairs) == [(o, j) for o in (5, 6) for j in range(1, o // 2 + 1)]

    record, result = run.measure("finite_triples", seed=3, seconds=0, trace=True, size="tiny")
    (known,) = record["known_defects"]
    assert known["op"] == "c4.mk_distance" and known["excess"] is not None
    # three operations in each of two repetitions, one timed and one traced;
    # the known case is not one of them
    assert result["correct"] and result["attempted"] == 2 * 3
    metric = result["metrics"]["quantum_metric.mk.known_defect_excess_max"]["value"]
    assert metric == known["excess"]

    inputs = workloads.make_inputs("finite_triples", 3, "tiny")
    records = workloads.known_defects("finite_triples", inputs)
    base = oracles.known_defect_excess(inputs, records)[0]["excess"]
    high = _perturbed(records, "c4.mk_distance",
                      lambda v: dict(v, lower_bound=v["lower_bound"] * (1 + 1e-6)))
    excess = oracles.known_defect_excess(inputs, high)[0]["excess"]
    assert excess == pytest.approx(base + 1e-6, abs=1e-9)


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.05, 9.95, 10.1, 10.0, 9.9]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(parent, faster, "lower", 0.1, False)[0] == "improved"
    assert compare.verdict(parent, faster, "lower", 0.1, True)[0] == "unresolved"
    assert compare.verdict(parent, slower, "lower", 0.1, False)[0] == "worse"
    assert compare.verdict(parent, parent, "lower", 0.1, False)[0] == "unchanged"
    assert compare.verdict(noisy, noisy, "lower", 0.1, False)[0] == "unresolved"
