"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import ast
import hashlib
import importlib
import importlib.util
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from horocp import (
    ActionSpec,
    CrossedElement,
    GroupSpec,
    LengthFunction,
    StateSpec,
    SubgroupSpec,
    WITNESS_SUBLINEARITY,
    asymptotic_length,
    central_heisenberg_table,
    check_cocycle,
    check_commutator_identity,
    check_conditional_expectation,
    check_nctorus_equicontinuity,
    check_af_triple,
    check_tail_bound,
    check_unitary_conjugation,
    cyclic_triple,
    element_norm,
    facets,
    hexagonal_generators,
    lambda_op,
    m_ell,
    mk_brute_force,
    mk_distance,
    op_norm,
    separation_certificate,
    stable_norm_dual,
    tail_series_factor,
    truncate,
)
from horocp.checks import random_crossed, random_diagonal_action, random_hermitian
from horocp.cli import run


def report(number: int, description: str, passed: bool):
    marker = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {marker}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_01_heisenberg_central_lengths():
    started = time.monotonic()
    spec = LengthFunction.word(GroupSpec.heisenberg3())
    spec.ball(12)
    ok = True
    for i in range(1, 10):
        root = math.isqrt(4 * i)
        if root * root < 4 * i:
            root += 1
        ok = ok and spec.length((0, 0, i)) == 2 * root
    elapsed = time.monotonic() - started
    report(1, f"l(c^i) = 2*ceil(2*sqrt(i)) for i=1..9, radius-12 ball in {elapsed:.1f}s",
           ok and elapsed < 60.0)


def test_criterion_02_cocycle_identity():
    rng = np.random.default_rng([7, 2])
    ok = True
    for group, radius, pair_radius in (
        (GroupSpec.free_abelian(2), 10.0, 4.0),
        (GroupSpec.heisenberg3(), 8.0, 3.0),
    ):
        spec = LengthFunction.word(group)
        small = spec.ball(pair_radius)
        pairs = [
            (small.elements[int(i)], small.elements[int(j)])
            for i, j in rng.integers(0, len(small), size=(100, 2))
        ]
        rep = check_cocycle(spec, pairs, radius)
        ok = ok and rep.passed and rep.residual == 0.0
    report(2, "cocycle defect exactly 0 for 100 random pairs on Z2 (r=10) and H3 (r=8)", ok)


def test_criterion_03_commutator_identity():
    rng = np.random.default_rng([7, 3])
    groups = (GroupSpec.free_abelian(1), GroupSpec.free_abelian(2))
    specs = [LengthFunction.word(g) for g in groups]
    ok = True
    worst = 0.0
    for idx in range(20):
        spec = specs[idx % 2]
        d = 1 + idx % 3
        x = random_crossed(rng, spec, 2.0, coeff_dim=d, terms=3)
        action = random_diagonal_action(rng, spec.group, d)
        rep = check_commutator_identity(x, spec, action, radius=6.0)
        assert rep.tolerance == 1e-12
        ok = ok and rep.passed
        worst = max(worst, rep.residual)
    report(3, f"commutator identity window residual < 1e-12 on 20 random elements "
              f"(worst {worst:.2e})", ok)


def test_criterion_04_conditional_expectation():
    rng = np.random.default_rng([7, 4])
    z1 = GroupSpec.free_abelian(1)
    z2 = GroupSpec.free_abelian(2)
    len_z1 = LengthFunction.word(z1)
    len_z2 = LengthFunction.word(z2)
    ok = True
    for idx in range(20):
        if idx % 2 == 0:
            spec, sub = len_z1, SubgroupSpec.multiples(z1, 2)
        else:
            spec, sub = len_z2, SubgroupSpec.kernel_of(z2, (1, 0))
        x = random_crossed(rng, spec, 3.0, coeff_dim=2, terms=4)
        ball = spec.ball(2.0)
        g = ball.elements[int(rng.integers(0, len(ball)))]
        rep = check_conditional_expectation(
            x, g, sub, random_hermitian(rng, 2), spec,
            random_diagonal_action(rng, spec.group, 2),
        )
        assert rep.tolerance == 1e-12
        ok = ok and rep.passed and rep.residual <= 1e-12 and rep.slack >= -1e-12
    report(4, "conditional-expectation identities to 1e-12 and contraction slack "
              ">= -1e-12 on 20 instances, H in {2Z, ker p1}", ok)


def test_criterion_05_tail_bound():
    factor = tail_series_factor(1, 0.0)
    expected = math.sqrt(2 * (math.pi**2 / 6 - 1))
    factor_ok = abs(factor - expected) <= 1e-9
    rng = np.random.default_rng([7, 5])
    z2 = GroupSpec.free_abelian(2)
    spec = LengthFunction.word(z2)
    action = ActionSpec.trivial(z2, 1)
    sigma = facets(z2)[0]
    small = spec.ball(2.0)
    functionals = ((1, 0), (0, 1), (1, 1))
    ok = True
    worst = math.inf
    for idx in range(50):
        x = random_crossed(rng, spec, 4.0, coeff_dim=1, terms=5)
        n_cut = 1 + idx % 3
        vec = functionals[idx % 3]
        if idx % 2 == 0:
            shift = 0.0
        else:
            g0 = small.elements[int(rng.integers(0, len(small)))]
            mean = float(sigma(z2.abelianization(g0)))
            shift = max(-n_cut, min(n_cut, mean))
        rep = check_tail_bound(x, vec, shift, n_cut, spec, action, radius=8.0)
        assert rep.tolerance == 1e-9
        ok = ok and rep.passed
        worst = min(worst, rep.slack)
    report(5, f"tail-bound slack >= -1e-9 on 50 random Z2 elements (worst {worst:.3f}); "
              f"factor(N=1,L=0) = {factor:.6f} within 1e-9 of sqrt(2(pi^2/6-1))",
           ok and factor_ok)


def test_criterion_06_unitary_conjugation():
    rng = np.random.default_rng([7, 6])
    z1 = GroupSpec.free_abelian(1)
    spec = LengthFunction.word(z1)
    ball = spec.ball(4.0)
    ok = True
    for _ in range(10):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        f_vals = rng.normal(size=len(ball))
        g = ball.elements[int(rng.integers(0, len(ball)))]
        action = random_diagonal_action(rng, z1, 2)
        rep = check_unitary_conjugation(a, f_vals, g, spec, action, radius=4.0)
        assert rep.tolerance == 1e-12
        ok = ok and rep.passed
    report(6, "all three conjugation identities hold to 1e-12 on Z with R=4, d=2, "
              "10 random (a, f, g) triples", ok)


def test_criterion_07_stable_norm_oracle():
    rng = np.random.default_rng([7, 7])
    z2 = GroupSpec.free_abelian(2)
    ok = True
    for gens in (None, hexagonal_generators()):
        spec = LengthFunction.word(z2, gens)
        funs = facets(z2, gens)
        ball = spec.ball(10.0)
        picks = rng.choice(len(ball) - 1, size=20, replace=False) + 1
        for idx in picks:
            g = ball.elements[int(idx)]
            fekete = asymptotic_length(g, spec, 40)
            dual = float(stable_norm_dual(g, funs))
            ok = ok and abs(fekete.value - dual) <= fekete.fekete_gap + 1e-9
        for g in [(3, -2), (5, 1), (-4, 4)]:
            for k in (2, 3, -5):
                scaled = tuple(k * c for c in g)
                ok = ok and stable_norm_dual(scaled, funs) == abs(k) * stable_norm_dual(g, funs)
    report(7, "Fekete(I=40) matches the dual polytope norm within fekete_gap + 1e-9 "
              "on 20 random points of B_10 (diamond and hexagonal); homogeneity exact", ok)


def test_criterion_08_separation_certificates():
    ok = True
    for m in (1, 2, 3):
        group = GroupSpec.free_abelian(m)
        cert = separation_certificate(group, LengthFunction.word(group))
        ok = ok and cert.separated and cert.rank == m
    z1 = GroupSpec.free_abelian(1)
    table_spec = LengthFunction.explicit_table(z1, central_heisenberg_table(10_000))
    cert = separation_certificate(z1, table_spec)
    witness = cert.sublinearity
    ok = (ok and not cert.separated and cert.witness_kind == WITNESS_SUBLINEARITY
          and witness is not None and abs(witness.ratio_at_horizon - 0.04) < 1e-12)
    report(8, "Z^m standard generators separated with rank m for m=1,2,3; "
              "central-length table yields l(g^10000)/10000 = 0.04 and separated=false", ok)


def test_criterion_09_nctorus():
    z1 = GroupSpec.free_abelian(1)
    spec = LengthFunction.word(z1)
    ok = True
    for q in (3, 5, 8):
        rep = check_nctorus_equicontinuity(1, q, spec, n_range=range(-50, 51), radius=20.0)
        assert rep.tolerance == 1e-9
        ok = (ok and rep.passed and rep.details["relation_residual"] < 1e-12
              and rep.details["action_residual"] <= 1e-12 and rep.slack >= -1e-9)
    report(9, "clock-shift relation residual < 1e-12 at q in {3,5,8}; equicontinuity "
              "slack >= -1e-9 over n in [-50,50] at R=20", ok)


def test_criterion_10_af_triple():
    rep = check_af_triple([2, 2, 2, 2, 2], [0, 1, 2, 3, 4, 5])
    assert rep.tolerance == 1e-12
    ranks_ok = rep.details["ranks"][1:] == [2 ** (i - 1) for i in range(1, 6)]
    report(10, "depth-5 binary odometer: rank Q_i = 2^(i-1), orthogonality and "
               "level commutation residuals < 1e-12", rep.passed and ranks_ok)


def test_criterion_11_monge_kantorovich():
    plus, minus = StateSpec.character(2, 0), StateSpec.character(2, 1)
    base = mk_distance(cyclic_triple(2, [0.0, 1.0]), plus, minus)
    brute = mk_brute_force(cyclic_triple(2, [0.0, 1.0]), plus, minus)
    halved = mk_distance(cyclic_triple(2, [0.0, 2.0]), plus, minus)
    ok = (base.converged
          and abs(base.lower_bound - 2.0) <= 1e-6
          and abs(base.lower_bound - brute) <= 1e-4
          and abs(halved.lower_bound - base.lower_bound / 2) <= 1e-6)
    report(11, f"C*(Z_2) distance {base.lower_bound:.8f} (target 2.0 within 1e-6, "
               f"brute force within 1e-4); doubling D halves it within 1e-6", ok)


def test_criterion_12_operator_norm_engine():
    z1 = GroupSpec.free_abelian(1)
    spec = LengthFunction.word(z1)
    action = ActionSpec.trivial(z1, 1)
    x = CrossedElement.from_dict(z1, {(1,): [[1.0]], (-1,): [[1.0]]})
    values = [element_norm(x, spec, action, r) for r in range(1, 41)]
    monotone = all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    commutator_ok = True
    for radius in (2, 3, 5, 10, 25, 40):
        H = truncate(spec, radius)
        lam = lambda_op(H, (1,)).matrix
        mell = m_ell(H).matrix
        commutator_ok = commutator_ok and op_norm(mell @ lam - lam @ mell) == 1.0
    report(12, f"compressed lambda_1 + lambda_-1 reaches {values[-1]:.4f} >= 1.95 by R=40 "
               f"with monotone values; ||[M_l, lambda_1]|| = 1 exactly for R >= 2",
           values[-1] >= 1.95 and monotone and commutator_ok)


def recorded_verify_digest(argv: str):
    """The stdout sha256 of `horocp <argv>` that perfbench/oracles.py records
    for this Python, numpy, BLAS and BLAS thread count, or None.

    oracles.py is loaded from its path and only read.  The thread count is
    the first of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS
    that is set (the order OpenBLAS reads them); with none set it is unknown
    and no digest applies.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("_perfbench_oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = oracles  # its dataclasses look their module up
    try:
        spec.loader.exec_module(oracles)
    finally:
        del sys.modules[spec.name]
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps['name']} {deps.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    threads = next((os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                            "OMP_NUM_THREADS") if v in os.environ), None)
    env = {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
           "blas_threads": int(threads) if threads and threads.isdigit() else None}
    return oracles.verify_reference(argv, env)


def test_perfbench_traced_names_resolve():
    """Every (module, attr) perfbench/tracing.py patches exists in horocp, so
    renaming or deleting a traced function fails here, not in a traced
    benchmark run.  SPANS is read from the file's source; nothing is imported
    from perfbench."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text())
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets))
    # Tracer.install also wraps these two methods by name
    names = list(spans) + [("groups", "LengthFunction.length"), ("groups", "GroupSpec.multiply")]
    assert len(spans) > 30
    for module, attr in names:
        owner = importlib.import_module(f"horocp.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"perfbench traces horocp.{module}.{attr}, which is gone"


def test_criterion_13_cli_determinism(capsys):
    started = time.monotonic()
    code1 = run(["verify", "all", "--seed", "7"])
    first = capsys.readouterr().out
    elapsed = time.monotonic() - started
    code2 = run(["verify", "all", "--seed", "7"])
    second = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and first == second and elapsed < 600.0
    # the recorded digest, where this environment has one, pins the bytes
    reference = recorded_verify_digest("verify all --seed 7")
    digest = hashlib.sha256(first.encode()).hexdigest()
    pinned = "no recorded digest for this environment" if reference is None else \
        f"stdout sha256 {digest[:8]}... against the recorded {reference[:8]}..."
    ok = ok and (reference is None or digest == reference)
    report(13, f"verify all --seed 7 byte-identical across runs; {pinned}; one run takes "
               f"{elapsed:.0f}s < 600s", ok)
