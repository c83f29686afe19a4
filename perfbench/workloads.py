"""The benchmark workloads: seeded inputs, then the timed calls into horocp.

Each workload has two halves.  ``make_inputs(name, seed, size)`` draws every
random choice from the seed and returns plain data (tuples, lists, numpy
arrays); it is the set-up that ``setup_s`` times together with the imports.
``run(name, inputs)`` is the timed region.  It builds fresh group and length
objects, exactly as one CLI invocation does, so BFS growth and ball caches are
paid on every repetition.  It returns one record per operation: a check
report, a certified number, or an exact value.  Nothing here judges the
records; ``oracles.py`` does that outside the timed region.

The seed picks elements, states and eigenvalues but never sizes, so the work
per repetition does not depend on the seed (verify_suite ignores it; see
make_inputs).  ``size="tiny"`` shrinks every
workload for the benchmark's own smoke tests.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np

import oracles

WORKLOADS = ("verify_suite", "operator_large", "exact_geometry", "finite_triples")

# Sizes per workload.  "full" is what the benchmark measures; "tiny" exists
# only so the smoke tests can run every code path in a few seconds.
SIZES = {
    "verify_suite": {
        # `verify all` has no size knobs; the tiny form runs two cheap families.
        "full": [["verify", "all"]],
        "tiny": [["verify", "commutator", "--count", "2", "--radius", "4",
                  "--support-radius", "1"],
                 ["verify", "af-triple"]],
    },
    "operator_large": {
        # (group, coefficient-support radius, Cauchy radii, commutator radius)
        "full": {"z2": (3.0, 10.0, 20.0, 16.0), "h3": (2.0, 3.5, 7.0, 6.0)},
        "tiny": {"z2": (2.0, 3.0, 6.0, 6.0), "h3": (1.0, 2.0, 3.0, 3.0)},
    },
    "exact_geometry": {
        "full": {"h3_ball": 22, "phi_radius": 10, "phi_count": 10, "pairs": 12,
                 "ray_repeats": 6, "hex_horizon": 100, "hex_norm": 2,
                 "z3_sets": 3, "dual_calls": 200, "central_horizon": 10_000},
        "tiny": {"h3_ball": 8, "phi_radius": 4, "phi_count": 2, "pairs": 2,
                 "ray_repeats": 2, "hex_horizon": 10, "hex_norm": 2,
                 "z3_sets": 1, "dual_calls": 5, "central_horizon": 100},
    },
    "finite_triples": {
        # (order, path lengths, characters j paired with chi_0).  The cyclic
        # cases keep mk_distance's default restart seed (0): on C6 some
        # restart seeds stall the power iteration for minutes, which would
        # make the work per repetition depend on the benchmark seed.
        # Restarts and iterations are cut from the CLI defaults (32, 2000), at
        # which (chi_0, chi_1) on C6 alone takes about 25 s.  The pairs
        # (chi_0, chi_j), j = 1..order//2, are split in two.  "cyclic" are the
        # workload's operations.  "known_defects" are the C6 pairs j = 1 and
        # j = 3, on which mk_distance's bound exceeds the ratio its own
        # witness attains on every seed (op_norm under-estimates the
        # seminorm, ROADMAP item B): they run in the traced repetition, after
        # its timed region, and their excess is reported as the per-layer
        # metric quantum_metric.mk.known_defect_excess_max.
        "full": {"cyclic": ((5, (0, 1, 2, 2, 1), (1, 2)), (6, (0, 1, 2, 3, 2, 1), (2,))),
                 "known_defects": ((6, (0, 1, 2, 3, 2, 1), (1, 3)),),
                 "restarts": 4, "iterations": 200, "af_level": (2, 2),
                 "af_orders": (4, 4, 4, 4)},
        "tiny": {"cyclic": ((3, (0, 1, 1), (1,)),), "known_defects": ((4, (0, 1, 2, 1), (1,)),),
                 "restarts": 2, "iterations": 20, "af_level": (2,), "af_orders": (2, 2)},
    },
}

TERMS = 5  # crossed-element terms on operator_large
VERIFY_SEED = 7


def make_inputs(name: str, seed: int, size: str = "full") -> dict:
    """Every random choice of one repetition, drawn from the seed."""
    spec = SIZES[name][size]
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "verify_suite":
        # Always `--seed 7`, the run Tier-1 and ROADMAP's baseline pay for.
        # Other seeds change default_suite's instances, and some hit op_norm
        # stalls (seed 309: 97.6 s against a 29 s median), which would make
        # the work, and a traced run's 180 s limit, depend on the seed.
        return {"argv": [argv + ["--seed", str(VERIFY_SEED)] for argv in spec]}
    if name == "operator_large":
        # The power iteration's cost swings threefold between random elements
        # (near-degenerate top singular values), so a freshly drawn element
        # per seed would make the work depend on the seed.  Instead one base
        # element per group is drawn once, and the seed twists it by a
        # character chi of the abelianization: a_g -> chi(g) a_g.  Twisted
        # elements are unitarily equivalent on every ball (conjugation by the
        # diagonal unitary chi), so every norm, and the oracle, is the same
        # for all seeds, while the matrices the program sees differ.
        base = np.random.default_rng([0, WORKLOADS.index(name)])
        out = {}
        for group, (support, *radii) in spec.items():
            pool = _support_pool(group, support)
            picks = sorted(int(i) for i in base.choice(len(pool), size=TERMS, replace=False))
            points = [pool[i] for i in picks]
            coeffs = base.normal(size=TERMS) + 1j * base.normal(size=TERMS)
            eta = 2 * np.pi * rng.random(2)
            twist = np.exp(1j * np.array([p[0] * eta[0] + p[1] * eta[1] for p in points]))
            out[group] = {
                "support": points,
                "coeffs": coeffs * twist,
                "phases": rng.random(2),
                "radii": tuple(radii),
                "support_radius": support,
            }
        return out
    if name == "exact_geometry":
        return _exact_inputs(rng, spec)
    return _triple_inputs(rng, spec)


def _support_pool(group: str, radius: float) -> list:
    """Elements of word length <= radius, sorted."""
    return sorted((oracles.z2_ball if group == "z2" else oracles.h3_ball)(radius))


def _exact_inputs(rng: np.random.Generator, spec: dict) -> dict:
    letters = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    radius3 = _support_pool("h3", 3)
    n = len(radius3)
    phi_elements = [radius3[int(i)] for i in rng.choice(n, size=spec["phi_count"], replace=False)]
    pairs = [(radius3[int(i)], radius3[int(j)])
             for i, j in rng.integers(0, n, size=(spec["pairs"], 2))]
    words = []
    for _ in range(2):
        # three letters, never a letter followed by its inverse
        word = [letters[int(rng.integers(0, 4))]]
        while len(word) < 3:
            cand = letters[int(rng.integers(0, 4))]
            if tuple(-c for c in cand[:2]) != word[-1][:2]:
                word.append(cand)
        words.append(word)
    ray_targets = [radius3[int(i)] for i in rng.choice(n, size=2, replace=False)]
    # Z2 hexagonal directions of fixed hexagonal norm, so the BFS horizon
    # (norm * horizon) is the same for every seed.
    k = spec["hex_norm"]
    ring = sorted(p for p in ((x, y) for x in range(-k, k + 1) for y in range(-k, k + 1))
                  if oracles.hex_length(p) == k)
    directions = [ring[int(i)] for i in rng.choice(len(ring), size=4, replace=False)]
    z3_sets = []
    for _ in range(spec["z3_sets"]):
        extra = []
        while len(extra) < 3:
            v = tuple(int(c) for c in rng.integers(-2, 3, size=3))
            if any(v) and v not in extra and tuple(-c for c in v) not in extra:
                extra.append(v)
        z3_sets.append(extra)
    dual_points = rng.integers(-20, 21, size=(spec["z3_sets"], spec["dual_calls"], 3))
    return {
        "spec": spec,
        "phi_elements": phi_elements,
        "pairs": pairs,
        "words": words,
        "ray_targets": ray_targets,
        "directions": directions,
        "z3_sets": z3_sets,
        "dual_points": dual_points,
    }


def _triple_inputs(rng: np.random.Generator, spec: dict) -> dict:
    levels = spec["af_level"]
    dim = math.prod(levels)
    eigenvalues = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 4.0, size=len(levels)))])
    i, j = rng.choice(dim, size=2, replace=False)
    af_eigs = np.arange(len(spec["af_orders"]) + 1, dtype=float) * rng.uniform(0.5, 2.0)
    return {
        "spec": spec,
        "mk_seed": int(rng.integers(0, 2**31)),
        "level_eigenvalues": eigenvalues,
        "level_states": (int(i), int(j)),
        "af_eigenvalues": af_eigs,
        "af_seed": int(rng.integers(0, 2**31)),
    }


# ---------------------------------------------------------------------------
# Timed region.


def run(name: str, inputs: dict) -> list[dict]:
    """Run one repetition and return one record per operation."""
    return _RUNNERS[name](inputs)


def _attempt(records: list, op: str, kind: str, fn, **extra):
    """Call fn and record its outcome.  A raise is recorded, never propagated:
    the benchmark counts it as a failed operation and keeps going."""
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - every raise is a counted failure
        records.append({"op": op, "kind": kind, "error": f"{type(exc).__name__}: {exc}", **extra})
        return None
    records.append({"op": op, "kind": kind, "value": value, **extra})
    return value


def _run_verify(inputs: dict) -> list[dict]:
    from horocp import cli

    records = []
    for argv in inputs["argv"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        records.append({"op": " ".join(argv), "kind": "stdout", "value": out.getvalue(),
                        "exit_code": code})
    return records


def _run_operators(inputs: dict) -> list[dict]:
    from horocp import (ActionSpec, CrossedElement, GroupSpec, LengthFunction,
                        cauchy_gap_norm, even_dirac, lipschitz_seminorm, truncate)
    from horocp.checks import check_commutator_identity

    records = []
    for key, group in (("z2", GroupSpec.free_abelian(2)), ("h3", GroupSpec.heisenberg3())):
        data = inputs[key]
        spec = LengthFunction.word(group)
        x = CrossedElement.from_dict(group, {tuple(g): [[c]] for g, c in
                                             zip(data["support"], data["coeffs"])})
        a, b = (np.exp(2j * np.pi * p) for p in data["phases"])
        gens = {s: [[a ** s[0] * b ** s[1]]] for s in group.generators}
        action = ActionSpec(group, gens)
        r_small, r_large, r_comm = data["radii"]
        _attempt(records, f"{key}.cauchy_gap_norm", "bound",
                 lambda: cauchy_gap_norm(x, spec, action, r_small, r_large),
                 group=key, radii=[r_small, r_large])
        _attempt(records, f"{key}.commutator_identity", "check",
                 lambda: check_commutator_identity(x, spec, action, radius=r_comm).passed,
                 group=key)
        hilbert = truncate(spec, r_comm, 1)
        _attempt(records, f"{key}.ball_size", "exact", lambda: hilbert.n_ball, group=key)
        _attempt(records, f"{key}.lipschitz_seminorm", "bound",
                 lambda: lipschitz_seminorm(x, even_dirac(hilbert, [[1]]), action),
                 group=key, radius=r_comm)
    return records


def _run_exact(inputs: dict) -> list[dict]:
    from horocp import (GroupSpec, LengthFunction, RaySpec, asymptotic_length,
                        busemann_along_ray, central_heisenberg_table, check_ray_geodesic,
                        cocycle_defect, facets, hexagonal_generators, phi,
                        separation_certificate, stable_norm_dual)

    spec = inputs["spec"]
    records = []
    h3 = GroupSpec.heisenberg3()
    len_h3 = LengthFunction.word(h3)
    _attempt(records, "h3.ball", "exact", lambda: len(len_h3.ball(spec["h3_ball"])),
             radius=spec["h3_ball"])
    small = len_h3.ball(spec["phi_radius"])
    for g in inputs["phi_elements"]:
        _attempt(records, "h3.phi", "exact",
                 lambda g=g: [int(v) for v in phi(g, small, len_h3).values.values()],
                 g=g)
    for g, h in inputs["pairs"]:
        _attempt(records, "h3.cocycle_defect", "exact",
                 lambda g=g, h=h: cocycle_defect(g, h, small, len_h3), pair=[g, h])
    for word, target in zip(inputs["words"], inputs["ray_targets"]):
        ray = RaySpec.word_repetition(h3, word, spec["ray_repeats"])
        _attempt(records, "h3.busemann", "exact",
                 lambda ray=ray, target=target: list(busemann_along_ray(ray, target, len_h3).evaluations),
                 word=word, g=target)
        _attempt(records, "h3.ray_geodesic", "exact",
                 lambda ray=ray: check_ray_geodesic(ray, len_h3).max_defect, word=word)

    z2 = GroupSpec.free_abelian(2)
    hexagonal = LengthFunction.word(z2, hexagonal_generators())
    for g in inputs["directions"]:
        _attempt(records, "z2hex.asymptotic_length", "exact",
                 lambda g=g: list(asymptotic_length(g, hexagonal, spec["hex_horizon"]).ratios),
                 g=g)

    z3 = GroupSpec.free_abelian(3)
    for extra, points in zip(inputs["z3_sets"], inputs["dual_points"]):
        gens = list(z3.generators)
        for v in extra:
            gens += [v, tuple(-c for c in v)]
        funs = _attempt(records, "z3.facets", "exact",
                        lambda gens=gens: facets(z3, gens), gens=gens)
        if funs is not None:
            records[-1]["value"] = sorted([str(c) for c in f.coefficients] for f in funs)
        _attempt(records, "z3.separation", "exact",
                 lambda gens=gens: _cert(separation_certificate(z3, LengthFunction.word(z3, gens))),
                 gens=gens)
        if funs is not None:
            _attempt(records, "z3.stable_norm_dual", "exact",
                     lambda funs=funs, points=points:
                     [str(stable_norm_dual(tuple(int(c) for c in p), funs)) for p in points],
                     gens=gens, points=points)

    z1 = GroupSpec.free_abelian(1)
    horizon = spec["central_horizon"]
    _attempt(records, "z.central_separation", "exact",
             lambda: _cert(separation_certificate(
                 z1, LengthFunction.explicit_table(z1, central_heisenberg_table(horizon)))),
             horizon=horizon)
    return records


def _cert(cert) -> dict:
    out = {"separated": cert.separated, "rank": cert.rank, "witness": cert.witness_kind}
    if cert.sublinearity is not None:
        out["ratio_at_horizon"] = cert.sublinearity.ratio_at_horizon
    return out


def _run_triples(inputs: dict) -> list[dict]:
    from horocp import StateSpec, af_level_triple, mk_distance
    from horocp.checks import check_af_triple

    spec = inputs["spec"]
    records = _cyclic_mk(spec, spec["cyclic"])
    levels = spec["af_level"]
    triple = af_level_triple(levels, inputs["level_eigenvalues"])
    i, j = inputs["level_states"]
    basis = np.eye(triple.dim)
    _attempt(records, "af_level.mk_distance", "bound",
             lambda: _mk(mk_distance(triple, StateSpec.vector_state(basis[i]),
                                     StateSpec.vector_state(basis[j]),
                                     restarts=spec["restarts"],
                                     iterations=spec["iterations"],
                                     seed=inputs["mk_seed"])),
             levels=levels, states=[i, j])
    _attempt(records, "af_triple.check", "check",
             lambda: check_af_triple(spec["af_orders"], inputs["af_eigenvalues"],
                                     seed=inputs["af_seed"]).passed)
    return records


def known_defects(name: str, inputs: dict) -> list[dict]:
    """The workload's known-defect cases, run once outside the timed region."""
    if name != "finite_triples":
        return []
    return _cyclic_mk(inputs["spec"], inputs["spec"]["known_defects"])


def _cyclic_mk(spec: dict, cases) -> list[dict]:
    from horocp import StateSpec, cyclic_triple, mk_distance

    records = []
    for order, lengths, characters in cases:
        triple = cyclic_triple(order, lengths)
        for j in characters:
            _attempt(records, f"c{order}.mk_distance", "bound",
                     lambda: _mk(mk_distance(triple, StateSpec.character(order, 0),
                                             StateSpec.character(order, j),
                                             restarts=spec["restarts"],
                                             iterations=spec["iterations"])),
                     order=order, lengths=lengths, states=[0, j])
    return records


def _mk(result) -> dict:
    return {"lower_bound": result.lower_bound, "converged": result.converged,
            "witness": result.witness, "iterations": result.iterations}


_RUNNERS = {
    "verify_suite": _run_verify,
    "operator_large": _run_operators,
    "exact_geometry": _run_exact,
    "finite_triples": _run_triples,
}
