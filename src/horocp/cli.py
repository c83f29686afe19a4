"""Command-line front end.

Every run writes one JSON document {"command", "inputs", "result",
"diagnostics"} to stdout (or a file), with map keys sorted and floats
rendered at 17 significant digits, so identical invocations are
byte-identical.  Progress and a human summary go to stderr.  Exit codes:
0 success / all checks passed, 1 at least one check failed, 2 usage error or
resource cap.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from fractions import Fraction

import numpy as np

from . import __version__
from .checks import (
    CHECK_FAMILIES,
    CheckParams,
    check_af_triple,
    check_nctorus_equicontinuity,
    default_suite,
    run_family,
)
from .groups import (
    BallCapError,
    DEFAULT_BALL_CAP,
    GroupSpec,
    LengthFunction,
    NormSpec,
    central_heisenberg_table,
    hexagonal_generators,
)
from .horoboundary import (
    DegeneratePolytopeError,
    RaySpec,
    busemann_along_ray,
    check_ray_geodesic,
    facets,
    phi,
)
from .quantum_metric import StateSpec, cyclic_triple, mk_brute_force, mk_distance
from .separation import separation_certificate
from .stable_norm import asymptotic_length, stable_norm_dual

CAP_ENV = "HOROCP_CAP"


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Deterministic JSON.


def render_json(obj) -> str:
    def emit(o) -> str:
        if isinstance(o, dict):
            keys = sorted(o, key=str)
            return "{" + ",".join(json.dumps(str(k)) + ":" + emit(o[k]) for k in keys) + "}"
        if isinstance(o, (list, tuple)):
            return "[" + ",".join(emit(v) for v in o) + "]"
        if isinstance(o, bool) or isinstance(o, np.bool_):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            v = float(o)
            if math.isnan(v):
                raise ValueError("refusing to serialize NaN")
            if math.isinf(v):
                return json.dumps("inf" if v > 0 else "-inf")
            return format(v, ".17g")
        if isinstance(o, Fraction):
            return json.dumps(str(o))
        if isinstance(o, complex):
            return emit({"re": o.real, "im": o.imag})
        if o is None:
            return "null"
        return json.dumps(str(o))

    return emit(obj)


# ---------------------------------------------------------------------------
# Flag parsing helpers.


def parse_group(name: str) -> GroupSpec:
    token = name.strip()
    lowered = token.lower()
    if lowered == "h3":
        return GroupSpec.heisenberg3()
    if lowered.startswith("c") and lowered[1:].isdigit():
        return GroupSpec.finite_cyclic(int(lowered[1:]))
    if "xc" in lowered and lowered.startswith("z"):
        free, _, torsion = lowered.partition("xc")
        rank = int(free[1:]) if free[1:] else 1
        return GroupSpec.free_abelian_times_cyclic(rank, int(torsion))
    if lowered.startswith("z"):
        rest = lowered[1:].lstrip("^")
        rank = int(rest) if rest else 1
        return GroupSpec.free_abelian(rank)
    raise UsageError(f"unknown group {name!r} (try Z, Z2, Z3, H3, C6, Z2xC3)")


def parse_generators(group: GroupSpec, text: str | None):
    if text is None or text == "standard" or text == "diamond":
        return None
    if text == "hexagonal":
        if not group.is_free_abelian or group.rank != 2:
            raise UsageError("hexagonal generators are defined on Z2")
        return hexagonal_generators()
    gens = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        g = tuple(int(c) for c in chunk.split(","))
        gens.append(g)
        gens.append(group.inverse(g))
    return tuple(dict.fromkeys(gens))


def parse_element(group: GroupSpec, text: str):
    letters = {"a": (1, 0, 0), "A": (-1, 0, 0), "b": (0, 1, 0), "B": (0, -1, 0),
               "c": (0, 0, 1), "C": (0, 0, -1)}
    if group.is_heisenberg and text in letters:
        return letters[text]
    g = tuple(int(c) for c in text.split(","))
    group.validate(g)
    return g


def parse_fractions(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(c.strip()) for c in text.split(","))


def load_table(path: str) -> dict:
    table = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            coords, _, value = line.rpartition(":")
            g = tuple(int(c) for c in coords.split(","))
            table[g] = float(value) if "." in value else int(value)
    return table


def build_length(group: GroupSpec, args) -> LengthFunction:
    if args.table:
        if args.table.startswith("central:"):
            horizon = int(args.table.split(":", 1)[1])
            if not group.is_free_abelian or group.rank != 1:
                raise UsageError("the central-length table lives on Z")
            return LengthFunction.explicit_table(group, central_heisenberg_table(horizon))
        raise UsageError(f"unknown table {args.table!r} (try central:<horizon>)")
    if args.table_file:
        return LengthFunction.explicit_table(group, load_table(args.table_file))
    if args.norm:
        spec = {"l1": NormSpec.l1(), "l2": NormSpec.l2(), "linf": NormSpec.linf()}.get(args.norm)
        if spec is None:
            raise UsageError(f"unknown norm {args.norm!r}")
        return LengthFunction.norm_restriction(group, spec, cap=args.cap)
    gens = parse_generators(group, args.gens)
    return LengthFunction.word(group, gens, cap=args.cap)


def apply_config(parser: argparse.ArgumentParser, argv) -> None:
    """KEY=VALUE fallbacks, installed as the subcommand's flag defaults before
    parsing: a config file can supply a required flag, each value goes through
    its flag's own type, and any flag given on the command line wins."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    command = parser.commands.get(argv[0]) if argv else None
    if not path or command is None:
        return
    flags = {a.dest: a for a in command._actions if a.option_strings and a.dest != "help"}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        command.error(f"cannot read config file: {exc}")
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            command.error(f"config line {line!r} is not KEY=VALUE")
        key, _, value = line.partition("=")
        action = flags.get(key.strip().replace("-", "_"))
        if action is None:
            command.error(f"config key {key.strip()!r} matches no flag")
        value = value.strip()
        if action.nargs == 0:  # a switch such as --brute-force
            value = value.lower() in ("1", "true", "yes")
        # argparse converts a string default with the flag's type
        action.default, action.required = value, False


def _cap(text: str) -> int:
    """--cap's type; a bad value is a usage error that names HOROCP_CAP,
    --cap's default when it is set."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r} (the default comes from {CAP_ENV} when set)") from None


def _at_least(low: int):
    """An int flag type refusing values below low: a --count or --pairs of 0
    would pass without checking anything, and a negative --sample would
    slice from the end."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


# ---------------------------------------------------------------------------
# Subcommand implementations; each returns (result, diagnostics, exit_code).


def cmd_group_ball(args):
    group = parse_group(args.group)
    spec = build_length(group, args)
    ball = spec.ball(args.radius)
    sample = [[list(map(int, g)), _num(ball.values[g])] for g in ball.elements[: args.sample]]
    result = {
        "size": len(ball),
        "radius": args.radius,
        "complete_group": ball.complete_group,
        "first_elements": sample,
    }
    return result, {"cap": spec.cap}, 0


def cmd_phi(args):
    group = parse_group(args.group)
    spec = build_length(group, args)
    g = parse_element(group, args.g)
    ball = spec.ball(args.radius)
    values = phi(g, ball)
    result = {
        "g": list(map(int, g)),
        "values": [[list(map(int, h)), _num(values(h))] for h in ball.elements],
        "max_abs": values.max_abs(),
        "length_g": _num(spec.length(g)),
    }
    return result, {"ball_size": len(ball)}, 0


def cmd_facets(args):
    group = parse_group(args.group)
    gens = parse_generators(group, args.gens)
    funs = facets(group, gens)
    result = {
        "count": len(funs),
        "functionals": [
            {
                "coefficients": [str(c) for c in f.coefficients],
                "facet_points": [[str(c) for c in p] for p in f.facet],
            }
            for f in funs
        ],
    }
    return result, {}, 0


def cmd_busemann(args):
    group = parse_group(args.group)
    spec = build_length(group, args)
    g = parse_element(group, args.g)
    if args.word:
        letters = [parse_element(group, w.strip()) for w in args.word.split(",")]
        ray = RaySpec.word_repetition(group, letters, args.steps)
    elif args.direction:
        ray = RaySpec.lattice_direction(group, parse_fractions(args.direction), args.steps)
    else:
        raise UsageError("busemann needs --direction or --word")
    estimate = busemann_along_ray(ray, g, spec)
    geo = check_ray_geodesic(ray, spec)
    result = {
        "value": estimate.value,
        "tail_variation": estimate.tail_variation,
        "geodesic_defect": geo.max_defect,
        "schedule_points": len(ray.schedule) - 1,
    }
    return result, {"evaluations": list(estimate.evaluations)}, 0


def cmd_stable_norm(args):
    group = parse_group(args.group)
    spec = build_length(group, args)
    point = parse_element(group, args.point)
    fekete = asymptotic_length(point, spec, args.horizon)
    result = {
        "point": list(map(int, point)),
        "fekete_value": fekete.value,
        "fekete_gap": fekete.fekete_gap,
        "horizon": fekete.horizon,
    }
    if spec.kind == LengthFunction.WORD and group.abelianization_rank >= 1:
        funs = facets(group, spec.generators)
        dual = stable_norm_dual(group.abelianization(point), funs)
        result["dual_norm"] = str(dual)
        result["agreement_gap"] = abs(fekete.value - float(dual))
    return result, {}, 0


def cmd_separate(args):
    group = parse_group(args.group)
    spec = build_length(group, args)
    cert = separation_certificate(group, spec)
    result = {
        "separated": cert.separated,
        "rank": cert.rank,
        "witness_kind": cert.witness_kind,
        "functionals": [[str(c) for c in f.coefficients] for f in cert.functionals],
        "basis_indices": list(cert.basis_indices),
    }
    if cert.sublinearity is not None:
        rep = cert.sublinearity
        result["sublinearity"] = {
            "g": list(map(int, rep.g)),
            "ratio_at_horizon": rep.ratio_at_horizon,
            "horizon": rep.horizon,
            "decay_exponent": rep.decay_exponent,
            "message": rep.message,
        }
    return result, {}, 0


def cmd_nctorus(args):
    group = GroupSpec.free_abelian(1)
    spec = LengthFunction.word(group, cap=args.cap)
    report = check_nctorus_equicontinuity(
        args.p, args.q, spec, n_range=range(args.n_min, args.n_max + 1), radius=args.radius
    )
    return {"checks": [report.to_dict()]}, {}, 0 if report.passed else 1


def cmd_af_triple(args):
    orders = [int(c) for c in args.orders.split(",")]
    eigenvalues = [float(c) for c in args.eigenvalues.split(",")]
    report = check_af_triple(orders, eigenvalues, seed=args.seed)
    return {"checks": [report.to_dict()]}, {}, 0 if report.passed else 1


def _parse_state(order: int, text: str) -> StateSpec:
    kind, _, rest = text.partition(":")
    if kind == "char":
        return StateSpec.character(order, int(rest))
    if kind == "vector":
        vec = np.array([complex(v) for v in rest.split(",")])
        if len(vec) != order:
            raise UsageError(f"vector state {text!r} needs {order} entries")
        norm = np.linalg.norm(vec)
        if not 0.0 < norm < math.inf:
            raise UsageError(f"vector state {text!r} needs a nonzero finite vector")
        return StateSpec.vector_state(vec / norm)
    raise UsageError(f"unknown state {text!r} (try char:<j> or vector:<v1,...>)")


def cmd_mk_distance(args):
    order = args.cyclic_order
    lengths = [float(c) for c in args.lengths.split(",")]
    triple = cyclic_triple(order, lengths)
    psi = _parse_state(order, args.state_a)
    psi_prime = _parse_state(order, args.state_b)
    result_obj = mk_distance(triple, psi, psi_prime, restarts=args.restarts,
                             iterations=args.iters, seed=args.seed)
    result = {
        "lower_bound": result_obj.lower_bound,
        "converged": result_obj.converged,
        "witness_seminorm": result_obj.witness_seminorm,
        "states": [args.state_a, args.state_b],
    }
    if args.brute_force:
        result["brute_force"] = mk_brute_force(triple, psi, psi_prime)
    return result, {"iterations": result_obj.iterations}, 0


CHECK_NAMES = ("all",) + tuple(CHECK_FAMILIES)


def cmd_verify(args):
    if args.check == "all":
        reports = default_suite(seed=args.seed)
    else:
        group = CHECK_FAMILIES[args.check].group or parse_group(args.group)
        params = CheckParams(**{f.name: getattr(args, f.name) for f in fields(CheckParams)})
        reports = run_family(args.check, args.seed, [((build_length(group, args),), params)])
    failures = [r.name for r in reports if not r.passed]
    for r in reports:
        marker = "pass" if r.passed else "FAIL"
        print(f"[{marker}] {r.name}", file=sys.stderr)
    result = {
        "checks": [r.to_dict() for r in reports],
        "passed": not failures,
        "failures": failures,
    }
    return result, {"count": len(reports)}, 0 if not failures else 1


# ---------------------------------------------------------------------------
# Parser.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horocp",
        description="Word metrics, horofunction data, stable norms, separation "
                    "certificates, and truncated crossed-product operator checks.",
    )
    parser.add_argument("--version", action="version", version=f"horocp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    # Each subcommand takes only the flags it reads, and any other is a usage
    # error.  --seed and --cap are taken everywhere, read or not, because
    # every command's "inputs" prints them.
    def common(p):
        p.add_argument("--seed", type=int, default=0)
        # argparse converts a string default, HOROCP_CAP's included, with the type
        p.add_argument("--cap", type=_cap, default=os.environ.get(CAP_ENV, DEFAULT_BALL_CAP))
        p.add_argument("--config", default=None, help="KEY=VALUE fallback file")
        p.add_argument("--output", default=None, help="write JSON here instead of stdout")

    def group_flags(p, group_default):
        common(p)
        p.add_argument("--group", default=group_default)
        p.add_argument("--gens", default=None,
                       help="standard | diamond | hexagonal | '1,0;0,1;...'")

    def length_flags(p, group_default):
        group_flags(p, group_default)
        p.add_argument("--norm", default=None, help="l1 | l2 | linf")
        p.add_argument("--table", default=None, help="central:<horizon>")
        p.add_argument("--table-file", dest="table_file", default=None)

    p = sub.add_parser("group-ball", help="enumerate a metric ball")
    length_flags(p, "Z2")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--sample", type=_at_least(0), default=12)
    p.set_defaults(fn=cmd_group_ball)

    p = sub.add_parser("phi", help="horofunction values phi_g on a ball")
    length_flags(p, "Z")
    p.add_argument("--g", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.set_defaults(fn=cmd_phi)

    p = sub.add_parser("facets", help="exact facet functionals of conv(p(S))")
    group_flags(p, "Z2")
    p.set_defaults(fn=cmd_facets)

    p = sub.add_parser("busemann", help="phi_g along a ray")
    length_flags(p, "Z")
    p.add_argument("--g", required=True)
    p.add_argument("--direction", default=None, help="rational vector, e.g. 1/2,1/2")
    p.add_argument("--word", default=None, help="comma-separated letters, e.g. a,b")
    p.add_argument("--steps", type=int, default=24)
    p.set_defaults(fn=cmd_busemann)

    p = sub.add_parser("stable-norm", help="Fekete value and exact dual polytope norm")
    length_flags(p, "Z2")
    p.add_argument("--point", required=True)
    p.add_argument("--horizon", type=int, default=40)
    p.set_defaults(fn=cmd_stable_norm)

    p = sub.add_parser("separate", help="separatedness certificate")
    length_flags(p, "Z2")
    p.set_defaults(fn=cmd_separate)

    p = sub.add_parser("verify", help="run a named check or the whole suite")
    p.add_argument("check", choices=CHECK_NAMES)
    length_flags(p, "Z2")
    defaults = CheckParams()
    p.add_argument("--radius", type=float, default=defaults.radius)
    p.add_argument("--pairs", type=_at_least(1), default=defaults.pairs)
    p.add_argument("--pair-radius", dest="pair_radius", type=float, default=defaults.pair_radius)
    p.add_argument("--count", type=_at_least(1), default=defaults.count)
    p.add_argument("--support-radius", dest="support_radius", type=float,
                   default=defaults.support_radius)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("nctorus", help="clock-shift relation and equicontinuity bound")
    common(p)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-min", dest="n_min", type=int, default=-50)
    p.add_argument("--n-max", dest="n_max", type=int, default=50)
    p.add_argument("--radius", type=float, default=20.0)
    p.set_defaults(fn=cmd_nctorus)

    p = sub.add_parser("af-triple", help="odometer filtration checks")
    common(p)
    p.add_argument("--orders", default="2,2,2,2,2")
    p.add_argument("--eigenvalues", default="0,1,2,3,4,5")
    p.set_defaults(fn=cmd_af_triple)

    p = sub.add_parser("mk-distance", help="state distance on a finite cyclic triple")
    common(p)
    p.add_argument("--cyclic-order", dest="cyclic_order", type=int, required=True)
    p.add_argument("--lengths", required=True)
    p.add_argument("--state-a", dest="state_a", required=True)
    p.add_argument("--state-b", dest="state_b", required=True)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--brute-force", dest="brute_force", action="store_true")
    p.set_defaults(fn=cmd_mk_distance)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        apply_config(parser, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        result, diagnostics, code = args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BallCapError as exc:
        document = {
            "command": args.command,
            "inputs": _inputs_dict(args),
            "result": None,
            "diagnostics": {"cap": str(exc)},
        }
        _write(document, args.output)
        print(f"resource cap: {exc}", file=sys.stderr)
        return 2
    except (DegeneratePolytopeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    document = {
        "command": args.command,
        "inputs": _inputs_dict(args),
        "result": result,
        "diagnostics": diagnostics,
    }
    _write(document, args.output)
    return code


def _inputs_dict(args) -> dict:
    skip = {"fn", "output", "config"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        out[key] = value
    return out


def _num(value):
    if isinstance(value, Fraction):
        return float(value)
    return value


def _write(document, output):
    text = render_json(document) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
