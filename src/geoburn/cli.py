"""Command-line front end.

Subcommands cover solving (approximation pipelines with guess traces),
exact oracles, schedule validation, budgeted max-burn, instance
generation, the satisfiability reduction tools, benchmark suites, and
template certification.

Exit codes: 0 success, 1 invalid input (unparseable files, bad
arguments), 2 infeasible or failed validation, 3 internal assertion.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .bench import SUITES, run_suite
from .burn2d import (
    anywhere_burning,
    k_burning_nonuniform,
    max_burn_schedule,
    point_burning,
)
from .core import ANYWHERE, POINT, GuessTrace, Model, validate_schedule
from .cover import (
    FIVE_COVER_CENTERS,
    FIVE_COVER_RADIUS,
    LATE_REACH_FRACTION,
    sample_covering_radius,
    verify_template,
    zone_diameter_fraction,
)
from .hardness import (
    PairingError,
    assignment_to_schedule,
    brute_force_burnable,
    build_reduction,
    check_separation,
    schedule_to_assignment,
    validate_lsat,
)
from .ioformats import (
    GENERATOR_KINDS,
    generate,
    parse_instance,
    parse_lsat,
    parse_schedule,
    write_instance,
    write_schedule,
)
from .oracle import CapacityError, InfeasibleError, exact_burning_number
from .ptas1d import ptas_burning_line

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # Bad arguments are invalid input, exit code 1 (argparse defaults to 2).
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _print_trace(trace: GuessTrace, horizon: int) -> None:
    for key in sorted(trace.constants):
        print(f"# constant {key} {format(float(trace.constants[key]), '.17g')}")
    for entry in trace.entries:
        word = "accepted" if entry.accepted else "rejected"
        print(
            f"# guess {entry.delta} measure {format(entry.measure, '.17g')} "
            f"threshold {format(entry.threshold, '.17g')} {word}"
        )
    print(f"# horizon {horizon}")


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.instance))
    if args.dim is not None and args.dim != inst.dimension:
        return _fail(f"--dim {args.dim} but the instance has dimension {inst.dimension}")
    uniform = inst.uniform_rates()
    if inst.dimension == 1 and args.k == 1 and uniform:
        horizon, sched, trace = ptas_burning_line(inst, Model(args.model), args.eps)
    elif args.model == ANYWHERE:
        if args.k != 1 or not uniform:
            return _fail("the anywhere solver needs k = 1 and uniform rates")
        horizon, sched, trace = anywhere_burning(
            inst, args.eps, strict_oracle=args.strict_oracle
        )
    elif args.k == 1 and uniform:
        horizon, sched, trace = point_burning(
            inst, args.eps, strict_oracle=args.strict_oracle
        )
    else:
        horizon, sched, trace = k_burning_nonuniform(
            inst, args.k, args.eps, strict_oracle=args.strict_oracle
        )
    _print_trace(trace, horizon)
    sys.stdout.write(write_schedule(sched))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.instance))
    delta, sched = exact_burning_number(
        inst, Model(args.model, args.k), max_steps=args.max_steps
    )
    print(f"# delta_star {delta}")
    sys.stdout.write(write_schedule(sched))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.instance))
    sched = parse_schedule(_read(args.schedule))
    report = validate_schedule(inst, sched)
    print(report.summary())
    return 0 if report.valid else 2


def _cmd_maxburn(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.instance))
    if args.sources is not None:
        idxs = tuple(
            dict.fromkeys(int(tok) for tok in args.sources.replace(",", " ").split())
        )
        inst = replace(inst, sources=idxs)
    if inst.sources is None:
        return _fail("the instance has no sources; pass --sources")
    count, sched = max_burn_schedule(inst, args.q)
    print(f"# burned {count} of {inst.n}")
    sys.stdout.write(write_schedule(sched))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    inst = generate(
        args.kind, args.n, args.seed, clusters=args.clusters, span=args.span
    )
    sys.stdout.write(write_instance(inst))
    return 0


def _cmd_hardness_build(args: argparse.Namespace) -> int:
    formula = parse_lsat(_read(args.formula))
    inst, lay = build_reduction(formula)
    sys.stdout.write(write_instance(inst))
    print(f"# variables {lay.n} clauses {lay.m}")
    for var in sorted(lay.labels):
        print(f"# label {var} {lay.labels[var]}")
    for lit in sorted(lay.literal_points, key=lambda l: (abs(l), l < 0)):
        print(f"# literal {lit} point {lay.literal_points[lit]} tail {lay.tail_points[lit]}")
    for ci, idx in enumerate(lay.clause_points):
        print(f"# clause {ci} point {idx}")
    return 0


def _cmd_hardness_check(args: argparse.Namespace) -> int:
    formula = parse_lsat(_read(args.formula))
    ok, message = validate_lsat(formula)
    print(f"formula: {message}")
    if not ok:
        return 2
    inst, lay = build_reduction(formula)
    report = check_separation(lay)
    print(f"points {inst.n} sources {len(inst.sources)}")
    print(f"separation min slack {format(report.min_slack, '.17g')}")
    return 0 if report.ok else 2


def _cmd_hardness_assign2sched(args: argparse.Namespace) -> int:
    formula = parse_lsat(_read(args.formula))
    bits = args.assign.replace(",", " ").split()
    if len(bits) != formula.variable_count or any(b not in ("0", "1") for b in bits):
        return _fail(f"--assign needs {formula.variable_count} bits of 0/1")
    assignment = [b == "1" for b in bits]
    _inst, lay = build_reduction(formula)
    sched = assignment_to_schedule(lay, assignment)
    print(f"# satisfies {'yes' if formula.satisfied_by(assignment) else 'no'}")
    sys.stdout.write(write_schedule(sched))
    return 0


def _cmd_hardness_sched2assign(args: argparse.Namespace) -> int:
    formula = parse_lsat(_read(args.formula))
    sched = parse_schedule(_read(args.schedule))
    _inst, lay = build_reduction(formula)
    try:
        assignment = schedule_to_assignment(lay, sched)
    except (PairingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("assignment " + " ".join("1" if b else "0" for b in assignment))
    return 0


def _cmd_hardness_bruteforce(args: argparse.Namespace) -> int:
    formula = parse_lsat(_read(args.formula))
    _inst, lay = build_reduction(formula)
    sched = brute_force_burnable(lay, args.horizon)
    horizon = args.horizon if args.horizon is not None else 2 * lay.n
    if sched is None:
        print(f"no valid schedule within {horizon} steps")
        return 2
    print(f"# burnable within {sched.total_steps} steps")
    sys.stdout.write(write_schedule(sched))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = run_suite(args.suite, args.trials, args.seed, args.eps)
    print("instance,baseline,achieved,ratio")
    for rid, baseline, achieved, ratio in rows:
        print(f"{rid},{baseline},{achieved},{ratio:.6f}")
    return 0


def _cmd_verify_templates(args: argparse.Namespace) -> int:
    certified = verify_template(
        FIVE_COVER_CENTERS, FIVE_COVER_RADIUS, resolution=args.resolution
    )
    sampled = sample_covering_radius(FIVE_COVER_CENTERS)
    zone = zone_diameter_fraction()
    margin = LATE_REACH_FRACTION - zone
    print(
        f"five-disk template radius {FIVE_COVER_RADIUS:g} certified "
        f"{'yes' if certified else 'NO'} (resolution {args.resolution:g})"
    )
    print(
        f"sampled covering radius {sampled:.8f} "
        f"slack {FIVE_COVER_RADIUS - sampled:.3g}"
    )
    print(
        f"zone diameter fraction {zone:.6f} budget {LATE_REACH_FRACTION:.6f} "
        f"margin {margin:.6f}"
    )
    return 0 if certified and margin >= 1e-3 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geoburn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="approximate a burning schedule with a guess trace")
    p.add_argument("instance")
    p.add_argument("--model", choices=(POINT, ANYWHERE), default=POINT)
    p.add_argument("--dim", type=int, choices=(1, 2), default=None,
                   help="assert the instance dimension")
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--k", type=int, default=1, help="ignitions per step (point model)")
    p.add_argument("--strict-oracle", action="store_true",
                   help="use exact covering subroutines inside the guess loop")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exact burning number by exhaustive search")
    p.add_argument("instance")
    p.add_argument("--model", choices=(POINT, ANYWHERE), default=POINT)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("validate", help="check a schedule against an instance")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("maxburn", help="greedily burn as many points as q steps allow")
    p.add_argument("instance")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--sources", default=None,
                   help="comma-separated point indices overriding the file's sources")
    p.set_defaults(func=_cmd_maxburn)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--kind", choices=GENERATOR_KINDS, required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clusters", type=int, default=3)
    p.add_argument("--span", type=float, default=10.0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("hardness", help="satisfiability-to-burning reduction tools")
    hsub = p.add_subparsers(dest="subcommand", required=True)
    h = hsub.add_parser("build", help="emit the reduction instance for a formula")
    h.add_argument("formula")
    h.set_defaults(func=_cmd_hardness_build)
    h = hsub.add_parser("check", help="validate a formula and its layout separation")
    h.add_argument("formula")
    h.set_defaults(func=_cmd_hardness_check)
    h = hsub.add_parser("assign2sched", help="turn an assignment into a schedule")
    h.add_argument("formula")
    h.add_argument("--assign", required=True, help="space or comma separated 0/1 bits")
    h.set_defaults(func=_cmd_hardness_assign2sched)
    h = hsub.add_parser("sched2assign", help="read an assignment back off a schedule")
    h.add_argument("formula")
    h.add_argument("schedule")
    h.set_defaults(func=_cmd_hardness_sched2assign)
    h = hsub.add_parser("bruteforce", help="exhaustively search for a valid schedule")
    h.add_argument("formula")
    h.add_argument("--horizon", type=int, default=None)
    h.set_defaults(func=_cmd_hardness_bruteforce)

    p = sub.add_parser("bench", help="run a benchmark suite, CSV to stdout")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1.0)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify-templates",
                       help="certify the five-disk template and the zone margin")
    p.add_argument("--resolution", type=float, default=1e-2)
    p.set_defaults(func=_cmd_verify_templates)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PairingError, InfeasibleError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # ParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
