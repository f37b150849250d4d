"""geoburn benchmark: solve time, set-up and horizon quality per workload.

    python3 perfbench/run.py --workload plane-cover --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; geoburn is imported from
``src``.  The command writes the workload's inputs as instance and
formula files, times set-up in fresh interpreters, then repeats the
workload's round of operations for about ``--seconds`` seconds (whole
rounds, at least one).  An operation is one public geoburn call plus
``validate_schedule`` on the schedule it returns.  Every output is
checked by the benchmark's own checker.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``; with
``--trace 1`` the per-layer metrics, from traced rounds that follow
untraced ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import checker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# fresh interpreters per run, before and after the rounds so that they
# meet different phases of the machine's speed; setup_s is their median
SETUP_SAMPLES = (4, 3)
TAIL_BEYOND = 10  # op_s.tail has this many operations above it
# pipelines whose burnt ignitions (and nothing else) count as failed
KNOWN_FAULT = ("k_burning_nonuniform", "point_burning")

# span (layer) of each public call; see spans.TIME_METRICS
CALL_LAYER = {
    "point_burning": "burn2d.self", "anywhere_burning": "burn2d.self",
    "k_burning_nonuniform": "burn2d.self", "max_burn_schedule": "burn2d.self",
    "ptas_burning_line": "ptas1d", "exact_burning_number": "oracle.burning",
    "exact_max_burn": "oracle.max_burn", "build_reduction": "hardness.build",
    "brute_force_burnable": "hardness.bruteforce",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# set-up: import geoburn, parse the workload's files, warm the template check


def import_geoburn():
    if not os.path.isfile(os.path.join(SRC, "geoburn", "__init__.py")):
        raise BenchError(f"no geoburn sources under {SRC}; run from a checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import geoburn.burn2d
    import geoburn.core
    import geoburn.cover
    import geoburn.hardness
    import geoburn.ioformats
    import geoburn.oracle
    import geoburn.ptas1d
    return geoburn


def setup(input_dir: str, tracer: spans.Tracer | None = None):
    """Import geoburn, parse every input file, warm the template check."""
    gb = import_geoburn()
    parsed = {}
    for fname in sorted(os.listdir(input_dir)):
        key, ext = os.path.splitext(fname)
        with open(os.path.join(input_dir, fname)) as fh:
            text = fh.read()
        parse = (gb.ioformats.parse_lsat if ext == ".lsat"
                 else gb.ioformats.parse_instance)
        if tracer is None:
            parsed[key] = parse(text)
        else:
            with tracer.span("ioformats.parse"):
                parsed[key] = parse(text)
    # the first planar anywhere solve would otherwise pay the lazy
    # five-disk template verification
    gb.cover.scaled_template(gb.core.Point(0.0, 0.0), 1.0)
    return gb, parsed


def setup_times(input_dir: str, samples: int) -> list[float]:
    """Set-up times of fresh interpreters."""
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", input_dir],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError("set-up probe failed:\n" + proc.stderr.strip())
        times.append(float(proc.stdout.split()[-1]))
    return times


def write_inputs(wl: workloads.Workload, input_dir: str) -> None:
    os.makedirs(input_dir)
    for key, text in wl.files.items():
        ext = ".lsat" if text.startswith("p lsat") else ".inst"
        with open(os.path.join(input_dir, key + ext), "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# operations


@dataclass
class Outcome:
    horizon: int | None = None
    schedule: object = None
    count: int | None = None  # max-burn: points burnt; exact_max_burn: best
    entries: tuple = ()  # guess trace as (delta, accepted) pairs
    instance: object = None  # what the schedule must burn
    layout: object = None
    report: object = None  # geoburn's own validation report
    error: str | None = None

    def key(self):
        return (self.horizon, self.schedule, self.count, self.entries, self.error)


def _entries(gtrace) -> tuple:
    return tuple((e.delta, e.accepted) for e in gtrace.entries)


def _call(gb, op: workloads.Op, inputs, state) -> Outcome:
    # the public call itself, without validation
    eps = workloads.EPSILON
    a = op.args
    if op.call == "build_reduction":
        inst, layout = gb.hardness.build_reduction(inputs[op.file])
        state[op.file] = (inst, layout)
        return Outcome(instance=inst, layout=layout)
    if op.call == "brute_force_burnable":
        inst, layout = state[op.file]
        sched = gb.hardness.brute_force_burnable(layout)
        return Outcome(None if sched is None else sched.total_steps, sched,
                       instance=inst, layout=layout)
    inst = inputs[op.file]
    strict = a.get("strict", False)
    if op.call == "point_burning":
        h, sched, gt = gb.burn2d.point_burning(inst, eps, strict_oracle=strict)
    elif op.call == "anywhere_burning":
        h, sched, gt = gb.burn2d.anywhere_burning(inst, eps, strict_oracle=strict)
    elif op.call == "k_burning_nonuniform":
        h, sched, gt = gb.burn2d.k_burning_nonuniform(inst, a["k"], eps,
                                                      strict_oracle=strict)
    elif op.call == "ptas_burning_line":
        h, sched, gt = gb.ptas1d.ptas_burning_line(inst, gb.core.Model(a["model"]), eps)
    elif op.call == "max_burn_schedule":
        count, sched = gb.burn2d.max_burn_schedule(inst, a["q"])
        return Outcome(schedule=sched, count=count, instance=inst)
    elif op.call == "exact_burning_number":
        h, sched = gb.oracle.exact_burning_number(
            inst, gb.core.Model(a["model"], a.get("k", 1)))
        return Outcome(h, sched, instance=inst)
    elif op.call == "exact_max_burn":
        return Outcome(count=gb.oracle.exact_max_burn(inst, a["q"]), instance=inst)
    else:
        raise ValueError(f"unknown call {op.call}")
    return Outcome(h, sched, entries=_entries(gt), instance=inst)


def run_op(gb, op, inputs, state, tracer: spans.Tracer | None = None) -> Outcome:
    """One operation: the public call, then validation of its schedule."""
    try:
        if tracer is None:
            out = _call(gb, op, inputs, state)
            if out.schedule is not None:
                out.report = gb.core.validate_schedule(out.instance, out.schedule)
        else:
            with tracer.span(CALL_LAYER[op.call]):
                out = _call(gb, op, inputs, state)
            if out.schedule is not None:
                with tracer.span("core.validate"):
                    out.report = gb.core.validate_schedule(out.instance, out.schedule)
    except Exception as exc:  # a failed operation, reported by the checker
        out = Outcome(error=f"{type(exc).__name__}: {exc}")
    return out


def run_rounds(gb, ops, inputs, budget_s: float, tracer=None):
    """Whole rounds until the next would end past the budget (at least one).

    Odd rounds run the groups of operations (see workloads.items) in
    reverse, so each operation meets other phases of the machine's speed.
    Returns one list per round of (seconds, Outcome) per operation, in
    the order of ``ops``.
    """
    groups = workloads.items(list(enumerate(ops)), key=lambda pair: pair[1].file)
    rounds = []
    state: dict = {}
    started = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        row = [None] * len(ops)
        for group in (reversed(groups) if len(rounds) % 2 else groups):
            for idx, op in group:
                if tracer is not None:
                    tracer.op = idx
                t0 = time.perf_counter()
                out = run_op(gb, op, inputs, state, tracer)
                row[idx] = (time.perf_counter() - t0, out)
        rounds.append(row)
        now = time.perf_counter()
        if now - started + (now - t_round) > budget_s:
            return rounds


# ---------------------------------------------------------------------------
# checking


@dataclass
class Verdicts:
    problems: dict[str, list[str]] = field(default_factory=dict)
    known: set[str] = field(default_factory=set)  # labels failing by KNOWN_FAULT
    ratios: list[float] = field(default_factory=list)  # horizon / reference


def ratio_bound(op: workloads.Op, delta_star: int, inst) -> float | None:
    """Largest horizon acceptance criteria 2, 3 and 5 allow, or None."""
    eps = workloads.EPSILON
    if op.call == "ptas_burning_line":
        return (1.0 + eps + 1.0 / delta_star) * delta_star + 1e-9
    if op.call == "anywhere_burning":
        return math.ceil(1.92188 * (1.0 + eps) * delta_star) + 2
    if op.call == "point_burning":
        return math.ceil((53.0 / 27.0) * (1.0 + eps) * delta_star) + 2
    if op.call == "k_burning_nonuniform":
        return (1.0 + inst.rate_ratio() + eps) * delta_star + 2 + 1e-9
    return None


def _check_horizon_op(op, out, by_label, lower_bounds, v: Verdicts) -> list[str]:
    inst = out.instance
    uses_anywhere = op.call == "anywhere_burning" or op.args.get("model") == "anywhere"
    k = op.args.get("k", 1)
    probs = checker.check_schedule(inst, out.schedule, horizon=out.horizon,
                                   tag="anywhere" if uses_anywhere else "point", k=k)
    if (op.file, k) not in lower_bounds:
        lower_bounds[op.file, k] = checker.packing_lower_bound(inst, k)
    lb = lower_bounds[op.file, k]
    if out.horizon < lb:
        probs.append(f"lower-bound: horizon {out.horizon} < packing bound {lb}")
    ref = lb
    if op.call == "exact_burning_number":
        ref = out.horizon
    elif op.ref is not None:
        ref = by_label[op.ref].horizon
        if out.horizon < ref:
            probs.append(f"below-exact: horizon {out.horizon} < exact {ref}")
        bound = ratio_bound(op, ref, inst)
        if bound is not None and out.horizon > bound:
            probs.append(f"ratio: horizon {out.horizon} > {bound:.4g} for exact {ref}")
        if op.call == "ptas_burning_line" and any(
                not accepted and d >= ref for d, accepted in out.entries):
            probs.append(f"guess: rejected a guess at or above the exact {ref}")
    v.ratios.append(out.horizon / ref)
    return probs


def check_round(ops, row, inputs) -> Verdicts:
    """Check one round's outputs with the benchmark's own rules."""
    v = Verdicts()
    by_label = {op.label: out for op, (_t, out) in zip(ops, row)}
    lower_bounds: dict[tuple, int] = {}
    for op, (_t, out) in zip(ops, row):
        if out.error is not None:
            v.problems[op.label] = [f"raised {out.error}"]
            continue
        probs: list[str] = []
        if op.call == "build_reduction":
            n, m = out.layout.n, out.layout.m
            if out.instance.n != 4 * n + m or len(out.layout.sources) != 2 * n:
                probs.append("layout: wrong point or source count")
        elif op.call == "brute_force_burnable":
            formula = inputs[op.file]
            sat = checker.sat_by_enumeration(formula.variable_count, formula.clauses)
            if (out.schedule is not None) != sat:
                probs.append(f"iff: burnable {out.schedule is not None}, "
                             f"satisfiable {sat}")
            if out.schedule is not None:
                probs += checker.check_schedule(
                    out.instance, out.schedule, horizon=2 * out.layout.n,
                    tag="point", allowed_sources=set(out.layout.sources))
        elif op.call == "max_burn_schedule":
            inst = out.instance
            probs += checker.check_schedule(
                inst, out.schedule, horizon=op.args["q"], tag="point",
                allowed_sources=set(inst.sources), cover_all=False)
            burnt = sum(checker.burned_mask(inst.points, out.schedule))
            if burnt != out.count:
                probs.append(f"count: schedule burns {burnt}, solver said {out.count}")
            if op.ref is not None and 2 * burnt < by_label[op.ref].count:
                probs.append(f"half: burns {burnt} of exact {by_label[op.ref].count}")
        elif op.call != "exact_max_burn":  # exact_max_burn is the greedy's reference
            probs = _check_horizon_op(op, out, by_label, lower_bounds, v)
        if probs:
            v.problems[op.label] = probs
            if op.call in KNOWN_FAULT and checker.only_burnt_ignitions(probs):
                v.known.add(op.label)
    return v


# ---------------------------------------------------------------------------
# metrics


def end_to_end(rounds, verdicts: Verdicts, setup_s: float) -> dict:
    # per operation, the median over rounds; then statistics over operations
    per_op = sorted(statistics.median(r[i][0] for r in rounds)
                    for i in range(len(rounds[0])))
    total_s = sum(t for r in rounds for t, _ in r)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_s.p50": {"value": statistics.median(per_op), "unit": "s"},
        "op_s.tail": {"value": per_op[-1 - TAIL_BEYOND], "unit": "s"},
        "ops_per_s": {"value": sum(len(r) for r in rounds) / total_s, "unit": "1/s"},
        "horizon_ratio.mean": {"value": statistics.fmean(verdicts.ratios),
                               "unit": "ratio"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def per_layer(ops, traced, tracer: spans.Tracer, plain, parse_s: float) -> dict:
    """Per-round layer times and counts from the traced rounds."""
    n = len(traced)
    self_s = tracer.self_times()
    out = {f"{name}_s": {"value": self_s.get(name, 0.0) / n, "unit": "s"}
           for name in spans.TIME_METRICS}
    out["ioformats.parse_s"]["value"] = parse_s
    counts = dict(tracer.counts)
    for row in traced:
        for op, (_t, res) in zip(ops, row):
            if res.report is not None:
                counts["core.burnt_ignitions"] += sum(
                    w.rule == "ignite-burnt-point" for w in res.report.warnings)
            module = CALL_LAYER[op.call].split(".")[0]  # burn2d or ptas1d
            if res.entries:
                counts[f"{module}.guesses"] += len(res.entries)
            if module == "burn2d":
                counts["burn2d.rejected"] += sum(not acc for _d, acc in res.entries)
    for name in spans.COUNT_METRICS:
        out[name] = {"value": counts[name] / n, "unit": "count"}
    plain_s = sum(t for r in plain for t, _ in r) / len(plain)
    traced_s = sum(t for r in traced for t, _ in r) / n
    out["trace.overhead_ratio"] = {"value": traced_s / plain_s, "unit": "ratio"}
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        t0 = time.perf_counter()
        setup(args.setup_probe)
        print(repr(time.perf_counter() - t0))
        return 0
    if args.workload is None:
        p.error("--workload is required")

    import_geoburn()  # fail before writing anything when the sources are missing
    wl = workloads.build(args.workload, args.seed)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    input_dir = os.path.join(OUT, f"inputs-{tag}-{os.getpid()}")
    write_inputs(wl, input_dir)
    try:
        result = measure(wl, input_dir, args.seconds, bool(args.trace),
                         os.path.join(OUT, f"trace-{tag}.json"))
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


def measure(wl, input_dir: str, seconds: float, traced: bool,
            trace_path: str) -> dict:
    """Run one workload and return the result object (also printed)."""
    if traced:
        parse_tracer = spans.Tracer()
        gb, inputs = setup(input_dir, parse_tracer)
        parse_s = parse_tracer.self_times()["ioformats.parse"]
        plain = run_rounds(gb, wl.ops, inputs, seconds / 2.0)
        tracer = spans.Tracer()
        with tracer.installed():
            traced_rounds = run_rounds(gb, wl.ops, inputs, seconds / 2.0, tracer)
        tracer.dump(trace_path)
        rounds = plain + traced_rounds
        verdicts = check_round(wl.ops, rounds[0], inputs)
        metrics = per_layer(wl.ops, traced_rounds, tracer, plain, parse_s)
    else:
        before, after = SETUP_SAMPLES
        samples = setup_times(input_dir, before)
        gb, inputs = setup(input_dir)
        rounds = run_rounds(gb, wl.ops, inputs, seconds)
        samples += setup_times(input_dir, after)
        verdicts = check_round(wl.ops, rounds[0], inputs)
        metrics = end_to_end(rounds, verdicts, statistics.median(samples))

    first = [out.key() for _t, out in rounds[0]]
    repeatable = all([out.key() for _t, out in r] == first for r in rounds[1:])
    unexpected = set(verdicts.problems) - verdicts.known
    for label, probs in sorted(verdicts.problems.items()):
        kind = "known fault" if label in verdicts.known else "WRONG"
        print(f"# {kind}: {label}: {'; '.join(probs)}")
    print(f"# {wl.name} seed {wl.seed}: {len(rounds)} rounds of {len(wl.ops)} operations"
          + ("" if repeatable else "; outputs differ between rounds"))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": not unexpected and repeatable,
        "attempted": sum(len(r) for r in rounds),
        "failed": len(verdicts.problems) * len(rounds),
        "metrics": metrics,
    }


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
