"""Acceptance gate: every advertised guarantee, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print; without -s they still appear in captured output on failure.
Each criterion checks a solver guarantee at desk scale against exact
oracles or frozen constants, within a stated runtime budget.
"""

import math
import random
import time
from dataclasses import replace
from functools import lru_cache

from geoburn.burn2d import (
    anywhere_burning,
    k_burning_nonuniform,
    max_burn_schedule,
    point_burning,
    point_burning_nonuniform,
)
from geoburn.core import (
    ANYWHERE,
    POINT,
    Instance,
    Model,
    is_burned,
    validate_schedule,
)
from geoburn.cover import (
    FIVE_COVER_CENTERS,
    LATE_REACH_FRACTION,
    verify_template,
    zone_diameter_fraction,
)
from geoburn.hardness import (
    assignment_to_schedule,
    brute_force_burnable,
    build_reduction,
    check_separation,
    random_lsat,
    sat_brute_force,
    schedule_to_assignment,
)
from geoburn.ioformats import generate
from geoburn.oracle import exact_burning_number, exact_max_burn
from geoburn.ptas1d import ptas_burning_line


def _emit(ok, label, detail):
    line = f"{label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _random_line(rng, n, span=30.0):
    return Instance.line(sorted(rng.uniform(0.0, span) for _ in range(n)))


def _random_planar(rng, n, span=20.0, rate_pool=(1.0,)):
    coords = [(rng.uniform(0.0, span), rng.uniform(0.0, span)) for _ in range(n)]
    rates = [rng.choice(rate_pool) for _ in range(n)]
    return Instance.planar(coords, rates=rates)


def _burned_subset_valid(inst, count, sched):
    """Max-burn validity: clean structure, then full validity on the
    instance restricted to what the schedule reports as burned."""
    report = validate_schedule(inst, sched)
    if report.violations:
        return False
    burned = [i for i, p in enumerate(inst.points) if is_burned(p, sched)]
    if len(burned) != count:
        return False
    if sorted(report.unburned) != [i for i in range(inst.n) if i not in set(burned)]:
        return False
    sub = Instance(
        points=tuple(inst.points[i] for i in burned),
        rates=tuple(inst.rates[i] for i in burned),
    )
    return validate_schedule(sub, sched).valid


def test_criterion_1_universal_validity():
    start = time.monotonic()
    rng = random.Random(9101)
    checked = 0
    bad = []

    for trial in range(150):  # 1D PTAS, both models, three accuracies
        inst = _random_line(rng, rng.randint(1, 10))
        eps = (2.0, 1.0, 0.5)[trial % 3]
        model = Model(POINT if trial % 2 else ANYWHERE)
        _, sched, _ = ptas_burning_line(inst, model, eps)
        checked += 1
        if not validate_schedule(inst, sched).valid:
            bad.append(("ptas", trial))

    for trial in range(100):  # planar anywhere
        inst = _random_planar(rng, rng.randint(1, 12))
        _, sched, _ = anywhere_burning(inst, (2.0, 1.0, 0.5)[trial % 3])
        checked += 1
        if not validate_schedule(inst, sched).valid:
            bad.append(("anywhere", trial))

    for trial in range(100):  # planar point
        inst = _random_planar(rng, rng.randint(1, 12))
        _, sched, _ = point_burning(inst, (2.0, 1.0, 0.5)[trial % 3])
        checked += 1
        if not validate_schedule(inst, sched).valid:
            bad.append(("point", trial))

    for trial in range(50):  # non-uniform, one ignition per step
        inst = _random_planar(rng, rng.randint(1, 10), rate_pool=(1.0, 2.0, 3.0))
        _, sched, _ = point_burning_nonuniform(inst, 1.0)
        checked += 1
        if not validate_schedule(inst, sched).valid:
            bad.append(("nonuniform", trial))

    for trial in range(50):  # non-uniform, k ignitions per step
        inst = _random_planar(rng, rng.randint(1, 10), rate_pool=(1.0, 2.0, 3.0))
        k = rng.randint(2, 3)
        _, sched, _ = k_burning_nonuniform(inst, k, 1.0)
        checked += 1
        if not validate_schedule(inst, sched).valid:
            bad.append(("k-burning", trial))

    for trial in range(50):  # budgeted max-burn
        inst = _random_planar(rng, rng.randint(2, 10), span=8.0)
        srcs = tuple(sorted(rng.sample(range(inst.n), rng.randint(1, min(4, inst.n)))))
        inst = replace(inst, sources=srcs)
        count, sched = max_burn_schedule(inst, rng.randint(1, 4))
        checked += 1
        if not _burned_subset_valid(inst, count, sched):
            bad.append(("maxburn", trial))

    sat_done = 0
    draws = 0
    while sat_done < 50 and draws < 500:  # satisfying-assignment schedules
        draws += 1
        formula = random_lsat(rng, rng.randint(2, 4))
        assignment = sat_brute_force(formula)
        if assignment is None:
            continue
        inst, layout = build_reduction(formula)
        sched = assignment_to_schedule(layout, assignment)
        checked += 1
        sat_done += 1
        if not validate_schedule(inst, sched).valid:
            bad.append(("reduction", sat_done))

    elapsed = time.monotonic() - start
    ok = not bad and checked >= 500 and elapsed < 300
    _emit(ok, "criterion 1 universal validity",
          f"{checked} schedules, {len(bad)} invalid, {elapsed:.1f}s")


def test_criterion_2_line_ptas_ratio():
    rng = random.Random(9102)
    worst = -math.inf
    violations = 0
    runs = 0
    for eps in (2.0, 1.0, 0.5):
        for _ in range(50):
            inst = _random_line(rng, rng.randint(1, 10))
            delta, _ = exact_burning_number(inst, Model(POINT))
            horizon, sched, trace = ptas_burning_line(inst, Model(POINT), eps)
            runs += 1
            assert validate_schedule(inst, sched).valid
            ratio = horizon / delta
            worst = max(worst, ratio - (1.0 + eps + 1.0 / delta))
            if ratio > 1.0 + eps + 1.0 / delta + 1e-9:
                violations += 1
            for entry in trace.entries:
                if not entry.accepted and entry.delta >= delta:
                    violations += 1
    ok = violations == 0
    _emit(ok, "criterion 2 line ratio and guess soundness",
          f"{runs} runs, {violations} violations, worst slack {worst:.3g}")


def test_criterion_3_planar_ratios_strict():
    rng = random.Random(9103)
    eps = 0.5
    violations = 0
    runs = 0
    constants_seen = {"anywhere": None, "point": None}
    for _ in range(100):
        inst = _random_planar(rng, rng.randint(2, 8))
        d_any, _ = exact_burning_number(inst, Model(ANYWHERE))
        h_any, s_any, t_any = anywhere_burning(inst, eps, strict_oracle=True)
        assert validate_schedule(inst, s_any).valid
        if h_any > math.ceil(1.92188 * (1 + eps) * d_any) + 2:
            violations += 1
        constants_seen["anywhere"] = t_any.constants

        d_pt, _ = exact_burning_number(inst, Model(POINT))
        h_pt, s_pt, t_pt = point_burning(inst, eps, strict_oracle=True)
        assert validate_schedule(inst, s_pt).valid
        if h_pt > math.ceil((53.0 / 27.0) * (1 + eps) * d_pt) + 2:
            violations += 1
        constants_seen["point"] = t_pt.constants
        runs += 2

    anywhere_c = constants_seen["anywhere"]
    point_c = constants_seen["point"]
    frozen = (
        anywhere_c["phase1_fraction"] == 0.92188
        and anywhere_c["phase2_fraction"] == 0.07812
        and anywhere_c["template_fraction"] == 0.6094
        and anywhere_c["phase2_budget_fraction"] == 0.3906
        and point_c["annulus_inner_fraction"] == 26.0 / 27.0
        and point_c["late_reach_fraction"] == 13.0 / 27.0
    )
    ok = violations == 0 and frozen
    _emit(ok, "criterion 3 planar ratios with strict cover oracle",
          f"{runs} runs, {violations} bound violations, constants frozen {frozen}")


def test_criterion_3_planar_ratios_at_scale():
    # the non-strict pipelines against exact delta* on density-scaled
    # squares (side 10 sqrt(n / 20)), with criterion 3's bounds
    eps = 0.5
    t0 = time.perf_counter()
    violations = 0
    ratios = []
    for n in (20, 24, 28):
        for seed in (0, 1):
            inst = generate("uniform-square", n, seed, span=10.0 * math.sqrt(n / 20.0))
            d_any, s_exact = exact_burning_number(inst, Model(ANYWHERE))
            h_any, s_any, _ = anywhere_burning(inst, eps)
            assert validate_schedule(inst, s_exact).valid
            assert validate_schedule(inst, s_any).valid
            if h_any > math.ceil(1.92188 * (1 + eps) * d_any) + 2:
                violations += 1
            ratios.append(h_any / d_any)
            if n == 20:
                d_pt, s_exact = exact_burning_number(inst, Model(POINT))
                h_pt, s_pt, _ = point_burning(inst, eps)
                assert validate_schedule(inst, s_exact).valid
                assert validate_schedule(inst, s_pt).valid
                if h_pt > math.ceil((53.0 / 27.0) * (1 + eps) * d_pt) + 2:
                    violations += 1
                ratios.append(h_pt / d_pt)
    elapsed = time.perf_counter() - t0
    _emit(violations == 0, "criterion 3 planar ratios at n = 20-28",
          f"{len(ratios)} runs, {violations} bound violations, worst horizon / delta* "
          f"{max(ratios):.2f}, {elapsed:.1f} s")


def test_criterion_4_templates():
    certified = verify_template(FIVE_COVER_CENTERS, 0.6094, resolution=1e-3)
    zone = zone_diameter_fraction()
    trig_ok = abs(zone - 2.0 * math.sin(math.pi / 13.0)) <= 1e-6
    quoted_ok = abs(zone - 0.478631) <= 1e-6
    margin_ok = zone <= LATE_REACH_FRACTION - 1e-3
    ok = certified and trig_ok and quoted_ok and margin_ok
    _emit(ok, "criterion 4 covering templates",
          f"five-disk certified {certified}, zone diameter {zone:.6f}, "
          f"margin {LATE_REACH_FRACTION - zone:.6f}")


def test_criterion_5_nonuniform_bound_and_k1():
    rng = random.Random(9105)
    eps = 1.0
    violations = 0
    mismatches = 0
    runs = 0
    for _ in range(100):
        inst = _random_planar(rng, rng.randint(1, 8), rate_pool=(1.0, 2.0, 3.0))
        h = inst.rate_ratio()
        delta, _ = exact_burning_number(inst, Model(POINT))
        horizon, sched, trace = point_burning_nonuniform(inst, eps)
        runs += 1
        assert validate_schedule(inst, sched).valid
        if horizon > (1.0 + h + eps) * delta + 2 + 1e-9:
            violations += 1
        again = k_burning_nonuniform(inst, 1, eps)
        if again != (horizon, sched, trace):
            mismatches += 1
    ok = violations == 0 and mismatches == 0
    _emit(ok, "criterion 5 non-uniform bound and k=1 specialization",
          f"{runs} runs, {violations} bound violations, {mismatches} k=1 mismatches")


def test_criterion_6_max_burn_half_exact():
    start = time.monotonic()
    cells = 0
    violations = 0
    for n in range(2, 9):
        for seed in (0, 1, 2):
            inst = generate("uniform-square", n=n, seed=8600 + 10 * n + seed, span=5.0)
            for s_count in range(1, min(4, inst.n) + 1):
                srcs = tuple(sorted({(i * inst.n) // s_count for i in range(s_count)}))
                cand = replace(inst, sources=srcs)
                for q in (1, 2, 3):
                    exact = exact_max_burn(cand, q)
                    count, sched = max_burn_schedule(cand, q)
                    cells += 1
                    if 2 * count < exact or not _burned_subset_valid(cand, count, sched):
                        violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 120
    _emit(ok, "criterion 6 max-burn within half of exact",
          f"{cells} grid cells, {violations} violations, {elapsed:.1f}s")


@lru_cache(maxsize=1)
def _hardness_sweep():
    rng = random.Random(9107)
    results = []
    for _ in range(50):
        formula = random_lsat(rng, rng.randint(2, 4))
        inst, layout = build_reduction(formula)
        sched = brute_force_burnable(layout)
        results.append((formula, inst, layout, sched))
    return results


def test_criterion_7_reduction_iff():
    bad = []
    for idx, (formula, inst, layout, sched) in enumerate(_hardness_sweep()):
        n, m = formula.variable_count, len(formula.clauses)
        if inst.n != 4 * n + m or len(inst.sources) != 2 * n:
            bad.append((idx, "shape"))
        if check_separation(layout).min_slack <= 0:
            bad.append((idx, "separation"))
        satisfiable = sat_brute_force(formula) is not None
        if (sched is not None) != satisfiable:
            bad.append((idx, "iff"))
        if sched is not None:
            if not validate_schedule(inst, sched).valid:
                bad.append((idx, "schedule"))
            assignment = schedule_to_assignment(layout, sched)
            if not all(
                any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause)
                for clause in formula.clauses
            ):
                bad.append((idx, "assignment"))
    ok = not bad
    _emit(ok, "criterion 7 burnable iff satisfiable",
          f"{len(_hardness_sweep())} formulas, failures {bad if bad else 'none'}")


def test_criterion_8_literal_step_pairing():
    schedules = 0
    bad = []
    for idx, (formula, _inst, layout, sched) in enumerate(_hardness_sweep()):
        if sched is None:
            continue
        schedules += 1
        by_center = {}
        for src in sched.sources:
            by_center.setdefault(layout.points.index(src.center), set()).add(src.step)
        for var, label in layout.labels.items():
            steps = set()
            for lit in (var, -var):
                steps |= by_center.get(layout.literal_points[lit], set())
            if steps != {2 * label - 1, 2 * label}:
                bad.append((idx, var, sorted(steps)))
    ok = not bad and schedules > 0
    _emit(ok, "criterion 8 label-r literals ignite at steps 2r-1 and 2r",
          f"{schedules} schedules, failures {bad if bad else 'none'}")
