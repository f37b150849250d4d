"""Planar pipelines: validity sweeps, frozen runs, ratio checks."""

import math
import random

import pytest

from geoburn import burn2d, oracle
from geoburn.burn2d import (
    _drop_burnt_ignitions,
    anywhere_burning,
    k_burning_nonuniform,
    max_burn_schedule,
    point_burning,
    point_burning_nonuniform,
)
from geoburn.core import (
    ANYWHERE,
    POINT,
    BurnSchedule,
    BurnSource,
    GuessEntry,
    Instance,
    Model,
    Point,
    burn_masks,
    is_burned,
    validate_schedule,
)
from geoburn.cover import coverage_mask
from geoburn.ioformats import generate
from geoburn.oracle import exact_burning_number, exact_max_burn


def random_planar(rng, n, span=20.0, rate=1.0):
    coords = [(rng.uniform(0.0, span), rng.uniform(0.0, span))
              for _ in range(n)]
    return Instance.planar(coords, rates=[rate] * n)


def test_anywhere_single_point():
    horizon, sched, trace = anywhere_burning(Instance.planar([(0.0, 0.0)]))
    assert horizon == 3
    assert sched.total_steps == 3
    assert len(sched.sources) == 1
    assert sched.model.tag == ANYWHERE
    assert trace.accepted_delta == 1
    assert validate_schedule(Instance.planar([(0.0, 0.0)]), sched).valid


def test_anywhere_empty_instance():
    horizon, sched, trace = anywhere_burning(Instance.planar([]))
    assert horizon == 0
    assert sched.sources == ()
    assert trace.entries == []


def test_anywhere_trace_constants():
    _, _, trace = anywhere_burning(Instance.planar([(1.0, 2.0)]), 0.5)
    assert trace.constants["phase1_fraction"] == 0.92188
    assert trace.constants["phase2_fraction"] == 0.07812
    assert trace.constants["template_fraction"] == 0.6094
    assert trace.constants["phase2_budget_fraction"] == 0.3906
    assert trace.constants["epsilon"] == 0.5


def test_anywhere_validity_sweep():
    rng = random.Random(20801)
    for trial in range(30):
        n = rng.randint(1, 18)
        rate = rng.choice([1.0, 2.5])
        inst = random_planar(rng, n, rate=rate)
        eps = rng.choice([0.5, 1.0, 2.0])
        horizon, sched, trace = anywhere_burning(inst, eps)
        assert sched.total_steps == horizon
        report = validate_schedule(inst, sched)
        assert report.valid, report.summary()
        assert trace.accepted_delta is not None


def test_anywhere_template_phase():
    # 13 isolated points force a 13-disk cover, first accepted at delta 7
    # with epsilon 1; exactly one disk is handled by the five-fire template
    inst = Instance.planar([(100.0 * i, 0.0) for i in range(13)])
    horizon, sched, trace = anywhere_burning(inst, 1.0)
    assert trace.accepted_delta == 7
    assert len(sched.sources) == 12 + 5
    assert horizon == 12 + 14
    template_steps = sorted(s.step for s in sched.sources)[12:]
    assert template_steps == [13, 14, 15, 16, 17]
    assert validate_schedule(inst, sched).valid


def test_anywhere_rejects_before_accepting():
    inst = Instance.planar([(100.0 * i, 0.0) for i in range(13)])
    _, _, trace = anywhere_burning(inst, 1.0)
    flags = [e.accepted for e in trace.entries]
    assert flags == [False] * 6 + [True]
    assert all(e.measure == 13 for e in trace.entries)


def test_anywhere_midpoint_band():
    # n = 45 sits in the band where pair midpoints, but no circumcenters,
    # are candidates: many candidates per cover disk for local search
    inst = generate("uniform-square", 45, 1, span=10.0 * math.sqrt(45 / 20))
    horizon, sched, trace = anywhere_burning(inst, 0.5)
    assert horizon == 12
    assert trace.accepted_delta == 4
    report = validate_schedule(inst, sched)
    assert report.valid, report.summary()


# Guess measures (cover sizes) of both planar pipelines on density-scaled
# squares at seed 1, eps = 0.5, frozen from a local search that scans
# every hole without the hitting walk; past n = 150 the two pipelines
# cover with the same candidates.
_SCALE_MEASURES = {
    400: (293, 163, 89, 58, 35, 24, 19, 15, 11),
    1000: (737, 371, 211, 134, 95, 73, 53, 37, 30, 23, 19, 17),
}


@pytest.mark.parametrize("n, point_horizon, anywhere_horizon", [(400, 24, 25), (1000, 35, 34)])
def test_planar_pipelines_at_scale_frozen(n, point_horizon, anywhere_horizon):
    # the local search's hole checks at scale: every guess's cover size is
    # the frozen one, so the search made the same swaps
    inst = generate("uniform-square", n, 1, span=10.0 * math.sqrt(n / 20))
    for solve, want in ((point_burning, point_horizon), (anywhere_burning, anywhere_horizon)):
        horizon, sched, trace = solve(inst, 0.5)
        assert horizon == want
        assert tuple(e.measure for e in trace.entries) == _SCALE_MEASURES[n]
        report = validate_schedule(inst, sched)
        assert report.valid, report.summary()


def test_anywhere_ratio_strict():
    rng = random.Random(20802)
    eps = 0.5
    bound = 1.92188 * (1.0 + eps)
    for trial in range(8):
        n = rng.randint(2, 7)
        inst = random_planar(rng, n, span=6.0)
        best, _ = exact_burning_number(inst, Model(ANYWHERE))
        horizon, sched, _ = anywhere_burning(inst, eps, strict_oracle=True)
        assert validate_schedule(inst, sched).valid
        assert horizon <= bound * best + 2


def test_anywhere_strict_builds_candidates_once(monkeypatch):
    # the strict guesses share one complete candidate list
    calls = []
    for module in (burn2d, oracle):
        def counted(*args, _real=module.candidate_centers, _name=module.__name__,
                    **kwargs):
            calls.append((_name, kwargs))
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, "candidate_centers", counted)
    inst = random_planar(random.Random(7), 7, span=12.0)
    _, sched, trace = anywhere_burning(inst, 0.5, strict_oracle=True)
    assert len(trace.entries) > 1 and validate_schedule(inst, sched).valid
    assert calls == [("geoburn.burn2d", {"midpoints": True, "circumcenters": True})]


def test_point_single_point():
    inst = Instance.planar([(3.0, 4.0)])
    horizon, sched, trace = point_burning(inst)
    assert horizon == 3
    assert sched.model.tag == POINT
    assert sched.sources[0].center == Point(3.0, 4.0)
    assert trace.accepted_delta == 1
    assert validate_schedule(inst, sched).valid


def test_point_trace_constants():
    _, _, trace = point_burning(Instance.planar([(0.0, 0.0)]), 0.5)
    assert trace.constants["annulus_inner_fraction"] == 26.0 / 27.0
    assert trace.constants["late_reach_fraction"] == 13.0 / 27.0


def test_point_rejects_then_accepts():
    inst = Instance.planar([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)])
    horizon, sched, trace = point_burning(inst, 1.0)
    flags = [e.accepted for e in trace.entries]
    assert flags == [False, True]
    assert trace.accepted_delta == 2
    assert horizon == 3 + 4
    assert validate_schedule(inst, sched).valid


def test_point_validity_sweep():
    rng = random.Random(20803)
    for trial in range(30):
        n = rng.randint(1, 18)
        rate = rng.choice([1.0, 0.5])
        inst = random_planar(rng, n, rate=rate)
        eps = rng.choice([0.5, 1.0, 2.0])
        horizon, sched, trace = point_burning(inst, eps)
        assert sched.total_steps == horizon
        report = validate_schedule(inst, sched)
        assert report.valid, report.summary()


def test_point_ratio_strict():
    rng = random.Random(20804)
    eps = 0.5
    bound = (53.0 / 27.0) * (1.0 + eps)
    for trial in range(8):
        n = rng.randint(2, 7)
        inst = random_planar(rng, n, span=6.0)
        best, _ = exact_burning_number(inst, Model(POINT))
        horizon, sched, _ = point_burning(inst, eps, strict_oracle=True)
        assert validate_schedule(inst, sched).valid
        assert horizon <= bound * best + 2


def test_point_late_zone_patch():
    # 39 isolated points and a 39.5-spaced pair: the first guess whose
    # point-centered cover fits the budget is delta 40, whose last cover
    # fire ends one step short of its annulus and needs one patch fire
    coords = [(200.0 * i, 0.0) for i in range(39)]
    coords.append((7800.0, 0.0))
    coords.append((7839.5, 0.0))
    inst = Instance.planar(coords)
    horizon, sched, trace = point_burning(inst, 0.01)
    assert trace.accepted_delta == 40
    assert horizon == 40 + 39
    assert len(sched.sources) == 41
    patch = sched.sources[-1]
    assert patch.step == 41
    assert patch.center in (Point(7800.0, 0.0), Point(7839.5, 0.0))
    report = validate_schedule(inst, sched)
    assert report.valid, report.summary()


def test_point_drops_burnt_ignition():
    # the step-2 cover center (2, 2) is 0.5 from the step-1 center
    # (1.5, 2), whose fire has radius 1 by then: it is not ignited, and
    # step 2 stays empty
    inst = Instance.planar([(0.0, 1.0), (1.5, 2.0), (2.0, 2.0), (3.5, 3.0),
                            (6.0, 0.0)])
    horizon, sched, trace = point_burning(inst, 0.5)
    assert trace.accepted_delta == 2
    assert horizon == 6
    assert [(s.center, s.step) for s in sched.sources] == [
        (Point(1.5, 2.0), 1), (Point(6.0, 0.0), 3)]
    report = validate_schedule(inst, sched)
    assert report.valid and not report.warnings, report.summary()


def test_drop_burnt_ignitions_tolerance_edge():
    # the step-2 point lies TOL/2 beyond the step-1 fire's radius 1, so
    # the validator's test (reach + TOL) calls it burnt; the dropped fire
    # would burn the outer point at +0.9 TOL, which the step-1 fire
    # misses by 0.4 TOL, so that source is kept
    early = BurnSource(Point(0.0, 0.0), 1)
    late = BurnSource(Point(1.0 + 0.5e-9, 0.0), 2)
    lost = [early.center, late.center, Point(2.0 + 1.4e-9, 0.0)]
    assert _drop_burnt_ignitions([early, late], burn_masks([early, late], 3, lost)) \
        == [early, late]
    inside = [early.center, late.center, Point(2.0 + 0.5e-9, 0.0)]
    assert _drop_burnt_ignitions([early, late], burn_masks([early, late], 3, inside)) \
        == [early]


@pytest.mark.parametrize("strict", [False, True])
def test_point_no_burnt_ignitions_sweep(strict, monkeypatch):
    # clustered draws put cover centers inside earlier fires (seeds 62
    # and 80 in both modes, 70 strict); the drop keeps every horizon and
    # keeps the other ignitions at their steps
    kept = {}
    for seed in range(100):
        n = 20 + seed % 21
        inst = generate("clustered", n, seed, span=10.0 * math.sqrt(n / 20))
        horizon, sched, _ = point_burning(inst, 0.5, strict_oracle=strict)
        report = validate_schedule(inst, sched)
        assert report.valid and not report.warnings, (seed, report.summary())
        kept[seed] = horizon, sched.sources
    monkeypatch.setattr(burn2d, "_drop_burnt_ignitions",
                        lambda sources, masks: sources)
    dropped = 0
    for seed, (horizon, sources) in kept.items():
        n = 20 + seed % 21
        inst = generate("clustered", n, seed, span=10.0 * math.sqrt(n / 20))
        h_all, s_all, _ = point_burning(inst, 0.5, strict_oracle=strict)
        assert h_all == horizon
        assert set(sources) <= set(s_all.sources)
        dropped += len(s_all.sources) - len(sources)
    assert dropped >= 2


def test_nonuniform_single_point():
    inst = Instance.planar([(2.0, 2.0)], rates=[3.0])
    horizon, sched, trace = k_burning_nonuniform(inst)
    assert horizon == 1
    assert len(sched.sources) == 1
    assert trace.constants["rate_ratio"] == 1.0
    assert validate_schedule(inst, sched).valid


def test_k_burning_step_capacity():
    # six isolated points, k = 2: dominating set is all of them, packed
    # two per step, plus the ceil(h (delta - 1)) = 1 spread step
    inst = Instance.planar([(10.0 * i, 0.0) for i in range(6)])
    horizon, sched, trace = k_burning_nonuniform(inst, k=2, epsilon=1.0)
    assert trace.accepted_delta == 2
    assert horizon == 3 + 1
    assert sched.model.k == 2
    steps = sorted(s.step for s in sched.sources)
    assert steps == [1, 1, 2, 2, 3, 3]
    assert validate_schedule(inst, sched).valid


def test_k_burning_packing_gate_frozen():
    # six points one apart on a line, rate 1.  At delta = 1 two distinct
    # points already exceed the capacity 1.01; at delta = 2 the reaches are
    # 0.5 + 0.5 + TOL, so 0 and 2 (two apart) share the dominator 1 and
    # only 0 and 3 are packed: the guess goes on to the greedy {1, 4}
    inst = Instance.planar([(float(i), 0.0) for i in range(6)])
    horizon, sched, trace = k_burning_nonuniform(inst, 1, 0.01)
    assert trace.entries == [GuessEntry(1, 2.0, 1.01, False, "lower-bound"),
                             GuessEntry(2, 2.0, 2.02, True)]
    assert horizon == 3
    assert validate_schedule(inst, sched).valid


def test_nonuniform_validity_sweep():
    rng = random.Random(20805)
    for trial in range(30):
        n = rng.randint(1, 14)
        rates = [float(rng.choice([1, 2, 3])) for _ in range(n)]
        coords = [(rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0))
                  for _ in range(n)]
        inst = Instance.planar(coords, rates=rates)
        k = rng.choice([1, 2, 3])
        eps = rng.choice([0.5, 1.0])
        horizon, sched, trace = k_burning_nonuniform(inst, k, eps)
        assert sched.total_steps == horizon
        report = validate_schedule(inst, sched)
        assert report.valid, report.summary()


def test_nonuniform_no_burnt_ignitions_sweep(monkeypatch):
    # without the drop, random rates {1, 1.5, 2} ignite burnt points; with
    # it every schedule is valid with no warning, at the same horizon,
    # and keeps the other ignitions at their steps
    def instance(seed):
        rng = random.Random(seed)
        n = rng.randint(10, 80)
        span = 10.0 * math.sqrt(n / 20.0)
        coords = [(rng.uniform(0.0, span), rng.uniform(0.0, span))
                  for _ in range(n)]
        rates = [rng.choice((1.0, 1.5, 2.0)) for _ in range(n)]
        return Instance.planar(coords, rates=rates), 1 + seed % 3

    kept = {}
    for seed in range(100):
        inst, k = instance(seed)
        horizon, sched, _ = k_burning_nonuniform(inst, k, 0.5)
        report = validate_schedule(inst, sched)
        assert report.valid and not report.warnings, (seed, report.summary())
        kept[seed] = horizon, sched.sources
    monkeypatch.setattr(burn2d, "_drop_burnt_ignitions",
                        lambda sources, masks: sources)
    dropped = 0
    for seed, (horizon, sources) in kept.items():
        inst, k = instance(seed)
        h_all, s_all, _ = k_burning_nonuniform(inst, k, 0.5)
        assert h_all == horizon
        assert set(sources) <= set(s_all.sources)
        dropped += len(s_all.sources) - len(sources)
    assert dropped >= 2


def test_nonuniform_horizon_bound_small():
    rng = random.Random(20806)
    eps = 0.5
    for trial in range(8):
        n = rng.randint(2, 7)
        rates = [float(rng.choice([1, 2, 3])) for _ in range(n)]
        coords = [(rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0))
                  for _ in range(n)]
        inst = Instance.planar(coords, rates=rates)
        h = inst.rate_ratio()
        best, _ = exact_burning_number(inst, Model(POINT))
        horizon, sched, _ = k_burning_nonuniform(inst, 1, eps)
        assert validate_schedule(inst, sched).valid
        assert horizon <= (1.0 + h + eps) * best + 2


def test_point_nonuniform_matches_k1():
    rng = random.Random(20807)
    for trial in range(10):
        n = rng.randint(1, 10)
        rates = [float(rng.choice([1, 2, 3])) for _ in range(n)]
        coords = [(rng.uniform(0.0, 15.0), rng.uniform(0.0, 15.0))
                  for _ in range(n)]
        inst = Instance.planar(coords, rates=rates)
        a = point_burning_nonuniform(inst, 0.75)
        b = k_burning_nonuniform(inst, 1, 0.75)
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert a[2].entries == b[2].entries


def test_burning_rejects_bad_arguments():
    inst = Instance.planar([(0.0, 0.0)])
    with pytest.raises(ValueError):
        anywhere_burning(inst, 0.0)
    with pytest.raises(ValueError):
        point_burning(inst, -1.0)
    with pytest.raises(ValueError):
        k_burning_nonuniform(inst, k=0)
    mixed = Instance.planar([(0.0, 0.0), (1.0, 0.0)], rates=[1.0, 2.0])
    with pytest.raises(ValueError):
        anywhere_burning(mixed)
    with pytest.raises(ValueError):
        point_burning(mixed)


def test_max_burn_frozen():
    inst = Instance.planar([(0.0, 0.0), (5.0, 0.0), (1.0, 0.0)],
                           sources=(0, 1))
    count, sched = max_burn_schedule(inst, 2)
    assert count == 3
    assert sorted(s.step for s in sched.sources) == [1, 2]
    burned = {i for i, p in enumerate(inst.points) if is_burned(p, sched)}
    assert len(burned) == 3


def test_max_burn_count_matches_validator_on_boundary():
    # the second point lies within an ulp of the rate-3 fire's reach: the
    # solver, the exact search and the validator decide it by one test
    inst = Instance.planar([(0.0, 0.0), (-2.9294225391869992, -0.6469030784462196)],
                           rates=[3.0, 3.0], sources=[0])
    count, sched = max_burn_schedule(inst, 2)
    report = validate_schedule(inst, sched)
    assert count == inst.n - len(report.unburned) == exact_max_burn(inst, 2) == 1


def test_max_burn_edge_cases():
    inst = Instance.planar([(0.0, 0.0)], sources=(0,))
    count, sched = max_burn_schedule(inst, 0)
    assert count == 0 and sched.sources == ()
    with pytest.raises(ValueError):
        max_burn_schedule(Instance.planar([(0.0, 0.0)]), 2)
    with pytest.raises(ValueError):
        max_burn_schedule(inst, -1)


def test_max_burn_uses_each_source_once():
    rng = random.Random(20808)
    for trial in range(20):
        n = rng.randint(1, 10)
        coords = [(rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0))
                  for _ in range(n)]
        srcs = tuple(sorted(rng.sample(range(n), rng.randint(1, min(4, n)))))
        rates = [float(rng.choice([1, 2])) for _ in range(n)]
        inst = Instance.planar(coords, rates=rates, sources=srcs)
        q = rng.randint(1, 4)
        count, sched = max_burn_schedule(inst, q)
        centers = [s.center for s in sched.sources]
        assert len(centers) == len(set(centers))
        assert all(inst.points.index(c) in srcs for c in centers)
        assert all(1 <= s.step <= q for s in sched.sources)
        burned = {i for i, p in enumerate(inst.points) if is_burned(p, sched)}
        assert count == len(burned)


def _max_burn_reference(inst, q):
    # max_burn_schedule with one coverage_mask per (rho, source) and the
    # grouped greedy over frozensets
    if q == 0 or not inst.sources:
        return 0, BurnSchedule(Model(POINT), q, ())
    def point_set(si, rho):
        mask = coverage_mask(inst.points[si], rho * inst.rates[si], inst.points)
        return frozenset(i for i in range(inst.n) if mask >> i & 1)

    groups = [[point_set(si, rho) for si in inst.sources] for rho in range(q)]
    used_groups, used_labels, covered, picks = set(), set(), set(), []
    while True:
        best_gain, best = 0, None
        for gi, sets in enumerate(groups):
            if gi in used_groups:
                continue
            for si, s in enumerate(sets):
                if inst.sources[si] in used_labels:
                    continue
                gain = len(s - covered)
                if gain > best_gain:
                    best_gain, best = gain, (gi, si)
        if best is None:
            break
        gi, si = best
        used_groups.add(gi)
        used_labels.add(inst.sources[si])
        covered |= groups[gi][si]
        picks.append(best)
    sources = tuple(BurnSource(inst.points[inst.sources[pos]], q - rho,
                               inst.rates[inst.sources[pos]])
                    for rho, pos in picks)
    return len(covered), BurnSchedule(Model(POINT), q, sources)


def test_max_burn_matches_reference():
    # points uniform or doubled up, rates {1, 1.5, 2} or spread over a
    # factor of 1e6, some
    # moved by 1e12; q up to 12
    for seed in range(24):
        rng = random.Random(seed)
        n = rng.randint(1, 300)
        span = 10.0 * math.sqrt(n / 20.0)
        coords = []
        for _ in range(n):
            if coords and rng.random() < 0.1:
                coords.append(rng.choice(coords))
            else:
                coords.append((rng.uniform(0.0, span), rng.uniform(0.0, span)))
        if seed % 3 == 0:
            coords = [(x + 1e12, y + 1e12) for x, y in coords]
        if seed % 4 == 3:
            rates = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(n)]
        else:
            rates = [rng.choice((1.0, 1.5, 2.0)) for _ in range(n)]
        srcs = tuple(sorted(rng.sample(range(n), rng.randint(1, min(30, n)))))
        inst = Instance.planar(coords, rates=rates, sources=srcs)
        q = rng.randint(1, 12)
        assert max_burn_schedule(inst, q) == _max_burn_reference(inst, q), seed


def test_max_burn_half_of_exact():
    rng = random.Random(20809)
    for trial in range(20):
        n = rng.randint(2, 8)
        coords = [(rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0))
                  for _ in range(n)]
        srcs = tuple(sorted(rng.sample(range(n), rng.randint(1, min(3, n)))))
        rates = [float(rng.choice([1, 2])) for _ in range(n)]
        inst = Instance.planar(coords, rates=rates, sources=srcs)
        q = rng.randint(1, 3)
        best = exact_max_burn(inst, q)
        count, _ = max_burn_schedule(inst, q)
        assert count >= math.ceil(best / 2.0)
