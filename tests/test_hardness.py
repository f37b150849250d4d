"""Gadget construction, separation properties, step pairing, tiny-scale iff."""

import math
import random

import pytest

from geoburn.core import (
    POINT,
    TOL,
    BurnSchedule,
    BurnSource,
    Model,
    Point,
    distance,
    validate_schedule,
)
from geoburn.hardness import (
    LsatFormula,
    PairingError,
    ReductionLayout,
    assignment_to_schedule,
    brute_force_burnable,
    build_reduction,
    check_separation,
    random_lsat,
    relabel_variables,
    sat_brute_force,
    schedule_to_assignment,
    validate_lsat,
)

WORKED_PAIR = LsatFormula(5, ((1, 2, 3), (3, 4, 5)))


def satisfies(formula, assignment):
    return all(any((lit > 0) == assignment[abs(lit) - 1] for lit in clause)
               for clause in formula.clauses)


def reference_brute_force(layout, horizon=None):
    # the dedicated depth-first search with deadline pruning and forced
    # moves that the oracle's step search replaced
    T = 2 * layout.n if horizon is None else horizon
    pts, lits = layout.points, list(layout.sources)
    full = (1 << len(pts)) - 1
    latest = [[math.floor(T - distance(pts[z], p) + TOL) for p in pts] for z in lits]
    step_mask = [[sum(1 << p for p in range(len(pts)) if s <= row[p])
                  for s in range(T + 1)] for row in latest]
    picked, failed = [], set()

    def dfs(step, used, covered):
        if covered == full:
            return True
        if step > T or (used, covered) in failed:
            return False
        forced = -1
        for p in range(len(pts)):
            if covered >> p & 1:
                continue
            alive = [a for a in range(len(lits))
                     if not used >> a & 1 and latest[a][p] >= step]
            if not alive or (len(alive) == 1 and latest[alive[0]][p] == step
                             and forced not in (-1, alive[0])):
                failed.add((used, covered))
                return False
            if len(alive) == 1 and latest[alive[0]][p] == step:
                forced = alive[0]
        order = [forced] if forced >= 0 else sorted(
            (a for a in range(len(lits)) if not used >> a & 1),
            key=lambda a: -(step_mask[a][step] & ~covered).bit_count())
        for a in order:
            picked.append((a, step))
            if dfs(step + 1, used | 1 << a, covered | step_mask[a][step]):
                return True
            picked.pop()
        failed.add((used, covered))
        return False

    if not dfs(1, 0, 0):
        return None
    return BurnSchedule(Model(POINT), T, tuple(
        BurnSource(pts[lits[a]], s, 1.0) for a, s in picked))


def test_validate_accepts_worked_pair():
    ok, msg = validate_lsat(WORKED_PAIR)
    assert ok
    assert msg.startswith("ok")


def test_validate_rejects_bad_structure():
    ok, msg = validate_lsat(LsatFormula(3, ((1, 2), (1, 2, 3))))
    assert not ok and "share 2" in msg
    ok, msg = validate_lsat(LsatFormula(3, ((1, 2), (2, 3), (3, 1))))
    assert not ok and "intersects clauses" in msg
    ok, msg = validate_lsat(LsatFormula(4, ((1, 2, 3, 4),)))
    assert not ok and "size" in msg
    ok, msg = validate_lsat(LsatFormula(2, ((1, 1),)))
    assert not ok and "repeated" in msg
    ok, msg = validate_lsat(LsatFormula(2, ((1, 5),)))
    assert not ok and "range" in msg
    ok, msg = validate_lsat(LsatFormula(2, ((0, 1),)))
    assert not ok


def test_validate_notes_absent_polarities():
    ok, msg = validate_lsat(LsatFormula(2, ((1, -1),)))
    assert ok
    assert "absent" in msg and "2" in msg


def test_relabel_heavy_first():
    assert relabel_variables(WORKED_PAIR) == {3: 1, 1: 2, 2: 3, 4: 4, 5: 5}
    flat = LsatFormula(3, ((1, 2), (3, -1)))
    assert relabel_variables(flat) == {1: 1, 2: 2, 3: 3}
    twin = LsatFormula(10, ((1, 2, 3), (3, 4, 5), (6, 7, 8), (8, 9, 10)))
    labels = relabel_variables(twin)
    assert labels[3] == 1 and labels[8] == 2
    assert labels[1] == 3


def test_build_counts_and_frozen_coordinates():
    inst, lay = build_reduction(WORKED_PAIR)
    assert len(lay.points) == 4 * 5 + 2
    assert len(lay.sources) == 2 * 5
    assert inst.sources == lay.sources
    assert lay.points[lay.literal_points[3]] == Point(9.0, 0.0)
    assert lay.points[lay.tail_points[3]] == Point(9.0, 8.0)
    assert lay.points[lay.clause_points[1]] == Point(18.0, 0.0)
    assert lay.points[lay.literal_points[4]] == Point(18.0, -3.0)
    # the label-5 span is zero, so its tail lands on its literal point
    assert lay.points[lay.literal_points[5]] == lay.points[lay.tail_points[5]]
    # absent polarities get their own elements spaced n^2 + 20n apart
    assert lay.points[lay.literal_points[-3]] == Point(125.0, 0.0)
    assert lay.points[lay.tail_points[-3]] == Point(133.0, 0.0)


def test_build_rejects_invalid_and_tiny():
    with pytest.raises(ValueError):
        build_reduction(LsatFormula(3, ((1, 2), (1, 2, 3))))
    with pytest.raises(ValueError):
        build_reduction(LsatFormula(1, ((1,), (-1,))))


def test_separation_positive_and_translation_invariant():
    _, lay = build_reduction(WORKED_PAIR)
    rep = check_separation(lay)
    assert rep.ok and rep.min_slack > 0.0
    moved = ReductionLayout(
        points=tuple(Point(p.x + 7.0, p.y - 3.0) for p in lay.points),
        roles=lay.roles, sources=lay.sources, labels=lay.labels,
        literal_points=lay.literal_points, tail_points=lay.tail_points,
        clause_points=lay.clause_points, n=lay.n, m=lay.m)
    rep2 = check_separation(moved)
    assert rep2.ok
    assert abs(rep2.min_slack - rep.min_slack) <= 1e-9


def test_separation_catches_planted_violation():
    _, lay = build_reduction(WORKED_PAIR)
    pts = list(lay.points)
    # drop the tail of literal 2 onto the literal point of 4
    pts[lay.tail_points[2]] = pts[lay.literal_points[4]]
    broken = ReductionLayout(points=tuple(pts), roles=lay.roles,
                             sources=lay.sources, labels=lay.labels,
                             literal_points=lay.literal_points,
                             tail_points=lay.tail_points,
                             clause_points=lay.clause_points, n=lay.n, m=lay.m)
    rep = check_separation(broken)
    assert not rep.ok and rep.min_slack < 0.0


def test_satisfying_assignment_burns_everything():
    inst, lay = build_reduction(WORKED_PAIR)
    sched = assignment_to_schedule(lay, [True] * 5)
    assert sched.total_steps == 10
    assert len(sched.sources) == 10
    report = validate_schedule(inst, sched)
    assert report.valid, report.summary()


def test_failing_assignment_leaves_only_clause_points():
    inst, lay = build_reduction(WORKED_PAIR)
    sched = assignment_to_schedule(lay, [False] * 5)
    report = validate_schedule(inst, sched)
    assert not report.valid
    # tails burn regardless of polarity; only clause points go unburnt
    assert report.unburned == sorted(lay.clause_points)


def test_roundtrip_on_satisfying_assignments():
    rng = random.Random(20810)
    for trial in range(10):
        formula = random_lsat(rng, rng.choice([2, 3, 4]))
        assignment = sat_brute_force(formula)
        if assignment is None:
            continue
        inst, lay = build_reduction(formula)
        sched = assignment_to_schedule(lay, assignment)
        assert validate_schedule(inst, sched).valid
        assert schedule_to_assignment(lay, sched) == assignment


def test_schedule_to_assignment_rejects_bad_schedules():
    inst, lay = build_reduction(WORKED_PAIR)
    tail = lay.points[lay.tail_points[1]]
    bad = BurnSchedule(Model(POINT), 10, (BurnSource(tail, 1, 1.0),))
    with pytest.raises(ValueError):
        schedule_to_assignment(lay, bad)
    # label-1 literals moved out of steps 1..2 violate the pairing
    sched = assignment_to_schedule(lay, [True] * 5)
    shuffled = []
    for src in sched.sources:
        if src.step <= 2:
            shuffled.append(BurnSource(src.center, src.step + 2, 1.0))
        elif src.step <= 4:
            shuffled.append(BurnSource(src.center, src.step - 2, 1.0))
        else:
            shuffled.append(src)
    bad2 = BurnSchedule(Model(POINT), 10, tuple(shuffled))
    with pytest.raises(PairingError):
        schedule_to_assignment(lay, bad2)


def test_brute_force_frozen_cases():
    unsat = LsatFormula(2, ((1,), (-1,), (2,), (-2,)))
    assert sat_brute_force(unsat) is None
    inst, lay = build_reduction(unsat)
    assert brute_force_burnable(lay) is None
    # two extra steps make the gadget burnable even though the formula is not
    longer = brute_force_burnable(lay, 6)
    assert longer is not None
    assert validate_schedule(inst, longer).valid
    _, lay5 = build_reduction(WORKED_PAIR)
    with pytest.raises(ValueError):
        brute_force_burnable(lay5)


def test_burnable_iff_satisfiable_small():
    rng = random.Random(20811)
    for trial in range(15):
        formula = random_lsat(rng, rng.choice([2, 3]))
        inst, lay = build_reduction(formula)
        sched = brute_force_burnable(lay)
        sat = sat_brute_force(formula)
        assert (sched is not None) == (sat is not None)
        if sched is not None:
            assert validate_schedule(inst, sched).valid
            extracted = schedule_to_assignment(lay, sched)
            assert satisfies(formula, extracted)


def test_brute_force_matches_reference_search():
    rng = random.Random(20813)
    for trial in range(30):
        formula = random_lsat(rng, rng.choice([2, 3, 4]))
        inst, lay = build_reduction(formula)
        for horizon in (None, 2 * lay.n - 1, 2 * lay.n + 1):
            sched = brute_force_burnable(lay, horizon)
            want = reference_brute_force(lay, horizon)
            assert (sched is None) == (want is None)
            if sched is not None:
                assert validate_schedule(inst, sched).valid


def test_random_lsat_is_valid_and_complete():
    rng = random.Random(20812)
    for trial in range(30):
        n = rng.randint(2, 6)
        formula = random_lsat(rng, n)
        ok, msg = validate_lsat(formula)
        assert ok and msg == "ok"
        seen = {lit for clause in formula.clauses for lit in clause}
        assert seen == {lit for v in range(1, n + 1) for lit in (v, -v)}
    with pytest.raises(ValueError):
        random_lsat(rng, 1)


def test_absent_polarity_gets_free_standing_pair():
    formula = LsatFormula(2, ((1, -1),))
    inst, lay = build_reduction(formula)
    assert len(lay.points) == 4 * 2 + 1
    assert len(lay.sources) == 4
    assert check_separation(lay).ok
    sched = brute_force_burnable(lay)
    assert sched is not None
    assert validate_schedule(inst, sched).valid
