"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checker  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

gb = run.import_geoburn()
from geoburn.core import BurnSchedule, BurnSource, Instance, Model, Point  # noqa: E402
from geoburn.oracle import exact_burning_number  # noqa: E402

# A at the origin, B and C one apart far to the right: A at step 1 and B
# at step 2 burn everything in three steps
POINTS = ((0.0, 0.0), (10.0, 0.0), (10.0, 1.0))
INST = Instance.planar(POINTS)


def _sched(sources, steps=3, k=1):
    return BurnSchedule(Model("point", k), steps,
                        tuple(BurnSource(Point(x, y), s) for x, y, s in sources))


GOOD = ((0.0, 0.0, 1), (10.0, 0.0, 2))


def _problems(sched, horizon=None):
    return checker.check_schedule(INST, sched, tag="point", k=sched.model.k,
                                  horizon=sched.total_steps if horizon is None else horizon)


def test_checker_accepts_a_valid_schedule():
    assert _problems(_sched(GOOD)) == []


def test_checker_rejects_a_moved_source():
    probs = _problems(_sched(((0.0, 0.0, 1), (10.0, 0.5, 2))))
    assert any(p.startswith("off-point") for p in probs)


def test_checker_rejects_a_horizon_cut_by_one():
    probs = _problems(_sched(GOOD, steps=2))
    assert any(p.startswith("unburnt") for p in probs)
    assert any(p.startswith("horizon")
               for p in _problems(_sched(GOOD), horizon=2))


def test_checker_rejects_two_ignitions_in_one_step():
    probs = _problems(_sched(((0.0, 0.0, 1), (10.0, 0.0, 1))))
    assert any(p.startswith("step-capacity") for p in probs)
    assert _problems(_sched(((0.0, 0.0, 1), (10.0, 0.0, 1)), k=2)) == []


def test_checker_rejects_a_burnt_ignition():
    # C lies one away from B, so B's fire has reached it by step 3
    probs = _problems(_sched(((10.0, 0.0, 2), (10.0, 1.0, 3), (0.0, 0.0, 1)),
                             steps=4))
    assert checker.only_burnt_ignitions(probs), probs
    # geoburn's own validator calls this a warning only
    report = gb.core.validate_schedule(INST, _sched(((10.0, 0.0, 2), (10.0, 1.0, 3),
                                                     (0.0, 0.0, 1)), steps=4))
    assert report.valid


def test_checker_rejects_a_second_ignition_of_one_point():
    probs = _problems(_sched(((0.0, 0.0, 1), (0.0, 0.0, 2), (10.0, 0.0, 3)),
                             steps=4, k=1))
    assert any(p.startswith("shared-point") for p in probs)


@pytest.mark.parametrize("model", ["point", "anywhere"])
def test_packing_bound_never_exceeds_the_exact_burning_number(model):
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(1, 8)
        k = 1 + trial % 2 if model == "point" else 1
        coords = workloads._uniform(rng, n, rng.choice((3.0, 8.0, 15.0)))
        rates = ([rng.choice(workloads.NONUNIFORM_RATES) for _ in range(n)]
                 if model == "point" and trial % 3 == 0 else ())
        inst = Instance.planar(coords, rates=rates)
        delta, _ = exact_burning_number(inst, Model(model, k))
        assert checker.packing_lower_bound(inst, k) <= delta


def test_packing_bound_on_a_line_is_tight_for_spread_points():
    # points 100 apart need one fire each
    inst = Instance.line([100.0 * i for i in range(5)])
    assert checker.packing_lower_bound(inst) == 5


def test_sat_by_enumeration():
    assert checker.sat_by_enumeration(2, [(1, 2), (-1,), (-2, 1)]) is False
    assert checker.sat_by_enumeration(2, [(1, 2), (-1,)]) is True


def _small(workload, seed=3):
    # a quick slice of a workload: every operation on the smallest input
    # of each public call
    wl = workloads.build(workload, seed)
    smallest = {}
    for op in wl.ops:
        size = (len(wl.files[op.file]), op.file)
        smallest[op.call] = min(smallest.get(op.call, size), size)
    files = {f for _size, f in smallest.values()}
    ops = [op for op in wl.ops if op.file in files]
    return workloads.Workload(wl.name, seed, {f: wl.files[f] for f in files}, ops)


@pytest.fixture
def input_dir(tmp_path):
    return str(tmp_path / "inputs")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_rounds_agree(workload, input_dir):
    wl = _small(workload)
    run.write_inputs(wl, input_dir)
    gbm, inputs = run.setup(input_dir)
    plain = run.run_rounds(gbm, wl.ops, inputs, 0.0)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = run.run_rounds(gbm, wl.ops, inputs, 0.0, tracer)
    assert [o.key() for _t, o in plain[0]] == [o.key() for _t, o in traced[0]]
    v_plain = run.check_round(wl.ops, plain[0], inputs)
    v_traced = run.check_round(wl.ops, traced[0], inputs)
    assert v_plain.problems == v_traced.problems
    assert set(v_plain.problems) == v_plain.known
    # the wrappers are gone again
    assert not hasattr(gbm.burn2d.disk_cover_approx, "__wrapped__")
    assert tracer.spans and all(end >= start for _n, start, end, _p, _o in tracer.spans)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_only_seed_independent_inputs_can_fail(workload):
    # the pipelines with the known fault read the same inputs for every
    # seed, and every round has the same operations
    def fixed(wl):
        return {op.label: wl.files[op.file] for op in wl.ops
                if op.call in run.KNOWN_FAULT}

    one, two = workloads.build(workload, 1), workloads.build(workload, 2)
    assert [op.label for op in one.ops] == [op.label for op in two.ops]
    assert fixed(one) and fixed(one) == fixed(two)
    assert one.files != two.files


def _bench_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("traced", [False, True])
def test_benchmark_json_names_every_printed_metric(traced, input_dir, tmp_path):
    spec = _bench_json()
    wl = _small("oracle-desk")
    run.write_inputs(wl, input_dir)
    result = run.measure(wl, input_dir, 0.0, traced, str(tmp_path / "trace.json"))
    want = spec["per_layer" if traced else "end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == \
        {m["name"]: m["unit"] for m in want}
    assert result["correct"] and result["attempted"] >= 1
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
