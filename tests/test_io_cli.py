"""File formats, generators, SVG rendering, and the command line."""

import string
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoburn.cli import main
from geoburn.core import (
    ANYWHERE,
    POINT,
    BurnSchedule,
    BurnSource,
    Instance,
    Model,
    Point,
    validate_schedule,
)
from geoburn.hardness import LsatFormula
from geoburn.ioformats import (
    DuplicatePointWarning,
    ParseError,
    generate,
    parse_instance,
    parse_lsat,
    parse_schedule,
    write_instance,
    write_lsat,
    write_schedule,
)
from geoburn.oracle import exact_burning_number
from geoburn.render import render_svg

WORKED_PAIR = "p lsat 5 2\n1 2 3 0\n3 4 5 0\n"


# ---------------------------------------------------------------------------
# instance files


def test_instance_round_trip_identity():
    for kind in ("uniform-square", "clustered", "collinear"):
        for seed in range(4):
            inst = generate(kind, n=9, seed=20820 + seed)
            assert parse_instance(write_instance(inst)) == inst


def test_instance_normal_form_idempotent():
    # Reduction layouts carry coincident tail points; loading drops the
    # duplicates with a warning and remaps sources, then stays stable.
    inst = generate("lsat-reduction", n=3, seed=20821)
    with pytest.warns(DuplicatePointWarning):
        once = parse_instance(write_instance(inst))
    assert once.n < inst.n
    assert len(set(once.points)) == once.n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        twice = parse_instance(write_instance(once))
    assert twice == once


def test_instance_parse_frozen():
    text = (
        "# survey drop 12\n"
        "geoburn instance\n"
        "\n"
        "name two points\n"
        "seed 12\n"
        "point 0 0\n"
        "point 1.5 -2\n"
        "sources 1 1 0\n"
    )
    inst = parse_instance(text)
    assert inst.dimension == 2
    assert inst.name == "two points"
    assert inst.seed == 12
    assert inst.points == (Point(0.0, 0.0), Point(1.5, -2.0))
    assert inst.rates == (1.0, 1.0)
    assert inst.sources == (1, 0)


def test_instance_parse_errors():
    cases = [
        ("point 0 0\n", "line 1"),
        ("geoburn instance\nporble 1\n", "unknown keyword"),
        ("geoburn instance\npoint 0\n", "line 2: point lines"),
        ("geoburn instance\npoint 0 0 -1\n", "rate must be positive"),
        ("geoburn instance\npoint a 0\n", "bad coordinate"),
        ("geoburn instance\npoint inf 0\n", "must be finite"),
        ("geoburn instance\ndim 2\ndim 2\n", "line 3: duplicate 'dim'"),
        ("geoburn instance\ndim 3\n", "dimension must be 1 or 2"),
        ("geoburn instance\npoint 0 0\nsources 5\n", "line 3: source index 5"),
        ("geoburn instance\ndim 1\npoint 0 5\n", "line 3: dimension-1"),
        ("", "line 1"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError, match=fragment):
            parse_instance(text)


def test_instance_rate_column_only_when_needed():
    flat = Instance.planar([(0, 0), (1, 1)])
    point_lines = [l for l in write_instance(flat).splitlines() if l.startswith("point")]
    assert all(len(l.split()) == 3 for l in point_lines)
    rated = Instance.planar([(0, 0), (1, 1)], rates=[1, 2])
    text = write_instance(rated)
    assert "point 0 0 1\n" in text
    assert "point 1 1 2\n" in text
    assert parse_instance(text) == rated


def test_instance_dim_after_points():
    # 'dim' may follow the point lines, so y is checked once the file is read
    with pytest.raises(ParseError, match="line 3: dimension-1"):
        parse_instance("geoburn instance\npoint 0 0\npoint 1 2\npoint 3 4\ndim 1\n")
    inst = parse_instance("geoburn instance\npoint 0 0\npoint 1 0\ndim 1\n")
    assert inst == Instance.line([0, 1])


COORDS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e300, -1e300, 1e-300, -1e-300])
RATES = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NAMES = st.text(string.ascii_letters + string.digits + " -_.", max_size=12).map(str.strip)
SEEDS = st.none() | st.integers(-2**63, 2**63)


@st.composite
def instances(draw):
    dim = draw(st.sampled_from([1, 2]))
    ys = st.just(0.0) if dim == 1 else COORDS
    # distinct coordinates: loading drops coincident points by design
    coords = draw(st.lists(st.tuples(COORDS, ys), max_size=8, unique=True))
    n = len(coords)
    rates = draw(st.just(()) | st.lists(RATES, min_size=n, max_size=n))
    sources = draw(st.none() | st.lists(st.integers(0, max(n - 1, 0)),
                                        max_size=n, unique=True))
    points = [Point(x, y) for x, y in coords]
    return Instance(points, rates, sources, dimension=dim,
                    name=draw(NAMES), seed=draw(SEEDS))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(instances())
@example(Instance.planar([(1e300, -1e-300), (-1e300, 1e300)], rates=[1e-300, 1e300],
                         sources=[1, 0], name="far apart", seed=-7))
def test_instance_round_trip(inst):
    assert parse_instance(write_instance(inst)) == inst


# ---------------------------------------------------------------------------
# schedule files


def test_schedule_parse_frozen():
    text = (
        "# ignition plan\n"
        "geoburn schedule\n"
        "model anywhere\n"
        "k 2\n"
        "steps 3\n"
        "source 0 0 1 1\n"
        "source 2.5 -2.5 3 0.5\n"
    )
    sched = parse_schedule(text)
    assert sched.model == Model(ANYWHERE, 2)
    assert sched.total_steps == 3
    assert len(sched.sources) == 2
    assert sched.sources[1].center == Point(2.5, -2.5)
    assert sched.sources[1].step == 3
    assert sched.sources[1].rate == 0.5
    assert parse_schedule(write_schedule(sched)) == sched


def test_schedule_defaults_point_k1():
    sched = parse_schedule("geoburn schedule\nsteps 0\n")
    assert sched.model == Model(POINT, 1)
    assert sched.sources == ()


def test_schedule_parse_errors():
    cases = [
        ("steps 3\n", "line 1"),
        ("geoburn schedule\nmodel blob\nsteps 1\n", "model must be"),
        ("geoburn schedule\nk 0\nsteps 1\n", "k must be >= 1"),
        ("geoburn schedule\nmodel point\n", "missing 'steps'"),
        ("geoburn schedule\nsteps 1\nsource 0 0 1\n", "source lines"),
        ("geoburn schedule\nsteps 1\nsource 0 0 0 1\n", "step must be >= 1"),
        ("geoburn schedule\nsteps 1\nsource 0 0 1 0\n", "rate must be positive"),
        ("geoburn schedule\nmodel point\nmodel point\nsteps 1\n", "duplicate 'model'"),
        ("geoburn schedule\nsteps -1\n", "step count"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError, match=fragment):
            parse_schedule(text)


@st.composite
def schedules(draw):
    sources = draw(st.lists(st.builds(
        BurnSource, st.builds(Point, COORDS, COORDS), st.integers(1, 2**40), RATES),
        max_size=6))
    return BurnSchedule(Model(draw(st.sampled_from([POINT, ANYWHERE])),
                              draw(st.integers(1, 2**40))),
                        draw(st.integers(0, 2**40)), sources)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(schedules())
@example(BurnSchedule(Model(ANYWHERE, 3), 2,
                      [BurnSource(Point(1e300, -1e-300), 5, 1e300)]))
def test_schedule_round_trip(sched):
    assert parse_schedule(write_schedule(sched)) == sched


# ---------------------------------------------------------------------------
# formula files


def test_lsat_round_trip():
    formula = parse_lsat("c comment\n" + WORKED_PAIR)
    assert formula == LsatFormula(5, ((1, 2, 3), (3, 4, 5)))
    assert parse_lsat(write_lsat(formula)) == formula


def test_lsat_parse_errors():
    cases = [
        ("1 2 0\n", "before 'p lsat' header"),
        ("p cnf 2 1\n1 2 0\n", "expected header"),
        ("p lsat 2 1\n1 2\n", "must end with 0"),
        ("p lsat 2 1\n1 0 2 0\n", "literal 0 before end"),
        ("p lsat 2 2\n1 2 0\n", "promises 2 clauses, found 1"),
        ("p lsat 2 1\np lsat 2 1\n1 0\n", "duplicate header"),
        ("", "missing 'p lsat' header"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError, match=fragment):
            parse_lsat(text)


# ---------------------------------------------------------------------------
# generators


def test_generate_deterministic():
    for kind in ("uniform-square", "clustered", "collinear", "lsat-reduction"):
        a = generate(kind, n=6, seed=20822)
        b = generate(kind, n=6, seed=20822)
        assert a == b
        assert a != generate(kind, n=6, seed=20823)
        assert a.name == f"{kind}-20822"
        assert a.seed == 20822


def test_generate_shapes():
    line = generate("collinear", n=8, seed=20824)
    assert line.dimension == 1
    xs = [p.x for p in line.points]
    assert xs == sorted(xs)
    assert all(p.y == 0.0 for p in line.points)
    square = generate("uniform-square", n=30, seed=20824, span=4.0)
    assert all(0 <= p.x <= 4 and 0 <= p.y <= 4 for p in square.points)
    reduction = generate("lsat-reduction", n=3, seed=20824)
    assert reduction.sources is not None and len(reduction.sources) == 6
    with pytest.raises(ValueError):
        generate("hexagonal", n=3, seed=0)
    with pytest.raises(ValueError):
        generate("lsat-reduction", n=1, seed=0)
    with pytest.raises(ValueError):
        generate("uniform-square", n=-3, seed=0)


# ---------------------------------------------------------------------------
# rendering


def test_render_empty_instance():
    svg = render_svg(Instance(points=()))
    assert svg == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="64" height="64" '
        'viewBox="0 0 64 64"></svg>\n'
    )


def test_render_fronts_and_labels():
    inst = Instance.planar([(0, 0), (4, 0), (0, 4)])
    sched = parse_schedule(
        "geoburn schedule\nsteps 3\nsource 0 0 1 2\n"
    )
    svg = render_svg(inst, sched, step=3)
    assert svg == render_svg(inst, sched, step=3)
    # rate 2 ignited at step 1, shown at step 3: front radius 4 in world
    # units; the canvas spans 8 world units so the scale is (640-48)/8.
    assert f'r="{4 * (640 - 48) / 8:g}"' in svg
    assert ">1</text>" in svg
    assert svg.count("<path") == 1


def test_render_step_zero_hides_fronts():
    inst = Instance.planar([(0, 0), (1, 0)])
    sched = parse_schedule("geoburn schedule\nsteps 2\nsource 0 0 1 1\n")
    early = render_svg(inst, sched, step=0)
    assert 'stroke="#d62728" stroke-width="1.5"' not in early
    late = render_svg(inst, sched)
    assert 'stroke="#d62728" stroke-width="1.5"' in late


# ---------------------------------------------------------------------------
# command line


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_gen_solve_validate(tmp_path, capsys):
    assert main(["gen", "--kind", "uniform-square", "--n", "-3"]) == 1
    assert capsys.readouterr().err.startswith("error: n must be non-negative")
    assert main(["gen", "--kind", "uniform-square", "--n", "6", "--seed", "4"]) == 0
    inst_file = _write(tmp_path / "inst.txt", capsys.readouterr().out)
    assert main(["solve", inst_file, "--model", "point", "--eps", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "# constant epsilon 1" in out
    assert "# guess 1" in out
    assert "# horizon" in out
    sched_file = _write(tmp_path / "sched.txt", out)
    assert main(["validate", inst_file, sched_file]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    report = validate_schedule(
        parse_instance(Path(inst_file).read_text()), parse_schedule(Path(sched_file).read_text())
    )
    assert report.valid and not report.violations


def test_cli_solve_names_lower_bound_guesses(tmp_path, capsys):
    # k = 2 runs k_burning_nonuniform, whose packing bound settles the
    # first guesses: their lines name it, and the schedule still validates
    assert main(["gen", "--kind", "uniform-square", "--n", "12", "--seed", "3"]) == 0
    inst_file = _write(tmp_path / "inst.txt", capsys.readouterr().out)
    assert main(["solve", inst_file, "--k", "2", "--eps", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "# guess 1 lower-bound 4 threshold 3 rejected" in out
    assert "# guess 3 measure 6 threshold 9 accepted" in out
    sched_file = _write(tmp_path / "ksched.txt", out)
    assert main(["validate", inst_file, sched_file]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_cli_validate_rejects_bad_schedule(tmp_path, capsys):
    inst_file = _write(
        tmp_path / "i.txt", "geoburn instance\npoint 0 0\npoint 50 0\n"
    )
    sched_file = _write(
        tmp_path / "s.txt", "geoburn schedule\nsteps 1\nsource 0 0 1 1\n"
    )
    assert main(["validate", inst_file, sched_file]) == 2
    assert "unburned" in capsys.readouterr().out


def test_cli_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["solve", missing]) == 1
    bad = _write(tmp_path / "bad.txt", "not a header\n")
    assert main(["solve", bad]) == 1
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1
    capsys.readouterr()
    # a non-finite epsilon is bad input on every solver path
    line = _write(tmp_path / "line.txt", "geoburn instance\ndim 1\npoint 0 0\npoint 5 0\n")
    plane = _write(tmp_path / "plane.txt", "geoburn instance\npoint 0 0\npoint 5 1\n")
    for inst_file in (line, plane):
        for eps in ("nan", "inf"):
            for model in ("point", "anywhere"):
                assert main(["solve", inst_file, "--model", model,
                             "--eps", eps]) == 1
                err = capsys.readouterr().err
                assert err.startswith("error: epsilon")
                assert "Traceback" not in err
    # a tiny epsilon solves, or is rejected when 2 / epsilon overflows
    for inst_file in (line, plane):
        for eps in ("1e-160", "1e-300", "1e-320"):
            for model in ("point", "anywhere"):
                code = main(["solve", inst_file, "--model", model, "--eps", eps])
                out, err = capsys.readouterr()
                assert code in (0, 1)
                assert "# horizon" in out if code == 0 else err.startswith("error:")
                assert "Traceback" not in err


def test_cli_extreme_inputs_exit_cleanly(tmp_path, capsys):
    # finite but extreme coordinates and rates: each run solves with a
    # schedule the validator accepts, or exits 1 with an error line
    far = "point 0 0\npoint 3 4\npoint {} 0\n"
    uniform = "point 0 0 {0}\npoint 1e9 0 {0}\npoint 3 4 {0}\n"
    inputs = {
        "far-1e299": far.format("1e299"),
        "far-1e300": far.format("1e300"),
        "rates-1e300-1e-10-1": "point 0 0 1e300\npoint 3 4 1e-10\npoint 9 1 1\n",
        "rates-1-1e-320": "point 0 0 1\npoint 3 4 1e-320\n",
        "uniform-1e-300": uniform.format("1e-300"),
        "uniform-1e300": uniform.format("1e300"),
        # a short length beside huge ones: delta* is 3
        "tiny-and-far": "point 0 0\npoint 5e-5 0\npoint 1.7e308 0\npoint 1.7e308 0.5\n",
    }
    # the uniform-rate pipelines solve these in the instance's own frame
    must_solve = {"uniform-1e-300", "uniform-1e300", "far-1e299", "far-1e300"}
    runs = []
    for name, body in inputs.items():
        inst_file = _write(tmp_path / f"{name}.txt", "geoburn instance\n" + body)
        for model in ("point", "anywhere"):
            runs.append((name, ["oracle", inst_file, "--model", model]))
            runs.append((name, ["solve", inst_file, "--model", model]))
            runs.append((name, ["solve", inst_file, "--model", model, "--strict-oracle"]))
    solved = 0
    for name, argv in runs:
        code = main(argv)
        out, err = capsys.readouterr()
        assert "Traceback" not in err, argv
        assert code in (0, 1), (argv, err)
        if name in must_solve and argv[0] == "solve" and len(argv) == 4:
            assert code == 0, (argv, err)
        if code == 1:
            assert err.startswith("error:"), (argv, err)
            continue
        solved += 1
        if name == "tiny-and-far" and argv[0] == "oracle":
            assert out.splitlines()[0] == "# delta_star 3", argv
        sched_file = _write(tmp_path / "sched.txt", out)
        assert main(["validate", argv[1], sched_file]) == 0, argv
        assert capsys.readouterr().out.strip() == "valid", argv
    assert solved >= 24


def test_cli_solve_dim_mismatch(tmp_path, capsys):
    inst_file = _write(tmp_path / "i.txt", "geoburn instance\npoint 1 2\n")
    assert main(["solve", inst_file, "--dim", "1"]) == 1
    capsys.readouterr()


def test_cli_oracle_agrees(tmp_path, capsys):
    inst = generate("uniform-square", n=5, seed=20825)
    inst_file = _write(tmp_path / "i.txt", write_instance(inst))
    assert main(["oracle", inst_file, "--model", "anywhere"]) == 0
    out = capsys.readouterr().out
    delta, _ = exact_burning_number(inst, Model(ANYWHERE))
    assert out.splitlines()[0] == f"# delta_star {delta}"
    sched = parse_schedule(out)
    assert validate_schedule(inst, sched).valid


def test_cli_maxburn(tmp_path, capsys):
    inst_file = _write(
        tmp_path / "i.txt",
        "geoburn instance\npoint 0 0\npoint 1 0\npoint 9 9\n",
    )
    assert main(["maxburn", inst_file, "--q", "2", "--sources", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# burned 2 of 3")
    assert main(["maxburn", inst_file, "--q", "1"]) == 1
    capsys.readouterr()


def test_cli_hardness_flow(tmp_path, capsys):
    formula_file = _write(tmp_path / "f.txt", WORKED_PAIR)
    assert main(["hardness", "check", formula_file]) == 0
    out = capsys.readouterr().out
    assert "points 22 sources 10" in out
    assert "separation min slack 0.162" in out

    assert main(["hardness", "build", formula_file]) == 0
    build_out = capsys.readouterr().out
    assert sum(l.startswith("point") for l in build_out.splitlines()) == 22
    assert "# label 3 1" in build_out
    # the worked pair has two coincident highest-label tails, merged on load
    with pytest.warns(DuplicatePointWarning):
        inst = parse_instance(build_out)
    assert inst.n == 20 and len(inst.sources) == 10

    assert main(["hardness", "assign2sched", formula_file, "--assign", "1,1,1,1,1"]) == 0
    sched_out = capsys.readouterr().out
    assert sched_out.startswith("# satisfies yes")
    sched_file = _write(tmp_path / "s.txt", sched_out)
    assert validate_schedule(inst, parse_schedule(sched_out)).valid

    assert main(["hardness", "sched2assign", formula_file, sched_file]) == 0
    assert capsys.readouterr().out.strip() == "assignment 1 1 1 1 1"

    assert main(["hardness", "assign2sched", formula_file, "--assign", "0,0,0,0,0"]) == 0
    assert capsys.readouterr().out.startswith("# satisfies no")

    bad = _write(tmp_path / "bad.txt", "p lsat 2 2\n1 2 0\n1 2 0\n")
    assert main(["hardness", "check", bad]) == 2
    capsys.readouterr()


def test_cli_hardness_bruteforce(tmp_path, capsys):
    sat_file = _write(tmp_path / "sat.txt", "p lsat 2 1\n1 2 0\n")
    assert main(["hardness", "bruteforce", sat_file]) == 0
    assert "# burnable within 4 steps" in capsys.readouterr().out
    unsat_file = _write(
        tmp_path / "unsat.txt", "p lsat 2 4\n1 0\n-1 0\n2 0\n-2 0\n"
    )
    assert main(["hardness", "bruteforce", unsat_file]) == 2
    assert "no valid schedule within 4 steps" in capsys.readouterr().out
    assert main(["hardness", "bruteforce", unsat_file, "--horizon", "6"]) == 0
    capsys.readouterr()


def test_cli_bench_deterministic(capsys):
    assert main(["bench", "--suite", "ptas1d", "--trials", "4", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    lines = first.splitlines()
    assert lines[0] == "instance,baseline,achieved,ratio"
    assert len(lines) == 5
    assert lines[1:] == sorted(lines[1:])
    assert main(["bench", "--suite", "ptas1d", "--trials", "4", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


def test_cli_verify_templates(capsys):
    assert main(["verify-templates", "--resolution", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "certified yes" in out
    assert "margin 0.002850" in out
    for bad in ("0", "nan", "-1", "inf"):
        assert main(["verify-templates", f"--resolution={bad}"]) == 1
        assert capsys.readouterr().err.startswith("error: resolution")
