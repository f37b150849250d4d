"""Line-oriented text formats plus seeded instance generators.

Three file kinds, all plain text, one record per line, ``#`` starting a
comment line (formula files also accept DIMACS-style ``c`` comments):

Instance files::

    geoburn instance
    dim 2
    name uniform-square-7
    seed 7
    point 0.5 1.25
    point 3 4 2.5
    sources 0 1

``dim``, ``name``, ``seed``, and ``sources`` are optional (dim defaults
to 2).  A third number on a ``point`` line is that point's spread rate;
omitted rates default to 1.  Loading drops duplicate coordinates with a
warning, keeps the first occurrence, and remaps source indices, so
writing a loaded file back out is a normal form: parse(write(parse(x)))
equals parse(x).

Schedule files::

    geoburn schedule
    model point
    k 1
    steps 6
    source 0.5 1.25 1 1

Each ``source`` line is ``x y step rate``.  Structural checks beyond the
grammar (step range, capacity, on-instance centers) are the validator's
job, not the parser's.

Formula files (DIMACS-like)::

    p lsat 5 2
    1 2 3 0
    3 4 5 0

Clause lines are signed variable numbers terminated by 0.

Floats are written with 17 significant digits so round trips are exact.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import replace

from .core import ANYWHERE, POINT, BurnSchedule, BurnSource, Instance, Model, Point
from .hardness import LsatFormula, build_reduction, random_lsat

__all__ = [
    "DuplicatePointWarning",
    "GENERATOR_KINDS",
    "ParseError",
    "generate",
    "parse_instance",
    "parse_lsat",
    "parse_schedule",
    "write_instance",
    "write_lsat",
    "write_schedule",
]


class ParseError(ValueError):
    """A malformed line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicatePointWarning(UserWarning):
    """A loaded instance contained the same coordinates twice."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _lines(text: str, comment_prefixes: tuple[str, ...] = ("#",)):
    """Yield (line_no, stripped_line) skipping blanks and comments."""
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or any(line.startswith(p) for p in comment_prefixes):
            continue
        yield no, line


def _float(token: str, no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(no, f"bad {what} {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(no, f"{what} must be finite, got {token!r}")
    return value


def _int(token: str, no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(no, f"bad {what} {token!r}") from None


# ---------------------------------------------------------------------------
# instances


def parse_instance(text: str) -> Instance:
    header_seen = False
    dim: int | None = None
    name = ""
    seed: int | None = None
    pts: list[tuple[Point, float, int]] = []  # point, rate, line number
    raw_sources: list[int] | None = None
    sources_line = 0
    seen: set[str] = set()  # keywords met so far; all but 'point' come once

    for no, line in _lines(text):
        if not header_seen:
            if line != "geoburn instance":
                raise ParseError(no, "expected header 'geoburn instance'")
            header_seen = True
            continue
        key, _, rest = line.partition(" ")
        fields = rest.split()
        if key in seen and key != "point":
            raise ParseError(no, f"duplicate '{key}' line")
        seen.add(key)
        if key == "dim":
            dim = _int(rest.strip(), no, "dimension")
            if dim not in (1, 2):
                raise ParseError(no, f"dimension must be 1 or 2, got {dim}")
        elif key == "name":
            name = rest.strip()
        elif key == "seed":
            seed = _int(rest.strip(), no, "seed")
        elif key == "point":
            if len(fields) not in (2, 3):
                raise ParseError(no, "point lines take 'x y' or 'x y rate'")
            x = _float(fields[0], no, "coordinate")
            y = _float(fields[1], no, "coordinate")
            rate = _float(fields[2], no, "rate") if len(fields) == 3 else 1.0
            if rate <= 0:
                raise ParseError(no, f"rate must be positive, got {fields[2]}")
            pts.append((Point(x, y), rate, no))
        elif key == "sources":
            raw_sources = [_int(tok, no, "source index") for tok in fields]
            sources_line = no
        else:
            raise ParseError(no, f"unknown keyword {key!r}")

    if not header_seen:
        raise ParseError(1, "expected header 'geoburn instance'")
    if dim is None:
        dim = 2
    if dim == 1:
        for pt, _rate, no in pts:
            if pt.y != 0.0:
                raise ParseError(no, "dimension-1 points must have y = 0")

    # Drop exact duplicates, first occurrence wins; remap source indices.
    seen: dict[tuple[float, float], int] = {}
    keep_pts: list[Point] = []
    keep_rates: list[float] = []
    remap: list[int] = []
    for pt, rate, no in pts:
        key = (pt.x, pt.y)
        if key in seen:
            warnings.warn(
                f"line {no}: duplicate point {pt.x:g} {pt.y:g} dropped",
                DuplicatePointWarning,
                stacklevel=2,
            )
            remap.append(seen[key])
        else:
            seen[key] = len(keep_pts)
            remap.append(len(keep_pts))
            keep_pts.append(pt)
            keep_rates.append(rate)

    sources: tuple[int, ...] | None = None
    if raw_sources is not None:
        for idx in raw_sources:
            if not 0 <= idx < len(pts):
                raise ParseError(sources_line, f"source index {idx} out of range")
        sources = tuple(dict.fromkeys(remap[idx] for idx in raw_sources))

    return Instance(
        points=tuple(keep_pts),
        rates=tuple(keep_rates),
        sources=sources,
        dimension=dim,
        name=name,
        seed=seed,
    )


def write_instance(inst: Instance) -> str:
    lines = ["geoburn instance", f"dim {inst.dimension}"]
    if inst.name:
        lines.append(f"name {inst.name}")
    if inst.seed is not None:
        lines.append(f"seed {inst.seed}")
    with_rates = not inst.uniform_rates() or any(r != 1.0 for r in inst.rates)
    for pt, rate in zip(inst.points, inst.rates):
        line = f"point {_fmt(pt.x)} {_fmt(pt.y)}"
        if with_rates:
            line += f" {_fmt(rate)}"
        lines.append(line)
    if inst.sources is not None:
        lines.append("sources" + "".join(f" {i}" for i in inst.sources))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# schedules


def parse_schedule(text: str) -> BurnSchedule:
    header_seen = False
    tag: str | None = None
    k: int | None = None
    steps: int | None = None
    srcs: list[BurnSource] = []
    seen: set[str] = set()  # keywords met so far; all but 'source' come once

    for no, line in _lines(text):
        if not header_seen:
            if line != "geoburn schedule":
                raise ParseError(no, "expected header 'geoburn schedule'")
            header_seen = True
            continue
        key, _, rest = line.partition(" ")
        fields = rest.split()
        if key in seen and key != "source":
            raise ParseError(no, f"duplicate '{key}' line")
        seen.add(key)
        if key == "model":
            tag = rest.strip()
            if tag not in (POINT, ANYWHERE):
                raise ParseError(no, f"model must be '{POINT}' or '{ANYWHERE}'")
        elif key == "k":
            k = _int(rest.strip(), no, "k")
            if k < 1:
                raise ParseError(no, f"k must be >= 1, got {k}")
        elif key == "steps":
            steps = _int(rest.strip(), no, "step count")
            if steps < 0:
                raise ParseError(no, f"step count must be >= 0, got {steps}")
        elif key == "source":
            if len(fields) != 4:
                raise ParseError(no, "source lines take 'x y step rate'")
            x = _float(fields[0], no, "coordinate")
            y = _float(fields[1], no, "coordinate")
            step = _int(fields[2], no, "step")
            rate = _float(fields[3], no, "rate")
            if step < 1:
                raise ParseError(no, f"step must be >= 1, got {step}")
            if rate <= 0:
                raise ParseError(no, f"rate must be positive, got {fields[3]}")
            srcs.append(BurnSource(Point(x, y), step, rate))
        else:
            raise ParseError(no, f"unknown keyword {key!r}")

    if not header_seen:
        raise ParseError(1, "expected header 'geoburn schedule'")
    if steps is None:
        raise ParseError(1, "missing 'steps' line")
    return BurnSchedule(
        model=Model(tag=tag if tag is not None else POINT, k=k if k is not None else 1),
        total_steps=steps,
        sources=tuple(srcs),
    )


def write_schedule(sched: BurnSchedule) -> str:
    lines = [
        "geoburn schedule",
        f"model {sched.model.tag}",
        f"k {sched.model.k}",
        f"steps {sched.total_steps}",
    ]
    for src in sched.sources:
        lines.append(
            f"source {_fmt(src.center.x)} {_fmt(src.center.y)} {src.step} {_fmt(src.rate)}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# formulas


def parse_lsat(text: str) -> LsatFormula:
    n: int | None = None
    m: int | None = None
    clauses: list[tuple[int, ...]] = []

    for no, line in _lines(text, comment_prefixes=("#", "c")):
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError(no, "duplicate header line")
            if len(fields) != 4 or fields[1] != "lsat":
                raise ParseError(no, "expected header 'p lsat <vars> <clauses>'")
            n = _int(fields[2], no, "variable count")
            m = _int(fields[3], no, "clause count")
            if n < 1 or m < 0:
                raise ParseError(no, "counts must be positive")
            continue
        if n is None:
            raise ParseError(no, "clause before 'p lsat' header")
        lits = [_int(tok, no, "literal") for tok in fields]
        if not lits or lits[-1] != 0:
            raise ParseError(no, "clause lines must end with 0")
        if 0 in lits[:-1]:
            raise ParseError(no, "literal 0 before end of clause")
        clauses.append(tuple(lits[:-1]))

    if n is None:
        raise ParseError(1, "missing 'p lsat' header")
    if len(clauses) != m:
        raise ParseError(1, f"header promises {m} clauses, found {len(clauses)}")
    return LsatFormula(variable_count=n, clauses=tuple(clauses))


def write_lsat(formula: LsatFormula) -> str:
    lines = [f"p lsat {formula.variable_count} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators

GENERATOR_KINDS = ("uniform-square", "clustered", "collinear", "lsat-reduction")


def _dedup(coords: list[tuple[float, float]]) -> list[tuple[float, float]]:
    return list(dict.fromkeys(coords))


def generate(
    kind: str,
    n: int = 10,
    seed: int = 0,
    *,
    clusters: int = 3,
    span: float = 10.0,
) -> Instance:
    """Build a deterministic random instance of the given kind.

    The same (kind, n, seed, ...) arguments always produce the identical
    instance.  ``lsat-reduction`` treats n as the formula's variable
    count (at least 2).
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    rng = random.Random(seed)
    name = f"{kind}-{seed}"
    if kind == "uniform-square":
        coords = _dedup([(rng.uniform(0, span), rng.uniform(0, span)) for _ in range(n)])
        return Instance.planar(coords, name=name, seed=seed)
    if kind == "clustered":
        hubs = [(rng.uniform(0, span), rng.uniform(0, span)) for _ in range(max(1, clusters))]
        sigma = span / 20.0
        coords = []
        for _ in range(n):
            hx, hy = rng.choice(hubs)
            coords.append((rng.gauss(hx, sigma), rng.gauss(hy, sigma)))
        return Instance.planar(_dedup(coords), name=name, seed=seed)
    if kind == "collinear":
        xs = sorted({rng.uniform(0, span) for _ in range(n)})
        return Instance.line(xs, name=name, seed=seed)
    if kind == "lsat-reduction":
        if n < 2:
            raise ValueError("lsat-reduction needs n >= 2 variables")
        formula = random_lsat(rng, n)
        inst, _layout = build_reduction(formula)
        return replace(inst, name=name, seed=seed)
    raise ValueError(f"unknown generator kind {kind!r}")
