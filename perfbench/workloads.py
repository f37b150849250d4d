"""Seeded inputs and the operation list of each workload.

The benchmark makes its own inputs, as text in geoburn's instance and
formula formats, so that a change to geoburn's generators cannot change
what is measured.  ``build(workload, seed)`` returns the files to write
and the operations of one round; every run repeats that round.  Sizes,
kinds and the order of operations are the same for every seed: the seed
only moves the points and draws the formulas, so a round's make-up, and
with it the share of failed operations, does not depend on the seed.

Some inputs are drawn from a fixed seed per workload (FIXED_SEED)
instead.  ``k_burning_nonuniform`` and ``point_burning`` can ignite a
point another fire has already burnt: about one random non-uniform
instance in twelve trips the first, and about one random planar instance
in seventy the second (strict or not).  Seeded inputs would make the
failure count depend on the seed, so these pipelines, and the exact
point-model searches that are their references on oracle-desk, read
fixed inputs; the fixed seeds were chosen so that some of them trip the
fault, and the failure count moves when the fault is mended.  The
plane-cover anywhere solves at n = 18 are fixed too: their cost swings
twofold from draw to draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

EPSILON = 0.5
WORKLOADS = ("plane-cover", "large-n", "oracle-desk")


@dataclass(frozen=True)
class Op:
    """One public call of geoburn, with what it needs and how to check it.

    ``call`` names the function, ``file`` the input it reads, ``args`` the
    remaining arguments.  ``ref`` names the operation whose horizon is
    this one's exact reference (oracle-desk); without it the reference
    is the certified packing lower bound.
    """

    label: str
    call: str
    file: str
    args: dict = field(default_factory=dict)
    ref: str | None = None


@dataclass
class Workload:
    name: str
    seed: int
    files: dict[str, str]
    ops: list[Op]


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{seed}/{salt}")


def _span(n: int) -> float:
    # the spread grows with n, so the burning number grows too
    return 10.0 * math.sqrt(n / 20.0)


def _instance_text(name, coords, rates=None, sources=None, dim=2) -> str:
    lines = ["geoburn instance", f"dim {dim}", f"name {name}"]
    for j, (x, y) in enumerate(coords):
        rate = "" if rates is None else f" {rates[j]!r}"
        lines.append(f"point {x!r} {y!r}{rate}")
    if sources is not None:
        lines.append("sources " + " ".join(str(i) for i in sources))
    return "\n".join(lines) + "\n"


def _uniform(rng, n, span):
    return [(rng.uniform(0.0, span), rng.uniform(0.0, span)) for _ in range(n)]


def _clustered(rng, n, span, hubs=3):
    centers = [(rng.uniform(0.0, span), rng.uniform(0.0, span)) for _ in range(hubs)]
    sigma = span / 20.0
    out = []
    for _ in range(n):
        hx, hy = rng.choice(centers)
        out.append((rng.gauss(hx, sigma), rng.gauss(hy, sigma)))
    return out


def _collinear(rng, n, length):
    return [(x, 0.0) for x in sorted(rng.uniform(0.0, length) for _ in range(n))]


def _lsat_text(rng, n) -> str:
    # every literal of n variables once, grouped into clauses of one to
    # three literals; some clause pairs share exactly one literal, and a
    # clause meets at most one other
    pool = [lit for v in range(1, n + 1) for lit in (v, -v)]
    rng.shuffle(pool)
    clauses = []
    while pool:
        left = len(pool)
        if left >= 5 and rng.random() < 0.3:
            a, b, c, d, e = (pool.pop() for _ in range(5))
            clauses += [(a, b, c), (c, d, e)]
        elif left >= 3 and rng.random() < 0.3:
            a, b, c = (pool.pop() for _ in range(3))
            clauses += [(a, b), (b, c)]
        else:
            clauses.append(tuple(pool.pop() for _ in range(min(left, rng.randint(1, 3)))))
    lines = [f"p lsat {n} {len(clauses)}"]
    lines += [" ".join(str(lit) for lit in c) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


# seeds of the inputs that do not follow --seed (see the module docstring)
FIXED_SEED = {"plane-cover": 3, "large-n": 6, "oracle-desk": 3}
# (n, k) of the k_burning_nonuniform inputs
LARGE_NONUNIFORM = ((500, 1), (500, 2), (500, 3), (750, 1), (1000, 3))
DESK_NONUNIFORM = ((8, 1), (8, 3), (9, 1), (9, 2), (10, 1), (10, 2), (10, 3))
# side of the square for the seeded anywhere solve at n = 152: at it its
# cost varies about half as much from draw to draw as at 10 sqrt(n / 20)
WIDE_SPAN = 40.0
# (n, span, instances): spans at which the exact anywhere burning number
# is 5 for nearly every draw, so the cost of the exact search varies little
DESK_PLANAR = ((10, 18.0, 8), (12, 14.0, 20))
NONUNIFORM_RATES = (1.0, 1.5, 2.0)


def _nonuniform_text(name, n, fixed_seed, span) -> str:
    rng = _rng(fixed_seed, name)
    coords = _uniform(rng, n, span)
    rates = [rng.choice(NONUNIFORM_RATES) for _ in range(n)]
    return _instance_text(name, coords, rates)


def _planar(seed, f, kind, n) -> str:
    gen = _uniform if kind == "u" else _clustered
    return _instance_text(f, gen(_rng(seed, f), n, _span(n)))


def _plane_cover(seed: int) -> Workload:
    files: dict[str, str] = {}
    ops: list[Op] = []
    fixed = FIXED_SEED["plane-cover"]
    # anywhere candidates include circumcenters up to n = 40 and are the
    # input points alone above n = 150; the midpoint band between is left
    # out (see the README).  Four slow solves (n = 152, anywhere at n = 18)
    # sit above thirty fixed uniform point inputs at n 24-40, whose ranks
    # hold op_s.tail and op_s.p50; the seeded small anywhere solves sit
    # below them.  The anywhere solves at n = 18 are fixed too, and the
    # seeded one at n = 152 has the wider side WIDE_SPAN: both keep the
    # seed from swinging ops_per_s.
    point = ([("pt-u152", "u", 152)]
             + [(f"pt-u{n}-{rep}", "u", n) for rep in range(6) for n in (24, 28, 32, 36, 40)]
             + [(f"pt-c{n}-{rep}", "c", n) for rep in range(2) for n in (28, 32, 36)])
    for f, kind, n in point:
        files[f] = _planar(fixed, f, kind, n)
        ops.append(Op(f, "point_burning", f))
    for rep in range(2):
        f = f"any-u18-{rep}"
        files[f] = _planar(fixed, f, "u", 18)
        ops.append(Op(f, "anywhere_burning", f))
    f = "any-u152"
    files[f] = _instance_text(f, _uniform(_rng(seed, f), 152, WIDE_SPAN))
    ops.append(Op(f, "anywhere_burning", f))
    for rep in range(2):
        for kind, n in (("u", 8), ("u", 10), ("c", 8), ("c", 10), ("c", 12)):
            f = f"any-{kind}{n}-{rep}"
            files[f] = _planar(seed, f, kind, n)
            ops.append(Op(f, "anywhere_burning", f))
    return Workload("plane-cover", seed, files, ops)


def _large_n(seed: int) -> Workload:
    files: dict[str, str] = {}
    ops: list[Op] = []
    # seven slow solves (k_burning_nonuniform, the line) sit above
    # thirty-three max-burn solves, whose cost hardly depends on where the
    # points fall; their ranks hold op_s.tail and op_s.p50
    for n, k in LARGE_NONUNIFORM:
        f = f"nonuniform-{n}-k{k}"
        files[f] = _nonuniform_text(f, n, FIXED_SEED["large-n"], _span(n))
        ops.append(Op(f, "k_burning_nonuniform", f, {"k": k}))
    f = "line-2500"
    files[f] = _instance_text(f, _collinear(_rng(seed, f), 2500, 2500 / 4.0), dim=1)
    for model in ("anywhere", "point"):
        ops.append(Op(f"{f}-{model}", "ptas_burning_line", f, {"model": model}))
    for j in range(33):
        n = 1000 + 1000 * j // 32
        f = f"maxburn-{n}-{j}"
        rng = _rng(seed, f)
        coords = _uniform(rng, n, _span(n))
        files[f] = _instance_text(f, coords, sources=sorted(rng.sample(range(n), 12)))
        ops.append(Op(f, "max_burn_schedule", f, {"q": 6}))
    return Workload("large-n", seed, files, ops)


def _oracle_desk(seed: int) -> Workload:
    files: dict[str, str] = {}
    ops: list[Op] = []
    # twenty instances at n = 12 hold the rank of op_s.tail in their exact
    # anywhere searches.  The point-model pair reads fixed instances of
    # the same sizes, since strict point_burning can trip the known fault.
    for n, span, reps in DESK_PLANAR:
        for rep in range(reps):
            for model, gen_seed in (("anywhere", seed), ("point", FIXED_SEED["oracle-desk"])):
                f = f"desk-{n}-{rep}-{model}"
                files[f] = _instance_text(f, _uniform(_rng(gen_seed, f), n, span))
                ops.append(Op(f"{f}-exact", "exact_burning_number", f, {"model": model}))
                ops.append(Op(f"{f}-strict", f"{model}_burning", f, {"strict": True},
                              ref=f"{f}-exact"))
    for n, k in DESK_NONUNIFORM:
        f = f"desk-nonuniform-{n}-k{k}"
        # a side 1.3 times the usual one: burning numbers of 2-4 here
        files[f] = _nonuniform_text(f, n, FIXED_SEED["oracle-desk"], _span(n) * 1.3)
        ops.append(Op(f"{f}-exact", "exact_burning_number", f,
                      {"model": "point", "k": k}))
        ops.append(Op(f"{f}-strict", "k_burning_nonuniform", f,
                      {"k": k, "strict": True}, ref=f"{f}-exact"))
    for n in (8, 10):
        f = f"desk-line-{n}"
        files[f] = _instance_text(f, _collinear(_rng(seed, f), n, 3.0 * n), dim=1)
        for model in ("point", "anywhere"):
            ops.append(Op(f"{f}-exact-{model}", "exact_burning_number", f,
                          {"model": model}))
            ops.append(Op(f"{f}-ptas-{model}", "ptas_burning_line", f,
                          {"model": model}, ref=f"{f}-exact-{model}"))
    for n in (7, 9):
        f = f"desk-maxburn-{n}"
        rng = _rng(seed, f)
        coords = _uniform(rng, n, 6.0)
        files[f] = _instance_text(f, coords, sources=sorted(rng.sample(range(n), 4)))
        ops.append(Op(f"{f}-exact", "exact_max_burn", f, {"q": 3}))
        ops.append(Op(f"{f}-greedy", "max_burn_schedule", f, {"q": 3},
                      ref=f"{f}-exact"))
    for v in (2, 3, 4):
        f = f"lsat-{v}"
        files[f] = _lsat_text(_rng(seed, f), v)
        ops.append(Op(f"{f}-build", "build_reduction", f))
        ops.append(Op(f"{f}-bruteforce", "brute_force_burnable", f))
    return Workload("oracle-desk", seed, files, ops)


def items(ops: list, key=lambda op: op.file) -> list[list]:
    """Runs of consecutive operations on one file; each runs in its order."""
    out: list[list] = []
    for op in ops:
        if out and key(out[-1][0]) == key(op):
            out[-1].append(op)
        else:
            out.append([op])
    return out


def build(workload: str, seed: int) -> Workload:
    """The files and the round of operations of one workload and seed."""
    makers = {"plane-cover": _plane_cover, "large-n": _large_n,
              "oracle-desk": _oracle_desk}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    wl = makers[workload](seed)
    # the machine's speed drifts over seconds: mixing the kinds of
    # operation through the round keeps a slow spell from landing on one
    # kind alone.  The order is the same for every seed.
    groups = items(wl.ops)
    random.Random(workload).shuffle(groups)
    wl.ops = [op for group in groups for op in group]
    return wl
