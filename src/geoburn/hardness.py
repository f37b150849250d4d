"""Designated-source burning gadget built from intersection-restricted SAT.

LSAT is 3-SAT restricted so that each clause, viewed as a literal set,
intersects at most one other clause, and intersecting clauses overlap in
exactly one literal.  A formula with n variables and m clauses becomes a
planar point set of 4n + m points: one point per clause, one per literal,
and one tail point per literal, with the 2n literal points designated as
the only permitted ignition sites.

Variables carry labels 1..n with shared-between-two-3-clause variables
labelled first; the variable labelled r owns the span d = 2n - 2r.  Its
literal points sit at distance d + 1 from their clause points and their
tails at distance d beyond.  The layout keeps every tail farther than
d + 1 from all foreign literal points (and vice versa), which pins each
tail to its own literal's fire and forces the two literal points of the
label-r variable into steps 2r - 1 and 2r of any 2n-step schedule.  A
literal ignited at the odd step burns one step longer than its span and
reaches its clause point; ignited at the even step it reaches only its
tail.  Hence the point set burns in 2n steps from literal points alone
exactly when the formula is satisfiable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from geoburn.core import (
    POINT,
    TOL,
    BurnSchedule,
    BurnSource,
    Instance,
    Model,
    Point,
    distance,
)
from geoburn.cover import fire_masks
from geoburn.oracle import DEFAULT_NODE_BUDGET, _search_steps

ELEMENT_CLEARANCE = 20  # grid spacing n^2 + 20n keeps elements n^2 apart


class PairingError(ValueError):
    """A schedule's literal steps do not pair up label by label."""


@dataclass(frozen=True)
class LsatFormula:
    """Clauses of signed variable indices, e.g. (1, -2, 3)."""

    variable_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses",
                           tuple(tuple(c) for c in self.clauses))

    def satisfied_by(self, assignment) -> bool:
        """Whether assignment[v - 1] makes some literal of every clause true."""
        return all(any((lit > 0) == assignment[abs(lit) - 1] for lit in clause)
                   for clause in self.clauses)


@dataclass
class ReductionLayout:
    """The labeled gadget point set.

    ``roles`` parallels ``points`` with ("clause", clause_index),
    ("literal", lit) or ("tail", lit) tags; ``sources`` lists the literal
    point indices in ascending order.
    """

    points: tuple[Point, ...]
    roles: tuple[tuple[str, int], ...]
    sources: tuple[int, ...]
    labels: dict[int, int]
    literal_points: dict[int, int]
    tail_points: dict[int, int]
    clause_points: tuple[int, ...]
    n: int
    m: int

    def span(self, lit: int) -> int:
        return 2 * self.n - 2 * self.labels[abs(lit)]


@dataclass(frozen=True)
class SeparationReport:
    ok: bool
    min_slack: float
    worst: str


def _intersections(clauses) -> list[tuple[int, int, set[int]]]:
    # (i, j, shared literals) for each intersecting clause pair, i < j
    pairs = ((i, j, set(clauses[i]) & set(clauses[j]))
             for i, j in itertools.combinations(range(len(clauses)), 2))
    return [pair for pair in pairs if pair[2]]


def validate_lsat(formula: LsatFormula) -> tuple[bool, str]:
    """Check the clause-intersection restrictions.

    Every clause holds 1..3 distinct literals over variables
    1..variable_count; a clause intersects at most one other clause; an
    intersecting pair shares exactly one literal.  A variable polarity
    absent from every clause is noted in the message but tolerated: the
    layout gives it a free-standing literal and tail pair.
    """
    n = formula.variable_count
    if n < 1:
        return False, "no variables"
    for ci, clause in enumerate(formula.clauses):
        if not 1 <= len(clause) <= 3:
            return False, f"clause {ci}: size {len(clause)} outside 1..3"
        for lit in clause:
            if not isinstance(lit, int) or lit == 0 or abs(lit) > n:
                return False, f"clause {ci}: literal {lit!r} out of range"
        if len(set(clause)) != len(clause):
            return False, f"clause {ci}: repeated literal"
    partner: dict[int, int] = {}
    for i, j, shared in _intersections(formula.clauses):
        if len(shared) > 1:
            return False, f"clauses {i} and {j}: share {len(shared)} literals"
        for a, b in ((i, j), (j, i)):
            if a in partner:
                return False, f"clause {a}: intersects clauses {partner[a]} and {b}"
            partner[a] = b
    present = {lit for clause in formula.clauses for lit in clause}
    absent = [lit for v in range(1, n + 1) for lit in (v, -v)
              if lit not in present]
    if absent:
        return True, "ok; absent polarities get free-standing points: " + \
            " ".join(str(lit) for lit in absent)
    return True, "ok"


def relabel_variables(formula: LsatFormula) -> dict[int, int]:
    """Assign 1-based labels, heavy variables first, then input order.

    A shared literal is heavy when both clauses of its pair have three
    literals.  Each heavy literal's pair occupies five distinct literals,
    so there are at most 2n/5 heavy literals.
    """
    n = formula.variable_count
    heavy = []
    for i, j, s in _intersections(formula.clauses):
        if len(formula.clauses[i]) == 3 and len(formula.clauses[j]) == 3:
            heavy.append(min(s))
    assert 5 * len(heavy) <= 2 * n, "heavy literal bound violated"
    labels: dict[int, int] = {}
    for v in sorted({abs(s) for s in heavy}):
        labels[v] = len(labels) + 1
    for v in range(1, n + 1):
        if v not in labels:
            labels[v] = len(labels) + 1
    return labels


_PAIR_FIRST = {3: ("below", "left"), 2: ("left",), 1: ()}
_PAIR_SECOND = {3: ("below", "right"), 2: ("right",), 1: ()}
_SINGLE = {3: ("below", "left", "right"), 2: ("left", "right"), 1: ("left",)}


def build_reduction(formula: LsatFormula) -> tuple[Instance, ReductionLayout]:
    """Lay out the gadget point set with concrete coordinates.

    Elements (an intersecting clause pair, a lone clause, or a
    free-standing literal) line up on the x axis with origins
    n^2 + 20n apart, keeping points of different elements more than n^2
    apart.  Within an element the first clause point sits at the origin;
    a shared literal sits on the axis between the two clause points with
    its tail straight up; other literals take the below, left or right
    slot in clause order, tails extending outward.
    """
    ok, msg = validate_lsat(formula)
    if not ok:
        raise ValueError(msg)
    n = formula.variable_count
    if n < 2:
        raise ValueError("at least two variables required")
    m = len(formula.clauses)
    labels = relabel_variables(formula)

    def span(lit: int) -> int:
        return 2 * n - 2 * labels[abs(lit)]

    paired: dict[int, tuple[int, int]] = {}
    for i, j, s in _intersections(formula.clauses):
        paired[i] = (j, min(s))
        paired[j] = (i, min(s))
    elements: list[tuple] = []
    seen: set[int] = set()
    for i in range(m):
        if i in seen:
            continue
        seen.add(i)
        if i in paired:
            j, s = paired[i]
            seen.add(j)
            elements.append(("pair", i, j, s))
        else:
            elements.append(("single", i))
    present = {lit for clause in formula.clauses for lit in clause}
    free = sorted((lit for v in range(1, n + 1) for lit in (v, -v)
                   if lit not in present),
                  key=lambda lit: (labels[abs(lit)], lit < 0))
    elements.extend(("free", lit) for lit in free)

    points: list[Point] = []
    roles: list[tuple[str, int]] = []
    lit_idx: dict[int, int] = {}
    tail_idx: dict[int, int] = {}
    clause_idx: dict[int, int] = {}

    def put(x: float, y: float, role: tuple[str, int]) -> int:
        points.append(Point(float(x), float(y)))
        roles.append(role)
        return len(points) - 1

    def put_literal(lit: int, zx: float, zy: float, tx: float, ty: float):
        lit_idx[lit] = put(zx, zy, ("literal", lit))
        tail_idx[lit] = put(tx, ty, ("tail", lit))

    def put_slot(lit: int, cx: float, slot: str) -> None:
        d = span(lit)
        if slot == "left":
            put_literal(lit, cx - (d + 1), 0.0, cx - (2 * d + 1), 0.0)
        elif slot == "right":
            put_literal(lit, cx + (d + 1), 0.0, cx + (2 * d + 1), 0.0)
        else:
            put_literal(lit, cx, -(d + 1.0), cx, -(2.0 * d + 1))

    spacing = float(n * n + ELEMENT_CLEARANCE * n)
    for ei, element in enumerate(elements):
        ox = ei * spacing
        if element[0] == "pair":
            _, i, j, s = element
            d_s = span(s)
            clause_idx[i] = put(ox, 0.0, ("clause", i))
            vx = ox + 2.0 * (d_s + 1)
            clause_idx[j] = put(vx, 0.0, ("clause", j))
            put_literal(s, ox + d_s + 1.0, 0.0, ox + d_s + 1.0, float(d_s))
            first = [lit for lit in formula.clauses[i] if lit != s]
            for lit, slot in zip(first, _PAIR_FIRST[len(formula.clauses[i])]):
                put_slot(lit, ox, slot)
            second = [lit for lit in formula.clauses[j] if lit != s]
            for lit, slot in zip(second, _PAIR_SECOND[len(formula.clauses[j])]):
                put_slot(lit, vx, slot)
        elif element[0] == "single":
            _, i = element
            clause_idx[i] = put(ox, 0.0, ("clause", i))
            for lit, slot in zip(formula.clauses[i],
                                 _SINGLE[len(formula.clauses[i])]):
                put_slot(lit, ox, slot)
        else:
            _, lit = element
            put_literal(lit, ox, 0.0, ox + span(lit), 0.0)

    assert len(points) == 4 * n + m, "point count must be 4n + m"
    assert len(lit_idx) == 2 * n, "one literal point per polarity"
    for ci, clause in enumerate(formula.clauses):
        for lit in clause:
            got = distance(points[lit_idx[lit]], points[clause_idx[ci]])
            assert abs(got - (span(lit) + 1)) <= 1e-9, "literal offset drifted"
    for lit, zi in lit_idx.items():
        got = distance(points[zi], points[tail_idx[lit]])
        assert abs(got - span(lit)) <= 1e-9, "tail offset drifted"

    sources = tuple(sorted(lit_idx.values()))
    layout = ReductionLayout(points=tuple(points), roles=tuple(roles),
                             sources=sources, labels=labels,
                             literal_points=lit_idx, tail_points=tail_idx,
                             clause_points=tuple(clause_idx[i] for i in range(m)),
                             n=n, m=m)
    report = check_separation(layout)
    if not report.ok:
        raise ValueError(f"layout violates tail separation: {report.worst}")
    inst = Instance(points=tuple(points), sources=sources,
                    name="lsat-reduction")
    return inst, layout


def check_separation(layout: ReductionLayout) -> SeparationReport:
    """Verify the two distance properties underpinning the step pairing.

    For a literal with span d = 2n - 2r: its tail must be farther than
    d + 1 from every literal point except its own, and its literal point
    farther than d + 1 from every tail except its own.  Returns the
    minimum slack over all pairs; the layout is sound when it is
    strictly positive.
    """
    best, worst = math.inf, ""
    for mine, theirs, kind, their_kind in (
            (layout.tail_points, layout.literal_points, "tail", "literal"),
            (layout.literal_points, layout.tail_points, "literal", "tail")):
        for lit, a in mine.items():
            bound = layout.span(lit) + 1
            for other, b in theirs.items():
                slack = distance(layout.points[a], layout.points[b]) - bound
                if other != lit and slack < best:
                    best, worst = slack, f"{kind} {lit} near {their_kind} {other}"
    return SeparationReport(best > 0.0, best, worst)


def assignment_to_schedule(layout: ReductionLayout,
                           assignment) -> BurnSchedule:
    """Ignite each variable's true literal at its label's odd step.

    The variable labelled r gets steps 2r - 1 and 2r: the satisfied
    literal first, its complement second.  T = 2n always; the schedule
    burns everything exactly when the assignment satisfies the formula.
    """
    n = layout.n
    if len(assignment) != n:
        raise ValueError("assignment length must equal the variable count")
    srcs = []
    for var in range(1, n + 1):
        r = layout.labels[var]
        odd = var if assignment[var - 1] else -var
        srcs.append(BurnSource(layout.points[layout.literal_points[odd]],
                               2 * r - 1, 1.0))
        srcs.append(BurnSource(layout.points[layout.literal_points[-odd]],
                               2 * r, 1.0))
    srcs.sort(key=lambda s: s.step)
    return BurnSchedule(Model(POINT), 2 * n, tuple(srcs))


def schedule_to_assignment(layout: ReductionLayout,
                           schedule: BurnSchedule) -> list[bool]:
    """Read a truth assignment off a literal-points-only schedule.

    Each ignition must sit on a literal point; the two literal points of
    the variable labelled r must occupy steps {2r - 1, 2r}, else
    PairingError.  The polarity ignited at the odd step is the true one.
    """
    step_of: dict[int, int] = {}
    for src in schedule.sources:
        hit = None
        for lit, zi in layout.literal_points.items():
            if distance(src.center, layout.points[zi]) <= TOL:
                hit = lit
                break
        if hit is None:
            raise ValueError("schedule ignites a non-literal point")
        if hit in step_of:
            raise ValueError(f"literal {hit} ignited twice")
        step_of[hit] = src.step
    assignment = []
    for var in range(1, layout.n + 1):
        r = layout.labels[var]
        if var not in step_of or -var not in step_of:
            raise PairingError(f"variable {var}: literal points not both ignited")
        got = {step_of[var], step_of[-var]}
        if got != {2 * r - 1, 2 * r}:
            raise PairingError(
                f"variable {var}: steps {sorted(got)} differ from "
                f"[{2 * r - 1}, {2 * r}]")
        assignment.append(step_of[var] % 2 == 1)
    return assignment


def brute_force_burnable(layout: ReductionLayout,
                         horizon: int | None = None) -> BurnSchedule | None:
    """Exhaustively seek a schedule burning everything from literal points.

    Runs the oracle's step search over steps 1..T (default T = 2n) with
    ignitions restricted to the literal points.  Returns a schedule or
    None.  Guarded to at most four variables; the search carries the
    oracle's default node budget and raises CapacityError when it runs
    out.
    """
    n = layout.n
    if n > 4:
        raise ValueError("exhaustive search supports at most four variables")
    T = 2 * n if horizon is None else int(horizon)
    inst = Instance(points=layout.points, sources=layout.sources)
    _got, sched = _search_steps(inst, Model(POINT), T, [DEFAULT_NODE_BUDGET],
                                fire_masks(inst, Model(POINT), layout.sources),
                                len(layout.points) - 1)
    return sched


# (name, literals drawn, clauses as positions of the drawn literals); a
# shape is offered while enough literals remain, in this order
_LSAT_SHAPES = (
    ("single1", 1, ((0,),)),
    ("single2", 2, ((0, 1),)),
    ("single3", 3, ((0, 1, 2),)),
    ("pair22", 3, ((0, 1), (1, 2))),
    ("pair32", 4, ((0, 1, 2), (2, 3))),
    ("pair33", 5, ((0, 1, 2), (2, 3, 4))),
)


def random_lsat(rng, n: int) -> LsatFormula:
    """Random valid formula using every literal of n variables exactly once
    except shared literals, which their two clauses both contain."""
    if n < 2:
        raise ValueError("at least two variables required")
    pool = [lit for v in range(1, n + 1) for lit in (v, -v)]
    rng.shuffle(pool)
    clauses: list[tuple[int, ...]] = []
    while pool:
        _, drawn, shape = rng.choice([s for s in _LSAT_SHAPES if s[1] <= len(pool)])
        lits = [pool.pop() for _ in range(drawn)]
        clauses += [tuple(lits[j] for j in clause) for clause in shape]
    return LsatFormula(n, tuple(clauses))


def sat_brute_force(formula: LsatFormula) -> list[bool] | None:
    """First satisfying assignment over all 2^n candidates, or None."""
    n = formula.variable_count
    for bits in itertools.product((False, True), repeat=n):
        if formula.satisfied_by(bits):
            return list(bits)
    return None
