import math
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import simplex_maximize
from test_triangulation import nested_triangles
from tropcay import lp
from tropcay.lp import _simplex, strict_homogeneous_feasible, strict_lp_feasible
from tropcay.geometry import cayley_config, simplex_lattice_points
from tropcay.triangulation import flip_engine, placing_triangulation


def test_simplex_basic_maximum():
    # max x + y st x + 2y <= 4, 3x + y <= 6 (slacks appended)
    res = simplex_maximize(
        [[1, 2, 1, 0], [3, 1, 0, 1]],
        [4, 6],
        [1, 1, 0, 0],
    )
    assert res.status == "optimal"
    assert res.value == Fraction(14, 5)


def test_simplex_infeasible():
    res = simplex_maximize([[1, 0], [1, 0]], [1, 2], [0, 0])
    assert res.status == "infeasible"


def test_simplex_unbounded():
    # max x st x - y = 0 (x can grow with y)
    res = simplex_maximize([[1, -1]], [0], [1, 0])
    assert res.status == "unbounded"


def test_strict_feasible_one_dimensional_cone():
    w = strict_lp_feasible([[1]], [0])
    assert w is not None and w[0] > 0


def test_strict_feasible_contradictory_pair():
    assert strict_lp_feasible([[1], [-1]], [0, 0]) is None


def test_strict_feasible_inhomogeneous():
    # x > 3 and -x > -10, i.e. 3 < x < 10
    w = strict_lp_feasible([[1], [-1]], [3, -10])
    assert w is not None and 3 < w[0] < 10
    # x > 3 and -x > -3 is empty
    assert strict_lp_feasible([[1], [-1]], [3, -3]) is None


def test_witness_satisfies_everything_strictly():
    rng = random.Random(99)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-3, 3) for _ in range(m)]
        w = strict_lp_feasible(a, b)
        if w is not None:
            for row, rhs in zip(a, b):
                assert sum(c * x for c, x in zip(row, w)) > rhs


def _brute_infeasibility_certificate(rows):
    """Exhaustive vertex enumeration of {y >= 0, y^T A = 0, sum y = 1}.

    Independent of the simplex code: tries every potential support and
    solves the square-ish system directly.  Returns a certificate vector
    or None.  Only usable for small systems.
    """
    m = len(rows)
    n = len(rows[0])
    for size in range(1, min(m, n + 1) + 1):
        for support in combinations(range(m), size):
            cols = [[Fraction(rows[i][j]) for i in support] for j in range(n)]
            cols.append([Fraction(1)] * size)
            y = oracles.solve_general(cols, [Fraction(0)] * n + [Fraction(1)])
            if y is None or any(v < 0 for v in y):
                continue
            full = [Fraction(0)] * m
            for k, i in enumerate(support):
                full[i] = y[k]
            if all(sum(full[i] * rows[i][j] for i in range(m)) == 0 for j in range(n)):
                return full
    return None


def test_homogeneous_hybrid_matches_exact():
    rng = random.Random(4321)
    for _ in range(120):
        m, n = rng.randint(1, 7), rng.randint(1, 4)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)]
        fast, wit_fast = strict_homogeneous_feasible(rows)
        wit_slow = oracles.strict_lp_feasible(rows, [0] * len(rows))
        slow = wit_slow is not None
        assert fast == slow
        for feasible, witness in ((fast, wit_fast), (slow, wit_slow)):
            if feasible:
                assert all(sum(c * x for c, x in zip(row, witness)) > 0 for row in rows)
        # cross-check infeasibility against the brute-force dual search
        if not fast:
            assert _brute_infeasibility_certificate([list(r) for r in rows]) is not None


def test_homogeneous_zero_row_is_infeasible():
    feasible, _ = strict_homogeneous_feasible([(0, 0), (1, 0)])
    assert not feasible


def test_homogeneous_empty_system_is_feasible():
    feasible, witness = strict_homogeneous_feasible([])
    assert feasible and witness == ()


@contextmanager
def _pivot_budget(limit=1000):
    """Fail, instead of hanging, when the simplex does not terminate."""
    pivot, count = lp._pivot, []

    def bounded(*args):
        count.append(1)
        assert len(count) <= limit, "the simplex cycles"
        return pivot(*args)

    lp._pivot = bounded
    try:
        yield
    finally:
        lp._pivot = pivot


def _nested_triangle_rows():
    """Global regularity rows of the non-regular nested triangles (a
    superset of its local rows), from the oracle, and its local rows."""
    cfg, t = nested_triangles()
    engine = flip_engine(cfg)
    masks = engine.to_masks(t.cells)
    return oracles.global_rows(engine, masks), engine.regularity_rows(masks, engine.wall_circuits(masks))


_NESTED_GLOBAL, _NESTED_LOCAL = _nested_triangle_rows()


def _quadric_rows():
    """The local and global regularity rows of the quadric triangulation
    that a seeded walk over regular neighbors has reached when it first
    meets a neighbor that is not regular, then those of that neighbor."""
    cfg = cayley_config(simplex_lattice_points(3, 2), simplex_lattice_points(3, 2))
    engine = flip_engine(cfg)
    masks = engine.to_masks(placing_triangulation(cfg).cells)
    rng, non_regular = random.Random(5), None
    while non_regular is None:
        regular = []
        for _flip, child in engine.neighbors(masks):
            if engine.solve(engine.regularity_rows(child, engine.wall_circuits(child))) is not None:
                regular.append(child)
            elif non_regular is None:
                non_regular = child
        masks = rng.choice(regular)
    return [
        rows
        for m in (masks, non_regular)
        for rows in (
            engine.regularity_rows(m, engine.wall_circuits(m)),
            sorted({row for cm in m for row in engine.cell(cm)[1] if row is not None}),
        )
    ]


_QUADRIC = _quadric_rows()


@st.composite
def random_systems(draw):
    """Integer rows with entries in [-5, 5], some zero, repeated or
    combinations of earlier rows (rank-deficient)."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    entry = st.integers(-5, 5)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(m):
        kind = draw(st.sampled_from(["random", "zero", "copy", "combination"]))
        if kind == "zero":
            rows[i] = [0] * n
        elif kind == "copy" and i:
            rows[i] = list(rows[draw(st.integers(0, i - 1))])
        elif kind == "combination" and i:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows[i] = [s * x + t * y for x, y in zip(rows[j], rows[k])]
    return rows


_SYSTEMS = st.one_of(
    random_systems(),
    st.lists(st.sampled_from(_NESTED_GLOBAL), min_size=1, max_size=len(_NESTED_GLOBAL)),
)


_RHS = st.lists(st.integers(-5, 5), min_size=len(_NESTED_GLOBAL), max_size=len(_NESTED_GLOBAL))


@settings(max_examples=300, deadline=None)
@given(_SYSTEMS, _RHS)
@example(_NESTED_LOCAL, [0] * len(_NESTED_GLOBAL))
@example(_NESTED_GLOBAL, [0] * len(_NESTED_GLOBAL))
@example(_QUADRIC[0], [0] * len(_QUADRIC[0]))
@example(_QUADRIC[1], [0] * len(_QUADRIC[1]))
@example(_QUADRIC[2], [0] * len(_QUADRIC[2]))
@example(_QUADRIC[3], [0] * len(_QUADRIC[3]))
def test_integer_simplex_matches_fraction_oracle(rows, rhs):
    uniq = sorted({tuple(r) for r in rows})
    b = rhs[: len(rows)]
    with _pivot_budget():
        witness, certificate = _simplex(uniq)
        feasible, _ = strict_homogeneous_feasible(rows)
        x = strict_lp_feasible(rows, b)
    if witness is not None:
        assert all(isinstance(v, int) for v in witness) and math.gcd(*witness) == 1
        assert all(sum(c * v for c, v in zip(row, witness)) > 0 for row in uniq)
    else:
        assert all(isinstance(y, int) and y >= 0 for y in certificate) and any(certificate)
        assert all(sum(y * row[j] for y, row in zip(certificate, uniq)) == 0 for j in range(len(uniq[0])))
    assert feasible == (witness is not None)
    # the dense simplex pivots alike, with one denominator for every row
    dense_witness, dense_certificate = oracles.dense_simplex(uniq)
    if witness is not None:
        assert _positive_multiple(witness, dense_witness)
    else:
        assert _positive_multiple(certificate, dense_certificate)
    if len(uniq) > 100:
        return  # the Fraction simplex takes minutes on a global quadric system
    assert feasible == (oracles.strict_lp_feasible(rows, [0] * len(rows)) is not None)
    assert (x is None) == (oracles.strict_lp_feasible(rows, b) is None)
    if x is not None:
        assert all(sum(c * v for c, v in zip(row, x)) > bi for row, bi in zip(rows, b))


def _positive_multiple(u, v) -> bool:
    """Whether ``u == c v`` for some ``c > 0``; ``v`` is nonzero."""
    k = next(i for i, y in enumerate(v) if y)
    return u[k] * v[k] > 0 and all(x * v[k] == y * u[k] for x, y in zip(u, v))


# With zero costs every dual pivot is degenerate, so a simplex without
# Bland's rule can cycle.  The first system cycles when the entering
# column is the least column position, the second when it is the largest
# entry; Bland's rule needs 10 and 12 pivots, and at most 36 on 50,000
# random systems of up to 13 rows.
_CYCLING = [
    [(-3, -3, 3, -2, 0, 1), (-3, -1, 2, -2, -2, 2), (-3, 0, 0, 2, -3, 3), (-3, 2, 2, 3, 3, 3),
     (-2, 0, 1, 1, -1, -2), (-1, 1, 0, 0, 3, 2), (0, -2, 1, 0, -1, -2), (1, 0, -1, 0, 3, 1),
     (1, 3, 0, 2, -2, 3), (2, -1, 1, 1, 3, 0), (3, -2, 1, -1, 2, -3), (3, 1, 3, 1, -2, 2)],
    [(-5, -3, -4, -5), (-5, 3, 3, -3), (-4, -3, 5, 5), (-2, -2, 3, -3), (-1, -3, 2, -3),
     (-1, 5, -4, 1), (0, -4, 1, 1), (0, 3, 3, 5), (1, -4, 2, 4), (2, 5, 4, -5), (3, 3, 4, -4),
     (4, 2, -1, 0)],
]


@pytest.mark.parametrize("rows", _CYCLING, ids=["least-position-cycles", "largest-entry-cycles"])
def test_bland_rule_does_not_cycle(rows):
    with _pivot_budget():
        feasible, _ = strict_homogeneous_feasible(rows)
    assert feasible == (oracles.strict_lp_feasible(rows, [0] * len(rows)) is not None)


@settings(max_examples=300, deadline=None)
@given(random_systems(), st.data())
def test_relaxed_witness_is_certified_or_none(rows, data):
    # A relaxed witness satisfies every row strictly; an infeasible system
    # never gets one, whatever the start.
    n = len(rows[0])
    start = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    witness = lp.relaxed_witness(rows, start)
    feasible, _ = strict_homogeneous_feasible(rows)
    if witness is not None:
        assert all(sum(c * v for c, v in zip(row, witness)) > 0 for row in rows)
    assert feasible or witness is None
    row = data.draw(st.sampled_from(rows))
    if any(row) and any(start):
        stepped = lp.relaxation_step(start, row)
        assert sum(c * v for c, v in zip(row, stepped)) > 0
        assert math.gcd(*stepped) == 1


def test_relaxed_witness_takes_a_bounded_number_of_steps():
    # The start violates the first row; one step along it satisfies both.
    rows = [(1, 0), (0, 1)]
    assert lp.relaxed_witness(rows, (1, 1)) == (1, 1)
    assert lp.relaxed_witness(rows, (-3, 1)) == (1, 1)
    # 2x - y > 0 and y - 2x > 0 contradict each other, so every step
    # fails and the answer is left to the simplex.
    assert lp.relaxed_witness([(2, -1), (-2, 1)], (5, 3)) is None
