import random
from fractions import Fraction
from itertools import combinations

from tropcay.exactarith import solve_general
from tropcay.lp import (
    simplex_maximize,
    strict_homogeneous_feasible,
    strict_lp_feasible,
)


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
            y = solve_general(cols, [Fraction(0)] * n + [Fraction(1)])
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
        wit_slow = strict_lp_feasible(rows, [0] * len(rows))
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
