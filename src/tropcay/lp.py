"""Exact strict feasibility of linear inequalities: one integer simplex.

``strict_homogeneous_feasible`` decides ``A w > 0`` for an integer matrix
A, the form every regularity check takes; ``strict_lp_feasible`` decides
``A x > b`` for rational A and b by homogenizing it.  ``relaxed_witness``
tries a guessed solution first: it checks the guess, and a few exact
relaxation steps from it, against every row, and only its ``None`` needs
the simplex.

``A w > 0`` describes a cone, so it has a solution iff ``A w >= 1`` has
one.  That system is solved by a simplex in dictionary form over the
integers: basic variable ``i`` is ``(T_i [1, x_N]) / s_i`` for an integer
row ``T_i`` and its own positive scale ``s_i``.  A pivot rewrites only
the rows with a nonzero entry in the entering column and divides each by
the gcd of its entries and its scale, so every row stays primitive and
the others are left as they are; no floating point or ``Fraction`` is
used.  The scales are positive, so each entry has the sign of the
rational value it stands for, and the pivoting rules below read signs
only.

The heights w are free.  Each is first pivoted into the basis; one that
cannot enter is an affine direction that no row depends on, and is set to
0.  A dual simplex with zero costs then drives the slacks ``A w - 1``
non-negative under Bland's least-index rule, which cannot cycle.  It ends
with every slack non-negative, and the basic heights, brought to one
scale and divided by their gcd, are a primitive integer witness, or with
a negative slack row without a positive entry, which gives a Gordan
certificate ``y >= 0``, ``y != 0``, ``y^T A = 0``.  Either answer is
checked in integers before it is returned; a failed check raises.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .exactarith import DimensionError, clear_denominators

# Relaxation steps a guessed witness may take before the simplex decides.
# In the first 1,000 classes of the quadric walk, 759 carried guesses pass
# as they are and 4 steps rescue 209 of the other 241.
_RELAXATION_STEPS = 4


def _pivot(table, scales, p, q):
    """Dictionary pivot: the basic variable of row ``p`` leaves, the
    nonbasic variable of column ``q`` enters.  Only the rows with a nonzero
    entry in column ``q``, row ``p`` among them, are rewritten, each in
    lowest terms with a positive scale."""
    top = table[p]
    a, s = top[q], scales[p]
    for i, row in enumerate(table):
        f = row[q]
        if not f:
            continue
        if i == p:
            # a x_q = s x_p - (the rest of row p)
            row, scale = [-y for y in top], a
            row[q] = s
        else:
            # that x_q substituted into row i
            row, scale = [a * x - f * y for x, y in zip(row, top)], a * scales[i]
            row[q] = f * s
        g = gcd(scale, *row)
        if scale < 0:
            g = -g
        if g != 1:
            row = [x // g for x in row]
            scale //= g
        table[i] = row
        scales[i] = scale


def _simplex(rows):
    """Solve ``A w >= 1`` for integer rows of equal length ``n``.

    Returns ``(witness, None)`` with a primitive integer ``w`` such that
    ``A w > 0``, or ``(None, y)`` with an integer Gordan certificate ``y``,
    one entry per row.  Variable ``i < m`` is the slack of row ``i``;
    variable ``m + j`` is height ``j``.  Bland's rule orders them by that
    index.
    """
    m, n = len(rows), len(rows[0])
    table = [[-1, *row] for row in rows]
    scales = [1] * m
    basic = list(range(m))
    nonbasic = list(range(m, m + n))
    for q in range(1, n + 1):
        p = next((i for i in range(m) if basic[i] < m and table[i][q]), None)
        if p is not None:
            _pivot(table, scales, p, q)
            basic[p], nonbasic[q - 1] = nonbasic[q - 1], basic[p]
    # Heights that never entered are 0; their columns are 0 in every slack row.
    keep = [0] + [q for q in range(1, n + 1) if nonbasic[q - 1] < m]
    table = [[row[q] for q in keep] for row in table]
    nonbasic = [nonbasic[q - 1] for q in keep[1:]]
    # Every scale is positive, so each entry has the sign of its value.
    while True:
        p = min(
            (i for i in range(m) if basic[i] < m and table[i][0] < 0),
            key=basic.__getitem__,
            default=None,
        )
        if p is None:
            heights = [i for i, var in enumerate(basic) if var >= m]
            common = lcm(*[scales[i] for i in heights])
            witness = [0] * n
            for i in heights:
                witness[basic[i] - m] = table[i][0] * (common // scales[i])
            g = gcd(*witness)
            return tuple(x // g for x in witness), None
        top = table[p]
        q = min(
            (q for q in range(1, len(top)) if top[q] > 0),
            key=lambda q: nonbasic[q - 1],
            default=None,
        )
        if q is None:
            # s_p x_p - sum_q T[p][q] x_q = T[p][0] holds for all w, so the
            # linear parts cancel: y = s_p e_p - sum_q T[p][q] e_q.
            certificate = [0] * m
            certificate[basic[p]] = scales[p]
            for var, v in zip(nonbasic, top[1:]):
                certificate[var] = -v
            return None, certificate
        _pivot(table, scales, p, q)
        basic[p], nonbasic[q - 1] = nonbasic[q - 1], basic[p]


def strict_homogeneous_feasible(rows):
    """Decide A w > 0 for integer rows; returns (feasible, witness_or_None).

    The witness is a tuple of integers.  Both answers are certified in
    integer arithmetic: the witness by ``A w > 0``, infeasibility by a
    Gordan certificate.
    """
    uniq = sorted({tuple(r) for r in rows})
    if not uniq:
        return True, ()
    n = len(uniq[0])
    if any(len(r) != n for r in uniq):
        raise DimensionError("constraint row length mismatch")
    witness, y = _simplex(uniq)
    if witness is not None:
        if not all(sum(c * x for c, x in zip(row, witness)) > 0 for row in uniq):
            raise ArithmeticError("simplex witness violates A w > 0")
        return True, witness
    y_a = [sum(yi * row[j] for yi, row in zip(y, uniq)) for j in range(n)]
    if min(y) < 0 or not any(y) or any(y_a):
        raise ArithmeticError("simplex infeasibility certificate is not a Gordan vector")
    return False, None


def relaxation_step(w, row) -> tuple[int, ...]:
    """The primitive integer point on the ray of ``(r.r) w - (r.w - 1) r``.

    On it ``r.w`` is positive (``r.r`` before the division), so one step
    moves ``w`` just inside the half-space of row ``r``.  This is the
    relaxation method for linear inequalities (Agmon; Motzkin and
    Schoenberg, Canad. J. Math., 1954) in integers; ``row`` is nonzero."""
    rr = sum(c * c for c in row)
    t = sum(map(mul, row, w)) - 1
    v = [rr * x - t * c for x, c in zip(w, row)]
    g = gcd(*v)
    return tuple(x // g for x in v)


def relaxed_witness(rows, start) -> tuple[int, ...] | None:
    """``start``, or the point at most ``_RELAXATION_STEPS`` relaxation
    steps reach from it, if it satisfies ``A w > 0``; else ``None``.

    Each step is taken along the first row that the point violates.  The
    answer is checked against every row in integers, so a bad ``start``
    costs only a ``None``."""
    w = tuple(start)
    for step in range(_RELAXATION_STEPS + 1):
        violated = next((row for row in rows if sum(map(mul, row, w)) <= 0), None)
        if violated is None:
            return w
        if step == _RELAXATION_STEPS or not any(violated):  # a zero row holds for no w
            return None
        w = relaxation_step(w, violated)


def strict_lp_feasible(a, b) -> list[Fraction] | None:
    """Some x with A x > b componentwise, or ``None`` if no such x exists.

    Homogenized: a solution (x, t) of A x - b t > 0, t > 0 gives x / t.
    """
    rows = [list(r) for r in a]
    if len(b) != len(rows):
        raise DimensionError("right-hand side length does not match row count")
    n = len(rows[0]) if rows else 0
    system = [
        clear_denominators([*map(Fraction, row), -Fraction(rhs)])[0] for row, rhs in zip(rows, b)
    ]
    system.append([0] * n + [1])
    feasible, witness = strict_homogeneous_feasible(system)
    if not feasible:
        return None
    *x, t = witness
    return [Fraction(v, t) for v in x]
