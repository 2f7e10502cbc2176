"""Exact strict-feasibility linear programming.

The decision problem solved here is: given rational A and b, is there an
x with A x > b componentwise, and if so produce one.  It is answered by
maximizing a slack s subject to A x - s*1 >= b and 0 <= s <= 1 with an
exact two-phase simplex using Bland's rule, so the solver terminates and
never rounds.

For the homogeneous systems that dominate regularity checking (b = 0)
there is an accelerated path: a floating-point LP proposes either a
witness or an infeasibility (Farkas/Gordan) certificate, and the proposal
is then verified in exact arithmetic.  Verification failures fall back to
the exact simplex, so every answer is exactly certified regardless of
which path produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactarith import DimensionError, solve_general

_FLOAT_SLACK_MIN = 1e-7
_FARKAS_TOL = 1e-9
_WITNESS_DENOM_BITS = (40, 52)


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction] | None = None
    value: Fraction | None = None


def _pivot(tableau, basis, leave, enter):
    row = tableau[leave]
    piv = row[enter]
    inv = Fraction(1) / piv
    tableau[leave] = [v * inv for v in row]
    row = tableau[leave]
    for i, other in enumerate(tableau):
        if other is row:
            continue
        f = other[enter]
        if f:
            tableau[i] = [o - f * r for o, r in zip(other, row)]
    basis[leave] = enter


def _bland_iterate(tableau, basis, ncols):
    """Run simplex pivots under Bland's rule until optimal or unbounded."""
    while True:
        obj = tableau[-1]
        enter = None
        for j in range(ncols):
            if obj[j] > 0:
                enter = j
                break
        if enter is None:
            return "optimal"
        leave = None
        best = None
        for i in range(len(basis)):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded"
        _pivot(tableau, basis, leave, enter)


def simplex_maximize(a_rows, b_col, costs) -> LPResult:
    """Exact simplex for: maximize costs.x subject to A x = b, x >= 0."""
    m = len(a_rows)
    n = len(costs)
    rows = [[Fraction(v) for v in r] for r in a_rows]
    b = [Fraction(v) for v in b_col]
    for i in range(m):
        if len(rows[i]) != n:
            raise DimensionError("constraint row length mismatch")
        if b[i] < 0:
            rows[i] = [-v for v in rows[i]]
            b[i] = -b[i]

    # Phase 1: artificials n..n+m-1, maximize minus their sum.
    total = n + m
    tableau = []
    for i in range(m):
        row = rows[i] + [Fraction(0)] * m + [b[i]]
        row[n + i] = Fraction(1)
        tableau.append(row)
    basis = [n + i for i in range(m)]
    obj = [Fraction(0)] * total + [Fraction(0)]
    for j in range(n, n + m):
        obj[j] = Fraction(-1)
    tableau.append(obj)
    for i in range(m):  # zero out basic columns in the objective row
        tableau[-1] = [o + t for o, t in zip(tableau[-1], tableau[i])]
    status = _bland_iterate(tableau, basis, total)
    assert status == "optimal"  # phase 1 is bounded above by 0
    if tableau[-1][-1] > 0:  # optimum of phase 1 is -rhs of the objective row
        return LPResult("infeasible")

    # Drive remaining artificials out of the basis (degenerate rows).
    drop_rows = []
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if tableau[i][j] != 0), None)
            if enter is None:
                drop_rows.append(i)
            else:
                _pivot(tableau, basis, i, enter)
    if drop_rows:
        tableau = [r for i, r in enumerate(tableau[:-1]) if i not in drop_rows] + [tableau[-1]]
        basis = [v for i, v in enumerate(basis) if i not in drop_rows]

    # Phase 2 on the original columns only.
    tableau = [row[:n] + [row[-1]] for row in tableau]
    obj = [Fraction(c) for c in costs] + [Fraction(0)]
    tableau[-1] = obj
    for i, bv in enumerate(basis):
        f = tableau[-1][bv]
        if f:
            tableau[-1] = [o - f * t for o, t in zip(tableau[-1], tableau[i])]
    status = _bland_iterate(tableau, basis, n)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        x[bv] = tableau[i][-1]
    value = sum(Fraction(c) * xv for c, xv in zip(costs, x))
    return LPResult("optimal", x, value)


def strict_lp_feasible(a, b) -> list[Fraction] | None:
    """Some x with A x > b componentwise, or ``None`` if no such x exists.

    Implemented by maximizing s subject to A x - s*1 >= b, 0 <= s <= 1;
    the strict system is feasible iff the optimum slack is positive.
    """
    rows = [list(r) for r in a]
    m = len(rows)
    b = [Fraction(v) for v in b]
    if len(b) != m:
        raise DimensionError("right-hand side length does not match row count")
    n = len(rows[0]) if m else 0
    if m == 0:
        return [Fraction(0)] * n

    # Columns: u (n), v (n), s, surplus r (m), cap t.  x = u - v.
    ncols = 2 * n + 1 + m + 1
    s_col = 2 * n
    eq_rows = []
    for i in range(m):
        row = [Fraction(0)] * ncols
        for j in range(n):
            row[j] = Fraction(rows[i][j])
            row[n + j] = -Fraction(rows[i][j])
        row[s_col] = Fraction(-1)
        row[2 * n + 1 + i] = Fraction(-1)
        eq_rows.append(row)
    cap = [Fraction(0)] * ncols
    cap[s_col] = Fraction(1)
    cap[ncols - 1] = Fraction(1)
    eq_rows.append(cap)
    rhs = b + [Fraction(1)]
    costs = [Fraction(0)] * ncols
    costs[s_col] = Fraction(1)
    res = simplex_maximize(eq_rows, rhs, costs)
    if res.status != "optimal" or res.value <= 0:
        return None
    return [res.x[j] - res.x[n + j] for j in range(n)]


def strict_homogeneous_feasible(rows):
    """Decide A w > 0 for integer rows; returns (feasible, witness_or_None).

    A floating LP proposes the answer and exact arithmetic certifies it;
    any unverifiable proposal falls back to the exact simplex
    ``strict_lp_feasible``.  The result is exact either way.
    """
    uniq = sorted({tuple(r) for r in rows})
    n = len(uniq[0]) if uniq else 0
    if not uniq:
        return True, tuple()
    for r in uniq:
        if all(v == 0 for v in r):
            return False, None

    answer = _float_guided(uniq, n)
    if answer is not None:
        return answer

    witness = strict_lp_feasible(uniq, [0] * len(uniq))
    if witness is None:
        return False, None
    return True, tuple(witness)


def _float_guided(uniq, n):
    import numpy as np
    from scipy.optimize import linprog

    a = np.array(uniq, dtype=float)
    scale = np.abs(a).max(axis=1)
    scale[scale == 0] = 1.0
    a = a / scale[:, None]
    # minimize -s  s.t.  -A w + s*1 <= 0,  |w| <= 128,  0 <= s <= 1
    a_ub = np.hstack([-a, np.ones((len(uniq), 1))])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    bounds = [(-128.0, 128.0)] * n + [(0.0, 1.0)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(len(uniq)), bounds=bounds, method="highs")
    if res.status != 0:
        return None
    slack = res.x[-1]
    if slack > _FLOAT_SLACK_MIN:
        # Rationalize with one common power-of-two denominator so that the
        # exact verification is pure integer arithmetic.
        for bits in _WITNESS_DENOM_BITS:
            scale = 1 << bits
            nums = [round(float(v) * scale) for v in res.x[:n]]
            if all(sum(c * w for c, w in zip(row, nums)) > 0 for row in uniq):
                return True, tuple(Fraction(num, scale) for num in nums)
        return None
    # Propose a Gordan certificate: y >= 0, y != 0, y^T A = 0.
    try:
        marg = np.asarray(res.ineqlin.marginals)
    except AttributeError:
        return None
    support = [i for i, v in enumerate(marg) if abs(v) > _FARKAS_TOL]
    if not support or len(support) > n + 2:
        return None
    cols = [[Fraction(uniq[i][j]) for i in support] for j in range(n)]
    cols.append([Fraction(1)] * len(support))
    target = [Fraction(0)] * n + [Fraction(1)]
    y = solve_general(cols, target)
    if y is None or any(v < 0 for v in y):
        return None
    full = [Fraction(0)] * len(uniq)
    for k, i in enumerate(support):
        full[i] = y[k]
    for j in range(n):
        if sum(full[i] * uniq[i][j] for i in range(len(uniq))) != 0:
            return None
    return False, None
