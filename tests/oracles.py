"""Reference implementations kept as test oracles.

``solve_general`` and ``nullspace_basis`` are the plain ``Fraction``
Gauss-Jordan eliminations that ``tropcay.exactarith`` used before its
fraction-free integer kernel.  Reduced row echelon form is unique, so the
library wrappers must agree with these exactly.
"""

from __future__ import annotations

from fractions import Fraction


def solve_general(a_rows, b_col) -> list[Fraction] | None:
    """One exact solution of a (possibly rectangular) system A x = b.

    Free variables are set to 0.  Returns ``None`` when inconsistent.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b_col[i])] for i, row in enumerate(a_rows)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if aug[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pk = aug[r][c]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c] / pk
                for j in range(c, n + 1):
                    aug[i][j] -= f * aug[r][j]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in pivots:
        x[c] = aug[i][n] / aug[i][c]
    return x


def nullspace_basis(rows) -> list[tuple[Fraction, ...]]:
    """Basis of {x : A x = 0} for a rational matrix given by rows."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(x) for x in row] for row in rows]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pk = a[r][c]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c] / pk
                for j in range(c, n):
                    a[i][j] -= f * a[r][j]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for i, c in pivots:
            v[c] = -a[i][free] / a[i][c]
        basis.append(tuple(v))
    return basis
