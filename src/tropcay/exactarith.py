"""Exact rational arithmetic and exact integer linear algebra.

Rational values are plain ``fractions.Fraction`` objects, which already
guarantee lowest terms and a positive denominator.  This module adds
string (de)serialization, exact linear algebra over Q, and lattice
(Hermite-style) row bases over Z.

All linear algebra over Q runs through one fraction-free Gauss-Jordan
kernel (Bareiss) on integer rows.  Rational rows are first scaled to
integers by ``clear_denominators``; every intermediate value is then an
integer minor, so each division is exact.  ``det_int``,
``solve_rational`` and ``basis_coordinates_int`` are thin wrappers that
read the reduced rows and pivots.  Lattice bases need unimodular row
operations over Z and use their own Hermite reduction.

Everything here is pure and exact; no floating point is ever used.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse "p/q" or "p" (also accepts ints and Fractions unchanged).

    Raises ``ValueError`` for anything else, a zero denominator included.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    s = str(text).strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {text!r}") from None


def format_rational(value: Fraction | int) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class DimensionError(ValueError):
    """Raised when matrix/vector shapes do not line up."""


def clear_denominators(values) -> tuple[list[int], int]:
    """Scale ints/Fractions by the lcm of their denominators.

    Returns the scaled integers and that lcm.  Scaling a row of a linear
    system by a positive constant leaves its solution set unchanged.
    """
    den = 1
    for v in values:
        den = lcm(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in values], den


def _integer_rows(rows) -> list[list[int]]:
    return [clear_denominators(row)[0] for row in rows]


def _eliminate(
    rows: list[list[int]], ncols: int
) -> tuple[list[list[int]], list[tuple[int, int]], int]:
    """Fraction-free Gauss-Jordan reduction of integer rows (Bareiss).

    Returns ``(a, pivots, sign)``: the reduced rows, the (row, column)
    pivot pairs in order, and the sign of the row swaps.  Afterwards
    every pivot entry equals the last pivot ``d``, every other entry of a
    pivot column is 0, and ``a / d`` is the reduced row echelon form.
    Every intermediate entry is a minor of the input, so each division
    is exact.
    """
    a = [list(r) for r in rows]
    m = len(a)
    pivots: list[tuple[int, int]] = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top = a[r]
        p = top[c]
        for i in range(m):
            if i != r:
                f = a[i][c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        pivots.append((r, c))
        prev = p
    return a, pivots, sign


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix: the last fraction-free pivot."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("det_int needs a square matrix")
    if n == 0:
        return 1
    a, pivots, sign = _eliminate(rows, n)
    return sign * a[-1][-1] if len(pivots) == n else 0


def solve_rational(a_rows, b_col) -> list[Fraction] | None:
    """Solve a square system A x = b exactly; ``None`` if A is singular."""
    n = len(a_rows)
    if any(len(r) != n for r in a_rows):
        raise DimensionError("solve_rational needs a square matrix")
    aug = _integer_rows([*row, b_col[i]] for i, row in enumerate(a_rows))
    a, pivots, _ = _eliminate(aug, n + 1)
    if [c for _, c in pivots] != list(range(n)):
        return None
    return [Fraction(a[i][n], a[i][c]) for i, c in pivots]


def basis_coordinates_int(cols: list[tuple[int, ...]]) -> tuple[int, list[list[int]]] | None:
    """Every integer column's coordinates in the basis of the first ones.

    With ``k`` entries per column and the first ``k`` columns linearly
    independent, returns ``(d, a)``: ``d`` is the last fraction-free pivot
    (the determinant of the first ``k`` columns, up to sign) and
    ``a[i][j] / d`` is the ``i``-th coordinate of column ``j``, so
    ``d * cols[j] == sum_i a[i][j] * cols[i]``.  Returns ``None`` if the
    first ``k`` columns are dependent.  One elimination serves every
    column.
    """
    k = len(cols[0])
    a, pivots, _ = _eliminate(list(zip(*cols)), len(cols))
    if len(pivots) < k or pivots[-1][1] != k - 1:
        return None
    return a[-1][k - 1], a


def lattice_row_basis(vectors) -> list[list[int]]:
    """Echelon basis of the integer lattice generated by the given rows.

    Hermite-style reduction: the returned rows are a Z-basis of the
    row lattice, in echelon form with positive pivots.
    """
    basis: list[list[int]] = []  # kept sorted by pivot column
    pivcol: list[int] = []
    for vec in vectors:
        v = list(vec)
        k = 0
        while True:
            lead = next((j for j, x in enumerate(v) if x != 0), None)
            if lead is None:
                break
            while k < len(basis) and pivcol[k] < lead:
                k += 1
            if k == len(basis) or pivcol[k] > lead:
                if v[lead] < 0:
                    v = [-x for x in v]
                basis.insert(k, v)
                pivcol.insert(k, lead)
                break
            # combine with the existing row at the same pivot column
            b = basis[k]
            p = b[lead]
            q = v[lead]
            g, s, t = _xgcd(p, q)
            new_b = [s * b[j] + t * v[j] for j in range(len(v))]
            v = [(p // g) * v[j] - (q // g) * b[j] for j in range(len(v))]
            basis[k] = new_b
    return basis


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with s*a + t*b = g > 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def coords_in_row_basis(basis: list[list[int]], vec) -> list[int] | None:
    """Integer coordinates of ``vec`` in an echelon lattice row basis.

    Returns ``None`` if ``vec`` is not in the lattice spanned by the basis.
    """
    v = list(vec)
    coords = [0] * len(basis)
    for k, b in enumerate(basis):
        lead = next(j for j, x in enumerate(b) if x != 0)
        if v[lead] % b[lead] != 0:
            return None
        c = v[lead] // b[lead]
        coords[k] = c
        if c:
            v = [v[j] - c * b[j] for j in range(len(v))]
    if any(x != 0 for x in v):
        return None
    return coords
