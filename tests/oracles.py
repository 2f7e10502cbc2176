"""Reference implementations kept as test oracles.

``solve_general`` and ``nullspace_basis`` are the plain ``Fraction``
Gauss-Jordan eliminations that ``tropcay.exactarith`` used before its
fraction-free integer kernel.  Reduced row echelon form is unique, so the
library wrappers must agree with these exactly.  ``rank_int`` and
``kernel_vector_int`` are read from ``nullspace_basis``; no library code
needs a rank or a kernel vector, and the oracles below that do no longer
run the kernel they check.

``placing_cells`` and ``regular_subdivision`` are the ``Fraction``-chart
beneath-beyond and the exhaustive search over spanning subsets that
``tropcay.geometry`` used before its lifted lower hull.  A placing
triangulation is determined by the insertion order and a regular
subdivision by the heights, so the library must agree with these exactly.

``constraint_row`` is the regularity row that ``FlipEngine`` built from
``Fraction`` barycentric coordinates before its circuit table.  The row
is the primitive affine dependence of a cell and an outside point,
positive at the point, so ``FlipEngine.circuit`` must agree exactly.
``global_rows`` lists those rows for every cell and outside point: the
system ``is_regular(t, mode="global")`` solves.  ``points_inside`` is
the mask of points whose ``Fraction`` barycentric coordinates in a cell
are all non-negative, which the ``inside`` mask of ``FlipEngine.cell``
must equal.  ``cell_entry`` is the whole entry from one fraction-free
elimination of all points against the cell's vertices, as the engine
built every entry before it derived them by vertex exchange; the
engine's entries must equal it exactly.  ``local_circuits`` is the scan
``FlipEngine.local_circuits`` ran before that mask: every unused point is
tried against every cell by the signs of its row, here ``constraint_row``;
the two must agree as ordered lists.

``simplex_maximize`` and ``strict_lp_feasible`` are the ``Fraction``
two-phase simplex (Bland's rule) that ``tropcay.lp`` used before its
integer simplex.  Strict feasibility is a yes/no question, so the
library's verdicts must agree with these exactly; witnesses may differ.
``dense_simplex`` is the integer simplex ``tropcay.lp`` ran before its
rows kept their own scales: one fraction-free denominator for the whole
dictionary, every row rewritten at every pivot.  Its pivot rules read the
same signs, so the library's witness and certificate must be positive
multiples of this oracle's.

``validate_triangulation`` is the check ``tropcay.triangulation`` used
before ``FlipEngine.check_triangulation`` read circuit signs: besides the
volume sum and the facet count, it asks of every pair of cells whether
a strict LP finds a hyperplane through their common face separating the
rest of the two cells.  Being a triangulation is a yes/no question, so
the library's verdicts must agree with it exactly.

``certify_affine_action`` is the check ``SymmetryGroup.from_generators``
ran before it read circuits: it solves ``Fraction`` systems for the affine
map fixed by one simplex, then requires an integer matrix of determinant
+-1 that sends every point to its image.  Being a lattice symmetry is a
yes/no question, so the library must accept exactly the permutations
this oracle accepts.

``verify_closure`` re-checks a completed enumeration without its walk:
every regular class is regular again by ``is_regular`` on its local
system, and every flip neighbor of every regular class, canonicalized,
must be in the visited set.
``cold_walk`` is the breadth-first walk with a cold simplex for every
verdict, as the enumerator ran before it carried witnesses across flips;
the enumerator's visited classes and verdicts must equal its own.
``histogram_by_cycle_length`` counts a ``ClassTable``'s classes by cycle
length, the figure the tests compare with the paper.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from tropcay.exactarith import (
    DimensionError,
    basis_coordinates_int,
    clear_denominators,
    det_int,
    solve_rational,
)
from tropcay.geometry import (
    PointConfiguration,
    Subdivision,
    WeightVector,
    affine_reduce,
    normalized_volume,
)
from tropcay.lp import strict_homogeneous_feasible
from tropcay.triangulation import RelabelContext, Triangulation, flip_engine, is_regular, placing_triangulation


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


def rank_int(rows) -> int:
    """Rank of a rational matrix: its column count less its nullity."""
    return len(rows[0]) - len(nullspace_basis(rows)) if rows else 0


def kernel_vector_int(cols) -> tuple[int, ...] | None:
    """The primitive integer vector v, first nonzero entry positive, with
    sum_i v_i * cols[i] = 0; ``None`` if the columns are independent.
    Raises ``ValueError`` if the kernel has dimension two or more."""
    basis = nullspace_basis(list(zip(*cols)))
    if not basis:
        return None
    if len(basis) > 1:
        raise ValueError("kernel is not one-dimensional")
    v, _ = clear_denominators(basis[0])
    g = gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v)


def _functional_through(rows):
    """Primitive integer functional vanishing on all given (coord..., 1) rows."""
    ncols = len(rows[0])
    cols = [tuple(r[j] for r in rows) for j in range(ncols)]
    return kernel_vector_int(cols)


def placing_cells(points, order=None):
    """Placing triangulation of a list of points (exact beneath-beyond).

    Points are inserted in the given order; each either extends the hull
    (cone over strictly visible boundary facets, or over every cell when it
    leaves the current affine span) or is skipped.  Returns the maximal
    cells as sorted index tuples over ``points``, or ``None`` when all
    points coincide affinely (nothing to triangulate).

    Coordinates may be integers or rationals; only the affine structure is
    used, so this works inside coordinate charts as well.
    """
    n = len(points)
    if n == 0:
        return None
    order = list(range(n)) if order is None else list(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all point indices")

    dim_ambient = len(points[0])
    basis: list[list[Fraction]] = []
    chart: dict[int, tuple[Fraction, ...]] = {}
    first = order[0]
    origin = [Fraction(x) for x in points[first]]
    chart[first] = ()
    cells: set[frozenset[int]] = {frozenset([first])}

    for idx in order[1:]:
        diff = [Fraction(points[idx][j]) - origin[j] for j in range(dim_ambient)]
        coords = None
        if basis:
            a_rows = [[basis[k][j] for k in range(len(basis))] for j in range(dim_ambient)]
            coords = solve_general(a_rows, diff)
        elif all(d == 0 for d in diff):
            coords = []
        if coords is None:
            # Point extends the affine span: cone it over every current cell.
            basis.append(diff)
            chart = {i: c + (Fraction(0),) for i, c in chart.items()}
            chart[idx] = (Fraction(0),) * (len(basis) - 1) + (Fraction(1),)
            cells = {c | {idx} for c in cells}
            continue
        chart[idx] = tuple(coords)
        rank = len(basis)
        if rank == 0:
            continue  # duplicate of the origin cannot occur (points distinct)
        # Boundary facets: used by exactly one cell; remember that cell's apex.
        facet_owner: dict[frozenset[int], list[int]] = {}
        for cell in cells:
            for v in cell:
                f = cell - {v}
                facet_owner.setdefault(f, []).append(v)
        added = set()
        for facet, apexes in facet_owner.items():
            if len(apexes) != 1:
                continue
            rows = [tuple(chart[i]) + (Fraction(1),) for i in sorted(facet)]
            func = _functional_through(rows)
            assert func is not None
            apex_val = sum(f * c for f, c in zip(func, chart[apexes[0]] + (Fraction(1),)))
            new_val = sum(f * c for f, c in zip(func, chart[idx] + (Fraction(1),)))
            assert apex_val != 0
            if new_val != 0 and (new_val > 0) != (apex_val > 0):
                added.add(facet | {idx})
        cells |= added

    if not basis:
        return None
    want = len(basis) + 1
    assert all(len(c) == want for c in cells)
    return sorted(tuple(sorted(c)) for c in cells)


def regular_subdivision(config: PointConfiguration, w: WeightVector) -> Subdivision:
    """Regular subdivision induced by lifting heights: project the lower hull.

    A maximal cell is the full set of points lying on a lower-facet
    functional of the lifted configuration; points lifted strictly above a
    lower facet are excluded from its cell.  Exhaustive search over
    spanning subsets, exact arithmetic throughout.
    """
    if len(w) != len(config.points):
        raise ValueError("weight vector length must match the point count")
    reduced = affine_reduce(config)
    pts = reduced.points
    n = len(pts)
    rank = reduced.ambient_dim

    heights, _ = clear_denominators(w.heights)

    found: list[set[int]] = []
    cells: set[tuple[int, ...]] = set()
    for subset in combinations(range(n), rank + 1):
        sset = set(subset)
        if any(sset <= c for c in found):
            continue
        rows = [list(pts[i]) + [1] for i in subset]
        rhs = [heights[i] for i in subset]
        sol = solve_rational(rows, rhs)
        if sol is None:
            continue  # affinely dependent subset
        # Scale the functional to integers: ell(p) = (a.p + c0) / denom
        (*a, c0), denom = clear_denominators(sol)
        lower = True
        eq = []
        for q in range(n):
            val = sum(ai * pq for ai, pq in zip(a, pts[q])) + c0
            hq = heights[q] * denom
            if val > hq:
                lower = False
                break
            if val == hq:
                eq.append(q)
        if lower:
            cell = tuple(eq)
            if cell not in cells:
                cells.add(cell)
                found.append(set(cell))
    return Subdivision(config, tuple(sorted(cells)))


def constraint_row(engine, cellmask: int, p: int) -> tuple[int, ...]:
    """Integer row of: lifted p strictly above the span of the lifted cell.

    Solves for p's barycentric coordinates in the cell, scales them and
    their denominator to integers, and puts ``-numerators`` on the cell
    and the denominator at p.
    """
    idx = engine.bits(cellmask)
    base = engine.points[idx[0]]
    a_rows = [[engine.points[i][j] - base[j] for i in idx[1:]] for j in range(engine.rank)]
    rhs = [engine.points[p][j] - base[j] for j in range(engine.rank)]
    sol = solve_general(a_rows, rhs)
    assert sol is not None, "triangulation cell is degenerate"
    nums, den = clear_denominators(sol)
    row = [0] * engine.n
    for i, num in zip(idx, [den - sum(nums)] + nums):
        row[i] -= num
    row[p] += den
    return tuple(row)


def global_rows(engine, masks) -> list[tuple[int, ...]]:
    """The sorted rows of the reference regularity system: one
    ``constraint_row`` per (cell, outside point) pair, without repeats."""
    return sorted({
        constraint_row(engine, cm, p)
        for cm in masks
        for p in range(engine.n)
        if not (cm >> p) & 1
    })


def points_inside(engine, cellmask: int) -> int:
    """Mask of the points whose barycentric coordinates in the cell are all
    non-negative: the points of the closed cell, its vertices included."""
    idx = engine.bits(cellmask)
    a_rows = [[engine.points[i][j] for i in idx] for j in range(engine.rank)] + [[1] * len(idx)]
    inside = 0
    for p in range(engine.n):
        coords = solve_general(a_rows, engine.points[p] + (1,))
        assert coords is not None, "triangulation cell is degenerate"
        if all(c >= 0 for c in coords):
            inside |= 1 << p
    return inside


def cell_entry(engine, cellmask: int) -> tuple[int, tuple | None, int]:
    """The entry ``(volume, rows, inside)`` of ``FlipEngine.cell`` from one
    fraction-free elimination of all homogenized points against the cell's
    vertices, as the engine built every entry before it derived them by
    vertex exchange."""
    vertices = engine.bits(cellmask)
    others = [p for p in range(engine.n) if not (cellmask >> p) & 1]
    solved = basis_coordinates_int([engine.points[i] + (1,) for i in (*vertices, *others)])
    if solved is None:
        return 0, None, 0
    d, a = solved
    if d < 0:
        d, a = -d, [[-x for x in row] for row in a]
    rows = [None] * engine.n
    inside = cellmask
    for p, coords in zip(others, list(zip(*a))[len(vertices):]):
        if min(coords) >= 0:
            inside |= 1 << p
        g = gcd(d, *coords)
        row = [0] * engine.n
        row[p] = d // g
        for i, c in zip(vertices, coords):
            row[i] = -(c // g)
        rows[p] = tuple(row)
    return d, tuple(rows), inside


def cell_images(elements, points) -> tuple[int, ...]:
    """The mask of a cell's image under each group element, summed point
    by point per element."""
    return tuple(sum(1 << g[i] for i in points) for g in elements)


def local_circuits(engine, masks) -> list[tuple[int, ...]]:
    """Each interior wall's circuit, then each unused point's circuit with
    every cell on whose vertices that circuit has no positive entry, without
    repeats."""
    out = [
        constraint_row(engine, sigma, (tau & ~fm).bit_length() - 1)
        for fm, (sigma, tau) in engine.walls(masks).items()
    ]
    used = 0
    for cm in masks:
        used |= cm
    for p in range(engine.n):
        if not (used >> p) & 1:
            for cm in masks:
                row = constraint_row(engine, cm, p)
                if all(row[i] <= 0 for i in engine.bits(cm)):
                    out.append(row)
    return list(dict.fromkeys(out))


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


def _dense_pivot(table, d, p, q):
    """Fraction-free dictionary pivot: the basic variable of row ``p``
    leaves, the nonbasic variable of column ``q`` enters; returns the new
    denominator ``table[p][q]``."""
    top = table[p]
    a = top[q]
    for i, row in enumerate(table):
        if i == p:
            continue
        f = row[q]
        if f:
            row = [(a * x - f * y) // d for x, y in zip(row, top)]
            row[q] = f
        else:
            row = [a * x // d for x in row]
        table[i] = row
    row = [-y for y in top]
    row[q] = d
    table[p] = row
    return a


def dense_simplex(rows):
    """Solve ``A w >= 1`` for integer rows of equal length ``n``.

    Returns ``(witness, None)`` with an integer ``w`` such that ``A w > 0``,
    or ``(None, y)`` with an integer Gordan certificate ``y``, one entry
    per row.  Variable ``i < m`` is the slack of row ``i``; variable
    ``m + j`` is height ``j``.  Bland's rule orders them by that index.
    The basic variables are ``x_B = (T [1, x_N]) / d`` for the last pivot
    ``d`` (Edmonds 1967; Bareiss 1968): every entry of T is a minor of the
    input, so each division in a pivot is exact.
    """
    m, n = len(rows), len(rows[0])
    table = [[-1, *row] for row in rows]
    basic = list(range(m))
    nonbasic = list(range(m, m + n))
    d = 1
    for q in range(1, n + 1):
        p = next((i for i in range(m) if basic[i] < m and table[i][q]), None)
        if p is not None:
            d = _dense_pivot(table, d, p, q)
            basic[p], nonbasic[q - 1] = nonbasic[q - 1], basic[p]
    # Heights that never entered are 0; their columns are 0 in every slack row.
    keep = [0] + [q for q in range(1, n + 1) if nonbasic[q - 1] < m]
    sign = 1 if d > 0 else -1
    table = [[sign * row[q] for q in keep] for row in table]
    nonbasic = [nonbasic[q - 1] for q in keep[1:]]
    d *= sign
    # Every later pivot is positive, so d stays positive.
    while True:
        p = min(
            (i for i in range(m) if basic[i] < m and table[i][0] < 0),
            key=basic.__getitem__,
            default=None,
        )
        if p is None:
            witness = [0] * n
            for i, var in enumerate(basic):
                if var >= m:
                    witness[var - m] = table[i][0]
            return tuple(witness), None
        top = table[p]
        q = min(
            (q for q in range(1, len(top)) if top[q] > 0),
            key=lambda q: nonbasic[q - 1],
            default=None,
        )
        if q is None:
            # d s_p - sum_q T[p][q] s_q = T[p][0] holds for all w, so the
            # linear parts cancel: y = d e_p - sum_q T[p][q] e_q.
            certificate = [0] * m
            certificate[basic[p]] = d
            for var, v in zip(nonbasic, top[1:]):
                certificate[var] = -v
            return None, certificate
        d = _dense_pivot(table, d, p, q)
        basic[p], nonbasic[q - 1] = nonbasic[q - 1], basic[p]


def validate_triangulation(t: Triangulation) -> bool:
    """Exact validity check: volumes sum to the polytope volume, every cell
    is full-dimensional, facets are shared by at most two cells, and any
    two cells meet in a common face.
    """
    engine = flip_engine(t.configuration)
    masks = engine.to_masks(t.cells)
    if len(set(masks)) != len(masks):
        return False
    if any(engine.volume(m) == 0 for m in masks):
        return False
    if sum(engine.volume(m) for m in masks) != normalized_volume(t.configuration):
        return False
    try:
        engine.walls(masks)
    except ValueError:
        return False
    pts = engine.points
    cells = [engine.bits(m) for m in masks]
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            shared = sorted(set(cells[i]) & set(cells[j]))
            conditions = [pts[f] + (1,) for f in shared]
            if conditions:
                basis = nullspace_basis(conditions)
            else:
                dim = engine.rank + 1
                basis = [
                    tuple(Fraction(1 if k == idx else 0) for k in range(dim))
                    for idx in range(dim)
                ]
            rows = []
            for v in cells[i]:
                if v in shared:
                    continue
                vec = pts[v] + (1,)
                rows.append(tuple(-sum(b[k] * vec[k] for k in range(len(vec))) for b in basis))
            for v in cells[j]:
                if v in shared:
                    continue
                vec = pts[v] + (1,)
                rows.append(tuple(sum(b[k] * vec[k] for k in range(len(vec))) for b in basis))
            int_rows = [clear_denominators(r)[0] for r in rows]
            feasible, _ = strict_homogeneous_feasible(int_rows)
            if not feasible:
                return False
    return True


def certify_affine_action(config: PointConfiguration, perm) -> tuple:
    """Solve exactly for the affine map realizing a point permutation.

    Returns (matrix, offset) in reduced coordinates and raises ``ValueError``
    if the permutation is not induced by an affine automorphism of the
    affine lattice (integer matrix with determinant +-1).
    """
    reduced = affine_reduce(config)
    pts = reduced.points
    r = reduced.ambient_dim
    base_idx = [0]
    for i in range(1, len(pts)):
        rows = [
            [pts[j][k] - pts[base_idx[0]][k] for k in range(r)]
            for j in base_idx[1:] + [i]
        ]
        if rank_int(rows) == len(base_idx):
            base_idx.append(i)
        if len(base_idx) == r + 1:
            break
    o = pts[base_idx[0]]
    o_img = pts[perm[base_idx[0]]]
    d_rows = [[pts[i][k] - o[k] for k in range(r)] for i in base_idx[1:]]
    e_rows = [[pts[perm[i]][k] - o_img[k] for k in range(r)] for i in base_idx[1:]]
    # Solve D M = E column by column (row-vector convention: x' = x M + t).
    cols = [solve_general(d_rows, [e[c] for e in e_rows]) for c in range(r)]
    matrix = [[cols[c][k] for c in range(r)] for k in range(r)]
    if any(v.denominator != 1 for row in matrix for v in row):
        raise ValueError("permutation is not an affine lattice map (non-integer matrix)")
    int_matrix = [[int(v) for v in row] for row in matrix]
    if abs(det_int(int_matrix)) != 1:
        raise ValueError("permutation does not preserve the lattice (determinant != +-1)")
    offset = [o_img[k] - sum(o[j] * int_matrix[j][k] for j in range(r)) for k in range(r)]
    for i, p in enumerate(pts):
        image = tuple(sum(p[j] * int_matrix[j][k] for j in range(r)) + offset[k] for k in range(r))
        if image != pts[perm[i]]:
            raise ValueError(f"permutation is not affine: point {i} maps inconsistently")
    return tuple(tuple(row) for row in int_matrix), tuple(offset)


def verify_closure(enumerator) -> bool:
    """After completion, every regular class is regular again by a local
    check from scratch, and every neighbor of every regular class must
    already be in the visited set."""
    if not enumerator.complete:
        raise ValueError("closure check requires a completed enumeration")
    engine, codec, context, visited = enumerator.engine, enumerator.codec, enumerator.context, enumerator.visited
    for key in enumerator.regular:
        masks = codec.unpack(key)
        if is_regular(engine.triangulation(masks), mode="local") is None:
            return False
        if any(codec.pack(context.canonical(child)[0]) not in visited for _flip, child in engine.neighbors(masks)):
            return False
    return True


def cold_walk(config, elements) -> dict[tuple[int, ...], bool]:
    """Every class the flip-graph BFS visits, as canonical masks, with the
    verdict of a cold simplex on its local system: what the enumerator
    visits when no witness is carried."""
    engine = flip_engine(config)
    context = RelabelContext(engine, elements)
    seed = context.canonical(engine.to_masks(placing_triangulation(config).cells))[0]
    visited = {seed: True}
    queue = deque([seed])
    while queue:
        for _flip, nb in engine.neighbors(queue.popleft()):
            key = context.canonical(nb)[0]
            if key not in visited:
                visited[key] = engine.solve(engine.regularity_rows(key, engine.wall_circuits(key))) is not None
                if visited[key]:
                    queue.append(key)
    return visited


def histogram_by_cycle_length(table) -> dict:
    hist: dict = {}
    for e in table.entries():
        hist[e.cycle_length] = hist.get(e.cycle_length, 0) + 1
    return hist
