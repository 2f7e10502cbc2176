"""Lattice point configurations, Cayley construction, and regular subdivisions.

Coordinates are integer lattice points; all derived data (affine reduction,
volumes, lower hulls) is computed exactly.  A configuration may sit on a
proper affine sublattice of its ambient space (the Cayley configuration is
4-dimensional inside R^5); volumes and subdivisions are always taken in
the coordinates ``affine_reduce`` gives the points in the affine lattice
they span.  Cells are point-index tuples, so nothing maps back.

One beneath-beyond routine on integer points serves two purposes.  Run in
the configuration's own dimension it gives placing triangulations
(``placing_cells``).  Run one dimension up on the points lifted by
heights, with the vertical direction placed as an ideal point, it gives
the lower hull alone: each distinct integer functional of a downward
boundary facet is one cell of ``regular_subdivision``, and every point is
checked against it.  A placed cell's facet functionals come from its
parent cell's by a rank-one update; only the cells present when the span
last grows are solved for by elimination.
"""

from __future__ import annotations

import string
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from operator import mul

from .errors import DegenerateConfigurationError, InputError
from .exactarith import (
    basis_coordinates_int,
    clear_denominators,
    coords_in_row_basis,
    det_int,
    lattice_row_basis,
    solve_rational,  # unused here; perfbench traces ``geometry.solve_rational``
)


def block_labels(count: int, lowercase: bool = False) -> tuple[str, ...]:
    """Labels A..Z, then A1, B1, ... (lowercase variant for second factors)."""
    base = string.ascii_lowercase if lowercase else string.ascii_uppercase
    out = []
    for i in range(count):
        if i < 26:
            out.append(base[i])
        else:
            out.append(base[i % 26] + str(i // 26))
    return tuple(out)


@dataclass(frozen=True)
class PointConfiguration:
    """Labeled integer lattice points spanning a polytope."""

    ambient_dim: int
    points: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    cayley_sizes: tuple[int, int] | None = None

    def __post_init__(self):
        if len(self.points) == 0:
            raise DegenerateConfigurationError("configuration needs at least one point")
        for p in self.points:
            if len(p) != self.ambient_dim:
                raise ValueError(f"point {p} does not have ambient dimension {self.ambient_dim}")
            if not all(isinstance(x, int) for x in p):
                raise ValueError(f"point {p} has non-integer coordinates")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be distinct")
        if len(self.labels) != len(self.points):
            raise ValueError("labels must be in bijection with points")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        if self.cayley_sizes is not None:
            n1, n2 = self.cayley_sizes
            if n1 + n2 != len(self.points):
                raise ValueError("cayley factor sizes do not sum to the point count")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def is_cayley(self) -> bool:
        return self.cayley_sizes is not None

    def index_of_label(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown point label {label!r}") from None

    def affine_dim(self) -> int:
        if len(self.points) < 2:
            return 0
        return affine_reduce(self).ambient_dim


@dataclass(frozen=True)
class WeightVector:
    """One rational lifting height per configuration point."""

    heights: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.heights)


@dataclass(frozen=True)
class Subdivision:
    """Maximal cells (sorted point-index tuples) of a polyhedral subdivision."""

    configuration: PointConfiguration
    cells: tuple[tuple[int, ...], ...]


def simplex_lattice_points(dim: int, dilation: int) -> PointConfiguration:
    """All integer points x >= 0 with sum(x) <= dilation, in graded-lex order.

    Graded lexicographic: sorted by coordinate sum first, then by the
    coordinate tuple itself.  This fixed order is what the letter labels
    (A, B, ...) refer to throughout the package.
    """
    if dim < 1 or dilation < 1:
        raise InputError("dim and dilation must be at least 1")
    pts = []

    def rec(prefix, remaining):
        if len(prefix) == dim:
            pts.append(tuple(prefix))
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v)

    rec([], dilation)
    pts.sort(key=lambda p: (sum(p), p))
    assert len(pts) == comb(dilation + dim, dim)
    return PointConfiguration(dim, tuple(pts), block_labels(len(pts)))


def cayley_config(p1: PointConfiguration, p2: PointConfiguration) -> PointConfiguration:
    """Cayley configuration: p -> (1,0,p) for p1, q -> (0,1,q) for p2.

    First-factor points get uppercase labels, second-factor lowercase, each
    block in its input order.
    """
    if p1.ambient_dim != p2.ambient_dim:
        raise ValueError("factors must share an ambient dimension")
    n = p1.ambient_dim
    pts = [(1, 0) + p for p in p1.points] + [(0, 1) + q for q in p2.points]
    labels = block_labels(len(p1.points)) + block_labels(len(p2.points), lowercase=True)
    return PointConfiguration(2 + n, tuple(pts), labels, cayley_sizes=(len(p1.points), len(p2.points)))


@lru_cache(maxsize=256)
def affine_reduce(config: PointConfiguration) -> PointConfiguration:
    """Full-dimensional coordinates in the affine lattice spanned by the
    points, taken in a Z-basis (Hermite-style) of the difference lattice, so
    lattice volume is preserved.  A configuration whose difference lattice
    is all of Z^d is returned unchanged."""
    if len(config.points) < 2:
        raise DegenerateConfigurationError("affine reduction needs at least two points")
    origin = config.points[0]
    diffs = [[p[j] - origin[j] for j in range(config.ambient_dim)] for p in config.points[1:]]
    basis = lattice_row_basis(diffs)
    if not basis:
        raise DegenerateConfigurationError("points have no affine extent")

    # If the difference lattice is all of Z^d, keep coordinates untouched.
    if len(basis) == config.ambient_dim:
        unit = [[1 if j == i else 0 for j in range(config.ambient_dim)] for i in range(config.ambient_dim)]
        if all(coords_in_row_basis(basis, row) is not None for row in unit):
            return config

    new_points = []
    for p in config.points:
        diff = [p[j] - origin[j] for j in range(config.ambient_dim)]
        coords = coords_in_row_basis(basis, diff)
        assert coords is not None, "point escaped its own difference lattice"
        new_points.append(tuple(coords))
    return PointConfiguration(len(basis), tuple(new_points), config.labels, config.cayley_sizes)


def _simplex_volume(pts, cell) -> int:
    base = pts[cell[0]]
    rows = [[pts[i][j] - base[j] for j in range(len(base))] for i in cell[1:]]
    return abs(det_int(rows))


def normalized_volume(config: PointConfiguration, cell=None) -> int:
    """Lattice-normalized volume of a cell (or of the whole configuration).

    The volume is relative to the affine lattice spanned by the whole
    configuration.  Cells spanning fewer dimensions get volume 0.  Cells
    with more points than a simplex are measured through their placing
    triangulation.
    """
    reduced = affine_reduce(config)
    pts = reduced.points
    rank = reduced.ambient_dim
    indices = tuple(range(len(pts))) if cell is None else tuple(cell)
    if len(set(indices)) != len(indices):
        raise ValueError("cell has repeated point indices")
    if len(indices) <= rank:
        return 0
    if len(indices) == rank + 1:
        return _simplex_volume(pts, indices)
    cells = placing_cells([pts[i] for i in indices])
    if cells is None:  # sub-configuration spans a lower dimension
        return 0
    if any(len(c) != rank + 1 for c in cells):
        return 0
    return sum(_simplex_volume(pts, tuple(indices[i] for i in c)) for c in cells)


def _dot(func, chart) -> int:
    return sum(map(mul, func, chart))


def _outward(sign: int, vec) -> tuple[int, ...]:
    """``sign * vec`` divided by its (positive) content."""
    g = sign * gcd(*vec)
    return tuple([c // g for c in vec])


class _BeneathBeyond:
    """Incremental placing triangulation of distinct integer points.

    The affine span is tracked by an integer echelon basis of difference
    vectors.  Projection onto its pivot columns is an affine isomorphism
    of the span, so those coordinates (and a trailing 1) serve as an
    integer chart.  ``boundary`` maps each boundary facet (a face of
    exactly one cell) to the opposite vertex and that cell.

    The chart is homogeneous: a point's is its pivot coordinates and a 1.
    The point at index ``ideal``, if any, is a direction instead: its
    chart ends in 0, and the span grows by the direction itself rather
    than by its difference from the first point.  Placed right after the
    first point, a direction ``e`` makes the hull that of the polyhedron
    ``conv(points) + R>=0 e``, on which no facet functional is positive
    at ``e``.

    ``table`` holds, for a cell and each of its vertices ``u``, the
    primitive integer functional of the facet ``cell - {u}``, negative at
    ``u``.  A cell placed beyond a visible facet ``F`` of a cell
    ``C = F + {a}`` gets its row from ``C``'s by a rank-one update: with
    ``h`` the functional opposite ``a``, the new cell has ``-h`` opposite
    the new point ``x`` and, for each ``u`` in ``F``, ``h(x) g - g(x) h``
    over its content, where ``g`` is ``C``'s functional opposite ``u``.
    That combination vanishes on ``F - {u}`` and at ``x`` and is negative
    at ``u``, so it is the facet's primitive outward functional itself.
    When the span grows, the chart grows with it and every functional
    loses its meaning, so the table is cleared; the cells that exist then
    get theirs from one fraction-free elimination each, when first asked.
    """

    def __init__(self, points, first: int, ideal: int | None = None):
        self.points = points
        self.origin = points[first]
        self.ideal = ideal
        self.basis: list[list[int]] = []
        self.pivots: list[int] = []
        cell = frozenset([first])
        self.cells: set[frozenset[int]] = {cell}
        self.boundary: dict[frozenset[int], tuple[int, frozenset[int]]] = {
            frozenset(): (first, cell)
        }
        self.table: dict[frozenset[int], dict[int, tuple[int, ...]]] = {}

    def chart(self, idx: int) -> list[int]:
        p = self.points[idx]
        return [p[c] for c in self.pivots] + [int(idx != self.ideal)]

    def functionals(self, cell: frozenset[int]) -> dict[int, tuple[int, ...]]:
        """Each vertex's opposite facet functional, negative at the vertex."""
        row = self.table.get(cell)
        if row is None:
            # A cell of the last span growth.  Solving for the unit vectors
            # in the basis of its vertices' charts gives each vertex's
            # barycentric coordinate, which vanishes on the opposite facet.
            verts = list(cell)
            k = len(verts)
            unit = [tuple(int(i == j) for i in range(k)) for j in range(k)]
            d, a = basis_coordinates_int([self.chart(u) for u in verts] + unit)
            sign = -1 if d > 0 else 1
            row = self.table[cell] = {
                u: _outward(sign, a[i][k:]) for i, u in enumerate(verts)
            }
        return row

    def functional(self, facet: frozenset[int]) -> tuple[int, ...]:
        """Chart coefficients and constant of the facet's outward functional."""
        apex, cell = self.boundary[facet]
        return self.functionals(cell)[apex]

    def insert(self, idx: int) -> None:
        pt = self.points[idx]
        v = list(pt) if idx == self.ideal else [x - o for x, o in zip(pt, self.origin)]
        for row, c in zip(self.basis, self.pivots):
            if v[c]:
                p, f = row[c], v[c]
                v = [p * x - f * y for x, y in zip(v, row)]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is not None:
            # The point leaves the affine span: cone it over every cell.
            g = gcd(*v)
            k = bisect_left(self.pivots, lead)
            self.basis.insert(k, [x // g for x in v])
            self.pivots.insert(k, lead)
            cones = {c: c | {idx} for c in self.cells}
            self.boundary = {c: (idx, cone) for c, cone in cones.items()} | {
                f | {idx}: (apex, cones[c]) for f, (apex, c) in self.boundary.items()
            }
            self.cells = set(cones.values())
            self.table.clear()
            return
        x = self.chart(idx)
        visible = []
        for facet, (apex, cell) in self.boundary.items():
            parent = self.functionals(cell)
            hx = _dot(parent[apex], x)
            if hx > 0:
                visible.append((facet, parent, parent[apex], hx))
        for facet, parent, h, hx in visible:
            cell = facet | {idx}
            row = {idx: tuple([-c for c in h])}
            for u in facet:
                g = parent[u]
                gx = _dot(g, x)
                row[u] = _outward(1, [hx * a - gx * b for a, b in zip(g, h)])
            self.table[cell] = row
            self.cells.add(cell)
            for apex in cell:
                face = cell - {apex}
                if face in self.boundary:  # now shared by two cells
                    del self.boundary[face]
                else:
                    self.boundary[face] = (apex, cell)


def _place(points, order, ideal: int | None = None) -> _BeneathBeyond:
    """Place ``order``, with the ideal point, if any, right after its first."""
    hull = _BeneathBeyond(points, order[0], ideal)
    if ideal is not None:
        hull.insert(ideal)
    for idx in order[1:]:
        hull.insert(idx)
    return hull


def placing_cells(points, order=None):
    """Placing triangulation of a list of points (exact beneath-beyond).

    Points are inserted in the given order; each either extends the hull
    (cone over strictly visible boundary facets, or over every cell when it
    leaves the current affine span) or is skipped.  Returns the maximal
    cells as sorted index tuples over ``points``, or ``None`` when all
    points coincide affinely (nothing to triangulate).

    Points are distinct tuples of integers.  All arithmetic is on
    integers: each boundary facet's functional is a primitive integer
    vector in a chart of the current affine span, carried from cell to
    placed cell by a rank-one update (see ``_BeneathBeyond``).  Every
    point is finite here; ``regular_subdivision`` places the same hull
    with an ideal point.
    """
    n = len(points)
    if n == 0:
        return None
    order = list(range(n)) if order is None else list(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all point indices")
    hull = _place(points, order)
    if not hull.basis:
        return None
    return sorted(tuple(sorted(c)) for c in hull.cells)


def regular_subdivision(config: PointConfiguration, w: WeightVector) -> Subdivision:
    """Regular subdivision induced by lifting heights: project the lower hull.

    A maximal cell is the full set of points lying on a lower facet of the
    lifted configuration; points lifted strictly above a lower facet are
    excluded from its cell.  The lifted points ``(p, h)`` are placed one
    dimension up, lowest first, with the upward direction as an ideal
    point right after the lowest.  That hull is the one of ``conv(lifted
    points) + R>=0 (0, ..., 0, 1)``, whose bounded faces are the lower
    faces of the lift and whose other facets are vertical (De Loera,
    Rambau and Santos, *Triangulations*, 2010, ch. 2): no upper facet is
    built.  Coplanar boundary facets share one primitive functional, so
    each distinct functional with a negative height coefficient is one
    cell: the points where it vanishes.  The coefficient is zero on a
    vertical facet, whether it holds the ideal point or only finite ones.
    Every point is evaluated against each cell's functional in integers,
    and a point strictly beyond it raises ``ArithmeticError``.  Affine
    heights give one such functional, vanishing on every point.
    """
    if len(w) != len(config.points):
        raise ValueError("weight vector length must match the point count")
    reduced = affine_reduce(config)
    pts = reduced.points
    n = len(pts)
    rank = reduced.ambient_dim

    heights, _ = clear_denominators(w.heights)
    up = (0,) * rank + (1,)
    hull = _place(
        [p + (h,) for p, h in zip(pts, heights)] + [up],
        sorted(range(n), key=lambda i: (heights[i], i)),
        ideal=n,
    )
    # The ideal point spans the height axis, so the chart is every lifted
    # coordinate and entry ``rank`` of a facet's outward functional is its
    # height coefficient.
    lower = {func for func in map(hull.functional, hull.boundary) if func[rank] < 0}
    charts = [hull.chart(q) for q in range(n)]
    cells = []
    for func in lower:
        values = [_dot(func, y) for y in charts]
        if max(values) > 0:
            raise ArithmeticError("a lifted point lies beyond a lower facet of its hull")
        cells.append(tuple(q for q in range(n) if values[q] == 0))
    return Subdivision(config, tuple(sorted(cells)))
