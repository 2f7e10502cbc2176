"""Mixed subdivisions of Minkowski sums and dual tropical curve graphs.

A triangulation of a Cayley configuration slices to a mixed subdivision
of the Minkowski sum of the two factors.  The slicing is purely
combinatorial here: each maximal Cayley cell splits by letter case into a
pair (Q1, Q2), and the cell is mixed exactly when both parts are
positive-dimensional.  In the 3-space case the mixed cells are triangular
prisms; the dual curve has one vertex per mixed cell and one edge for
every shared facet whose case split is (2, 2) (those are the facets whose
slice is a parallelogram).  Unbounded rays are never materialized, only
counted per vertex.

The dual graph (``CurveGraph``) is the one source of the curve facts that
are rendered and classified: each vertex's cell and colour (the colour
rule is ``_color_of``), its ray count, and ``cycle_length``, which is
``None`` for any graph that is not connected of genus 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateSubdivisionError,
    GraphDataError,
    NonUnimodularError,
    SupportError,
)
from .exactarith import parse_rational
from .geometry import (
    PointConfiguration,
    WeightVector,
    cayley_config,
    normalized_volume,
    regular_subdivision,
    simplex_lattice_points,
)
from .triangulation import Triangulation, flip_engine


@dataclass(frozen=True)
class ValuedPolynomial:
    """Coefficient valuations of a polynomial with full support on d*Delta_3.

    Only the valuations enter the pipeline; the field itself never does.
    Terms map exponent vectors (i, j, k) with i+j+k <= degree to rational
    valuations.
    """

    degree: int
    terms: tuple[tuple[tuple[int, int, int], Fraction], ...]

    @classmethod
    def make(cls, degree: int, terms) -> "ValuedPolynomial":
        if degree < 1:
            raise SupportError(f"degree {degree} is not positive")
        mapping = {}
        for exp, val in dict(terms).items():
            exp = tuple(int(x) for x in exp)
            if len(exp) != 3 or any(x < 0 for x in exp):
                raise SupportError(f"bad exponent {exp}")
            if sum(exp) > degree:
                raise SupportError(f"exponent {exp} exceeds degree {degree}")
            mapping[exp] = parse_rational(val)
        support = simplex_lattice_points(3, degree).points
        missing = [p for p in support if p not in mapping]
        if missing:
            raise SupportError(f"missing monomial exponent {missing[0]} (full support required)")
        ordered = tuple(sorted(mapping.items()))
        return cls(degree, ordered)

    def heights_for(self, points) -> list[Fraction]:
        """Valuations aligned to a list of exponent points (graded-lex block)."""
        table = dict(self.terms)
        return [table[tuple(p)] for p in points]


@dataclass(frozen=True)
class MixedCell:
    """One maximal cell of the sliced (Minkowski) subdivision."""

    cayley_cell: tuple[int, ...]
    type: tuple[int, int]            # (#first-factor points, #second-factor points)
    q1: tuple[int, ...]              # indices into the first factor's point list
    q2: tuple[int, ...]              # indices into the second factor's point list
    mixed: bool


@dataclass(frozen=True)
class MixedSubdivision:
    triangulation: Triangulation
    cells: tuple[MixedCell, ...]

    def mixed_cells(self) -> tuple[MixedCell, ...]:
        return tuple(c for c in self.cells if c.mixed)

    def unmixed_cells(self) -> tuple[MixedCell, ...]:
        return tuple(c for c in self.cells if not c.mixed)


@dataclass(frozen=True)
class CurveGraph:
    """Finite dual-curve graph; rays are counted, never materialized."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    colors: tuple[str, ...] | None
    ray_counts: tuple[int, ...]
    vertex_cells: tuple[tuple[int, ...], ...]

    def degree_sequence(self) -> tuple[int, ...]:
        deg = [0] * self.num_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)


def mixed_subdivision(t: Triangulation) -> MixedSubdivision:
    """Slice a Cayley triangulation into its mixed subdivision.

    Each maximal cell is partitioned by factor membership; the toblerone
    identification is purely combinatorial.
    """
    config = t.configuration
    if not config.is_cayley:
        raise TypeError("mixed_subdivision needs a configuration built by cayley_config")
    n1, _n2 = config.cayley_sizes
    out = []
    for cell in t.cells:
        q1 = tuple(i for i in cell if i < n1)
        q2 = tuple(i - n1 for i in cell if i >= n1)
        a, b = len(q1), len(q2)
        out.append(
            MixedCell(
                cayley_cell=cell,
                type=(a, b),
                q1=q1,
                q2=q2,
                mixed=(a >= 2 and b >= 2),
            )
        )
    return MixedSubdivision(t, tuple(out))


def _color_of(cell_type) -> str:
    a, b = cell_type
    if (a, b) == (3, 2):
        return "blue"
    if (a, b) == (2, 3):
        return "red"
    raise GraphDataError(f"mixed cell of type {cell_type} has no color convention")


def _wall_graph(t: Triangulation, cells, colors, keep=lambda facet: True) -> CurveGraph:
    """One vertex per cell of ``cells`` (cells of t), one edge per wall of t
    (``Triangulation.walls``) that ``keep`` accepts (called on the wall's
    facet mask); rays fill each degree to 3."""
    engine = flip_engine(t.configuration)
    index = {engine.mask_of(c): i for i, c in enumerate(cells)}
    edges = sorted(
        tuple(sorted((index[sigma], index[tau])))
        for fm, (sigma, tau) in t.walls.items()
        if keep(fm)
    )
    deg = [0] * len(cells)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    if any(d > 3 for d in deg):
        raise GraphDataError("dual curve vertex of degree exceeding 3")
    return CurveGraph(
        num_vertices=len(cells),
        edges=tuple(edges),
        colors=colors,
        ray_counts=tuple(3 - d for d in deg),
        vertex_cells=tuple(cells),
    )


def dual_curve_3d(ms: MixedSubdivision) -> CurveGraph:
    """Dual graph of the toblerones: one vertex per mixed cell, one edge per
    wall whose facet splits (2, 2) by factor (a quadrilateral after
    slicing); both cells of such a wall are mixed.
    """
    config = ms.triangulation.configuration
    if config.affine_dim() != 4:
        raise ValueError("dual_curve_3d expects a 4-dimensional Cayley configuration")
    first_factor = (1 << config.cayley_sizes[0]) - 1
    mixed = ms.mixed_cells()
    return _wall_graph(
        ms.triangulation,
        [c.cayley_cell for c in mixed],
        tuple(_color_of(c.type) for c in mixed),
        keep=lambda fm: bin(fm & first_factor).count("1") == 2,
    )


def dual_curve_planar(t: Triangulation) -> CurveGraph:
    """Dual graph of a unimodular planar triangulation: vertices are the
    triangles, edges are interior-edge adjacencies, rays fill degrees to 3.
    """
    if t.configuration.affine_dim() != 2:
        raise ValueError("dual_curve_planar expects a planar configuration")
    engine = flip_engine(t.configuration)
    if not engine.is_unimodular(engine.to_masks(t.cells)):
        raise ValueError("dual_curve_planar expects a unimodular triangulation")
    return _wall_graph(t, t.cells, None)


def _components(n, edges) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(i) for i in range(n)})


def genus(g: CurveGraph) -> int:
    """First Betti number: E - V + number of components."""
    return len(g.edges) - g.num_vertices + _components(g.num_vertices, g.edges)


def is_connected(g: CurveGraph) -> bool:
    return _components(g.num_vertices, g.edges) == 1


def cycle_length(g: CurveGraph) -> int | None:
    """Vertex count of the unique cycle of a connected genus-1 graph, and
    ``None`` for any other graph."""
    if not is_connected(g) or genus(g) != 1:
        return None
    adjacency = {v: set() for v in range(g.num_vertices)}
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    changed = True
    while changed:
        changed = False
        for v in list(adjacency):
            if len(adjacency[v]) == 1:
                (u,) = adjacency[v]
                adjacency[u].discard(v)
                del adjacency[v]
                changed = True
    return len(adjacency)


@dataclass(frozen=True)
class CurveReport:
    """Everything derived from one pair of valued polynomials."""

    configuration: PointConfiguration
    weights: WeightVector
    triangulation: Triangulation
    mixed: MixedSubdivision
    graph: CurveGraph
    genus: int
    cycle_length: int | None
    mixed_count: int
    unmixed_count: int
    color_counts: dict
    ray_total: int


def tropicalize_pair(f1: ValuedPolynomial, f2: ValuedPolynomial) -> CurveReport:
    """Full pipeline: Cayley weights -> regular subdivision -> slice -> curve.

    Raises ``DegenerateSubdivisionError`` when the valuations are not
    generic enough to induce a triangulation, ``NonUnimodularError`` when
    the induced triangulation is not unimodular.
    """
    p1 = simplex_lattice_points(3, f1.degree)
    p2 = simplex_lattice_points(3, f2.degree)
    config = cayley_config(p1, p2)
    heights = f1.heights_for(p1.points) + f2.heights_for(p2.points)
    w = WeightVector(tuple(heights))
    sub = regular_subdivision(config, w)
    want = config.affine_dim() + 1
    for cell in sub.cells:
        if len(cell) != want:
            raise DegenerateSubdivisionError(cell)
    t = Triangulation(config, sub.cells)
    for cell in t.cells:
        vol = normalized_volume(config, cell)
        if vol != 1:
            raise NonUnimodularError(cell, vol)
    ms = mixed_subdivision(t)
    graph = dual_curve_3d(ms)
    colors: dict = {}
    for c in graph.colors:
        colors[c] = colors.get(c, 0) + 1
    return CurveReport(
        configuration=config,
        weights=w,
        triangulation=t,
        mixed=ms,
        graph=graph,
        genus=genus(graph),
        cycle_length=cycle_length(graph),
        mixed_count=len(ms.mixed_cells()),
        unmixed_count=len(ms.unmixed_cells()),
        color_counts=colors,
        ray_total=sum(graph.ray_counts),
    )
