import random
from fractions import Fraction
from importlib import resources
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from tropcay import exactarith, geometry
from tropcay.errors import DegenerateConfigurationError
from tropcay.exactarith import clear_denominators
from tropcay.formats import load_json, polynomial_terms_from_dict
from tropcay.geometry import (
    PointConfiguration,
    WeightVector,
    affine_reduce,
    block_labels,
    cayley_config,
    normalized_volume,
    placing_cells,
    regular_subdivision,
    simplex_lattice_points,
)
from tropcay.triangulation import placing_triangulation
from tropcay.tropical import ValuedPolynomial


def square_config():
    return PointConfiguration(2, ((0, 0), (1, 0), (0, 1), (1, 1)), ("A", "B", "C", "D"))


def test_simplex_lattice_points_tetrahedron_vertices():
    cfg = simplex_lattice_points(3, 1)
    assert cfg.points == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_simplex_lattice_points_2delta3_count():
    cfg = simplex_lattice_points(3, 2)
    assert len(cfg) == 10


def test_simplex_lattice_points_cubic_polygon():
    cfg = simplex_lattice_points(2, 3)
    assert len(cfg) == 10
    interior = [p for p in cfg.points if p[0] > 0 and p[1] > 0 and sum(p) < 3]
    assert interior == [(1, 1)]


@pytest.mark.parametrize("dim,dilation", [(1, 1), (2, 2), (3, 2), (4, 3), (2, 5)])
def test_simplex_lattice_points_binomial_count(dim, dilation):
    cfg = simplex_lattice_points(dim, dilation)
    assert len(cfg) == comb(dim + dilation, dim)


def test_simplex_lattice_points_graded_lex_order():
    cfg = simplex_lattice_points(2, 3)
    keys = [(sum(p), p) for p in cfg.points]
    assert keys == sorted(keys)


def test_block_labels_extension_scheme():
    labels = block_labels(28)
    assert labels[0] == "A" and labels[25] == "Z"
    assert labels[26] == "A1" and labels[27] == "B1"
    assert len(set(labels)) == 28


def test_cayley_of_two_quadric_tetrahedra():
    cfg = cayley_config(simplex_lattice_points(3, 2), simplex_lattice_points(3, 2))
    assert len(cfg) == 20
    assert cfg.ambient_dim == 5
    assert cfg.affine_dim() == 4
    assert cfg.labels[:3] == ("A", "B", "C")
    assert cfg.labels[10:13] == ("a", "b", "c")
    vertices = [
        p for p in cfg.points
        if sorted(p[2:]) in ([0, 0, 0], [0, 0, 2])
    ]
    assert len(vertices) == 8


def test_cayley_mixed_degrees():
    cfg = cayley_config(simplex_lattice_points(3, 2), simplex_lattice_points(3, 1))
    assert len(cfg) == 14
    assert cfg.cayley_sizes == (10, 4)


def test_cayley_of_segments_is_square():
    seg = simplex_lattice_points(1, 1)
    cfg = cayley_config(seg, seg)
    assert len(cfg) == 4
    assert cfg.affine_dim() == 2


def test_affine_reduce_diagonal_segment():
    cfg = PointConfiguration(2, ((0, 0), (1, 1)), ("A", "B"))
    red = affine_reduce(cfg)
    assert red.ambient_dim == 1
    assert red.points == ((0,), (1,))


def test_affine_reduce_cayley_rank_four():
    cfg = cayley_config(simplex_lattice_points(3, 2), simplex_lattice_points(3, 2))
    red = affine_reduce(cfg)
    assert red.ambient_dim == 4
    assert len(red.points) == 20


def test_affine_reduce_full_dimensional_is_identity():
    # Equal, not identical: the cache may return an equal earlier instance.
    cfg = square_config()
    red = affine_reduce(cfg)
    assert (red.ambient_dim, red.points) == (cfg.ambient_dim, cfg.points)


def test_affine_reduce_single_point_raises():
    cfg = PointConfiguration(2, ((0, 0),), ("A",))
    with pytest.raises(DegenerateConfigurationError):
        affine_reduce(cfg)


def test_normalized_volume_unit_simplex():
    cfg = simplex_lattice_points(2, 1)
    assert normalized_volume(cfg) == 1
    assert normalized_volume(cfg, (0, 1, 2)) == 1


def test_normalized_volume_cayley_quadrics_is_32():
    cfg = cayley_config(simplex_lattice_points(3, 2), simplex_lattice_points(3, 2))
    assert normalized_volume(cfg) == 32


def test_normalized_volume_4delta3_is_64():
    assert normalized_volume(simplex_lattice_points(3, 4)) == 64


def test_normalized_volume_3delta2_is_9():
    assert normalized_volume(simplex_lattice_points(2, 3)) == 9


def test_normalized_volume_lower_dimensional_cell_is_zero():
    cfg = square_config()
    assert normalized_volume(cfg, (0, 1)) == 0


def test_normalized_volume_respects_configuration_lattice():
    # Cell of the coarse corners inside the 2*Delta_2 configuration: volume 4.
    cfg = simplex_lattice_points(2, 2)
    corners = tuple(i for i, p in enumerate(cfg.points) if sorted(p) in ([0, 0], [0, 2]))
    assert len(corners) == 3
    assert normalized_volume(cfg, corners) == 4


def test_placing_cells_triangle():
    cells = placing_cells([(0, 0), (1, 0), (0, 1)])
    assert cells == [(0, 1, 2)]


def test_placing_cells_square_corner_order():
    cells = placing_cells([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert len(cells) == 2
    assert all(len(c) == 3 for c in cells)


def test_regular_subdivision_flat_lift_is_trivial():
    cfg = square_config()
    sub = regular_subdivision(cfg, WeightVector((0, 0, 0, 0)))
    assert sub.cells == ((0, 1, 2, 3),)


def test_regular_subdivision_lifted_corner_splits_square():
    cfg = square_config()
    sub = regular_subdivision(cfg, WeightVector((1, 0, 0, 0)))
    assert sub.cells == ((0, 1, 2), (1, 2, 3))


def test_regular_subdivision_translation_invariance():
    cfg = simplex_lattice_points(2, 2)
    rng = random.Random(5)
    w = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(len(cfg))]
    base = regular_subdivision(cfg, WeightVector(tuple(w)))
    shifted = regular_subdivision(cfg, WeightVector(tuple(x + Fraction(7, 3) for x in w)))
    assert base.cells == shifted.cells


def test_regular_subdivision_certificate_property():
    # Every lower-hull cell excludes outside points strictly: re-verify by
    # solving for each cell functional independently.
    from tropcay.exactarith import solve_rational

    cfg = simplex_lattice_points(2, 2)
    rng = random.Random(11)
    for _ in range(10):
        w = [Fraction(rng.randint(0, 9)) for _ in range(len(cfg))]
        sub = regular_subdivision(cfg, WeightVector(tuple(w)))
        volumes = []
        for cell in sub.cells:
            if len(cell) == 3:
                volumes.append(normalized_volume(cfg, cell))
            support = list(cell)[:3]
            rows = [list(cfg.points[i]) + [1] for i in support]
            sol = solve_rational(rows, [w[i] for i in support])
            assert sol is not None
            for q in range(len(cfg)):
                val = sol[0] * cfg.points[q][0] + sol[1] * cfg.points[q][1] + sol[2]
                if q in cell:
                    assert val == w[q]
                else:
                    assert val < w[q]
        if all(len(c) == 3 for c in sub.cells):
            assert sum(volumes) == normalized_volume(cfg)


def test_regular_subdivision_of_segment_with_kink():
    cfg = PointConfiguration(1, ((0,), (1,), (2,)), ("A", "B", "C"))
    sub = regular_subdivision(cfg, WeightVector((0, 0, 1)))
    assert sub.cells == ((0, 1), (1, 2))
    sub2 = regular_subdivision(cfg, WeightVector((0, 1, 0)))
    assert sub2.cells == ((0, 2),)


def test_regular_subdivision_raises_on_a_point_below_its_hull(monkeypatch):
    # A hull placed without the lowest point, the interior one here, has
    # that point beyond a lower facet: the integer check refuses it.
    cfg = simplex_lattice_points(2, 3)
    heights = [x * x + y * y + x * y for x, y in cfg.points]
    heights[cfg.points.index((1, 1))] = -5
    place = geometry._place
    monkeypatch.setattr(geometry, "_place", lambda points, order, ideal: place(points, order[1:], ideal))
    with pytest.raises(ArithmeticError):
        regular_subdivision(cfg, WeightVector(tuple(heights)))


# -- the lifted lower hull and the integer placing against the oracles ------

_SMALL = st.integers(-4, 4)
_HEIGHT = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2]))
_LIFTED = {
    "C(1D3,1D3)": cayley_config(simplex_lattice_points(3, 1), simplex_lattice_points(3, 1)),
    "C(1D3,2D3)": cayley_config(simplex_lattice_points(3, 1), simplex_lattice_points(3, 2)),
    "3D2": simplex_lattice_points(2, 3),
}
_CONFIG = st.sampled_from(sorted(_LIFTED)).map(_LIFTED.__getitem__)


@st.composite
def lifts(draw):
    """A configuration with small integer and half-integer heights: ties,
    and so non-simplicial cells, are common."""
    cfg = draw(_CONFIG)
    heights = draw(st.lists(_HEIGHT, min_size=len(cfg), max_size=len(cfg)))
    return cfg, WeightVector(tuple(heights))


@settings(max_examples=200, deadline=None)
@given(lifts())
def test_regular_subdivision_matches_subset_search(lift):
    cfg, w = lift
    assert regular_subdivision(cfg, w).cells == oracles.regular_subdivision(cfg, w).cells


@settings(max_examples=60, deadline=None)
@given(_CONFIG, st.data())
def test_affine_heights_give_one_cell(cfg, data):
    coeffs = data.draw(st.lists(_HEIGHT, min_size=cfg.ambient_dim + 1, max_size=cfg.ambient_dim + 1))
    *a, c = coeffs
    w = WeightVector(tuple(sum(x * y for x, y in zip(a, p)) + c for p in cfg.points))
    sub = regular_subdivision(cfg, w)
    assert sub.cells == (tuple(range(len(cfg))),)
    assert sub.cells == oracles.regular_subdivision(cfg, w).cells


@st.composite
def embeddings(draw):
    """A full-dimensional point set in Z^d, its image in Z^(d+1) under
    x -> U (x, 0) + t for U in GL(d+1, Z), and integer heights.  U is a
    product of row additions and a row permutation."""
    d = draw(st.integers(2, 3))
    pts = draw(st.lists(st.tuples(*[_SMALL] * d), min_size=d + 1, max_size=d + 4, unique=True))
    cfg = PointConfiguration(d, tuple(pts), block_labels(len(pts)))
    assume(cfg.affine_dim() == d)
    u = [[int(i == j) for j in range(d + 1)] for i in range(d + 1)]
    moves = st.tuples(st.integers(0, d), st.integers(0, d), st.integers(-2, 2))
    for i, j, k in draw(st.lists(moves, max_size=8)):
        if i != j:
            u[i] = [a + k * b for a, b in zip(u[i], u[j])]
    u = [u[i] for i in draw(st.permutations(range(d + 1)))]
    t = draw(st.tuples(*[_SMALL] * (d + 1)))
    image = [
        tuple(sum(a * x for a, x in zip(row, p + (0,))) + c for row, c in zip(u, t)) for p in pts
    ]
    embedded = PointConfiguration(d + 1, tuple(image), cfg.labels)
    heights = draw(st.lists(st.integers(-3, 3), min_size=len(pts), max_size=len(pts)))
    return cfg, embedded, WeightVector(tuple(heights))


@settings(max_examples=100, deadline=None)
@given(embeddings())
def test_a_unimodular_embedding_changes_nothing_the_library_reads(case):
    # Cells are index tuples and volumes are taken in the reduced lattice,
    # so no caller needs the reduction's map back to the ambient space.
    cfg, embedded, w = case
    assert embedded.affine_dim() == cfg.affine_dim()
    cells = placing_triangulation(cfg).cells
    assert placing_triangulation(embedded).cells == cells
    assert [normalized_volume(embedded, c) for c in cells] == [normalized_volume(cfg, c) for c in cells]
    assert regular_subdivision(embedded, w).cells == regular_subdivision(cfg, w).cells


@st.composite
def placements(draw):
    """Distinct integer points (general, collinear, coplanar or a single
    point) and a random insertion order."""
    d = draw(st.integers(1, 4))
    vector = st.tuples(*[_SMALL] * d)
    kind = draw(st.sampled_from(["general", "collinear", "coplanar", "single"]))
    if kind == "single":
        pts = [draw(vector)]
    elif kind == "general":
        pts = draw(st.lists(vector, min_size=1, max_size=9, unique=True))
    else:
        base = draw(vector)
        dirs = draw(st.lists(vector, min_size=1 if kind == "collinear" else 2, max_size=2))
        steps = draw(st.lists(st.tuples(*[_SMALL] * len(dirs)), min_size=1, max_size=9))
        pts = list(dict.fromkeys(
            tuple(b + sum(t * v[j] for t, v in zip(ts, dirs)) for j, b in enumerate(base))
            for ts in steps
        ))
    return pts, draw(st.permutations(range(len(pts))))


@settings(max_examples=300, deadline=None)
@given(placements())
def test_placing_cells_matches_fraction_placing(placement):
    pts, order = placement
    cells = placing_cells(pts, order)
    assert cells == oracles.placing_cells(pts, order)
    if len(pts) == 1:
        assert cells is None


# -- the per-cell functional table against the elimination oracle ------------


def _check_boundary_functionals(hull):
    """Every boundary facet's functional vanishes on the facet, is negative
    at its apex, is primitive and is the oracle's kernel vector of the
    facet's chart rows, oriented."""
    for facet, (apex, _cell) in hull.boundary.items():
        func = hull.functional(facet)
        assert all(geometry._dot(func, hull.chart(i)) == 0 for i in facet)
        assert geometry._dot(func, hull.chart(apex)) < 0
        assert gcd(*func) == 1
        want = oracles._functional_through([hull.chart(i) for i in facet])
        if geometry._dot(want, hull.chart(apex)) > 0:
            want = tuple(-x for x in want)
        assert func == want


def _check_every_insert(points, order, ideal=None):
    hull = geometry._BeneathBeyond(points, order[0], ideal)
    for idx in ([] if ideal is None else [ideal]) + list(order[1:]):
        hull.insert(idx)
        _check_boundary_functionals(hull)


@settings(max_examples=300, deadline=None)
@given(placements())
def test_placed_functionals_match_the_elimination(placement):
    pts, order = placement
    _check_every_insert(pts, order)


@settings(max_examples=60, deadline=None)
@given(lifts())
def test_lifted_functionals_match_the_elimination(lift):
    # Placed both as a plain hull and, as regular_subdivision places them,
    # under the upward ideal point: there the ideal apex's functional is
    # negative at the direction, that is, its height coefficient is.
    cfg, w = lift
    reduced = affine_reduce(cfg)
    heights, _ = clear_denominators(w.heights)
    n, rank = len(cfg), reduced.ambient_dim
    order = sorted(range(n), key=lambda i: (heights[i], i))
    lifted = [p + (h,) for p, h in zip(reduced.points, heights)]
    _check_every_insert(lifted, order)
    _check_every_insert(lifted + [(0,) * rank + (1,)], order, ideal=n)


def test_a_vertical_facet_is_not_a_lower_cell():
    # The lifted points over the edge x + y = 2 span a vertical facet, and
    # placing triangulates it by the finite simplex (3, 4, 5).  Its height
    # coefficient is 0, so it is no cell; skipping only the facets through
    # the ideal point would return it as a third.
    cfg = simplex_lattice_points(2, 2)
    w = WeightVector((3, 3, 0, 2, 3, 3))
    cells = ((0, 2, 3), (2, 3, 5))
    assert regular_subdivision(cfg, w).cells == cells
    assert oracles.regular_subdivision(cfg, w).cells == cells


def _cycle16():
    pkg = resources.files("tropcay.data") / "pairs"
    f1, f2 = (
        ValuedPolynomial.make(*polynomial_terms_from_dict(load_json(pkg / f"cycle16_{f}.json")))
        for f in ("f1", "f2")
    )
    p1, p2 = simplex_lattice_points(3, f1.degree), simplex_lattice_points(3, f2.degree)
    cfg = cayley_config(p1, p2)
    return cfg, WeightVector(tuple(f1.heights_for(p1.points) + f2.heights_for(p2.points)))


def test_lower_hull_of_a_quadric_pair_builds_no_upper_facet(monkeypatch):
    # Under the upward ideal point no facet functional is positive at the
    # direction, so no cell is placed on an upper facet: cycle16's hull
    # places 59 cells, against 106 for its whole hull.
    cfg, w = _cycle16()
    place, hulls = geometry._place, []
    monkeypatch.setattr(geometry, "_place", lambda *a, **k: hulls.append(place(*a, **k)) or hulls[-1])
    assert len(regular_subdivision(cfg, w).cells) == 32
    (hull,) = hulls
    rank = affine_reduce(cfg).ambient_dim
    assert all(hull.functional(facet)[rank] <= 0 for facet in hull.boundary)
    assert len(hull.cells) <= 64


def test_lower_hull_of_a_quadric_pair_eliminates_once_per_start_cell(monkeypatch):
    # Placed cells get their functionals from their parent cells; only the
    # cells present when the span last grows are eliminated.  Here that is
    # the first simplex, against 279 eliminations with one per facet.
    cfg, w = _cycle16()
    affine_reduce(cfg)  # cached: the count below is the hull's alone
    eliminate, calls = exactarith._eliminate, []
    monkeypatch.setattr(exactarith, "_eliminate", lambda *a: calls.append(1) or eliminate(*a))
    sub = regular_subdivision(cfg, w)
    assert len(sub.cells) == 32
    assert 1 <= len(calls) <= 3
