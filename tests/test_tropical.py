import json
from fractions import Fraction
from importlib import resources

import pytest

from tropcay.errors import DegenerateSubdivisionError, NonUnimodularError, SupportError
from tropcay.formats import polynomial_terms_from_dict
from tropcay.geometry import (
    normalized_volume,
    simplex_lattice_points,
)
from tropcay.tropical import (
    CurveGraph,
    ValuedPolynomial,
    cycle_length,
    dual_curve_planar,
    genus,
    is_connected,
    mixed_subdivision,
    tropicalize_pair,
)
from tropcay.triangulation import Triangulation, placing_triangulation


_PAIRS = resources.files("tropcay.data") / "pairs"
_PAIR_NAMES = sorted(p.name[: -len("_f1.json")] for p in _PAIRS.iterdir() if p.name.endswith("_f1.json"))


def load_pair(name):
    out = []
    for idx in (1, 2):
        doc = json.loads((_PAIRS / f"{name}_f{idx}.json").read_text())
        degree, terms = polynomial_terms_from_dict(doc)
        out.append(ValuedPolynomial.make(degree, terms))
    return out


def test_bundled_pair_triangulations_are_triangulations():
    assert len(_PAIR_NAMES) == 16
    for name in _PAIR_NAMES:
        t = tropicalize_pair(*load_pair(name)).triangulation
        Triangulation.make(t.configuration, t.cells)


def test_valued_polynomial_requires_full_support():
    with pytest.raises(SupportError):
        ValuedPolynomial.make(1, {(0, 0, 0): 0, (1, 0, 0): 1, (0, 1, 0): 2})
    with pytest.raises(SupportError):
        ValuedPolynomial.make(1, {(0, 0, 0): 0, (1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 2): 0})


def test_valued_polynomial_accepts_puiseux_exponents():
    f = ValuedPolynomial.make(
        1, {(0, 0, 0): "3/2", (1, 0, 0): 0, (0, 1, 0): "1/2", (0, 0, 1): 1}
    )
    assert dict(f.terms)[(0, 0, 0)] == Fraction(3, 2)


def test_mixed_subdivision_requires_cayley():
    cfg = simplex_lattice_points(2, 2)
    t = placing_triangulation(cfg)
    with pytest.raises(TypeError):
        mixed_subdivision(t)


def test_quadric_pair_statistics():
    f1, f2 = load_pair("cycle03")
    r = tropicalize_pair(f1, f2)
    assert len(r.triangulation.cells) == 32
    assert r.mixed_count == 16 and r.unmixed_count == 16
    assert r.color_counts == {"blue": 8, "red": 8}
    g = r.graph
    assert g.num_vertices == 16 and len(g.edges) == 16
    assert is_connected(g) and genus(g) == 1
    assert r.cycle_length == 3
    assert r.ray_total == 16
    assert max(g.degree_sequence()) <= 3


def test_quadric_pair_minkowski_volume_accounting():
    f1, f2 = load_pair("cycle03")
    r = tropicalize_pair(f1, f2)
    minkowski = normalized_volume(simplex_lattice_points(3, f1.degree + f2.degree))
    assert minkowski == 64
    assert r.unmixed_count * 1 + r.mixed_count * 3 == minkowski


def test_mixed_pair_degrees_two_one():
    f1, f2 = load_pair("sample21")
    r = tropicalize_pair(f1, f2)
    assert len(r.triangulation.cells) == 15
    assert r.mixed_count == 6 and r.unmixed_count == 9
    g = r.graph
    assert g.num_vertices == 6 and len(g.edges) == 5
    assert is_connected(g) and genus(g) == 0
    assert sorted(g.degree_sequence()) == [1, 1, 1, 2, 2, 3]
    minkowski = normalized_volume(simplex_lattice_points(3, 3))
    assert minkowski == 27
    assert r.unmixed_count + 3 * r.mixed_count == minkowski


def test_two_adic_pair_cycle_length_eight():
    f1, f2 = load_pair("twoadic")
    r = tropicalize_pair(f1, f2)
    assert r.cycle_length == 8


def test_degenerate_valuations_reported():
    zero = {p: 0 for p in simplex_lattice_points(3, 2).points}
    f = ValuedPolynomial.make(2, zero)
    with pytest.raises(DegenerateSubdivisionError) as err:
        tropicalize_pair(f, f)
    assert len(err.value.cell) > 5


def test_non_unimodular_valuations_reported():
    f1_terms = {
        (0, 0, 0): 7, (0, 0, 1): 9, (0, 1, 0): 5, (1, 0, 0): 4, (0, 0, 2): 2,
        (0, 1, 1): 2, (0, 2, 0): 0, (1, 0, 1): 5, (1, 1, 0): 8, (2, 0, 0): 7,
    }
    f2_terms = {
        (0, 0, 0): 9, (0, 0, 1): 1, (0, 1, 0): 5, (1, 0, 0): 8, (0, 0, 2): 9,
        (0, 1, 1): 0, (0, 2, 0): 6, (1, 0, 1): 2, (1, 1, 0): 7, (2, 0, 0): 6,
    }
    with pytest.raises(NonUnimodularError) as err:
        tropicalize_pair(
            ValuedPolynomial.make(2, f1_terms), ValuedPolynomial.make(2, f2_terms)
        )
    assert err.value.volume == 4
    assert len(err.value.cell) == 5


def test_dual_curve_planar_of_cubic():
    cfg = simplex_lattice_points(2, 3)
    t = placing_triangulation(cfg)
    g = dual_curve_planar(t)
    assert g.num_vertices == 9 and len(g.edges) == 9
    assert is_connected(g) and genus(g) == 1
    assert sum(g.ray_counts) == 9
    assert g.colors is None


def test_dual_curve_planar_two_triangle_square():
    from tropcay.geometry import PointConfiguration
    from tropcay.triangulation import Triangulation

    cfg = PointConfiguration(2, ((0, 0), (1, 0), (0, 1), (1, 1)), ("A", "B", "C", "D"))
    t = Triangulation.make(cfg, [(0, 1, 2), (1, 2, 3)])
    g = dual_curve_planar(t)
    assert g.num_vertices == 2 and g.edges == ((0, 1),)
    assert genus(g) == 0


def test_genus_and_cycle_length_basics():
    triangle = CurveGraph(3, ((0, 1), (1, 2), (0, 2)), None, (1, 1, 1), ((), (), ()))
    assert genus(triangle) == 1
    assert cycle_length(triangle) == 3
    pendant = CurveGraph(
        4, ((0, 1), (1, 2), (0, 2), (2, 3)), None, (1, 1, 0, 2), ((), (), (), ())
    )
    assert genus(pendant) == 1
    assert cycle_length(pendant) == 3
    tree = CurveGraph(3, ((0, 1), (1, 2)), None, (2, 1, 2), ((), (), ()))
    assert genus(tree) == 0
    assert cycle_length(tree) is None


def test_cycle_length_is_none_off_connected_genus_one():
    forest = CurveGraph(4, ((0, 1), (2, 3)), None, (2, 2, 2, 2), ((),) * 4)
    # a triangle beside a lone edge: genus 1, two components
    split = CurveGraph(5, ((0, 1), (1, 2), (0, 2), (3, 4)), None, (1, 1, 1, 2, 2), ((),) * 5)
    theta = CurveGraph(2, ((0, 1), (0, 1), (0, 1)), None, (0, 0), ((),) * 2)
    assert (genus(forest), is_connected(forest)) == (0, False)
    assert (genus(split), is_connected(split)) == (1, False)
    assert (genus(theta), is_connected(theta)) == (2, True)
    assert [cycle_length(g) for g in (forest, split, theta)] == [None, None, None]


def test_ray_count_identity():
    f1, f2 = load_pair("cycle05")
    g = tropicalize_pair(f1, f2).graph
    assert sum(g.ray_counts) == 3 * g.num_vertices - 2 * len(g.edges)


def _minkowski_vertices(ms, cell):
    """3-space vertex set of a sliced Minkowski cell (sums q1 + q2)."""
    cfg = ms.triangulation.configuration
    n1, _ = cfg.cayley_sizes
    pts1 = [cfg.points[i][2:] for i in cell.q1]
    pts2 = [cfg.points[n1 + i][2:] for i in cell.q2]
    return {tuple(a + b for a, b in zip(p, q)) for p in pts1 for q in pts2}


@pytest.mark.parametrize("pair_name", ["sample21", "cycle03"])
def test_edge_rule_matches_geometric_slices(pair_name):
    # Brute-force cross-check of the combinatorial adjacency rule: two mixed
    # cells share a (2,2)-type facet exactly when their sliced Minkowski
    # cells share a planar quadrilateral face.
    from oracles import rank_int

    f1, f2 = load_pair(pair_name)
    r = tropicalize_pair(f1, f2)
    ms = r.mixed
    mixed = ms.mixed_cells()
    edges = set(r.graph.edges)
    for i in range(len(mixed)):
        vi = _minkowski_vertices(ms, mixed[i])
        for j in range(i + 1, len(mixed)):
            vj = _minkowski_vertices(ms, mixed[j])
            common = sorted(vi & vj)
            is_quad = False
            if len(common) == 4:
                base = common[0]
                diffs = [[c[k] - base[k] for k in range(3)] for c in common[1:]]
                is_quad = rank_int(diffs) == 2
            assert is_quad == ((i, j) in edges)
