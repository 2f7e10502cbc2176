import random

import networkx as nx
import pytest

from oracles import histogram_by_cycle_length
from tropcay.geometry import simplex_lattice_points
from tropcay.graphs import (
    canonical_form,
    census,
    classify,
)
from tropcay.triangulation import builtin_symmetry
from tropcay.tropical import CurveGraph, dual_curve_planar
from tropcay.enumeration import EnumerationFilters, Enumerator


def make_graph(n, edges, colors=None):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return CurveGraph(n, tuple(sorted(edges)), colors, tuple(3 - d for d in deg), tuple(() for _ in range(n)))


def relabel(graph: CurveGraph, perm) -> CurveGraph:
    edges = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in graph.edges))
    colors = None
    if graph.colors is not None:
        colors = [None] * graph.num_vertices
        for v in range(graph.num_vertices):
            colors[perm[v]] = graph.colors[v]
        colors = tuple(colors)
    rays = [0] * graph.num_vertices
    for v in range(graph.num_vertices):
        rays[perm[v]] = graph.ray_counts[v]
    return CurveGraph(graph.num_vertices, edges, colors, tuple(rays), graph.vertex_cells)


@pytest.fixture(scope="module")
def planar_curve_graphs():
    cfg = simplex_lattice_points(2, 3)
    grp = builtin_symmetry("trivial", cfg)
    graphs = []
    for t in Enumerator(cfg, grp, EnumerationFilters(require_unimodular=True)).run():
        graphs.append(dual_curve_planar(t))
    assert len(graphs) == 79
    return graphs


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(17)
    samples = [
        make_graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0))),
        make_graph(5, ((0, 1), (0, 2), (0, 3), (3, 4))),
        make_graph(7, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6))),
    ]
    for g in samples:
        base = canonical_form(g)
        for _ in range(100):
            perm = list(range(g.num_vertices))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == base


def test_colored_canonical_form_distinguishes_colorings():
    cycle = ((0, 1), (1, 2), (2, 3), (3, 0))
    g1 = make_graph(4, cycle, ("blue", "blue", "red", "red"))
    g2 = make_graph(4, cycle, ("blue", "red", "blue", "red"))
    assert canonical_form(g1, use_colors=False) == canonical_form(g2, use_colors=False)
    assert canonical_form(g1, use_colors=True) != canonical_form(g2, use_colors=True)
    rng = random.Random(3)
    for _ in range(50):
        perm = list(range(4))
        rng.shuffle(perm)
        assert canonical_form(relabel(g1, perm), use_colors=True) == canonical_form(
            g1, use_colors=True
        )


def test_path_and_star_have_distinct_forms():
    p3 = make_graph(4, ((0, 1), (1, 2), (2, 3)))
    k13 = make_graph(4, ((0, 1), (0, 2), (0, 3)))
    assert canonical_form(p3) != canonical_form(k13)


def test_planar_curves_fall_into_18_classes(planar_curve_graphs):
    graphs = planar_curve_graphs
    table = classify((g, str(i)) for i, g in enumerate(graphs))
    assert table.class_count() == 18
    assert table.total == 79
    assert sum(e.count for e in table.entries()) == 79
    hist = histogram_by_cycle_length(table)
    assert hist == {3: 2, 4: 4, 5: 4, 6: 4, 7: 2, 8: 1, 9: 1}
    # representatives pairwise non-isomorphic, confirmed by independent search
    reps = [e.representative for e in table.entries()]
    for i in range(len(reps)):
        gi = nx.Graph(list(reps[i].edges))
        for j in range(i + 1, len(reps)):
            gj = nx.Graph(list(reps[j].edges))
            assert not nx.is_isomorphic(gi, gj)


def test_classify_merge_consistency(planar_curve_graphs):
    graphs = planar_curve_graphs
    rng = random.Random(23)
    single = classify((g, f"{i:03d}") for i, g in enumerate(graphs))
    indexed = list(enumerate(graphs))
    rng.shuffle(indexed)
    cut = len(indexed) // 3
    parts = [indexed[:cut], indexed[cut : 2 * cut], indexed[2 * cut :]]
    tables = [classify((g, f"{i:03d}") for i, g in part) for part in parts]
    merged = tables[0].merge(tables[1]).merge(tables[2])
    merged_other = tables[2].merge(tables[0].merge(tables[1]))
    for m in (merged, merged_other):
        assert m.class_count() == single.class_count()
        assert m.total == single.total
        assert [
            (e.form, e.count, e.provenance) for e in m.entries()
        ] == [(e.form, e.count, e.provenance) for e in single.entries()]


def test_classify_survives_hash_collisions():
    # The table is keyed by the full canonical form: graphs with the same
    # vertex and edge counts stay apart unless isomorphic.
    p3 = make_graph(4, ((0, 1), (1, 2), (2, 3)))
    k13 = make_graph(4, ((0, 1), (0, 2), (0, 3)))
    table = classify([(p3, "a"), (k13, "b"), (relabel(p3, [3, 2, 1, 0]), "c")])
    assert table.class_count() == 2
    counts = sorted(e.count for e in table.entries())
    assert counts == [1, 2]


def test_classify_empty_stream():
    table = classify([])
    assert table.class_count() == 0
    assert table.total == 0
    assert table.entries() == []


def test_colored_form_degrades_gracefully_without_colors():
    g = make_graph(3, ((0, 1), (1, 2)))
    assert canonical_form(g, use_colors=True) == canonical_form(g, use_colors=False)


def test_color_respecting_classification_of_quadric_curves():
    import json
    from importlib import resources

    from tropcay.formats import polynomial_terms_from_dict
    from tropcay.tropical import ValuedPolynomial, tropicalize_pair

    pkg = resources.files("tropcay.data") / "pairs"
    graphs = []
    for length in (3, 4, 5):
        fs = []
        for idx in (1, 2):
            doc = json.loads((pkg / f"cycle{length:02d}_f{idx}.json").read_text())
            fs.append(ValuedPolynomial.make(*polynomial_terms_from_dict(doc)))
        graphs.append((tropicalize_pair(*fs).graph, f"len{length}"))
    plain = classify(graphs)
    colored = classify(graphs, use_colors=True)
    assert plain.class_count() == 3
    assert colored.class_count() >= plain.class_count()
    for entry in colored.entries():
        assert entry.form.colors is not None


def test_table_pair_curves_give_fourteen_classes():
    # Distinct cycle lengths force pairwise non-isomorphism.
    import json
    from importlib import resources

    from tropcay.formats import polynomial_terms_from_dict
    from tropcay.tropical import ValuedPolynomial, tropicalize_pair

    pkg = resources.files("tropcay.data") / "pairs"
    graphs = []
    for length in range(3, 17):
        fs = []
        for idx in (1, 2):
            doc = json.loads((pkg / f"cycle{length:02d}_f{idx}.json").read_text())
            fs.append(ValuedPolynomial.make(*polynomial_terms_from_dict(doc)))
        graphs.append((tropicalize_pair(*fs).graph, f"len{length}"))
    table = classify(graphs)
    assert table.class_count() == 14
    assert [e.cycle_length for e in table.entries()] == list(range(3, 17))


def test_census_small_cases():
    assert census(3, 3, 3, "simple") == 1
    assert census(2, 1, 3, "simple") == 1
    assert census(4, 3, 3, "simple") == 2  # path and star
    assert census(1, 0, 3, "simple") == 1
    assert census(4, 4, 3, "simple") == 2  # 4-cycle, triangle with a pendant


def test_census_triangle_by_hand():
    # Exhaustive check: connected simple graphs on 3 labeled vertices with
    # 3 edges and max degree 3 collapse to the triangle alone.
    from itertools import combinations

    pairs = list(combinations(range(3), 2))
    found = set()
    for edges in combinations(pairs, 3):
        deg = [0, 0, 0]
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if max(deg) <= 3:
            found.add(canonical_form((3, tuple(edges))))
    assert len(found) == census(3, 3, 3, "simple")


def test_census_conventions_pinned_by_80():
    assert census(9, 9, 3, "simple") == 80
    assert census(9, 9, 3, "multigraph") > 80
    assert census(9, 9, 3, "multigraph-loops") > 80


def test_census_loop_and_multi_edge_counting():
    # One vertex with a loop is the only connected (1,1) multigraph-with-loops.
    assert census(1, 1, 3, "multigraph-loops") == 1
    assert census(1, 1, 3, "multigraph") == 0
    # Two vertices, two parallel edges.
    assert census(2, 2, 3, "multigraph") == 1
    assert census(2, 2, 3, "simple") == 0


def test_census_vertex_limit():
    with pytest.raises(ValueError):
        census(13, 12, 3, "simple")


def test_census_realized_fraction():
    realized = 18
    total = census(9, 9, 3, "simple")
    assert realized / total == 0.225
