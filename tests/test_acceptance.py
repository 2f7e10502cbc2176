"""Acceptance suite: one test per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion with measured runtimes.
"""

import json
import random
import sys
import time
from importlib import resources

import pytest

from oracles import histogram_by_cycle_length
from tropcay.cli import EXIT_OK, main
from tropcay.enumeration import (
    EnumerationFilters,
    Enumerator,
    load_checkpoint,
)
from tropcay.formats import load_json, polynomial_terms_from_dict
from tropcay.geometry import (
    cayley_config,
    normalized_volume,
    regular_subdivision,
    simplex_lattice_points,
)
from tropcay.graphs import canonical_form, census, classify
from tropcay.triangulation import (
    apply_symmetry,
    builtin_symmetry,
    flips,
    is_regular,
    is_unimodular,
)
from tropcay.tropical import (
    ValuedPolynomial,
    cycle_length,
    dual_curve_3d,
    dual_curve_planar,
    genus,
    is_connected,
    mixed_subdivision,
    tropicalize_pair,
)

CYCLE_LENGTHS = list(range(3, 17))
PLANAR_HISTOGRAM = {3: 2, 4: 4, 5: 4, 6: 4, 7: 2, 8: 1, 9: 1}


def announce(criterion, detail):
    print(f"ACCEPTANCE CRITERION {criterion}: PASS ({detail})", file=sys.stderr)


def pair_path(name, idx):
    return str(resources.files("tropcay.data") / "pairs" / f"{name}_f{idx}.json")


def load_pair(name):
    out = []
    for idx in (1, 2):
        degree, terms = polynomial_terms_from_dict(load_json(pair_path(name, idx)))
        out.append(ValuedPolynomial.make(degree, terms))
    return out


@pytest.fixture(scope="module")
def planar_config():
    return simplex_lattice_points(2, 3)


@pytest.fixture(scope="module")
def planar_79(planar_config):
    grp = builtin_symmetry("trivial", planar_config)
    return list(Enumerator(planar_config, grp, EnumerationFilters(require_unimodular=True)).run())


@pytest.fixture(scope="module")
def planar_18(planar_config):
    grp = builtin_symmetry("simplex-3d2", planar_config)
    return list(Enumerator(planar_config, grp, EnumerationFilters(require_unimodular=True)).run())


@pytest.fixture(scope="module")
def table_reports():
    reports = {}
    timings = {}
    for length in CYCLE_LENGTHS:
        f1, f2 = load_pair(f"cycle{length:02d}")
        t0 = time.time()
        reports[length] = tropicalize_pair(f1, f2)
        timings[length] = time.time() - t0
    return reports, timings


def test_criterion_1_planar_classification(planar_config, planar_79, planar_18):
    t0 = time.time()
    assert len(planar_79) == 79
    assert len(planar_18) == 18
    table = classify(
        (dual_curve_planar(t), f"{i:03d}") for i, t in enumerate(planar_79)
    )
    assert table.class_count() == 18
    assert histogram_by_cycle_length(table) == PLANAR_HISTOGRAM
    elapsed = time.time() - t0
    assert elapsed < 120
    announce(1, f"79 triangulations, 18 orbits, 18 classes, histogram exact, {elapsed:.1f}s")


def test_criterion_2_table_pairs_end_to_end(tmp_path, table_reports):
    reports, timings = table_reports
    for length in CYCLE_LENGTHS:
        r = reports[length]
        assert len(r.triangulation.cells) == 32
        assert is_unimodular(r.triangulation)
        assert r.mixed_count == 16 and r.unmixed_count == 16
        assert r.color_counts == {"blue": 8, "red": 8}
        g = r.graph
        assert g.num_vertices == 16 and len(g.edges) == 16
        assert is_connected(g) and genus(g) == 1
        assert max(g.degree_sequence()) <= 3
        assert r.cycle_length == length
        assert timings[length] < 10
    # the command-line front end agrees on the first pair
    out = tmp_path / "row3"
    code = main(
        ["tropicalize", pair_path("cycle03", 1), pair_path("cycle03", 2), "--out", str(out)]
    )
    assert code == EXIT_OK
    doc = load_json(out / "report.json")
    assert doc["cycle_length"] == 3 and doc["mixed_count"] == 16
    worst = max(timings.values())
    announce(2, f"14 pairs, cycle lengths 3..16 in row order, worst pair {worst:.1f}s")


def test_criterion_3_two_adic_pair():
    f1, f2 = load_pair("twoadic")
    t0 = time.time()
    r = tropicalize_pair(f1, f2)
    assert r.cycle_length == 8
    announce(3, f"2-adic valuations give cycle length 8, {time.time() - t0:.1f}s")


def test_criterion_4_degree_two_one_pair():
    f1, f2 = load_pair("sample21")
    t0 = time.time()
    r = tropicalize_pair(f1, f2)
    assert r.unmixed_count == 9 and r.mixed_count == 6
    g = r.graph
    assert g.num_vertices == 6 and len(g.edges) == 5
    assert is_connected(g) and genus(g) == 0
    announce(4, f"9 unmixed + 6 mixed, dual curve is a 6-vertex tree, {time.time() - t0:.1f}s")


def test_criterion_5_volume_identities(table_reports):
    cayley = cayley_config(simplex_lattice_points(3, 2), simplex_lattice_points(3, 2))
    assert normalized_volume(cayley) == 32
    assert normalized_volume(simplex_lattice_points(3, 4)) == 64
    reports, _ = table_reports
    for length in CYCLE_LENGTHS:
        r = reports[length]
        assert r.unmixed_count * 1 + r.mixed_count * 3 == 64
    announce(5, "vol C(2D3,2D3)=32, vol 4D3=64, 16*1+16*3=64 on all 14 pairs")


def test_criterion_6_census():
    t0 = time.time()
    count = census(9, 9, 3, "simple")
    assert count == 80
    elapsed = time.time() - t0
    assert elapsed < 300
    fraction = 18 / count
    assert fraction == 0.225
    announce(
        6,
        f"census(9,9,3,simple)=80 in {elapsed:.1f}s; realized fraction 18/80 = 22.5%",
    )


def test_criterion_7_property_suites(planar_config, planar_79, planar_18, tmp_path):
    t0 = time.time()
    # flip involution over every planar unimodular representative
    for t in planar_79:
        neighbors = flips(t)
        assert len(neighbors) >= 1
        for flip, nb in neighbors:
            back = [t2 for g, t2 in flips(nb) if g == flip.reversed()]
            assert len(back) == 1 and back[0].cells == t.cells

    # regularity witnesses round-trip exactly
    for t in planar_79:
        w = is_regular(t)
        assert w is not None
        assert regular_subdivision(planar_config, w).cells == t.cells

    # canonical form invariance under 100 random relabelings per class graph
    rng = random.Random(2024)
    for t in planar_18:
        g = dual_curve_planar(t)
        base = canonical_form(g)
        for _ in range(100):
            perm = list(range(g.num_vertices))
            rng.shuffle(perm)
            edges = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))
            relabeled = type(g)(
                g.num_vertices, edges, None, g.ray_counts, g.vertex_cells
            )
            assert canonical_form(relabeled) == base

    # fresh vs halt-and-resume
    filters = EnumerationFilters(require_unimodular=True)
    trivial = builtin_symmetry("trivial", planar_config)
    ckpt = str(tmp_path / "halt.ckpt.json")
    en = Enumerator(planar_config, trivial, filters, checkpoint_path=ckpt)
    first = list(en.run(limit=10))
    rest = list(load_checkpoint(ckpt).run())
    fresh = sorted(t.cells for t in Enumerator(planar_config, trivial, filters).run())
    assert sorted(t.cells for t in first + rest) == fresh
    assert len(first) + len(rest) == len(fresh)

    # symmetry application preserves unimodularity
    grp6 = builtin_symmetry("simplex-3d2", planar_config)
    for t in planar_79[::7]:
        for g in grp6.elements:
            assert is_unimodular(apply_symmetry(t, g))
    announce(7, f"flip involution, witness round-trips, canonical invariance, "
                f"resume set equality, symmetry-unimodularity, {time.time() - t0:.0f}s")


def test_criterion_8_stream_100k_with_mid_run_resume(tmp_path):
    config = cayley_config(simplex_lattice_points(3, 2), simplex_lattice_points(3, 2))
    group = builtin_symmetry("cayley-2d3-2d3", config)
    ckpt = str(tmp_path / "stress.ckpt.json")

    t0 = time.time()
    first_keys = set()
    sampled = 0
    en = Enumerator(config, group, checkpoint_path=ckpt, checkpoint_every=25000)

    def check_unimodular_stats(t):
        ms = mixed_subdivision(t)
        assert len(ms.mixed_cells()) == 16 and len(ms.unmixed_cells()) == 16
        g = dual_curve_3d(ms)
        assert g.num_vertices == 16 and len(g.edges) == 16
        assert g.colors.count("blue") == 8 and g.colors.count("red") == 8
        assert is_connected(g) and genus(g) == 1
        assert max(g.degree_sequence()) <= 3
        assert sum(g.ray_counts) == 16
        assert 3 <= cycle_length(g) <= 16

    count = 0
    for t in en.run(limit=60000):
        count += 1
        first_keys.add(t.cells)
        if count % 97 == 0 and is_unimodular(t):
            check_unimodular_stats(t)
            sampled += 1
    assert count >= 60000
    halted_stats = en.stats()
    assert not en.complete

    resumed = load_checkpoint(ckpt)
    assert resumed.emitted == halted_stats["emitted"]
    second_keys = set()
    for t in resumed.run(limit=100000):
        count += 1
        second_keys.add(t.cells)
        if count % 97 == 0 and is_unimodular(t):
            check_unimodular_stats(t)
            sampled += 1
    elapsed = time.time() - t0
    assert count >= 100000
    assert not (first_keys & second_keys), "resume re-emitted a class"
    assert len(first_keys | second_keys) == count
    assert sampled > 100
    announce(
        8,
        f"streamed {count} symmetry classes with mid-run checkpoint+resume, "
        f"{sampled} unimodular samples validated, {elapsed / 60:.1f} min",
    )
