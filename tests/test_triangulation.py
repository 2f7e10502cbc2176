import random
from fractions import Fraction
from functools import reduce
from math import gcd
from itertools import combinations, permutations
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tropcay.errors import GroupBoundError
from tropcay.geometry import (
    PointConfiguration,
    WeightVector,
    block_labels,
    cayley_config,
    normalized_volume,
    regular_subdivision,
    simplex_lattice_points,
)
from tropcay import triangulation as triangulation_module
from tropcay.lp import relaxed_witness, strict_lp_feasible
from tropcay.triangulation import (
    FlipEngine,
    RelabelContext,
    SymmetryGroup,
    Triangulation,
    apply_symmetry,
    builtin_symmetry,
    certify_affine_action,
    flip_engine,
    flips,
    is_regular,
    is_unimodular,
    orbit_canonical_rep,
    placing_triangulation,
)


def square_config():
    return PointConfiguration(2, ((0, 0), (1, 0), (0, 1), (1, 1)), ("A", "B", "C", "D"))


def square_left():
    return Triangulation.make(square_config(), [(0, 1, 2), (1, 2, 3)])


def square_right():
    return Triangulation.make(square_config(), [(0, 1, 3), (0, 2, 3)])


def cubic_polygon():
    return simplex_lattice_points(2, 3)


def point_index(cfg, coords):
    return cfg.points.index(tuple(coords))


def triangulation_from_coords(cfg, triangles):
    cells = [tuple(point_index(cfg, p) for p in tri) for tri in triangles]
    return Triangulation.make(cfg, cells)


def rotated_pair():
    """Two hand-checked unimodular triangulations of the cubic polygon that
    differ by a rotation of the triangle."""
    cfg = cubic_polygon()
    left = triangulation_from_coords(cfg, [
        [(0, 3), (0, 2), (1, 2)],
        [(0, 1), (0, 2), (1, 2)],
        [(0, 1), (1, 1), (1, 2)],
        [(1, 1), (1, 2), (2, 1)],
        [(0, 0), (0, 1), (1, 0)],
        [(0, 1), (1, 0), (1, 1)],
        [(1, 0), (1, 1), (2, 1)],
        [(1, 0), (2, 0), (2, 1)],
        [(2, 0), (3, 0), (2, 1)],
    ])
    right = triangulation_from_coords(cfg, [
        [(0, 3), (0, 2), (1, 2)],
        [(0, 2), (1, 2), (1, 1)],
        [(0, 2), (1, 1), (1, 0)],
        [(0, 2), (0, 1), (1, 0)],
        [(0, 0), (0, 1), (1, 0)],
        [(1, 0), (1, 1), (2, 0)],
        [(1, 1), (1, 2), (2, 0)],
        [(2, 0), (2, 1), (1, 2)],
        [(2, 0), (3, 0), (2, 1)],
    ])
    return cfg, left, right


def nested_triangles():
    """The classic twisted 6-point triangulation that is not regular."""
    cfg = PointConfiguration(
        2,
        ((0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)),
        ("A", "B", "C", "a", "b", "c"),
    )
    t = Triangulation.make(cfg, [
        (0, 1, 4), (0, 3, 4), (1, 2, 5), (1, 4, 5), (0, 2, 3), (2, 3, 5), (3, 4, 5),
    ])
    return cfg, t


def test_unimodular_square_split():
    assert is_unimodular(square_left())
    assert is_unimodular(square_right())


def test_unimodular_fails_on_coarse_cell():
    cfg = simplex_lattice_points(2, 2)
    corners = tuple(i for i, p in enumerate(cfg.points) if sorted(p) in ([0, 0], [0, 2]))
    t = Triangulation.make(cfg, [corners])
    assert not is_unimodular(t)
    assert normalized_volume(cfg, corners) == 4


def test_placing_three_points():
    cfg = PointConfiguration(2, ((0, 0), (2, 0), (0, 3)), ("A", "B", "C"))
    t = placing_triangulation(cfg)
    assert t.cells == ((0, 1, 2),)


def test_placing_square_corner_order():
    t = placing_triangulation(square_config())
    assert len(t.cells) == 2
    Triangulation.make(t.configuration, t.cells)


def test_placing_cubic_polygon_is_valid():
    t = placing_triangulation(cubic_polygon())
    assert sum(normalized_volume(t.configuration, c) for c in t.cells) == 9
    Triangulation.make(t.configuration, t.cells)


def test_placing_cayley_volume_conservation():
    cfg = cayley_config(simplex_lattice_points(3, 2), simplex_lattice_points(3, 2))
    t = placing_triangulation(cfg)
    assert sum(normalized_volume(cfg, c) for c in t.cells) == 32
    Triangulation.make(cfg, t.cells)


_PLACED = {
    "3D2": cubic_polygon(),
    "C(1D3,1D3)": cayley_config(simplex_lattice_points(3, 1), simplex_lattice_points(3, 1)),
    "C(2D3,2D3)": cayley_config(simplex_lattice_points(3, 2), simplex_lattice_points(3, 2)),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_PLACED)), st.data())
def test_placing_any_order_is_a_triangulation(name, data):
    cfg = _PLACED[name]
    order = data.draw(st.permutations(range(len(cfg))))
    Triangulation.make(cfg, placing_triangulation(cfg, order).cells)


def test_placing_respects_order_override():
    cfg = square_config()
    t1 = placing_triangulation(cfg, order=[0, 1, 2, 3])
    t2 = placing_triangulation(cfg, order=[3, 1, 2, 0])
    Triangulation.make(cfg, t1.cells)
    Triangulation.make(cfg, t2.cells)


def test_flips_square_single_flip_other_diagonal():
    t = square_left()
    result = flips(t)
    assert len(result) == 1
    flip, other = result[0]
    assert other.cells == square_right().cells
    back = flips(other)
    assert len(back) == 1
    assert back[0][1].cells == t.cells
    assert back[0][0] == flip.reversed()


def test_flips_single_triangle_has_none():
    cfg = PointConfiguration(2, ((0, 0), (1, 0), (0, 1)), ("A", "B", "C"))
    t = placing_triangulation(cfg)
    assert flips(t) == []


def test_flip_insertion_and_removal_of_interior_point():
    cfg = PointConfiguration(2, ((0, 0), (2, 0), (0, 2), (1, 1), (2, 2)), ("A", "B", "C", "D", "E"))
    coarse = Triangulation.make(cfg, [(0, 1, 2), (1, 2, 4)])
    result = flips(coarse)
    insertions = [(f, t2) for f, t2 in result if len(f.plus) == 1]
    assert insertions, "expected an insertion flip for the unused interior point"
    for f, t2 in insertions:
        Triangulation.make(cfg, t2.cells)
        reverse = [(g, t3) for g, t3 in flips(t2) if g == f.reversed()]
        assert len(reverse) == 1
        assert reverse[0][1].cells == coarse.cells


def test_flips_neighbors_are_valid_and_involutive():
    t = placing_triangulation(cubic_polygon())
    for flip, nb in flips(t):
        Triangulation.make(nb.configuration, nb.cells)
        back = [t2 for g, t2 in flips(nb) if g == flip.reversed()]
        assert len(back) == 1 and back[0].cells == t.cells


def test_placing_triangulation_is_regular_with_roundtrip():
    for cfg in (square_config(), cubic_polygon()):
        t = placing_triangulation(cfg)
        w = is_regular(t)
        assert w is not None
        sub = regular_subdivision(cfg, w)
        assert sub.cells == t.cells
    # One simplex: neither system has a row, so the witness is all zeros.
    for cfg in (simplex_lattice_points(2, 1), simplex_lattice_points(3, 1)):
        t = placing_triangulation(cfg)
        engine = flip_engine(cfg)
        assert engine.solve(engine.regularity_rows(engine.to_masks(t.cells))) == (0,) * len(cfg)
        for mode in ("global", "local"):
            w = is_regular(t, mode=mode)
            assert w.heights == (0,) * len(cfg)
            assert regular_subdivision(cfg, w).cells == t.cells


def test_both_square_diagonals_are_regular():
    for t in (square_left(), square_right()):
        w = is_regular(t)
        assert w is not None
        assert regular_subdivision(t.configuration, w).cells == t.cells


def test_nested_triangles_not_regular():
    cfg, t = nested_triangles()
    Triangulation.make(cfg, t.cells)
    assert is_regular(t) is None
    assert is_regular(t, mode="local") is None
    engine = flip_engine(cfg)
    rows = oracles.global_rows(engine, engine.to_masks(t.cells))
    assert strict_lp_feasible(rows, [0] * len(rows)) is None


def test_is_regular_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="bogus"):
        is_regular(square_left(), mode="bogus")


def test_nested_triangles_infeasibility_certificate_by_brute_force():
    # Independent oracle: exhaustively search the dual system
    # {y >= 0, sum y = 1, y^T A = 0} over all supports.
    cfg, t = nested_triangles()
    engine = flip_engine(cfg)
    rows = engine.regularity_rows(engine.to_masks(t.cells))
    m = len(rows)
    n = len(rows[0])
    certificate = None
    for size in range(1, min(m, n + 1) + 1):
        for support in combinations(range(m), size):
            cols = [[Fraction(rows[i][j]) for i in support] for j in range(n)]
            cols.append([Fraction(1)] * size)
            y = oracles.solve_general(cols, [Fraction(0)] * n + [Fraction(1)])
            if y is None or any(v < 0 for v in y):
                continue
            full = [Fraction(0)] * m
            for k, i in enumerate(support):
                full[i] = y[k]
            if all(sum(full[i] * rows[i][j] for i in range(m)) == 0 for j in range(n)):
                certificate = full
                break
        if certificate:
            break
    assert certificate is not None


def test_local_and_global_regularity_agree():
    rng = random.Random(3)
    cfg = cubic_polygon()
    seen = [placing_triangulation(cfg)]
    for _ in range(12):
        t = seen[rng.randrange(len(seen))]
        nbs = flips(t)
        if nbs:
            seen.append(nbs[rng.randrange(len(nbs))][1])
    cfg2, twisted = nested_triangles()
    cases = seen + [twisted]
    for t in cases:
        wg = is_regular(t, mode="global")
        wl = is_regular(t, mode="local")
        assert (wg is None) == (wl is None)
        for w in (wg, wl):
            if w is not None:
                assert regular_subdivision(t.configuration, w).cells == t.cells


_WALKED = {
    "3D2": simplex_lattice_points(2, 3),
    "C(1D3,1D3)": cayley_config(simplex_lattice_points(3, 1), simplex_lattice_points(3, 1)),
    "C(1D3,2D3)": cayley_config(simplex_lattice_points(3, 1), simplex_lattice_points(3, 2)),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_WALKED)), st.integers(0, 12), st.data())
def test_circuit_matches_barycentric_row(name, steps, data):
    # A random flip walk from the placing triangulation; it may leave the
    # regular triangulations, whose circuits must agree all the same.
    engine = flip_engine(_WALKED[name])
    masks = engine.to_masks(placing_triangulation(_WALKED[name]).cells)
    for _ in range(steps):
        nbrs = engine.neighbors(masks)
        if not nbrs:
            break
        masks = nbrs[data.draw(st.integers(0, len(nbrs) - 1))][1]
    for cm in masks:
        volume, _rows, inside = engine.cell(cm)
        assert volume == normalized_volume(_WALKED[name], engine.bits(cm))
        assert inside == oracles.points_inside(engine, cm)
        for p in range(engine.n):
            if not (cm >> p) & 1:
                assert engine.circuit(cm, p) == oracles.constraint_row(engine, cm, p)


@pytest.mark.parametrize("name", ["3D2", "C(1D3,2D3)"])
def test_local_circuits_match_the_oracle_scan(name):
    # Seeded flip walks that leave points unused and use them again: the
    # wall circuits and the inside-mask scan equal the sign scan in order.
    cfg = _WALKED[name]
    engine = flip_engine(cfg)
    rng = random.Random(11)
    with_unused = 0
    for _ in range(6):
        masks = engine.to_masks(placing_triangulation(cfg).cells)
        for _ in range(15):
            walls = engine.wall_circuits(masks)
            assert engine.local_circuits(masks, walls) == oracles.local_circuits(engine, masks)
            with_unused += not engine.is_full(masks)
            masks = rng.choice(engine.neighbors(masks))[1]
    assert with_unused >= 10


# Walks for the rows a flip derives from its scan: 3D2, C(1D3,2D3) and the
# nested triangles use and drop points; the nested triangles and the
# quadric have non-regular children.
_DERIVED = {
    "3D2/trivial": (_WALKED["3D2"], "trivial"),
    "C(1D3,2D3)/trivial": (_WALKED["C(1D3,2D3)"], "trivial"),
    "C(2D3,2D3)/S4xZ2": (
        cayley_config(simplex_lattice_points(3, 2), simplex_lattice_points(3, 2)), "s4xz2",
    ),
    "nested/trivial": (nested_triangles()[0], "trivial"),
}


def _flip_walk(name, steps, choose):
    """``(engine, flip, child)`` for every flip of every step of a walk
    that moves, as the enumerator does, to the canonical form of the
    child ``choose(count)`` picks, regular or not."""
    cfg, kind = _DERIVED[name]
    engine = flip_engine(cfg)
    context = RelabelContext(engine, builtin_symmetry(kind, cfg).elements)
    masks = context.canonical(engine.to_masks(placing_triangulation(cfg).cells))[0]
    for _ in range(steps):
        nbrs = engine.neighbors(masks)
        for flip, child in nbrs:
            yield engine, flip, child
        masks = context.canonical(nbrs[choose(len(nbrs))][1])[0]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_DERIVED)), st.integers(1, 10), st.data())
def test_derived_rows_match_a_fresh_scan(name, steps, data):
    # A wall paired with a survivor may list its two cells in either order.
    def unordered(walls):
        return {fm: ({sigma, tau}, row) for fm, (sigma, tau, row) in walls.items()}

    for engine, flip, child in _flip_walk(name, steps, lambda k: data.draw(st.integers(0, k - 1))):
        derived = engine.regularity_rows(child, flip)
        assert derived == sorted(engine.local_circuits(child, engine.wall_circuits(child)))
        assert unordered(engine.wall_circuits(child, flip)) == unordered(engine.wall_circuits(child))


def test_derived_rows_walks_change_points_and_leave_regularity():
    # Seeded walks of the same kind, which must meet flips that use or
    # drop a point and flips to non-regular children.
    rng = random.Random(7)
    changed = non_regular = checked = 0
    for name in sorted(_DERIVED):
        for _ in range(3):
            for engine, flip, child in _flip_walk(name, 12, rng.randrange):
                rows = engine.regularity_rows(child, flip)
                assert rows == sorted(engine.local_circuits(child, engine.wall_circuits(child)))
                parent = set(child).difference(flip.added).union(flip.removed)
                changed += reduce(or_, parent) != reduce(or_, child)
                non_regular += engine.solve(rows) is None
                checked += 1
    assert changed >= 100 and non_regular >= 3, (changed, non_regular, checked)


def test_degenerate_cell_has_volume_zero_and_no_circuit():
    engine = flip_engine(cubic_polygon())
    line = engine.mask_of((0, 1, 3))  # (0, 0), (0, 1), (0, 2)
    assert engine.cell(line) == (0, None, 0)
    with pytest.raises(ValueError):
        engine.circuit(line, 5)
    with pytest.raises(ValueError):
        engine.circuit(engine.mask_of((0, 6, 9)), 0)  # 0 is a vertex


def test_walls_build_no_cell_entry():
    # Dual curves need walls only; no elimination may run for them.
    cfg = _WALKED["C(1D3,2D3)"]
    engine = FlipEngine(cfg)
    masks = engine.to_masks(placing_triangulation(cfg).cells)
    assert engine.walls(masks) and engine.to_cells(masks)
    assert engine._cells == {}


def _tree_rows(engine, masks, walls):
    """The rows of the spanning tree ``FlipEngine.lift`` documents: the
    cells breadth-first from the first one, each one's walls in facet
    order; a wall is in the tree when it first reaches a vertex."""
    queue, reached, known, tree = [masks[0]], {masks[0]}, masks[0], []
    for cm in queue:
        for fm in engine.facets(cm):
            if fm in walls:
                sigma, tau, row = walls[fm]
                other = tau if sigma == cm else sigma
                apex = other & ~fm
                if other not in reached:
                    reached.add(other)
                    queue.append(other)
                    if not known & apex:
                        known |= apex
                        tree.append(row)
    return tree


@pytest.mark.parametrize("name", ["3D2", "C(1D3,2D3)", "nested"])
def test_lift_puts_the_tree_walls_and_unused_points_at_one_margin(name):
    # Seeded walks that leave points unused and reach non-regular
    # triangulations.  The check's scan is the wall scan the lift reads;
    # the first cell is at height 0, every tree wall's
    # circuit and every unused point's circuit with a cell holding it
    # take one positive value, and the heights are primitive.
    cfg = {**_WALKED, "nested": nested_triangles()[0]}[name]
    engine = flip_engine(cfg)
    rng = random.Random(5)
    with_unused = 0
    for _ in range(4):
        masks = engine.to_masks(placing_triangulation(cfg).cells)
        for _ in range(12):
            walls = engine.wall_circuits(masks)
            assert engine.check_triangulation(masks) == walls
            heights = engine.lift(masks, walls)
            assert all(heights[i] == 0 for i in engine.bits(masks[0]))
            tree = _tree_rows(engine, masks, walls)
            used = reduce(or_, masks)
            assert len(tree) == used.bit_count() - engine.cell_size
            values = {sum(c * h for c, h in zip(row, heights)) for row in tree}
            for p in engine.bits(engine.all_mask & ~used):
                with_unused += 1
                for cm in masks:
                    if engine.cell(cm)[2] >> p & 1:
                        values.add(sum(c * h for c, h in zip(engine.circuit(cm, p), heights)))
            assert len(values) <= 1 and min(values, default=1) > 0
            assert gcd(*heights) in (0, 1)
            masks = rng.choice(engine.neighbors(masks))[1]
    assert with_unused >= 5


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["3D2", "C(1D3,1D3)"]), st.integers(0, 15), st.data())
def test_accepted_lifted_heights_lift_the_triangulation(name, steps, data):
    # A random flip walk with the trivial group, regular or not: whenever
    # the lifted heights, relaxed, pass the local rows, the lower hull of
    # those heights (geometry, which shares no code with the flip engine)
    # is the triangulation itself.
    cfg = _WALKED[name]
    engine = flip_engine(cfg)
    masks = engine.to_masks(placing_triangulation(cfg).cells)
    for _ in range(steps):
        masks = data.draw(st.sampled_from(engine.neighbors(masks)))[1]
    walls = engine.wall_circuits(masks)
    rows = engine.regularity_rows(masks, walls=walls)
    heights = relaxed_witness(rows, engine.lift(masks, walls))
    if heights is not None:
        assert regular_subdivision(cfg, WeightVector(heights)).cells == engine.to_cells(masks)


_ENTRIES = {
    "3D2": _WALKED["3D2"],
    "C(1D3,2D3)": _WALKED["C(1D3,2D3)"],
    "C(2D3,2D3)": _DERIVED["C(2D3,2D3)/S4xZ2"][0],
    "nested": nested_triangles()[0],
}


def _entry_walk(engine, cfg, steps, choose):
    """A flip walk from the placing triangulation on ``engine`` that builds
    every entry the enumerator would: the walls, local rows and flips."""
    masks = engine.to_masks(placing_triangulation(cfg).cells)
    for _ in range(steps):
        engine.regularity_rows(masks)
        nbrs = engine.neighbors(masks)
        if not nbrs:
            break
        masks = nbrs[choose(len(nbrs))][1]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_ENTRIES)), st.integers(0, 12), st.data())
def test_exchanged_entries_match_the_elimination(name, steps, data):
    # A fresh engine walks at random, then looks up a few random cells,
    # degenerate ones among them; every entry it built, nearly all by
    # vertex exchange, equals the all-points elimination's.
    cfg = _ENTRIES[name]
    engine = FlipEngine(cfg)
    _entry_walk(engine, cfg, steps, lambda k: data.draw(st.integers(0, k - 1)))
    size = engine.cell_size
    cells = st.sets(st.integers(0, engine.n - 1), min_size=size, max_size=size)
    for points in data.draw(st.lists(cells, max_size=4)):
        engine.cell(engine.mask_of(points))
    for cm, entry in engine._cells.items():
        assert entry == oracles.cell_entry(engine, cm)


def test_a_quadric_walk_runs_few_eliminations(monkeypatch):
    # Only a cell with no cached neighbour is eliminated: a 200-step
    # quadric walk on a fresh engine eliminates its first placing cell,
    # and at most a few more.
    eliminations = []
    eliminate = triangulation_module.basis_coordinates_int

    def counted(cols):
        eliminations.append(cols)
        return eliminate(cols)

    monkeypatch.setattr(triangulation_module, "basis_coordinates_int", counted)
    cfg = _ENTRIES["C(2D3,2D3)"]
    engine = FlipEngine(cfg)
    _entry_walk(engine, cfg, 200, random.Random(3).randrange)
    assert len(engine._cells) > 200 and len(eliminations) <= 3


def test_builtin_symmetry_orders():
    cfg22 = cayley_config(simplex_lattice_points(3, 2), simplex_lattice_points(3, 2))
    assert len(builtin_symmetry("cayley-2d3-2d3", cfg22)) == 48
    assert len(builtin_symmetry("simplex-3d2", cubic_polygon())) == 6
    assert len(builtin_symmetry("trivial", square_config())) == 1
    assert builtin_symmetry("s4xz2", cfg22) == builtin_symmetry("cayley-2d3-2d3", cfg22)
    assert builtin_symmetry("s3", cubic_polygon()) == builtin_symmetry("simplex-3d2", cubic_polygon())


def test_builtin_symmetry_rejects_wrong_configuration():
    with pytest.raises(ValueError):
        builtin_symmetry("simplex-3d2", square_config())


def test_certify_affine_action_rejects_non_affine_permutation():
    cfg = cubic_polygon()
    perm = list(range(10))
    perm[0], perm[1] = perm[1], perm[0]  # swap (0,0) and (0,1) only
    with pytest.raises(ValueError):
        certify_affine_action(cfg, tuple(perm))


def test_group_bound_guard():
    # S8 on the vertices of the unit 7-simplex: 40,320 elements, above GROUP_BOUND
    cfg = simplex_lattice_points(7, 1)
    transposition, cycle = (1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)
    with pytest.raises(GroupBoundError):
        SymmetryGroup.from_generators(cfg, [transposition, cycle])


def test_apply_symmetry_identity_and_diagonal_swap():
    t = square_left()
    # (x, y) -> (1 - x, y) exchanges the two diagonals of the unit square.
    mirror = (1, 0, 3, 2)
    identity = tuple(range(4))
    assert apply_symmetry(t, identity).cells == t.cells
    swapped = apply_symmetry(t, mirror)
    assert swapped.cells == square_right().cells
    assert is_unimodular(swapped)


def test_apply_symmetry_preserves_unimodularity():
    cfg = cubic_polygon()
    grp = builtin_symmetry("simplex-3d2", cfg)
    t = placing_triangulation(cfg)
    assert is_unimodular(t)
    for g in grp.elements:
        assert is_unimodular(apply_symmetry(t, g))


def test_orbit_canonical_rep_trivial_group():
    t = square_left()
    grp = builtin_symmetry("trivial", square_config())
    assert orbit_canonical_rep(t, grp).cells == t.cells


def test_orbit_canonical_rep_identifies_orbit_members():
    cfg = square_config()
    grp = SymmetryGroup.from_generators(cfg, [(1, 0, 3, 2)])
    r1 = orbit_canonical_rep(square_left(), grp)
    r2 = orbit_canonical_rep(square_right(), grp)
    assert r1.cells == r2.cells


def test_orbit_rep_invariant_under_group_action():
    cfg = cubic_polygon()
    grp = builtin_symmetry("simplex-3d2", cfg)
    t = placing_triangulation(cfg)
    rep = orbit_canonical_rep(t, grp)
    for g in grp.elements:
        assert orbit_canonical_rep(apply_symmetry(t, g), grp).cells == rep.cells


_GROUPS = {
    "3D2/S3": (simplex_lattice_points(2, 3), "simplex-3d2"),
    "C(2D3,2D3)/S4xZ2": (
        cayley_config(simplex_lattice_points(3, 2), simplex_lattice_points(3, 2)),
        "cayley-2d3-2d3",
    ),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_GROUPS)), st.integers(0, 15), st.data())
def test_canonical_is_least_relabeling(name, steps, data):
    # A random flip walk, then brute force: the least sorted relabeling
    # over all group elements, for the walk's end and for one of its images.
    cfg, kind = _GROUPS[name]
    grp = builtin_symmetry(kind, cfg)
    engine = flip_engine(cfg)
    masks = engine.to_masks(placing_triangulation(cfg).cells)
    for _ in range(steps):
        nbrs = engine.neighbors(masks)
        if not nbrs:
            break
        masks = nbrs[data.draw(st.integers(0, len(nbrs) - 1))][1]

    def image(g, masks):
        return engine.to_masks([g[i] for i in engine.bits(m)] for m in masks)

    least = min(image(g, masks) for g in grp.elements)
    context = RelabelContext(engine, grp.elements)
    form, element = context.canonical(masks)
    for m in masks:  # each entry is the column sum of its points' image columns
        assert context._cell(m)[0] == oracles.cell_images(grp.elements, engine.bits(m))
    assert form == least == image(element, masks)
    g = grp.elements[data.draw(st.integers(0, len(grp) - 1))]
    assert context.canonical(image(g, masks))[0] == least


def test_rotated_pair_same_orbit_and_unimodular():
    cfg, left, right = rotated_pair()
    assert is_unimodular(left) and is_unimodular(right)
    Triangulation.make(cfg, left.cells)
    Triangulation.make(cfg, right.cells)
    assert is_regular(left) is not None and is_regular(right) is not None
    grp = builtin_symmetry("simplex-3d2", cfg)
    assert orbit_canonical_rep(left, grp).cells == orbit_canonical_rep(right, grp).cells


def test_rotated_pair_dual_curves_are_elliptic_cycle_four():
    from tropcay.graphs import canonical_form
    from tropcay.tropical import cycle_length, dual_curve_planar, genus

    cfg, left, right = rotated_pair()
    gl, gr = dual_curve_planar(left), dual_curve_planar(right)
    assert genus(gl) == 1 and genus(gr) == 1
    assert cycle_length(gl) == 4 and cycle_length(gr) == 4
    assert canonical_form(gl) == canonical_form(gr)


def _configuration(*points):
    return PointConfiguration(len(points[0]), points, block_labels(len(points)))


def _cayley_symmetries(cfg, d):
    """S4 x Z2 on C(dD3, dD3): two generators of S4 on the factor, and the
    swap of the two factors."""
    maps = [
        lambda p: (p[0], p[1], p[3], p[2], p[4]),
        lambda p: (p[0], p[1], d - p[2] - p[3] - p[4], p[2], p[3]),
        lambda p: (p[1], p[0], p[2], p[3], p[4]),
    ]
    index = {p: i for i, p in enumerate(cfg.points)}
    return SymmetryGroup.from_generators(
        cfg, [tuple(index[f(p)] for p in cfg.points) for f in maps]
    ).elements


# Configurations for symmetry certification, with the number of lattice
# symmetries of those small enough to try every permutation.
_CERTIFIED = {
    "square": (square_config(), 8),
    "{0,2}^2": (_configuration((0, 0), (2, 0), (0, 2), (2, 2)), 8),
    "skew-5": (_configuration((0, 0), (1, 0), (0, 1), (2, 3), (3, 1)), 1),
    "collinear-3": (_configuration((0, 0), (1, 1), (2, 2)), 2),
    "hexagon-centre": (_configuration((0, 0), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)), 12),
    "3D2": (cubic_polygon(), None),
    "C(1D3,1D3)": (_WALKED["C(1D3,1D3)"], None),
    "C(2D3,2D3)": (_DERIVED["C(2D3,2D3)/S4xZ2"][0], None),
}
_SYMMETRIES = {
    "3D2": lambda cfg: builtin_symmetry("s3", cfg).elements,
    "C(1D3,1D3)": lambda cfg: _cayley_symmetries(cfg, 1),
    "C(2D3,2D3)": lambda cfg: builtin_symmetry("s4xz2", cfg).elements,
}


def _certified(certify, cfg, perm) -> bool:
    try:
        certify(cfg, perm)
    except ValueError:
        return False
    return True


def _assert_certified_as_the_oracle(cfg, perm) -> bool:
    verdict = _certified(certify_affine_action, cfg, perm)
    assert verdict == _certified(oracles.certify_affine_action, cfg, perm), perm
    return verdict


@pytest.mark.parametrize("name", [name for name, (_, order) in _CERTIFIED.items() if order])
def test_certify_affine_action_matches_the_oracle_on_every_permutation(name):
    cfg, order = _CERTIFIED[name]
    accepted = sum(
        _assert_certified_as_the_oracle(cfg, perm) for perm in permutations(range(len(cfg.points)))
    )
    assert accepted == order


@pytest.mark.parametrize("name", sorted(_SYMMETRIES))
def test_certify_affine_action_matches_the_oracle_on_groups_and_transpositions(name):
    cfg, _ = _CERTIFIED[name]
    elements = _SYMMETRIES[name](cfg)
    assert len(elements) == (6 if name == "3D2" else 48)
    for g in elements:
        assert _assert_certified_as_the_oracle(cfg, g)
    for i, j in combinations(range(len(cfg.points)), 2):
        perm = list(range(len(cfg.points)))
        perm[i], perm[j] = j, i
        assert not _assert_certified_as_the_oracle(cfg, tuple(perm))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_CERTIFIED)), st.booleans(), st.data())
def test_certify_affine_action_matches_the_oracle_on_random_permutations(name, near_group, data):
    # Either any permutation, or a symmetry followed by at most one
    # transposition, which lands near the accepted ones.
    cfg, _ = _CERTIFIED[name]
    n = len(cfg.points)
    if near_group and name in _SYMMETRIES:
        perm = list(data.draw(st.sampled_from(_SYMMETRIES[name](cfg))))
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        perm[i], perm[j] = perm[j], perm[i]
    else:
        perm = data.draw(st.permutations(range(n)))
    _assert_certified_as_the_oracle(cfg, tuple(perm))


def test_validate_rejects_overlapping_cells():
    cfg = square_config()
    with pytest.raises(ValueError):
        Triangulation.make(cfg, ((0, 1, 2), (0, 1, 3)))


def test_validate_rejects_incomplete_cover():
    cfg = cubic_polygon()
    t = placing_triangulation(cfg)
    with pytest.raises(ValueError):
        Triangulation.make(cfg, t.cells[:-1])


# Cell sets of full-dimensional simplices that are not triangulations.
_NOT_TRIANGULATIONS = {
    "overlapping-cells": (square_config(), [(0, 1, 2), (0, 1, 3)]),
    "partial-cover": (cubic_polygon(), placing_triangulation(cubic_polygon()).cells[:-1]),
    # Nine unit triangles of 3*Delta_2 (total volume 9); three share edge AB.
    "facet-in-three-cells": (cubic_polygon(), [
        (0, 1, 2), (0, 1, 4), (0, 1, 7), (2, 4, 5), (4, 5, 8),
        (5, 8, 9), (3, 6, 7), (3, 4, 7), (4, 7, 8),
    ]),
}


@pytest.mark.parametrize("case", sorted(_NOT_TRIANGULATIONS))
def test_make_rejects_cells_that_are_not_a_triangulation(case):
    cfg, cells = _NOT_TRIANGULATIONS[case]
    with pytest.raises(ValueError):
        Triangulation.make(cfg, cells)


@pytest.mark.parametrize("scan", ["make", "walls", "wall_circuits"])
def test_one_check_refuses_a_facet_in_three_cells(scan):
    # The volumes sum to the total, so ``make`` reaches the facet scan.
    cfg, cells = _NOT_TRIANGULATIONS["facet-in-three-cells"]
    engine = flip_engine(cfg)
    masks = engine.to_masks(cells)
    assert sum(map(engine.volume, masks)) == engine.total_volume
    run = {
        "make": lambda: Triangulation.make(cfg, cells),
        "walls": lambda: engine.walls(masks),
        "wall_circuits": lambda: engine.wall_circuits(masks),
    }[scan]
    with pytest.raises(ValueError, match=r"^facet \(0, 1\) lies in more than two cells$"):
        run()


_VALIDATED = {
    "square": square_config(),
    "3D2": cubic_polygon(),
    "C(1D3,1D3)": _WALKED["C(1D3,1D3)"],
    "nested": nested_triangles()[0],
}


def _simplices(engine):
    """Every full-dimensional simplex of the engine's configuration."""
    return [
        c for c in combinations(range(engine.n), engine.cell_size)
        if engine.volume(engine.mask_of(c))
    ]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_VALIDATED)), st.sampled_from(["walk", "volume", "circuit"]), st.data())
def test_validate_matches_pairwise_oracle(name, kind, data):
    # Three kinds of cell sets: a flip walk's end with up to three cells
    # replaced, dropped or added; random simplices whose volumes sum to the
    # total; and both triangulations of one circuit together, which cover
    # its hull twice and share every facet (the case only the
    # opposite-side test rejects).
    cfg = _VALIDATED[name]
    engine = flip_engine(cfg)
    simplices = _simplices(engine)
    cells = []
    if kind == "walk":
        masks = engine.to_masks(placing_triangulation(cfg).cells)
        for _ in range(data.draw(st.integers(0, 8))):
            nbrs = engine.neighbors(masks)
            if not nbrs:
                break
            masks = nbrs[data.draw(st.integers(0, len(nbrs) - 1))][1]
        cells = list(engine.to_cells(masks))
        for _ in range(data.draw(st.integers(0, 3))):
            action = data.draw(st.sampled_from(["replace", "drop", "add"]))
            if action != "add" and cells:
                cells.pop(data.draw(st.integers(0, len(cells) - 1)))
            if action != "drop":
                cells.append(data.draw(st.sampled_from(simplices)))
    elif kind == "volume":
        remaining = engine.total_volume
        while remaining:
            fits = [c for c in simplices if engine.volume(engine.mask_of(c)) <= remaining]
            cells.append(data.draw(st.sampled_from(fits)))
            remaining -= engine.volume(engine.mask_of(cells[-1]))
    else:
        cell = engine.mask_of(data.draw(st.sampled_from(simplices)))
        p = data.draw(st.sampled_from([q for q in range(engine.n) if not (cell >> q) & 1]))
        row = engine.circuit(cell, p)
        cells = [engine.bits((cell | 1 << p) & ~(1 << i)) for i, c in enumerate(row) if c]
    t = Triangulation(cfg, tuple(cells))
    valid = oracles.validate_triangulation(t)
    if valid:
        assert Triangulation.make(cfg, cells).cells == tuple(sorted(cells))
    else:
        with pytest.raises(ValueError):
            Triangulation.make(cfg, cells)
