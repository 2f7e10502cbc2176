"""Triangulations: predicates, placing construction, bistellar flips, symmetry.

The public types work with sorted index tuples.  A per-configuration
``FlipEngine`` carries one exact table per cell (``FlipEngine.cell``: its
volume, its circuit with every outside point and the mask of points
inside it), the total volume and a fast bitmask representation of
triangulations; the enumeration module drives the engine directly, while
the functions here wrap it for one-off use.

A circuit is the primitive affine dependence of a cell and one more
point (De Loera, Rambau and Santos, *Triangulations*, ch. 2 and 4).  Its
signs give the two sides of a bistellar flip, and the same integer row
is the regularity inequality "the point lifts strictly above the cell".
One fraction-free elimination of all points against a cell's vertices
gives the cell's volume (the last pivot), every circuit of the cell and
the points inside it (those with no negative barycentric coordinate).
That elimination only seeds the table: a cell one vertex exchange away
from a cached cell derives its entry from that cell's circuits
(``FlipEngine.cell``), so a walk eliminates once.
One map of each facet to its cells (``FlipEngine._facet_cells``), the
only place that refuses a facet in more than two, lies beneath ``walls``,
``check_triangulation`` and ``FlipEngine.wall_circuits``, which pairs
facets into walls with their circuits.  ``FlipEngine.regularity_rows``
adds the circuits of the unused points with the cells containing them:
together they are the local regularity rows, and each is a flip that
``neighbors`` tries.  A flip changes only the cells of its circuit's
star, so each ``Flip`` from ``neighbors`` keeps the cells it removes and
adds and its parent's wall scan, and ``wall_circuits(child, flip)``
derives the child's walls from them, in the flip's own labeling, instead
of scanning the child; the checked child's local rows come from them.
Cell facets, cell point indices and circuit sign masks are cached per
cell and per circuit, beside the cell table.  Circuit signs also decide
whether a set of cells is a triangulation at all
(``FlipEngine.check_triangulation``): the two cells of every shared
facet must lie on opposite sides of it, and no point may lie beyond an
unshared one.  ``Triangulation.make`` runs that check once on cells from
outside; cells the engine builds skip it.  And they certify symmetries
(``certify_affine_action``): a permutation is an affine lattice map iff
it carries the circuits of one simplex of the placing triangulation
(``FlipEngine.placing``) to the circuits of its image.

Regularity is decided exactly.  The engine holds only the local system
above (``FlipEngine.regularity_rows``); ``is_regular(t, mode="global")``
builds the equivalent reference system, one inequality per (cell,
outside point) pair, from the cell table, and tests cross-check the two.
One routine, ``FlipEngine.verdict``, decides either system: a given
candidate, then heights integrated across a spanning tree of the walls
(``FlipEngine.lift``), are tried first, checked in integers; the integer
simplex of ``lp`` (``FlipEngine.solve``) decides when they miss, and
certifies each answer with integer witness heights or a Gordan
certificate.  A flip's circuit is the normal of the wall between the
secondary cones of the two triangulations (Gelfand, Kapranov and
Zelevinsky 1994), so ``Flip.circuit`` is what the enumerator needs to
carry a witness across it.

Canonical orbit representatives come from ``RelabelContext``, whose one
table maps each cell mask to its images under every group element;
``canonical`` also returns an element reaching the representative, which
relabels heights along with cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd
from operator import itemgetter, mul

from .errors import GroupBoundError, InputError
from .exactarith import basis_coordinates_int
from .geometry import (
    PointConfiguration,
    WeightVector,
    affine_reduce,
    placing_cells,
    simplex_lattice_points,
)
from .lp import relaxed_witness, strict_homogeneous_feasible


@dataclass(frozen=True)
class Triangulation:
    """A set of maximal simplex cells (sorted index tuples) over a configuration.

    Cells from outside go through ``make``.  The constructor checks nothing;
    the library calls it only with sorted cells it built as a triangulation.
    ``walls`` maps each interior facet mask to its two cell masks
    (``FlipEngine.walls``); ``make`` keeps the map its check built, so a
    checked triangulation scans its facets once.
    """

    configuration: PointConfiguration
    cells: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, configuration: PointConfiguration, cells) -> "Triangulation":
        """Sort the cells and raise ``ValueError`` unless they triangulate
        the configuration (``FlipEngine.check_triangulation``)."""
        cells = tuple(sorted(tuple(sorted(c)) for c in cells))
        engine = flip_engine(configuration)
        # Checked before cells become bitmasks, which merge a repeated point.
        for cell in cells:
            if len(cell) != engine.cell_size or len(set(cell)) != len(cell) or not all(
                0 <= i < engine.n for i in cell
            ):
                raise ValueError(f"cell {cell} is not {engine.cell_size} distinct point indices")
        scan = engine.check_triangulation(engine.to_masks(cells))
        t = cls(configuration, cells)
        # seeds the cached property; frozen refuses setattr
        t.__dict__["walls"] = {fm: (sigma, tau) for fm, (sigma, tau, _row) in scan.items()}
        return t

    @cached_property
    def walls(self) -> dict[int, tuple[int, int]]:
        engine = flip_engine(self.configuration)
        return engine.walls(engine.to_masks(self.cells))


@dataclass(frozen=True)
class Flip:
    """A bistellar flip along a circuit, oriented from the present side.

    The circuit, a row over all points, is positive on ``plus``, the
    points whose opposite simplices are present, and negative on the
    points of the replacement side.  A flip from
    ``FlipEngine.neighbors`` also records the cell masks it removes and
    adds and the present triangulation's wall scan, from which
    ``FlipEngine.wall_circuits`` derives the result's walls.  These three
    fields take no part in comparisons; ``reversed`` knows no scan.
    """

    circuit: tuple[int, ...]
    removed: tuple[int, ...] = field(default=(), compare=False, repr=False)
    added: tuple[int, ...] = field(default=(), compare=False, repr=False)
    walls: dict | None = field(default=None, compare=False, repr=False)

    @property
    def plus(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.circuit) if c > 0)

    def reversed(self) -> "Flip":
        return Flip(tuple(-c for c in self.circuit), self.added, self.removed)


class FlipEngine:
    """Exact flip/regularity machinery for one configuration.

    Wall flips, flips through unused points, the local regularity rows,
    cell volumes and the validity check all come from one table
    with one entry per cell mask (``cell``), built the first time a cell
    is asked for: by vertex exchange from a cached cell, or by one
    elimination for a cell with none.  Circuit rows are interned
    engine-wide: the cells formed by all but one point of a circuit's
    support all hold it, up to sign.  ``walls`` and ``to_cells`` use bit operations only
    and never build an entry.
    Triangulations are handled as sorted tuples of cell bitmasks (bit i is
    point i).  The induced total order on triangulations (lexicographic on
    the sorted mask sequence, i.e. colexicographic on cells) is the
    documented order used for canonical orbit representatives.
    """

    def __init__(self, config: PointConfiguration):
        self.config = config
        reduced = affine_reduce(config)
        self.points = reduced.points
        self.n = len(self.points)
        self.rank = reduced.ambient_dim
        self.cell_size = self.rank + 1
        self.all_mask = (1 << self.n) - 1
        self._columns = [p + (1,) for p in self.points]  # homogenized
        self._cells: dict[int, tuple[int, tuple | None, int]] = {}
        self._rows: dict[tuple[int, ...], tuple[int, ...]] = {}  # interned circuits
        self._boundary: dict[int, bool] = {}
        # Bit-level caches, filled lazily and never by an elimination:
        self._indices: dict[int, tuple[int, ...]] = {}  # cell mask -> its points
        self._facets: dict[int, tuple[int, ...]] = {}   # cell mask -> its facet masks
        self._signs: dict[tuple[int, ...], tuple[int, int]] = {}  # row -> (plus, minus) masks

    # -- mask plumbing -------------------------------------------------

    @staticmethod
    def bits(mask: int) -> tuple[int, ...]:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)

    def mask_of(self, cell) -> int:
        m = 0
        for i in cell:
            m |= 1 << i
        return m

    def to_masks(self, cells) -> tuple[int, ...]:
        return tuple(sorted(self.mask_of(c) for c in cells))

    def indices(self, cellmask: int) -> tuple[int, ...]:
        """``bits(cellmask)``, cached per cell."""
        points = self._indices.get(cellmask)
        if points is None:
            points = self._indices[cellmask] = self.bits(cellmask)
        return points

    def to_cells(self, masks) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(map(self.indices, masks)))

    def triangulation(self, masks) -> Triangulation:
        return Triangulation(self.config, self.to_cells(masks))

    # -- the cell table --------------------------------------------------

    def cell(self, cellmask: int) -> tuple[int, tuple | None, int]:
        """The table entry ``(volume, rows, inside)`` of a cell, built once.

        ``volume`` is the cell's normalized volume; ``rows[p]`` is
        ``circuit(cellmask, p)`` for each point ``p`` outside the cell
        (``None`` at its vertices); ``inside`` is the mask of the points
        in the closed cell, its vertices included.  A degenerate cell has
        volume 0, no rows and an empty mask.

        A cell one vertex exchange away from a cached non-degenerate cell
        gets its entry from that cell's (``_exchanged``); only a cell with
        no such neighbour runs an elimination (``_eliminated``), which in a
        walk seeds the table once."""
        entry = self._cells.get(cellmask)
        if entry is None:
            entry = self._cells[cellmask] = self._cell_entry(cellmask)
        return entry

    def _cell_entry(self, cellmask: int) -> tuple[int, tuple | None, int]:
        cached = self._cells.get
        outside = self.bits(self.all_mask & ~cellmask)
        for b in self.indices(cellmask):
            rest = cellmask ^ (1 << b)
            for a in outside:
                sigma = cached(rest | 1 << a)
                if sigma is not None and sigma[1] is not None:
                    return self._exchanged(cellmask, sigma, a, b, outside)
        return self._eliminated(cellmask, outside)

    def _exchanged(self, cellmask, sigma, a, b, outside) -> tuple[int, tuple | None, int]:
        """The entry of the cell ``tau = sigma - a + b`` from the entry of
        the non-degenerate cell ``sigma``; ``outside`` lists the points
        outside ``tau``.

        ``cb = circuit(sigma, b)`` is the dependence of ``tau`` and ``a``:
        ``tau`` is degenerate iff it is 0 at ``a``, else it is
        ``circuit(tau, a)`` up to sign, and ``|cb[a]| / cb[b]``, the size
        of ``b``'s barycentric coordinate at ``a`` in ``sigma``, is the
        ratio of the two volumes.  For any other point ``p`` outside
        ``tau``, the combination of ``circuit(sigma, p)`` and ``cb`` that
        is 0 at ``a`` is ``circuit(tau, p)`` up to a positive factor."""
        d, rows, _inside = sigma
        cb = rows[b]
        ca = cb[a]
        if not ca:
            return 0, None, 0
        volume = d * abs(ca) // cb[b]
        intern = self._rows.setdefault
        if ca < 0:
            ca, cb = -ca, tuple([-x for x in cb])
            cb = intern(cb, cb)
        vertices = self.indices(cellmask)
        out = [None] * self.n
        inside = cellmask
        for p in outside:
            row = rows[p]
            if row is None:  # p is a, a vertex of sigma
                row = cb
            elif f := row[a]:
                # the combination lives on tau's vertices and p
                head = ca * row[p]
                coords = [ca * row[v] - f * cb[v] for v in vertices]
                g = gcd(head, *coords)
                row = [0] * self.n
                row[p] = head // g
                for v, c in zip(vertices, coords):
                    row[v] = c // g
                row = tuple(row)
                row = intern(row, row)
            out[p] = row
            if max([row[v] for v in vertices]) <= 0:
                inside |= 1 << p
        return volume, tuple(out), inside

    def _eliminated(self, cellmask: int, outside) -> tuple[int, tuple | None, int]:
        """The entry of a cell by one fraction-free elimination of the
        homogenized points, the cell's vertices first: the last pivot
        ``d`` is the volume up to sign, and each other column holds ``d``
        times the point's barycentric coordinates in the cell."""
        vertices = self.bits(cellmask)
        solved = basis_coordinates_int([self._columns[i] for i in (*vertices, *outside)])
        if solved is None:
            return 0, None, 0
        d, a = solved
        if d < 0:
            d, a = -d, [[-x for x in row] for row in a]
        intern = self._rows.setdefault
        rows = [None] * self.n
        inside = cellmask
        for p, coords in zip(outside, list(zip(*a))[len(vertices):]):
            # d * p == sum of coords[i] * vertex i: the circuit is d at p
            # and -coords on the vertices, positive at p.
            if min(coords) >= 0:
                inside |= 1 << p
            g = gcd(d, *coords)
            row = [0] * self.n
            row[p] = d // g
            for i, c in zip(vertices, coords):
                row[i] = -(c // g)
            row = tuple(row)
            rows[p] = intern(row, row)
        return d, tuple(rows), inside

    def volume(self, cellmask: int) -> int:
        return self.cell(cellmask)[0]

    def circuit(self, cellmask: int, p: int) -> tuple[int, ...]:
        """Primitive affine dependence of the cell and point p, as a row over
        all points with a positive entry at p.

        As a constraint on heights it says: lifted p lies strictly above the
        span of the lifted cell.  Its support with signs is the circuit that
        a flip through the cell and p exchanges.  Raises ``ValueError`` for
        a degenerate cell or a vertex p."""
        rows = self.cell(cellmask)[1]
        row = None if rows is None else rows[p]
        if row is None:
            raise ValueError(f"no circuit of cell {self.bits(cellmask)} with point {p}")
        return row

    # -- predicates ----------------------------------------------------

    def is_unimodular(self, masks) -> bool:
        return all(self.volume(m) == 1 for m in masks)

    def is_full(self, masks) -> bool:
        used = 0
        for m in masks:
            used |= m
        return used == self.all_mask

    def facets(self, cellmask: int) -> tuple[int, ...]:
        """The facet masks of a cell, cached per cell."""
        out = self._facets.get(cellmask)
        if out is None:
            out = self._facets[cellmask] = tuple(cellmask ^ (1 << i) for i in self.indices(cellmask))
        return out

    def _facet_cells(self, masks) -> dict[int, list[int]]:
        """Map each facet mask to the one or two cells containing it; the
        one place that raises ``ValueError`` for a facet in more cells."""
        owners: dict[int, list[int]] = {}
        cached = self._facets.get
        for cm in masks:
            for fm in cached(cm) or self.facets(cm):
                cs = owners.get(fm)
                if cs is None:
                    owners[fm] = [cm]
                elif len(cs) == 2:
                    raise ValueError(f"facet {self.bits(fm)} lies in more than two cells")
                else:
                    cs.append(cm)
        return owners

    def walls(self, masks):
        """Map interior facet mask -> (cell, cell); raises on non-complexes."""
        return {fm: (cs[0], cs[1]) for fm, cs in self._facet_cells(masks).items() if len(cs) == 2}

    @cached_property
    def placing(self) -> tuple[int, ...]:
        """The placing triangulation of the points in index order, as masks."""
        return self.to_masks(placing_cells(self.points))

    @cached_property
    def total_volume(self) -> int:
        """Normalized volume of the configuration's convex hull."""
        return sum(map(self.volume, self.placing))

    def check_triangulation(self, masks) -> dict[int, tuple[int, int, tuple[int, ...]]]:
        """Raise ``ValueError`` unless the cells triangulate the configuration;
        return their wall scan, as ``wall_circuits(masks)`` gives it.

        Distinct full-dimensional simplices form a triangulation iff their
        volumes sum to the total volume, every facet lies in at most two
        cells, the two cells of a shared facet lie on opposite sides of it,
        and every unshared facet lies on the boundary of the convex hull
        (De Loera, Rambau and Santos, *Triangulations*, ch. 4).  Both side
        tests read circuit signs: for a facet ``sigma - {a}``, ``a`` and an
        outside point ``p`` lie on opposite sides iff ``circuit(sigma, p)``
        is positive at ``a``.
        """
        if any(m & ~self.all_mask or m.bit_count() != self.cell_size for m in masks):
            raise ValueError(f"a cell is not {self.cell_size} points of the configuration")
        if len(set(masks)) != len(masks):
            raise ValueError("a cell is repeated")
        if any(self.volume(m) == 0 for m in masks):
            raise ValueError("a cell is affinely dependent")
        covered = sum(self.volume(m) for m in masks)
        if covered != self.total_volume:
            raise ValueError(
                f"cell volumes sum to {covered}, not the configuration's {self.total_volume}"
            )
        walls = {}
        for fm, cs in self._facet_cells(masks).items():
            sigma = cs[0]
            a = (sigma & ~fm).bit_length() - 1
            if len(cs) == 2:
                row = self.circuit(sigma, (cs[1] & ~fm).bit_length() - 1)
                if row[a] <= 0:
                    raise ValueError(f"two cells lie on one side of facet {self.bits(fm)}")
                walls[fm] = (sigma, cs[1], row)
            elif not self._on_boundary(fm, sigma, a):
                raise ValueError(f"unshared facet {self.bits(fm)} is not on the boundary")
        return walls

    def _on_boundary(self, facet: int, sigma: int, a: int) -> bool:
        """Whether no point lies strictly beyond ``facet`` seen from apex
        ``a`` of the cell ``sigma`` that contains it.  The answer depends
        only on the facet, so it is cached per facet."""
        verdict = self._boundary.get(facet)
        if verdict is None:
            rows = self.cell(sigma)[1]
            verdict = self._boundary[facet] = not any(
                row[a] > 0 for row in rows if row is not None
            )
        return verdict

    def wall_circuits(
        self, masks, flip: Flip | None = None
    ) -> dict[int, tuple[int, int, tuple[int, ...]]]:
        """Map interior facet mask -> (cell, cell, the wall's circuit), the
        one routine that pairs facets into walls.

        Without ``flip`` every cell's facets are paired, in cell order.
        With ``flip``, a flip from ``neighbors`` whose result is ``masks``,
        the flip's scan of the triangulation it leaves is copied without
        the walls of the cells it removes, and only the added cells' facets
        are paired, with each other or with the owner that survives."""
        if flip is None:
            out, owners = {}, self._facet_cells(masks)
        else:
            out, owners, removed = dict(flip.walls), {}, flip.removed
            for cm in removed:
                for fm in self.facets(cm):
                    wall = out.pop(fm, None)
                    if wall is not None:
                        other = wall[1] if wall[0] == cm else wall[0]
                        if other not in removed:
                            owners[fm] = [other]
            for cm in flip.added:
                for fm in self.facets(cm):
                    owners.setdefault(fm, []).append(cm)
        cell = self.cell
        for fm, cs in owners.items():
            if len(cs) == 2:
                sigma, tau = cs
                # Both apexes of a wall are positive in the circuit of sigma
                # and tau's apex, so its positive side is the present one.
                out[fm] = (sigma, tau, cell(sigma)[1][(tau & ~fm).bit_length() - 1])
        return out

    def regularity_rows(self, masks, walls) -> list[tuple[int, ...]]:
        """The rows of the local regularity system, which are also the
        circuits a flip of this triangulation can use (De Loera, Rambau and
        Santos, ch. 5): each interior wall's circuit (``walls`` is a
        ``wall_circuits`` scan of ``masks``), then the circuit of each
        unused point with each cell containing it, by point and tried
        against the cells' inside masks, in that order and without
        repeats.  ``is_regular(mode="global")`` builds the equivalent
        reference system."""
        out = [row for _sigma, _tau, row in walls.values()]
        unused = self.all_mask
        for cm in masks:
            unused &= ~cm
        if unused:
            cached = self._cells.get
            entries = [cached(cm) or self.cell(cm) for cm in masks]
            out += [rows[p] for p in self.bits(unused) for _volume, rows, inside in entries if inside >> p & 1]
        return list(dict.fromkeys(out))

    def lift(self, masks, walls) -> tuple[int, ...]:
        """Integer heights lifting ``masks`` along a spanning tree of its
        walls (``walls`` is its scan): a guess for the regularity rows.

        The points of the first cell get height 0.  The cells are walked
        breadth-first from it, each one's walls in its ``facets`` order; a
        vertex first reached across a wall gets the height at which that
        wall's circuit equals one common margin, and then each unused
        point the height at which its circuit with the first cell holding
        it does.  A division that is not exact scales every height and
        the margin up; the heights are returned primitive.  The other
        walls' rows may fail, so the heights are only ever a candidate."""
        heights, margin = [0] * self.n, 1

        def level(row, i):
            nonlocal heights, margin
            rest = margin - sum(map(mul, row, heights))  # heights[i] is still 0
            g = row[i] // gcd(rest, row[i])
            if g != 1:
                heights, margin, rest = [x * g for x in heights], margin * g, rest * g
            heights[i] = rest // row[i]

        queue = [masks[0]]
        reached, known = set(queue), masks[0]
        for cm in queue:
            for fm in self.facets(cm):
                wall = walls.get(fm)
                if wall is None:
                    continue
                sigma, tau, row = wall
                other = tau if sigma == cm else sigma
                if other in reached:
                    continue
                reached.add(other)
                queue.append(other)
                apex = other & ~fm
                if not known & apex:
                    known |= apex
                    level(row, apex.bit_length() - 1)
        if known != self.all_mask:
            entries = [self.cell(cm) for cm in masks]
            for p in self.bits(self.all_mask & ~known):
                level(next(rows[p] for _volume, rows, inside in entries if inside >> p & 1), p)
        g = gcd(*heights)
        return tuple([x // g for x in heights]) if g > 1 else tuple(heights)

    def solve(self, rows) -> tuple[int, ...] | None:
        """The integer simplex's witness of ``rows . w > 0``, or ``None``
        when a Gordan certificate shows there is none."""
        feasible, witness = strict_homogeneous_feasible(rows)
        if not feasible:
            return None
        return witness or (0,) * self.n

    def verdict(self, rows, masks, walls, candidate=None) -> tuple[tuple[int, ...] | None, str]:
        """``(witness, how)``: heights with ``rows . w > 0``, regularity
        rows of ``masks`` (``walls`` is its scan), or ``None``.  ``how``
        is ``"carried"`` or ``"lifted"`` when ``candidate``, if given, or
        else ``lift`` passes within a few relaxation steps
        (``lp.relaxed_witness``, which checks every row in integers), and
        ``"solved"`` when the simplex decides, so ``None`` always comes
        from its Gordan certificate."""
        if candidate is not None:
            witness = relaxed_witness(rows, candidate)
            if witness is not None:
                return witness, "carried"
        witness = relaxed_witness(rows, self.lift(masks, walls))
        if witness is not None:
            return witness, "lifted"
        return self.solve(rows), "solved"

    # -- flips -----------------------------------------------------------

    def neighbors(self, masks):
        """All bistellar flips from this triangulation: (Flip, masks) pairs."""
        walls = self.wall_circuits(masks)
        signs = self._signs
        results = []
        for row in self.regularity_rows(masks, walls):
            sign = signs.get(row)
            if sign is None:
                sign = signs[row] = self._sign_masks(row)
            step = self._flip(masks, *sign)
            if step is not None:
                flipped, removed, added = step
                results.append((Flip(row, removed, added, walls), flipped))
        return results

    @staticmethod
    def _sign_masks(row) -> tuple[int, int]:
        plus = minus = 0
        for i, c in enumerate(row):
            if c > 0:
                plus |= 1 << i
            elif c < 0:
                minus |= 1 << i
        return plus, minus

    def _flip(self, masks, plus: int, minus: int):
        """``(masks, removed, added)`` of the triangulation with the circuit
        ``plus | minus`` flipped from its plus side, or ``None`` unless the
        stars of the plus-side simplices share one link.

        No cell holds a whole circuit, so a cell in the star of
        ``circuit - {i}`` misses exactly ``i`` of the circuit, and its link
        misses the circuit."""
        circuit = plus | minus
        stars: dict[int, list[int]] = {}  # the missing plus point's bit -> its star
        for cm in [cm for cm in masks if cm & minus == minus]:
            missing = circuit & ~cm  # a plus point or more
            if not missing & (missing - 1):
                stars.setdefault(missing, []).append(cm)
        if len(stars) != plus.bit_count():
            return None
        link = None
        removed = []
        for missing, star in stars.items():
            simplex = circuit ^ missing
            ls = frozenset(cm ^ simplex for cm in star)
            if link is None:
                link = ls
            elif ls != link:
                return None
            removed += star
        added = [(circuit ^ (1 << i)) | l for i in self.bits(minus) for l in link]
        flipped = tuple(sorted([cm for cm in masks if cm not in removed] + added))
        return flipped, tuple(removed), tuple(added)


class RelabelContext:
    """Group action on cell masks, used for canonical representatives.

    The representative of an orbit is the minimum relabeling in the
    engine's documented (colexicographic) order.  One table maps each cell
    mask to its images under every element, its least image and the
    elements reaching that.  An entry is the column sum of its points'
    image columns: point ``i``'s column holds ``1 << g[i]`` for every
    element ``g``.  The canonical form starts with the least image over
    all cells, so only the elements reaching it are read and sorted.
    Element ``g`` sends point ``i`` to point ``g[i]``.
    """

    def __init__(self, engine: FlipEngine, elements):
        self.engine = engine
        self.elements = [tuple(g) for g in elements]
        self._columns = [tuple(1 << g[i] for g in self.elements) for i in range(engine.n)]
        self._images: dict[int, tuple[tuple[int, ...], int, tuple[int, ...]]] = {}

    def _cell(self, mask: int) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
        entry = self._images.get(mask)
        if entry is None:
            columns = self._columns
            images = tuple(map(sum, zip(*[columns[i] for i in self.engine.indices(mask)])))
            least = min(images)
            reach = tuple(gi for gi, image in enumerate(images) if image == least)
            entry = self._images[mask] = (images, least, reach)
        return entry

    def canonical(self, masks) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The least relabeling of ``masks`` and the first element giving it."""
        cached, cell = self._images.get, self._cell
        entries = [cached(m) or cell(m) for m in masks]
        first = min([least for _images, least, _reach in entries])
        reach = {gi for _images, least, gis in entries if least == first for gi in gis}
        images = [images for images, _least, _reach in entries]
        form, gi = min((sorted(map(itemgetter(gi), images)), gi) for gi in reach)
        return tuple(form), self.elements[gi]


@lru_cache(maxsize=64)
def flip_engine(config: PointConfiguration) -> FlipEngine:
    return FlipEngine(config)


# -- public operations ----------------------------------------------------


def is_unimodular(t: Triangulation) -> bool:
    """True iff every maximal cell has normalized lattice volume 1."""
    engine = flip_engine(t.configuration)
    return engine.is_unimodular(engine.to_masks(t.cells))


def is_regular(t: Triangulation, mode: str = "global"):
    """A witness WeightVector with regular_subdivision(config, w) == t, or None.

    ``mode="local"`` takes the rows of ``FlipEngine.regularity_rows``;
    ``mode="global"`` the equivalent reference system, built here from the
    cell table: one strict inequality per (cell, outside point).  Either
    system is decided by ``FlipEngine.verdict``.
    """
    engine = flip_engine(t.configuration)
    masks = engine.to_masks(t.cells)
    walls = engine.wall_circuits(masks)
    if mode == "local":
        rows = engine.regularity_rows(masks, walls)
    elif mode == "global":
        rows = sorted({row for cm in masks for row in engine.cell(cm)[1] if row is not None})
    else:
        raise ValueError(f"unknown regularity mode {mode!r}")
    witness = engine.verdict(rows, masks, walls)[0]
    return None if witness is None else WeightVector(witness)


def placing_triangulation(config: PointConfiguration, order=None) -> Triangulation:
    """Triangulation built by placing points one at a time (always regular);
    without ``order`` it is the engine's cached ``FlipEngine.placing``."""
    engine = flip_engine(config)
    if order is None:
        return engine.triangulation(engine.placing)
    return Triangulation(config, tuple(placing_cells(engine.points, order)))


def flips(t: Triangulation):
    """All supported bistellar flips as (Flip, neighbor Triangulation) pairs."""
    engine = flip_engine(t.configuration)
    out = []
    for flip, masks in engine.neighbors(engine.to_masks(t.cells)):
        out.append((flip, engine.triangulation(masks)))
    return out


GROUP_BOUND = 10000  # the most elements from_generators closes a group to


@dataclass(frozen=True)
class SymmetryGroup:
    """Point permutations extending to affine lattice automorphisms.

    ``from_generators`` checks each generator with ``certify_affine_action``.
    """

    configuration: PointConfiguration
    generators: tuple[tuple[int, ...], ...]
    elements: tuple[tuple[int, ...], ...]

    @classmethod
    def from_generators(cls, config: PointConfiguration, generators):
        gens = tuple(tuple(g) for g in generators)
        n = len(config.points)
        for g in gens:
            if sorted(g) != list(range(n)):
                raise ValueError("generator is not a permutation of the point indices")
            certify_affine_action(config, g)
        identity = tuple(range(n))
        elements = {identity}
        frontier = [identity]
        while frontier:
            current = frontier.pop()
            for g in gens:
                nxt = tuple(g[current[i]] for i in range(n))
                if nxt not in elements:
                    if len(elements) >= GROUP_BOUND:
                        raise GroupBoundError(f"group expansion exceeded {GROUP_BOUND} elements")
                    elements.add(nxt)
                    frontier.append(nxt)
        return cls(config, gens, tuple(sorted(elements)))

    def __len__(self) -> int:
        return len(self.elements)


def certify_affine_action(config: PointConfiguration, perm) -> None:
    """Raise ``ValueError`` unless a point permutation is induced by an
    affine automorphism of the configuration's lattice.

    Read from the circuit table: let B be the first cell of the placing
    triangulation.  An affine map is fixed by the images of B's vertices;
    it sends every point p outside B to ``perm[p]`` iff ``perm`` of B is a
    simplex and ``circuit(perm(B), perm[p])`` is ``circuit(B, p)``
    relabeled by ``perm``, as both rows hold p's barycentric coordinates.
    The lattice is then preserved too: in reduced coordinates the point
    differences span the lattice, and the map permutes them.
    """
    engine = flip_engine(config)
    base = engine.placing[0]
    image = engine.mask_of(perm[i] for i in engine.bits(base))
    if image.bit_count() != engine.cell_size or not engine.volume(image):
        raise ValueError("permutation is not affine: it maps a simplex to a degenerate cell")
    for p in range(engine.n):
        if base >> p & 1:
            continue
        moved = [0] * engine.n
        for i, c in enumerate(engine.circuit(base, p)):
            moved[perm[i]] = c
        if engine.circuit(image, perm[p]) != tuple(moved):
            raise ValueError(f"permutation is not affine: point {p} maps inconsistently")


def apply_symmetry(t: Triangulation, perm) -> Triangulation:
    """Relabel every cell through a point permutation, checked by ``make``."""
    return Triangulation.make(
        t.configuration, [tuple(perm[i] for i in cell) for cell in t.cells]
    )


def orbit_canonical_rep(t: Triangulation, grp: SymmetryGroup) -> Triangulation:
    """The minimal relabeling of t over the group, in the documented order.

    The order is colexicographic: cells are encoded as bitmasks (bit i is
    point i), each triangulation as its ascending mask sequence, and
    sequences are compared lexicographically.
    """
    engine = flip_engine(t.configuration)
    masks = engine.to_masks(t.cells)
    context = RelabelContext(engine, grp.elements)
    return engine.triangulation(context.canonical(masks)[0])


SYMMETRY_PRESETS = ("cayley-2d3-2d3", "s3", "s4xz2", "simplex-3d2", "trivial")


def builtin_symmetry(kind: str, config: PointConfiguration) -> SymmetryGroup:
    """Preset symmetry groups, validated against the given configuration.

    Kinds (``SYMMETRY_PRESETS``): ``trivial``; ``simplex-3d2`` or ``s3``
    (S3 on the cubic polygon, order 6); ``cayley-2d3-2d3`` or ``s4xz2``
    (S4 x Z2 on the quadric Cayley configuration, order 48).
    """
    n = len(config.points)
    if kind == "trivial":
        return SymmetryGroup.from_generators(config, [tuple(range(n))])
    if kind in ("simplex-3d2", "s3"):
        expected = simplex_lattice_points(2, 3)
        if config.points != expected.points:
            raise InputError("configuration does not match the 3*Delta_2 preset")
        maps = [
            lambda p: (p[1], p[0]),
            lambda p: (3 - p[0] - p[1], p[0]),
        ]
        gens = [_perm_from_map(config, f) for f in maps]
        return SymmetryGroup.from_generators(config, gens)
    if kind in ("cayley-2d3-2d3", "s4xz2"):
        factor = simplex_lattice_points(3, 2)
        expected = [(1, 0) + p for p in factor.points] + [(0, 1) + p for p in factor.points]
        if list(config.points) != expected:
            raise InputError("configuration does not match the Cayley C(2D3,2D3) preset")

        def swap12(p):
            return (p[0], p[1], p[3], p[2], p[4])

        def cycle4(p):
            x, y, z = p[2], p[3], p[4]
            return (p[0], p[1], 2 - x - y - z, x, y)

        def swap_blocks(p):
            return (p[1], p[0], p[2], p[3], p[4])

        gens = [_perm_from_map(config, f) for f in (swap12, cycle4, swap_blocks)]
        return SymmetryGroup.from_generators(config, gens)
    raise InputError(f"unknown symmetry preset {kind!r}")


def _perm_from_map(config: PointConfiguration, point_map):
    index = {p: i for i, p in enumerate(config.points)}
    perm = []
    for p in config.points:
        q = point_map(p)
        if q not in index:
            raise ValueError("map does not permute the configuration points")
        perm.append(index[q])
    return tuple(perm)
