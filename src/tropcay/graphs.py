"""Canonical forms, isomorphism classification, and a small-graph census.

Canonical labeling is implemented from first principles: iterative color
refinement (degree/neighborhood signatures, multiplicity-aware so that
multigraphs and loops work) followed by backtracking over the refined
cells, taking the minimal edge-list encoding.  Graphs here are small
(at most 16 vertices, degree at most 3), so this is fast and exact:
equal canonical forms are equivalent to isomorphism.

Classification tables are keyed by the canonical form itself, so each
added graph is canonicalized once and equal keys are isomorphic graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InputError
from .tropical import CurveGraph, cycle_length

CENSUS_VERTEX_LIMIT = 12
CENSUS_CONVENTIONS = ("simple", "multigraph", "multigraph-loops")


@dataclass(frozen=True)
class CanonicalForm:
    """Labeling-independent normal form; equal forms certify isomorphism."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]           # canonical labels, sorted, with multiplicity
    colors: tuple[str, ...] | None = None        # per canonical label, when color-aware

    def encode(self) -> bytes:
        color_part = "|".join(self.colors) if self.colors is not None else ""
        payload = f"{self.num_vertices};{self.edges};{color_part}"
        return payload.encode()


def _normalize_colors(colors):
    order = {c: i for i, c in enumerate(sorted(set(colors)))}
    return tuple(order[c] for c in colors)


def canonical_form(graph, use_colors: bool = False) -> CanonicalForm:
    """Canonical form of a CurveGraph or an (n, edges) pair.

    With ``use_colors`` the vertex colors take part in the labeling (and in
    the form's equality); graphs without colors degrade to the uncolored
    form either way.
    """
    if isinstance(graph, CurveGraph):
        n, edges, colors = graph.num_vertices, graph.edges, graph.colors
    else:
        n, edges = graph
        colors = None
    if not use_colors:
        colors = None
    return _canonicalize(n, tuple(edges), colors)


def _canonicalize(n: int, edges, colors) -> CanonicalForm:
    adjacency = [dict() for _ in range(n)]
    loops = [0] * n
    for u, v in edges:
        if u == v:
            loops[u] += 1
        else:
            adjacency[u][v] = adjacency[u].get(v, 0) + 1
            adjacency[v][u] = adjacency[v].get(u, 0) + 1
    init = _normalize_colors(colors) if colors is not None else (0,) * n

    def refine(coloring):
        while True:
            sigs = []
            for v in range(n):
                nbr = tuple(sorted((coloring[u], m) for u, m in adjacency[v].items()))
                sigs.append((coloring[v], loops[v], nbr))
            order = {s: i for i, s in enumerate(sorted(set(sigs)))}
            new = tuple(order[s] for s in sigs)
            if new == coloring:
                return new
            coloring = new

    best: list = [None]

    def encode(coloring):
        # coloring is discrete: value = canonical label
        relabeled = []
        for u, v in edges:
            a, b = coloring[u], coloring[v]
            relabeled.append((a, b) if a <= b else (b, a))
        form_edges = tuple(sorted(relabeled))
        if colors is None:
            return (form_edges, None)
        by_label = [None] * n
        for v in range(n):
            by_label[coloring[v]] = colors[v]
        return (form_edges, tuple(by_label))

    def search(coloring):
        coloring = refine(coloring)
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(coloring[v], []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            cand = encode(coloring)
            if best[0] is None or cand < best[0]:
                best[0] = cand
            return
        for v in target:
            branch = tuple((coloring[u], 0 if u == v else 1) for u in range(n))
            order = {s: i for i, s in enumerate(sorted(set(branch)))}
            search(tuple(order[s] for s in branch))

    if n == 0:
        return CanonicalForm(0, ())
    search(init)
    form_edges, form_colors = best[0]
    return CanonicalForm(n, form_edges, form_colors)


@dataclass
class GraphClassEntry:
    form: CanonicalForm
    representative: CurveGraph
    provenance: str
    count: int
    cycle_length: int | None


class ClassTable:
    """Isomorphism classes with counts; mergeable across partial runs.

    The retained representative of each class is the member with the
    minimal provenance string, which makes merging associative and
    commutative (split any stream, classify the parts, merge: same table).
    """

    def __init__(self, use_colors: bool = False):
        self.use_colors = use_colors
        self.classes: dict[CanonicalForm, GraphClassEntry] = {}
        self.total = 0

    def add(self, graph: CurveGraph, provenance: str = "") -> GraphClassEntry:
        form = canonical_form(graph, use_colors=self.use_colors)
        return self._count(GraphClassEntry(form, graph, provenance, 1, cycle_length(graph)))

    def _count(self, new: GraphClassEntry) -> GraphClassEntry:
        """Add ``new``'s members to its class; the representative is the
        member with the minimal provenance."""
        self.total += new.count
        entry = self.classes.get(new.form)
        if entry is None:
            entry = self.classes[new.form] = new
        else:
            entry.count += new.count
            if new.provenance < entry.provenance:
                entry.provenance = new.provenance
                entry.representative = new.representative
        return entry

    def merge(self, other: "ClassTable") -> "ClassTable":
        if self.use_colors != other.use_colors:
            raise ValueError("cannot merge tables with different color settings")
        out = ClassTable(self.use_colors)
        for table in (self, other):
            for entry in table.classes.values():
                out._count(replace(entry))
        return out

    def class_count(self) -> int:
        return len(self.classes)

    def entries(self) -> list[GraphClassEntry]:
        """All classes, sorted by (cycle length, canonical form encoding)."""
        return sorted(
            self.classes.values(),
            key=lambda e: (
                e.cycle_length if e.cycle_length is not None else 10**9,
                e.form.encode(),
            ),
        )


def classify(stream, use_colors: bool = False) -> ClassTable:
    """Classification of (graph, provenance) pairs by canonical form."""
    table = ClassTable(use_colors=use_colors)
    for graph, provenance in stream:
        table.add(graph, provenance)
    return table


def census(v: int, e: int, max_degree: int = 3, convention: str = "simple") -> int:
    """Number of connected graphs with v vertices, e edges, and maximum
    degree bounded, up to isomorphism, by levelwise generation with
    canonical-form deduplication.

    Conventions: ``simple`` (no loops, no parallel edges), ``multigraph``
    (parallel edges), ``multigraph-loops`` (parallel edges and loops; a
    loop contributes 2 to its vertex degree).  Exhaustive-mode limit:
    v <= 12.
    """
    if v > CENSUS_VERTEX_LIMIT:
        raise InputError(f"census is exhaustive only up to {CENSUS_VERTEX_LIMIT} vertices")
    if v < 1 or e < 0:
        raise InputError("need at least one vertex and a nonnegative edge count")
    if max_degree < 0:
        raise InputError(f"maximum degree must be at least 0, not {max_degree}")
    if convention not in CENSUS_CONVENTIONS:
        raise InputError(f"unknown convention {convention!r}")
    allow_multi = convention != "simple"
    allow_loops = convention == "multigraph-loops"

    def degrees(n, edges):
        deg = [0] * n
        for a, b in edges:
            if a == b:
                deg[a] += 2
            else:
                deg[a] += 1
                deg[b] += 1
        return deg

    start = canonical_form((1, ()))
    level = {start}
    for step in range(e):
        remaining_after = e - step - 1
        nxt: set[CanonicalForm] = set()
        for g in level:
            n, edges = g.num_vertices, g.edges
            deg = degrees(n, edges)
            multiplicity: dict[tuple[int, int], int] = {}
            for a, b in edges:
                multiplicity[(a, b)] = multiplicity.get((a, b), 0) + 1

            def push(n2, edges2):
                if remaining_after < v - n2:
                    return  # not enough edges left to attach the missing vertices
                nxt.add(canonical_form((n2, edges2)))

            if n < v:  # attach a fresh pendant vertex
                for u in range(n):
                    if deg[u] + 1 <= max_degree:
                        push(n + 1, edges + ((u, n),))
            for u in range(n):  # add an edge between existing vertices
                for w in range(u, n):
                    if u == w:
                        if not allow_loops or deg[u] + 2 > max_degree:
                            continue
                    else:
                        if deg[u] + 1 > max_degree or deg[w] + 1 > max_degree:
                            continue
                        if not allow_multi and (u, w) in multiplicity:
                            continue
                    push(n, tuple(sorted(edges + ((u, w),))))
        level = nxt
        if not level:
            break
    return sum(1 for g in level if g.num_vertices == v)
