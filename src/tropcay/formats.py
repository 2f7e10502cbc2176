"""JSON/text serialization: configurations, polynomials, cell text, reports.

All JSON documents carry a ``format`` field.  Rationals serialize as
"p/q" or "p" strings.  Reading a document that is not an object, has the
wrong ``format``, or lacks or mistypes a field raises ``InputError``.
Triangulations have a compact text form: each cell is the concatenation
of its point labels in index order (uppercase labels are first-factor
points of a Cayley configuration, lowercase second), and cells are joined
by commas, e.g. ``ABCDe,ABCde``.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from functools import lru_cache
from fractions import Fraction

from .errors import InputError, SupportError
from .exactarith import format_rational, parse_rational
from .geometry import PointConfiguration

FORMAT_POINTS = "tropcay/point-configuration/1"
FORMAT_TRIANGULATION = "tropcay/triangulation/1"
FORMAT_POLYNOMIAL = "tropcay/valued-polynomial/1"
FORMAT_CHECKPOINT = "tropcay/checkpoint/4"
FORMAT_CLASSES = "tropcay/class-table/1"
FORMAT_REPORT = "tropcay/curve-report/1"

_LABEL_RE = re.compile(r"[A-Za-z][0-9]*")


@contextmanager
def _reading(doc, fmt: str, what: str):
    """Check a document's type and ``format`` field, and turn a missing or
    ill-typed field read inside the block into an ``InputError``."""
    if not isinstance(doc, dict):
        raise InputError(f"not a {what} document: expected a JSON object")
    if doc.get("format") != fmt:
        raise InputError(f"not a {what} document: {doc.get('format')!r}")
    try:
        yield
    except InputError:
        raise
    except KeyError as err:
        raise InputError(f"{what} document has no field {err}") from None
    except (TypeError, ValueError) as err:
        raise InputError(f"{what} document: {err}") from None


def _integer(value) -> int:
    """A JSON integer; ``int()`` would truncate 1.5 and read true as 1."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _boolean(value) -> bool:
    """A JSON boolean; ``bool()`` would read "false" and 1 as true."""
    if type(value) is not bool:
        raise TypeError(f"{value!r} is not a boolean")
    return value


def config_to_dict(config: PointConfiguration) -> dict:
    doc = {
        "format": FORMAT_POINTS,
        "ambient_dim": config.ambient_dim,
        "points": [list(p) for p in config.points],
        "labels": list(config.labels),
    }
    if config.cayley_sizes is not None:
        doc["cayley_sizes"] = list(config.cayley_sizes)
    return doc


def config_from_dict(doc: dict) -> PointConfiguration:
    with _reading(doc, FORMAT_POINTS, "point configuration"):
        cayley = doc.get("cayley_sizes")
        labels = doc["labels"]
        # Labels must parse back from cell text (``text_to_cells``).
        if not isinstance(labels, list) or not all(
            isinstance(label, str) and _LABEL_RE.fullmatch(label) for label in labels
        ):
            raise ValueError(f"labels must be a list of one letter and digits each, not {labels!r}")
        config = PointConfiguration(
            _integer(doc["ambient_dim"]),
            tuple(tuple(_integer(x) for x in p) for p in doc["points"]),
            tuple(labels),
            tuple(_integer(x) for x in cayley) if cayley else None,
        )
        # the layout ``cayley_config`` writes, which the slicing reads by index
        if cayley:
            n1, n2 = config.cayley_sizes
            if [p[:2] for p in config.points] != [(1, 0)] * n1 + [(0, 1)] * n2:
                raise ValueError(
                    f"cayley_sizes {list(cayley)} do not match the points: the first {n1}"
                    f" must start with 1, 0 and the other {n2} with 0, 1"
                )
        return config


def cells_to_text(config: PointConfiguration, cells) -> str:
    labels = config.labels
    return ",".join("".join(labels[i] for i in c) for c in sorted(map(tuple, map(sorted, cells))))


def text_to_cells(config: PointConfiguration, text: str) -> tuple[tuple[int, ...], ...]:
    cells = []
    for token in text.strip().split(","):
        labels = _LABEL_RE.findall(token.strip())
        if "".join(labels) != token.strip():
            raise ValueError(f"cannot parse cell string {token!r}")
        cells.append(tuple(config.index_of_label(l) for l in labels))
    return tuple(sorted(tuple(sorted(c)) for c in cells))


_LINE_HEAD = '{"format":"' + FORMAT_TRIANGULATION + '","cells":['


@lru_cache(maxsize=16)
def _line_fragments(labels) -> dict:
    """Per-cell fragments of ``triangulation_line`` for one label tuple,
    filled as cells are seen: cell -> (sorted cell, its JSON, its text)."""
    return {}


def triangulation_line(config: PointConfiguration, cells) -> str:
    """``{"format", "cells", "text"}`` as compact JSON, the cells sorted;
    each line is joined from cached per-cell JSON fragments."""
    labels = config.labels
    fragments = _line_fragments(labels)
    parts = []
    for cell in cells:
        cell = tuple(cell)
        part = fragments.get(cell)
        if part is None:
            ordered = tuple(sorted(cell))
            if ordered == cell:
                ordered = cell  # keep one tuple per cell in the cache
            part = fragments[cell] = (
                ordered,
                json.dumps(ordered, separators=(",", ":")),
                json.dumps("".join(labels[i] for i in ordered))[1:-1],
            )
        parts.append(part)
    parts.sort()
    return "".join((
        _LINE_HEAD,
        ",".join([part[1] for part in parts]),
        '],"text":"',
        ",".join([part[2] for part in parts]),
        '"}',
    ))


def parse_triangulation_line(config: PointConfiguration, line: str) -> tuple[tuple[int, ...], ...]:
    doc = json.loads(line)
    if isinstance(doc, dict) and "cells" in doc:
        return tuple(sorted(tuple(sorted(_integer(i) for i in c)) for c in doc["cells"]))
    if isinstance(doc, dict) and "text" in doc:
        return text_to_cells(config, doc["text"])
    raise ValueError("triangulation line has neither 'cells' nor 'text'")


def polynomial_terms_from_dict(doc: dict) -> tuple[int, dict[tuple[int, ...], Fraction]]:
    with _reading(doc, FORMAT_POLYNOMIAL, "valued polynomial"):
        degree = _integer(doc["degree"])
        terms = {}
        for entry in doc["terms"]:
            exp = tuple(_integer(x) for x in entry["exp"])
            if exp in terms:
                raise SupportError(f"duplicate exponent {exp}")
            terms[exp] = parse_rational(entry["val"])
        return degree, terms


def save_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- rendering: curve reports, class tables, atlas, DOT --------------------

_DOT_FILL = {"blue": "lightblue", "red": "lightcoral", None: "white"}


def graph_to_dot(graph, vertex_labels=None, name: str = "tropical_curve") -> str:
    """DOT rendering with blue/red vertex fills and per-vertex ray counts."""
    lines = [f"graph {name} {{", "  node [style=filled];"]
    for v in range(graph.num_vertices):
        color = graph.colors[v] if graph.colors is not None else None
        label = vertex_labels[v] if vertex_labels else f"v{v}"
        lines.append(
            f'  v{v} [label="{label} rays={graph.ray_counts[v]}", '
            f'fillcolor="{_DOT_FILL[color]}"];'
        )
    for u, v in graph.edges:
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def marked_cell_text(config: PointConfiguration, cells) -> str:
    """Cell text with toblerone markup: ``(b)`` tags 3-uppercase/2-lowercase
    cells, ``(r)`` 2-uppercase/3-lowercase; unmixed cells are untagged."""
    if not config.is_cayley:
        return cells_to_text(config, cells)
    n1, _ = config.cayley_sizes
    parts = []
    for cell in sorted(map(tuple, map(sorted, cells))):
        text = "".join(config.labels[i] for i in cell)
        upper = sum(1 for i in cell if i < n1)
        lower = len(cell) - upper
        if (upper, lower) == (3, 2):
            text += "(b)"
        elif (upper, lower) == (2, 3):
            text += "(r)"
        parts.append(text)
    return ",".join(parts)


def report_to_dict(report) -> dict:
    config = report.configuration
    vertex_labels = ["".join(config.labels[i] for i in c) for c in report.graph.vertex_cells]
    return {
        "format": FORMAT_REPORT,
        "triangulation": cells_to_text(config, report.triangulation.cells),
        "triangulation_marked": marked_cell_text(config, report.triangulation.cells),
        "cells": [list(c) for c in report.triangulation.cells],
        "weights": [format_rational(h) for h in report.weights.heights],
        "cell_count": len(report.triangulation.cells),
        "mixed_count": report.mixed_count,
        "unmixed_count": report.unmixed_count,
        "color_counts": dict(report.color_counts),
        "genus": report.genus,
        "cycle_length": report.cycle_length,
        "ray_total": report.ray_total,
        "vertices": [
            {
                "cell": vertex_labels[v],
                "color": report.graph.colors[v],
                "rays": report.graph.ray_counts[v],
            }
            for v in range(report.graph.num_vertices)
        ],
        "edges": [list(e) for e in report.graph.edges],
        "dot": graph_to_dot(report.graph, vertex_labels),
    }


def class_table_to_dict(config: PointConfiguration, entries_with_cells) -> dict:
    """Class table document: ``entries_with_cells`` pairs each table entry
    with the representative triangulation's cells."""
    classes = []
    for class_id, (entry, cells) in enumerate(entries_with_cells):
        graph = entry.representative
        classes.append(
            {
                "id": class_id,
                "cycle_length": entry.cycle_length,
                "members": entry.count,
                "representative": marked_cell_text(config, cells),
                "edges": [list(e) for e in graph.edges],
                "colors": list(graph.colors) if graph.colors is not None else [],
            }
        )
    return {"format": FORMAT_CLASSES, "classes": classes}


def atlas_text(config: PointConfiguration, entries_with_cells) -> str:
    """Plain-text atlas: label table header, then one block per class,
    sorted by increasing cycle length and canonical form."""
    lines = ["# tropcay atlas", "#", "# point labels:"]
    for label, point in zip(config.labels, config.points):
        lines.append(f"#   {label} = {tuple(point)}")
    lines.append("#")
    lines.append("# cell markup: (b) = 3 uppercase + 2 lowercase (blue toblerone),")
    lines.append("#              (r) = 2 uppercase + 3 lowercase (red toblerone)")
    lines.append("# entries sorted by increasing cycle length, then canonical form")
    lines.append("")
    for class_id, (entry, cells) in enumerate(entries_with_cells):
        graph = entry.representative
        lines.append(
            f"## id {class_id}  cycle_length {entry.cycle_length}  members {entry.count}"
        )
        lines.append(f"representative: {marked_cell_text(config, cells)}")
        lines.append("edges: " + " ".join(f"{u}-{v}" for u, v in graph.edges))
        lines.append(
            "rays: " + " ".join(f"v{v}={r}" for v, r in enumerate(graph.ray_counts))
        )
        lines.append("")
    return "\n".join(lines)
