"""Command-line interface.

Subcommands: ``config`` (build point configurations), ``tropicalize``
(polynomial pair to curve report), ``enumerate`` (stream triangulation
representatives with checkpointing), ``classify`` (isomorphism classes +
atlas of the curves of the unimodular triangulations in a stream; other
lines are skipped with a note, and a configuration with no dual graph is
refused before the stream is read; ``--jobs N`` classifies N shares of the
lines into their own tables and joins them with ``ClassTable.merge``),
``census`` (abstract graph counts).

Exit codes: 0 success, 2 degenerate subdivision, 3 non-unimodular
triangulation, 4 I/O error (also a file that is not UTF-8 or not JSON),
5 checkpoint mismatch, 64 usage error or malformed input (one line on
stderr, never a traceback).
Progress and telemetry go to stderr; standard output carries data.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from functools import cache, partial, reduce
from itertools import islice

from .enumeration import DEFAULT_CHECKPOINT_EVERY, EnumerationFilters, Enumerator, load_checkpoint
from .errors import (
    CheckpointMismatchError,
    DegenerateSubdivisionError,
    InputError,
    NonUnimodularError,
    SupportError,
)
from .formats import (
    atlas_text,
    cells_to_text,
    class_table_to_dict,
    config_from_dict,
    config_to_dict,
    graph_to_dot,
    load_json,
    parse_triangulation_line,
    polynomial_terms_from_dict,
    report_to_dict,
    save_json,
    triangulation_line,
)
from .geometry import cayley_config, simplex_lattice_points
from .graphs import CENSUS_CONVENTIONS, ClassTable, census
from .triangulation import SYMMETRY_PRESETS, Triangulation, builtin_symmetry, is_unimodular
from .tropical import ValuedPolynomial, dual_curve_planar, mixed_subdivision, dual_curve_3d, tropicalize_pair

EXIT_OK = 0
EXIT_DEGENERATE = 2
EXIT_NONUNIMODULAR = 3
EXIT_IO = 4
EXIT_CHECKPOINT = 5
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line, as every usage error writes
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@cache  # built once per process; each parse_args call returns its own namespace
def _build_parser() -> _Parser:
    parser = _Parser(prog="tropcay", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("config", help="write a point configuration JSON file")
    kinds = p.add_subparsers(dest="kind", required=True)
    ps = kinds.add_parser("simplex", help="lattice points of dilation*Delta_dim")
    ps.add_argument("--dim", type=int, required=True)
    ps.add_argument("--dilation", type=int, required=True)
    ps.add_argument("--out", default=None, help="output file (default: stdout)")
    pc = kinds.add_parser("cayley", help="Cayley configuration of d*Delta and e*Delta")
    pc.add_argument("--d", type=int, required=True, help="first factor dilation")
    pc.add_argument("--e", type=int, required=True, help="second factor dilation")
    pc.add_argument("--dim", type=int, default=3, help="factor dimension (default 3)")
    pc.add_argument("--out", default=None)

    p = sub.add_parser("tropicalize", help="curve report for a pair of valued polynomials")
    p.add_argument("f1", help="first polynomial JSON file")
    p.add_argument("f2", help="second polynomial JSON file")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("enumerate", help="stream triangulation class representatives as JSONL")
    p.add_argument("--config", default=None, help="point configuration JSON file")
    p.add_argument("--group", default=None, choices=SYMMETRY_PRESETS,
                   help="symmetry group preset (default: trivial)")
    p.add_argument("--unimodular", action="store_true", help="emit only unimodular classes")
    p.add_argument("--full", action="store_true", help="emit only full classes")
    p.add_argument("--checkpoint", default=None, help="checkpoint file to write (and resume from)")
    p.add_argument("--resume", action="store_true", help="resume from --checkpoint")
    p.add_argument("--limit", type=int, default=None, help="stop after this many emissions")
    p.add_argument("--checkpoint-every", type=int, default=DEFAULT_CHECKPOINT_EVERY)
    p.add_argument("--placing-order", default=None,
                   help="comma-separated point order for the seed triangulation")
    p.add_argument("--out", default=None, help="output JSONL file (default: stdout)")

    p = sub.add_parser("classify", help="isomorphism classes of curves from a JSONL stream")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="input", required=True, help="triangulation JSONL file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--use-colors", action="store_true", help="classify color-respecting")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("census", help="count connected bounded-degree graphs up to isomorphism")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--convention", default="simple", choices=list(CENSUS_CONVENTIONS))

    return parser


def _emit(doc, out_path):
    if out_path is None:
        json.dump(doc, sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        save_json(out_path, doc)


def cmd_config(args) -> int:
    if args.kind == "simplex":
        cfg = simplex_lattice_points(args.dim, args.dilation)
    else:
        cfg = cayley_config(
            simplex_lattice_points(args.dim, args.d),
            simplex_lattice_points(args.dim, args.e),
        )
    _emit(config_to_dict(cfg), args.out)
    return EXIT_OK


def _load_polynomial(path) -> ValuedPolynomial:
    degree, terms = polynomial_terms_from_dict(load_json(path))
    return ValuedPolynomial.make(degree, terms)


def cmd_tropicalize(args) -> int:
    f1 = _load_polynomial(args.f1)
    f2 = _load_polynomial(args.f2)
    try:
        report = tropicalize_pair(f1, f2)
    except DegenerateSubdivisionError as err:
        sys.stderr.write(f"degenerate subdivision: {err}\n")
        return EXIT_DEGENERATE
    except NonUnimodularError as err:
        sys.stderr.write(f"not unimodular: {err}\n")
        return EXIT_NONUNIMODULAR
    os.makedirs(args.out, exist_ok=True)
    doc = report_to_dict(report)
    save_json(os.path.join(args.out, "report.json"), doc)
    with open(os.path.join(args.out, "curve.dot"), "w", encoding="utf-8") as fh:
        fh.write(doc["dot"])
    sys.stderr.write(
        f"cells={len(report.triangulation.cells)} mixed={report.mixed_count} "
        f"genus={report.genus} cycle_length={report.cycle_length}\n"
    )
    return EXIT_OK


def _placing_order(text: str, n: int) -> list[int]:
    try:
        order = [int(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"--placing-order {text!r} is not a comma-separated list of integers") from None
    if sorted(order) != list(range(n)):
        raise InputError(f"--placing-order must be a permutation of the point indices 0..{n - 1}")
    return order


def cmd_enumerate(args) -> int:
    # checked before --out is opened, which would truncate it
    if args.limit is not None and args.limit < 0:
        raise InputError(f"limit must be at least 0, not {args.limit}")
    if args.resume:
        if not args.checkpoint:
            sys.stderr.write("error: --resume needs --checkpoint\n")
            return EXIT_USAGE
        for option, value in (
            ("--group", args.group),
            ("--unimodular", args.unimodular),
            ("--full", args.full),
            ("--placing-order", args.placing_order),
        ):
            if value:
                sys.stderr.write(f"error: --resume takes {option} from the checkpoint\n")
                return EXIT_USAGE
        config = config_from_dict(load_json(args.config)) if args.config else None
        enumerator = load_checkpoint(args.checkpoint, config=config, checkpoint_every=args.checkpoint_every)
    else:
        if not args.config:
            sys.stderr.write("error: --config is required unless resuming\n")
            return EXIT_USAGE
        config = config_from_dict(load_json(args.config))
        group = builtin_symmetry(args.group or "trivial", config)
        filters = EnumerationFilters(
            require_unimodular=args.unimodular, require_full=args.full
        )
        order = None
        if args.placing_order:
            order = _placing_order(args.placing_order, len(config))
        enumerator = Enumerator(
            config,
            group,
            filters,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            placing_order=order,
        )

    previous = signal.signal(signal.SIGINT, lambda *_: enumerator.request_stop())
    previous_term = signal.signal(signal.SIGTERM, lambda *_: enumerator.request_stop())
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    # line-buffered, so that each checkpoint's ``emitted`` counts only lines handed to the OS
    out.reconfigure(line_buffering=True)
    last_report = time.monotonic()
    try:
        for t in enumerator.run(limit=args.limit):
            out.write(triangulation_line(t.configuration, t.cells))
            out.write("\n")
            now = time.monotonic()
            if now - last_report > 2.0:
                s = enumerator.stats()
                sys.stderr.write(
                    f"visited={s['visited']} emitted={s['emitted']} "
                    f"frontier={s['frontier']}\n"
                )
                last_report = now
    finally:
        if args.out:
            out.close()
        signal.signal(signal.SIGINT, previous)
        signal.signal(signal.SIGTERM, previous_term)
    s = enumerator.stats()
    sys.stderr.write(
        f"done: visited={s['visited']} emitted={s['emitted']} "
        f"frontier={s['frontier']} complete={s['complete']} "
        f"carried={s['carried']} lifted={s['lifted']} solved={s['solved']}\n"
    )
    return EXIT_OK


def _classify_share(config, use_colors, path, jobs, share) -> ClassTable:
    """Classify every ``jobs``-th non-blank line of the file ``path``, from
    the ``share``-th on, into its own table, skipping each line that is not
    a unimodular triangulation.  The file is read line by line, so a share
    holds only its table in memory."""
    table = ClassTable(use_colors=use_colors)
    with open(path, "r", encoding="utf-8") as fh:
        lines = ((lineno, line) for lineno, line in enumerate(fh, 1) if line.strip())
        for lineno, line in islice(lines, share, None, jobs):
            try:
                t = Triangulation.make(config, parse_triangulation_line(config, line))
                if not is_unimodular(t):  # reads the cell volumes make just cached
                    raise ValueError("not unimodular")
                graph = dual_curve_3d(mixed_subdivision(t)) if config.is_cayley else dual_curve_planar(t)
            except Exception as err:  # report and continue
                sys.stderr.write(f"line {lineno}: skipped ({err})\n")
                continue
            table.add(graph, cells_to_text(config, t.cells))
    return table


def cmd_classify(args) -> int:
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, not {args.jobs}")
    config = config_from_dict(load_json(args.config))
    # the dual graphs: dual_curve_3d of a quadric pair's Cayley
    # configuration, dual_curve_planar of a plane polygon
    want = 4 if config.is_cayley else 2
    if config.affine_dim() != want:
        kind = "a Cayley configuration" if config.is_cayley else "a configuration that is not Cayley"
        raise InputError(
            f"classify needs affine dimension {want} for {kind}, not {config.affine_dim()}"
        )
    classify_share = partial(_classify_share, config, args.use_colors, args.input, args.jobs)
    if args.jobs == 1:
        tables = [classify_share(0)]
    else:
        # imported on demand: multiprocessing adds ~2 MiB to every process loading this module
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            tables = list(pool.map(classify_share, range(args.jobs)))
    table = reduce(ClassTable.merge, tables)

    entries = table.entries()
    os.makedirs(args.out, exist_ok=True)
    doc = class_table_to_dict(config, entries)
    save_json(os.path.join(args.out, "classes.json"), doc)
    with open(os.path.join(args.out, "atlas.txt"), "w", encoding="utf-8") as fh:
        fh.write(atlas_text(config, entries))
    for class_id, entry in enumerate(entries):
        graph = entry.representative
        path = os.path.join(args.out, f"class_{class_id:04d}.dot")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(graph_to_dot(graph, name=f"curve_class_{class_id}"))
    sys.stderr.write(f"classified {table.total} inputs into {table.class_count()} classes\n")
    return EXIT_OK


def cmd_census(args) -> int:
    count = census(args.v, args.e, args.max_degree, args.convention)
    sys.stdout.write(f"{count}\n")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "config":
            return cmd_config(args)
        if args.command == "tropicalize":
            return cmd_tropicalize(args)
        if args.command == "enumerate":
            return cmd_enumerate(args)
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "census":
            return cmd_census(args)
        raise AssertionError(args.command)
    except CheckpointMismatchError as err:
        sys.stderr.write(f"checkpoint mismatch: {err}\n")
        return EXIT_CHECKPOINT
    except SupportError as err:
        sys.stderr.write(f"bad polynomial support: {err}\n")
        return EXIT_USAGE
    except InputError as err:
        sys.stderr.write(f"bad input: {err}\n")
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as err:
        sys.stderr.write(f"i/o error: {err}\n")
        return EXIT_IO
    except json.JSONDecodeError as err:
        sys.stderr.write(f"i/o error: malformed JSON ({err})\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
