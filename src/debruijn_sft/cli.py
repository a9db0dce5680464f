"""Command-line interface.

Subcommands: words, graph, seq, minimal, check, count, oracle, verify.
Output is deterministic: identical invocations print identical bytes.
Exit codes: 0 success, 1 domain error, out of memory, or failed
verification/certification, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from pathlib import Path

from .counting import count_eulerian_cycles, out_degree_factorials
from .errors import DeBruijnError
from .graph import DeBruijnGraph, build_graph, export_dot, graph_to_json
from .language import Language, enumerate_ranks, enumerate_words, parse_language_text
from .oracle import (
    DEFAULT_MAX_ARCS,
    certify_minimal_walk,
    global_minimal_label,
    verdict_to_json,
)
from .structure import (
    analysis_to_json,
    analyze_max_arcs,
    check_cycle_label_blocks,
    decide_minimal_is_eulerian,
    verify_cycle_structure,
    verify_exhaustion_order,
    verify_floor_paths,
    verify_greedy_decision,
    verify_label_monotonicity,
    verify_overlap_bounds,
)
from .walks import eulerian_cycle, minimal_walk, walk_to_json


def _add_language_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alphabet", help="alphabet symbols in order, e.g. 01")
    p.add_argument("--forbid", action="append", default=[], help="forbidden word (repeatable)")
    p.add_argument("--forbid-file", help="language file: alphabet line, then one forbidden word per line")
    p.add_argument("--span", type=int, required=True, help="word length / graph span n")


def _language(args: argparse.Namespace) -> Language:
    if args.forbid_file:
        lang = parse_language_text(Path(args.forbid_file).read_text())
        if args.alphabet and tuple(args.alphabet) != lang.alphabet.symbols:
            raise ValueError("--alphabet disagrees with the alphabet line of --forbid-file")
        extra = frozenset(lang.alphabet.word(t) for t in args.forbid)
        return Language(lang.alphabet, lang.forbidden | extra)
    if not args.alphabet:
        raise ValueError("--alphabet is required unless --forbid-file is given")
    return Language.from_text(args.alphabet, tuple(args.forbid))


def _graph(args: argparse.Namespace) -> DeBruijnGraph:
    return build_graph(_language(args), args.span)


def _json_text(data: dict | list) -> str:
    import json   # here, not at start-up: only --json output needs it
    return json.dumps(data, indent=2)


def _cmd_words(args: argparse.Namespace) -> int:
    lang = _language(args)
    if args.count_only:
        print(len(enumerate_ranks(lang, args.span)))
        return 0
    words = enumerate_words(lang, args.span)
    if args.json:
        print(_json_text([lang.alphabet.text(w) for w in words]))
    else:
        for w in words:
            print(lang.alphabet.text(w))
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    g = _graph(args)
    print(f"span {g.span}")
    print(f"alphabet {''.join(g.alphabet.symbols)}")
    print(f"vertices {len(g.ranks)}")
    print(f"arcs {len(g.heads)}")
    print(f"max-vertex {g.alphabet.text(g.max_vertex)}")
    if args.dot:
        highlight = analyze_max_arcs(g).avoid_set().arc_by_vertex.values() if args.highlight_t else ()
        Path(args.dot).write_text(export_dot(g, highlight))
        print(f"dot {args.dot}")
    if args.json:
        Path(args.json).write_text(_json_text(graph_to_json(g)) + "\n")
        print(f"json {args.json}")
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    g = _graph(args)
    start = g.alphabet.word(args.start) if args.start is not None else g.max_vertex
    walk = eulerian_cycle(g, start)
    if args.json:
        print(_json_text(walk_to_json(walk, g)))
    else:
        print(g.alphabet.text(walk.label))
    return 0


def _cmd_minimal(args: argparse.Namespace) -> int:
    g = _graph(args)
    walk = minimal_walk(g)
    if args.json:
        print(_json_text(walk_to_json(walk, g)))
    else:
        print(g.alphabet.text(walk.label))
        print(f"eulerian {'true' if walk.is_eulerian(g) else 'false'}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    g = _graph(args)
    decision = decide_minimal_is_eulerian(g)
    if args.json:
        print(_json_text(analysis_to_json(decision)))
        return 0
    t = decision.analysis
    alpha = g.alphabet
    print(f"vertices {len(g.ranks)}")
    print(f"arcs {len(g.heads)}")
    print(f"max-vertex {alpha.text(g.max_vertex)}")
    print(f"minimal-eulerian {'true' if decision.answer else 'false'}")
    print(f"via-tree {'true' if decision.via_tree else 'false'}")
    print(f"via-obstructions {'true' if decision.via_obstructions else 'false'}")
    for cyc, ids in zip(decision.cycles, t._cycles):
        labels = "".join(alpha.symbols[g.labels[t._arc[v]]] for v in ids)
        print(f"cycle {'>'.join(alpha.text(v) for v in cyc)} label {labels}")
    for o in decision.obstructions:
        blocks = "".join(f"({alpha.text(h)}|{alpha.symbols[b]})" for h, b in o.blocks)
        print(f"obstruction {alpha.text(o.word)} rotation {o.rotation} blocks {blocks}")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    g = _graph(args)
    cycles = count_eulerian_cycles(g, g.max_vertex)
    # A count can pass CPython's limit on int-to-str conversion (4,300
    # digits by default, from 3.10.7): lift it for these conversions only,
    # so a caller in the same process keeps its own setting.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.json:
            # Each converging spanning tree yields out_degree_factorials circuits.
            trees = cycles // out_degree_factorials(g)
            text = _json_text({
                "root": g.alphabet.text(g.max_vertex),
                "spanningTrees": str(trees),
                "eulerianCycles": str(cycles),
            })
        else:
            text = str(cycles)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    print(text)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.max_arcs < 1:
        raise ValueError(f"--max-arcs must be at least 1, got {args.max_arcs}")
    g = _graph(args)
    if args.global_minimum:
        best = global_minimal_label(g, max_arcs=args.max_arcs)
        if args.json:
            print(_json_text({
                "start": g.alphabet.text(best.start),
                "label": g.alphabet.text(best.label),
            }))
        else:
            print(f"start {g.alphabet.text(best.start)}")
            print(f"label {g.alphabet.text(best.label)}")
        return 0
    verdict = certify_minimal_walk(g, max_arcs=args.max_arcs)
    if args.json:
        print(_json_text(verdict_to_json(verdict, g)))
    else:
        print(f"greedy-label {g.alphabet.text(verdict.greedy_label)}")
        print(f"greedy-eulerian {'true' if verdict.greedy_eulerian else 'false'}")
        print(f"oracle-label {g.alphabet.text(verdict.oracle_label)}")
        print(f"decision {'true' if verdict.decision else 'false'}")
        print(f"pass {'true' if verdict.passed else 'false'}")
    return 0 if verdict.passed else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _graph(args)
    decision = decide_minimal_is_eulerian(g)
    t = decision.analysis
    reports = [
        verify_exhaustion_order(g, t.avoid_set()),
        verify_label_monotonicity(t),
        verify_cycle_structure(t),
        verify_overlap_bounds(t),
        verify_floor_paths(t),
    ]
    for cyc in t.cycles:
        reports.append(check_cycle_label_blocks(t, cyc))
    reports.append(verify_greedy_decision(decision))
    failed = False
    for r in reports:
        if r.ok:
            print(f"ok {r.name} checks={r.checks}")
        else:
            failed = True
            print(f"FAIL {r.name}: " + "; ".join(r.violations))
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="debruijn-sft",
        description="De Bruijn graphs and sequences for languages with forbidden substrings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("words", help="enumerate the circular words of a given length")
    _add_language_flags(p)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_words)

    p = sub.add_parser("graph", help="build the graph and print stats / exports")
    _add_language_flags(p)
    p.add_argument("--dot", metavar="PATH", help="write Graphviz DOT to PATH")
    p.add_argument("--json", metavar="PATH", help="write the JSON graph to PATH")
    p.add_argument("--highlight-t", action="store_true",
                   help="style the maximum-label arc subgraph in the DOT export")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("seq", help="emit one full sequence (cycle splicing)")
    _add_language_flags(p)
    p.add_argument("--start", metavar="LABEL", help="start vertex (default: maximal vertex)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_seq)

    for name, func, text in (
        ("minimal", _cmd_minimal, "run the greedy minimal walk from the maximal vertex"),
        ("check", _cmd_check, "decide whether the greedy walk yields a full sequence"),
        ("count", _cmd_count, "exact Eulerian-circuit count"),
    ):
        p = sub.add_parser(name, help=text)
        _add_language_flags(p)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)

    p = sub.add_parser("oracle", help="exhaustive certification (size-guarded)")
    _add_language_flags(p)
    p.add_argument("--global", dest="global_minimum", action="store_true",
                   help="minimal circuit label over all start vertices")
    p.add_argument("--max-arcs", type=int, default=DEFAULT_MAX_ARCS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="run every structural verifier; nonzero exit on violations")
    _add_language_flags(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # One line per warning, without Python's source location and echo.
        warnings.showwarning = _print_warning
        try:
            code = args.func(args)
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            # The reader closed stdout: stop quietly, and point stdout at
            # devnull so the flush at interpreter exit cannot fail again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
        except DeBruijnError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (ValueError, OSError) as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        except MemoryError:
            pass
    # Reported outside the handler, once the traceback, and with it the
    # frames that held the failed build's memory, has been let go.
    print("error: out of memory; try a smaller --span", file=sys.stderr)
    return 1


def entry() -> None:
    raise SystemExit(main())
