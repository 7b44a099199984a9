"""Command line interface.

Subcommands:

* aut: analyze one graph and print a key=value report of its automorphism
  group (family, skeleton, case label, expression, order, class).
* verify: compare the expression's order against the brute-force oracle.
* realize: build a graph whose automorphism group matches an expression.
* fuzz: cross-check many generated graphs against the oracle.

Exit codes: 0 ok, 2 bad input, 3 unsupported graph family, 4 verification
mismatch, 5 expression outside the realizable classes, 6 too large: vertex
budget, memory or recursion depth.  Running out of memory or recursing
past the interpreter's limit prints the innermost function that failed,
once that call's frames are freed.
"""
from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext

from .bicyclic import UnsupportedFamilyError, analyze, emit_generators
from .generate import (
    CASE_LABELS,
    all_bicyclic,
    all_unicyclic,
    case_instance,
    random_bicyclic,
    random_unicyclic,
)
from .graphs import Graph, from_graph6, read_edgelist, to_edgelist, to_graph6
from .groups import ExprSyntaxError, classify, order, parse_expr, print_expr
from .oracle import automorphism_count, group_order, oracle_bound
from .realize import RealizeError, SizeBudgetError, realize

EX_OK = 0
EX_INPUT = 2
EX_FAMILY = 3
EX_MISMATCH = 4
EX_OUTSIDE = 5
EX_BUDGET = 6


def _read_graph(path: str, fmt: str) -> Graph:
    """The graph in a file, or on standard input for '-'.  An edge list is
    read in pieces (graphs.read_edgelist), never as one text."""

    def read(fh) -> Graph:
        return from_graph6(fh.read()) if fmt == "graph6" else read_edgelist(fh)

    if path == "-":
        return read(sys.stdin)
    with open(path, "r", encoding="ascii") as fh:
        return read(fh)


def _write_graph(g: Graph, fmt: str) -> str:
    return to_graph6(g) + "\n" if fmt == "graph6" else to_edgelist(g)


def _digits(n: int) -> str:
    """n >= 0 in decimal, also past the interpreter's limit on the digits
    str() converts (4300 by default): a star on 2000 leaves already has an
    order of 5736 digits.  n splits by bits into halves, whose Decimal
    values join through a cached power of two: subquadratic, where str()
    is quadratic."""
    powers: dict[int, Decimal] = {}

    def two_to(w: int) -> Decimal:
        if w not in powers:
            half = w >> 1
            powers[w] = Decimal(1 << w) if w <= 256 else two_to(half) * two_to(w - half)
        return powers[w]

    def convert(x: int, w: int) -> Decimal:
        if w <= 256:
            return Decimal(x)
        half = w >> 1
        hi = x >> half
        return convert(hi, w - half) * two_to(half) + convert(x - (hi << half), half)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        ctx.traps[Inexact] = True
        return str(convert(n, n.bit_length()))


def _report(g: Graph, cap: int) -> tuple[list[str], int]:
    a = analyze(g)
    n = order(a.expr)
    pairs = [
        ("family", a.family),
        ("kind", a.kind if a.kind else "-"),
        ("lengths", ",".join(map(str, a.lengths)) if a.lengths else "-"),
        ("case", a.case),
        ("expr", print_expr(a.expr)),
        ("order", _digits(n)),
        ("class", classify(a.expr)),
    ]
    status = EX_OK
    gens = emit_generators(g, a)
    # the analysis holds its rooted forest, entries per vertex, which the
    # closure check does not read
    del a
    pairs.append(("generators", str(len(gens))))
    if n <= cap:
        ok = group_order(g.n, gens) == n
        pairs.append(("closure", "ok" if ok else "FAIL"))
        if not ok:
            status = EX_MISMATCH
    else:
        pairs.append(("closure", "skipped"))
    return ["%s=%s" % kv for kv in pairs], status


def _cmd_aut(args) -> int:
    g = _read_graph(args.path, args.format)
    lines, status = _report(g, args.cap_closure)
    if args.structured:
        print(" ".join(lines))
    else:
        for line in lines:
            print(line)
    return status


def _cmd_verify(args) -> int:
    g = _read_graph(args.path, args.format)
    if g.n > oracle_bound():
        print(
            "graph has %d vertices, oracle bound is %d" % (g.n, oracle_bound()),
            file=sys.stderr,
        )
        return EX_INPUT
    a = analyze(g)
    formula = order(a.expr)
    counted = automorphism_count(g)
    if formula == counted:
        print("formula=%d oracle=%d OK" % (formula, counted))
        return EX_OK
    print("formula=%d oracle=%d MISMATCH" % (formula, counted))
    return EX_MISMATCH


def _cmd_realize(args) -> int:
    expr = parse_expr(args.expr)
    r = realize(expr)
    text = _write_graph(r.graph, args.format)
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
        with open(args.output + ".manifest", "w", encoding="ascii") as fh:
            for term, verts in r.manifest:
                fh.write("%s\t%s\n" % (term, ",".join(map(str, verts))))
        print(
            "n=%d class=%s order=%d expr=%s"
            % (r.graph.n, r.cls, order(r.expr), print_expr(r.expr))
        )
    else:
        sys.stdout.write(text)
    if args.check:
        if r.graph.n > oracle_bound():
            print("check=skipped (%d vertices)" % r.graph.n, file=sys.stderr)
        else:
            want, got = order(r.expr), automorphism_count(r.graph)
            verdict = "OK" if want == got else "MISMATCH"
            print("check: formula=%d oracle=%d %s" % (want, got, verdict), file=sys.stderr)
            if want != got:
                return EX_MISMATCH
    return EX_OK


def _fuzz_stream(args, rng: random.Random):
    if args.exhaustive:
        for n in range(3, args.max_n + 1):
            yield from all_unicyclic(n)
            yield from all_bicyclic(n)
        return
    for i in range(args.count):
        turn = i % 3
        if turn == 0:
            yield case_instance(CASE_LABELS[(i // 3) % len(CASE_LABELS)], rng)
        elif turn == 1:
            yield random_bicyclic(rng, rng.randint(5, args.max_n))
        else:
            yield random_unicyclic(rng, rng.randint(3, args.max_n))


def _cmd_fuzz(args) -> int:
    if args.count < 0:
        raise ValueError("--count must be at least 0, got %d" % args.count)
    if not args.exhaustive and args.max_n < 5:
        # random bicyclic graphs are drawn with 5 to --max-n vertices
        raise ValueError(
            "--max-n must be at least 5 without --exhaustive, got %d" % args.max_n
        )
    rng = random.Random(args.seed)
    counts: Counter[str] = Counter()
    checked = 0
    bad = 0
    for g in _fuzz_stream(args, rng):
        a = analyze(g)
        counts[a.case if a.family == "bicyclic" else a.family] += 1
        want = order(a.expr)
        wrong = a.family == "bicyclic" and classify(a.expr) == "OutsideS"
        if g.n <= oracle_bound():
            checked += 1
            wrong = wrong or automorphism_count(g) != want
        if wrong:
            bad += 1
            print("mismatch: %s" % to_graph6(g), file=sys.stderr)
    for label in sorted(counts):
        print("%s=%d" % (label, counts[label]))
    print("checked=%d mismatches=%d" % (checked, bad))
    return EX_MISMATCH if bad else EX_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bicaut",
        description="automorphism groups of trees, unicyclic and bicyclic graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_input(sp):
        sp.add_argument("path", nargs="?", default="-", help="graph file, - for stdin")
        sp.add_argument(
            "--format", choices=("edgelist", "graph6"), default="edgelist"
        )

    sp = sub.add_parser("aut", help="analyze one graph")
    add_input(sp)
    sp.add_argument(
        "--structured", action="store_true", help="single-line key=value output"
    )
    sp.add_argument(
        "--cap-closure",
        type=int,
        default=100_000,
        metavar="N",
        help="check the Schreier-Sims order of the emitted generators when the"
        " order is at most N",
    )
    sp.set_defaults(fn=_cmd_aut)

    sp = sub.add_parser("verify", help="compare against the brute-force oracle")
    add_input(sp)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("realize", help="build a graph from an expression")
    sp.add_argument("expr", help="group expression, e.g. 'S2*wrK4(S3)'")
    sp.add_argument("--output", metavar="PATH", help="write the graph here")
    sp.add_argument(
        "--format", choices=("edgelist", "graph6"), default="edgelist"
    )
    sp.add_argument(
        "--check", action="store_true", help="verify the result with the oracle"
    )
    sp.set_defaults(fn=_cmd_realize)

    sp = sub.add_parser("fuzz", help="cross-check generated graphs")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=200)
    sp.add_argument("--max-n", type=int, default=12)
    sp.add_argument(
        "--exhaustive",
        action="store_true",
        help="all unicyclic and bicyclic graphs with at most --max-n vertices",
    )
    sp.set_defaults(fn=_cmd_fuzz)
    return p


def _innermost(tb) -> str:
    """The name of the function in which a traceback ends, with its class
    where the interpreter keeps it (3.11 on)."""
    while tb.tb_next is not None:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    return getattr(code, "co_qualname", code.co_name)


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (MemoryError, RecursionError) as exc:
        # reported after the handler, which frees the failed call's frames
        what = "out of memory" if isinstance(exc, MemoryError) else "recursion too deep"
        where = _innermost(exc.__traceback__)
    except ExprSyntaxError as exc:
        print("expression error: %s" % exc, file=sys.stderr)
        return EX_INPUT
    except UnsupportedFamilyError as exc:
        print("unsupported graph: %s" % exc, file=sys.stderr)
        return EX_FAMILY
    except RealizeError as exc:
        print("not realizable: %s" % exc, file=sys.stderr)
        return EX_OUTSIDE
    except SizeBudgetError as exc:
        print("too large: %s" % exc, file=sys.stderr)
        return EX_BUDGET
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EX_INPUT
    print("too large: %s in %s" % (what, where), file=sys.stderr)
    return EX_BUDGET


def main() -> None:
    sys.exit(run())
