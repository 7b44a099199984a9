"""Seeded benchmark for bicaut: analyze, generator witnesses, the oracle and
realize.

    python3 bench/run.py --workload {sweep,large} --seed N \
        --seconds S --trace {0,1}

A closed loop with one client: the inputs run one at a time, in passes, in
this process; the first MIN_PASSES passes always complete, later passes
stop at the deadline.  Steps are timed in CPU time and scaled to a fixed
reference speed by the machine-speed samples of speed.py, one factor per
half-second window.  Each input's time for each step is the mean over its passes; the
throughputs divide the vertices of the inputs that succeeded by the sum of
those times, and the latencies are percentiles of them over the inputs.
The set-up time is the median of SETUP_REPEATS set-ups, each scaled the
same way.  Every answer is checked outside the timed region, and a wrong
answer makes the run fail (exit 1).

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
untraced and traced passes alternate and the last line holds the per-layer
metrics (see README.md).  The traced run writes its first traced pass's
spans to bench/out/.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter
from itertools import compress
from operator import ne

from speed import REF_NS, WINDOW, Sampler
from tracer import WRAPPED, Tracer
from workloads import BUILDERS, Input

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

CLOSURE_CAP = 100_000  # the `bicaut aut` default for --cap-closure
ORACLE_MAX_N = 64  # the oracle's default vertex bound
SETUP_REPEATS = 5
# Steps and set-ups are timed in CPU time of this process, less the time
# the speed sampler takes.  On a shared machine the process is descheduled
# for up to ~20 ms at a time, and wall time would charge that to whichever
# step was running (see README.md).  bicaut is single-threaded and starts
# no processes; a run whose code started processes fails, because their
# CPU time would be missed.
SAMPLER = Sampler()
CLOCK = SAMPLER.clock
# CPU time of reaped child processes; a launcher that execs python3 passes
# its own on, so only growth counts.
CHILD_CPU_AT_START = sum(os.times()[2:4])
# Passes that always complete, so that every input has this many samples
# even when the machine is slow; later passes stop at the deadline.
MIN_PASSES = 2


class Modules:
    """The bicaut modules of one fresh import."""

    def __init__(self) -> None:
        for name in WRAPPED:
            setattr(self, name, importlib.import_module("bicaut." + name))


def load_bicaut() -> Modules:
    """Import bicaut from the checkout's src/ afresh, so that module-level
    caches start empty on every set-up."""
    for name in [m for m in sys.modules if m == "bicaut" or m.startswith("bicaut.")]:
        del sys.modules[name]
    importlib.import_module("bicaut")
    return Modules()


def setup(workload: str, seed: int):
    """Imports, input generation and warm-up; returns the modules, the
    inputs and the seconds spent inside bicaut.generate."""
    bc = load_bicaut()
    inputs, gen_s = BUILDERS[workload](bc, random.Random(seed))
    warm = [
        Input("warm.theta", bc.generate.skeleton_core("theta", (1, 2, 2))[0]),
        Input("warm.tree", bc.generate.shape_to_graph(((), ((),), ()))),
        Input("warm.realize", text="wrK4(S2)*S3",
              expect=bc.groups.normalize(bc.groups.parse_expr("wrK4(S2)*S3"))),
    ]
    for inp in warm:
        run_input(bc, inp, [], None)
    return bc, inputs, gen_s


# --- checks -----------------------------------------------------------------


def sparse_is_automorphism(adj: list[list[int]], p) -> bool:
    """oracle.is_automorphism restricted to the moved vertices: p is a
    permutation fixing everything else, and maps each moved vertex's
    neighbourhood onto its image's.  Used above the oracle's size bound,
    where the dense check costs ~9 ms per generator at n = 10^4."""
    n = len(adj)
    if len(p) != n:
        return False
    moved = list(compress(range(n), map(ne, p, range(n))))
    if sorted(p[v] for v in moved) != moved:
        return False
    return all(sorted(p[w] for w in adj[u]) == adj[p[u]] for u in moved)


class Wrong(Exception):
    """A wrong answer: fails the run, is not a failed operation."""


def check(bc, inp: Input, g, r, a, o: int, gens, closed, count) -> None:
    if r is not None and r.expr != inp.expect:
        raise Wrong("realize returned %s" % bc.groups.print_expr(r.expr))
    if inp.expect is not None and a.expr != inp.expect:
        raise Wrong(
            "analyze gave %s, expected %s"
            % (bc.groups.print_expr(a.expr), bc.groups.print_expr(inp.expect))
        )
    if count is not None and count != o:
        raise Wrong("oracle counts %d automorphisms, expression order %d" % (count, o))
    if closed is not None and closed != o:
        raise Wrong("generator closure has %d elements, order %d" % (closed, o))
    if g.n <= ORACLE_MAX_N:
        ok = all(bc.oracle.is_automorphism(g, p) for p in gens)
    else:
        adj = bc.graphs.adjacency(g)
        ok = all(sparse_is_automorphism(adj, p) for p in gens)
    if not ok:
        raise Wrong("an emitted generator is not an automorphism")


# --- one input --------------------------------------------------------------


class Sample:
    """One input's step timings over passes, its size and its error."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {}
        self.n = 0
        self.error: str | None = None
        self.expr = ""

    def add(self, op: str, seconds: float) -> None:
        self.times.setdefault(op, []).append(seconds)

    def mean(self, op: str) -> float:
        """The mean of this input's samples of op.  Every input counts
        once, however many passes reached it before the deadline."""
        ts = self.times.get(op)
        return sum(ts) / len(ts) if ts else 0.0


def run_input(bc, inp: Input, attempted: list, counts: Counter | None) -> Sample:
    """Run one input's pipeline once: realize (expression inputs), the
    expression answer, the aut report and the oracle check (n <= 64).
    A probe stops after the expression answer.  Returns the timings;
    raises Wrong on a wrong answer."""
    groups, bic, oracle = bc.groups, bc.bicyclic, bc.oracle
    s = Sample()
    perf = CLOCK
    op = "realize" if inp.text is not None else "analyze"
    t0 = perf()
    try:
        r = None
        if inp.text is not None:
            attempted.append(op)
            t0 = perf()
            r = bc.realize.realize(groups.parse_expr(inp.text))
            s.add(op, perf() - t0)
            g = r.graph
        else:
            g = inp.graph
        s.n = g.n
        op = "analyze"
        attempted.append(op)
        t0 = perf()
        a = bic.analyze(g)
        o = groups.order(a.expr)
        groups.classify(a.expr)
        s.expr = groups.print_expr(a.expr)
        s.add(op, perf() - t0)
        gens, closed, count = [], None, None
        if not inp.probe:
            op = "aut"
            attempted.append(op)
            t0 = perf()
            gens = bic.emit_generators(g, a)
            if o <= CLOSURE_CAP:
                try:
                    closed = len(oracle.close_generators(g.n, gens, o))
                except ValueError:
                    closed = o + 1  # the closure outgrew the claimed order
            s.add(op, perf() - t0)
        if g.n <= ORACLE_MAX_N:
            op = "verify"
            attempted.append(op)
            t0 = perf()
            count = oracle.automorphism_count(g)
            s.add(op, perf() - t0)
    except Exception as exc:  # a crash is a failed operation, not an answer
        s.add(op, perf() - t0)
        kind = type(exc)
        s.error = kind.__qualname__ if kind.__module__ == "builtins" else (
            "%s.%s" % (kind.__module__, kind.__qualname__))
        return s
    check(bc, inp, g, r, a, o, gens, closed, count)
    if counts is not None:
        _count(counts, r, a, s.expr, gens, closed)
    return s


def _count(counts: Counter, r, a, expr: str, gens, closed) -> None:
    if r is not None:
        counts["realize.vertices_built"] += r.graph.n
    if a.dec is not None:
        counts["trees.code_bytes"] += sum(len(s.code) for s in a.dec.slots.values())
        counts["bicyclic.q"] += len(a.symmetries)
    if a.family == "bicyclic":
        counts["bicyclic.case." + a.case] += 1
    if "semi(" in expr:
        counts["bicyclic.semi_fallback"] += 1
    counts["bicyclic.generators"] += len(gens)
    counts["bicyclic.generator_entries"] += sum(len(p) for p in gens)
    if closed is not None:
        counts["oracle.closure_elements"] += closed


# --- passes -----------------------------------------------------------------


class Run:
    def __init__(self, bc, inputs: list[Input], scaled: bool) -> None:
        """With `scaled`, step times are scaled to the reference speed by
        the running SAMPLER; without, they are raw CPU time."""
        self.bc = bc
        self.scaled = scaled
        self.factors: list[float] = []
        self.inputs = [i for i in inputs if not i.probe]
        self.probes = [i for i in inputs if i.probe]
        self.samples = [Sample() for _ in self.inputs]
        self.attempted: list[str] = []
        self.failed: list[str] = []
        self.passes = 0

    def one_pass(self, deadline: float | None, tracer=None, counts=None) -> float:
        """Run the inputs once, stopping at the deadline if given; returns
        the summed operation time of the pass.  The inputs are scaled in
        windows that close once WINDOW speed samples were taken in them,
        so that each step is scaled by the speed of the stretch it ran in."""
        total = 0.0
        window: list[tuple[int, Sample]] = []
        mark = SAMPLER.mark()
        for idx, inp in enumerate(self.inputs):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.input_id = idx
            s = run_input(self.bc, inp, self.attempted, counts)
            window.append((idx, s))
            if s.error:
                self.failed.append(inp.name)
            if SAMPLER.mark() - mark >= WINDOW:
                total += self._merge(window, mark)
                window, mark = [], SAMPLER.mark()
        total += self._merge(window, mark)
        self.passes += 1
        return total

    def _merge(self, window: list[tuple[int, Sample]], mark: int) -> float:
        """Add the window's step times to the inputs' samples, scaled by
        the speed samples taken since `mark`; returns their scaled sum."""
        if not window:
            return 0.0
        factor = SAMPLER.factor(mark) if self.scaled else 1.0
        self.factors.append(factor)
        total = 0.0
        for idx, s in window:
            acc = self.samples[idx]
            acc.n = s.n
            acc.error = acc.error or s.error
            for op, ts in s.times.items():
                acc.times.setdefault(op, []).extend(t * factor for t in ts)
                total += sum(ts) * factor
        return total

    def measure(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        for _ in range(MIN_PASSES):
            self.one_pass(None)
        while time.perf_counter() < deadline:
            self.one_pass(deadline)

    def run_probes(self) -> list[tuple[Input, Sample]]:
        """Run each probe's expression answer once.  The aut report is left
        out while generators are dense tuples: once the star stops
        crashing, its 69 999 generators of 70 001 entries would need
        ~39 GB."""
        return [(p, run_input(self.bc, p, [], None)) for p in self.probes]

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        ok = [s for s in self.samples if not s.error]
        small = [s for s in ok if s.n <= ORACLE_MAX_N]
        # Latencies describe the graph inputs: the 90 larger realized graphs
        # would otherwise make up the tail, so that p99 would depend on
        # which expressions a seed draws.
        lat = [
            s.mean("analyze") * 1000
            for inp, s in zip(self.inputs, self.samples)
            if inp.text is None and "analyze" in s.times
        ]
        verts = sum(s.n for s in ok)
        t_an = sum(s.mean("analyze") for s in self.samples)
        t_aut = t_an + sum(s.mean("aut") for s in self.samples)
        t_all = t_aut + sum(s.mean("verify") + s.mean("realize") for s in self.samples)
        q = statistics.quantiles(lat, n=100, method="inclusive") if len(lat) > 1 else lat * 99
        out = {
            "analyze_vertices_per_s": (verts / t_an, "vertices/s"),
            "analyze_p50_ms": (statistics.median(lat), "ms"),
            "analyze_p99_ms": (q[98], "ms"),
            "aut_vertices_per_s": (verts / t_aut, "vertices/s"),
            "pipeline_vertices_per_s": (verts / t_all, "vertices/s"),
        }
        t_ver = sum(s.mean("analyze") + s.mean("verify") for s in small)
        if t_ver:
            out["verify_vertices_per_s"] = (sum(s.n for s in small) / t_ver, "vertices/s")
        t_real = sum(s.mean("realize") for s in self.samples)
        if t_real:
            n_real = sum(1 for s in ok if "realize" in s.times)
            out["realize_exprs_per_s"] = (n_real / t_real, "expressions/s")
        return out


# --- reporting --------------------------------------------------------------


def _rows(run: Run, probes) -> None:
    """One row per input for `large`, and one per probe: time per operation
    and the exception type, so that a fix shows up as a changed row."""
    if len(run.inputs) <= 10:
        print("%-18s %7s %7s %11s %11s  %s" % ("input", "n", "samples", "analyze_ms", "aut_ms", "result"))
        for inp, s in zip(run.inputs, run.samples):
            print(
                "%-18s %7d %7d %11.1f %11.1f  %s"
                % (inp.name, s.n, len(s.times.get("analyze", ())), s.mean("analyze") * 1e3,
                   s.mean("aut") * 1e3, s.error or "ok")
            )
    for inp, s in probes:
        print(
            "%-18s %7d %7d %11.1f %11s  %s (probe)"
            % (inp.name, inp.n, 1, s.mean("analyze") * 1e3, "-", s.error or "ok")
        )


def report(run: Run, probes, metrics: dict, section: str) -> None:
    """Print the rows and every metric, then the JSON result line with the
    metrics BENCHMARK.json lists under `section`."""
    if sum(os.times()[2:4]) > CHILD_CPU_AT_START:
        sys.exit("bench: the timed code started processes; their CPU time is not measured")
    _rows(run, probes)
    for name, (value, unit) in metrics.items():
        print("%-44s %14.6g %s" % (name, value, unit))
    result = {
        "correct": True,
        "attempted": len(run.attempted),
        "failed": len(run.failed),
        "metrics": _select(metrics, section),
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bicaut", "__init__.py")):
        print("bench: no bicaut sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        if args.trace:
            return traced_main(args)
        return plain_main(args)
    except Wrong as exc:
        print("WRONG ANSWER: %s" % exc, file=sys.stderr)
        return 1


def plain_main(args) -> int:
    setups = []
    SAMPLER.start()
    try:
        for _ in range(SETUP_REPEATS):
            mark = SAMPLER.mark()
            t0 = CLOCK()
            bc, inputs, gen_s = setup(args.workload, args.seed)
            setups.append((CLOCK() - t0) * SAMPLER.factor(mark))
        run = Run(bc, inputs, scaled=True)
        run.measure(args.seconds)
    finally:
        SAMPLER.stop()
    metrics = run.end_to_end()
    # read before the probes, which are not part of the measured workload
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["setup_s"] = (statistics.median(setups), "s")
    probes = run.run_probes()
    ops = Counter(run.attempted)
    print("workload=%s seed=%d inputs=%d passes=%d ops=%s generate_s=%.4f"
          % (args.workload, args.seed, len(run.inputs), run.passes,
             ",".join("%s:%d" % kv for kv in sorted(ops.items())), gen_s))
    print("speed samples=%d mean=%.1f us, window factors %.3f to %.3f (reference %.1f us)"
          % (len(SAMPLER.samples), statistics.fmean(SAMPLER.samples) / 1e3, min(run.factors),
             max(run.factors), REF_NS / 1e3))
    print("set-ups %s s" % " ".join("%.4f" % t for t in setups))
    print("analyze latency samples=%d" % sum(
        1 for inp, s in zip(run.inputs, run.samples) if inp.text is None and "analyze" in s.times))
    print("error_frac=%.6f (%d failed / %d attempted; probes excluded)"
          % (len(run.failed) / max(1, len(run.attempted)), len(run.failed), len(run.attempted)))
    report(run, probes, metrics, "end_to_end")
    return 0


def traced_main(args) -> int:
    bc, inputs, gen_s = setup(args.workload, args.seed)
    run = Run(bc, inputs, scaled=False)
    tracer = Tracer(bc)
    counts: Counter = Counter()
    untraced, traced, self_s = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        untraced.append(run.one_pass(None))
        if traced and time.perf_counter() >= deadline:
            break
        tracer.reset()
        tracer.spans = [] if not traced else None
        tracer.install()
        try:
            traced.append(run.one_pass(None, tracer, counts if len(traced) == 0 else None))
        finally:
            tracer.uninstall()
        if len(traced) == 1:
            first_calls = list(tracer.calls)
            candidates = tracer.candidates
            out = os.path.join(BENCH_DIR, "out", "spans-%s-seed%d.csv.gz" % (args.workload, args.seed))
            nspans = tracer.write_spans(out, [i.name for i in run.inputs])
            tracer.spans = None
        self_s.append([ns / 1e9 for ns in tracer.self_ns])
        if time.perf_counter() >= deadline:
            break
    probes = run.run_probes()
    metrics: dict[str, tuple[float, str]] = {}
    for i, name in enumerate(tracer.names):
        metrics[name + ".calls"] = (first_calls[i], "count")
        metrics[name + ".self_s"] = (statistics.median(p[i] for p in self_s), "s")
    metrics["bicyclic.candidates"] = (candidates, "count")
    metrics["bicyclic.q_kept_frac"] = (counts["bicyclic.q"] / candidates if candidates else 0.0, "frac")
    metrics["trees.code_bytes"] = (counts["trees.code_bytes"], "bytes")
    for key in ("bicyclic.generators", "bicyclic.generator_entries", "bicyclic.semi_fallback",
                "oracle.closure_elements", "realize.vertices_built"):
        metrics[key] = (counts[key], "count")
    for label in bc.generate.CASE_LABELS:
        metrics["bicyclic.case." + label] = (counts["bicyclic.case." + label], "count")
    metrics["generate.inputs_s"] = (gen_s, "s")
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1, "frac")
    metrics["probe.failures"] = (sum(1 for _, s in probes if s.error), "count")
    print("workload=%s seed=%d traced_passes=%d untraced_passes=%d spans=%d -> %s"
          % (args.workload, args.seed, len(traced), len(untraced), nspans, os.path.relpath(out, ROOT)))
    report(run, probes, metrics, "per_layer")
    return 0


def _select(metrics: dict, section: str) -> dict:
    """The metrics BENCHMARK.json lists under `section`, by name and unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)[section]
    out = {}
    for m in spec:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise ValueError("metric %s measured in %s, declared in %s" % (m["name"], unit, m["unit"]))
        out[m["name"]] = {"value": value, "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(main())
