"""ctlfrag benchmark.

    python3 ctlbench/run.py --workload chain-cli --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the run reports the end-to-end metrics, with
`--trace 1` the per-layer metrics.  The last line of standard output is
one JSON object; the lines before it are a readable report.  Every verdict
is checked against a reference verdict computed by the benchmark's own
code, and a wrong verdict makes the run exit with status 1.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import measures
from gauge import NOMINAL_S, at_reference, gauge
from spans import Tracer, Untraced
from workloads import REDUCTION_LADDERS, WORKLOADS, ReductionGen

# String hashing is randomized per process, and the package's set operations
# on state names cost up to twice as much under one hash key as under
# another; every run therefore uses the same key (randomization off).
HASH_SEED = "0"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".ctlbench_out"
WORK = ROOT / ".ctlbench_work"

PACKAGE_MODULES = ("syntax", "kripke", "semantics", "fastcheck", "altgraph",
                   "reductions", "classify", "cli")
ENGINES = ("er", "eg-frag", "ef-frag", "generic")
CLASSES = ("NL", "LOGCFL", "AC1", "P")
CONSTRUCTIONS = tuple(REDUCTION_LADDERS)

END_TO_END = (
    ("setup_s", "s"),
    ("check_ms.p50", "ms"),
    ("check_ms.tail", "ms"),
    ("fastcheck_ms.p50", "ms"),
    ("fastcheck_ms.tail", "ms"),
    ("verdicts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    [("semantics.check_ms", "ms"), ("semantics.ns_per_unit", "ns"), ("semantics.slope", "1"),
     ("fastcheck.engine_for_ms", "ms")]
    + [(f"fastcheck.route_ms.{e}", "ms") for e in ENGINES]
    + [(f"fastcheck.queries.{e}", "count") for e in ENGINES]
    + [(f"fastcheck.slope.{e}", "1") for e in ENGINES]
    + [(f"fastcheck.gain.{e}", "ratio") for e in ENGINES[:-1]]
    + [(f"fastcheck.cell_ms.{c}", "ms") for c in CLASSES]
    + [("kripke.load_ms", "ms"), ("kripke.validate_ms", "ms"), ("kripke.store_ms", "ms"),
       ("kripke.load_states_per_s", "1/s"), ("kripke.states", "count"),
       ("kripke.transitions", "count")]
    + [("syntax.parse_ms", "ms"), ("syntax.print_ms", "ms"), ("syntax.signature_ms", "ms"),
       ("syntax.tree_nodes", "count"), ("syntax.dag_nodes", "count")]
    + [(f"reductions.{kind}.{c}", unit) for kind, unit in
       (("build_ms", "ms"), ("states", "count"), ("tree_nodes", "count"), ("dag_nodes", "count"))
       for c in CONSTRUCTIONS]
    + [("altgraph.load_ms", "ms"), ("altgraph.validate_ms", "ms"), ("altgraph.nodes", "count"),
       ("classify.ms", "ms"), ("cli.main_ms", "ms"), ("cli.self_ms", "ms"),
       ("trace.overhead_ms", "ms")]
)


class Package:
    """The ctlfrag modules, freshly imported from `src/`."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "ctlfrag" or m.startswith("ctlfrag.")]:
            del sys.modules[name]
        root = importlib.import_module("ctlfrag")
        if Path(root.__file__).resolve().parent != SRC / "ctlfrag":
            raise ImportError(f"ctlfrag imported from {root.__file__}, not from {SRC}")
        for name in PACKAGE_MODULES:
            setattr(self, name, importlib.import_module(f"ctlfrag.{name}"))


SETUP_REPEATS = 11  # a fixed count: how many run must not depend on the machine's speed


def set_up(workload, traced: bool):
    """Import the package and build the workload's shared state
    SETUP_REPEATS times; returns the last package, its shared state, the
    set-up times at reference speed and the spans of the last set-up
    (traced runs only)."""
    times = []
    tr = Untraced()
    pkg = shared = None
    for rep in range(SETUP_REPEATS):
        pkg = shared = None
        gc.collect()
        if traced and rep == SETUP_REPEATS - 1:
            tr = Tracer()
        before = gauge()
        start = time.perf_counter()
        pkg = Package()
        shared = workload.setup(pkg, tr)
        took = time.perf_counter() - start
        times.append(at_reference(took, before, gauge()))
    return pkg, shared, times, tr


@dataclass
class Record:
    """One traced execution of a query."""

    qid: int
    engine: str | None
    cell: str
    states: int
    transitions: int
    tree: int
    dag: int
    flow_ns: int
    cli_verdict: bool | None = None


class Runner:
    def __init__(self, workload, pkg, shared):
        self.w = workload
        self.pkg = pkg
        self.shared = shared
        self.failed = {}    # qid -> exception type name
        self.verdicts = {}  # qid -> every verdict returned
        self._sizes = {}    # formula or model text -> measured size

    def _run(self, q, tr):
        try:
            outcome = tr.call("ctlbench.query", self.w.flow, self.pkg, tr, q, self.shared)
        except Exception as exc:  # a raised query is a failed query, by type
            self.failed[q.qid] = type(exc).__name__
            return None
        self.verdicts.setdefault(q.qid, []).append(outcome.verdict)
        return outcome

    def measure(self, seconds):
        """Untraced rounds over the queries until `seconds` of query time
        have passed, stopping mid-round after the first; failed queries are
        not retried.  The machine's speed is gauged right before each
        execution, and each execution's time is taken at reference speed
        from the readings before and after it.  Returns (seconds at
        reference speed of each execution per qid, query-phase wall time
        less the gauge readings, rounds run, gauge readings, peak resident
        memory in MB at the end of the first round)."""
        tr = Untraced()
        runs = []  # (qid, seconds, gauge reading before)
        start = time.perf_counter()
        overhead = 0.0
        rounds = 0.0
        peak_mb = None
        order = list(self.w.queries)
        shuffle = random.Random(self.w.name).shuffle
        while True:
            done = 0
            # a fresh order each round spreads every query's executions over
            # the run, so slow spells of the machine hit all queries alike
            shuffle(order)
            for q in order:
                now = time.perf_counter()
                if rounds and now - start - overhead >= seconds:
                    break
                if q.qid in self.failed:
                    continue
                # each query starts from empty young generations, so where a
                # collection falls depends on the query alone
                gc.collect()
                before = gauge()
                t0 = time.perf_counter()
                overhead += t0 - now
                if self._run(q, tr) is not None:
                    runs.append((q.qid, time.perf_counter() - t0, before))
                done += 1
            rounds += done / len(self.w.queries)
            if peak_mb is None:
                # later rounds repeat the same queries, and how many of them
                # run depends on the machine's speed
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if not done or time.perf_counter() - start - overhead >= seconds:
                break
        wall = time.perf_counter() - start - overhead
        readings = [before for _, _, before in runs] + [gauge()]
        times = {q.qid: [] for q in self.w.queries}
        for (qid, took, before), after in zip(runs, readings[1:]):
            times[qid].append(at_reference(took, before, after))
        return times, wall, rounds, readings, peak_mb

    def untraced_round(self) -> dict:
        """qid -> ns of each query's flow, untraced."""
        tr = Untraced()
        flow_ns = {}
        for q in self.w.queries:
            if q.qid not in self.failed:
                gc.collect()
                t0 = time.perf_counter_ns()
                self._run(q, tr)
                flow_ns[q.qid] = time.perf_counter_ns() - t0
        return flow_ns

    def traced_round(self, work):
        tr = Tracer()
        records = []
        for q in self.w.queries:
            if q.qid in self.failed:
                continue
            tr.query = q.qid
            gc.collect()
            t0 = time.perf_counter_ns()
            outcome = self._run(q, tr)
            flow_ns = time.perf_counter_ns() - t0
            if outcome is None:
                continue
            records.append(self._probe(tr, q, outcome, flow_ns, work))
        return tr, records

    def _probe(self, tr, q, outcome, flow_ns, work) -> Record:
        """Calls made only in traced rounds: classification, routing
        decision, printing and the in-process CLI."""
        pkg = self.pkg
        phi = outcome.phi
        sig = tr.call("syntax.signature", pkg.syntax.signature, phi)
        clone = tr.call("classify.clone_of", pkg.classify.clone_of, sig.boolean_ops)
        cells = [tr.call("classify.operator_cell", pkg.classify.operator_cell, op, clone).cls
                 for op in sorted(sig.temporal_ops)]
        tr.call("fastcheck.engine_for", pkg.fastcheck.engine_for, phi)
        formula_text = outcome.formula_text or tr.call("syntax.str", str, phi)
        cli_verdict = self.w.cli_probe(pkg, tr, q, work) if hasattr(self.w, "cli_probe") else None
        if outcome.model_text:
            states, transitions = self._size(outcome.model_text, measures.model_text_size)
        else:
            states, transitions = q.states, q.transitions
        tree, dag = self._size(formula_text, measures.formula_size)
        return Record(q.qid, outcome.engine, max(cells, key=CLASSES.index),
                      states, transitions, tree, dag, flow_ns, cli_verdict)

    def _size(self, text, count):
        got = self._sizes.get(text)
        if got is None:
            got = self._sizes[text] = count(text)
        return got


# ---------------------------------------------------------------------------
# per-layer metrics of one traced round

def _max_slope(groups) -> float:
    """Largest log-log slope over groups that span at least three sizes."""
    fits = [measures.slope(points) for points in groups.values()
            if len({x for x, _ in points}) >= 3]
    return max(fits)


def layer_metrics(workload, tracer, records, setup_tracer):
    spans = tracer.by_query()
    setup = setup_tracer.by_query().get(None, {}) if isinstance(setup_tracer, Tracer) else {}
    by_qid = {r.qid: r for r in records}
    queries = {q.qid: q for q in workload.queries}

    def ns(r, name):
        return spans[r.qid].get(name, 0)

    def ms(rs, *names):
        return sum(ns(r, n) for r in rs for n in names) / 1e6

    def seen(name):
        return any(name in s for s in spans.values()) or name in setup

    m = {}
    checks = [r for r in records if queries[r.qid].mode == "check"]
    fasts = [r for r in records if queries[r.qid].mode == "fastcheck"]
    size = lambda r: r.states + r.transitions

    m["semantics.check_ms"] = ms(checks, "semantics.check")
    m["semantics.ns_per_unit"] = statistics.median(
        ns(r, "semantics.check") / (r.dag * size(r)) for r in checks)
    groups = {}
    for r in checks:
        groups.setdefault(queries[r.qid].family, []).append((size(r), ns(r, "semantics.check")))
    m["semantics.slope"] = _max_slope(groups)
    m["fastcheck.engine_for_ms"] = ms(records, "fastcheck.engine_for")
    gains = {}
    for engine in ENGINES:
        routed = [r for r in fasts if r.engine == engine]
        m[f"fastcheck.route_ms.{engine}"] = ms(routed, "fastcheck.route")
        m[f"fastcheck.queries.{engine}"] = len(routed)
        groups = {}
        for r in routed:
            groups.setdefault(queries[r.qid].family, []).append((size(r), ns(r, "fastcheck.route")))
        m[f"fastcheck.slope.{engine}"] = _max_slope(groups)
        paired = [(by_qid[queries[r.qid].pair], r) for r in routed if queries[r.qid].pair in by_qid]
        generic = sum(ns(c, "semantics.check") for c, _ in paired)
        fast = sum(ns(f, "fastcheck.route") for _, f in paired)
        gains[engine] = {"queries": len(paired), "generic_ms": generic / 1e6, "routed_ms": fast / 1e6}
        if engine != "generic":
            m[f"fastcheck.gain.{engine}"] = generic / fast
    for cls in CLASSES:
        m[f"fastcheck.cell_ms.{cls}"] = ms([r for r in fasts if r.cell == cls], "fastcheck.route")

    load_ns = sum(ns(r, "kripke.load_model") for r in records) + setup.get("kripke.load_model", 0)
    shared = workload.shared_sizes()
    loaded = [(r.states, r.transitions) for r in records if ns(r, "kripke.load_model")] + shared
    m["kripke.load_ms"] = load_ns / 1e6
    m["kripke.validate_ms"] = (ms(records, "kripke.validate") + setup.get("kripke.validate", 0) / 1e6)
    if seen("kripke.store_model"):
        m["kripke.store_ms"] = ms(records, "kripke.store_model")
    m["kripke.load_states_per_s"] = sum(s for s, _ in loaded) / (load_ns / 1e9)
    m["kripke.states"] = max(s for s, _ in loaded)
    m["kripke.transitions"] = max(t for _, t in loaded)

    m["syntax.parse_ms"] = ms(records, "syntax.parse_formula")
    m["syntax.print_ms"] = ms(records, "syntax.str")
    m["syntax.signature_ms"] = ms(records, "syntax.signature")
    m["syntax.tree_nodes"] = max(r.tree for r in records)
    m["syntax.dag_nodes"] = max(r.dag for r in records)

    def build_ns(r):
        return sum(t for name, t in spans[r.qid].items() if name.startswith("reductions.reduce_"))

    for c in CONSTRUCTIONS:
        built = [r for r in records if queries[r.qid].family == c and build_ns(r)]
        if not built:
            continue
        m[f"reductions.build_ms.{c}"] = sum(map(build_ns, built)) / 1e6
        largest = max(built, key=lambda r: r.states)
        m[f"reductions.states.{c}"] = largest.states
        m[f"reductions.tree_nodes.{c}"] = largest.tree
        m[f"reductions.dag_nodes.{c}"] = largest.dag
    if seen("altgraph.load_slice_graph"):
        m["altgraph.load_ms"] = ms(records, "altgraph.load_slice_graph")
        m["altgraph.validate_ms"] = ms(records, "altgraph.validate_slice_graph")
        m["altgraph.nodes"] = max(workload.nodes.values())
    m["classify.ms"] = ms(records, "syntax.signature", "classify.clone_of", "classify.operator_cell")
    probed = [r for r in records if r.cli_verdict is not None]
    if probed:
        m["cli.main_ms"] = ms(probed, "cli.main")
        m["cli.self_ms"] = ms(probed, "cli.main") - sum(spans[r.qid]["flow.layers"] for r in probed) / 1e6
    detail = {"gains": gains, "self_ms_by_layer": {
        layer: t / 1e6 for layer, t in sorted(tracer.self_ns_by_layer().items())}}
    return m, detail


def _median_metrics(rounds):
    keys = set().union(*(m for m, _ in rounds))
    return {k: statistics.median_low([m[k] for m, _ in rounds if k in m]) for k in keys}


# ---------------------------------------------------------------------------

def check_verdicts(runner, expected, records=()):
    wrong = [qid for qid, vs in runner.verdicts.items() if any(v != expected[qid] for v in vs)]
    wrong += [r.qid for r in records if r.cli_verdict is not None and r.cli_verdict != expected[r.qid]]
    for qid in sorted(set(wrong)):
        q = runner.w.queries[qid]
        print(f"WRONG VERDICT: {q.input} {q.family} {q.mode}: expected {expected[qid]}")
    return not wrong


def end_to_end(args, workload, runner, setup_times):
    times, wall, rounds, readings, peak_mb = runner.measure(args.seconds)
    setup_s = statistics.median(setup_times)
    print(f"setup_s: median of {len(setup_times)} set-ups, {setup_s:.6f} s")
    expected = workload.references()
    correct = check_verdicts(runner, expected)
    # each query's latency is the median of its executions at reference
    # speed, and verdicts_per_s is one pass over the queries at those
    # latencies; the wall-clock rate below moves with the machine's load
    latency = {qid: statistics.median(ts) for qid, ts in times.items() if ts}
    answered = [qid for qid, vs in runner.verdicts.items() if all(v == expected[qid] for v in vs)]
    one_pass = sum(latency[qid] for qid in answered)
    metrics = {"setup_s": setup_s, "verdicts_per_s": len(answered) / one_pass, "peak_rss_mb": peak_mb}
    executions = sum(map(len, times.values()))
    for mode in ("check", "fastcheck"):
        lat = [latency[q.qid] * 1e3 if q.qid not in runner.failed else math.inf
               for q in workload.queries if q.mode == mode]
        metrics[f"{mode}_ms.p50"] = statistics.median(lat)
        metrics[f"{mode}_ms.tail"], pct = measures.tail(lat)
        print(f"{mode}_ms: p50 {metrics[f'{mode}_ms.p50']:.4f} ms, tail p{pct:.1f} "
              f"{metrics[f'{mode}_ms.tail']:.4f} ms, over {len(lat)} queries "
              f"(each the median of its executions at reference speed)")
    print(f"query phase: {wall:.2f} s, {rounds:.2f} rounds over {len(workload.queries)} queries, "
          f"{executions} executions, wall-clock rate {executions / wall:.3f} verdicts/s")
    print(f"gauge: median {statistics.median(readings) * 1e3:.3f} ms, fastest "
          f"{min(readings) * 1e3:.3f} ms over {len(readings)} readings "
          f"(reference speed: {NOMINAL_S * 1e3:.1f} ms)")
    return metrics, correct


def per_layer(args, workload, runner, setup_tracer, work):
    """After a warm-up round, alternate untraced and traced rounds until the
    time is up."""
    untraced, traced = [], []
    start = time.perf_counter()
    runner.untraced_round()  # warm-up; also finds the queries that fail
    while not traced or time.perf_counter() - start < args.seconds:
        untraced.append(runner.untraced_round())
        traced.append(runner.traced_round(work))
    rounds = [layer_metrics(workload, tr, recs, setup_tracer) for tr, recs in traced]
    metrics = _median_metrics(rounds)
    # each query's fastest flow with and without spans, as for the latencies
    fastest_traced = {}
    for _, recs in traced:
        for r in recs:
            fastest_traced[r.qid] = min(r.flow_ns, fastest_traced.get(r.qid, r.flow_ns))
    fastest = {qid: min(u[qid] for u in untraced) for qid in fastest_traced}
    metrics["trace.overhead_ms"] = (sum(fastest_traced.values()) - sum(fastest.values())) / 1e6
    expected = workload.references()
    correct = check_verdicts(runner, expected, [r for _, recs in traced for r in recs])
    missing = [name for name, _ in PER_LAYER if name not in metrics]
    if missing:
        # layers this workload never calls are measured on one traced round
        # of reduction-gen, which calls every layer
        other = ReductionGen(args.seed)
        other.write_files(work)
        other_runner = Runner(other, runner.pkg, None)
        tr, recs = other_runner.traced_round(work)
        correct &= check_verdicts(other_runner, other.references(), recs)
        filled, _ = layer_metrics(other, tr, recs, None)
        metrics.update({name: filled[name] for name in missing})
        print(f"measured on reduction-gen: {', '.join(missing)}")
    tracer, records = traced[-1]
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    tracer.write(OUT / f"{stem}-spans.json")
    detail = rounds[-1][1]
    (OUT / f"{stem}-report.json").write_text(json.dumps(
        {"metrics": metrics, **detail, "scaling": scaling_report(workload, tracer, records)},
        indent=1))
    for layer, t in detail["self_ms_by_layer"].items():
        print(f"self time {layer}: {t:.3f} ms per round")
    for engine, g in detail["gains"].items():
        print(f"gain {engine}: generic {g['generic_ms']:.3f} ms / routed {g['routed_ms']:.3f} ms "
              f"over {g['queries']} query pairs")
    print(f"{len(traced)} traced rounds; spans and scaling report in {OUT}")
    return metrics, correct


def scaling_report(workload, tracer, records):
    """Per-family log-log fits of check and route time against states +
    transitions, and route time grouped by fingerprint class."""
    spans = tracer.by_query()
    queries = {q.qid: q for q in workload.queries}
    fits = {}
    for r in records:
        q = queries[r.qid]
        name = "semantics.check" if q.mode == "check" else "fastcheck.route"
        key = f"{name}/{r.engine}/{q.family}" if r.engine else f"{name}/{q.family}"
        fits.setdefault(key, []).append((r.states + r.transitions, spans[r.qid].get(name, 0)))
    cells = {}
    for r in records:
        if queries[r.qid].mode == "fastcheck":
            c = cells.setdefault(r.cell, {"queries": 0, "route_ms": 0.0})
            c["queries"] += 1
            c["route_ms"] += spans[r.qid].get("fastcheck.route", 0) / 1e6
    return {
        "slopes": {k: measures.slope(p) for k, p in sorted(fits.items())
                   if len({x for x, _ in p}) >= 3},
        "points": {k: sorted(p) for k, p in sorted(fits.items())},
        "cells": cells,
    }


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # replaces this process; no child is started
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ctlfrag" / "__init__.py").is_file():
        print(f"error: no ctlfrag sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload](args.seed)
    pkg, shared, setup_times, setup_tracer = set_up(workload, bool(args.trace))
    # the package and the shared models live for the whole run: leave them
    # out of the collections made between queries
    gc.collect()
    gc.freeze()
    runner = Runner(workload, pkg, shared)
    if args.trace:
        WORK.mkdir(exist_ok=True)
        try:
            workload.write_files(WORK)
            metrics, correct = per_layer(args, workload, runner, setup_tracer, WORK)
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
        units = dict(PER_LAYER)
    else:
        metrics, correct = end_to_end(args, workload, runner, setup_times)
        units = dict(END_TO_END)

    attempted = len(workload.queries)
    failed = len(runner.failed)
    kinds = sorted(set(runner.failed.values()))
    print(f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted} queries raised"
          f"{': ' + ', '.join(kinds) if kinds else ''})")
    for name, unit in units.items():
        print(f"{name}: {metrics[name]} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
