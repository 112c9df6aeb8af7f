"""The three workloads: their queries, the call flow each query makes into
the package, and the reference verdicts.

A query is one (input, formula, mode) triple; the mode is `check` (the
generic checker) or `fastcheck` (the router), and every input runs in both.
Flows call the package only through `tr.call`, so the traced run puts a
span around each call into a layer and the untraced run makes the same
calls bare.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

import inputs
import reference

MODES = ("check", "fastcheck")


class InvalidInput(ValueError):
    """The package rejected a benchmark input as malformed."""


@dataclass
class Query:
    qid: int
    input: str
    family: str
    mode: str
    formula_text: str = ""
    states: int = 0  # model size, where known before the run
    transitions: int = 0

    @property
    def pair(self) -> int:
        """The same input and formula in the other mode."""
        return self.qid ^ 1


@dataclass
class Outcome:
    verdict: bool
    engine: str | None
    phi: object
    model_text: str = ""
    formula_text: str = ""


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _shape(*key) -> random.Random:
    """For graphs that must not depend on the run's seed, so that every run
    does the same amount of work."""
    return random.Random("/".join(map(str, ("shape",) + key)))


def _decide(pkg, tr, mode, model, start, phi, **texts) -> Outcome:
    if mode == "check":
        verdict = tr.call("semantics.check", pkg.semantics.check, model, start, phi)
        return Outcome(verdict, None, phi, **texts)
    verdict, engine = tr.call("fastcheck.route", pkg.fastcheck.route, model, start, phi)
    return Outcome(verdict, engine, phi, **texts)


def _load_valid_model(pkg, tr, text):
    model, start = tr.call("kripke.load_model", pkg.kripke.load_model, text)
    problems = tr.call("kripke.validate", pkg.kripke.validate, model)
    if problems:
        raise InvalidInput("; ".join(problems))
    return model, start


def run_cli(pkg, argv):
    """In-process `ctlfrag ... --json`; returns the decoded output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pkg.cli.main(argv + ["--json"])
    if code not in (0, 1):
        raise InvalidInput(f"ctlfrag {argv[0]} exited with {code}")
    return json.loads(out.getvalue())


class Workload:
    name = ""

    def __init__(self):
        self.queries = []
        self.expected = {}

    def _add(self, input_id, family, formula_text="", model=None, expected=None):
        size = (model.states, model.transitions) if model else (0, 0)
        for mode in MODES:
            if expected is not None:
                self.expected[len(self.queries)] = expected
            self.queries.append(Query(len(self.queries), input_id, family, mode, formula_text, *size))

    def setup(self, pkg, tr):
        """Shared state every query uses; its time counts as set-up."""
        return None

    def write_files(self, work):
        """Files the in-process CLI calls read."""

    def shared_sizes(self) -> list:
        """(states, transitions) of the models loaded during set-up."""
        return []

    def references(self) -> dict:
        """qid -> reference verdict."""
        return self.expected


# ---------------------------------------------------------------------------

class ChainCli(Workload):
    """The `ctlfrag check` / `ctlfrag fastcheck` call shape: each query goes
    model text -> load_model -> validate -> parse_formula -> check or route."""

    name = "chain-cli"

    def __init__(self, seed):
        super().__init__()
        self.texts = {}
        twins = {}
        for rung, label, model, far in inputs.chain_cases(_shape(self.name), _rng(self.name, seed)):
            self.texts[label] = model.text()
            twins[rung, far] = label, model
        for rung, k, far in inputs.chain_schedule():
            label, model = twins[rung, far]
            fname, formula = inputs.CHAIN_FORMULAS[k]
            self._add(label, f"{fname}/{'far' if far else 'cut'}", inputs.render(formula), model,
                      expected=far)

    def flow(self, pkg, tr, q, shared):
        model, start = _load_valid_model(pkg, tr, self.texts[q.input])
        phi = tr.call("syntax.parse_formula", pkg.syntax.parse_formula, q.formula_text)
        return _decide(pkg, tr, q.mode, model, start, phi)

    def write_files(self, work):
        for label, text in self.texts.items():
            (work / f"{label}.txt").write_text(text)

    def cli_probe(self, pkg, tr, q, work):
        argv = [q.mode, "-m", str(work / f"{q.input}.txt"), "-f", q.formula_text]
        return tr.call("cli.main", run_cli, pkg, argv)["verdict"]


# ---------------------------------------------------------------------------

class SparseBatch(Workload):
    """Shared sparse random models, loaded and validated once during set-up;
    each query is parse_formula -> check or route on a loaded model."""

    name = "sparse-batch"

    def __init__(self, seed):
        super().__init__()
        self.seed = seed
        # keep only the text: the generator's own structures must not add to
        # the peak memory measured while the package runs
        self.texts = {}
        for model in self._models():
            key = f"sparse{model.states}"
            self.texts[key] = model.text()
            for fname, formula in inputs.SPARSE_FORMULAS:
                if model.states < max(inputs.SPARSE_SIZES) or fname in inputs.SPARSE_ON_LARGEST:
                    self._add(key, fname, inputs.render(formula), model)

    def _models(self):
        pick = _rng(self.name, self.seed)
        return [inputs.sparse(_shape(self.name, n), pick, n) for n in inputs.SPARSE_SIZES]

    def setup(self, pkg, tr):
        return {key: _load_valid_model(pkg, tr, text) for key, text in self.texts.items()}

    def shared_sizes(self):
        return sorted({(q.states, q.transitions) for q in self.queries})

    def flow(self, pkg, tr, q, shared):
        model, start = shared[q.input]
        phi = tr.call("syntax.parse_formula", pkg.syntax.parse_formula, q.formula_text)
        return _decide(pkg, tr, q.mode, model, start, phi)

    def references(self):
        formulas = dict(inputs.SPARSE_FORMULAS)
        expected = {}
        for model in self._models():
            labeler = reference.Labeler(model)
            for q in self.queries:
                if q.input == f"sparse{model.states}":
                    expected[q.qid] = labeler.holds(formulas[q.family], model.start)
        return expected


# ---------------------------------------------------------------------------

# depth ladders (slice index of the last slice) per construction, and node
# ladders for the two reachability constructions; set by time budget
_DEEP = (4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 160, 200)
REDUCTION_LADDERS = {
    "eu": _DEEP,
    "er-or": _DEEP,
    "er-neg": _DEEP,
    "eg-xor": _DEEP,
    "er-only": (2, 4, 6, 8, 10, 12),
    "ef-xor": (2, 4, 6, 8, 10),
    "gap-eg": (15, 20, 30, 40, 50, 60, 70, 80),
    "gap-ef": (30, 60, 100, 200, 300, 600, 1000, 2000, 3000),
}
_RESTRICTED = ("eu", "er-or", "er-only", "eg-xor")
_LOG_DEPTH = ("er-only", "ef-xor")


class ReductionGen(Workload):
    """The `ctlfrag gen` -> `ctlfrag fastcheck` flow: slice-graph or digraph
    text -> load (+ validate) -> reduce_* -> store_model + str(formula) ->
    load_model + validate + parse_formula -> check or route."""

    name = "reduction-gen"

    def __init__(self, seed):
        super().__init__()
        rng = _rng(self.name, seed)
        self.sources = {}
        self.nodes = {}
        for construction, ladder in REDUCTION_LADDERS.items():
            for rung in ladder:
                label = f"{construction}-{rung}"
                # an instance's cost swings with its targets, so the instances
                # are fixed per rung; the seed orders the input text
                shape = _shape(self.name, construction, rung)
                if construction.startswith("gap-"):
                    d = inputs.digraph(shape, rung)
                    self.sources[label] = (construction, d.text(rng))
                    truth = reference.reachable(d)
                else:
                    log_depth = construction in _LOG_DEPTH
                    g = inputs.slice_graph(shape, rung, 2, construction in _RESTRICTED,
                                           2 ** rung if log_depth else 0)
                    self.sources[label] = (construction, g.text(rng))
                    self.nodes[label] = g.nodes
                    truth = reference.apath(g)
                self._add(label, construction, expected=truth)

    def flow(self, pkg, tr, q, shared):
        construction, text = self.sources[q.input]
        if construction.startswith("gap-"):
            graph = tr.call("reductions.load_digraph", pkg.reductions.load_digraph, text)
        else:
            graph = tr.call("altgraph.load_slice_graph", pkg.altgraph.load_slice_graph, text)
            problems = tr.call("altgraph.validate_slice_graph",
                               pkg.altgraph.validate_slice_graph, graph)
            if problems:
                raise InvalidInput("; ".join(problems))
        build = pkg.reductions.CONSTRUCTIONS[construction]
        out = tr.call(f"reductions.{build.__name__}", build, graph)
        inst = out.instance
        model_text = tr.call("kripke.store_model", pkg.kripke.store_model, inst.model, inst.start)
        formula_text = tr.call("syntax.str", str, inst.formula)
        model, start = _load_valid_model(pkg, tr, model_text)
        phi = tr.call("syntax.parse_formula", pkg.syntax.parse_formula, formula_text)
        return _decide(pkg, tr, q.mode, model, start, phi,
                       model_text=model_text, formula_text=formula_text)

    def write_files(self, work):
        for label, (_, text) in self.sources.items():
            (work / f"{label}.txt").write_text(text)

    def cli_probe(self, pkg, tr, q, work):
        construction, _ = self.sources[q.input]
        out = work / q.input
        tr.call("cli.main", run_cli, pkg, ["gen", "--construction", construction,
                                           "--in", str(work / f"{q.input}.txt"), "--out", str(out)])
        formula = (out / "formula.txt").read_text().strip()
        argv = [q.mode, "-m", str(out / "model.txt"), "-f", formula]
        return tr.call("cli.main", run_cli, pkg, argv)["verdict"]


WORKLOADS = {w.name: w for w in (ChainCli, SparseBatch, ReductionGen)}
