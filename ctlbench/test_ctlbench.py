"""The benchmark's reference verdicts and size counts, checked against the
repository's test oracles (`tests/oracles.py`, loaded read-only) on small
inputs from the benchmark's own generators, and BENCHMARK.json checked
against the metrics the run reports."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from ctlfrag.altgraph import load_slice_graph  # noqa: E402
from ctlfrag.kripke import load_model  # noqa: E402
from ctlfrag.reductions import CONSTRUCTIONS  # noqa: E402
from ctlfrag.syntax import parse_formula, subformulas  # noqa: E402

import gauge  # noqa: E402
import inputs  # noqa: E402
import measures  # noqa: E402
import reference  # noqa: E402


def _load_oracles():
    spec = importlib.util.spec_from_file_location("ctlbench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()

_UNARY = ("!", "EX", "AX", "EF", "AG", "EG", "AF")
_BINARY = ("&", "|", "^", "EU", "AU", "ER", "AR")


def random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice((inputs.P, inputs.Q, inputs.R, ("true",)))
    if rng.random() < 0.4:
        return (rng.choice(_UNARY), random_formula(rng, depth - 1))
    return (rng.choice(_BINARY), random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def test_labeler_matches_lasso_enumeration():
    rng = random.Random(7)
    for _ in range(150):
        model = inputs.sparse(rng, rng, rng.randint(1, 5))
        pkg_model, _ = load_model(model.text())
        labeler = reference.Labeler(model)
        for _ in range(3):
            f = random_formula(rng, 3)
            phi = parse_formula(inputs.render(f))
            for w, name in enumerate(model.names):
                assert labeler.holds(f, w) == oracles.lasso_check(pkg_model, name, phi), \
                    f"{inputs.render(f)} at {name} in\n{model.text()}"


@pytest.mark.parametrize("far", [True, False])
def test_chain_answers_match_lasso_enumeration(far):
    rng = random.Random(int(far))
    for n in (2, 3, 5, 8):
        for loop_to in range(n):
            model = inputs.chain(rng, n, far, loop_to)
            pkg_model, start = load_model(model.text())
            for name, f in inputs.CHAIN_FORMULAS:
                phi = parse_formula(inputs.render(f))
                assert oracles.lasso_check(pkg_model, start, phi) == far, (name, n, loop_to)


def test_apath_matches_plain_recursion():
    rng = random.Random(3)
    for _ in range(200):
        restricted = rng.random() < 0.5
        g = inputs.slice_graph(rng, 2 * rng.randint(0, 3), rng.randint(1, 3), restricted)
        assert reference.apath(g) == oracles.apath_recursive(load_slice_graph(g.text(rng)))


def test_reachable_matches_bfs_oracle():
    rng = random.Random(4)
    for _ in range(200):
        d = inputs.digraph(rng, rng.randint(3, 12))
        edges = {(u, v) for u in d.nodes for v in d.succ[u]}
        assert reference.reachable(d) == oracles.bfs_path_exists(d.nodes, edges, d.source, d.target)


def test_formula_size_counts_tree_and_distinct_nodes():
    rng = random.Random(5)
    texts = [inputs.render(random_formula(rng, 5)) for _ in range(100)]
    for depth in (2, 4, 6):
        g = inputs.slice_graph(rng, depth, 2, False, 2 ** depth)
        texts.append(str(CONSTRUCTIONS["ef-xor"](load_slice_graph(g.text())).instance.formula))
    for text in texts:
        nodes = list(subformulas(parse_formula(text)))
        assert measures.formula_size(text) == (len(nodes), len(set(nodes)))


def test_formula_size_takes_any_nesting_depth():
    assert measures.formula_size("!" * 5000 + "EG p") == (5002, 5002)
    assert measures.formula_size("E[" * 3000 + "p" + " U q]" * 3000) == (6001, 3002)


def test_model_text_size():
    model = inputs.sparse(random.Random(6), random.Random(7), 50)
    assert measures.model_text_size(model.text()) == (model.states, model.transitions)


def test_tail_leaves_ten_samples_beyond():
    value, pct = measures.tail(list(range(100)))
    assert (value, pct) == (89, 90.0)
    assert measures.tail([1.0] * 20 + [float("inf")] * 10)[0] == 1.0
    with pytest.raises(ValueError):
        measures.tail(range(10))


def test_at_reference_scales_by_the_gauge_readings():
    nominal = gauge.NOMINAL_S
    assert gauge.at_reference(0.5, nominal, nominal) == pytest.approx(0.5)
    # the machine ran twice as slow: the same work takes half as long at reference speed
    assert gauge.at_reference(0.5, 2 * nominal, 2 * nominal) == pytest.approx(0.25)
    assert gauge.at_reference(0.5, nominal, 3 * nominal) == pytest.approx(0.25)
    assert gauge.gauge() > 0


def test_benchmark_json_lists_what_the_run_reports():
    import json

    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
