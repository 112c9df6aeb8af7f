import random

import pytest

from ctlfrag.fastcheck import route
from ctlfrag.harness import random_formula, random_model, stable_seed
from ctlfrag.kripke import KripkeModel
from ctlfrag.semantics import check, sat_set
from ctlfrag.syntax import Atom, Binary, Not, Top, Unary, Xor, parse_formula

from oracles import lasso_check


@pytest.fixture
def loop_p():
    return KripkeModel(["w"], [("w", "w")], {"w": {"p"}})


def test_constant_path_satisfies_eg(loop_p):
    assert check(loop_p, "w", parse_formula("EG p"))


def test_until_with_unreachable_goal_fails(loop_p):
    assert not check(loop_p, "w", parse_formula("E[p U q]"))


def test_top_and_negation_sat_sets(loop_p):
    assert sat_set(loop_p, Top()) == frozenset({"w"})
    assert sat_set(loop_p, Not(Atom("p"))) == frozenset()


def test_unknown_atom_holds_nowhere(loop_p):
    assert sat_set(loop_p, Atom("ghost")) == frozenset()


def test_ef_equals_backward_reachability():
    rng = random.Random(3)
    for _ in range(40):
        model = random_model(rng, rng.randint(2, 7))
        goal = model.states_with("p")
        # independent reverse BFS
        seen = set(goal)
        frontier = list(goal)
        while frontier:
            w = frontier.pop()
            for v in model.predecessors[w]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        assert sat_set(model, parse_formula("EF p")) == frozenset(seen)


def test_agreement_with_lasso_oracle():
    rng = random.Random(11)
    for _ in range(60):
        model = random_model(rng, rng.randint(2, 5), max_out=2)
        phi = random_formula(rng, rng.randint(1, 3))
        expected = {w: lasso_check(model, w, phi) for w in model.states}
        got = sat_set(model, phi)
        assert {w for w, v in expected.items() if v} == set(got), str(phi)


def _with_dead_ends(rng, n_states):
    """A random model in which about a third of the states have no successor."""
    model = random_model(rng, n_states)
    dead = {w for w in model.states if rng.random() < 0.35}
    edges = [(u, v) for (u, v) in model.edges if u not in dead]
    return KripkeModel(model.states, edges, model.labels), dead


def _iterate(step, start, states, increasing):
    """Kleene iteration of `step` from `start`; checks monotonicity and the
    |W|-round bound, returns the fixpoint."""
    z = start
    rounds = 0
    while True:
        nxt = step(z)
        assert z <= nxt if increasing else nxt <= z
        if nxt == z:
            return z
        z = nxt
        rounds += 1
        assert rounds <= len(states)


_ENGINE_FRAGMENTS = [(("ER",), ()), (("EG",), ("&",)), (("EG",), ("|",)), (("EG",), ("!",)),
                     (("EF",), ("|",)), (("EF",), ("!",)), (("EF",), ("&",))]


def test_fixpoints_converge_within_state_count_rounds():
    rng = random.Random(5)
    for _ in range(60):
        model, dead = _with_dead_ends(rng, rng.randint(2, 8))
        states = model.states

        def pre(z):
            return frozenset(w for w in states if model.successors[w] & z)

        p, q = model.states_with("p"), model.states_with("q")
        sat = {text: sat_set(model, parse_formula(text))
               for text in ("EX p", "EF q", "E[p U q]", "EG p", "E[q R p]")}
        assert sat["EX p"] == pre(p)
        assert sat["EF q"] == _iterate(lambda z: q | pre(z), q, states, True)
        assert sat["E[p U q]"] == _iterate(lambda z: q | (p & pre(z)), q, states, True)
        assert sat["EG p"] == _iterate(lambda z: p & pre(z), p, states, False)
        assert sat["E[q R p]"] == _iterate(lambda z: p & (q | pre(z)), p, states, False)
        # the dead-end contract stated in the semantics docstring
        for w in dead:
            assert w not in sat["EX p"] and w not in sat["EG p"]
            assert (w in sat["EF q"]) == (w in q)
            assert (w in sat["E[q R p]"]) == (w in p and w in q)
        # the fragment engines keep that contract
        for temporal, boolean in _ENGINE_FRAGMENTS:
            phi = random_formula(rng, rng.randint(1, 4), temporal=temporal, boolean=boolean)
            for state in states:
                assert route(model, state, phi)[0] == check(model, state, phi), (str(phi), state)


@pytest.mark.parametrize(
    "universal,existential",
    [
        ("AG p", "!EF !p"),
        ("AF p", "!EG !p"),
        ("AX p", "!EX !p"),
        ("A[p R q]", "!E[!p U !q]"),
        ("A[p U q]", "!E[!p R !q]"),
    ],
)
def test_dualities_as_sat_set_identities(universal, existential):
    rng = random.Random(stable_seed(universal))
    for _ in range(30):
        model = random_model(rng, rng.randint(2, 7))
        lhs = sat_set(model, parse_formula(universal))
        rhs = sat_set(model, parse_formula(existential))
        assert lhs == rhs


def test_eg_is_release_with_false_trigger():
    # EG f behaves as (never-true) R f; q ^ q encodes the false trigger
    rng = random.Random(21)
    false_trigger = Xor(Atom("q"), Atom("q"))
    for _ in range(30):
        model = random_model(rng, rng.randint(2, 7))
        assert sat_set(model, Unary("EG", Atom("p"))) == sat_set(
            model, Binary("ER", false_trigger, Atom("p"))
        )


def test_af_complements_eg_of_negation():
    rng = random.Random(22)
    for _ in range(30):
        model = random_model(rng, rng.randint(2, 7))
        af = sat_set(model, parse_formula("AF p"))
        eg = sat_set(model, parse_formula("EG !p"))
        assert af == model.all_states - eg


def test_dualize_preserves_satisfaction():
    from ctlfrag.syntax import dualize

    rng = random.Random(23)
    for _ in range(60):
        model = random_model(rng, rng.randint(2, 7))
        phi = random_formula(rng, rng.randint(1, 3))
        assert sat_set(model, phi) == sat_set(model, dualize(phi)), str(phi)


def test_check_rejects_unknown_state(loop_p):
    with pytest.raises(KeyError):
        check(loop_p, "ghost", Atom("p"))
