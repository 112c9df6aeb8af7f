import random

import pytest

from ctlfrag import semantics
from ctlfrag.fastcheck import (
    FragmentError,
    atomic_right_form,
    check_eg_frag,
    check_ef_frag,
    check_er,
    reassemble,
    route,
)
from ctlfrag.harness import random_formula, random_model, stable_seed
from ctlfrag.kripke import KripkeModel
from ctlfrag.syntax import Atom, Binary, parse_formula


def er(a, b):
    return Binary("ER", a, b)


def test_atomic_right_form_of_atom():
    assert atomic_right_form(Atom("p")) == (Atom("p"),)


def test_atomic_right_form_worked_example():
    a, b, c, d, e, f = (Atom(x) for x in "abcdef")
    psi = er(er(a, b), er(er(c, d), er(e, f)))
    assert atomic_right_form(psi) == (er(a, b), er(c, d), e, f)


def test_right_form_reassembly_round_trip():
    rng = random.Random(0)
    for _ in range(200):
        phi = random_formula(rng, rng.randint(1, 4), temporal=("ER",), boolean=())
        assert reassemble(atomic_right_form(phi)) == phi


def test_right_form_rejects_other_operators():
    with pytest.raises(FragmentError):
        atomic_right_form(parse_formula("E[p U q]"))
    with pytest.raises(FragmentError):
        atomic_right_form(parse_formula("E[p R q] & r"))


def test_check_er_rejects_start_without_leaf_atom():
    model = KripkeModel(["w"], [("w", "w")], {"w": set()})
    assert check_er(model, "w", er(Atom("a"), Atom("b"))) is False


def test_check_er_single_loop_cases():
    model = KripkeModel(["w"], [("w", "w")], {"w": {"f"}})
    assert check_er(model, "w", Atom("f")) is True
    # the infinite case: f holds along the loop forever
    assert check_er(model, "w", er(Atom("a"), Atom("f"))) is True
    assert check_er(model, "w", er(er(Atom("a"), Atom("b")), Atom("f"))) is True


def _long_chain(n, end_labels):
    """w0 -> ... -> w(n-1) -> w(n-1), p on all but the last state."""
    states = [f"w{i}" for i in range(n)]
    edges = list(zip(states, states[1:])) + [(states[-1], states[-1])]
    labels = {w: {"p"} for w in states[:-1]}
    labels[states[-1]] = set(end_labels)
    return KripkeModel(states, edges, labels)


@pytest.mark.parametrize("boolean", [(), ("&",), ("|",), ("!",)])
def test_eg_engine_agrees_with_semantics(boolean):
    rng = random.Random(stable_seed("eg", *boolean))
    cases = []
    for _ in range(150):
        model = random_model(rng, rng.randint(2, 8))
        phi = random_formula(rng, rng.randint(1, 4), temporal=("EG",), boolean=boolean)
        cases.append((model, rng.choice(model.states), phi))
    if boolean == ("|",):
        # nested EG forms on a long chain: each form's region once per query
        phi = parse_formula("EG (p | EG q)")
        for end in ({"q"}, set()):
            model = _long_chain(5000, end)
            cases += [(model, w, phi) for w in ("w0", "w2500", "w4999")]
    for model, state, phi in cases:
        assert check_eg_frag(model, state, phi) == semantics.check(model, state, phi), str(phi)


@pytest.mark.parametrize("boolean", [(), ("|",), ("!",), ("&",)])
def test_ef_engine_agrees_with_semantics(boolean):
    rng = random.Random(stable_seed("ef", *boolean))
    for _ in range(150):
        model = random_model(rng, rng.randint(2, 8))
        phi = random_formula(rng, rng.randint(1, 4), temporal=("EF",), boolean=boolean)
        state = rng.choice(model.states)
        assert check_ef_frag(model, state, phi) == semantics.check(model, state, phi), str(phi)


def test_er_engine_agrees_with_semantics():
    rng = random.Random(2)
    for _ in range(300):
        model = random_model(rng, rng.randint(2, 8))
        phi = random_formula(rng, rng.randint(1, 4), temporal=("ER",), boolean=())
        state = rng.choice(model.states)
        assert check_er(model, state, phi) == semantics.check(model, state, phi), str(phi)


@pytest.mark.parametrize(
    "lhs,rhs",
    [
        ("EG EG EG p", "EG p"),
        ("AF AF p", "AF p"),
        ("EF EF p", "EF p"),
        ("EF AG EF AG p", "EF AG p"),
        ("EG AF EG p", "AF EG p"),
    ],
)
def test_prefix_collapse_verdicts(lhs, rhs):
    rng = random.Random(stable_seed(lhs))
    for _ in range(40):
        model = random_model(rng, rng.randint(2, 7))
        for state in model.states:
            left, _ = route(model, state, parse_formula(lhs))
            right, _ = route(model, state, parse_formula(rhs))
            assert left == right


def test_route_engine_names():
    model = KripkeModel(["w"], [("w", "w")], {"w": {"p"}})
    assert route(model, "w", parse_formula("EG p"))[1] == "eg-frag"
    assert route(model, "w", parse_formula("E[p R q]"))[1] == "er"
    assert route(model, "w", parse_formula("EF (p | q)"))[1] == "ef-frag"
    assert route(model, "w", parse_formula("E[p U q] & r"))[1] == "generic"
    assert route(model, "w", parse_formula("E[p R q] & r"))[1] == "generic"
    assert route(model, "w", parse_formula("EG (p ^ q)"))[1] == "generic"
    assert route(model, "w", parse_formula("AG p"))[1] == "generic"


def test_engines_reject_out_of_fragment_input():
    model = KripkeModel(["w"], [("w", "w")], {"w": {"p"}})
    with pytest.raises(FragmentError):
        check_eg_frag(model, "w", parse_formula("EF p"))
    with pytest.raises(FragmentError):
        check_eg_frag(model, "w", parse_formula("EG (p ^ q)"))
    with pytest.raises(FragmentError):
        check_ef_frag(model, "w", parse_formula("EF p ^ q"))
    with pytest.raises(FragmentError):
        check_er(model, "w", parse_formula("E[p U q]"))


def test_normalization_preserves_fragment_membership():
    # engines must never consult operators outside their fragment; the
    # dispatcher reports which engine actually decided
    from ctlfrag.syntax import signature

    rng = random.Random(3)
    for _ in range(100):
        model = random_model(rng, rng.randint(2, 6))
        phi = random_formula(rng, rng.randint(1, 3), temporal=("EG",), boolean=("&",))
        _, engine = route(model, model.states[0], phi)
        assert engine == ("eg-frag" if signature(phi).temporal_ops else "generic")
