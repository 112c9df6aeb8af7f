"""Checks on 10^5-state models whose answers follow from how they are built.

Every operator is linear in the model, so these run in seconds; a checker
that iterates a fixpoint over all states per round would take hours here.
"""

import pytest

from ctlfrag.fastcheck import route
from ctlfrag.kripke import KripkeModel
from ctlfrag.semantics import check
from ctlfrag.syntax import parse_formula

N = 100_000


def _chain():
    """s0 -> ... -> s(N-1) -> s(N-1); p on every state but the last, q
    only on the last."""
    states = [f"s{i}" for i in range(N)]
    edges = list(zip(states, states[1:])) + [(states[-1], states[-1])]
    labels = {w: {"p"} for w in states[:-1]}
    labels[states[-1]] = {"q"}
    return KripkeModel(states, edges, labels)


def _lasso():
    """s0 -> ... -> s(N-1) -> s(N/2); p everywhere, q only on s(N/4), in
    the stem."""
    states = [f"s{i}" for i in range(N)]
    edges = list(zip(states, states[1:])) + [(states[-1], states[N // 2])]
    labels = {w: {"p"} for w in states}
    labels[states[N // 4]] = {"p", "q"}
    return KripkeModel(states, edges, labels)


EXPECTED = {
    # formula: (verdict at s0 on the chain, on the lasso)
    "E[p U q]": (True, True),
    "EG p": (False, True),
    "E[q R p]": (False, True),
    "!EG !q": (True, True),
    "AG EF q": (True, False),
}


@pytest.mark.parametrize("build,column", [(_chain, 0), (_lasso, 1)], ids=["chain", "lasso"])
def test_linear_checks_on_large_models(build, column):
    model = build()
    for text, verdicts in EXPECTED.items():
        phi = parse_formula(text)
        assert check(model, "s0", phi) is verdicts[column], text
        assert route(model, "s0", phi)[0] is verdicts[column], text
