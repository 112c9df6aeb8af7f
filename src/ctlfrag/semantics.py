"""The general model checker: bottom-up labeling over the full syntax.

This is the ground-truth oracle every specialized engine and every
reduction is tested against.  Satisfaction sets are computed per
subformula; the temporal cases are specified by the standard fixpoint
characterizations:

    EX f        pre(Sat(f))
    E[g U f]    least Z  = Sat(f) | (Sat(g) & pre(Z))
    EF f        least Z  = Sat(f) | pre(Z)
    EG f        greatest Z = Sat(f) & pre(Z)
    E[g R f]    greatest Z = Sat(f) & (Sat(g) | pre(Z))

They are computed by the labeling algorithm of Clarke, Emerson and Sistla
(TOPLAS 1986) on the model's integer representation, with satisfaction
sets as int bitsets: EX is one walk over the predecessor lists, EU and EF
one backward worklist from Sat(f), EG and ER one successor-count
decrement that drops the states whose successors inside the region have
all been dropped.  Each operator costs O(|W|+|R|), a whole formula
O(|phi|·(|W|+|R|)).  ``ex``, ``eu``, ``ef``, ``er`` and ``eg`` are the
package's one set of fixpoint and reachability primitives; the fragment
engines call them too.

Universal operators are reduced to their negated existential duals.
Unknown atoms hold nowhere.

Models need not be total.  A state without successors (a dead end)
fails EX f, EF f unless f holds there, and EG f; it satisfies
E[g R f] exactly when f and g both hold there, and E[g U f] exactly when
f does.  These are the fixpoint equations read with pre(Z) empty at a
dead end.
"""

from __future__ import annotations

from itertools import compress

from .kripke import KripkeModel
from .syntax import And, Atom, Binary, Formula, Not, Or, Top, Unary, Xor, dual_step


def sat_set(model: KripkeModel, formula: Formula, _memo=None) -> frozenset:
    """The set of states satisfying `formula`."""
    return model.names_of(sat_bits(model, formula, _memo))


def check(model: KripkeModel, state: str, formula: Formula) -> bool:
    """Does `model`, `state` satisfy `formula`?"""
    if state not in model.index:
        raise KeyError(f"unknown state {state!r}")
    return bool(sat_bits(model, formula) >> model.index[state] & 1)


def sat_bits(model: KripkeModel, formula: Formula, memo=None) -> int:
    """The bitset of the states satisfying `formula`; `memo` maps
    subformulas to bitsets and may be shared across calls on one model."""
    memo = {} if memo is None else memo

    def go(f):
        cached = memo.get(f)
        if cached is not None:
            return cached
        result = _compute(model, f, go)
        memo[f] = result
        return result

    return go(formula)


def _compute(model, f, go):
    if isinstance(f, Top):
        return model.full
    if isinstance(f, Atom):
        return model.atom_bits.get(f.name, 0)
    if isinstance(f, Not):
        return model.full ^ go(f.sub)
    if isinstance(f, And):
        return go(f.left) & go(f.right)
    if isinstance(f, Or):
        return go(f.left) | go(f.right)
    if isinstance(f, Xor):
        return go(f.left) ^ go(f.right)
    if isinstance(f, Unary):
        if f.op == "EX":
            return ex(model, go(f.sub))
        if f.op == "EF":
            return ef(model, go(f.sub))
        if f.op == "EG":
            return eg(model, go(f.sub))
        return go(dual_step(f))
    if isinstance(f, Binary):
        if f.op == "EU":
            return eu(model, go(f.left), go(f.right))
        if f.op == "ER":
            return er(model, go(f.left), go(f.right))
        return go(dual_step(f))
    raise TypeError(f"not a formula: {f!r}")


def ex(model: KripkeModel, target: int) -> int:
    """EX: the states with a successor in `target`."""
    pred = model.pred
    out = bytearray(model.n)
    for j in compress(range(model.n), model.marks(target)):
        for i in pred[j]:
            out[i] = 1
    return model.pack(out)


def eu(model: KripkeModel, hold: int, goal: int) -> int:
    """E[hold U goal]: backward worklist from `goal` through `hold`."""
    pred = model.pred
    sat = model.marks(goal)
    open_ = model.marks(hold & ~goal)
    frontier = list(compress(range(model.n), sat))
    for j in frontier:
        for i in pred[j]:
            if open_[i]:
                open_[i] = 0
                sat[i] = 1
                frontier.append(i)
    return model.pack(sat)


def ef(model: KripkeModel, goal: int) -> int:
    """EF: the states that reach `goal` (backward reachability)."""
    return eu(model, model.full, goal)


def er(model: KripkeModel, release: int, keep: int) -> int:
    """E[release R keep]: the states of `keep` on a path that stays in
    `keep` forever or until a state of `keep & release`.  Each state of
    `keep` outside `release` counts its successors in the region; a state
    whose count reaches zero is dropped, decrementing its predecessors."""
    succ, pred = model.succ, model.pred
    live = model.marks(keep)
    anchored = model.marks(keep & release)
    count = [0] * model.n
    dropped = []
    for i in compress(range(model.n), model.marks(keep & ~release)):
        count[i] = c = sum(map(live.__getitem__, succ[i]))
        if not c:
            dropped.append(i)
    for i in dropped:
        live[i] = 0
    for j in dropped:
        for i in pred[j]:
            if live[i] and not anchored[i]:
                count[i] -= 1
                if not count[i]:
                    live[i] = 0
                    dropped.append(i)
    return model.pack(live)


def eg(model: KripkeModel, keep: int) -> int:
    """EG: the states with an infinite path inside `keep`."""
    return er(model, 0, keep)
