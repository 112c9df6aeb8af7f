"""Fragment-specialized decision procedures.

Each engine realizes the normal form and search that its fragment admits:

* ``check_er``     pure-release formulas via the atomic right form; the
                   nondeterministic length-|W|+1 path is realized as a
                   reachable cycle inside the invariant region.
* ``check_eg_frag``  EG with one of {}, {&}, {|}, {!}: prefix collapse and
                   conjunctive/disjunctive normal forms over EG regions.
* ``check_ef_frag``  EF with one of {}, {|}, {!}: reachability normal
                   forms; EF with {&} has no specialized procedure and is
                   forwarded to the generic checker.
* ``route``        dispatches a formula to the most specialized engine.

Regions are state bitsets, and the EG and EF regions come from the
primitives of :mod:`ctlfrag.semantics`; only the forward searches from
one state (``_reach_within``) are the engines' own.

All engines agree with :mod:`ctlfrag.semantics` on their fragments; the
test suite enforces this on random corpora.
"""

from __future__ import annotations

from . import semantics
from .kripke import KripkeModel
from .syntax import (
    And,
    Atom,
    Binary,
    Formula,
    Not,
    Or,
    Top,
    Unary,
    signature,
)


class FragmentError(ValueError):
    """The formula lies outside the engine's fragment."""


# ---------------------------------------------------------------------------
# shared helpers

def _state(model: KripkeModel, state: str) -> int:
    if state not in model.index:
        raise KeyError(f"unknown state {state!r}")
    return model.index[state]


def _reach_within(model: KripkeModel, start: int, region=None) -> list:
    """States reachable from `start` along paths inside `region` (marks as
    from ``model.marks``; None for all states), including `start` itself;
    empty when `start` is outside the region."""
    unseen = bytearray(b"\x01") * model.n if region is None else bytearray(region)
    if not unseen[start]:
        return []
    unseen[start] = 0
    succ = model.succ
    frontier = [start]
    for w in frontier:
        for v in succ[w]:
            if unseen[v]:
                unseen[v] = 0
                frontier.append(v)
    return frontier


def _leaf_region(model: KripkeModel, leaf: Formula) -> int:
    if isinstance(leaf, Top):
        return model.full
    if isinstance(leaf, Atom):
        return model.atom_bits.get(leaf.name, 0)
    raise FragmentError(f"expected an atomic leaf, found {leaf}")


# ---------------------------------------------------------------------------
# pure ER

def atomic_right_form(phi: Formula) -> tuple:
    """The unique spine decomposition <a_1,...,a_m, b> of a pure-release
    formula, peeling the right argument until it is atomic."""
    sig = signature(phi)
    if sig.temporal_ops - {"ER"} or sig.boolean_ops:
        raise FragmentError(f"not a pure-release formula: {phi}")
    parts = []
    node = phi
    while isinstance(node, Binary):
        parts.append(node.left)
        node = node.right
    parts.append(node)
    return tuple(parts)


def reassemble(form) -> Formula:
    """Right-fold a right form back into a formula."""
    node = form[-1]
    for alpha in reversed(form[:-1]):
        node = Binary("ER", alpha, node)
    return node


def check_er(model: KripkeModel, state: str, phi: Formula) -> bool:
    """Decide a pure-release formula.  With right form <a_1,...,a_m, b>,
    the state satisfies the formula iff b holds along some path that
    either closes a cycle inside the b-region or ends at a state
    satisfying both a_1 and the tail form."""
    top_form = atomic_right_form(phi)
    start = _state(model, state)
    memo = {}
    arf_cache = {}
    leaf_cache = {}

    def arf(f):
        got = arf_cache.get(f)
        if got is None:
            got = arf_cache[f] = atomic_right_form(f)
        return got

    def leaf_marks(leaf):
        # the leaf's region and the part of it with an infinite path inside
        got = leaf_cache.get(leaf)
        if got is None:
            region = _leaf_region(model, leaf)
            got = leaf_cache[leaf] = (model.marks(region), model.marks(semantics.eg(model, region)))
        return got

    def holds(w, form):
        key = (w, form)
        got = memo.get(key)
        if got is not None:
            return got
        memo[key] = result = _decide(w, form)
        return result

    def _decide(w, form):
        region, sustainable = leaf_marks(form[-1])
        if not region[w]:
            return False
        if len(form) == 1:
            return True
        if sustainable[w]:
            return True
        head, tail = form[0], form[1:]
        for x in sorted(_reach_within(model, w, region)):
            if holds(x, arf(head)) and holds(x, tail):
                return True
        return False

    return holds(start, top_form)


# ---------------------------------------------------------------------------
# EG fragments

def _norm_eg_and(phi):
    """(atoms, groups): phi == AND(atoms) & AND(EG AND(group) for groups),
    via EG(a & EG b) == EG(a & b) and EG EG a == EG a."""
    if isinstance(phi, Atom):
        return frozenset({phi.name}), ()
    if isinstance(phi, Top):
        return frozenset(), ()
    if isinstance(phi, And):
        la, lg = _norm_eg_and(phi.left)
        ra, rg = _norm_eg_and(phi.right)
        return la | ra, lg + rg
    if isinstance(phi, Unary) and phi.op == "EG":
        atoms, groups = _norm_eg_and(phi.sub)
        merged = atoms.union(*groups) if groups else atoms
        return frozenset(), (merged,)
    raise FragmentError(f"outside the EG/and fragment: {phi}")


def _region_all(model, atoms) -> int:
    region = model.full
    for a in atoms:
        region &= model.atom_bits.get(a, 0)
    return region


def _eg_and(model, i, phi):
    atoms, groups = _norm_eg_and(phi)
    if not _region_all(model, atoms) >> i & 1:
        return False
    return all(semantics.eg(model, _region_all(model, group)) >> i & 1 for group in groups)


def _norm_eg_or(phi):
    """Recursive form (has_top, atoms, subforms): a disjunction of atoms
    and EG-wrapped forms of the same shape."""
    if isinstance(phi, Atom):
        return (False, frozenset({phi.name}), ())
    if isinstance(phi, Top):
        return (True, frozenset(), ())
    if isinstance(phi, Or):
        lt, la, ls = _norm_eg_or(phi.left)
        rt, ra, rs = _norm_eg_or(phi.right)
        return (lt or rt, la | ra, ls + rs)
    if isinstance(phi, Unary) and phi.op == "EG":
        return (False, frozenset(), (_norm_eg_or(phi.sub),))
    raise FragmentError(f"outside the EG/or fragment: {phi}")


def _region_any(model, has_top, atoms) -> int:
    if has_top:
        return model.full
    region = 0
    for a in atoms:
        region |= model.atom_bits.get(a, 0)
    return region


def _eg_or(model, i, phi):
    # EG(form) is EG over the form's own states: its atoms' states and the
    # states of its nested EG forms, each computed once per distinct form
    eg_of = {}

    def sat(form):
        has_top, atoms, subs = form
        region = _region_any(model, has_top, atoms)
        for sub in subs:
            got = eg_of.get(sub)
            if got is None:
                got = eg_of[sub] = semantics.eg(model, sat(sub))
            region |= got
        return region

    return bool(sat(_norm_eg_or(phi)) >> i & 1)


_EG_NEG_DUAL = {"EG": "AF", "AF": "EG"}


def _canon_eg_neg(phi):
    """Collapse an EG/not formula to (word, atom, positive) with word one of
    (), (EG), (AF), (EG,AF), (AF,EG), using the four prefix equivalences."""
    if isinstance(phi, Atom):
        return (), phi.name, True
    if isinstance(phi, Not):
        word, atom, pos = _canon_eg_neg(phi.sub)
        return tuple(_EG_NEG_DUAL[op] for op in word), atom, not pos
    if isinstance(phi, Unary) and phi.op == "EG":
        word, atom, pos = _canon_eg_neg(phi.sub)
        if word == () or word[0] == "EG":
            new = ("EG",) + word[1:] if word else ("EG",)
        elif word == ("AF",):
            new = ("EG", "AF")
        else:  # ("AF", "EG"): EG AF EG == AF EG
            new = ("AF", "EG")
        return new, atom, pos
    raise FragmentError(f"outside the EG/not fragment: {phi}")


def _eg_neg(model, i, phi):
    word, atom, positive = _canon_eg_neg(phi)
    region = model.atom_bits.get(atom, 0)
    if not positive:
        region ^= model.full
    for op in reversed(word):
        if op == "EG":
            region = semantics.eg(model, region)
        else:  # AF S == complement of EG(complement S)
            region = model.full ^ semantics.eg(model, model.full ^ region)
    return bool(region >> i & 1)


def check_eg_frag(model: KripkeModel, state: str, phi: Formula) -> bool:
    """Decide an EG formula whose Boolean operators lie in one of {}, {&},
    {|} or {!}."""
    sig = signature(phi)
    if sig.temporal_ops - {"EG"}:
        raise FragmentError(f"outside the EG fragments: {phi}")
    i = _state(model, state)
    b = sig.boolean_ops
    if b <= {"&"}:
        return _eg_and(model, i, phi)
    if b <= {"|"}:
        return _eg_or(model, i, phi)
    if b <= {"!"}:
        return _eg_neg(model, i, phi)
    raise FragmentError(f"outside the EG fragments: {phi}")


# ---------------------------------------------------------------------------
# EF fragments

def _norm_ef_or(phi):
    """(has_top, atoms, ef) with ef None or (has_top, atoms): the formula is
    OR(atoms) | EF OR(ef-atoms), via EF(a | EF b) == EF(a | b)."""
    if isinstance(phi, Atom):
        return (False, frozenset({phi.name}), None)
    if isinstance(phi, Top):
        return (True, frozenset(), None)
    if isinstance(phi, Or):
        lt, la, le = _norm_ef_or(phi.left)
        rt, ra, re = _norm_ef_or(phi.right)
        return (lt or rt, la | ra, _merge_ef(le, re))
    if isinstance(phi, Unary) and phi.op == "EF":
        ht, atoms, ef = _norm_ef_or(phi.sub)
        inner = (ht, atoms) if ef is None else (ht or ef[0], atoms | ef[1])
        return (False, frozenset(), inner)
    raise FragmentError(f"outside the EF/or fragment: {phi}")


def _merge_ef(left, right):
    if left is None:
        return right
    if right is None:
        return left
    return (left[0] or right[0], left[1] | right[1])


def _ef_or(model, i, phi):
    has_top, atoms, ef = _norm_ef_or(phi)
    if _region_any(model, has_top, atoms) >> i & 1:
        return True
    if ef is None:
        return False
    goal = model.marks(_region_any(model, ef[0], ef[1]))
    return any(map(goal.__getitem__, _reach_within(model, i)))


def _canon_ef_neg(phi):
    """Collapse an EF/not formula to an alternating EF/AG word of length at
    most three over a literal."""
    if isinstance(phi, Atom):
        return (), phi.name, True
    if isinstance(phi, Not):
        word, atom, pos = _canon_ef_neg(phi.sub)
        dual = {"EF": "AG", "AG": "EF"}
        return tuple(dual[op] for op in word), atom, not pos
    if isinstance(phi, Unary) and phi.op == "EF":
        word, atom, pos = _canon_ef_neg(phi.sub)
        if word and word[0] == "EF":
            new = word
        else:
            new = ("EF",) + word
            if len(new) == 4:  # EF AG EF AG == EF AG
                new = new[:2]
        return new, atom, pos
    raise FragmentError(f"outside the EF/not fragment: {phi}")


def _ef_neg(model, i, phi):
    word, atom, positive = _canon_ef_neg(phi)
    region = model.atom_bits.get(atom, 0)
    if not positive:
        region ^= model.full
    for op in reversed(word):
        if op == "EF":
            region = semantics.ef(model, region)
        else:  # AG S == complement of EF(complement S)
            region = model.full ^ semantics.ef(model, model.full ^ region)
    return bool(region >> i & 1)


def check_ef_frag(model: KripkeModel, state: str, phi: Formula) -> bool:
    """Decide an EF formula whose Boolean operators lie in one of {}, {|},
    {!} or {&}; the {&} case is forwarded to the generic checker."""
    sig = signature(phi)
    if sig.temporal_ops - {"EF"}:
        raise FragmentError(f"outside the EF fragments: {phi}")
    i = _state(model, state)
    b = sig.boolean_ops
    if b <= {"|"}:
        return _ef_or(model, i, phi)
    if b <= {"!"}:
        return _ef_neg(model, i, phi)
    if b <= {"&"}:
        return semantics.check(model, state, phi)
    raise FragmentError(f"outside the EF fragments: {phi}")


# ---------------------------------------------------------------------------
# dispatch

def engine_for(phi: Formula) -> str:
    """Name of the most specialized engine applicable to the formula."""
    sig = signature(phi)
    t, b = sig.temporal_ops, sig.boolean_ops
    if t == {"ER"} and not b:
        return "er"
    if t == {"EG"} and (b <= {"&"} or b <= {"|"} or b <= {"!"}):
        return "eg-frag"
    if t == {"EF"} and (b <= {"|"} or b <= {"!"} or b <= {"&"}):
        return "ef-frag"
    return "generic"


_ENGINES = {
    "er": check_er,
    "eg-frag": check_eg_frag,
    "ef-frag": check_ef_frag,
    "generic": semantics.check,
}


def route(model: KripkeModel, state: str, phi: Formula):
    """Dispatch to the most specialized applicable engine; returns
    (verdict, engine name)."""
    engine = engine_for(phi)
    return _ENGINES[engine](model, state, phi), engine
