"""Kripke models: construction, validation, and the line-oriented file format.

File format::

    # comment
    states:
    s0
    s1
    edges:
    s0 -> s1
    s1 -> s1
    labels:
    s0 : p q
    start:
    s0

The ``labels:`` and ``start:`` sections are optional.  ``store_model``
emits a canonical form (states in model order, edges and atoms sorted)
that round-trips byte-for-byte through ``load_model``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .syntax import Formula

_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGIT = bytes.maketrans(b"\x00\x01", b"01")


class KripkeModel:
    """Finite state set, transition relation, and per-state atom labels.

    The constructor accepts arbitrary tables; ``validate`` reports every
    violation of the model invariants (unique ids, labels only on known
    states, total transition relation).

    The distinct state names are numbered 0..n-1 in first-occurrence order
    (``names``, ``index``).  The checkers work on the integer
    representation: ``succ`` and ``pred`` hold each state's successor and
    predecessor numbers, and a set of states is a Python-int bitset with
    bit i for state i (``atom_bits`` per atom, ``full`` for all states).
    Edges with an unknown end are left out of it.  The input tables
    ``states``, ``edges`` and ``labels`` are kept as given; ``successors``,
    ``predecessors``, ``all_states`` and ``states_with`` are name-keyed
    views, built on first access.
    """

    def __init__(self, states, edges, labels=None):
        self.states = tuple(states)
        self.edges = frozenset((u, v) for (u, v) in edges)
        raw = labels or {}
        self.labels = {w: frozenset(raw.get(w, ())) for w in self.states}
        self._extra_label_states = tuple(w for w in raw if w not in self.labels)
        index = self.index = {}
        for w in self.states:
            index.setdefault(w, len(index))
        self.names = self.states if len(index) == len(self.states) else tuple(index)
        self.n = n = len(self.names)
        self.full = (1 << n) - 1
        succ = self.succ = [[] for _ in range(n)]
        pred = self.pred = [[] for _ in range(n)]
        get = index.get
        for (u, v) in self.edges:
            i, j = get(u), get(v)
            if i is not None and j is not None:
                succ[i].append(j)
                pred[j].append(i)
        atom_marks = {}
        for i, w in enumerate(self.names):
            for atom in self.labels[w]:
                marks = atom_marks.get(atom)
                if marks is None:
                    marks = atom_marks[atom] = bytearray(n)
                marks[i] = 1
        self.atom_bits = {a: self.pack(m) for a, m in atom_marks.items()}

    def marks(self, bits: int) -> bytearray:
        """One byte per state: 1 where `bits` holds the state, else 0."""
        return bytearray(format(bits, "b")[::-1].ljust(self.n, "0"), "ascii").translate(_TO_BIT)

    def pack(self, marks) -> int:
        """The bitset of the states marked 1 (marks are 0 or 1); inverse of ``marks``."""
        return int(b"0" + marks.translate(_TO_DIGIT)[::-1], 2)

    def names_of(self, bits: int) -> frozenset:
        """The names of the states in `bits`."""
        return frozenset(compress(self.names, self.marks(bits)))

    def states_with(self, atom: str) -> frozenset:
        """States labeled with `atom`; unknown atoms hold nowhere."""
        return self.names_of(self.atom_bits.get(atom, 0))

    @cached_property
    def all_states(self) -> frozenset:
        return frozenset(self.names)

    @cached_property
    def successors(self) -> dict:
        return {w: frozenset(self.names[j] for j in s) for w, s in zip(self.names, self.succ)}

    @cached_property
    def predecessors(self) -> dict:
        return {w: frozenset(self.names[i] for i in p) for w, p in zip(self.names, self.pred)}

    def __eq__(self, other):
        return (
            isinstance(other, KripkeModel)
            and self.states == other.states
            and self.edges == other.edges
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.states, self.edges))

    def __repr__(self):
        return f"KripkeModel({len(self.states)} states, {len(self.edges)} edges)"


def validate(model: KripkeModel) -> list:
    """Report every invariant violation; an empty list means the model is valid."""
    problems = []
    seen = set()
    for w in model.states:
        if w in seen:
            problems.append(f"duplicate state id {w!r}")
        seen.add(w)
    for w in model._extra_label_states:
        problems.append(f"label on unknown state {w!r}")
    for (u, v) in sorted(model.edges):
        if u not in model.index:
            problems.append(f"edge from unknown state {u!r}")
        if v not in model.index:
            problems.append(f"edge to unknown state {v!r}")
    for w in model.states:
        if not model.succ[model.index[w]]:
            problems.append(f"state {w!r} has no successor")
    return problems


@dataclass(frozen=True)
class CheckInstance:
    """A model-checking query: does `model`, `start` satisfy `formula`?"""

    model: KripkeModel
    start: str
    formula: Formula

    def __post_init__(self):
        if self.start not in self.model.index:
            raise ValueError(f"start state {self.start!r} is not a model state")


class ModelFormatError(ValueError):
    """Model file malformed; message includes the 1-based line number."""


def load_model(text: str):
    """Parse the model file format; returns (model, start-or-None)."""
    states = []
    known = set()
    edges = []
    labels = {}
    start = None
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in ("states:", "edges:", "labels:", "start:"):
            section = line[:-1]
            continue
        if section == "states":
            if " " in line:
                raise ModelFormatError(f"line {lineno}: one state id per line")
            if line in known:
                raise ModelFormatError(f"line {lineno}: duplicate state {line!r}")
            states.append(line)
            known.add(line)
        elif section == "edges":
            parts = line.split("->")
            if len(parts) != 2:
                raise ModelFormatError(f"line {lineno}: expected 'src -> dst'")
            u, v = parts[0].strip(), parts[1].strip()
            for w in (u, v):
                if w not in known:
                    raise ModelFormatError(f"line {lineno}: undeclared state {w!r}")
            edges.append((u, v))
        elif section == "labels":
            parts = line.split(":", 1)
            if len(parts) != 2:
                raise ModelFormatError(f"line {lineno}: expected 'state : atom ...'")
            w = parts[0].strip()
            if w not in known:
                raise ModelFormatError(f"line {lineno}: undeclared state {w!r}")
            labels.setdefault(w, set()).update(parts[1].split())
        elif section == "start":
            if line not in known:
                raise ModelFormatError(f"line {lineno}: undeclared state {line!r}")
            start = line
        else:
            raise ModelFormatError(f"line {lineno}: content before a section header")
    if not states:
        raise ModelFormatError("line 1: no states declared")
    return KripkeModel(states, edges, labels), start


def store_model(model: KripkeModel, start=None) -> str:
    """Canonical text form of a model (and optional start state)."""
    out = ["states:"]
    out.extend(model.states)
    out.append("edges:")
    key = lambda e: (model.index[e[0]], model.index[e[1]])
    out.extend(f"{u} -> {v}" for (u, v) in sorted(model.edges, key=key))
    labeled = [w for w in model.states if model.labels[w]]
    if labeled:
        out.append("labels:")
        out.extend(f"{w} : " + " ".join(sorted(model.labels[w])) for w in labeled)
    if start is not None:
        out.append("start:")
        out.append(start)
    return "\n".join(out) + "\n"
