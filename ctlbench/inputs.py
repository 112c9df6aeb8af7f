"""Seeded benchmark inputs, emitted in ctlfrag's three text formats.

Nothing here imports ctlfrag, and nothing reuses its random generators:
the inputs must not shift when the package's own corpus tooling changes.
Each generator takes a `random.Random` built from the run's seed and keeps
the structure that the reference checkers in `reference.py` read.

Formulas are nested tuples: ("ap", name), ("true",), (op, sub) for "!" and
the six unary temporal operators, (op, left, right) for "&", "|", "^" and
"EU", "AU", "ER", "AR".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_INFIX = ("&", "|", "^")
_BRACKETED = {"EU": ("E", "U"), "AU": ("A", "U"), "ER": ("E", "R"), "AR": ("A", "R")}


def ap(name):
    return ("ap", name)


def render(f) -> str:
    """Formula text the package's parser accepts; infix operators are
    always parenthesized."""
    op = f[0]
    if op == "ap":
        return f[1]
    if op == "true":
        return "true"
    if op in _INFIX:
        return f"({render(f[1])} {op} {render(f[2])})"
    if op in _BRACKETED:
        quant, temp = _BRACKETED[op]
        return f"{quant}[{render(f[1])} {temp} {render(f[2])}]"
    if op == "!":
        return "!" + render(f[1])
    return f"{op} {render(f[1])}"


P, Q, R = ap("p"), ap("q"), ap("r")


# ---------------------------------------------------------------------------
# Kripke models

@dataclass
class Model:
    """States 0..n-1 with successor tuples and atom sets; `start` is an index."""

    names: list
    succ: list
    labels: list
    start: int

    @property
    def states(self) -> int:
        return len(self.names)

    @property
    def transitions(self) -> int:
        return sum(map(len, self.succ))

    def text(self) -> str:
        names = self.names
        out = ["states:", *names, "edges:"]
        for u, vs in enumerate(self.succ):
            out.extend(f"{names[u]} -> {names[v]}" for v in vs)
        out.append("labels:")
        out.extend(f"{names[w]} : {' '.join(sorted(atoms))}"
                   for w, atoms in enumerate(self.labels) if atoms)
        out += ["start:", names[self.start]]
        return "\n".join(out) + "\n"


# chain-cli: long-diameter chains and lassos.  Every state has exactly one
# successor, so path quantifiers coincide and each formula below holds at
# c0 exactly when the far end c_{n-1} carries {p, q}; with `far` false the
# far end carries nothing.  p holds on c0..c_{n-2}; r is seeded noise.

CHAIN_LADDER = tuple(round(100 * 20 ** (i / 15)) for i in range(16))  # 100 .. 2000
CHAIN_FORMULAS_PER_RUNG = 4

CHAIN_FORMULAS = (
    ("er", ("ER", Q, P)),
    ("eg-and", ("EG", ("&", P, ("EG", P)))),
    ("eg-or", ("EG", ("|", P, R))),
    ("eg-not", ("!", ("EG", ("!", Q)))),
    ("ef-or", ("EF", ("|", Q, ("EF", Q)))),
    ("ef-not", ("!", ("EF", ("!", P)))),
    ("ef-and", ("EF", ("&", P, Q))),
    ("eu", ("EU", P, Q)),
    ("au", ("AU", P, Q)),
    ("ag-ef", ("AG", ("EF", Q))),
    ("ef-xor", ("EF", ("^", ("^", P, Q), P))),
)


def chain(rng: random.Random, n: int, far: bool, loop_to: int) -> Model:
    """c0 -> c1 -> ... -> c_{n-1} -> c_{loop_to}; a chain when loop_to = n-1."""
    succ = [(i + 1,) for i in range(n - 1)] + [(loop_to,)]
    labels = [frozenset({"p", "r"} if rng.random() < 0.5 else {"p"}) for _ in range(n - 1)]
    labels.append(frozenset({"p", "q"}) if far else frozenset())
    return Model([f"c{i}" for i in range(n)], succ, labels, 0)


def chain_cases(shape: random.Random, rng: random.Random):
    """Per rung a true twin and a false twin, one a chain and one a lasso
    (alternating along the ladder).  The loop target, which sets a query's
    cost, comes from `shape`; the r labels come from `rng`.  Yields (rung
    index, label, model, expected verdict)."""
    for j, n in enumerate(CHAIN_LADDER):
        for far in (True, False):
            loop_to = shape.randrange(n - 1) if far == (j % 2 == 0) else n - 1
            kind = "lasso" if loop_to < n - 1 else "chain"
            yield j, f"{kind}{n}-{'far' if far else 'cut'}", chain(rng, n, far, loop_to), far


def chain_schedule():
    """(rung index, formula index, far) triples: the formulas take turns,
    a few per rung, and each formula alternates between the twin that
    satisfies it and the one that does not."""
    turns = [0] * len(CHAIN_FORMULAS)
    schedule = []
    for j in range(len(CHAIN_LADDER)):
        for i in range(CHAIN_FORMULAS_PER_RUNG):
            k = (j * CHAIN_FORMULAS_PER_RUNG + i) % len(CHAIN_FORMULAS)
            schedule.append((j, k, turns[k] % 2 == 0))
            turns[k] += 1
    return schedule


# sparse-batch: random models with out-degree 1-3 and atoms p/q/r, so the
# diameter is about log n and fixpoints converge in a few sweeps.  Every
# formula runs on the smaller models; the largest, which sets the set-up
# time and the peak memory, gets one formula: a routed forward search that
# the generic checker answers by backward sweeps.

SPARSE_SIZES = (10_000, 15_000, 20_000, 100_000)
SPARSE_ON_LARGEST = ("ef-or",)

SPARSE_FORMULAS = (
    ("er", ("ER", Q, P)),
    ("eg-and", ("EG", ("&", P, ("EG", Q)))),
    ("eg-or", ("EG", ("|", P, Q))),
    ("eg-not", ("!", ("EG", ("!", R)))),
    ("ef-or", ("EF", ("|", Q, R))),
    ("ef-not", ("EF", ("!", ("EF", ("!", P))))),
    ("ef-and", ("EF", ("&", ("&", P, Q), R))),
    ("ef-xor", ("EF", ("^", P, ("^", Q, R)))),
    ("au-eg", ("|", ("AU", P, Q), ("EG", ("&", P, ("EX", R))))),
    ("eu-and", ("EU", P, ("&", Q, R))),
    ("ag-ef", ("AG", ("EF", ("&", Q, R)))),
    ("ar-ax", ("AR", R, ("|", P, ("AX", Q)))),
)


def sparse(shape: random.Random, pick: random.Random, n: int) -> Model:
    """Edges and labels come from `shape`, the start state from `pick`.  The
    start state carries exactly p, so that no engine can settle a query on
    the start state's labels alone."""
    succ = [tuple(shape.sample(range(n), shape.randint(1, min(3, n)))) for _ in range(n)]
    labels = [frozenset(a for a in "pqr" if shape.random() < 0.5) for _ in range(n)]
    start = pick.randrange(n)
    labels[start] = frozenset("p")
    return Model([f"w{i}" for i in range(n)], succ, labels, start)


# ---------------------------------------------------------------------------
# alternating slice graphs and digraphs, for reduction-gen

@dataclass
class SliceGraph:
    """Layered and/or DAG: even slices existential, odd slices universal."""

    slices: list
    succ: dict
    start: str
    targets: frozenset

    @property
    def nodes(self) -> int:
        return sum(map(len, self.slices))

    def text(self, order: random.Random | None = None) -> str:
        """With `order`, nodes within a slice and the edge lines come in a
        shuffled order; the graph is the same."""
        slices = [list(sl) for sl in self.slices]
        edges = [f"{u} -> {v}" for sl in slices for u in sl for v in self.succ.get(u, ())]
        if order:
            for sl in slices:
                order.shuffle(sl)
            order.shuffle(edges)
        out = [f"slice {i}: {' '.join(sl)}" for i, sl in enumerate(slices)]
        out += ["edges:", *edges, f"start: {self.start}"]
        out.append("targets: " + " ".join(v for v in slices[-1] if v in self.targets))
        return "\n".join(out) + "\n"


def slice_graph(rng: random.Random, depth: int, width: int, restricted: bool,
                min_nodes: int = 0) -> SliceGraph:
    """Slices 0..depth of `width` nodes, except that with `restricted` every
    universal node has two private successors, so each existential node
    below slice 0 has one predecessor and the slice is twice as wide.
    `min_nodes` widens slice 0, which is how the log-depth shape (depth <=
    log2 of the node count) is met.  Other nodes get `width` random
    successors."""
    sizes = []
    for i in range(depth + 1):
        if restricted and i > 0 and i % 2 == 0:
            sizes.append(2 * sizes[-1])
        else:
            sizes.append(width)
    sizes[0] += max(0, min_nodes - sum(sizes))
    slices = [[f"v{i}_{k}" for k in range(size)] for i, size in enumerate(sizes)]
    succ = {}
    for i in range(depth):
        src, dst = slices[i], slices[i + 1]
        for k, u in enumerate(src):
            if restricted and i % 2 == 1:
                succ[u] = [dst[2 * k], dst[2 * k + 1]]
            else:
                succ[u] = sorted(rng.sample(dst, min(width, len(dst))))
    targets = frozenset(v for v in slices[-1] if rng.random() < 0.5)
    return SliceGraph(slices, succ, slices[0][0], targets)


@dataclass
class Digraph:
    nodes: list
    succ: dict
    source: str
    target: str

    def text(self, order: random.Random | None = None) -> str:
        """With `order`, node and edge lines come in a shuffled order."""
        nodes = list(self.nodes)
        edges = [f"{u} -> {v}" for u in nodes for v in self.succ[u]]
        if order:
            order.shuffle(nodes)
            order.shuffle(edges)
        out = ["nodes:", *nodes, "edges:", *edges, "s:", self.source, "t:", self.target]
        return "\n".join(out) + "\n"


def digraph(rng: random.Random, n: int) -> Digraph:
    """n >= 3 nodes; each but the last has two random successors, and the
    last is a trap that only loops, so some node never reaches the target."""
    nodes = [f"u{i}" for i in range(n)]
    succ = {u: sorted(rng.sample(nodes[:-1], 2)) for u in nodes[:-1]}
    succ[nodes[-1]] = [nodes[-1]]
    source, target = rng.sample(nodes[:-1], 2)
    return Digraph(nodes, succ, source, target)
