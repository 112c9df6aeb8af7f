"""Reference verdicts that owe nothing to the code under test.

None of this imports ctlfrag.  It reads the structures kept by `inputs.py`:

* `Labeler`: a worklist CTL labeler in the style of Clarke, Emerson and
  Sistla (linear per operator): backward search for EU/EF, successor-count
  decrement for EG/ER, universal operators through their textbook duals;
* `apath`: the alternating-path predicate by memoized recursion;
* `reachable`: breadth-first search.

chain-cli needs none of these: its answers follow from how the chains are
built (see `inputs.chain_cases`).
"""

from __future__ import annotations

from collections import deque


class Labeler:
    """Satisfaction sets of a benchmark `Model`, memoized per formula.

    A set is a bytearray with one 0/1 byte per state; Boolean connectives
    go through ints with one base-256 digit per state, so they run at C
    speed."""

    def __init__(self, model):
        n = model.states
        self.n = n
        self.succ = model.succ
        self.pred = [[] for _ in range(n)]
        for u, vs in enumerate(model.succ):
            for v in vs:
                self.pred[v].append(u)
        self.labels = model.labels
        self.ones = int.from_bytes(b"\x01" * n, "little")
        self.memo = {}

    def holds(self, formula, state: int) -> bool:
        return bool(self.sat(formula)[state])

    def sat(self, f) -> bytearray:
        got = self.memo.get(f)
        if got is None:
            got = self.memo[f] = self._compute(f)
        return got

    def _int(self, f) -> int:
        return int.from_bytes(self.sat(f), "little")

    def _set(self, bits: int) -> bytearray:
        return bytearray(bits.to_bytes(self.n, "little"))

    def _compute(self, f) -> bytearray:
        op = f[0]
        if op == "ap":
            return bytearray(f[1] in atoms for atoms in self.labels)
        if op == "true":
            return self._set(self.ones)
        if op == "!":
            return self._set(self._int(f[1]) ^ self.ones)
        if op == "&":
            return self._set(self._int(f[1]) & self._int(f[2]))
        if op == "|":
            return self._set(self._int(f[1]) | self._int(f[2]))
        if op == "^":
            return self._set(self._int(f[1]) ^ self._int(f[2]))
        if op == "EX":
            sub = self.sat(f[1])
            return bytearray(any(sub[v] for v in vs) for vs in self.succ)
        if op == "EF":
            return self._until(self.sat(("true",)), self.sat(f[1]))
        if op == "EU":
            return self._until(self.sat(f[1]), self.sat(f[2]))
        if op == "EG":
            return self._release(bytearray(self.n), self.sat(f[1]))
        if op == "ER":
            return self._release(self.sat(f[1]), self.sat(f[2]))
        dual = {
            "AX": lambda a: ("!", ("EX", ("!", a[0]))),
            "AF": lambda a: ("!", ("EG", ("!", a[0]))),
            "AG": lambda a: ("!", ("EF", ("!", a[0]))),
            "AU": lambda a: ("!", ("ER", ("!", a[0]), ("!", a[1]))),
            "AR": lambda a: ("!", ("EU", ("!", a[0]), ("!", a[1]))),
        }[op]
        return self.sat(dual(f[1:]))

    def _until(self, hold, goal) -> bytearray:
        """Least Z with Z = goal | (hold & EX Z): backward search from goal."""
        z = bytearray(goal)
        work = [w for w in range(self.n) if goal[w]]
        pred = self.pred
        while work:
            for u in pred[work.pop()]:
                if not z[u] and hold[u]:
                    z[u] = 1
                    work.append(u)
        return z

    def _release(self, release, keep) -> bytearray:
        """Greatest Z with Z = keep & (release | EX Z): a state of Z without
        `release` leaves once its count of successors in Z drops to 0."""
        z = bytearray(keep)
        count = [sum(z[v] for v in vs) if z[w] else 0 for w, vs in enumerate(self.succ)]
        work = [w for w in range(self.n) if z[w] and not release[w] and not count[w]]
        pred = self.pred
        while work:
            v = work.pop()
            z[v] = 0
            for u in pred[v]:
                if z[u]:
                    count[u] -= 1
                    if not count[u] and not release[u]:
                        work.append(u)
        return z


def apath(g) -> bool:
    """Alternating accessibility of a benchmark `SliceGraph` from its start:
    a last-slice node is good when it is a target, an existential node when
    some successor is good, a universal node when all successors are."""
    last = len(g.slices) - 1
    slice_of = {v: i for i, sl in enumerate(g.slices) for v in sl}
    memo = {}

    def good(v):
        if v not in memo:
            i = slice_of[v]
            if i == last:
                memo[v] = v in g.targets
            elif i % 2 == 0:
                memo[v] = any(good(w) for w in g.succ[v])
            else:
                memo[v] = all(good(w) for w in g.succ[v])
        return memo[v]

    return good(g.start)


def reachable(d) -> bool:
    """Is the target of a benchmark `Digraph` reachable from its source?"""
    seen = {d.source}
    frontier = deque([d.source])
    while frontier:
        u = frontier.popleft()
        if u == d.target:
            return True
        for v in d.succ[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return False
