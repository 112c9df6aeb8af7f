"""Statistics and size counts the benchmark reports.

Sizes are counted from the package's text formats with the benchmark's own
code, so the counts do not change when the package changes its internal
representations.
"""

from __future__ import annotations

import math
import re
import statistics


def tail(values):
    """(value, percentile): the highest nearest-rank percentile that has at
    least ten samples beyond it.  Failures enter as +inf."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return ordered[n - 11], 100.0 * (n - 10) / n


def slope(points) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def model_text_size(text: str):
    """(states, transitions) of a model file."""
    states = transitions = 0
    section = None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line in ("states:", "edges:", "labels:", "start:"):
            section = line
        elif line and section == "states:":
            states += 1
        elif line and section == "edges:":
            transitions += 1
    return states, transitions


_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([!&|^()\[\]]))")
_PREFIX = {"!", "EX", "AX", "EF", "AG", "EG", "AF"}
_INFIX = {"^": 1, "|": 2, "&": 3}


def formula_size(text: str):
    """(tree nodes, DAG nodes) of formula text.  An iterative
    operator-precedence parse that hash-conses each node as it is built,
    so any nesting depth is fine and the work is linear in the text."""
    table = {}
    tree = []
    vals = []
    ops = []

    def node(key, children=()):
        ident = table.setdefault(key, len(table))
        if ident == len(tree):
            tree.append(1 + sum(tree[c] for c in children))
        vals.append(ident)

    def reduce_top():
        kind, op = ops.pop()
        if kind == "prefix":
            sub = vals.pop()
            node((op, sub), (sub,))
        else:
            right, left = vals.pop(), vals.pop()
            node((op, left, right), (left, right))

    def reduce_while(stronger_than):
        while ops and ops[-1][0] in ("prefix", "infix") and _prec(ops[-1]) >= stronger_than:
            reduce_top()

    pos = 0
    tokens = []
    while pos < len(text) and text[pos:].strip():
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"unexpected formula text at offset {pos}")
        tokens.append(match.group(1) or match.group(2))
        pos = match.end()
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in _PREFIX:
            ops.append(("prefix", tok))
        elif tok in ("E", "A") and i + 1 < len(tokens) and tokens[i + 1] == "[":
            ops.append(("bracket", tok))
            i += 1
        elif tok in ("U", "R"):
            reduce_while(0)
            _, quant = ops.pop()
            ops.append(("bracket2", quant + tok))
        elif tok == "]":
            reduce_while(0)
            _, op = ops.pop()
            ops.append(("infix", op))
            reduce_top()
        elif tok == "(":
            ops.append(("paren", tok))
        elif tok == ")":
            reduce_while(0)
            ops.pop()
        elif tok in _INFIX:
            reduce_while(_INFIX[tok])
            ops.append(("infix", tok))
        else:
            node(("true",) if tok == "true" else ("ap", tok))
        i += 1
    reduce_while(0)
    if len(vals) != 1 or ops:
        raise ValueError("unbalanced formula text")
    return tree[vals[0]], len(table)


def _prec(op) -> int:
    kind, name = op
    return 4 if kind == "prefix" else _INFIX.get(name, 0)
