"""Finite groups as multiplication tables.

Element 0 is always the identity.  Every table is validated at
construction: Latin square, two-sided identity, and associativity, an
O(n^3) check that takes well under a second at the order cap of 64 that
``group_from_generators`` enforces.
"""

from __future__ import annotations

import json

from .config import DEFAULT_ORDER_CAP
from .errors import OrderCapExceeded


class FiniteGroup:
    __slots__ = ("order", "table", "inverse", "label")

    def __init__(self, table, label: str = "G"):
        table = [list(map(int, row)) for row in table]
        n = len(table)
        self.order = n
        self.table = table
        self.label = label
        self._validate()
        self.inverse = [next(j for j in range(n) if table[i][j] == 0)
                        for i in range(n)]

    def _validate(self):
        n = self.order
        t = self.table
        cells = set(range(n))
        for i in range(n):
            if set(t[i]) != cells or {t[j][i] for j in range(n)} != cells:
                raise ValueError("multiplication table is not a Latin square")
            if t[0][i] != i or t[i][0] != i:
                raise ValueError("element 0 is not a two-sided identity")
        for a in range(n):
            ta = t[a]
            for b in range(n):
                tab = ta[b]
                tb = t[b]
                for c in range(n):
                    if t[tab][c] != ta[tb[c]]:
                        raise ValueError("multiplication is not associative")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a]
                   for a in range(self.order) for b in range(self.order))

    def __repr__(self):
        return f"FiniteGroup({self.label}, order={self.order})"


def _perm_compose(p, q):
    """(p*q)(x) = p(q(x))."""
    return tuple(p[q[x]] for x in range(len(p)))


def group_from_generators(perms, label: str = "G",
                          order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Closure of permutations (one-line image notation) as a FiniteGroup."""
    if not perms:
        raise ValueError("need at least one generator")
    deg = len(perms[0])
    gens = []
    for p in perms:
        p = tuple(int(x) for x in p)
        if len(p) != deg or sorted(p) != list(range(deg)):
            raise ValueError(f"not a permutation of 0..{deg - 1}: {p}")
        gens.append(p)
    ident = tuple(range(deg))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _perm_compose(g, x)
                if y not in seen:
                    if len(seen) >= order_cap:
                        raise OrderCapExceeded(
                            f"closure exceeds order cap {order_cap}")
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    elems = [ident] + sorted(seen - {ident})
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[_perm_compose(a, b)] for b in elems] for a in elems]
    return FiniteGroup(table, label=label)


def int_rows(value) -> bool:
    """Whether a JSON value is a list of lists of integers."""
    return isinstance(value, list) and all(
        isinstance(row, list) and all(isinstance(x, int) for x in row)
        for row in value)


def load_group_json(path) -> FiniteGroup:
    """Group input file: {"name": str, "generators": [[int, ...], ...]}.
    A file that is not JSON, or a field of the wrong shape, raises
    ValueError naming the file (and the field)."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a group file holds a JSON object")
    if not int_rows(data.get("generators")):
        raise ValueError(f'{path}: "generators" must be a list of '
                         "permutations, each a list of integers")
    if not isinstance(data.get("name", ""), str):
        raise ValueError(f'{path}: "name" must be a string')
    return group_from_generators(data["generators"],
                                 label=data.get("name", "G"))


# -- built-in test families -------------------------------------------------

def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, label=f"c{n}")


def klein_four() -> FiniteGroup:
    return group_from_generators([(1, 0, 3, 2), (2, 3, 0, 1)], label="klein4")


def symmetric_3() -> FiniteGroup:
    return group_from_generators([(1, 0, 2), (1, 2, 0)], label="s3")


def quaternion_8() -> FiniteGroup:
    # elements 1, -1, i, -i, j, -j, k, -k as indices 0..7
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    prod = {}
    sign = lambda s, x: x if s > 0 else ("-" + x if not x.startswith("-") else x[1:])
    base = {("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
            ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
            ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
            ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
            ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j"}
    def mul(a, b):
        sa = -1 if a.startswith("-") else 1
        sb = -1 if b.startswith("-") else 1
        ua = a.lstrip("-")
        ub = b.lstrip("-")
        r = base[(ua, ub)]
        s = sa * sb * (-1 if r.startswith("-") else 1)
        return sign(s, r.lstrip("-"))
    idx = {n: i for i, n in enumerate(names)}
    table = [[idx[mul(a, b)] for b in names] for a in names]
    return FiniteGroup(table, label="q8")


BUILTIN_GROUPS = {
    "c2": lambda: cyclic(2),
    "c3": lambda: cyclic(3),
    "c4": lambda: cyclic(4),
    "c6": lambda: cyclic(6),
    "c8": lambda: cyclic(8),
    "klein4": klein_four,
    "s3": symmetric_3,
    "q8": quaternion_8,
}


def builtin_group(name: str) -> FiniteGroup:
    try:
        return BUILTIN_GROUPS[name]()
    except KeyError:
        raise ValueError(f"unknown builtin group {name!r}; "
                         f"choose from {sorted(BUILTIN_GROUPS)}") from None
