"""Reference constructions that only the tests use.

Each one is an independent, slower route to something the package computes
another way: plane tree and Schroeder codes checked and split letter by
letter, the Lagrange series counted off enumerated trees, tree weights read
off parsed codes, and the inverse bijections of ``combinat``.
"""

from __future__ import annotations

from ncgeode.coeffring import EPoly, INT_RING, Ring
from ncgeode.combinat import (_is_tree_code, _root_children, iter_lukasiewicz,
                              nonzero_letters)
from ncgeode.ncsf import NcsfSeries
from ncgeode.schroeder import _arity, right_branch_partition, root_children


def _plane_arity(letter: int) -> int:
    return letter


def is_lukasiewicz(word: tuple[int, ...]) -> bool:
    """Check the code of a plane tree: sum n, length n+1, prefix dominance."""
    return _is_tree_code(word, _plane_arity)


def lukasiewicz_root_children(code: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Split a plane tree code into the codes of the root's child subtrees."""
    return _root_children(code, _plane_arity, "plane tree")


def is_schroeder_code(word: tuple[int, ...]) -> bool:
    return _is_tree_code(word, _arity)


def ndpf_to_code(word: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Inverse of code_to_ndpf for words of length n (code length n+1)."""
    code = [0] * (n + 1)
    for letter in word:
        code[letter - 1] += 1
    return tuple(code)


def noncrossing_to_ndpf(blocks) -> tuple[int, ...]:
    out = []
    for block in blocks:
        out.extend([min(block)] * len(block))
    return tuple(sorted(out))


def g_from_trees(order: int) -> NcsfSeries:
    """The Lagrange series g by enumerating plane tree codes."""
    comps: list[dict] = []
    for n in range(order + 1):
        comp: dict = {}
        for code in iter_lukasiewicz(n):
            word = nonzero_letters(code)
            comp[word] = comp.get(word, 0) + 1
        comps.append(comp)
    return NcsfSeries(INT_RING, comps)


def tree_weight(code: tuple[int, ...]) -> EPoly:
    """The monomial e_{lambda(t)} attached to a whole Schroeder tree."""
    return EPoly({right_branch_partition(code): 1})


def prime_tree_weight(code: tuple[int, ...]) -> EPoly:
    """Product of the right-branch monomials of the root's child subtrees."""
    w = EPoly.one()
    for kid in root_children(code):
        if kid != (0,):
            w = w * tree_weight(kid)
    return w


def zero_series(ring: Ring, order: int) -> NcsfSeries:
    return NcsfSeries(ring, [{} for _ in range(order + 1)])


def generator(ring: Ring, n: int, order: int | None = None) -> NcsfSeries:
    """The single generator S_n as a series exact through ``order``."""
    order = n if order is None else order
    if order < n:
        raise ValueError("order must reach the generator degree")
    comps = [{} for _ in range(order + 1)]
    comps[n][(n,)] = ring.one
    return NcsfSeries(ring, comps)
