"""Schroeder trees and the e-Lagrange series.

A Schroeder tree of size n has n+1 leaves and internal nodes of arity at
least 2.  Its code reads the tree in prefix order, writing 0 for a leaf and
the label i for an internal node of arity i+1; the labels sum to n.  Codes
are checked and split by the tree-code walk of ``combinat``.

The e-Lagrange series attaches to each tree a monomial in the commuting
generators e_k: the partition recording the lengths of the maximal chains of
internal nodes linked by rightmost-child edges (the right branches).  It is
computed by three independent routes: a two-series system over
compositions, direct enumeration of prime trees, and a closed coefficient
formula.

The system comes from a lifted one whose words are tree codes, with a
degree-0 placeholder letter S0 for the final leaf of every subtree:

    G = (1 + X) S0,   X = sum_{n>=1} S_n Y^n,   Y = S0 + sum_{n>=1} e_n X^n S0.

Setting S0 = 1 deletes a letter, which commutes with concatenation, and the
e_n are scalars, so the projection is an algebra morphism.  It sends X to
the solution x of x = sum S_n y^n, y = 1 + sum e_n x^n, and G to
g^[e] = 1 + x.  ``solve_xy_system`` solves the projected system on the
2^(n-1) compositions of each degree, for any c_n in place of e_n.  Under
e_n -> C(k, n) the alphabet is k equal letters, y = (1 + x)^k and g^[e]
becomes g^(k), which ``lagrange.k_lagrange_direct`` reads off for every
integer k.  The lifted system grows with the little Schroeder numbers;
``tests/oracles.py`` keeps it as the reference over tree codes, and
``verify`` checks its displayed low-degree tables against the tree
enumeration below.

The enumeration reads the odometer ``combinat.iter_tree_codes`` with the
Schroeder arity; a prime tree is root r, a forest of r trees, then the
final leaf.  The trees route builds no code: a prime tree of size n is
root r over ``_forest(r, n - r)``, forests whose root chains are closed,
kept by word (all 2^(s - 1) words of size s >= 1, whatever r is), each
word a dict of the keys (``coeffring._key``) of its closed chains to their
counts, so its ``EPoly`` is that dict wrapped.  A forest is one tree, then
a forest of one tree fewer, the two dicts joined by ``coeffring._mul_into``;
a tree is root r over a forest of r trees, then a last subtree of
``_tree_table`` (kept by word and the open chain's length) whose open
chain grows by one, so no chain tuple is sorted.  The memos live for one
call of ``g_e``, which grows the trees of each size once.  ``verify`` and
the tests weigh enumerated codes by ``right_branch_partition``, sharing
the key.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .coeffring import EPOLY_RING, EPoly, Ring, _mul_into, _prime, elementary_of_multiple
from .ncsf import (NcsfSeries, _row_conv_into, check_order, lagrange_step, longest,
                   unit_series, with_last_part)
from .combinat import (_root_children, iter_tree_codes, tree_code_coefficient,
                       tree_code_prefix_sums)


def _arity(letter: int) -> int:
    return letter + 1 if letter else 0


def enumerate_schroeder(n: int) -> tuple[tuple[int, ...], ...]:
    """Codes of all Schroeder trees of size n, in decreasing lexicographic
    order; a leaf alone is the unique tree of size 0."""
    return tuple(iter_tree_codes(n, _arity))


def iter_prime_schroeder(n: int):
    """Schroeder trees whose root's rightmost subtree is a leaf, one at a time
    in decreasing lexicographic order: root r, a forest of r trees of size
    n - r, then the final leaf, for r = n down to 1; n < 1 raises at the call."""
    if n < 1:
        raise ValueError("size must be at least 1")
    return ((root, *forest, 0) for root in range(n, 0, -1)
            for forest in iter_tree_codes(n - root, _arity, root))


def enumerate_prime_schroeder(n: int) -> tuple[tuple[int, ...], ...]:
    """The codes of ``iter_prime_schroeder`` as one tuple."""
    return tuple(iter_prime_schroeder(n))


def _tree_table(n: int, memo: dict) -> dict:
    """The trees of size n (``_grown_trees``), kept in ``memo``, the
    caller's, which ``_forest`` shares."""
    if n not in memo:
        memo[n] = _grown_trees(n, memo)
    return memo[n]


def _forest(r: int, s: int, memo: dict) -> dict:
    """The forests of r >= 1 trees of total size s, every root chain closed,
    by word: {letters: {closed key: count}}.  One tree is one of the trees
    of size s, whose open chain closes by p_(open): the table in ``memo``
    when it is there, else grown by ``_grown_trees`` and not kept; r > 1
    trees are one tree, then a forest of r - 1, their keys joined by
    ``_mul_into``."""
    if (r, s) not in memo:
        forests: dict = {}
        if r == 1:
            trees = memo[s] if s in memo else _grown_trees(s, memo)
            for (letters, chain), keys in trees.items():
                _mul_into((forests.setdefault(letters, {}),), (keys,), {_prime(chain): 1})
        else:
            for first in range(s + 1):
                rest = _forest(r - 1, s - first, memo)
                for letters, keys in _forest(1, first, memo).items():
                    _mul_into([forests.setdefault(letters + more, {}) for more in rest],
                              rest.values(), keys)
        memo[r, s] = forests
    return memo[r, s]


def _grown_trees(n: int, memo: dict) -> dict:
    """The trees of size n by word and open root chain: {(letters, open):
    {closed key: count}}, the leaf for n = 0, else root label r over a
    forest of ``_forest(r, s)``, then a last subtree of
    ``_tree_table(n - r - s)``.  The letters are r and the subtrees', the
    keys the products of theirs, and the root chain is the last subtree's
    grown by one (a leaf's has length 0)."""
    trees: dict = {((), 0): {1: 1}} if n == 0 else {}
    for root in range(1, n + 1):
        for s in range(n - root + 1):
            last = _tree_table(n - root - s, memo)
            for letters, keys in _forest(root, s, memo).items():
                _mul_into([trees.setdefault(((root, *letters, *kid), chain + 1), {})
                           for kid, chain in last], last.values(), keys)
    return trees


def root_children(code: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Split a Schroeder code into the codes of the root's child subtrees."""
    return _root_children(code, _arity, "Schroeder tree")


def right_branch_partition(code: tuple[int, ...]) -> tuple[int, ...]:
    """Lengths of the maximal internal-node chains along rightmost edges.

    A chain starts at an internal node that is not the rightmost child of an
    internal node and follows rightmost children while they stay internal.
    Every internal node lies on exactly one chain, so the parts sum to the
    number of internal nodes.
    """
    def chains(subtree, run):
        # ``run`` internal nodes lead down rightmost edges to ``subtree``; the
        # chain grows along the last child and is recorded at the leaf ending it
        kids = root_children(subtree)
        if not kids:
            return [run] if run else []
        return [c for kid in kids[:-1] for c in chains(kid, 0)] + chains(kids[-1], run + 1)

    return tuple(sorted(chains(code, 0), reverse=True))


# ---------------------------------------------------------------------------
# the e-series system
#
# Setting the placeholder S0 of the lifted system to 1 (see the module
# docstring) leaves a system over compositions, with g^[e] = 1 + x:
#
#   x = sum_{n>=1} S_n y^n,   y = 1 + sum_{n>=1} e_n x^n.


# the system through ``order``: x and y as series
SystemState = namedtuple("SystemState", "order x y")


def elementary(m: int) -> EPoly:
    """The generator e_m, the c_m of the e-series system."""
    return EPoly({(m,): 1})


def solve_xy_system(order: int, ring: Ring, c) -> SystemState:
    """Solve x = sum S_m y^m, y = 1 + sum c_m x^m degree by degree over
    ``ring``, with c_m = c(m) for m >= 1: x through ``order`` and y through
    ``order - 1`` (y = 1 at order 0), all that x reads.

    x_n = sum_m S_m (y^m)_{n-m} (``lagrange_step``) needs y below degree n.
    y is Horner's T_0, where T_k = sum_{m>=k} c_m x^(m-k) = c_k + x T_(k+1)
    with c_0 = 1, so degree n builds T_k only at degree n - k, and no tail
    past the last nonzero c_m.  With c_m = e_m, 1 + x is g^[e]; with
    c_m = C(k, m) over the integers, y = (1 + x)^k, so 1 + x is g^(k) for
    every integer k, and no power of x is taken.
    """
    check_order(order)
    one, zero = ring.one, ring.zero
    coeffs = [one] + [c(m) for m in range(1, order)]
    # C(k, m) vanishes for m > k >= 0, and so do the tails T_k past it;
    # T_1 stays, so that y grows at k = 0
    top = max(1, *(m for m, cm in enumerate(coeffs) if cm))
    tails = [[[cm]] for cm in coeffs[:top + 1]]
    x: list[list] = [[zero]]
    y = tails[0]
    y_memo: dict = {}
    for n in range(order):
        for k in range(min(top, n) - 1, -1, -1):
            row = [zero] * len(x[n - k])
            for d, tail in enumerate(tails[k + 1]):
                _row_conv_into(row, x[n - k - d], n - k - d, tail, d, one)
            tails[k].append(row)
        x.append(lagrange_step(y, n + 1, y_memo, one, zero))
    return SystemState(order, NcsfSeries._of(ring, x), NcsfSeries._of(ring, y))


def _partition_counts(classes) -> dict:
    """Sum e_mu over (word, key of mu, count) triples: per word, an ``EPoly``
    of the counts of the monomial keys."""
    weights: dict = {}
    for word, key, k in classes:
        counts = weights.setdefault(word, {})
        counts[key] = counts.get(key, 0) + k
    return {word: EPoly._of(counts) for word, counts in weights.items()}


# ---------------------------------------------------------------------------
# the e-Lagrange series, three ways

@lru_cache(maxsize=None)
def delta_e_coefficient(comp: tuple[int, ...]) -> EPoly:
    """Coefficient of S^I in the e-Lagrange series: the sum, over the codes
    a of plane trees with len(I) nodes, of the products e_{a_1}(i_1 A) ...
    e_{a_{p-1}}(i_{p-1} A), a loop along I alone, as
    ``lagrange.delta_coefficient`` is, without building ``gamma_e``."""
    return tree_code_coefficient(comp, elementary_of_multiple, EPOLY_RING.one, EPOLY_RING.zero)


def g_e(order: int, route: str = "delta") -> NcsfSeries:
    """The e-Lagrange series by any of its three constructions.

    The delta route is ``delta_e_coefficient`` for every composition at
    once: it appends every last part to the prefix sums of
    ``gamma_e(order - 1)``, as ``lagrange.g_t`` does over t.  The trees
    route counts prime trees by class (``_forest``), with memos of its own.
    """
    check_order(order)
    if route == "delta":
        # g^[e] - 1 = gamma^[e] (sigma_1 - 1): the last part has no factor
        return with_last_part(gamma_e(order - 1)) if order else unit_series(EPOLY_RING, 0)
    if route == "system":
        return unit_series(EPOLY_RING, order) + solve_xy_system(order, EPOLY_RING, elementary).x
    if route == "trees":
        memo: dict = {}
        # every table a last subtree reads, each grown once, before the
        # one-tree forests read them
        for s in range(order - 1):
            _tree_table(s, memo)
        # a prime tree weighs its closed chains: all but its root's
        comps = [{(): EPOLY_RING.one}] + [
            {(root, *letters): EPoly._of(keys) for root in range(1, n + 1)
             for letters, keys in _forest(root, n - root, memo).items()}
            for n in range(1, order + 1)]
        return NcsfSeries(EPOLY_RING, comps)
    raise ValueError(f"unknown route {route!r}")


@longest
def gamma_e(order: int) -> NcsfSeries:
    """The e-geode g^[e] S_1^{-1}: its coefficient at I is the prefix sum
    at I of the tree-code walk, whose rows are read off directly."""
    return NcsfSeries._of(EPOLY_RING, tree_code_prefix_sums(
        order, elementary_of_multiple, EPOLY_RING.one, EPOLY_RING.zero))
