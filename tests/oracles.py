"""Reference constructions that only the tests use.

Each one is an independent, slower route to something the package computes
another way: plane tree and Schroeder codes checked and split letter by
letter, the Lagrange series counted off enumerated trees, the e-Lagrange
series summed one prime tree at a time over the weights of its parsed codes
(where the package counts classes of trees by their chains), tree weights
read off parsed codes, the inverse bijections of ``combinat``, the tree-code
sum of one composition, a DP of its own beside the prefix walk, the factor
``C(t i, a)`` as ``PolyT`` (``polyt_binomial``, the reference of the packed
t-walk), the shift t -> t - 1 of a t-series by Horner's rule (``shift_t``,
the reference of the walk at 2^B - 1), the integer power of a series by
chained products (``series_power``), the bivariate ribbon specialization,
the general linear word map ``map_words``, the product, inverse and right
division of series word by word on dicts (``conv_into``), where the package
updates blocks of descent-mask rows, the k-Lagrange series by dict powers of
w (or of its inverse) up to |k| times the degree, the termwise annihilation
rules of the S, R and L bases, and the lifted e-series system over tree
codes.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from functools import lru_cache
from itertools import repeat
from operator import add
from types import MappingProxyType

from ncgeode.coeffring import (EPOLY_RING, EPoly, INT_RING, PolyT, Ring, _key,
                               binomial_polynomial)
from ncgeode.combinat import (_is_tree_code, _plane_arity, _root_children,
                              iter_lukasiewicz, nonzero_letters)
from ncgeode.gfseries import PowerSeries
from ncgeode.ncsf import (NcsfSeries, NotDivisibleError, check_order, series_inverse,
                          series_mul, unit_series)
from ncgeode.schroeder import (_arity, _partition_counts, enumerate_prime_schroeder,
                               right_branch_partition, root_children)


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


def conv_into(target: dict, a: Mapping, b: Mapping, zero):
    """Add the word convolution of two components into ``target``: every
    word of ``a`` concatenated with every word of ``b``."""
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            target[w] = target.get(w, zero) + ca * cb


def mul_by_words(u: NcsfSeries, v: NcsfSeries) -> NcsfSeries:
    """The product of two S-basis series, word by word."""
    order = min(u.order, v.order)
    out = [dict() for _ in range(order + 1)]
    for da in range(order + 1):
        for db in range(order + 1 - da):
            conv_into(out[da + db], u.component(da), v.component(db), u.ring.zero)
    return NcsfSeries(u.ring, out)


def inverse_by_words(u: NcsfSeries) -> NcsfSeries:
    """The inverse of a series with constant term 1, word by word:
    v_n = -sum_{i=1..n} u_i v_{n-i}."""
    inv = [{(): u.ring.one}]
    for n in range(1, u.order + 1):
        comp: dict = {}
        for i in range(1, n + 1):
            conv_into(comp, u.component(i), inv[n - i], u.ring.zero)
        inv.append({w: -c for w, c in comp.items()})
    return NcsfSeries(u.ring, inv)


def compose_by_words(a: NcsfSeries, b: NcsfSeries) -> NcsfSeries:
    """sum_n a_n b^n word by word, b^n grown one ``mul_by_words`` at a time."""
    order, zero = min(a.order, b.order), b.ring.zero
    out = [dict() for _ in range(order + 1)]
    power = NcsfSeries(b.ring, [{(): b.ring.one}] + [{} for _ in range(order)])
    for n in range(order + 1):
        for j in range(order + 1 - n):
            conv_into(out[n + j], a.component(n), power.component(j), zero)
        power = mul_by_words(power, b)
    return NcsfSeries(b.ring, out)


def right_divide_by_words(v: NcsfSeries, u: NcsfSeries) -> NcsfSeries:
    """theta with theta * u = v, for u = S_1 + (terms of degree >= 2),
    word by word: each residual word loses its final part 1, and a residual
    word ending otherwise raises ``NotDivisibleError``."""
    order = min(v.order, u.order)
    minus_u = [{w: -c for w, c in u.component(m).items()} for m in range(order + 1)]
    theta: list[dict] = []
    for n in range(1, order + 1):
        residual = dict(v.component(n))
        for m in range(2, n + 1):
            conv_into(residual, theta[n - m], minus_u[m], v.ring.zero)
        comp = {}
        for word, coeff in residual.items():
            if not coeff:
                continue
            if word[-1] != 1:
                raise NotDivisibleError(f"residual term {word} does not end in 1")
            comp[word[:-1]] = coeff
        theta.append(comp)
    return NcsfSeries(v.ring, theta)


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


def k_lagrange_by_powers(k: int, order: int) -> NcsfSeries:
    """Solve w = 1 + sum_m S_m w^{k m} degree by degree with the powers
    b^{|k| m}, where b is w for k >= 0 and w^{-1}, grown one degree behind
    w, for k < 0.  The powers are dicts of words multiplied by a loop of
    their own, not the row kernel ``ncsf.graded_power``; they reach |k|
    times the order, one frame per factor."""
    check_order(order)
    comps: list[dict] = [{(): 1}]
    base = comps if k >= 0 else [{(): 1}]
    memo: dict = {}

    def power(m: int, d: int) -> dict:
        # (b^m)_d = sum_j (b^{m-1})_{d-j} b_j reads b only through degree d
        if m == 0:
            return {(): 1} if d == 0 else {}
        if (m, d) not in memo:
            acc: dict = {}
            for j in range(d + 1):
                conv_into(acc, power(m - 1, d - j), base[j], 0)
            memo[m, d] = acc
        return memo[m, d]

    for n in range(1, order + 1):
        if k < 0 and n > 1:
            # v_{n-1} = -sum_i w_i v_{n-1-i} reads w only below degree n
            inv: dict = {}
            for i in range(1, n):
                conv_into(inv, comps[i], base[n - 1 - i], 0)
            base.append({w: -c for w, c in inv.items() if c})
        comps.append({(m,) + w: c for m in range(1, n + 1)
                      for w, c in power(abs(k) * m, n - m).items()})
    return NcsfSeries(INT_RING, comps)


def tree_code_sum(comp: tuple[int, ...], factor, one, zero):
    """Sum over the codes a of plane trees with len(comp) nodes of the
    products factor(a_1, i_1) ... factor(a_{p-1}, i_{p-1}).

    The final code letter is always zero and has no factor.  The
    Lukasiewicz condition only constrains the running letter sum, so the
    sum is a DP over it: after j letters, ``vec[s]`` sums the products of
    all prefixes with letter sum s, and a proper prefix needs s >= j.  The
    answer is the entry s = p - 1 after p - 1 letters, for at most
    p^3 / 6 ring products instead of Catalan(p - 1) * (p - 1).
    ``factor(0, i)`` must be ``one``; those products are skipped.

    This is the sum for one composition, a loop of its own.
    ``tree_code_prefix_sums`` runs the same DP for all compositions at
    once, sharing each prefix, and ``tree_code_coefficient`` along one
    composition, which is how ``delta_coefficient`` costs what this oracle
    costs.
    """
    n = len(comp) - 1
    if n <= 0:
        return one
    vec = [one]              # vec[s] for the empty prefix: s = 0 only
    for j in range(1, n + 1):
        i = comp[j - 1]
        # letter j lifts the sum from s to s + a with j <= s + a <= n
        factors = [factor(a, i) for a in range(n - j + 2)]
        new = [zero] * (n + 1)
        for s, v in enumerate(vec):
            if not v:
                continue
            if s >= j:
                new[s] = new[s] + v          # letter 0, whose factor is one
            for a in range(max(j - s, 1), n - s + 1):
                new[s + a] = new[s + a] + v * factors[a]
        vec = new
    return vec[n]


def polyt_binomial(a: int, i: int) -> PolyT:
    """C(t i, a) as ``PolyT``, from ``binomial_polynomial``: the walk over
    this factor is the reference for the packed t-walk."""
    return binomial_polynomial(i, a)


def shift_t(u: NcsfSeries) -> NcsfSeries:
    """``u`` under t -> t - 1, each coefficient by Horner's rule over PolyT."""
    t_minus_1 = PolyT((-1, 1))

    def shifted(p: PolyT) -> PolyT:
        acc = PolyT()
        for c in reversed(p.coeffs):
            acc = acc * t_minus_1 + c
        return acc
    return u.map_coefficients(shifted)


def g_e_by_prime_trees(order: int) -> NcsfSeries:
    """The e-Lagrange series one prime tree at a time: each prime tree of
    size n adds ``prime_tree_weight`` of its code, read off the parsed code
    by ``root_children`` and ``right_branch_partition``, to its word (the
    nonzero letters of the code).  The codes come off the odometer, so no
    class of the trees route's bottom-up growth is read."""
    comps = [{(): EPoly.one()}]
    for n in range(1, order + 1):
        comp: dict = {}
        for code in enumerate_prime_schroeder(n):
            word = nonzero_letters(code)
            comp[word] = comp.get(word, EPoly()) + prime_tree_weight(code)
        comps.append(comp)
    return NcsfSeries(EPOLY_RING, comps)


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


def series_power(u: NcsfSeries, k: int) -> NcsfSeries:
    """u^k as |k| chained products of u, or of its inverse for k < 0."""
    if k == 0:
        return unit_series(u.ring, u.order)
    base = u if k > 0 else series_inverse(u)
    out = base
    for _ in range(abs(k) - 1):
        out = series_mul(out, base)
    return out


def ribbon_ux(series: NcsfSeries) -> PowerSeries:
    """The specialization S^I -> u^len(I) x^|I| of an integer series, a
    power series in (x, u)."""
    # a term of x-degree n carries u-degree >= 1, so the first monomial this
    # truncation could miss has total degree series.order + 2
    return PowerSeries((((n, len(w)), c) for n, comp in enumerate(series.components)
                        for w, c in comp.items()), series.order + 1)


def map_words(u: NcsfSeries, image, order: int | None = None,
              basis: str = "S") -> NcsfSeries:
    """The linear map sending each word of ``u`` to ``image(word)``.

    ``image`` returns (word, coefficient) pairs.  Each output word goes into
    the component of its own degree; the result is exact through ``order``
    (by default the order of ``u``) and tagged with ``basis``.
    """
    zero = u.ring.zero
    acc: dict = {}
    for comp in u.components:
        for word, coeff in comp.items():
            for w, c in image(word):
                acc[w] = acc.get(w, zero) + coeff * c
    out = [dict() for _ in range((u.order if order is None else order) + 1)]
    for w, c in acc.items():
        out[sum(w)][w] = c
    return NcsfSeries(u.ring, out, basis)


def drop_last_part(u: NcsfSeries, n: int) -> NcsfSeries:
    """The termwise rule in the basis of ``u``: a word ending in the part n
    loses it, every other word dies.  In S it is S_n^{-1} annihilation.  In
    R it equals the operator for n = 1 and on words whose last part is at
    least n, but for n >= 2 it is another linear map: coarsening a shorter
    last part can create a new last part n, so S^{11} = R_2 + R_{11} maps to
    1 at n = 2, where the operator gives 0."""
    return map_words(u, lambda w: ((w[:-1], 1),) if w and w[-1] == n else (),
                     u.order - n, u.basis)


def decrement_last_part(u: NcsfSeries) -> NcsfSeries:
    """The termwise S_1^{-1} rule of the L basis: the last part of L^J
    decrements and is dropped when it reaches 0, and L^() dies."""
    def image(word):
        if not word:
            return ()
        return ((word[:-1] + (word[-1] - 1,) if word[-1] > 1 else word[:-1], 1),)
    return map_words(u, image, u.order - 1, "L")


# ---------------------------------------------------------------------------
# the lifted e-series system
#
# The degree-0 placeholder letter (written 0 inside words) keeps track of the
# final leaf of every subtree, so the words of Y and G are full tree codes
# and an X word is one without its final leaf:
#
#   G = (1 + X) S0,   X = sum_{n>=1} S_n Y^n,   Y = S0 + sum_{n>=1} e_n X^n S0.
#
# Setting S0 = 1 maps it onto ``schroeder.solve_xy_system``.


class LiftedState(namedtuple("LiftedState", "order x y")):
    """The lifted system through ``order``: per degree, each word of X and
    Y maps to the chain lengths of its monomial.  A Y word is a full tree
    code, an X word a tree code without its final leaf; G is read off X."""

    __slots__ = ()

    @property
    def g(self) -> tuple[Mapping, ...]:
        """G = (1 + X) S0: the X words with the placeholder appended, each
        a full tree code with the chains of its X word."""
        return (MappingProxyType({(0,): ()}),) + tuple(
            MappingProxyType({w + (0,): c for w, c in comp.items()}) for comp in self.x[1:])


def _chain_power(comps, m: int, d: int, memo: dict, concat) -> dict:
    """Degree-``d`` component of the m-th power of lifted components whose
    coefficients are chain tuples, multiplied by ``concat``; () is both one
    and zero.  Reads components through degree d only, as
    ``ncsf.graded_power`` does."""
    if m == 0:
        return {(): ()} if d == 0 else {}
    key = (m, d)
    acc = memo.get(key)
    if acc is None:
        acc = {}
        for j in range(d + 1):
            for wa, ca in _chain_power(comps, m - 1, d - j, memo, concat).items():
                for wb, cb in comps[j].items():
                    w = wa + wb
                    acc[w] = acc.get(w, ()) + concat(ca, cb)
        memo[key] = acc
    return acc


def lifted_xy_system(order: int) -> LiftedState:
    """Solve the lifted system degree by degree.

    X_n needs Y below degree n and Y_n needs X up to degree n, so the two
    interleave; the degree of a word is the sum of its letters, placeholder
    letters counting 0.

    A Y word is a full tree code and an X word one without its final leaf;
    either way its coefficient is one unit monomial e_lambda, so a word maps
    to the tuple of its chain lengths, unsorted.  A product of words
    concatenates their tuples, and the Y step appends (m,) for e_m.  Two
    terms landing on one word would be summed by concatenation as well,
    merging two monomials into one, so ``project_placeholder`` checks the
    chain sums and raises on such a collision.
    """
    check_order(order)
    # one shared tuple per pair of factors keeps the memory down
    concat = lru_cache(maxsize=None)(add)
    x: list[dict] = [{}]
    y: list[dict] = [{(0,): ()}]
    y_memo: dict = {}
    x_memo: dict = {}
    for n in range(1, order + 1):
        x.append({(m,) + w: c for m in range(1, n + 1)
                  for w, c in _chain_power(y, m, n - m, y_memo, concat).items()})
        yn: dict = {}
        for m in range(1, n + 1):
            em = (m,)
            for w, c in _chain_power(x, m, n, x_memo, concat).items():
                key = w + (0,)
                yn[key] = yn.get(key, ()) + concat(c, em)
        y.append(yn)
    return LiftedState(order, *(tuple(map(MappingProxyType, comps)) for comps in (x, y)))


def chain_monomials(comp: Mapping) -> dict:
    """A component of ``LiftedState`` with each chain tuple turned into its
    monomial e_lambda."""
    return {word: EPoly({chains: 1}) for word, chains in comp.items()}


def projected(comp: Mapping) -> dict:
    """A component of ``LiftedState`` with the placeholder letter set to 1:
    zeros deleted, words merged and their monomials added up."""
    return _partition_counts(zip(map(nonzero_letters, comp), map(_key, comp.values()), repeat(1)))


def project_placeholder(graded) -> NcsfSeries:
    """``projected`` over the X or G components of the lifted system.

    The degree-0 component is skipped and gives the unit.  A word of X_n
    carries the chains of the trees below its root, and so does the word of
    G_n that appends the placeholder to it; they sum to the word's nonzero
    letters minus 1.  Any other sum means two words collided and their
    chains were concatenated, and raises ``ValueError``.
    """
    comps = [{(): EPoly.one()}]
    for comp in graded[1:]:
        for word, chains in zip(map(nonzero_letters, comp), comp.values()):
            if sum(chains) != len(word) - 1:
                raise ValueError(f"the chains {chains} of a code of the word {word} "
                                 f"do not sum to {len(word) - 1}: codes collided")
        comps.append(projected(comp))
    return NcsfSeries(EPOLY_RING, comps)
