"""Compositions, plane-tree codes and the bijections between Catalan families.

Plane rooted trees are handled purely through their Polish codes: the word of
node arities in prefix order.  A tree with n edges has a code of length n+1,
letter sum n, and every proper prefix sum of length j is at least j (the
Lukasiewicz condition).  All tree operations here are word rewrites.

The one walk over a tree code, ``_subtree_end``, takes the letter arity of
its tree family; ``schroeder`` splits its codes with it.
Sums over plane tree codes weighted by a composition are a DP over the
running letter sum, one ``_letter_step`` per letter: a walk of every prefix
writes a whole series as descent-mask rows, and ``tree_code_coefficient``
loops along one composition for a single coefficient.  Both take the factor
of a letter a of part i as ``factor(a, i)``, read once into a row per part.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def large_schroeder(n: int) -> int:
    """The large Schroeder number r_n = sum_k C(n+k, 2k) Catalan(k)."""
    return sum(math.comb(n + k, 2 * k) * catalan(k) for k in range(n + 1))


# ---------------------------------------------------------------------------
# compositions

def compositions(n: int) -> list[tuple[int, ...]]:
    """All compositions of n, ordered by their descent-set binary encoding.

    The descent set {i_1, i_1+i_2, ...} of a composition is read as a binary
    number with position 1 most significant, so (n) comes first and
    (1,1,...,1) last.  There are 2^(n-1) compositions for n >= 1: (n), then
    (m,) + w for w in compositions(n - m), m = n-1 down to 1, built once.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_compositions(n))


@functools.lru_cache(maxsize=None)
def _compositions(n: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    return tuple(itertools.chain(((n,),), *(map((m,).__add__, _compositions(n - m))
                                            for m in range(n - 1, 0, -1))))


def descent_mask(comp: tuple[int, ...]) -> int:
    """Binary encoding of the descent set, matching compositions() order."""
    n = sum(comp)
    mask = 0
    s = 0
    for p in comp[:-1]:
        s += p
        mask |= 1 << (n - 1 - s)
    return mask


def _size(n: int) -> int:
    """The slots of a row of degree n, one per descent mask (one at n = 0)."""
    return 1 << (n - 1) if n else 1


def _zero_rows(zero, order: int) -> list[list]:
    return [[zero] * _size(n) for n in range(order + 1)]


def coarsenings(comp: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All compositions obtained by summing adjacent blocks of ``comp``.

    There are 2^(len(comp)-1) of them, ``comp`` itself included.
    """
    if not comp:
        return [()]
    out = []
    r = len(comp)
    for mask in range(1 << (r - 1)):
        merged = [comp[0]]
        for i in range(1, r):
            if mask & (1 << (i - 1)):
                merged[-1] += comp[i]
            else:
                merged.append(comp[i])
        out.append(tuple(merged))
    return out


def conjugate(comp: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate composition: complement the descent set, then reverse."""
    n = sum(comp)
    return _compositions(n)[descent_mask(comp) ^ (_size(n) - 1)][::-1] if n else ()


# ---------------------------------------------------------------------------
# Lukasiewicz words / plane tree codes

def _subtree_end(code: tuple[int, ...], start: int, arity) -> int | None:
    """The end of the subtree whose code begins at ``start``: the one walk
    over a tree code, for every family.  A letter x heads a node of
    ``arity(x)`` children, so it adds arity(x) - 1 to the count of subtrees
    still to read, which starts at 1 and reaches 0 at the end.  None if the
    code ends first or a letter is negative.
    """
    need, pos = 1, start
    while need:
        if pos == len(code) or code[pos] < 0:
            return None
        need += arity(code[pos]) - 1
        pos += 1
    return pos


def _is_tree_code(code: tuple[int, ...], arity) -> bool:
    """Whether the whole of ``code`` is the code of one tree."""
    return bool(code) and _subtree_end(code, 0, arity) == len(code)


def _root_children(code: tuple[int, ...], arity, family: str) -> list[tuple[int, ...]]:
    """Split a tree code into the codes of the root's child subtrees."""
    if not _is_tree_code(code, arity):
        raise ValueError(f"not a {family} code: {code}")
    children, start = [], 1
    for _ in range(arity(code[0])):
        end = _subtree_end(code, start, arity)
        children.append(code[start:end])
        start = end
    return children


def iter_tree_codes(n: int, arity, need: int = 1) -> Iterator[tuple[int, ...]]:
    """Yield the codes of every forest of ``need`` trees with letter sum n,
    in decreasing lexicographic order: the one odometer of every family,
    whose letters x >= 1 head nodes of arity(x) >= 1 children.

    The largest completion of a prefix gives its next letter all of the
    remaining sum and closes the subtrees still to read with leaves.  The
    next code drops those leaves at once, then pops letters, getting back
    the remaining sum and that count, to the last letter that can drop by
    one (one above 1, or a 1 whose leaf leaves a subtree to read), drops it
    and completes again.
    """
    if n < 0 or need < 1:
        raise ValueError("size must be nonnegative, and a forest needs a tree")
    arity = [arity(x) for x in range(n + 1)]
    code, left = [], n
    while True:
        if left:
            code.append(left)
            need += arity[left] - 1
        code.extend([0] * need)
        yield tuple(code)
        del code[len(code) - need:]
        left = 0
        while True:
            if not code:
                return
            x = code.pop()
            if not x:
                need += 1
                continue
            left += x
            need += 1 - arity[x]
            if x > 1 or need > 1:
                break
        code.append(x - 1)
        left -= x - 1
        need += arity[x - 1] - 1


def _plane_arity(letter: int) -> int:
    return letter


def iter_lukasiewicz(n: int) -> Iterator[tuple[int, ...]]:
    """The plane tree codes of size n, off the odometer ``iter_tree_codes``."""
    return iter_tree_codes(n, _plane_arity)


def enumerate_lukasiewicz(n: int) -> list[tuple[int, ...]]:
    return list(iter_lukasiewicz(n))


def plane_tree_codes_with_nodes(p: int) -> list[tuple[int, ...]]:
    """Codes of plane trees with p nodes (length p, letter sum p-1)."""
    if p < 1:
        raise ValueError("a tree has at least one node")
    return enumerate_lukasiewicz(p - 1)


def _letter_step(vec: list, j: int, cap: int, f: list, zero) -> list:
    """The DP vector after a letter of factor row ``f`` on the vector
    ``vec`` of a prefix of length j, capped below the letter sum ``cap``:
    entry s of ``vec`` reaches entry s + a through the factor f[a].  Over
    a ring whose zero has ``mul_add`` (``coeffring.EPoly``), each new
    entry t is one ``mul_add``: vec[t] (letter 0) plus vec[s] f[t - s]."""
    # vec[s] with s >= j is all that a prefix of length j keeps
    top = min(len(vec), cap)
    # asked of the value, as coeffring imports this module for its check
    if hasattr(zero, "mul_add"):
        return [zero] * (j + 1) + [
            zero.mul_add(vec[t] if t < top else zero,
                         zip(vec[j:min(top, t)], f[t - j:t - min(top, t):-1]))
            for t in range(j + 1, cap)]
    new = [zero] * cap
    for s in range(j, top):
        v = vec[s]
        if s > j:
            new[s] = new[s] + v          # letter 0, whose factor is one
        for a in range(1, cap - s):
            new[s + a] = new[s + a] + v * f[a]
    return new


def tree_code_prefix_sums(n: int, factor, one, zero) -> list[list]:
    """For every composition (I, x) with |I| <= n, the sum over the codes
    a of plane trees with len(I) + 1 nodes of the products
    factor(a_1, i_1) ... factor(a_p, i_p), p = len(I); the last code letter
    is zero and, like x, has no factor, so the sum is the same for every x.

    Entry s of the DP vector after j letters sums the prefixes of letter
    sum s >= j, and a letter a of part i adds vec[s] * factor(a, i) into
    entry s + a; factor(0, i) must be ``one``.  The factors are read once,
    a row of letters 0..n per part.  A depth-first walk over the prefixes
    I through n writes entry len(I) of the vector at I into slot
    ``descent_mask(I)`` of row |I|; a child I + (x,) takes one letter step
    from its parent's vector, capped at j plus the parts left after I in
    the longest composition through I.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    factors = {i: [factor(a, i) for a in range(n + 1)] for i in range(1, n + 1)}
    rows = _zero_rows(zero, n)

    def walk(j, total, mask, vec):
        rows[total][mask] = vec[j]
        for x in range(1, n - total + 1):
            new = _letter_step(vec, j, n - total - x + j + 2, factors[x], zero)
            # the descent |I| joins those of I, if I is not empty
            walk(j + 1, total + x, (mask << x) | 1 << (x - 1) if j else 0, new)

    walk(0, 0, 0, [one])
    return rows


def is_composition(word) -> bool:
    """Whether every part of ``word`` is an int of at least 1; a float or a
    bool is no part, though 2.0 == 2 and True == 1."""
    return all(type(p) is int and p >= 1 for p in word)


def check_composition(comp: tuple[int, ...]) -> None:
    if not is_composition(comp):
        raise ValueError(f"not a composition: {comp}")


def tree_code_coefficient(comp: tuple[int, ...], factor, one, zero):
    """The tree-code sum at ``comp`` = (J, x) alone, the prefix sum at J: a
    loop of letter steps along J, with factor rows of letters through
    len(J) for the parts of J only, about len(J)^3 / 6 ring products."""
    check_composition(comp)
    J = comp[:-1]
    factors = {i: [factor(a, i) for a in range(len(J) + 1)] for i in set(J)}
    vec = [one]
    for j, x in enumerate(J):
        vec = _letter_step(vec, j, len(J) + 1, factors[x], zero)
    return vec[len(J)]


def nonzero_letters(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(filter(None, word))


def trailing_zeros(word: tuple[int, ...]) -> int:
    z = 0
    for x in reversed(word):
        if x:
            break
        z += 1
    return z


def code_to_dyck(code: tuple[int, ...]) -> str:
    """Letter i becomes a^i b; a valid code maps to a Dyck word plus one b."""
    return "".join("a" * x + "b" for x in code)


def code_to_ndpf(code: tuple[int, ...]) -> tuple[int, ...]:
    """Nondecreasing parking word 1^{i_1} 2^{i_2} ... encoded by the code."""
    out = []
    for pos, mult in enumerate(code, start=1):
        out.extend([pos] * mult)
    return tuple(out)


def is_ndpf(word: tuple[int, ...]) -> bool:
    return all(word[i] <= i + 1 for i in range(len(word))) and \
        all(word[i] <= word[i + 1] for i in range(len(word) - 1)) and \
        all(x >= 1 for x in word)


def ndpf_to_noncrossing(word: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Decode a nondecreasing parking word as a noncrossing set partition.

    The block containing m has size equal to the multiplicity of m in the
    word, and m is its minimal element.  Blocks are filled from the largest
    minimum down, each taking the smallest still-free elements above its
    minimum, which yields the unique noncrossing arrangement.
    """
    if not is_ndpf(word):
        raise ValueError(f"not a nondecreasing parking word: {word}")
    n = len(word)
    mult = {}
    for x in word:
        mult[x] = mult.get(x, 0) + 1
    free = set(range(1, n + 1))
    blocks = []
    for m in sorted(mult, reverse=True):
        if m not in free:
            raise ValueError(f"letter {m} cannot start a block in {word}")
        block = [m]
        free.discard(m)
        for _ in range(mult[m] - 1):
            nxt = min(x for x in free if x > m)
            block.append(nxt)
            free.discard(nxt)
        blocks.append(tuple(block))
    blocks.sort(key=lambda b: b[0])
    return tuple(blocks)


def remove_last_corolla(code: tuple[int, ...], k: int) -> tuple[int, ...] | None:
    """Replace the prefix-last corolla of arity k by a leaf.

    If the last nonzero letter of the code is not k the map is undefined and
    None is returned.  Otherwise that letter heads a corolla whose k children
    are the following k letters (all zero); the factor k 0^k collapses to a
    single 0.
    """
    if k < 1:
        raise ValueError("corolla size must be positive")
    pos = None
    for i in range(len(code) - 1, -1, -1):
        if code[i]:
            pos = i
            break
    if pos is None or code[pos] != k:
        return None
    return code[:pos] + (0,) + code[pos + k + 1:]


def shift_words(code: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Nondecreasing words on [n] whose evaluation is a right shift of the code.

    A code of size n with z trailing zeros yields z words: shifting the first
    n letters right by s (0 <= s < z) gives the multiplicity vector of a
    nondecreasing word on the alphabet {1, ..., n}.
    """
    n = len(code) - 1
    return [code_to_ndpf((0,) * s + code[: n - s]) for s in range(trailing_zeros(code))]


# ---------------------------------------------------------------------------
# parking quasi-ribbons

def _segment_starts(shape: tuple[int, ...]) -> set[int]:
    """The word positions (from 0) at which a segment of ``shape`` begins."""
    if not shape or not is_composition(shape):
        raise ValueError("shape must be a nonempty composition")
    starts, pos = set(), 0
    for size in shape:
        starts.add(pos)
        pos += size
    return starts


def iter_parking_quasi_ribbons(shape: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every parking quasi-ribbon filling of the given segment shape.

    A filling is a sequence of segments of the prescribed sizes, weakly
    increasing within each segment, with a strict increase from the last
    letter of a segment to the first letter of the next, and whose sorted
    content w satisfies the parking condition w_i <= i.  The concatenated
    word is weakly increasing, so it is its own sorted content and the
    parking condition bounds the letter at position i (from 0) by i + 1.
    Fillings come in lexicographic order of their concatenated word, from
    an odometer over the words within these bounds that holds one word.
    """
    starts = _segment_starts(shape)
    n = sum(shape)
    word: list[int] = []
    while True:
        # the smallest completion; the lower bound of each letter is at most
        # its position + 1, so every prefix completes
        while len(word) < n:
            pos = len(word)
            word.append((word[-1] if word else 0) + (1 if pos in starts else 0))
        it = iter(word)
        yield tuple(tuple(next(it) for _ in range(size)) for size in shape)
        # raise the last letter still below its bound
        while word and word[-1] == len(word):
            word.pop()
        if not word:
            return
        word[-1] += 1


def parking_quasi_ribbons(shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """The list of ``iter_parking_quasi_ribbons(shape)``."""
    return list(iter_parking_quasi_ribbons(shape))


def count_parking_quasi_ribbons(shape: tuple[int, ...]) -> int:
    """``len(parking_quasi_ribbons(shape))`` without building the fillings.

    A DP over (position, last letter): ``cnt[v]`` counts the prefixes whose
    last letter is v, and the next letter w needs w <= position + 1 and
    w >= v, or w > v at a segment start.
    """
    starts = _segment_starts(shape)
    cnt = [1]                # the empty prefix, as if it ended in letter 0
    for pos in range(sum(shape)):
        below = list(itertools.accumulate(cnt))   # last letter <= u
        shift = 1 if pos in starts else 0
        cnt = [0] + [below[min(w - shift, pos)] for w in range(1, pos + 2)]
    return sum(cnt)
