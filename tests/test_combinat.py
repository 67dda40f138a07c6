from collections import Counter
from itertools import accumulate, product
import math

import pytest

from ncgeode.coeffring import (EPoly, INT_RING, POLYT_ONE, PolyT, binomial_polynomial,
                               elementary_of_multiple)
from ncgeode.combinat import (_plane_arity, _subtree_end, catalan, coarsenings,
                              code_to_dyck, code_to_ndpf, compositions, conjugate,
                              count_parking_quasi_ribbons, descent_mask,
                              enumerate_lukasiewicz, is_ndpf, iter_lukasiewicz,
                              iter_parking_quasi_ribbons, iter_tree_codes,
                              ndpf_to_noncrossing, nonzero_letters,
                              parking_quasi_ribbons, plane_tree_codes_with_nodes,
                              remove_last_corolla, shift_words, trailing_zeros,
                              tree_code_coefficient, tree_code_prefix_sums)
from ncgeode import lagrange, schroeder
from ncgeode.lagrange import delta_coefficient, gamma_t
from ncgeode.ncsf import NcsfSeries, right_quotient
from ncgeode.schroeder import _arity, delta_e_coefficient, gamma_e
from oracles import (is_lukasiewicz, lukasiewicz_root_children,
                     ndpf_to_code, noncrossing_to_ndpf, polyt_binomial,
                     tree_code_sum)


def test_compositions_order_matches_display_convention():
    assert compositions(0) == [()]
    assert compositions(3) == [(3,), (2, 1), (1, 2), (1, 1, 1)]
    assert compositions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                               (1, 3), (1, 2, 1), (1, 1, 2), (1, 1, 1, 1)]


def test_compositions_count_and_masks():
    # the first-part recursion puts each composition at its own descent mask
    for n in range(1, 13):
        comps = compositions(n)
        assert len(comps) == 2 ** (n - 1)
        assert all(sum(c) == n and min(c) >= 1 for c in comps)
        assert [descent_mask(c) for c in comps] == list(range(len(comps)))
    # each call returns a list of its own
    compositions(3).clear()
    assert compositions(3) == [(3,), (2, 1), (1, 2), (1, 1, 1)]


def test_coarsenings():
    assert set(coarsenings((2, 1))) == {(2, 1), (3,)}
    assert set(coarsenings((1, 1, 1))) == {(1, 1, 1), (2, 1), (1, 2), (3,)}
    assert coarsenings(()) == [()]
    for comp in compositions(6):
        assert len(coarsenings(comp)) == 2 ** (len(comp) - 1)


def test_conjugate():
    assert conjugate((4,)) == (1, 1, 1, 1)
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate(()) == ()
    for n in range(1, 8):
        for comp in compositions(n):
            assert conjugate(conjugate(comp)) == comp


def test_conjugate_complements_and_reverses_the_descent_set():
    # an involution through 10 that sends (n) to 1^n, whose descent set is
    # {n - s : s in [1, n - 1] not a descent of I}
    def descents(comp):
        return set(accumulate(comp[:-1]))

    for n in range(1, 11):
        assert conjugate((n,)) == (1,) * n
        for comp in compositions(n):
            conj = conjugate(comp)
            assert conjugate(conj) == comp
            assert descents(conj) == {n - s for s in range(1, n) if s not in descents(comp)}


def test_enumerate_lukasiewicz_examples():
    assert enumerate_lukasiewicz(0) == [(0,)]
    assert enumerate_lukasiewicz(2) == [(2, 0, 0), (1, 1, 0)]
    assert enumerate_lukasiewicz(3) == [(3, 0, 0, 0), (2, 1, 0, 0), (2, 0, 1, 0),
                                        (1, 2, 0, 0), (1, 1, 1, 0)]


def test_lukasiewicz_counts_are_catalan():
    for n in range(0, 13):
        assert sum(1 for _ in iter_lukasiewicz(n)) == catalan(n)
    # lazy: the first of Catalan(40) codes comes without the others
    assert next(iter_lukasiewicz(40)) == (40,) + (0,) * 40
    with pytest.raises(ValueError):
        enumerate_lukasiewicz(-1)


def test_lukasiewicz_validity_and_order():
    for n in range(0, 9):
        codes = enumerate_lukasiewicz(n)
        assert all(is_lukasiewicz(c) for c in codes)
        assert codes == sorted(codes, reverse=True)


@pytest.mark.parametrize("arity", [_plane_arity, _arity], ids=["plane", "schroeder"])
def test_tree_code_forests_are_trees_in_decreasing_order(arity):
    for need in range(1, 4):
        for n in range(6):
            forests = list(iter_tree_codes(n, arity, need))
            assert forests == sorted(set(forests), reverse=True), (need, n)
            for code in forests:
                assert sum(code) == n
                end = 0
                for _ in range(need):
                    end = _subtree_end(code, end, arity)
                    assert end is not None, code
                assert end == len(code), code
    with pytest.raises(ValueError):
        next(iter_tree_codes(2, arity, 0))
    with pytest.raises(ValueError):
        next(iter_tree_codes(-1, arity))


def tree_code_sum_by_enumeration(comp, factor, one, zero):
    """Reference for tree_code_sum: the sum over every plane tree code."""
    if not comp:
        return one
    total = zero
    for code in plane_tree_codes_with_nodes(len(comp)):
        prod = one
        for a, i in zip(code[:-1], comp):
            prod = prod * factor(a, i)
        total = total + prod
    return total


def test_tree_code_sum_counts_plane_trees():
    for p in range(1, 9):
        assert tree_code_sum((1,) * p, lambda a, i: 1, 1, 0) == catalan(p - 1)
    assert tree_code_sum((), lambda a, i: 1, 1, 0) == 1


@pytest.mark.parametrize("n", range(9))
def test_delta_coefficients_match_code_enumeration(n):
    for comp in compositions(n):
        assert delta_coefficient(comp) == tree_code_sum_by_enumeration(
            comp, lambda a, i: binomial_polynomial(i, a), POLYT_ONE, PolyT()), comp
        assert delta_e_coefficient(comp) == tree_code_sum_by_enumeration(
            comp, elementary_of_multiple, EPoly.one(), EPoly()), comp


@pytest.mark.parametrize("ring", ["polyt", "epoly"])
def test_tree_code_prefix_sums_match_each_composition(ring):
    # every composition (I, x) through degree 10 reads the prefix sum at I,
    # which the per-composition DP of the oracles computes on its own
    if ring == "polyt":
        factor, one, zero = lambda a, i: binomial_polynomial(i, a), POLYT_ONE, PolyT()
    else:
        factor, one, zero = elementary_of_multiple, EPoly.one(), EPoly()
    rows = tree_code_prefix_sums(9, factor, one, zero)
    assert [len(row) for row in rows] == [len(compositions(e)) for e in range(10)]
    for n in range(1, 11):
        for comp in compositions(n):
            single = tree_code_sum(comp, factor, one, zero)
            assert rows[n - comp[-1]][descent_mask(comp[:-1])] == single, comp


@pytest.mark.parametrize("single", [
    delta_coefficient.__wrapped__, delta_e_coefficient.__wrapped__,
    pytest.param(lambda word: tree_code_coefficient(word, lambda a, i: 1, 1, 0),
                 id="tree_code_coefficient")])
@pytest.mark.parametrize("word", [(2, 0), (0,), (2, -1, 3), (1, 0, 1),
                                  (1.0, 1), (True, 1), (2.0,)])
def test_single_coefficients_refuse_words_that_are_not_compositions(single, word):
    # unmemoized: a memo answers an equal word, (1.0, 1) == (1, 1), before the check
    with pytest.raises(ValueError, match="not a composition"):
        single(word)


def test_single_coefficients_walk_only_their_path(monkeypatch):
    # neither the whole t-geode nor the whole e-geode is read or built
    def refuse(*args):
        raise AssertionError("a whole prefix walk")
    monkeypatch.setattr(lagrange, "tree_code_prefix_sums", refuse)
    monkeypatch.setattr(schroeder, "tree_code_prefix_sums", refuse)
    comp = (2,) + (1,) * 10
    assert delta_coefficient.__wrapped__(comp) == tree_code_sum(
        comp, lambda a, i: binomial_polynomial(i, a), POLYT_ONE, PolyT())
    assert delta_e_coefficient.__wrapped__(comp) == tree_code_sum(
        comp, elementary_of_multiple, EPoly.one(), EPoly())
    gamma_t.cache_clear()
    with pytest.raises(AssertionError, match="whole prefix walk"):
        gamma_t(2)
    # degree 30: the whole walk would visit 2^28 prefixes
    comp = (2,) + (1,) * 28
    assert delta_coefficient(comp) == tree_code_sum(
        comp, lambda a, i: binomial_polynomial(i, a), POLYT_ONE, PolyT())


@pytest.mark.parametrize("J", [(20, 20, 20), (10,) * 5, (3, 1, 3, 2)])
def test_tree_code_coefficient_walks_one_path(J):
    # the cap follows the path and the factor rows hold only its parts, so the
    # loop asks for len(set(J)) * (len(J) + 1) factors at most
    calls = Counter()

    def factor(a, i):
        calls[a, i] += 1
        return binomial_polynomial(i, a)

    coeff = tree_code_coefficient(J + (1,), factor, POLYT_ONE, PolyT())
    assert sum(calls.values()) <= len(set(J)) * (len(J) + 1)
    assert coeff == tree_code_sum(
        J + (1,), lambda a, i: binomial_polynomial(i, a), POLYT_ONE, PolyT())


@pytest.mark.parametrize("ring", ["polyt", "epoly"])
def test_tree_code_prefix_sums_cut_to_a_lower_degree(ring):
    # the rows of degree <= k do not depend on how far beyond k the walk goes
    if ring == "polyt":
        factor, one, zero = polyt_binomial, POLYT_ONE, PolyT()
    else:
        factor, one, zero = elementary_of_multiple, EPoly.one(), EPoly()
    rows = tree_code_prefix_sums(9, factor, one, zero)
    for k in range(10):
        assert tree_code_prefix_sums(k, factor, one, zero) == rows[:k + 1], k


def test_packed_walk_digits_stay_below_half_the_width():
    # decoded at four times the width, the walks through 10 read every
    # finished slot exactly: gamma^(t) (shift 0) at the width of gamma_t,
    # gamma^(t - 1) (shift 1) and theta^(t), the integer right quotient of
    # the two, at the width of theta_t.  The slot of a word of j parts,
    # times j!, is all that is unpacked and must then have coefficients
    # below 2^(B - 1), B the width of the series that unpacks it
    n = 10

    def largest(rows, wide):
        return max(abs(d) for e, row in enumerate(rows) for mask, v in enumerate(row)
                   for d in PolyT.from_packed(
                       v * math.factorial(e and mask.bit_count() + 1), wide, 1).num)

    gamma_bits, theta_bits = lagrange._width(n, 2), lagrange._width(n, 4)
    for bits, shift in (gamma_bits, 0), (theta_bits, 1):
        rows = tree_code_prefix_sums(n, lagrange._factor(4 * bits, shift), 1, 0)
        assert 1 << (bits // 2) < largest(rows, 4 * bits) < 1 << (bits - 1), shift
    v, u = (NcsfSeries._of(INT_RING, tree_code_prefix_sums(
        n, lagrange._factor(4 * theta_bits, shift), 1, 0)) for shift in (0, 1))
    quotient = right_quotient(v, u)._rows
    assert 1 << (theta_bits // 2) < largest(quotient, 4 * theta_bits) < 1 << (theta_bits - 1)


def test_tree_code_prefix_sums_count_plane_trees():
    def ones(a, i):
        return 1

    rows = tree_code_prefix_sums(7, ones, 1, 0)
    for e, row in enumerate(rows):
        assert row == [catalan(len(I)) for I in compositions(e)], e
    assert tree_code_prefix_sums(0, ones, 1, 0) == [[1]]
    assert tree_code_prefix_sums(1, ones, 1, 0) == [[1], [1]]
    with pytest.raises(ValueError):
        tree_code_prefix_sums(-1, ones, 1, 0)


def test_tree_code_prefix_sums_prune_vanishing_prefixes():
    # a factor that vanishes off a = 0 leaves no prefix of length 1, since
    # the first letter of a code is at least 1
    dead = tree_code_prefix_sums(4, lambda a, i: int(a == 0), 1, 0)
    assert dead == [[1], [0], [0, 0], [0] * 4, [0] * 8]


def test_plane_tree_codes_with_nodes():
    assert plane_tree_codes_with_nodes(3) == [(2, 0, 0), (1, 1, 0)]
    assert plane_tree_codes_with_nodes(1) == [(0,)]
    assert len(plane_tree_codes_with_nodes(4)) == 5


def test_code_to_dyck():
    assert code_to_dyck((2, 1, 0, 0)) == "aababbb"
    assert code_to_dyck((0,)) == "b"
    assert code_to_dyck((1, 1, 1, 0)) == "abababb"


def test_code_to_ndpf_examples():
    assert code_to_ndpf((2, 1, 0, 0)) == (1, 1, 2)
    assert code_to_ndpf((0,)) == ()
    assert code_to_ndpf((3, 0, 0, 0)) == (1, 1, 1)


def test_ndpf_to_noncrossing_examples():
    assert ndpf_to_noncrossing((1, 1, 2)) == ((1, 3), (2,))
    assert ndpf_to_noncrossing(()) == ()
    assert ndpf_to_noncrossing((1, 1, 1)) == ((1, 2, 3),)
    with pytest.raises(ValueError):
        ndpf_to_noncrossing((2, 2))


def _is_noncrossing(blocks):
    for a in blocks:
        for b in blocks:
            if a is b:
                continue
            for x in a:
                for y in a:
                    if x < y:
                        inside = [z for z in b if x < z < y]
                        if inside and not all(x < z < y for z in b):
                            return False
    return True


def test_parking_bijections_round_trip():
    for n in range(0, 9):
        seen_words = set()
        seen_partitions = set()
        for code in iter_lukasiewicz(n):
            word = code_to_ndpf(code)
            assert is_ndpf(word) or n == 0
            assert ndpf_to_code(word, n) == code
            blocks = ndpf_to_noncrossing(word)
            assert noncrossing_to_ndpf(blocks) == word
            assert _is_noncrossing(blocks)
            seen_words.add(word)
            seen_partitions.add(blocks)
        assert len(seen_words) == catalan(n)
        assert len(seen_partitions) == catalan(n)


def test_remove_last_corolla_examples():
    assert remove_last_corolla((3, 1, 0, 1, 3, 0, 0, 0, 0), 3) == (3, 1, 0, 1, 0, 0)
    assert remove_last_corolla((1, 1, 0), 1) == (1, 0)
    assert remove_last_corolla((1, 1, 1, 0), 2) is None


def test_remove_last_corolla_yields_valid_codes():
    for n in range(0, 6):
        for k in range(1, 4):
            for code in iter_lukasiewicz(n + k):
                out = remove_last_corolla(code, k)
                if out is not None:
                    assert is_lukasiewicz(out)
                    assert len(out) == n + 1


def test_corolla_multiset_independence():
    # removing the prefix-last corolla hits each smaller tree the same
    # number of times regardless of the corolla size
    for n in range(0, 8):
        multisets = []
        for k in range(1, 5):
            bag = Counter()
            for code in iter_lukasiewicz(n + k):
                out = remove_last_corolla(code, k)
                if out is not None:
                    bag[out] += 1
            multisets.append(bag)
        assert all(m == multisets[0] for m in multisets[1:]), n


def test_shift_words_examples():
    assert shift_words((3, 0, 0, 0)) == [(1, 1, 1), (2, 2, 2), (3, 3, 3)]
    assert shift_words((2, 0, 1, 0)) == [(1, 1, 3)]
    assert shift_words((2, 1, 0, 0)) == [(1, 1, 2), (2, 2, 3)]
    assert shift_words((1, 2, 0, 0)) == [(1, 2, 2), (2, 3, 3)]
    assert shift_words((1, 1, 1, 0)) == [(1, 2, 3)]


def test_shift_words_count_is_trailing_zeros():
    for n in range(0, 8):
        for code in iter_lukasiewicz(n):
            assert len(shift_words(code)) == trailing_zeros(code)


def test_parking_quasi_ribbons_examples():
    nine = parking_quasi_ribbons((3, 1))
    assert [tuple("".join(map(str, s)) for s in f) for f in nine] == [
        ("111", "2"), ("111", "3"), ("111", "4"),
        ("112", "3"), ("112", "4"), ("113", "4"),
        ("122", "3"), ("122", "4"), ("123", "4")]
    assert parking_quasi_ribbons((1, 1, 1, 1)) == [((1,), (2,), (3,), (4,))]
    assert len(parking_quasi_ribbons((1, 2, 1))) == 3


def _pqr_by_filter(shape):
    # every word over 1..n in lexicographic order, kept when its segments
    # satisfy the ribbon conditions and its sorted content parks
    n = sum(shape)
    out = []
    for word in product(range(1, n + 1), repeat=n):
        segs, pos = [], 0
        for size in shape:
            segs.append(word[pos:pos + size])
            pos += size
        if any(list(s) != sorted(s) for s in segs):
            continue
        if any(a[-1] >= b[0] for a, b in zip(segs, segs[1:])):
            continue
        if all(w <= i + 1 for i, w in enumerate(sorted(word))):
            out.append(tuple(segs))
    return out


def test_parking_quasi_ribbons_match_filter_definition():
    for n in range(1, 6):
        for shape in compositions(n):
            assert parking_quasi_ribbons(shape) == _pqr_by_filter(shape), shape


def test_parking_quasi_ribbons_stream_from_one_word():
    # the generator yields each filling as the odometer reaches it: the
    # first fillings of (9, 9, 9), which has 17,055,399,281,284, come at once
    fillings = iter_parking_quasi_ribbons((9, 9, 9))
    assert next(fillings) == ((1,) * 9, (2,) * 9, (3,) * 9)
    assert next(fillings) == ((1,) * 9, (2,) * 9, (3,) * 8 + (4,))
    for shape in ((1,), (3, 1), (2, 2, 2), (1, 5)):
        assert list(iter_parking_quasi_ribbons(shape)) == parking_quasi_ribbons(shape)
    with pytest.raises(ValueError):
        next(iter_parking_quasi_ribbons((2, 0)))


def test_pqr_count_matches_enumeration():
    for n in range(1, 9):
        for shape in compositions(n):
            assert count_parking_quasi_ribbons(shape) == \
                len(parking_quasi_ribbons(shape)), shape
    assert count_parking_quasi_ribbons((9, 9, 9)) == 17_055_399_281_284
    # a long shape with one filling, longer than the recursion limit
    ones = (1,) * 1100
    assert parking_quasi_ribbons(ones) == [tuple((i,) for i in range(1, 1101))]
    assert count_parking_quasi_ribbons(ones) == 1
    for shape in [(2, 0), (), (True, 2), (2.0,), (1.0, 1)]:
        with pytest.raises(ValueError, match="^shape must be a nonempty composition$"):
            count_parking_quasi_ribbons(shape)


def test_lukasiewicz_root_children():
    kids = lukasiewicz_root_children((3, 1, 0, 1, 3, 0, 0, 0, 0))
    assert kids == [(1, 0), (1, 3, 0, 0, 0), (0,)]
    assert lukasiewicz_root_children((0,)) == []


def test_nonzero_letters():
    assert nonzero_letters((2, 1, 0, 0)) == (2, 1)
    assert nonzero_letters((0,)) == ()
