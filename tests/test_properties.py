"""Property tests of the free-algebra kernels on random small integer series,
of single tree-code coefficients on random compositions, of the rings of
``EPoly`` and ``PolyT`` values on random small polynomials, and of
``PowerSeries`` products and square roots."""

import copy
import json
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncgeode.coeffring import (EPOLY_RING, INT_RING, POLYT_ONE, POLYT_RING, EPoly, PolyT,
                               _key, _part, binomial_polynomial, elementary_of_multiple,
                               fraction_to_str, partitions_of)
from ncgeode.combinat import coarsenings, compositions, descent_mask
from ncgeode.gfseries import PowerSeries
from ncgeode.lagrange import delta_coefficient, gamma_t
from ncgeode.render import polyt_str
from ncgeode.ncsf import (NcsfSeries, annihilate, compose, convert_basis, graded_power,
                          lagrange_transform, negate_alphabet, phi_k,
                          right_divide, series_inverse, series_mul, sigma1,
                          unit_series, with_last_part)
from ncgeode.schroeder import delta_e_coefficient, g_e, gamma_e
from oracles import (compose_by_words, decrement_last_part, drop_last_part,
                     inverse_by_words, map_words, mul_by_words, right_divide_by_words,
                     series_power, tree_code_sum)

COEFF = st.integers(-3, 3)


@st.composite
def series(draw, order):
    comps = [{(): draw(COEFF)}]
    for n in range(1, order + 1):
        comps.append({I: draw(COEFF) for I in compositions(n)})
    return NcsfSeries(INT_RING, comps)


ORDER = st.integers(0, 5)
ONE_SERIES = ORDER.flatmap(series)


def same_order(count):
    return ORDER.flatmap(lambda order: st.tuples(*[series(order)] * count))


SETTINGS = settings(max_examples=40, deadline=None)


@SETTINGS
@given(same_order(2))
def test_alphabet_negation_is_multiplicative(uv):
    u, v = uv
    assert negate_alphabet(series_mul(u, v)) == series_mul(negate_alphabet(u),
                                                           negate_alphabet(v))


@SETTINGS
@given(same_order(3))
def test_lagrange_transform_is_multiplicative(guv):
    g, u, v = guv
    assert lagrange_transform(g, series_mul(u, v)) == series_mul(
        lagrange_transform(g, u), lagrange_transform(g, v))


@SETTINGS
@given(ONE_SERIES, st.sampled_from(("R", "L")))
def test_basis_round_trip(u, basis):
    there = convert_basis(u, basis)
    assert there.basis == basis
    assert convert_basis(there, "S") == u


@SETTINGS
@given(ONE_SERIES)
def test_graded_power_matches_series_power(u):
    # the kernel reads rows: degree d has 2^(d-1) slots (one at d = 0), the
    # word w in the slot descent_mask(w)
    rows = []
    for d, comp in enumerate(u.components):
        row = [0] * (1 << (d - 1) if d else 1)
        for w, c in comp.items():
            row[descent_mask(w)] = c
        rows.append(row)
    memo: dict = {}
    for m in range(4):
        power = series_power(u, m)
        for d in range(u.order + 1):
            row = graded_power(rows, m, d, memo, 1, 0)
            assert len(row) == len(rows[d])
            assert {w: row[descent_mask(w)] for w in power.components[d]} == power.components[d]
            assert sum(map(bool, row)) == len(power.components[d])


@st.composite
def sparse_series(draw, order, basis):
    """A random subset of the words of each degree, so some components are
    empty and some words end in any given part."""
    comps = [{w: draw(COEFF) for w in draw(st.lists(st.sampled_from(compositions(n)),
                                                    unique=True))}
             for n in range(order + 1)]
    return NcsfSeries(INT_RING, comps, basis)


def phi_k_by_word_map(u, k):
    return map_words(u, lambda w: () if sum(w) % k or any(p % k for p in w)
                     else ((tuple(p // k for p in w), 1),), u.order // k)


@SETTINGS
@given(st.integers(1, 4), st.integers(0, 3), st.data())
def test_annihilation_matches_word_map(n, extra, data):
    u = data.draw(sparse_series(n + extra, "S"))
    assert annihilate(u, n) == drop_last_part(u, n)


@SETTINGS
@given(st.integers(1, 3), st.integers(0, 3), st.data())
def test_ribbon_annihilation_matches_termwise_rule_on_aligned_support(n, extra, data):
    # at n = 1 every word qualifies; for n >= 2 only words whose last part
    # is at least n, the support on which the termwise rule is the operator
    u = data.draw(sparse_series(n + extra, "R"))
    u = NcsfSeries(INT_RING, [{w: c for w, c in comp.items() if not w or w[-1] >= n}
                              for comp in u.components], "R")
    assert annihilate(u, n) == drop_last_part(u, n)


@SETTINGS
@given(st.integers(1, 6).flatmap(lambda order: sparse_series(order, "L")))
def test_elementary_annihilation_matches_termwise_rule_at_one(u):
    assert annihilate(u, 1) == decrement_last_part(u)


@SETTINGS
@given(st.integers(1, 4), st.integers(0, 7).flatmap(lambda order: sparse_series(order, "S")))
def test_phi_k_matches_word_map(k, u):
    assert phi_k(u, k) == phi_k_by_word_map(u, k)


def kernel_input(order):
    """Dense with zero slots, sparse with empty components, or sigma_1 - 1,
    whose rows of degree >= 1 hold one nonzero slot each."""
    return st.one_of(series(order), sparse_series(order, "S"),
                     st.just(sigma1(INT_RING, order) - unit_series(INT_RING, order)))


def with_low_terms(u, *low):
    """``u`` with its components of degree below len(low) replaced by ``low``."""
    return NcsfSeries(INT_RING, [*low, *u.components[len(low):]])


def outcome(fn, *args):
    """The result of ``fn``, or the type of the ``ValueError`` it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


@SETTINGS
@given(ORDER.flatmap(lambda order: st.tuples(kernel_input(order), kernel_input(order))),
       st.integers(1, 3))
def test_row_kernels_match_word_by_word_oracles(uv, k):
    u, v = uv
    assert u - v == u + (-v) and (u - v) + v == u
    assert series_mul(u, v) == mul_by_words(u, v)
    unit = with_low_terms(u, {(): 1})
    assert series_inverse(unit) == inverse_by_words(unit)
    assert phi_k(u, k) == phi_k_by_word_map(u, k)
    if u.order >= k:
        assert annihilate(u, k) == drop_last_part(u, k)
    if u.order >= 1:
        divisor = with_low_terms(v, {}, {(1,): 1})
        # a quotient that exists, then a dividend that is mostly not divisible
        product = series_mul(u, divisor)
        assert right_divide(product, divisor) == right_divide_by_words(product, divisor) \
            == u.truncate(u.order - 1)
        dividend = with_low_terms(u, {})
        assert outcome(right_divide, dividend, divisor) == \
            outcome(right_divide_by_words, dividend, divisor)


def elementary_letter(n, sign=1):
    """S_n in the L basis, which is also L_n in the S basis, times ``sign``."""
    return {J: sign * (-1) ** (n - len(J)) for J in compositions(n)}


def morphism_by_letters(letter_image):
    """The word function of the algebra morphism sending the letter n to the
    component ``letter_image(n)``, multiplied out letter by letter."""
    def image(word):
        product = {(): 1}
        for letter in word:
            product_next: dict = {}
            for w, c in product.items():
                for v, d in letter_image(letter).items():
                    product_next[w + v] = product_next.get(w + v, 0) + c * d
            product = product_next
        return product.items()
    return image


def convert_by_word_map(u, target):
    """S <-> R through the coarsenings of each word, S <-> L through the
    elementary letters."""
    if (u.basis, target) == ("S", "R"):
        image = lambda I: [(J, 1) for J in coarsenings(I)]
    elif (u.basis, target) == ("R", "S"):
        image = lambda I: [(J, (-1) ** (len(I) - len(J))) for J in coarsenings(I)]
    else:
        image = morphism_by_letters(elementary_letter)
    return map_words(u, image, basis=target)


@SETTINGS
@given(st.sampled_from((("S", "R"), ("R", "S"), ("S", "L"), ("L", "S"))),
       st.integers(0, 6), st.data())
def test_basis_change_matches_word_map(pair, order, data):
    source, target = pair
    u = data.draw(sparse_series(order, source))
    assert convert_basis(u, target) == convert_by_word_map(u, target)


@SETTINGS
@given(st.integers(0, 6).flatmap(lambda order: sparse_series(order, "S")))
def test_alphabet_negation_matches_word_map(u):
    assert negate_alphabet(u) == map_words(
        u, morphism_by_letters(lambda n: elementary_letter(n, (-1) ** n)))


@st.composite
def composition(draw, low, high):
    """A composition of a degree in [low, high], from its descent set."""
    n = draw(st.integers(low, high))
    mask = draw(st.integers(0, (1 << (n - 1)) - 1))
    cuts = [0] + [i for i in range(1, n) if mask >> (i - 1) & 1] + [n]
    return tuple(b - a for a, b in zip(cuts, cuts[1:]))


@SETTINGS
@given(composition(10, 14))
def test_delta_coefficient_matches_whole_walk_and_oracle(comp):
    # gamma_t(13) holds every prefix J = comp[:-1], which sums to at most 13
    single = delta_coefficient(comp)
    assert single == gamma_t(13).coefficient(comp[:-1])
    assert single == tree_code_sum(comp, lambda a, i: binomial_polynomial(i, a),
                                   POLYT_ONE, PolyT())


@SETTINGS
@given(composition(1, 9))
def test_delta_e_coefficient_matches_whole_walk_and_oracle(comp):
    single = delta_e_coefficient(comp)
    assert single == gamma_e(8).coefficient(comp[:-1])
    assert single == tree_code_sum(comp, elementary_of_multiple, EPoly.one(), EPoly())


PARTITION = st.lists(st.integers(1, 3), max_size=3).map(lambda p: tuple(sorted(p, reverse=True)))
EPOLY = st.dictionaries(PARTITION, COEFF, max_size=4).map(EPoly)
MONOMIAL = st.builds(lambda part, c: EPoly({part: c}), PARTITION, st.integers(-3, 3))
# partitions with parts past 20 and multiplicities past 255, which no
# fixed-width packing of the multiplicities would hold
WIDE_PARTITION = st.dictionaries(st.integers(1, 100), st.integers(1, 400), max_size=3).map(
    lambda mult: tuple(sorted((p for p, m in mult.items() for _ in range(m)), reverse=True)))
WIDE_EPOLY = st.dictionaries(WIDE_PARTITION, COEFF, max_size=3).map(EPoly)


def product_by_double_loop(p: EPoly, q: EPoly) -> EPoly:
    """The product term by term, with no shared monomials."""
    return EPoly([(ka + kb, ca * cb)
                  for ka, ca in p.terms.items() for kb, cb in q.terms.items()])


def product_by_merging(p: EPoly, q: EPoly) -> dict:
    """The terms of p q, each monomial's parts merged and sorted."""
    out: dict = {}
    for ka, ca in p.terms.items():
        for kb, cb in q.terms.items():
            key = tuple(sorted(ka + kb, reverse=True))
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


@SETTINGS
@given(EPOLY, EPOLY, EPOLY)
def test_epoly_ring_axioms(p, q, r):
    zero, one = EPoly(), EPoly.one()
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == zero + p == p
    assert p * one == one * p == p
    assert p * zero == zero
    assert p - p == zero
    assert p - q == p + (-q) and p - 3 == p + (-3)


@SETTINGS
@given(st.one_of(MONOMIAL, EPOLY, WIDE_EPOLY), st.one_of(MONOMIAL, EPOLY, WIDE_EPOLY))
def test_epoly_product_matches_double_loop(p, q):
    assert p * q == product_by_double_loop(p, q)
    assert dict((p * q).terms) == product_by_merging(p, q)


@st.composite
def sparse_epoly_series(draw, order):
    """A random subset of the words of each degree with ``EPoly``
    coefficients, some of them zero."""
    return NcsfSeries(EPOLY_RING, [
        {w: draw(EPOLY) for w in draw(st.lists(st.sampled_from(compositions(n)), unique=True))}
        for n in range(order + 1)])


@SETTINGS
@given(st.integers(0, 4).flatmap(lambda order: st.tuples(sparse_epoly_series(order),
                                                         sparse_epoly_series(order))))
def test_epoly_row_kernels_match_word_by_word_oracles(uv):
    # the fused t + a b of the row kernel against products one word at a time
    u, v = uv
    assert series_mul(u, v) == mul_by_words(u, v)
    unit = NcsfSeries(EPOLY_RING, [{(): EPoly.one()}, *u.components[1:]])
    assert series_inverse(unit) == inverse_by_words(unit)
    for b in (v, NcsfSeries(EPOLY_RING, [{}, *v.components[1:]])):
        assert compose(u, b) == compose_by_words(u, b)


def test_epoly_kernels_leave_cached_values_unchanged():
    # every kernel sums into dicts of its own: no cached value, shared row
    # slot or ring constant is changed in place
    def snapshot(series):
        return [{w: dict(c.terms) for w, c in comp.items()} for comp in series.components]

    elementary = {(k, j): dict(elementary_of_multiple(k, j).terms)
                  for k in range(7) for j in range(7)}
    gamma_e.cache_clear()
    gamma = gamma_e(6)
    before = snapshot(gamma)
    for route in ("delta", "system", "trees"):
        g_e(7, route)
    delta_e_coefficient((2, 1, 3, 1))
    g = with_last_part(gamma)
    series_mul(gamma, g), series_inverse(g), compose(gamma, g - unit_series(EPOLY_RING, 7))
    assert snapshot(gamma) == before == snapshot(gamma_e(6))
    assert elementary == {(k, j): dict(elementary_of_multiple(k, j).terms)
                          for k in range(7) for j in range(7)}
    assert not EPOLY_RING.zero.terms and dict(EPOLY_RING.one.terms) == {(): 1}


@SETTINGS
@given(PARTITION, PARTITION, EPOLY)
def test_shared_epoly_results_stay_unchanged(ka, kb, p):
    shared = EPoly({ka: 1}) * EPoly({kb: 1})
    summed = EPoly() + shared
    assert summed is shared
    before, before_p = dict(shared.terms), dict(p.terms)
    assert summed + summed == shared * 2
    assert (summed + p) - p == shared
    assert summed * p == p * summed == product_by_double_loop(shared, p)
    assert -(-summed) == shared
    assert dict(shared.terms) == before == {tuple(sorted(ka + kb, reverse=True)): 1}
    assert dict(p.terms) == before_p
    assert EPoly({ka: 1}) * EPoly({kb: 1}) == shared


@SETTINGS
@given(WIDE_PARTITION)
def test_monomial_key_decodes_to_its_partition(mu):
    assert _part(_key(mu)) == mu
    assert _key(mu[::-1]) == _key(mu)


def test_monomial_keys_of_small_partitions_are_distinct():
    small = [mu for n in range(13) for mu in partitions_of(n)]
    assert [_part(_key(mu)) for mu in small] == small
    assert len({_key(mu) for mu in small}) == len(small)


def test_epoly_keys_hold_any_part_and_multiplicity():
    def e1(m):
        return EPoly({(1,) * m: 1})
    assert e1(300) * e1(300) == e1(600)
    assert dict((e1(300) * e1(300)).terms) == {(1,) * 600: 1}
    assert dict((EPoly({(97,): 1}) * EPoly({(1,): 1})).terms) == {(97, 1): 1}
    assert EPoly({(97,): 1}) != e1(97) != EPoly({(2,) * 48 + (1,): 1})


@SETTINGS
@given(WIDE_EPOLY)
def test_copied_and_pickled_epoly_keep_terms(p):
    for back in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert back == p
        assert dict(back.terms) == dict(p.terms)
    with pytest.raises(TypeError):
        p.terms[(1,)] = 1
    with pytest.raises(AttributeError):
        p.terms = {}


# ---------------------------------------------------------------------------
# PolyT against a reference on tuples of Fraction coefficients, the
# representation PolyT had before it kept integer numerators over one
# common denominator


def ref_trim(cs) -> tuple:
    cs = [Fraction(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_add(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return ref_trim(out)


def ref_neg(a) -> tuple:
    return tuple(-c for c in a)


def ref_mul(a, b) -> tuple:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_scale_div(a, c) -> tuple:
    return ref_trim(x / Fraction(c) for x in a)


def ref_evaluate(a, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_polyt_str(a) -> str:
    """The rendering of ``render.polyt_str`` by rescaling to the lcm."""
    if not a:
        return "0"
    den = math.lcm(*(c.denominator for c in a))
    parts = []
    for power in range(len(a) - 1, -1, -1):
        c = int(a[power] * den)
        if not c:
            continue
        head = "" if c == 1 and power else ("-" if c == -1 and power else str(c))
        mono = head + ("" if power == 0 else "t" if power == 1 else f"t^{power}")
        if parts:
            parts.append(mono if mono.startswith("-") else "+" + mono)
        else:
            parts.append(mono)
    core = "".join(parts)
    return f"({core})/{den}" if den != 1 else core


def assert_canonical(p: PolyT):
    assert type(p.num) is tuple and all(type(c) is int for c in p.num)
    assert type(p.den) is int and p.den > 0
    assert not p.num or p.num[-1]
    assert math.gcd(p.den, *p.num) == 1


RATIONAL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
NONZERO = RATIONAL.filter(bool)
COEFFS = st.lists(RATIONAL, max_size=5)
POLYT = COEFFS.map(PolyT)


@SETTINGS
@given(COEFFS, COEFFS, NONZERO, RATIONAL, st.integers(-4, 4))
def test_polyt_matches_fraction_reference(ca, cb, c, x, k):
    p, q = PolyT(ca), PolyT(cb)
    a, b = ref_trim(ca), ref_trim(cb)
    cases = [
        (p, a), (q, b),
        (p + q, ref_add(a, b)),
        (p + k, ref_add(a, (k,))),
        (c + p, ref_add(a, (c,))),
        (-p, ref_neg(a)),
        (p - q, ref_add(a, ref_neg(b))),
        (p - k, ref_add(a, (-k,))),
        (p - c, ref_add(a, (-c,))),
        (k - p, ref_add(ref_neg(a), (k,))),
        (p * q, ref_mul(a, b)),
        (p * k, ref_mul(a, (k,))),
        (c * p, ref_mul(a, (c,))),
        (p.scale_div(c), ref_scale_div(a, c)),
        (p.scale_div(k or 1), ref_scale_div(a, k or 1)),
    ]
    for got, want in cases:
        assert_canonical(got)
        assert got.coeffs == want
        assert got == PolyT(want)
        assert hash(got) == hash(PolyT(want))
    for other in (q, k, c):
        assert p - other == p + (-other)
    assert p.evaluate(x) == ref_evaluate(a, x)
    assert p.evaluate(k) == ref_evaluate(a, k)
    assert type(p.evaluate(k)) is Fraction
    assert len(p.num) == len(a)
    assert bool(p) == bool(a)


@SETTINGS
@given(POLYT, POLYT, POLYT, st.integers(-3, 3))
def test_polyt_ring_axioms(p, q, r, k):
    zero, one = PolyT(), PolyT((1,))
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == zero + p == p
    assert p * one == one * p == p
    assert p * zero == zero
    assert p - p == zero
    assert p * k == PolyT((k,)) * p


@SETTINGS
@given(POLYT)
def test_polyt_json_round_trip(p):
    data = POLYT_RING.to_json(p)
    assert data == [fraction_to_str(c) for c in p.coeffs]
    back = POLYT_RING.from_json(json.loads(json.dumps(data)))
    assert back == p
    assert_canonical(back)


@SETTINGS
@given(COEFFS)
def test_polyt_str_matches_lcm_rendering(cs):
    p = PolyT(cs)
    assert polyt_str(p) == ref_polyt_str(ref_trim(cs))


# ---------------------------------------------------------------------------
# PowerSeries: the square root over total-degree slices, and the univariate
# product and square root against plain lists of coefficients


def ref_convolve(a, b, order) -> list:
    return [sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0))
            for n in range(order + 1)]


def ref_sqrt(a) -> list:
    """The coefficients r with r * r = a through len(a) - 1, for a[0] = 1."""
    r = [Fraction(1)]
    for n in range(1, len(a)):
        r.append((a[n] - sum(r[i] * r[n - i] for i in range(1, n))) / 2)
    return r


EXPONENTS = st.tuples(st.integers(0, 5), st.integers(0, 5))
UNIT_BIVARIATE = st.builds(lambda terms, order: PowerSeries({**terms, (0, 0): 1}, order),
                           st.dictionaries(EXPONENTS, RATIONAL, max_size=8),
                           st.integers(0, 6))
UNI_COEFFS = st.lists(RATIONAL, min_size=1, max_size=7)


@SETTINGS
@given(UNIT_BIVARIATE)
def test_power_series_sqrt_squares_back(s):
    root = s.sqrt()
    assert root * root == s


@SETTINGS
@given(UNI_COEFFS, UNI_COEFFS)
def test_univariate_product_and_sqrt_match_lists(a, b):
    uni = PowerSeries.univariate
    order = min(len(a), len(b)) - 1
    assert (uni(a) * uni(b)).coeffs == tuple(ref_convolve(a, b, order))
    unit = [Fraction(1)] + a[1:]
    root = list(uni(unit).sqrt().coeffs)
    assert root == ref_sqrt(unit)
    assert ref_convolve(root, root, len(unit) - 1) == unit
