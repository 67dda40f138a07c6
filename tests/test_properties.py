"""Property tests of the free-algebra kernels on random small integer series,
and of the ring of ``EPoly`` values on random small polynomials."""

from hypothesis import given, settings, strategies as st

from ncgeode.coeffring import INT_RING, EPoly
from ncgeode.combinat import compositions
from ncgeode.ncsf import (NcsfSeries, convert_basis, graded_power,
                          lagrange_transform, negate_alphabet, series_mul,
                          series_power)

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
    memo: dict = {}
    for m in range(4):
        power = series_power(u, m)
        for d in range(u.order + 1):
            comp = graded_power(u.components, m, d, memo, 1, 0)
            assert {w: c for w, c in comp.items() if c} == power.components[d]


PARTITION = st.lists(st.integers(1, 3), max_size=3).map(lambda p: tuple(sorted(p, reverse=True)))
EPOLY = st.dictionaries(PARTITION, COEFF, max_size=4).map(EPoly)
MONOMIAL = st.builds(lambda part, c: EPoly({part: c}), PARTITION, st.integers(-3, 3))


def product_by_double_loop(p: EPoly, q: EPoly) -> EPoly:
    """The product term by term, with no shared monomials."""
    return EPoly([(ka + kb, ca * cb)
                  for ka, ca in p.terms.items() for kb, cb in q.terms.items()])


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


@SETTINGS
@given(st.one_of(MONOMIAL, EPOLY), st.one_of(MONOMIAL, EPOLY))
def test_epoly_product_matches_double_loop(p, q):
    assert p * q == product_by_double_loop(p, q)


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
