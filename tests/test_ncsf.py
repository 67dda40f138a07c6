import copy
import pickle
import random
import re
from fractions import Fraction

import pytest

from ncgeode.coeffring import (INT_RING, POLYT_ONE, POLYT_RING, PolyT, binomial_polynomial,
                               elementary_of_multiple)
from ncgeode.combinat import compositions, plane_tree_codes_with_nodes, remove_last_corolla
from ncgeode.lagrange import (g_t, geode, k_lagrange_by_phi, solve_g,
                              theta_k_by_transform)
from ncgeode.ncsf import (NcsfSeries, NotDivisibleError, TruncationError,
                          annihilate, compose, convert_basis,
                          lagrange_transform, negate_alphabet, phi_k,
                          right_divide, right_quotient, series_inverse, series_mul,
                          series_power_binomial, sigma1, unit_series)
from ncgeode.schroeder import g_e
from oracles import (decrement_last_part, drop_last_part, mul_by_words, series_power,
                     zero_series)


def s_series(terms, order, ring=INT_RING):
    comps = [dict() for _ in range(order + 1)]
    for word, c in terms.items():
        comps[sum(word)][word] = c
    return NcsfSeries(ring, comps)


def random_series(rng, order, constant=0, ring=INT_RING):
    comps = [{(): ring.one * constant} if constant else {}]
    for n in range(1, order + 1):
        comp = {}
        for I in compositions(n):
            c = rng.randint(-3, 3)
            if c:
                comp[I] = ring.one * c
        comps.append(comp)
    return NcsfSeries(ring, comps)


def test_product_concatenates():
    u = s_series({(1,): 1}, 3)
    v = s_series({(2,): 1}, 3)
    assert series_mul(u, v) == s_series({(1, 2): 1}, 3)


def test_product_binomial_square():
    one_plus = unit_series(INT_RING, 3) + s_series({(1,): 1}, 3)
    sq = series_mul(one_plus, one_plus)
    assert sq.component(0) == {(): 1}
    assert sq.component(1) == {(1,): 2}
    assert sq.component(2) == {(1, 1): 1}


def test_square_of_lagrange_series():
    g = solve_g(4)
    gg = series_mul(g, g)
    # g0 g2 + g1 g1 + g2 g0
    assert gg.component(2) == {(2,): 2, (1, 1): 3}
    assert series_power(g, 2) == gg


def test_product_is_associative_and_distributive():
    rng = random.Random(3)
    for _ in range(5):
        a = random_series(rng, 4, constant=1)
        b = random_series(rng, 4, constant=0)
        c = random_series(rng, 4, constant=2)
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))
        assert series_mul(a, b + c) == series_mul(a, b) + series_mul(a, c)


def test_inverse_geometric():
    u = unit_series(INT_RING, 4) + s_series({(1,): 1}, 4)
    v = series_inverse(u)
    assert v.component(1) == {(1,): -1}
    assert v.component(2) == {(1, 1): 1}
    assert v.component(3) == {(1, 1, 1): -1}
    assert series_mul(u, v) == unit_series(INT_RING, 4)
    assert series_mul(v, u) == unit_series(INT_RING, 4)


def test_inverse_of_lagrange_series_gives_prime_component():
    g = solve_g(3)
    h = unit_series(INT_RING, 3) - series_inverse(g)
    assert h.component(2) == {(2,): 1}


def test_inverse_of_sigma1_is_signed_elementary():
    v = series_inverse(sigma1(INT_RING, 4))
    assert v.component(2) == {(1, 1): 1, (2,): -1}
    # degree n component equals (-1)^n L_n written in the S basis
    ln = convert_basis(
        NcsfSeries(INT_RING, [{}, {}, {}, {(3,): 1}], "L"), "S")
    assert {w: -c for w, c in ln.component(3).items()} == v.component(3)


@pytest.mark.parametrize("ring", [INT_RING, POLYT_RING], ids=["int", "polyt"])
def test_right_quotient_undoes_the_word_product(ring):
    # w u = v has the one solution w for a divisor u with constant term 1
    rng = random.Random(29)

    def rand(order, constant):
        u = random_series(rng, order, constant)
        if ring is POLYT_RING:
            u = u.map_coefficients(lambda c: PolyT((c, rng.randint(-2, 2), Fraction(1, 3))),
                                   POLYT_RING)
        return u

    for order in range(6):
        w, v = rand(order, 2), rand(order, 0)
        u = unit_series(ring, order) + rand(order, 0)
        assert right_quotient(mul_by_words(w, u), u) == w
        assert mul_by_words(right_quotient(v, u), u) == v
    with pytest.raises(ValueError, match="constant term 1"):
        right_quotient(w, w)
    r = convert_basis(u, "R")
    with pytest.raises(ValueError, match="S basis"):
        right_quotient(r, r)


def test_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        series_inverse(zero_series(INT_RING, 2))


def test_power_examples():
    g = solve_g(3)
    assert series_power(g, 0) == unit_series(INT_RING, 3)
    assert series_power(g, 2).component(1) == {(1,): 2}
    assert series_power(g, -1).component(1) == {(1,): -1}


def test_power_binomial_matches_integer_powers():
    gt = solve_g(6).map_coefficients(lambda c: PolyT((c,)), POLYT_RING)
    for k in range(5):
        assert series_power_binomial(gt, PolyT((k,))) == series_power(gt, k)


def test_power_binomial_symbolic_degree_2():
    from ncgeode.lagrange import g_t
    powered = series_power_binomial(g_t(3), PolyT((0, 1)))
    assert powered.component(1) == {(1,): PolyT([0, 1])}
    # t*g2 + C(t,2)*(g-1)_1^2 with g the t-level series
    from fractions import Fraction
    assert powered.component(2) == {
        (2,): PolyT([0, 1]),
        (1, 1): PolyT([0, Fraction(-1, 2), Fraction(3, 2)])}


def test_annihilate_s_basis():
    g = solve_g(3)
    gamma2 = annihilate(g, 1).component(2)
    assert gamma2 == {(2,): 2, (1, 1): 1}
    assert annihilate(s_series({(1, 2): 1}, 3), 1).component(2) == {}


def test_annihilate_lambda_basis_single_part():
    s2_in_l = convert_basis(s_series({(2,): 1}, 2), "L")
    assert s2_in_l.component(2) == {(1, 1): 1, (2,): -1}
    out = annihilate(s2_in_l, 1)
    assert out.component(1) == {}


def test_annihilate_lambda_higher_index_goes_through_s():
    # S_2 + 3 S^{11} loses its S_2 at n = 2, whatever basis it is written in
    u = convert_basis(s_series({(2,): 1, (1, 1): 3}, 2), "L")
    out = annihilate(u, 2)
    assert out.basis == "L" and out.order == 0
    assert out.component(0) == {(): 1}
    assert annihilate(convert_basis(u, "R"), 2) == convert_basis(out, "R")


def test_basis_round_trips():
    rng = random.Random(11)
    u = random_series(rng, 8, constant=1)
    for a in ("S", "R", "L"):
        for b in ("S", "R", "L"):
            v = convert_basis(convert_basis(convert_basis(u, a), b), a)
            assert v == convert_basis(u, a), (a, b)


def test_s_to_r_counts_coarsenings():
    u = s_series({(1, 1, 2): 1}, 4)
    r = convert_basis(u, "R")
    assert set(r.component(4)) == {(1, 1, 2), (2, 2), (1, 3), (4,)}
    assert all(c == 1 for c in r.component(4).values())


def test_annihilation_commutes_with_conversion_at_one():
    # the termwise R and L rules, applied to the converted series, agree
    # with the S-basis operator at n = 1
    rng = random.Random(5)
    u = random_series(rng, 8, constant=0)
    lhs = convert_basis(annihilate(u, 1), "R")
    assert lhs == drop_last_part(convert_basis(u, "R"), 1)
    assert lhs == annihilate(convert_basis(u, "R"), 1)
    lhs = convert_basis(annihilate(u, 1), "L")
    assert lhs == decrement_last_part(convert_basis(u, "L"))
    assert lhs == annihilate(convert_basis(u, "L"), 1)


def test_annihilation_commutes_with_conversion_on_aligned_support():
    # for n >= 2 the termwise R rule agrees with the operator only on words
    # whose last part is at least n: coarsening a shorter last part can
    # create a new final part equal to n, so the two differ on, e.g., S^{11}
    rng = random.Random(13)
    for n in (2, 3):
        u = NcsfSeries(INT_RING, [{w: c for w, c in comp.items()
                                   if not w or w[-1] >= n}
                                  for comp in random_series(rng, 8, constant=0).components])
        lhs = convert_basis(annihilate(u, n), "R")
        assert lhs == drop_last_part(convert_basis(u, "R"), n), n
        assert lhs == annihilate(convert_basis(u, "R"), n), n


def test_annihilation_rules_differ_for_higher_index():
    # boundary of the previous property: S^{11} = R_2 + R_{11} vanishes
    # under the operator for n = 2, in every basis, but not under the
    # termwise R rule
    u = s_series({(1, 1): 1}, 2)
    assert annihilate(u, 2).component(0) == {}
    assert annihilate(convert_basis(u, "R"), 2).component(0) == {}
    assert drop_last_part(convert_basis(u, "R"), 2).component(0) == {(): 1}


def test_derivation_like_rule_for_annihilation():
    # (u v) S1^-1 = u (v S1^-1) + (u S1^-1) v_0
    rng = random.Random(17)
    for trial in range(6):
        u = random_series(rng, 6, constant=rng.randint(-2, 2))
        v = random_series(rng, 6, constant=rng.randint(-2, 2))
        v0 = v.component(0).get((), 0)
        lhs = annihilate(series_mul(u, v), 1)
        rhs = series_mul(u, annihilate(v, 1)).truncate(5) + \
            annihilate(u, 1).scale(v0)
        assert lhs == rhs, trial


def test_negate_alphabet():
    u = s_series({(1,): 1, (2,): 1}, 2)
    v = negate_alphabet(u)
    assert v.component(1) == {(1,): -1}
    assert v.component(2) == {(1, 1): 1, (2,): -1}


def test_negate_alphabet_is_morphism_and_involution():
    rng = random.Random(23)
    a = random_series(rng, 5, constant=1)
    b = random_series(rng, 5, constant=1)
    assert negate_alphabet(series_mul(a, b)) == \
        series_mul(negate_alphabet(a), negate_alphabet(b))
    assert negate_alphabet(negate_alphabet(a)) == a


def test_phi_k():
    u = s_series({(4, 2): 1, (2, 1): 1}, 6)
    out = phi_k(u, 2)
    assert out.order == 3
    assert out.component(3) == {(2, 1): 1}


def test_lagrange_transform():
    g = solve_g(4)
    assert lagrange_transform(g, s_series({(2,): 1}, 2)).component(2) == \
        g.component(2)
    assert lagrange_transform(g, s_series({(1, 1): 1}, 2)).component(2) == \
        {(1, 1): 1}
    # the transform fixes sigma_1 to g, and a second application reaches the
    # 2-level series: degree 2 of L(g) is g_2 + g_1 g_1 = S_2 + 2 S^{11}
    assert lagrange_transform(g, sigma1(INT_RING, 4)) == g
    twice = lagrange_transform(g, lagrange_transform(g, sigma1(INT_RING, 4)))
    assert twice.component(2) == {(2,): 1, (1, 1): 2}
    with pytest.raises(TruncationError):
        lagrange_transform(solve_g(1), s_series({(2,): 1}, 2))


def test_right_divide_recovers_factor():
    rng = random.Random(29)
    for _ in range(5):
        theta = random_series(rng, 6, constant=rng.choice([1, 2]))
        comps = random_series(rng, 6, constant=0).components
        u = NcsfSeries(INT_RING, (comps[0], {(1,): 1}) + comps[2:])
        v = series_mul(theta, u)
        q = right_divide(v, u)        # inputs of order 6 give degrees 0..5
        assert q == theta.truncate(5)
        assert series_mul(q, u.truncate(5)).truncate(5) == v.truncate(5)


def test_right_divide_self_is_unit():
    u = sigma1(INT_RING, 5) - unit_series(INT_RING, 5)
    q = right_divide(u, u)
    assert q == unit_series(INT_RING, 4)


def test_right_divide_signals_failure():
    v = s_series({(2,): 1}, 3)
    u = sigma1(INT_RING, 3) - unit_series(INT_RING, 3)
    with pytest.raises(NotDivisibleError):
        right_divide(v, u)


@pytest.mark.parametrize("divisor", [
    pytest.param({(1,): 2, (2,): 1}, id="twice-s1"),
    pytest.param({(2,): 1}, id="no-s1"),
])
def test_right_divide_requires_divisor_starting_with_s1(divisor):
    u = s_series(divisor, 3)
    v = series_mul(s_series({(): 1, (1,): 1}, 3), u)
    with pytest.raises(ValueError, match="must start with S_1"):
        right_divide(v, u)


def test_word_of_wrong_degree_is_rejected():
    # a ValueError rather than an assert, so the check survives python -O;
    # a word with a part below 1 is no composition, so it has no slot either
    for comps in ([{}, {(2,): 1}], [{}, {}, {(0, 2): 1}], [{}, {}, {}, {(4, -1): 1}]):
        with pytest.raises(ValueError, match="in the component of degree"):
            NcsfSeries(INT_RING, comps)


def s1():
    return s_series({(1,): 1}, 2)


def s1_in_r():
    return convert_basis(s1(), "R")


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: NcsfSeries(INT_RING, [{}], basis="X"), ValueError,
                 "unknown basis 'X'", id="series-basis"),
    pytest.param(lambda: s1() + s1().map_coefficients(lambda c: PolyT((c,)), POLYT_RING),
                 ValueError, "ring mismatch: int vs polyt", id="ring-mismatch"),
    pytest.param(lambda: s1() + s1_in_r(), ValueError, "basis mismatch: S vs R",
                 id="basis-mismatch"),
    pytest.param(lambda: series_mul(s1_in_r(), s1_in_r()), ValueError,
                 "products are computed in the S basis", id="mul-basis"),
    pytest.param(lambda: series_power_binomial(s1(), POLYT_ONE), ValueError,
                 "binomial power requires constant term 1", id="power-constant"),
    pytest.param(lambda: annihilate(s1(), 0), ValueError,
                 "annihilation index must be positive", id="annihilate-index"),
    pytest.param(lambda: convert_basis(s1(), "X"), ValueError, "unknown basis 'X'",
                 id="convert-basis"),
    pytest.param(lambda: negate_alphabet(s1_in_r()), ValueError,
                 "alphabet negation acts on the S basis", id="negate-basis"),
    pytest.param(lambda: phi_k(s1_in_r(), 2), ValueError, "phi_k acts on the S basis",
                 id="phi-basis"),
    pytest.param(lambda: phi_k(s1(), 0), ValueError, "k must be positive", id="phi-k"),
    pytest.param(lambda: lagrange_transform(solve_g(2), s1_in_r()), ValueError,
                 "the transform acts on the S basis", id="transform-basis"),
    pytest.param(lambda: right_divide(s1_in_r(), s1_in_r()), ValueError,
                 "right division is computed in the S basis", id="divide-basis"),
    pytest.param(lambda: right_divide(solve_g(2), s1()), ValueError,
                 "right division requires zero constant terms", id="divide-constant"),
    pytest.param(lambda: right_divide(s_series({}, 0), s_series({}, 0)), TruncationError,
                 "right division needs at least degree 1", id="divide-order"),
    pytest.param(lambda: geode(3, 0), ValueError, "corolla size k must be positive",
                 id="geode-k"),
    pytest.param(lambda: k_lagrange_by_phi(0, 3), ValueError, "phi route requires k >= 1",
                 id="phi-route-k"),
    pytest.param(lambda: theta_k_by_transform(0, 3), ValueError, "k must be at least 1",
                 id="transform-route-k"),
    pytest.param(lambda: g_e(3, "bogus"), ValueError, "unknown route 'bogus'",
                 id="g-e-route"),
    pytest.param(lambda: PolyT((1,)).scale_div(0), ZeroDivisionError,
                 "division of PolyT by zero scalar", id="scale-div-zero"),
    pytest.param(lambda: binomial_polynomial(-1, 2), ValueError,
                 "m and a must be nonnegative", id="binomial-polynomial"),
    pytest.param(lambda: elementary_of_multiple(-1, 2), ValueError,
                 "k and j must be nonnegative", id="elementary-of-multiple"),
    pytest.param(lambda: compositions(-1), ValueError, "n must be nonnegative",
                 id="compositions"),
    pytest.param(lambda: plane_tree_codes_with_nodes(0), ValueError,
                 "a tree has at least one node", id="tree-codes"),
    pytest.param(lambda: remove_last_corolla((1, 0), 0), ValueError,
                 "corolla size must be positive", id="remove-corolla"),
])
def test_refusals_raise_their_message(call, error, message):
    # raised, not asserted, so each check also holds under python -O
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_truncation_errors_are_loud():
    u = s_series({(1,): 1}, 2)
    with pytest.raises(TruncationError):
        u.component(5)
    with pytest.raises(TruncationError):
        u.truncate(4)
    with pytest.raises(TruncationError):
        annihilate(unit_series(INT_RING, 0), 1)


def test_negative_degree_and_parts_are_refused():
    # a negative index would read a component from the top of the tuple
    g = solve_g(3)
    with pytest.raises(ValueError, match="negative degree"):
        g.component(-1)
    for word in [(-1,), (2, 0), (4, -1), (2.0, 1), [1, True], (1.0, 1), (True, 1), (2.0,)]:
        with pytest.raises(ValueError, match="not a composition"):
            g.coefficient(word)
    # a view holds compositions only, though (True, 1) == (1.0, 1) == (1, 1)
    for word in [(1.0, 1), (True, 1), (2.0,)]:
        with pytest.raises(KeyError):
            g.component(2)[word]
        assert word not in g.component(2)
    assert g.coefficient(()) == 1
    assert g.coefficient((2, 1)) == g.coefficient([2, 1]) == 2


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("make", [lambda: solve_g(4), lambda: g_t(3),
                                  lambda: g_e(3), lambda: convert_basis(solve_g(3), "R")],
                         ids=["int", "polyt", "epoly", "int-ribbon"])
def test_series_copy_and_pickle_round_trip(make, how):
    u = make()
    back = {"copy": copy.copy, "deepcopy": copy.deepcopy,
            "pickle": lambda v: pickle.loads(pickle.dumps(v))}[how](u)
    assert back == u
    assert back.ring is u.ring and back.basis == u.basis
    with pytest.raises(TypeError):
        back.components[1][(1,)] = 7
    with pytest.raises(AttributeError, match="^NcsfSeries is immutable; cannot set 'ring'$"):
        back.ring = None
    with pytest.raises(AttributeError, match="^NcsfSeries is immutable; cannot delete 'ring'$"):
        del back.ring


def test_component_view_contract():
    # a view over one row: nonzero words only, in compositions order,
    # read-only, and equal to the dict of its items
    assert len(sigma1(INT_RING, 6).component(6)) == 1
    assert sigma1(INT_RING, 6).component(6) == {(6,): 1}
    comp = solve_g(6).component(6)
    assert len(comp) == 32
    with pytest.raises(TypeError):
        comp[(6,)] = 7
    for word in [(1, 5), (7,), (), (0, 6), (6, 0), (3, -1, 4), [6]]:
        assert sigma1(INT_RING, 6).component(6).get(word, 0) == 0
    assert list(comp) == compositions(6)
    assert list(comp.values()) == [comp[w] for w in compositions(6)]
    items = dict(comp.items())
    assert comp == items and items == comp and comp != {**items, (6,): 0}
    assert repr(comp) == repr(items)


@pytest.mark.parametrize("ring", [INT_RING, POLYT_RING])
def test_compose_against_powers_by_words(ring):
    # sum_n a_n b^n with b^n by chained products and a_n b^n word by word;
    # b has a constant term, so every power reaches every degree
    rng = random.Random(41)
    for _ in range(4):
        order_a, order_b = rng.sample(range(1, 7), 2)
        a, b = (random_series(rng, order, constant=rng.choice([0, 1, 2]))
                for order in (order_a, order_b))
        if ring is POLYT_RING:
            a, b = (u.map_coefficients(lambda c: PolyT((rng.randint(-2, 2), c)), ring)
                    for u in (a, b))
        order = min(order_a, order_b)
        expected = zero_series(ring, order)
        for n in range(order + 1):
            a_n = NcsfSeries(ring, [a.component(d) if d == n else {} for d in range(order + 1)])
            expected = expected + mul_by_words(a_n, series_power(b.truncate(order), n))
        assert compose(a, b) == expected, (order_a, order_b)
    with pytest.raises(ValueError):
        compose(convert_basis(a, "R"), convert_basis(b, "R"))
