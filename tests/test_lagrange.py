import random
from fractions import Fraction

import pytest

from ncgeode.coeffring import (INT_RING, POLYT_ONE, POLYT_RING, POLYT_ZERO, PolyT,
                               binomial_polynomial)
from ncgeode.combinat import (catalan, compositions, iter_lukasiewicz,
                              nonzero_letters, shift_words, trailing_zeros,
                              tree_code_coefficient, tree_code_prefix_sums)
from ncgeode.lagrange import (delta_coefficient, divisibility_check,
                              eta_identities, eta_t, free_cumulant_equation_holds,
                              free_cumulant_routes, free_cumulants, g_t, gamma_t,
                              geode, geode_by_division, gessel_gamma, h_t,
                              k_lagrange_by_phi, k_lagrange_direct,
                              prime_series, solve_g, specialize_t,
                              theta_k_by_transform, theta_t)
from ncgeode.ncsf import (NcsfSeries, NotDivisibleError, annihilate, graded_power,
                          right_divide, series_inverse, series_mul, sigma1,
                          unit_series)
from ncgeode.schroeder import g_e, gamma_e, solve_xy_system
from ncgeode import fixtures as fx
from ncgeode import lagrange, schroeder
from oracles import (g_from_trees, generator, k_lagrange_by_powers, map_words,
                     lukasiewicz_root_children, polyt_binomial, series_power,
                     shift_t, tree_code_sum, zero_series)


def test_g_low_degrees():
    g = solve_g(3)
    for n, expected in fx.G_LOW.items():
        assert g.component(n) == expected


def test_g_solves_defining_equation():
    order = 10
    g = solve_g(order)
    acc = zero_series(INT_RING, order)
    for m in range(1, order + 1):
        acc = acc + series_mul(generator(INT_RING, m, order), series_power(g, m))
    assert acc == g - unit_series(INT_RING, order)


def test_g_matches_tree_enumeration():
    assert solve_g(8) == g_from_trees(8)


def test_g_coefficient_sums_are_catalan():
    g = solve_g(10)
    for n in range(11):
        assert sum(g.component(n).values()) == catalan(n)


def test_geode_low_degrees():
    gam = geode(3)
    for n, expected in fx.GAMMA_LOW.items():
        assert gam.component(n) == expected


def test_geode_routes_agree():
    gam = geode(8)
    for k in (2, 3, 4):
        assert geode(8, k) == gam
    assert geode_by_division(8) == gam


def test_geode_coefficient_sums():
    gam = geode(7)
    sums = [sum(gam.component(n).values()) for n in range(8)]
    assert sums == fx.A071724_GEODE_SUMS


def test_geode_coefficients_count_trailing_zeros():
    gam = geode(7)
    for n in range(8):
        by_zeros = {}
        by_shifts = {}
        for code in iter_lukasiewicz(n):
            word = nonzero_letters(code)
            by_zeros[word] = by_zeros.get(word, 0) + trailing_zeros(code)
            by_shifts[word] = by_shifts.get(word, 0) + len(shift_words(code))
        by_zeros = {w: c for w, c in by_zeros.items() if c}
        by_shifts = {w: c for w, c in by_shifts.items() if c}
        assert gam.component(n) == by_zeros, n
        assert gam.component(n) == by_shifts, n


def test_gessel_formula():
    assert gessel_gamma(8) == geode(8)
    assert gessel_gamma(1).component(1) == {(1,): 1}
    assert gessel_gamma(2).component(2) == {(2,): 2, (1, 1): 1}


def test_prime_series_low_degrees():
    h, eta = prime_series(3)
    assert h.component(2) == {(2,): 1}
    assert h.component(3) == {(3,): 1, (2, 1): 1}
    assert eta.component(2) == {(2,): 1}


def test_prime_series_is_one_minus_the_inverse_of_g():
    # h is read off g by the word map S_m w -> S_{m+1} w, 1 -> S_1
    for order in (0, 13):
        h = unit_series(INT_RING, order + 1) - series_inverse(solve_g(order + 1))
        assert prime_series(order) == (h.truncate(order), annihilate(h, 1)), order


def test_prime_series_counts_trees_with_leaf_last_subtree():
    # h_n sums the codes whose rightmost root subtree is a leaf
    h, _ = prime_series(6)
    for n in range(1, 7):
        counts = {}
        for code in iter_lukasiewicz(n):
            if lukasiewicz_root_children(code)[-1] == (0,):
                word = nonzero_letters(code)
                counts[word] = counts.get(word, 0) + 1
        assert h.component(n) == counts, n
    assert h.component(6).get((4, 2)) == 3


def test_eta_identities_all_pass():
    assert all(eta_identities(6).values())


def test_delta_coefficient_examples():
    assert delta_coefficient((2, 1, 1)) == fx.DELTA_211
    assert delta_coefficient((5,)) == PolyT([1])
    assert delta_coefficient((1, 1, 1, 1)) == fx.DELTA_1111


@pytest.mark.parametrize("n", range(11))
def test_packed_gamma_t_is_the_walk_over_polyt_tables(n):
    # every slot of the packed walk, times j! and unpacked over j!, equals
    # the same walk over the PolyT factor built from binomial_polynomial
    rows = tree_code_prefix_sums(n, polyt_binomial, POLYT_ONE, POLYT_ZERO)
    assert gamma_t.__wrapped__(n) == NcsfSeries._of(POLYT_RING, rows)


def test_packed_delta_coefficient_is_the_polyt_path():
    # random compositions through degree 30, each cut taken with odds 1/2
    rng = random.Random(28)
    words = [(2,) + (1,) * 38, (30,), (1,) * 30, (29, 1), (1, 29)]
    for _ in range(24):
        n = rng.randint(1, 30)
        cuts = [c for c in range(1, n) if rng.random() < 0.5]
        words.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [n])))
    for comp in words:
        expected = tree_code_coefficient(comp, polyt_binomial, POLYT_ONE, POLYT_ZERO)
        assert delta_coefficient.__wrapped__(comp) == expected, comp
    assert delta_coefficient.__wrapped__(()) == POLYT_ONE


def test_packed_walks_multiply_no_polynomials(monkeypatch):
    # the walks and theta's integer quotient run with PolyT products refused,
    # theta^(t) by PolyT division taken before; binomial_polynomial
    # multiplies PolyT, so it is refused
    def refuse(*args):
        raise AssertionError("a PolyT product in the packed walk")
    expected = _theta_by_division(9)
    monkeypatch.setattr(PolyT, "__mul__", refuse)
    monkeypatch.setattr(PolyT, "__rmul__", refuse)
    assert gamma_t.__wrapped__(9).order == 9
    assert theta_t.__wrapped__(9) == expected
    assert delta_coefficient.__wrapped__((2, 1, 1)) == fx.DELTA_211
    with pytest.raises(AssertionError, match="PolyT product"):
        binomial_polynomial(2, 3)


def test_one_walk_serves_every_lower_order(monkeypatch):
    # a walk through n holds every lower order: after the geode through 8,
    # every series read off that walk is its truncation, and a higher order
    # walks exactly once; each equals the series built with empty caches
    walks = []

    def counted(walk):
        return lambda n, *rest: walks.append(n) or walk(n, *rest)

    for module in lagrange, schroeder:
        monkeypatch.setattr(module, "tree_code_prefix_sums",
                            counted(module.tree_code_prefix_sums))
    families = (((gamma_t, g_t), [(gamma_t, 8), (g_t, 9), (h_t, 10), (eta_t, 9)]),
                ((gamma_e,), [(gamma_e, 8), (lambda k: g_e(k, "delta"), 9)]))

    def cleared(caches):
        for cache in caches:
            cache.cache_clear()

    for caches, reads in families:
        for series, top in reads:
            for k in range(top + 3):
                cleared(caches)
                fresh = series(k)
                cleared(caches)
                caches[0](8)
                walks.clear()
                assert series(k) == fresh, (series, k)
                # the geode through k - top + 8 is walked only above 8
                assert walks == ([k - top + 8] if k > top else []), (series, k)
    assert gamma_t(5) == gamma_t.__wrapped__(5) and gamma_e(5) == gamma_e.__wrapped__(5)


def test_g_t_at_one_is_g_through_degree_10():
    assert specialize_t(g_t(10), 1) == solve_g(10)


def test_cached_series_are_read_only():
    g = solve_g(4)
    with pytest.raises(TypeError):
        g.components[1][(1,)] = 7
    with pytest.raises(TypeError):
        g.component(2)[(2,)] = 7
    with pytest.raises(AttributeError):
        g.components = ()
    assert solve_g(4).components[1] == {(1,): 1}
    assert geode(3).coefficient(()) == 1


@pytest.fixture
def ungrown_g(monkeypatch):
    # an ungrown g, whatever earlier tests asked for: its rows and the memo
    # of its powers, and no order cached from them once the test is done
    monkeypatch.setattr(lagrange, "_g_rows", [(1,)])
    monkeypatch.setattr(lagrange, "_g_powers", {})
    solve_g.cache_clear()
    yield
    solve_g.cache_clear()


def test_grown_g_is_the_same_in_any_request_order(ungrown_g):
    trees = g_from_trees(8)
    orders = (9, 4, 14, 6, 12)
    for n in orders:
        g = solve_g(n)
        assert g == k_lagrange_direct(1, n)
        assert g.truncate(min(n, 8)) == trees.truncate(min(n, 8))
        with pytest.raises(TypeError):
            g.components[n][(n,)] = 7
        # g grew to the highest order asked for, and was never rebuilt
        grown = max(orders[: orders.index(n) + 1]) + 1
        assert len(lagrange._g_rows) == grown
    solve_g.cache_clear()
    for n in orders:
        assert solve_g(n) == k_lagrange_direct(1, n)


def test_grown_powers_are_their_convolutions(ungrown_g):
    # growing g by its first letter keeps (g^m)_d for m >= 2, d >= 1 and
    # m + d <= order, each equal to the row that graded_power convolves
    # from the rows of g alone, with a memo of its own
    solve_g(12)
    assert set(lagrange._g_powers) == {(m, d) for m in range(2, 13) for d in range(1, 13 - m)}
    for (m, d), row in lagrange._g_powers.items():
        assert row == graded_power(lagrange._g_rows, m, d, {}, 1, 0), (m, d)


def test_gessel_gamma_reads_every_positive_degree_off_the_grown_powers(ungrown_g):
    # only the one-slot rows (g^j)_0 are new to the memo
    solve_g(10)
    grown = set(lagrange._g_powers)
    gamma = gessel_gamma(10)
    assert set(lagrange._g_powers) - grown == {(j, 0) for j in range(2, 10)}
    assert gamma == geode(10)


def test_solve_g_equals_the_direct_route_at_18():
    # the first-letter growth against the x/y system, which convolves
    assert solve_g(18) == k_lagrange_direct(1, 18)


def test_solve_g_shares_the_grown_components():
    # every order, and every truncation of it, hands out the grown rows
    # themselves rather than a copy, and g is kept once: lagrange holds its
    # rows as tuples and no per-degree dict of words
    g = solve_g(14)
    assert all(row is grown for row, grown in zip(g._rows, lagrange._g_rows))
    assert solve_g(12)._rows[5] is g._rows[5] is g.truncate(12)._rows[5]
    assert all(type(row) is tuple for row in lagrange._g_rows)
    stores = [value for name, value in vars(lagrange).items()
              if name.startswith("_g") and not callable(value)]
    assert stores == [lagrange._g_rows, lagrange._g_powers]


@pytest.mark.parametrize("call", [
    lambda: solve_g(-1),
    lambda: k_lagrange_by_phi(2, -1),
    lambda: solve_g(3).truncate(-1),
    lambda: k_lagrange_direct(2, -3),
    lambda: gessel_gamma(-1),
    lambda: free_cumulants(-1),
    lambda: g_e(-1, "system"),
    lambda: g_e(-1, "trees"),
    lambda: solve_xy_system(-1, INT_RING, int),
    lambda: unit_series(INT_RING, -1),
    lambda: sigma1(INT_RING, -1),
    lambda: geode(-1),
    lambda: geode_by_division(-1),
    lambda: eta_t(-1),
    lambda: theta_t(-1),
    lambda: g_t(-1),
    lambda: gamma_t(-1),
    lambda: h_t(-1),
    lambda: gamma_e(-1),
    lambda: divisibility_check(2, -1),
], ids=["solve_g", "k_lagrange_by_phi", "truncate", "k_lagrange_direct",
        "gessel_gamma", "free_cumulants", "g_e_system", "g_e_trees",
        "solve_xy_system", "unit_series", "sigma1", "geode", "geode_by_division",
        "eta_t", "theta_t", "g_t", "gamma_t", "h_t", "gamma_e", "divisibility_check"])
def test_negative_orders_are_refused(call):
    # no series is exact through a negative degree; the refusal names the
    # order the caller gave (k_lagrange_direct is called with -3), not a
    # multiple of it or a degree derived from it
    with pytest.raises(ValueError, match=r"order must be nonnegative, got -[13]$"):
        call()


def test_cached_polyt_coefficients_are_read_only():
    coeff = g_t(3).components[2][(1, 1)]
    with pytest.raises(AttributeError):
        coeff.coeffs = (9,)
    with pytest.raises(AttributeError):
        del coeff.coeffs
    assert delta_coefficient((1, 1)) == PolyT([0, 1])


def test_g_t_tables():
    gt = g_t(4)
    for n, expected in fx.G_T_TABLE.items():
        assert gt.component(n) == expected


def test_g_t_at_one_is_g():
    assert specialize_t(g_t(6), 1) == solve_g(6)


def test_k_lagrange_routes_agree():
    gt = g_t(4)
    for k in (1, 2, 3):
        direct = k_lagrange_direct(k, 4)
        assert direct == k_lagrange_by_phi(k, 4)
        assert direct == specialize_t(gt, k)


def test_k_lagrange_direct_matches_t_series_at_every_level():
    # every k, negative too, solves the one system with y = (1 + x)^k
    gt = g_t(6)
    for k in range(-3, 4):
        assert k_lagrange_direct(k, 6) == specialize_t(gt, k), k


def test_zero_level_is_sigma1():
    assert k_lagrange_direct(0, 6) == sigma1(INT_RING, 6)


@pytest.mark.parametrize("k", range(-6, 9))
def test_k_lagrange_direct_matches_the_power_oracle(k):
    # the oracle takes powers of w, or of its inverse for k < 0, up to |k|
    # times the degree; the system takes none above the degree
    assert k_lagrange_direct(k, 8) == k_lagrange_by_powers(k, 8)


@pytest.mark.parametrize("k, order", [(1500, 1), (3000, 2), (-2000, 2)])
def test_k_lagrange_direct_at_huge_levels(k, order):
    # powers up to |k| times the order would take one frame per factor,
    # past the default recursion limit
    assert k_lagrange_direct(k, order) == specialize_t(g_t(order), k)


def test_system_with_binomial_coefficients_over_polyt_is_g_t():
    # c_m = C(t, m) makes y = (1 + x)^t, so 1 + x is g^(t) as polynomials in
    # t; the prefix walk of g_t shares no code with the system
    x = solve_xy_system(9, POLYT_RING, lambda m: binomial_polynomial(1, m)).x
    assert unit_series(POLYT_RING, 9) + x == g_t(9)


def test_free_cumulants():
    routes = free_cumulant_routes(7)
    vals = list(routes.values())
    assert vals[0] == vals[1] == vals[2]
    assert vals[0].component(2) == {(2,): 1, (1, 1): -1}
    assert vals[0].component(3) == fx.FREE_CUMULANTS_LOW[3]
    assert free_cumulant_equation_holds(7)


def test_gamma_t_tables():
    gmt = gamma_t(4)
    for n, expected in fx.GAMMA_T_TABLE.items():
        assert gmt.component(n) == expected


def g_t_by_compositions(order):
    # g^(t) with one tree-code DP per composition, apart from the prefix walk
    return NcsfSeries(POLYT_RING, [{(): POLYT_ONE}] + [
        {I: tree_code_sum(I, lambda a, i: binomial_polynomial(i, a), POLYT_ONE, POLYT_ZERO)
         for I in compositions(n)} for n in range(1, order + 1)])


def test_gamma_t_equals_right_division_through_degree_8():
    # the exact right quotient (g^(t) - 1) / (sigma_1 - 1) and the words of
    # g^(t) ending in 1, both of the per-composition g^(t), as the oracles
    g = g_t_by_compositions(9)
    assert g == g_t(9)
    one = unit_series(POLYT_RING, 9)
    quotient = right_divide(g - one, sigma1(POLYT_RING, 9) - one)
    assert quotient.order == 8
    assert annihilate(g, 1) == quotient
    for n in range(9):
        assert gamma_t(n) == quotient.truncate(n), n


def test_g_t_equals_k_series_as_polynomials():
    # every coefficient of g_t(8) has t-degree <= 7, so the eight points
    # k = 0..7 pin it down; k = -1..-8 check the free-cumulant side too
    gt = g_t(8)
    assert max(len(c.num) - 1 for comp in gt.components for c in comp.values()) <= 7
    for k in [*range(8), *range(-1, -9, -1)]:
        assert specialize_t(gt, k) == k_lagrange_direct(k, 8), k


def test_gamma_t_specializes_to_geode():
    assert specialize_t(gamma_t(8), 1) == geode(8)


def test_gamma_t_at_integers_is_phi_of_geode():
    from ncgeode.ncsf import phi_k
    gmt = gamma_t(4)
    for k in (2, 3):
        assert specialize_t(gmt, k) == phi_k(geode(4 * k), k)


def test_gamma_t_corolla_independence_observed():
    # suggested by the tables and verified here at small scale; not a
    # claimed theorem for symbolic t.  Through degree 4, gamma^(t) and
    # g^(t) S_k^{-1} have coefficients of t-degree <= 4, so t = 0..4 pin
    # down their equality; the integer k-series is solved without the walk
    gmt = gamma_t(4)
    assert max(len(c.num) - 1 for comp in gmt.components for c in comp.values()) <= 4
    for j in range(5):
        for k in (1, 2, 3):
            assert specialize_t(gmt, j) == annihilate(k_lagrange_direct(j, 4 + k), k), (j, k)


def test_theta_t_tables():
    tht = theta_t(4)
    for n, expected in fx.THETA_T_TABLE.items():
        assert tht.component(n) == expected


def _theta_by_division(n: int) -> NcsfSeries:
    """The definition (g^(t) - 1) / (g^(t-1) - 1), by right division."""
    g = g_t(n + 1)
    one = unit_series(POLYT_RING, n + 1)
    return right_divide(g - one, shift_t(g) - one)


@pytest.mark.parametrize("n", range(11))
def test_theta_t_is_the_right_quotient_of_the_levels(n):
    assert theta_t(n) == _theta_by_division(n)


def test_theta_t_hands_right_divide_no_t_series(monkeypatch):
    # theta^(t) is one right quotient of two walks: no product, inverse or
    # right division by a series over polynomials in t
    expected = _theta_by_division(5)

    def refuse(*args):
        raise AssertionError("theta_t called a product, inverse or right division")

    for name in ("right_divide", "series_mul", "series_inverse"):
        monkeypatch.setattr(lagrange, name, refuse)
    assert theta_t.__wrapped__(5) == expected


def test_theta_t_is_served_from_its_longest_quotient(monkeypatch):
    # a repeated or lower order runs no walk, each truncation equals a fresh
    # quotient, and a caller cannot change the series that is kept
    walks = []
    walk = lagrange.tree_code_prefix_sums
    monkeypatch.setattr(lagrange, "tree_code_prefix_sums",
                        lambda n, *rest: walks.append(n) or walk(n, *rest))
    theta_t.cache_clear()
    kept = theta_t(7)
    assert walks == [7, 7]
    served = {k: theta_t(k) for k in (7, 6, 4, 0)}
    assert walks == [7, 7]
    for k, series in served.items():
        assert series == theta_t.__wrapped__(k), k
    with pytest.raises(TypeError):
        kept.components[2][(2,)] = POLYT_ZERO
    with pytest.raises(TypeError):
        served[4].component(1)[(1,)] = POLYT_ZERO
    with pytest.raises(AttributeError):
        kept.components = ()
    walks.clear()
    assert theta_t(7) == theta_t.__wrapped__(7)
    assert walks == [7, 7]
    theta_t(8)
    assert walks == [7, 7, 8, 8]


def test_theta_t_at_one_is_geode():
    assert specialize_t(theta_t(4), 1) == geode(4)


def test_theta_t_past_the_width_of_gamma_t_is_geode_at_one():
    # at degree 15 a digit of j! theta_w takes 72 bits, and a balanced
    # digit at the width of gamma_t holds 71: only theta's own width reads it
    assert specialize_t(theta_t(15), 1) == geode(15)


def test_theta_matches_lagrange_transform_route():
    tht = theta_t(5)
    for k in (2, 3):
        assert specialize_t(tht, k) == theta_k_by_transform(k, 5)


def test_h_t_and_eta_t_tables():
    ht = h_t(4)
    for n, expected in fx.H_T_TABLE.items():
        assert ht.component(n) == expected
    et = eta_t(4)
    for n, expected in fx.ETA_T_TABLE.items():
        assert et.component(n) == expected


def test_h_t_reduces_to_prime_series():
    h, eta = prime_series(8)
    assert specialize_t(h_t(8), 1) == h
    assert specialize_t(eta_t(8), 1) == eta


def test_eta_is_the_geode_with_its_first_part_raised():
    # the word map S_m w -> S_{m+1} w, 1 -> 1 sends gamma to eta and
    # gamma^(t) to eta^(t), with no annihilation
    def raised(word):
        return (((word[0] + 1,) + word[1:] if word else (), 1),)
    for n in range(1, 11):
        assert prime_series(n)[1] == map_words(geode(n - 1), raised, n), n
        assert eta_t(n) == map_words(gamma_t(n - 1), raised, n), n


def test_h_t_at_two_matches_integer_power_formula():
    # (g^(2) - 1) (g^(2))^{-2} with plain integer powers cross-checks the
    # binomial-power route at a point where the exponent is not 0 or 1
    g2 = specialize_t(g_t(4), 2)
    expected = series_mul(g2 - unit_series(INT_RING, 4), series_power(g2, -2))
    assert specialize_t(h_t(4), 2) == expected


def test_h_t_equals_binomial_power_route_through_degree_8():
    # the product form (g^(t) - 1) (g^(t))^{-t} on the binomial-power kernel
    from ncgeode.ncsf import series_power_binomial
    g = g_t(8)
    product_form = series_mul(g - unit_series(POLYT_RING, 8),
                              series_power_binomial(g, PolyT([0, -1])))
    for n in range(9):
        assert h_t(n) == product_form.truncate(n), n


def test_h_t_equals_integer_power_route_as_polynomials_at_degree_10():
    # a coefficient at I has t-degree at most len(I) - 1 <= 9, so agreeing
    # with (g^(k) - 1) (g^(k))^{-k} at the ten points k = 0..9 proves h^(t)
    # equal as polynomials; the integer route runs no tree-code walk
    ht = h_t(10)
    assert all(len(c.num) <= len(w) for comp in ht.components for w, c in comp.items())
    for k in range(10):
        gk = k_lagrange_direct(k, 10)
        expected = series_mul(gk - unit_series(INT_RING, 10), series_power(gk, -k))
        assert specialize_t(ht, k) == expected, k


def test_h_t_equals_shifted_power_sum():
    # h^(t) = sum_{n>=1} S_n (g^(t))^{t(n-1)}, the closed product form
    from ncgeode.ncsf import series_power_binomial
    order = 5
    gt = g_t(order)
    acc = zero_series(POLYT_RING, order)
    for m in range(1, order + 1):
        powered = series_power_binomial(gt, PolyT([0, m - 1]))
        acc = acc + series_mul(generator(POLYT_RING, m, order), powered)
    assert acc == h_t(order)


def test_divisibility_check():
    reports = divisibility_check(3, 5)
    assert all(r["divides"] and r["nonnegative"] for r in reports)
    assert reports[0]["quotient"] == geode(5)
    # level 2 evaluates the step quotient at t=2
    assert reports[1]["quotient"].component(2) == {(2,): 2, (1, 1): 3}


def test_divisibility_check_reports_a_remainder(monkeypatch):
    def refuse(v, u):
        raise NotDivisibleError("residual term at degree 2 does not end in 1")
    monkeypatch.setattr(lagrange, "right_divide", refuse)
    reports = divisibility_check(3, 5)
    assert [r["k"] for r in reports] == [1, 2, 3]
    for r in reports:
        assert r["divides"] is False and r["quotient"] is None
        assert not r["nonnegative"] and r["order"] == 5


def test_positivity_of_hierarchy_series():
    gam = geode(6)
    _, eta = prime_series(6)
    series_list = [gam, eta] + [r["quotient"] for r in divisibility_check(3, 5)]
    for s in series_list:
        for comp in s.components:
            assert all(c >= 0 for c in comp.values())


def test_specialize_t_rejects_non_integer():
    with pytest.raises(ValueError):
        specialize_t(g_t(3), Fraction(1, 2))
