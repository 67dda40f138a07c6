from fractions import Fraction

import pytest

from ncgeode.gfseries import PowerSeries, closed_form, prefix_check, specialize_ncsf
from ncgeode.lagrange import geode, solve_g
from ncgeode.schroeder import g_e
from ncgeode import fixtures as fx
from oracles import ribbon_ux

uni = PowerSeries.univariate


def test_sqrt_of_one_minus_4x():
    s = uni([1, -4], 3).sqrt()
    assert s == uni([1, -2, -2, -4])
    full = uni([1, -4], 8).sqrt()
    assert full * full == uni([1, -4], 8)


def test_sqrt_of_cardioid_radicand():
    s = uni([1, -6, 1], 2).sqrt()
    assert s == uni([1, -3, -4])
    full = uni([1, -6, 1], 9).sqrt()
    assert full * full == uni([1, -6, 1], 9)


def test_sqrt_requires_unit_constant():
    with pytest.raises(ValueError):
        uni([2, 1], 3).sqrt()


def test_divide_by_power_checks_valuation():
    with pytest.raises(ValueError):
        uni([1, 2], 3).divide_by_var(0, 1)
    assert uni([0, 0, 3, 1], 3).divide_by_var(0, 2) == uni([3, 1])


def test_closed_form_catalan():
    c = closed_form("catalan", 10)
    ok, idx = prefix_check(c, fx.A000108_CATALAN)
    assert ok, idx
    # defining quadratic x C^2 - C + 1 = 0
    x = uni([0, 1], 10)
    assert x * c * c - c + uni([1], 10) == uni([0], 10)


def test_closed_form_geode():
    gamma_x = closed_form("geode", 7)
    ok, idx = prefix_check(gamma_x, fx.A071724_GEODE_SUMS)
    assert ok, idx
    # gamma(x) = (C(x) - 1)(1 - x)/x re-derived from catalan
    c = closed_form("catalan", 8)
    alt = ((c - uni([1], 8)) * uni([1, -1], 8)).divide_by_var(0, 1)
    assert alt == gamma_x


def test_closed_form_ribbon_sum():
    s = closed_form("ribbon-sum", 9)
    ok, idx = prefix_check(s, fx.A239204_RIBBON_SUMS)
    assert ok, idx


def test_closed_form_lambda_sum():
    s = closed_form("lambda-sum", 10)
    ok, idx = prefix_check(s, fx.A238112_LAMBDA_SUMS)
    assert ok, idx


def test_closed_form_zq_low_terms():
    f = closed_form("zq", 4)
    assert f.coefficient(0, 0) == 1
    assert f.coefficient(1, 0) == 1
    assert f.coefficient(2, 0) == 1
    assert f.coefficient(2, 1) == 1
    assert f.coefficient(3, 1) == 3
    f5 = closed_form("zq", 5)
    assert f5.coefficient(3, 2) == 2


def test_specialize_catalan_and_coeff_sum():
    g = solve_g(10)
    ok, idx = prefix_check(specialize_ncsf(g, "catalan"), fx.A000108_CATALAN)
    assert ok, idx
    gam = geode(7)
    ok, idx = prefix_check(specialize_ncsf(gam, "coeff-sum"),
                           fx.A071724_GEODE_SUMS)
    assert ok, idx


def test_specialize_ribbon_u():
    gam = geode(9)
    ok, idx = prefix_check(specialize_ncsf(gam, "ribbon-u"),
                           fx.A239204_RIBBON_SUMS)
    assert ok, idx


def test_specialize_lambda_abs():
    gam = geode(10)
    ok, idx = prefix_check(specialize_ncsf(gam, "lambda-abs"),
                           fx.A238112_LAMBDA_SUMS)
    assert ok, idx


def test_lambda_abs_equals_absolute_lambda_coefficients():
    from ncgeode.ncsf import convert_basis
    gam = geode(8)
    spec = specialize_ncsf(gam, "lambda-abs")
    in_lambda = convert_basis(gam, "L")
    for n in range(9):
        assert spec.coefficient(n) == sum(abs(c) for c in
                                          in_lambda.component(n).values())


def test_ribbon_u_equals_ribbon_coefficient_sums():
    from ncgeode.ncsf import convert_basis
    gam = geode(8)
    spec = specialize_ncsf(gam, "ribbon-u")
    in_ribbon = convert_basis(gam, "R")
    for n in range(9):
        assert spec.coefficient(n) == sum(in_ribbon.component(n).values())


def test_ribbon_ux_satisfies_functional_equation():
    # the bivariate specialization G of g solves G = 1 + u x G / (1 - x G)
    g = solve_g(8)
    G = ribbon_ux(g)
    order = G.order
    x = PowerSeries({(1, 0): 1}, order)
    u = PowerSeries({(0, 1): 1}, order)
    one_minus_xg = PowerSeries({(0, 0): 1}, order) - x * G
    # multiplied through by the invertible 1 - x G
    assert G * one_minus_xg == one_minus_xg + u * x * G


def test_zq_specialization_matches_closed_form():
    ge = g_e(8)
    assert specialize_ncsf(ge, "zq") == closed_form("zq", 8)


def test_zq_column_sums_count_prime_trees():
    f = closed_form("zq", 10)
    for n in range(1, 6):
        total = sum(f.coefficient(n, j) for j in range(0, 10 - n + 1))
        assert total == fx.PRIME_SCHROEDER_COUNTS[n]


def test_specialization_is_multiplicative():
    import random
    from ncgeode.coeffring import INT_RING
    from ncgeode.combinat import compositions
    from ncgeode.ncsf import NcsfSeries, series_mul

    rng = random.Random(41)

    def make(order):
        comps = [{(): 1}]
        for n in range(1, order + 1):
            comps.append({I: rng.randint(-2, 2) for I in compositions(n)
                          if rng.random() < 0.5})
        return NcsfSeries(INT_RING, comps)

    for _ in range(5):
        a, b = make(5), make(5)
        prod = series_mul(a, b)
        for name in ("catalan", "lambda-abs"):
            sa = specialize_ncsf(a, name)
            sb = specialize_ncsf(b, name)
            assert specialize_ncsf(prod, name) == sa * sb


def test_prefix_check_reports_mismatch():
    s = uni([1, 2, 3])
    assert prefix_check(s, [1, 2, 3]) == (True, None)
    assert prefix_check(s, [1, 5]) == (False, 1)
    assert prefix_check(s, []) == (True, None)
    with pytest.raises(ValueError):
        prefix_check(s, [1, 2, 3, 4])


def test_biseries_arithmetic_and_truncation():
    a = PowerSeries({(0, 0): 1, (1, 1): Fraction(1, 2)}, 4)
    b = PowerSeries({(1, 0): 2}, 4)
    assert (a * b).terms == {(1, 0): Fraction(2), (2, 1): Fraction(1)}
    assert a.truncate(1).terms == {(0, 0): Fraction(1)}
    with pytest.raises(ValueError):
        a.truncate(9)


def test_zq_closed_form_at_q_one_gives_large_schroeder_numbers():
    zq = closed_form("zq", 13)
    sums = [sum(c for (i, _), c in zq.terms.items() if i == n) for n in range(1, 8)]
    assert sums == fx.A006318_LARGE_SCHROEDER
