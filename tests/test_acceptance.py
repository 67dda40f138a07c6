"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass line so a verbose run doubles as a checklist.
All comparisons are identities; there are no numeric tolerances anywhere.
"""

from collections import Counter
from ncgeode import fixtures as fx
from ncgeode.coeffring import EPoly, INT_RING, PolyT, epoly_evaluate
from ncgeode.combinat import (catalan, compositions, iter_lukasiewicz,
                              nonzero_letters, parking_quasi_ribbons,
                              remove_last_corolla, shift_words, trailing_zeros)
from ncgeode.gfseries import closed_form, prefix_check, specialize_ncsf
from ncgeode.lagrange import (divisibility_check, eta_identities, eta_t,
                              free_cumulant_equation_holds,
                              free_cumulant_routes, g_t, gamma_t, geode,
                              geode_by_division, gessel_gamma, h_t,
                              k_lagrange_by_phi, k_lagrange_direct,
                              solve_g, specialize_t,
                              theta_k_by_transform, theta_t)
from ncgeode.ncsf import (annihilate, convert_basis, series_mul, sigma1,
                          unit_series)
from ncgeode.schroeder import enumerate_prime_schroeder, g_e, gamma_e
from oracles import decrement_last_part, drop_last_part, series_power


def _done(n, label):
    print(f"criterion {n:02d} ({label}): PASS")


def test_criterion_01_lagrange_series():
    g = solve_g(10)
    for n, expected in fx.G_LOW.items():
        assert g.component(n) == expected
    for n in range(11):
        assert sum(g.component(n).values()) == catalan(n)
    _done(1, "Lagrange series")


def test_criterion_02_geode():
    gam = geode(8)
    for n, expected in fx.GAMMA_LOW.items():
        assert gam.component(n) == expected
    for k in (2, 3, 4):
        assert geode(8, k) == gam
    assert geode_by_division(8) == gam
    sums = [sum(geode(7).component(n).values()) for n in range(8)]
    assert sums == fx.A071724_GEODE_SUMS
    _done(2, "geode routes and sums")


def test_criterion_03_basis_expansions():
    gam = geode(10)
    assert convert_basis(gam.truncate(3), "R").component(3) == fx.GAMMA3_RIBBON
    assert convert_basis(gam.truncate(3), "L").component(3) == fx.GAMMA3_LAMBDA

    in_ribbon = convert_basis(gam.truncate(9), "R")
    ribbon_sums = [sum(in_ribbon.component(n).values()) for n in range(10)]
    assert ribbon_sums == fx.A239204_RIBBON_SUMS
    ok, idx = prefix_check(specialize_ncsf(gam.truncate(9), "ribbon-u"),
                           fx.A239204_RIBBON_SUMS)
    assert ok, idx
    ok, idx = prefix_check(closed_form("ribbon-sum", 9), fx.A239204_RIBBON_SUMS)
    assert ok, idx

    in_lambda = convert_basis(gam, "L")
    lambda_sums = [sum(abs(c) for c in in_lambda.component(n).values())
                   for n in range(11)]
    assert lambda_sums == fx.A238112_LAMBDA_SUMS
    ok, idx = prefix_check(specialize_ncsf(gam, "lambda-abs"),
                           fx.A238112_LAMBDA_SUMS)
    assert ok, idx
    ok, idx = prefix_check(closed_form("lambda-sum", 10), fx.A238112_LAMBDA_SUMS)
    assert ok, idx
    _done(3, "R and L expansions, both routes")


def test_criterion_04_quasi_ribbon_oracle():
    gam_r = convert_basis(geode(6), "R")
    for n in range(1, 7):
        for I in compositions(n):
            count = len(parking_quasi_ribbons(I + (1,)))
            assert count == gam_r.component(n).get(I, 0), I
    _done(4, "parking quasi-ribbon counts")


def test_criterion_05_gessel():
    assert gessel_gamma(8) == geode(8)
    _done(5, "inversion formula")


def test_criterion_06_eta_identities():
    assert all(eta_identities(8).values())
    _done(6, "prime-series identities")


def test_criterion_07_t_hierarchy():
    from ncgeode.lagrange import delta_coefficient
    assert delta_coefficient((2, 1, 1)) == fx.DELTA_211

    gt = g_t(5)
    for n, expected in fx.G_T_TABLE.items():
        assert gt.component(n) == expected
    gmt = gamma_t(4)
    for n, expected in fx.GAMMA_T_TABLE.items():
        assert gmt.component(n) == expected
    tht = theta_t(5)
    for n, expected in fx.THETA_T_TABLE.items():
        assert tht.component(n) == expected
    ht = h_t(4)
    for n, expected in fx.H_T_TABLE.items():
        assert ht.component(n) == expected
    et = eta_t(4)
    for n, expected in fx.ETA_T_TABLE.items():
        assert et.component(n) == expected

    for k in (1, 2, 3):
        direct = k_lagrange_direct(k, 4)
        assert direct == k_lagrange_by_phi(k, 4)
        assert direct == specialize_t(g_t(4), k)
    assert k_lagrange_direct(0, 5) == sigma1(INT_RING, 5)

    reports = divisibility_check(3, 5)
    assert all(r["divides"] and r["nonnegative"] for r in reports)

    for k in (2, 3):
        assert specialize_t(tht, k) == theta_k_by_transform(k, 5)
    _done(7, "t-hierarchy tables and routes")


def test_criterion_08_free_cumulants():
    routes = free_cumulant_routes(7)
    assert routes["alphabet-negation-inverse"] == routes["direct-recursion"]
    assert routes["direct-recursion"] == routes["t-specialization"]
    assert free_cumulant_equation_holds(7)
    sign_spec = g_e(6).map_coefficients(
        lambda c: epoly_evaluate(c, "sign"), INT_RING)
    assert sign_spec == free_cumulant_routes(6)["t-specialization"]
    _done(8, "free cumulant routes")


def test_criterion_09_e_series():
    ge = g_e(8)
    for n, expected in fx.G_E_TABLE.items():
        assert ge.component(n) == expected
    gme = gamma_e(4)
    for n, expected in fx.GAMMA_E_TABLE.items():
        assert gme.component(n) == expected
    assert g_e(6, "delta") == g_e(6, "system") == g_e(6, "trees")
    # the trees route enumerates prime trees, apart from the prefix walk
    trees = g_e(8, "trees")
    assert all(annihilate(trees, k) == gamma_e(8 - k) for k in (1, 2, 3))
    for n in range(1, 6):
        count = len(enumerate_prime_schroeder(n))
        assert count == fx.PRIME_SCHROEDER_COUNTS[n]
        total = sum(ge.component(n).values(), start=EPoly())
        assert epoly_evaluate(total, "one") == count
    assert specialize_ncsf(ge, "zq") == closed_form("zq", 8)
    _done(9, "e-series tables and routes")


def test_criterion_10_combinatorial_interpretations():
    gam = geode(7)
    for n in range(8):
        by_zeros = Counter()
        by_shifts = Counter()
        for code in iter_lukasiewicz(n):
            word = nonzero_letters(code)
            by_zeros[word] += trailing_zeros(code)
            by_shifts[word] += len(shift_words(code))
        assert gam.component(n) == {w: c for w, c in by_zeros.items() if c}
        assert gam.component(n) == {w: c for w, c in by_shifts.items() if c}

    for n in range(8):
        bags = []
        for k in range(1, 5):
            bag = Counter()
            for code in iter_lukasiewicz(n + k):
                out = remove_last_corolla(code, k)
                if out is not None:
                    bag[out] += 1
            bags.append(bag)
        assert all(b == bags[0] for b in bags[1:]), n
    _done(10, "tree statistics behind the geode")


def test_criterion_11_property_suites():
    import random
    from ncgeode.ncsf import NcsfSeries

    rng = random.Random(99)

    def random_series(order, constant):
        comps = [{(): constant} if constant else {}]
        for n in range(1, order + 1):
            comps.append({I: rng.randint(-3, 3) for I in compositions(n)
                          if rng.random() < 0.6})
        return NcsfSeries(INT_RING, comps)

    # basis round trips on all compositions of weight <= 8
    u = NcsfSeries(INT_RING, [{(): 1}] + [
        {I: 1 for I in compositions(n)} for n in range(1, 9)])
    for a in ("R", "L"):
        assert convert_basis(convert_basis(u, a), "S") == u

    # annihilation / conversion commutation holds at index 1: the termwise
    # R and L rules on the converted series equal the S-basis operator
    v = random_series(8, 0)
    assert convert_basis(annihilate(v, 1), "R") == \
        drop_last_part(convert_basis(v, "R"), 1)
    assert convert_basis(annihilate(v, 1), "L") == \
        decrement_last_part(convert_basis(v, "L"))

    # derivation-like rule for the index-1 annihilator
    for _ in range(4):
        a = random_series(6, rng.randint(-2, 2))
        b = random_series(6, rng.randint(-2, 2))
        b0 = b.component(0).get((), 0)
        assert annihilate(series_mul(a, b), 1) == \
            series_mul(a, annihilate(b, 1)).truncate(5) + \
            annihilate(a, 1).scale(b0)

    # homomorphism checks for the coefficient evaluations
    for _ in range(5):
        x = EPoly({(1,): rng.randint(-2, 2), (2, 1): rng.randint(-2, 2)})
        y = EPoly({(): rng.randint(-2, 2), (1, 1): rng.randint(-2, 2)})
        for rule in ("sign", "one", "q"):
            assert epoly_evaluate(x * y, rule) == \
                epoly_evaluate(x, rule) * epoly_evaluate(y, rule)

    # sign/conjugation identity, stated for the Lagrange series only
    from ncgeode.combinat import conjugate
    g7 = solve_g(7)
    in_l = convert_basis(g7, "L")
    in_r = convert_basis(g7, "R")
    for n in range(8):
        for I in compositions(n):
            assert in_l.component(n).get(I, 0) == \
                (-1) ** (n - len(I)) * in_r.component(n).get(conjugate(I), 0)

    # binomial powers at nonnegative integer constants
    from ncgeode.ncsf import series_power_binomial
    from ncgeode.coeffring import POLYT_RING
    gt6 = solve_g(6).map_coefficients(lambda c: PolyT((c,)), POLYT_RING)
    for k in range(5):
        assert series_power_binomial(gt6, PolyT((k,))) == series_power(gt6, k)

    # right division is exact whenever it succeeds
    gam = geode_by_division(6)
    sig = sigma1(INT_RING, 6) - unit_series(INT_RING, 6)
    assert series_mul(gam, sig) == (solve_g(7) - unit_series(INT_RING, 7)).truncate(6)
    _done(11, "module property suites")
