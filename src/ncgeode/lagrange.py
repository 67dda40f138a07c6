"""The noncommutative Lagrange series, the geode, and their k/t hierarchy.

The Lagrange series g is the unique solution with g_0 = 1 of

    g = 1 + sum_{m >= 1} S_m g^m          (S factors on the left),

so [S^I] g_n counts plane trees on n+1 nodes whose nonzero arities in prefix
order spell I.  The geode gamma satisfies g = 1 + gamma (sigma_1 - 1) and is
also obtained by annihilating g with any S_k^{-1}.

Replacing the exponent m by k*m gives the k-Lagrange series; its coefficients
are polynomials in k, which turns k into a formal indeterminate t.
``solve_g`` grows g by its first letter, g^m = g^(m-1) + sum_i S_i g^(i+m-1),
with no product of rows, keeping its rows (``ncsf``'s descent-mask layout),
which every returned series shares, and the rows of its powers, for the
life of the process: a lower order is a slice and a higher one costs only
its new degrees, the policy by which ``ncsf.longest`` serves ``g_t``,
``gamma_t`` and ``theta_t``.
``k_lagrange_direct`` is the system of ``schroeder.solve_xy_system`` under
e_m -> C(k, m): there y = (1 + x)^k, so g^(k) = 1 + x for every integer
k.  For a composition I of length p, the coefficient of S^I in the
t-series is the sum over the codes a of plane trees with p nodes (letter
sum p-1, every proper prefix of length j summing to at least j) of

    C(t*i_1, a_1) C(t*i_2, a_2) ... C(t*i_{p-1}, a_{p-1}),

the last code letter being always zero.  No code is listed: the condition
on a code only involves its running letter sum, so a DP carries, letter by
letter, the summed products of the admissible prefixes with each prefix sum
s (``combinat.tree_code_prefix_sums``), and compositions with a common
prefix share its DP vector.  The last part has no factor, so S^(I, x) has
the coefficient of S^I in the t-geode for every x >= 1: ``gamma_t`` wraps
the walk's descent-mask rows, ``g_t`` appends every last part to them, and
``delta_coefficient`` loops along its own composition, about p^3 / 6
products for p parts.  Neither multiplies polynomials: the walk runs over
the integer values at t = x = 2^B, where every factor C(x i, a) is an
integer, and the finished slot of a prefix of j parts, times j!, packs an
integer polynomial (Kronecker substitution) that its base-2^B digits spell,
with B = bit_length(n! 4^n) + 1 through n (``gamma_t`` gives the bound).
At x = 2^B - 1 the walk gives gamma^(t - 1), and ``theta_t`` is the
integer right quotient of the two walks at its own width,
B = bit_length(n! 16^n) + 1, unpacked by the same rule.

Since g^(t) = sum_{m>=0} S_m (g^(t))^{tm}, the t-prime series
h^(t) = sum_{n>=1} S_n (g^(t))^{t(n-1)} is g^(t) under the word map
S_m w -> S_{m+1} w, 1 -> S_1, with no walk of its own, and
``prime_series`` reads h off g by it.  Specializing t to -1 gives free
cumulants.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import add

from .coeffring import INT_RING, POLYT_RING, POLYT_ZERO, PolyT
from .combinat import check_composition, tree_code_coefficient, tree_code_prefix_sums
from .ncsf import (NcsfSeries, NotDivisibleError, annihilate, check_order,
                   compose, graded_power, lagrange_transform,
                   left_letters, longest, negate_alphabet, phi_k, raise_first_part,
                   right_divide, right_quotient, series_inverse, series_mul, sigma1,
                   unit_series, with_last_part)
from .schroeder import solve_xy_system


# The Lagrange series as grown so far, rows that every returned series
# shares, and the graded_power memo of its powers: an entry of degree d reads
# only rows of degree <= d, so it stays valid as g grows.
_g_rows: list[tuple] = [(1,)]
_g_powers: dict = {}


@lru_cache(maxsize=None)
def solve_g(order: int) -> NcsfSeries:
    """Solve the defining equation of the Lagrange series over the integers.

    g grows: its rows and the memo of its powers are kept for the life of
    the process, a lower order is a slice of the rows and ``solve_g(16)``
    after ``solve_g(15)`` computes only degree 16, as ``ncsf.longest``
    keeps a series.  Every returned series shares the grown rows, which are
    tuples, so no caller can change the grown state.  ``cache_clear``
    empties only the per-order cache, not the grown state.

    No row is convolved: g^m = g^(m-1) + sum_i S_i g^(i+m-1), so for
    d >= 1 the row (g^m)_d is (g^(m-1))_d plus the rows (g^(i+m-1))_(d-i)
    laid end to end by first letter (``ncsf.left_letters``), and g's row n
    is the rows (g^i)_(n-i) laid end to end.  A power with m + d = n reads
    only powers with m + d = n - 1, and degree n adds about 2^n slots.  The
    powers are kept as the ``graded_power`` memo keeps them, (m, d) -> row,
    for m >= 2 and d >= 1.
    """
    check_order(order)

    def power(m: int, d: int):
        # (g^m)_d for m >= 1, off the grown rows and memo
        return _g_rows[d] if m == 1 else _g_powers[m, d] if d else (1,)

    while len(_g_rows) <= order:
        n = len(_g_rows)
        for m in range(2, n):
            d = n - m
            _g_powers[m, d] = list(map(add, power(m - 1, d),
                                       left_letters(d, lambda i: power(i + m - 1, d - i))))
        _g_rows.append(tuple(left_letters(n, lambda i: power(i, n - i))))
    return NcsfSeries._of(INT_RING, _g_rows[: order + 1])


def geode(order: int, k: int = 1) -> NcsfSeries:
    """The geode, computed as g_{n+k} S_k^{-1}; independent of k."""
    check_order(order)
    if k < 1:
        raise ValueError("corolla size k must be positive")
    return annihilate(solve_g(order + k), k)


def geode_by_division(order: int) -> NcsfSeries:
    """The geode as the exact right quotient (g - 1) / (sigma_1 - 1)."""
    check_order(order)
    g = solve_g(order + 1)
    one = unit_series(INT_RING, order + 1)
    return right_divide(g - one, sigma1(INT_RING, order + 1) - one)


def gessel_gamma(order: int) -> NcsfSeries:
    """Geode via the inversion formula (1 - sum_{m>=1} S_m (1 + g + ...
    + g^{m-1}))^{-1}; the inverted series has degree-n component
    -sum_m sum_{j<m} S_m (g^j)_{n-m}, read off ``graded_power``.  Growing
    g through ``order`` leaves every power (g^j)_d with j + d <= order - 1
    and d >= 1 in the memo of the grown g, so those powers are read from
    there; ``graded_power`` adds the one-slot rows (g^j)_0 to it."""
    solve_g(order)

    def block(n: int, m: int) -> list:
        # the row of -(1 + g + ... + g^{m-1})_{n-m}, which S_m multiplies
        return [-sum(slots) for slots in
                zip(*(graded_power(_g_rows, j, n - m, _g_powers, 1, 0) for j in range(m)))]

    rows = [(1,)] + [left_letters(n, lambda m: block(n, m)) for n in range(1, order + 1)]
    return series_inverse(NcsfSeries._of(INT_RING, rows))


def prime_series(order: int) -> tuple[NcsfSeries, NcsfSeries]:
    """The series h = 1 - g^{-1} of prime parking functions and eta = h S_1^{-1}.

    h_n counts plane trees whose rightmost root subtree is a leaf.  h is g
    under the word map of ``h_t`` at t = 1, with no inverse.
    """
    h_full = raise_first_part(solve_g(order))
    eta = annihilate(h_full, 1)
    return h_full.truncate(order), eta


def eta_identities(order: int) -> dict[str, bool]:
    """Check gamma = g*eta, eta*(sigma_1 - 1) = h and eta = g^{-1}*gamma,
    for the h and eta that ``prime_series`` reads off g by a word map."""
    g = solve_g(order)
    h, eta = prime_series(order)
    gamma = geode(order)
    sig = sigma1(INT_RING, order)
    one = unit_series(INT_RING, order)
    return {
        "gamma = g*eta": series_mul(g, eta) == gamma,
        "eta*(sigma1 - 1) = h": series_mul(eta, sig - one) == h,
        "eta = inverse(g)*gamma": series_mul(series_inverse(g), gamma) == eta,
    }


# ---------------------------------------------------------------------------
# the t-hierarchy

def _width(n: int, base_bits: int) -> int:
    """The digit width bit_length(n! 2^(base_bits n)) + 1 of a walk
    through n: base_bits 2 for ``gamma_t``, 4 for ``theta_t``."""
    return (math.factorial(n) << base_bits * n).bit_length() + 1


def _factor(bits: int, shift: int):
    """C(t i, a) at t = x = 2^bits - shift: the integer C(i x, a), the
    factor of the value walk of gamma^(t - shift) read at t = 2^bits."""
    x = (1 << bits) - shift
    return lambda a, i: math.comb(i * x, a)


def _unpack(v: int, bits: int, j: int) -> PolyT:
    """The p with p(2^bits) = v in the slot of a word of j parts: j! p has
    integer coefficients, so v times j! is unpacked over j!."""
    den = math.factorial(j)
    return PolyT.from_packed(v * den, bits, den) if v else POLYT_ZERO


def _unpacked(rows, bits: int) -> NcsfSeries:
    """The series over polynomials in t whose values at t = 2^bits the INT
    rows hold, each slot by ``_unpack``."""
    # a word of degree d >= 1 has one part more than descents
    return NcsfSeries._of(POLYT_RING, (
        (_unpack(v, bits, d and mask.bit_count() + 1) for mask, v in enumerate(row))
        for d, row in enumerate(rows)))


@lru_cache(maxsize=None)
def delta_coefficient(comp: tuple[int, ...]) -> PolyT:
    """Coefficient of S^I in the t-Lagrange series as a polynomial in t,
    a loop along I alone (``combinat.tree_code_coefficient``): about
    p^3 / 6 products of integer values at t = 2^B as in ``gamma_t``, with
    n = |I|, for p parts, where the whole ``gamma_t`` walk would visit
    2^(|I| - i_last) prefixes.  Its one value, times (p - 1)!, is unpacked
    once.  A part that is not an int of at least 1 raises ``ValueError``."""
    check_composition(comp)
    bits = _width(sum(comp), 2)
    return _unpack(tree_code_coefficient(comp, _factor(bits, 0), 1, 0), bits, len(comp[:-1]))


@longest
def g_t(order: int) -> NcsfSeries:
    """The t-Lagrange series over polynomials in t: g^(t) - 1 = gamma^(t)
    (sigma_1 - 1), so the coefficient of S^(I, x) is that of S^I in
    ``gamma_t(order - 1)``."""
    return with_last_part(gamma_t(order - 1)) if order else unit_series(POLYT_RING, 0)


def specialize_t(u: NcsfSeries, value) -> NcsfSeries:
    """Evaluate every polynomial coefficient at an integer value of t."""
    def ev(p):
        val = p.evaluate(value)
        if val.denominator != 1:
            raise ValueError(f"non-integer specialization {val} at t={value}")
        return int(val)
    return u.map_coefficients(ev, INT_RING)


def k_lagrange_direct(k: int, order: int) -> NcsfSeries:
    """Solve w = 1 + sum_m S_m w^{k m} for any integer k: the system of
    ``schroeder.solve_xy_system`` with c_m = C(k, m), the t-series factor
    C(t, m) at t = k, has y = (1 + x)^k, so w = 1 + x.  y is summed by
    Horner's rule and stops below ``order``, so no power of x is taken."""
    x = solve_xy_system(order, INT_RING,
                        lambda m: math.prod(range(k, k - m, -1)) // math.factorial(m)).x
    return unit_series(INT_RING, order) + x


def k_lagrange_by_phi(k: int, order: int) -> NcsfSeries:
    """The k-Lagrange series as phi_k applied to g computed through k*order."""
    check_order(order)
    if k < 1:
        raise ValueError("phi route requires k >= 1")
    return phi_k(solve_g(k * order), k)


def free_cumulant_routes(order: int) -> dict[str, NcsfSeries]:
    """The three constructions of the (-1)-Lagrange series."""
    return {
        "alphabet-negation-inverse": free_cumulants(order),
        "direct-recursion": k_lagrange_direct(-1, order),
        "t-specialization": specialize_t(g_t(order), -1),
    }


def free_cumulants(order: int) -> NcsfSeries:
    return series_inverse(negate_alphabet(solve_g(order)))


def free_cumulant_equation_holds(order: int) -> bool:
    """Check sigma_1 = sum_n K_n sigma_1^n through the given degree."""
    sig = sigma1(INT_RING, order)
    return compose(free_cumulants(order), sig) == sig


@longest
def gamma_t(order: int) -> NcsfSeries:
    """The t-geode (g^(t) - 1) / (sigma_1 - 1): the last part of a word of
    g^(t) has no factor, so its rows are the prefix sums of the tree-code
    walk, read off without building g^(t + 1) or annihilating it.

    The walk runs over the integer values of polynomials in t at t = x =
    2^B (``_factor``), one big-int product per letter and entry, as
    evaluation at x is a ring map; at x = 2^B - 1 it gives gamma^(t - 1)
    (shift 1).  The slot of a prefix of j parts holds p(x) for its sum p,
    and j! p has integer coefficients: the slot times j! is the only value
    that is unpacked, once, over j! (``_unpacked``).  B is fixed before the
    walk by a bound, n = order: the absolute coefficients of
    a! C(i (t - shift), a) = prod_{r<a} (i (t - shift) - r) sum to
    a! C((1 + shift) i + a - 1, a), and j! p sums, over codes of letter
    sum j, j! / prod a_k! times such products.  So for a prefix of size
    m those of p sum to at most [x^j] (1 - x)^(-(1 + shift) m)
    = C((1 + shift) m + j - 1, j) <= C((2 + shift) m - 1, m), which is at
    most 4^m at shift 0 and (27/4)^m at shift 1, and those of j! p to at
    most n! 4^n at shift 0: B = bit_length(n! 4^n) + 1.
    A prefix sum does not depend on n, so the longest walk serves every order.
    """
    bits = _width(order, 2)
    return _unpacked(tree_code_prefix_sums(order, _factor(bits, 0), 1, 0), bits)


@longest
def theta_t(order: int) -> NcsfSeries:
    """The step quotient (g^(t) - 1) / (g^(t-1) - 1), the w with
    w gamma^(t-1) = gamma^(t), as g^(s) - 1 = gamma^(s) (sigma_1 - 1) at
    every level and the free algebra has no zero divisors: one triangular
    solve (``right_quotient``) over the integers, of the walk of
    ``gamma_t`` by the shifted walk, both at t = 2^B.  Only the quotient is
    unpacked, by the rule of ``gamma_t``; B = bit_length(n! 16^n) + 1,
    n = order, bounds it:

    - integer numerators: the solve gives theta_w as gamma_w minus
      sum_{w = ab, b nonempty} theta_a u_b, u = gamma^(t-1).  Parts add
      under concatenation, so by induction j! theta_w has integer
      coefficients for a word w of j parts;
    - coefficient sums: each suffix degree i gives at most one split, and
      by ``gamma_t`` the absolute coefficients of gamma_w sum to at most
      4^m for |w| = m, and those of u_b to (27/4)^i for |b| = i.  So those
      of theta_w sum to at most W_m = 4^m + sum_{i>=1} W_{m-i} (27/4)^i,
      and W_m <= 16^m by induction, as 1/4 + sum_{i>=1} (27/64)^i
      = 1/4 + 27/37 < 1;
    - fit: those of j! theta_w, j <= m <= n, sum to at most
      n! 16^n < 2^(B - 1), the range of a balanced digit.

    theta_w reads only words no longer than w, so the longest quotient
    serves every order.
    """
    bits = _width(order, 4)
    v, u = (NcsfSeries._of(INT_RING, tree_code_prefix_sums(order, _factor(bits, shift), 1, 0))
            for shift in (0, 1))
    return _unpacked(right_quotient(v, u)._rows, bits)


def theta_k_by_transform(k: int, order: int) -> NcsfSeries:
    """theta at integer level k >= 1 as the (k-1)-fold Lagrange transform of
    the geode."""
    if k < 1:
        raise ValueError("k must be at least 1")
    g = solve_g(order)
    out = geode(order)
    for _ in range(k - 1):
        out = lagrange_transform(g, out)
    return out


def h_t(order: int) -> NcsfSeries:
    """The t-analogue of the prime series: (g^(t) - 1) (g^(t))^{-t}.

    Equals sum_{n>=1} S_n (g^(t))^{t(n-1)} and reduces to h at t = 1.  As
    g^(t) = sum_{m>=0} S_m (g^(t))^{tm}, it is g^(t) through degree
    order - 1 under the word map S_m w -> S_{m+1} w, 1 -> S_1.
    """
    check_order(order)
    return raise_first_part(g_t(order - 1)) if order else NcsfSeries(POLYT_RING, [{}])


def eta_t(order: int) -> NcsfSeries:
    """The t-analogue of eta: h^(t) S_1^{-1}."""
    check_order(order)
    return annihilate(h_t(order + 1), 1)


def divisibility_check(k_max: int, order: int) -> list[dict]:
    """For k = 1..k_max, divide g^(k) - 1 by g^(k-1) - 1 and inspect the
    quotient for nonnegative integer coefficients; ``k_lagrange_direct``
    solves each level once.  A level whose division leaves a remainder
    reports ``divides`` False and no quotient."""
    check_order(order)
    one = unit_series(INT_RING, order + 1)
    levels = [k_lagrange_direct(k, order + 1) - one for k in range(k_max + 1)]
    reports = []
    for k in range(1, k_max + 1):
        try:
            quotient = right_divide(levels[k], levels[k - 1])
        except NotDivisibleError:
            quotient = None
        nonneg = quotient is not None and all(
            c >= 0 for comp in quotient.components for c in comp.values())
        reports.append({"k": k, "order": order, "divides": quotient is not None,
                        "nonnegative": nonneg, "quotient": quotient})
    return reports
