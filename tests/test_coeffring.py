import copy
import math
import pickle
from fractions import Fraction
from itertools import product

import pytest

from ncgeode.coeffring import (EPoly, PolyT, _prime, binomial_polynomial,
                               elementary_of_multiple, epoly_evaluate,
                               partitions_of, INT_RING, POLYT_RING, EPOLY_RING)


def test_rational_field_arithmetic():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_polyt_unit_law():
    p = PolyT([0, -1, 2])
    assert p * PolyT([1]) == p
    assert PolyT([1]) * p == p


def test_polyt_basic_ops():
    t = PolyT((0, 1))
    assert (t + 1) * (t - 1) == PolyT([-1, 0, 1])
    assert t - t == PolyT()
    assert not (t - t)
    assert (2 * t).evaluate(3) == 6
    assert PolyT([1, 2, 1]).evaluate(Fraction(1, 2)) == Fraction(9, 4)


@pytest.mark.parametrize("c", [0, 1, -3, Fraction(1, 2)])
def test_constant_polyt_hashes_as_its_number(c):
    # equal objects hash equal, so a set holds one of them
    assert PolyT((c,)) == c and hash(PolyT((c,))) == hash(c)
    assert len({c, PolyT((c,))}) == 1


def test_polyt_normalization():
    assert PolyT([1, 0, 0]).coeffs == (Fraction(1),)
    assert PolyT([0, 0]).coeffs == ()
    assert PolyT([Fraction(1, 2)]).scale_div(Fraction(1, 2)) == PolyT([1])


def test_polyt_from_packed_reads_balanced_digits():
    # the value at t = 2^bits of integer numerators in [-2^(bits-1), 2^(bits-1))
    # reads back to them, over any denominator
    bits = 5
    digits = (-16, -15, -9, -1, 0, 1, 7, 15)
    for num in product(digits, repeat=3):
        value = sum(c << (bits * k) for k, c in enumerate(num))
        assert PolyT.from_packed(value, bits, 6) == PolyT([Fraction(c, 6) for c in num]), num
    wide = [-(1 << 69), (1 << 69) - 1, 0, -1, 1 << 68]
    value = sum(c << (70 * k) for k, c in enumerate(wide))
    assert PolyT.from_packed(value, 70, 1).num == tuple(wide)
    assert PolyT.from_packed(0, bits, 24) == PolyT()
    # a numerator out of range is read as another polynomial
    assert PolyT.from_packed(16, bits, 1) == PolyT([-16, 1])
    with pytest.raises(ValueError, match="at least 2 bits"):
        PolyT.from_packed(1, 1, 1)


def test_binomial_polynomial_examples():
    assert binomial_polynomial(2, 2) == PolyT([0, -1, 2])   # 2t^2 - t
    assert binomial_polynomial(1, 0) == PolyT([1])
    assert binomial_polynomial(2, 1) == PolyT([0, 2])


def test_binomial_polynomial_matches_integer_binomials():
    for m, a, k in product(range(4), range(6), range(6)):
        assert binomial_polynomial(m, a).evaluate(k) == math.comb(m * k, a)


def test_epoly_monomial_product():
    e1, e2 = EPoly({(1,): 1}), EPoly({(2,): 1})
    assert e1 * e1 == EPoly({(1, 1): 1})
    assert e2 * e1 == EPoly({(2, 1): 1})
    assert (e1 + 2) * (e1 - 2) == EPoly({(1, 1): 1, (): -4})
    assert (e2 * 3) * (e1 * -2) == EPoly({(2, 1): -6})
    assert EPoly() * e1 == e1 * EPoly() == EPoly()


def test_epoly_normalization():
    assert EPoly({(1, 2): 1}) == EPoly({(2, 1): 1})
    assert EPoly({(1,): 0}) == EPoly()
    assert EPoly({(): 1}) == 1
    with pytest.raises(ValueError):
        EPoly({(0,): 1})


@pytest.mark.parametrize("terms, error", [
    ({(1,): 2.7}, TypeError),            # would be rounded to 2 e_1
    ({(1,): 2.0}, TypeError),
    ({(1,): "3"}, TypeError),            # would be parsed
    ({(1,): True}, TypeError),
    ({(1,): Fraction(3)}, TypeError),
    ({(True,): 1}, ValueError),          # would read as e_1
    ({(1.0,): 1}, ValueError),           # would fail inside _prime
    ({(2, -1): 1}, ValueError),
    ([((1,), None)], TypeError),
])
def test_epoly_refuses_what_it_would_round_or_misread(terms, error):
    with pytest.raises(error):
        EPoly(terms)


def test_epoly_int_operands_keep_their_meaning():
    e1 = EPoly({(1,): 1})
    assert EPoly({(): 1, (1,): 0}) == EPoly.one() == 1
    assert e1 + 2 == 2 + e1 == EPoly({(1,): 1, (): 2})
    assert e1 * 3 == 3 * e1 == EPoly({(1,): 3}) and e1 * 0 == 0 == EPoly()
    assert e1 + True == EPoly({(1,): 1, (): 1}) and EPoly.one() == True  # noqa: E712
    assert e1 - e1 == 0 and not (e1 - e1).terms


def _brute_elementary(k, j):
    # direct sum over weak compositions of k into j parts
    def weak(total, parts):
        if parts == 0:
            if total == 0:
                yield ()
            return
        for first in range(total + 1):
            for rest in weak(total - first, parts - 1):
                yield (first,) + rest

    acc = EPoly()
    for comp in weak(k, j):
        # e_0 = 1, so the monomial keeps the nonzero parts
        acc = acc + EPoly({tuple(filter(None, comp)): 1})
    return acc


def test_elementary_of_multiple_examples():
    assert elementary_of_multiple(1, 2) == EPoly({(1,): 2})
    assert elementary_of_multiple(2, 1) == EPoly({(2,): 1})
    assert elementary_of_multiple(2, 2) == EPoly({(2,): 2, (1, 1): 1})
    assert elementary_of_multiple(0, 3) == EPoly.one()
    assert elementary_of_multiple(2, 0) == EPoly()


def test_elementary_of_multiple_against_enumeration():
    for k in range(0, 6):
        for j in range(0, 5):
            assert elementary_of_multiple(k, j) == _brute_elementary(k, j)


def test_alphabet_additivity():
    for k in range(0, 7):
        for j1 in range(0, 5):
            for j2 in range(0, 5):
                lhs = elementary_of_multiple(k, j1 + j2)
                rhs = EPoly()
                for k1 in range(k + 1):
                    rhs = rhs + elementary_of_multiple(k1, j1) * \
                        elementary_of_multiple(k - k1, j2)
                assert lhs == rhs, (k, j1, j2)


def test_epoly_evaluate_rules():
    p = EPoly({(2,): 1}) + EPoly({(1,): 1}) * EPoly({(1,): 1})
    assert epoly_evaluate(p, "sign") == 2
    assert epoly_evaluate(p, "one") == 2
    assert epoly_evaluate(EPoly({(1, 1): 1}), "q") == PolyT([0, 0, 1])
    assert epoly_evaluate(p, "e1") == 1
    with pytest.raises(ValueError):
        epoly_evaluate(p, "bogus")


def test_epoly_evaluate_is_multiplicative():
    import random
    rng = random.Random(7)
    parts_pool = [(), (1,), (2,), (1, 1), (3,), (2, 1)]
    for _ in range(30):
        a = EPoly({rng.choice(parts_pool): rng.randint(-3, 3) for _ in range(3)})
        b = EPoly({rng.choice(parts_pool): rng.randint(-3, 3) for _ in range(3)})
        for rule in ("sign", "one"):
            assert epoly_evaluate(a * b, rule) == \
                epoly_evaluate(a, rule) * epoly_evaluate(b, rule)
        assert epoly_evaluate(a * b, "q") == \
            epoly_evaluate(a, "q") * epoly_evaluate(b, "q")


def test_prime_sieve():
    trial = []
    for p in range(2, 1224):
        if all(p % q for q in trial):
            trial.append(p)
    assert [_prime(k) for k in range(1, 201)] == trial[:200]
    assert (_prime(0), _prime(1000), _prime(6000)) == (1, 7919, 59359)


def test_partitions_of():
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions_of(0)) == [()]
    assert list(partitions_of(4, max_len=2)) == [(4,), (3, 1), (2, 2)]


def test_json_round_trips():
    assert INT_RING.from_json(INT_RING.to_json(-12)) == -12
    p = PolyT([0, Fraction(-1, 2), Fraction(3, 2)])
    assert POLYT_RING.from_json(POLYT_RING.to_json(p)) == p
    q = EPoly({(2, 1): 3, (): -1})
    assert EPOLY_RING.from_json(EPOLY_RING.to_json(q)) == q


ROUND_TRIPS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
               "pickle": lambda v: pickle.loads(pickle.dumps(v))}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("value", [PolyT(["1/2", 0, -3]), PolyT(),
                                   EPoly({(2, 1): 3, (): -1}), EPoly()],
                         ids=["polyt", "polyt-zero", "epoly", "epoly-zero"])
def test_copy_and_pickle_round_trip(value, how):
    back = ROUND_TRIPS[how](value)
    assert type(back) is type(value)
    assert back == value
    name, slot = type(back).__name__, type(back).__slots__[0]
    with pytest.raises(AttributeError, match=f"^{name} is immutable; cannot set {slot!r}$"):
        setattr(back, slot, None)
    with pytest.raises(AttributeError, match=f"^{name} is immutable; cannot delete {slot!r}$"):
        delattr(back, slot)
