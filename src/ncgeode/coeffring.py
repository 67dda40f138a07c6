"""Exact coefficient rings used throughout the package.

Four rings appear as series coefficients:

  * arbitrary-precision integers (plain ``int``),
  * rationals (``fractions.Fraction``),
  * ``PolyT`` -- polynomials in one indeterminate t over the rationals,
    stored as a tuple ``num`` of integer numerators over one positive common
    denominator ``den`` with ``gcd(den, *num) == 1`` and no trailing zero
    numerator, so each polynomial has one form; its ``coeffs``, a tuple of
    ``Fraction``s, is a view derived from ``num`` and ``den`` on access.
    A polynomial with integer coefficients packs into one int, its value
    at t = 2^B (Kronecker substitution), so a sum or product is one int
    operation; ``PolyT.from_packed`` reads the int back, which is exact
    while every coefficient lies in [-2^(B - 1), 2^(B - 1)),
  * ``EPoly`` -- integer combinations of commuting generators e_1, e_2, ...
    whose monomials e_{l1} e_{l2} ... are keyed by their Goedel numbers
    p_{l1} p_{l2} ... (p_k the k-th prime) and viewed by partitions.

All values are immutable after construction and all operations are pure:
``PolyT`` and ``EPoly``, like ``ncsf.NcsfSeries``, derive from ``_Value``,
which refuses attribute assignment, and ``EPoly.terms`` is a read-only
mapping, so the caches of the series code may hand out and share the same
coefficient objects.  Copies and pickles rebuild a value through
its constructor (``__reduce__``).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import add
from types import MappingProxyType

from .combinat import is_composition


class _Value:
    """Base of the immutable values: setting or deleting an attribute raises
    ``AttributeError``, and ``a - b`` is ``a + (-b)``.  Constructors fill
    their slots with ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __sub__(self, other):
        return self + (-other)


class PolyT(_Value):
    """Polynomial in t over Q: integer numerators over one common denominator.

    ``num`` holds the integer numerators by ascending power, with no
    trailing zero, and ``den`` is a positive int with
    ``gcd(den, *num) == 1``, so every polynomial has exactly one form (the
    zero polynomial is ``num == ()``, ``den == 1``).  All arithmetic works on
    these ints and normalises each result with one gcd, as in FLINT's
    ``fmpq_poly``.  ``coeffs``, the tuple of ``Fraction`` coefficients, is a
    derived view built on each access.  ``PolyT(coeffs)`` accepts ints,
    ``Fraction``s and strings; instances are read-only.
    """

    __slots__ = ("num", "den")

    def __new__(cls, coeffs: Iterable = ()):
        fs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(f.denominator for f in fs))
        return cls._of([f.numerator * (den // f.denominator) for f in fs], den)

    @classmethod
    def _of(cls, num: list, den: int) -> "PolyT":
        """The polynomial num / den for a list of ints and an int den > 0."""
        while num and not num[-1]:
            num.pop()
        if not num:
            den = 1
        else:
            g = math.gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        out = object.__new__(cls)
        object.__setattr__(out, "num", tuple(num))
        object.__setattr__(out, "den", den)
        return out

    @classmethod
    def from_packed(cls, value: int, bits: int, den: int) -> "PolyT":
        """The polynomial num / den whose numerators, evaluated at
        t = 2^bits, give ``value``: its balanced base-2^bits digits, each
        read in [-2^(bits - 1), 2^(bits - 1)).  This undoes the packing
        (Kronecker substitution) of every polynomial whose numerators lie
        in that range, and only of those.  A width below 2 has digits
        that cannot spell 1, so it raises ``ValueError``."""
        if bits < 2:
            raise ValueError(f"packed digits need at least 2 bits, got {bits}")
        mask, half, full = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
        num = []
        while value:
            d = value & mask
            value >>= bits
            if d >= half:
                # a negative digit borrows one from the digits above it
                d -= full
                value += 1
            num.append(d)
        return cls._of(num, den)

    def __reduce__(self):
        return PolyT._of, (list(self.num), self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PolyT((other,))
        if not isinstance(other, PolyT):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # a constant equals, so hashes as, the number it holds
        if len(self.num) > 1:
            return hash((self.num, self.den))
        return hash(Fraction(sum(self.num), self.den))

    def __add__(self, other) -> "PolyT":
        if not isinstance(other, PolyT):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = PolyT((other,))
        a, b = self.num, other.num
        if not b:
            return self
        if not a:
            return other
        den, db = self.den, other.den
        if den != db:
            g = math.gcd(den, db)
            fa, fb = db // g, den // g
            a = [c * fa for c in a]
            b = [c * fb for c in b]
            den *= fa
        if len(a) < len(b):
            a, b = b, a
        out = list(map(add, a, b))
        out += a[len(b):]
        return PolyT._of(out, den)

    __radd__ = __add__

    def __neg__(self) -> "PolyT":
        return PolyT._of([-c for c in self.num], self.den)

    def __rsub__(self, other) -> "PolyT":
        return (-self) + other

    def __mul__(self, other) -> "PolyT":
        if not isinstance(other, PolyT):
            if isinstance(other, int):
                return PolyT._of([c * other for c in self.num], self.den)
            if isinstance(other, Fraction):
                n = other.numerator
                return PolyT._of([c * n for c in self.num], self.den * other.denominator)
            return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return POLYT_ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b, i):
                out[j] += x * y
        return PolyT._of(out, self.den * other.den)

    __rmul__ = __mul__

    def scale_div(self, c) -> "PolyT":
        """Exact division by a nonzero scalar."""
        c = Fraction(c)
        n, d = c.numerator, c.denominator
        if not n:
            raise ZeroDivisionError("division of PolyT by zero scalar")
        if n < 0:
            n, d = -n, -d
        return PolyT._of([x * d for x in self.num], self.den * n)

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        # Horner's rule at p/q over the integers: after m steps, acc is the
        # partial value times q^(m - 1) and qpow is q^m
        acc, qpow = 0, 1
        for c in reversed(self.num):
            acc = acc * p + c * qpow
            qpow *= q
        return Fraction(acc * q, self.den * qpow)

    def __repr__(self) -> str:
        return f"PolyT({[str(c) for c in self.coeffs]})"


POLYT_ZERO = PolyT()
POLYT_ONE = PolyT((1,))


def binomial_polynomial(m: int, a: int) -> PolyT:
    """The binomial coefficient C(m*t, a) as a polynomial in t.

    Equals prod_{i=0}^{a-1} (m*t - i) / a!.  At any integer t=k this
    evaluates to the ordinary binomial coefficient C(m*k, a).
    """
    if m < 0 or a < 0:
        raise ValueError("m and a must be nonnegative")
    out = POLYT_ONE
    for i in range(a):
        out = out * PolyT((-i, m))
    return out.scale_div(math.factorial(a))


def partitions_of(n: int, max_len: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield the partitions of n as weakly decreasing tuples."""
    if n < 0:
        return

    def rec(rem, mx, acc):
        if rem == 0:
            yield tuple(acc)
            return
        if max_len is not None and len(acc) >= max_len:
            return
        for p in range(min(rem, mx), 0, -1):
            acc.append(p)
            yield from rec(rem - p, p, acc)
            acc.pop()

    yield from rec(n, n, [])


_PRIMES = [1, 2]


def _prime(k: int) -> int:
    """p_k, the k-th prime (p_1 = 2), the factor of e_k in a monomial's
    key; p_0 = 1, the factor of an empty chain.  The primes come from a
    sieve of Eratosthenes whose bound doubles until it reaches p_k."""
    while len(_PRIMES) <= k:
        bound = 2 * _PRIMES[-1] + 1
        sieve = bytearray([0, 0]) + bytearray([1]) * (bound - 2)
        for p in range(2, math.isqrt(bound) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, bound, p)))
        _PRIMES[1:] = compress(range(bound), sieve)
    return _PRIMES[k]


def _key(part: Iterable[int]) -> int:
    """The Goedel number p_{l1} ... p_{lr} of the monomial e_{l1} ... e_{lr},
    in any order of its parts; the unit monomial has key 1."""
    return math.prod(map(_prime, part))


@lru_cache(maxsize=None)
def _part(key: int) -> tuple[int, ...]:
    """The partition, weakly decreasing, whose Goedel number is ``key``."""
    parts, k = [], 1
    while key > 1:
        if key % _prime(k):
            k += 1
        else:
            key //= _prime(k)
            parts.append(k)
    return tuple(reversed(parts))


def _mul_into(accs, row, b: dict) -> None:
    """For each dict acc of ``accs``, the caller's, and the monomial dict a
    (``_key`` to coefficient) beside it in ``row``: acc[ka kb] += ca cb over
    the monomials of a and of b.  The one double loop over monomials; a
    cancelled sum stays as a zero, which ``EPoly._of`` drops."""
    b = b.items()
    for acc, a in zip(accs, row):
        get = acc.get
        for kb, cb in b:
            for ka, ca in a.items():
                k = ka * kb
                acc[k] = get(k, 0) + ca * cb


class EPoly(_Value):
    """Integer combination of monomials in the commuting generators e_k.

    A monomial e_{l1}...e_{lr} is stored under its Goedel number ``_key``,
    injective by unique factorization, so a product of monomials is one of
    ints.  ``terms`` is a read-only view keyed by the partitions
    (l1 >= ... >= lr), decoded on access; the empty partition is the unit.
    ``EPoly(terms)`` takes (parts, coefficient) pairs: the parts of a
    composition (``combinat.is_composition``) in any order, and an ``int``
    coefficient.  Zero coefficients are never stored and attributes cannot
    be set, so results may be shared: adding zero returns the other operand
    itself.  Every product goes through ``_mul_into``: ``a * b`` into an
    empty dict, ``mul_add`` (an entry of the e-walk, a sum of products) and
    ``mul_add_row`` (a block of the row kernel) into one copy per slot.
    """

    __slots__ = ("_d",)

    def __new__(cls, terms=None):
        d: dict[int, int] = {}
        for part, c in terms.items() if isinstance(terms, Mapping) else terms or ():
            if not is_composition(part):
                raise ValueError(f"partition parts must be positive: {part}")
            if type(c) is not int:
                raise TypeError(f"coefficient {c!r} is not an int")
            key = _key(part)
            d[key] = d.get(key, 0) + c
        return cls._of(d)

    @classmethod
    def _of(cls, d: dict) -> "EPoly":
        """Wrap a dict of monomial keys (``_key``) and coefficients, which
        the value owns from now on; zero coefficients are dropped here."""
        if not all(d.values()):
            d = {k: c for k, c in d.items() if c}
        out = object.__new__(cls)
        object.__setattr__(out, "_d", d)
        return out

    def __reduce__(self):
        return EPoly._of, (self._d.copy(),)

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        return MappingProxyType({_part(k): c for k, c in self._d.items()})

    @classmethod
    def one(cls) -> "EPoly":
        return cls._of({1: 1})

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __bool__(self) -> bool:
        return bool(self._d)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = EPoly._of({1: int(other)})
        if not isinstance(other, EPoly):
            return NotImplemented
        return self._d == other._d

    def __add__(self, other) -> "EPoly":
        if not isinstance(other, EPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = EPoly._of({1: int(other)})
        if not self._d:
            return other
        if not other._d:
            return self
        d = self._d.copy()
        get = d.get
        for k, c in other._d.items():
            d[k] = get(k, 0) + c
        return EPoly._of(d)

    __radd__ = __add__

    def __neg__(self) -> "EPoly":
        return EPoly._of({k: -c for k, c in self._d.items()})

    def __rsub__(self, other) -> "EPoly":
        return (-self) + other

    def __mul__(self, other) -> "EPoly":
        if not isinstance(other, EPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = EPoly._of({1: int(other)})
        d: dict[int, int] = {}
        _mul_into((d,), (self._d,), other._d)
        return EPoly._of(d)

    __rmul__ = __mul__

    @staticmethod
    def mul_add(start: "EPoly", pairs) -> "EPoly":
        """start + the sum of a b over the (a, b) of ``pairs``, in one dict
        that the result owns: the terms of ``start`` are copied once and no
        product is built."""
        acc = start._d.copy()
        for a, b in pairs:
            _mul_into((acc,), (a._d,), b._d)
        return EPoly._of(acc)

    @staticmethod
    def mul_add_row(row: list, cs: list, s: "EPoly") -> list:
        """The row of t + c s over the slots t of ``row`` and c of ``cs``,
        each slot summed in one copy of the terms of t, no product built."""
        accs = [t._d.copy() for t in row]
        _mul_into(accs, [c._d for c in cs], s._d)
        return list(map(EPoly._of, accs))

    def __repr__(self) -> str:
        return f"EPoly({dict(self.sorted_terms())})"


@lru_cache(maxsize=None)
def elementary_of_multiple(k: int, j: int) -> EPoly:
    """Expand e_k of a j-fold alphabet into the base generators.

    e_k(j*A) = sum over weak compositions k = i_1 + ... + i_j of
    e_{i_1} ... e_{i_j}.  Collecting equal monomials gives, for each
    partition mu of k with at most j parts, the number of ways to place
    the parts of mu into j ordered slots.
    """
    if k < 0 or j < 0:
        raise ValueError("k and j must be nonnegative")
    # the perm(j, len(mu)) placements, over the orders of equal parts
    return EPoly({mu: math.perm(j, len(mu))
                  // math.prod(map(math.factorial, map(mu.count, set(mu))))
                  for mu in partitions_of(k, max_len=j)})


_EVAL_RULES = ("sign", "one", "q", "e1")


def epoly_evaluate(p: EPoly, rule: str):
    """Apply a ring homomorphism to every monomial of ``p``.

    Rules: "sign" sends e_n to (-1)^n, "one" sends e_n to 1, "q" sends
    e_n to q^n (returns a polynomial in q), "e1" sends e_1 to 1 and all
    higher e_n to 0.
    """
    if rule == "sign":
        return sum(c * (-1) ** sum(part) for part, c in p.terms.items())
    if rule == "one":
        return sum(p.terms.values())
    if rule == "e1":
        return sum(c for part, c in p.terms.items() if all(x == 1 for x in part))
    if rule == "q":
        coeffs = [0] * (max(map(sum, p.terms), default=-1) + 1)
        for part, c in p.terms.items():
            coeffs[sum(part)] += c
        return PolyT._of(coeffs, 1)
    raise ValueError(f"unknown evaluation rule {rule!r}; expected one of {_EVAL_RULES}")


# ---------------------------------------------------------------------------
# ring descriptors and serialization


def fraction_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _polyt_to_json(p: PolyT) -> list[str]:
    out = []
    for c in p.num:
        g = math.gcd(c, p.den)
        out.append(str(c // g) if g == p.den else f"{c // g}/{p.den // g}")
    return out


def _epoly_to_json(p: EPoly) -> list[dict]:
    return [{"partition": list(part), "coeff": str(c)} for part, c in p.sorted_terms()]


def _exact(v, parse=int):
    """``parse(v)`` for a JSON integer or string; a float would be rounded
    and a bool read as 0 or 1, so anything else raises TypeError."""
    if type(v) not in (int, str):
        raise TypeError(f"{v!r} is neither an integer nor a string")
    return parse(v)


def _exact_list(v, parse=int) -> list:
    if type(v) is not list:
        raise TypeError(f"{v!r} is not a list")
    return [_exact(c, parse) for c in v]


def _polyt_from_json(v) -> PolyT:
    return PolyT(_exact_list(v, Fraction))


def _epoly_from_json(v) -> EPoly:
    return EPoly([(_exact_list(item["partition"]), _exact(item["coeff"])) for item in v])


class Ring(namedtuple("Ring", "name zero one to_json from_json")):
    """Duck-typed coefficient ring descriptor for series code."""

    __slots__ = ()


INT_RING = Ring("int", 0, 1, str, _exact)
POLYT_RING = Ring("polyt", POLYT_ZERO, POLYT_ONE, _polyt_to_json, _polyt_from_json)
EPOLY_RING = Ring("epoly", EPoly(), EPoly.one(), _epoly_to_json, _epoly_from_json)

RINGS = {r.name: r for r in (INT_RING, POLYT_RING, EPOLY_RING)}
