"""Exact coefficient rings used throughout the package.

Four rings appear as series coefficients:

  * arbitrary-precision integers (plain ``int``),
  * rationals (``fractions.Fraction``),
  * ``PolyT`` -- polynomials in one indeterminate t over the rationals,
  * ``EPoly`` -- integer combinations of commuting generators e_1, e_2, ...
    whose monomials e_{l1} e_{l2} ... are indexed by integer partitions.

All values are immutable after construction and all operations are pure:
``PolyT`` and ``EPoly`` refuse attribute assignment and ``EPoly.terms`` is a
read-only mapping, so the caches of the series code may hand out and share
the same coefficient objects.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Iterator


class PolyT:
    """Polynomial in t over Q, dense coefficients stored by ascending power.

    The zero polynomial is the empty coefficient tuple; trailing zero
    coefficients are never stored.  ``coeffs`` is set once, in ``__init__``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError(f"PolyT is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PolyT is immutable; cannot delete {name!r}")

    @classmethod
    def constant(cls, c) -> "PolyT":
        return cls((c,))

    @classmethod
    def t(cls) -> "PolyT":
        return cls((0, 1))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PolyT((other,))
        if not isinstance(other, PolyT):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other) -> "PolyT":
        if isinstance(other, (int, Fraction)):
            other = PolyT((other,))
        if not isinstance(other, PolyT):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyT(out)

    __radd__ = __add__

    def __neg__(self) -> "PolyT":
        return PolyT(-c for c in self.coeffs)

    def __sub__(self, other) -> "PolyT":
        return self + (-other if isinstance(other, PolyT) else PolyT((-Fraction(other),)))

    def __rsub__(self, other) -> "PolyT":
        return (-self) + other

    def __mul__(self, other) -> "PolyT":
        if isinstance(other, (int, Fraction)):
            return PolyT(c * other for c in self.coeffs)
        if not isinstance(other, PolyT):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return PolyT()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyT(out)

    __rmul__ = __mul__

    def scale_div(self, c) -> "PolyT":
        """Exact division by a nonzero scalar."""
        c = Fraction(c)
        if not c:
            raise ZeroDivisionError("division of PolyT by zero scalar")
        return PolyT(x / c for x in self.coeffs)

    def evaluate(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "PolyT") -> "PolyT":
        """Substitute ``inner`` for t."""
        acc = PolyT()
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def as_int(self) -> int:
        """The value of a constant, integer-valued polynomial."""
        if len(self.coeffs) > 1:
            raise ValueError(f"not a constant polynomial: {self!r}")
        val = self.coeffs[0] if self.coeffs else Fraction(0)
        if val.denominator != 1:
            raise ValueError(f"not an integer: {val}")
        return int(val)

    def __repr__(self) -> str:
        return f"PolyT({[str(c) for c in self.coeffs]})"


POLYT_ZERO = PolyT()
POLYT_ONE = PolyT((1,))


@lru_cache(maxsize=None)
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


def partitions_of(n: int, max_part: int | None = None,
                  max_len: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield the partitions of n as weakly decreasing tuples."""
    if n < 0:
        return
    if max_part is None or max_part > n:
        max_part = n

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

    yield from rec(n, max_part, [])


def partition_sort_key(part: tuple[int, ...]) -> tuple:
    return (sum(part), part)


class EPoly:
    """Integer combination of monomials in the commuting generators e_k.

    A monomial e_{l1}...e_{lr} is stored under the partition key
    (l1 >= l2 >= ... >= lr); the empty partition is the unit monomial.
    Zero coefficients are never stored.  ``terms`` is a read-only mapping
    and attributes cannot be set, so results may be shared: the product of
    two unit monomials is one object per pair of partitions, and adding
    zero returns the other operand itself.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d: dict[tuple[int, ...], int] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for part, c in items:
                key = tuple(sorted(part, reverse=True))
                if any(p < 1 for p in key):
                    raise ValueError(f"partition parts must be positive: {part}")
                c = int(c)
                if not c:
                    continue
                new = d.get(key, 0) + c
                if new:
                    d[key] = new
                else:
                    d.pop(key, None)
        object.__setattr__(self, "terms", MappingProxyType(d))

    @classmethod
    def _of(cls, d: dict) -> "EPoly":
        """Wrap a dict of sorted partition keys and nonzero coefficients."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", MappingProxyType(d))
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"EPoly is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"EPoly is immutable; cannot delete {name!r}")

    @classmethod
    def one(cls) -> "EPoly":
        return cls({(): 1})

    @classmethod
    def e(cls, k: int) -> "EPoly":
        if k == 0:
            return cls.one()
        return cls({(k,): 1})

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda kv: partition_sort_key(kv[0]))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = EPoly({(): other})
        if not isinstance(other, EPoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other) -> "EPoly":
        if not isinstance(other, EPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = EPoly({(): other})
        if not self.terms:
            return other
        if not other.terms:
            return self
        d = self.terms.copy()
        for k, c in other.terms.items():
            new = d.get(k, 0) + c
            if new:
                d[k] = new
            else:
                del d[k]
        return EPoly._of(d)

    __radd__ = __add__

    def __neg__(self) -> "EPoly":
        return EPoly._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "EPoly":
        if isinstance(other, int):
            other = EPoly({(): other})
        return self + (-other)

    def __rsub__(self, other) -> "EPoly":
        return (-self) + other

    def __mul__(self, other) -> "EPoly":
        if not isinstance(other, EPoly):
            if not isinstance(other, int):
                return NotImplemented
            if not other:
                return EPoly()
            return EPoly._of({k: c * other for k, c in self.terms.items()})
        a, b = self.terms, other.terms
        if len(a) == 1 == len(b):
            (ka,) = a
            (kb,) = b
            unit = _monomial_product(ka, kb)
            c = a[ka] * b[kb]
            if c == 1:
                return unit
            (key,) = unit.terms
            return EPoly._of({key: c})
        d: dict[tuple[int, ...], int] = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                (key,) = _monomial_product(ka, kb).terms
                new = d.get(key, 0) + ca * cb
                if new:
                    d[key] = new
                else:
                    del d[key]
        return EPoly._of(d)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"EPoly({dict(self.sorted_terms())})"


@lru_cache(maxsize=None)
def _monomial_product(ka: tuple[int, ...], kb: tuple[int, ...]) -> EPoly:
    """The unit monomial e_ka e_kb, one shared object per pair of partitions."""
    return EPoly._of({tuple(sorted(ka + kb, reverse=True)): 1})


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
    if k == 0:
        return EPoly.one()
    if j == 0:
        return EPoly()
    terms = {}
    for mu in partitions_of(k, max_len=j):
        ell = len(mu)
        count = 1
        for i in range(ell):
            count *= j - i
        # divide by the factorials of the part multiplicities
        i = 0
        while i < ell:
            jn = i
            while jn < ell and mu[jn] == mu[i]:
                jn += 1
            count //= math.factorial(jn - i)
            i = jn
        terms[mu] = count
    return EPoly(terms)


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
        out = {}
        for part, c in p.terms.items():
            w = sum(part)
            out[w] = out.get(w, 0) + c
        if not out:
            return PolyT()
        coeffs = [0] * (max(out) + 1)
        for w, c in out.items():
            coeffs[w] = c
        return PolyT(coeffs)
    raise ValueError(f"unknown evaluation rule {rule!r}; expected one of {_EVAL_RULES}")


# ---------------------------------------------------------------------------
# ring descriptors and serialization


def fraction_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _int_exact_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("integer division by zero")
    q, r = divmod(a, b)
    if r:
        raise ValueError(f"{a} is not divisible by {b}")
    return q


def _polyt_exact_div(a: PolyT, b: PolyT) -> PolyT:
    if not b:
        raise ZeroDivisionError("PolyT division by zero")
    if b.degree() != 0:
        raise ValueError("PolyT division only supported by nonzero constants")
    return a.scale_div(b.coeffs[0])


def _epoly_exact_div(a: EPoly, b: EPoly) -> EPoly:
    if not b:
        raise ZeroDivisionError("EPoly division by zero")
    if set(b.terms) != {()}:
        raise ValueError("EPoly division only supported by integer constants")
    c = b.terms[()]
    out = {}
    for k, v in a.terms.items():
        out[k] = _int_exact_div(v, c)
    return EPoly(out)


def _int_to_json(a: int) -> str:
    return str(a)


def _int_from_json(s) -> int:
    return int(s)


def _polyt_to_json(p: PolyT) -> list[str]:
    return [fraction_to_str(c) for c in p.coeffs]


def _polyt_from_json(v) -> PolyT:
    return PolyT(Fraction(s) for s in v)


def _epoly_to_json(p: EPoly) -> list[dict]:
    return [{"partition": list(part), "coeff": str(c)} for part, c in p.sorted_terms()]


def _epoly_from_json(v) -> EPoly:
    return EPoly([(tuple(item["partition"]), int(item["coeff"])) for item in v])


@dataclass(frozen=True)
class Ring:
    """Duck-typed coefficient ring descriptor for series code."""

    name: str
    zero: object
    one: object
    from_int: Callable
    exact_div: Callable
    to_json: Callable
    from_json: Callable


INT_RING = Ring("int", 0, 1, int, _int_exact_div, _int_to_json, _int_from_json)
POLYT_RING = Ring("polyt", POLYT_ZERO, POLYT_ONE, PolyT.constant,
                  _polyt_exact_div, _polyt_to_json, _polyt_from_json)
EPOLY_RING = Ring("epoly", EPoly(), EPoly.one(),
                  lambda n: EPoly({(): n}), _epoly_exact_div,
                  _epoly_to_json, _epoly_from_json)

RINGS = {r.name: r for r in (INT_RING, POLYT_RING, EPOLY_RING)}
