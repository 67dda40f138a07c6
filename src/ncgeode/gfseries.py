"""Truncated ordinary generating functions over exact rationals.

Univariate and total-degree-truncated bivariate series support the ring
operations plus square roots (by the quadratic recurrence on graded slices)
and exact division by powers of a variable.  These back the closed forms for
the coefficient-sum sequences and the specialization homomorphisms applied
to series in the free algebra.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffring import EPOLY_RING, INT_RING, epoly_evaluate
from .ncsf import NcsfSeries


class UniSeries:
    """Exact univariate power series truncated at a fixed order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            cs += [Fraction(0)] * (order + 1 - len(cs))
        self.coeffs = tuple(cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> Fraction:
        if i > self.order:
            raise ValueError(f"series truncated at order {self.order}")
        return self.coeffs[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other) -> "UniSeries":
        order = min(self.order, other.order)
        return UniSeries([self.coeffs[i] + other.coeffs[i] for i in range(order + 1)])

    def __sub__(self, other) -> "UniSeries":
        order = min(self.order, other.order)
        return UniSeries([self.coeffs[i] - other.coeffs[i] for i in range(order + 1)])

    def __neg__(self) -> "UniSeries":
        return UniSeries([-c for c in self.coeffs])

    def __mul__(self, other) -> "UniSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        order = min(self.order, other.order)
        out = [Fraction(0)] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if not a:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return UniSeries(out)

    __rmul__ = __mul__

    def scale(self, c) -> "UniSeries":
        c = Fraction(c)
        return UniSeries([x * c for x in self.coeffs])

    def inverse(self) -> "UniSeries":
        if not self.coeffs[0]:
            raise ZeroDivisionError("inverse requires a nonzero constant term")
        c0 = self.coeffs[0]
        out = [1 / c0]
        for n in range(1, self.order + 1):
            s = Fraction(0)
            for j in range(1, n + 1):
                s += self.coeffs[j] * out[n - j]
            out.append(-s / c0)
        return UniSeries(out)

    def __truediv__(self, other) -> "UniSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(1, 1) / Fraction(other))
        return self * other.inverse()

    def sqrt(self) -> "UniSeries":
        """Square root of a series with constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("sqrt requires constant term 1")
        out = [Fraction(1)]
        for n in range(1, self.order + 1):
            s = Fraction(0)
            for i in range(1, n):
                s += out[i] * out[n - i]
            out.append((self.coeffs[n] - s) / 2)
        return UniSeries(out)

    def divide_by_power(self, k: int) -> "UniSeries":
        """Exact division by x^k; fails unless the valuation is at least k."""
        if any(self.coeffs[i] for i in range(min(k, self.order + 1))):
            raise ValueError(f"series is not divisible by x^{k}")
        return UniSeries(self.coeffs[k:])

    def __repr__(self) -> str:
        return f"UniSeries({[str(c) for c in self.coeffs]})"


def uni_x(order: int) -> UniSeries:
    return UniSeries([0, 1], order)


def uni_const(c, order: int) -> UniSeries:
    return UniSeries([c], order)


class BiSeries:
    """Exact bivariate power series truncated by total degree."""

    __slots__ = ("order", "terms")

    def __init__(self, terms, order: int):
        self.order = order
        clean = {}
        for (i, j), c in (terms.items() if isinstance(terms, dict) else terms):
            if i + j > order:
                continue
            c = Fraction(c)
            if c:
                clean[(i, j)] = clean.get((i, j), Fraction(0)) + c
        self.terms = {k: v for k, v in clean.items() if v}

    def coefficient(self, i: int, j: int) -> Fraction:
        if i + j > self.order:
            raise ValueError(f"series truncated at total order {self.order}")
        return self.terms.get((i, j), Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def truncate(self, order: int) -> "BiSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return BiSeries(self.terms, order)

    def __add__(self, other) -> "BiSeries":
        order = min(self.order, other.order)
        d = dict(self.terms)
        for k, c in other.terms.items():
            d[k] = d.get(k, Fraction(0)) + c
        return BiSeries(d, order)

    def __sub__(self, other) -> "BiSeries":
        return self + other.scale(-1)

    def __mul__(self, other) -> "BiSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        order = min(self.order, other.order)
        d: dict = {}
        for (i1, j1), a in self.terms.items():
            for (i2, j2), b in other.terms.items():
                if i1 + i2 + j1 + j2 > order:
                    continue
                key = (i1 + i2, j1 + j2)
                d[key] = d.get(key, Fraction(0)) + a * b
        return BiSeries(d, order)

    __rmul__ = __mul__

    def scale(self, c) -> "BiSeries":
        c = Fraction(c)
        return BiSeries({k: v * c for k, v in self.terms.items()}, self.order)

    def _slices(self):
        out = [dict() for _ in range(self.order + 1)]
        for (i, j), c in self.terms.items():
            out[i + j][(i, j)] = c
        return out

    def sqrt(self) -> "BiSeries":
        if self.terms.get((0, 0)) != 1:
            raise ValueError("sqrt requires constant term 1")
        slices = self._slices()
        root = [dict() for _ in range(self.order + 1)]
        root[0][(0, 0)] = Fraction(1)
        for d in range(1, self.order + 1):
            acc = dict(slices[d])
            for a in range(1, d):
                for ka, ca in root[a].items():
                    for kb, cb in root[d - a].items():
                        key = (ka[0] + kb[0], ka[1] + kb[1])
                        acc[key] = acc.get(key, Fraction(0)) - ca * cb
            root[d] = {k: v / 2 for k, v in acc.items() if v}
        terms = {}
        for sl in root:
            terms.update(sl)
        return BiSeries(terms, self.order)

    def inverse(self) -> "BiSeries":
        if self.terms.get((0, 0), Fraction(0)) == 0:
            raise ZeroDivisionError("inverse requires a nonzero constant term")
        c0 = self.terms[(0, 0)]
        slices = self._slices()
        inv = [dict() for _ in range(self.order + 1)]
        inv[0][(0, 0)] = 1 / c0
        for d in range(1, self.order + 1):
            acc: dict = {}
            for j in range(1, d + 1):
                for ka, ca in slices[j].items():
                    for kb, cb in inv[d - j].items():
                        key = (ka[0] + kb[0], ka[1] + kb[1])
                        acc[key] = acc.get(key, Fraction(0)) + ca * cb
            inv[d] = {k: -v / c0 for k, v in acc.items() if v}
        terms = {}
        for sl in inv:
            terms.update(sl)
        return BiSeries(terms, self.order)

    def divide_by_var(self, var: int, k: int = 1) -> "BiSeries":
        """Exact division by the var-th variable to the k-th power."""
        d = {}
        for (i, j), c in self.terms.items():
            e = (i, j)[var]
            if e < k:
                raise ValueError("series is not divisible; low-order term present")
            key = (i - k, j) if var == 0 else (i, j - k)
            d[key] = c
        return BiSeries(d, self.order - k)

    def __repr__(self) -> str:
        items = sorted(self.terms.items())
        return f"BiSeries(order={self.order}, terms={[(k, str(v)) for k, v in items]})"


def bi_monomial(i: int, j: int, c, order: int) -> BiSeries:
    return BiSeries({(i, j): Fraction(c)}, order)


# ---------------------------------------------------------------------------
# closed forms

CLOSED_FORMS = ("catalan", "geode", "ribbon-sum", "lambda-sum", "zq")


def closed_form(name: str, order: int):
    """Evaluate one of the five generating-function closed forms.

    catalan     C(x) = (1 - sqrt(1-4x)) / (2x)
    geode       (C(x) - 1)(1 - x) / x
    ribbon-sum  1 + ((x-1) sqrt(x^2-6x+1) - x^2 - 4x + 1) / (8 x^2)
    lambda-sum  1 + (1 - 5x + 2x^2 + (2x-1) sqrt(x^2-6x+1)) / (4 x^2)
    zq          1 + (1 - z - sqrt(1 - 2(1+2q) z + z^2)) / (2q)   (bivariate)

    The divisions by powers of x, z or q must cancel exactly; a failure
    signals a transcription bug rather than truncation noise.
    """
    if name == "catalan":
        inner = UniSeries([1, -4], order + 1)
        num = uni_const(1, order + 1) - inner.sqrt()
        return num.divide_by_power(1).scale(Fraction(1, 2))
    if name == "geode":
        c = closed_form("catalan", order + 1)
        num = (c - uni_const(1, order + 1)) * UniSeries([1, -1], order + 1)
        return num.divide_by_power(1)
    if name == "ribbon-sum":
        rad = UniSeries([1, -6, 1], order + 2).sqrt()
        num = UniSeries([-1, 1], order + 2) * rad + UniSeries([1, -4, -1], order + 2)
        return num.divide_by_power(2).scale(Fraction(1, 8)) + uni_const(1, order)
    if name == "lambda-sum":
        rad = UniSeries([1, -6, 1], order + 2).sqrt()
        num = UniSeries([-1, 2], order + 2) * rad + UniSeries([1, -5, 2], order + 2)
        return num.divide_by_power(2).scale(Fraction(1, 4)) + uni_const(1, order)
    if name == "zq":
        # variables (z, q); the radicand is 1 - 2z - 4qz + z^2
        inner = BiSeries({(0, 0): 1, (1, 0): -2, (1, 1): -4, (2, 0): 1}, order + 1)
        num = BiSeries({(0, 0): 1, (1, 0): -1}, order + 1) - inner.sqrt()
        return num.divide_by_var(1, 1).scale(Fraction(1, 2)) \
            + bi_monomial(0, 0, 1, order)
    raise ValueError(f"unknown closed form {name!r}; expected one of {CLOSED_FORMS}")


# ---------------------------------------------------------------------------
# specializations of free-algebra series

SPECIALIZATIONS = ("catalan", "coeff-sum", "ribbon-u", "ribbon-ux", "lambda-abs", "zq")


def specialize_ncsf(u: NcsfSeries, name: str):
    """Apply a named specialization homomorphism termwise.

    catalan / coeff-sum   S^I -> x^|I|                (integer coefficients)
    ribbon-ux             S^I -> u^len(I) x^|I|       (bivariate in (x, u))
    ribbon-u              the x-series with degree-n coefficient
                          [the u-polynomial of degree n] / u at u = 2
    lambda-abs            S^I -> 2^(|I|-len(I)) x^|I|
    zq                    S_n -> z^n with e_k -> q^k on EPoly coefficients
    """
    if u.basis != "S":
        raise ValueError("specializations act on the S basis")
    if name in ("catalan", "coeff-sum"):
        _require_ring(u, INT_RING, name)
        return UniSeries([sum(comp.values()) for comp in u.components])
    if name == "ribbon-ux":
        _require_ring(u, INT_RING, name)
        # a term of x-degree n carries u-degree >= 1, so the first monomial
        # this truncation could miss has total degree u.order + 2
        terms: dict = {}
        for n, comp in enumerate(u.components):
            for word, c in comp.items():
                key = (n, len(word))
                terms[key] = terms.get(key, Fraction(0)) + c
        return BiSeries(terms, u.order + 1)
    if name == "ribbon-u":
        _require_ring(u, INT_RING, name)
        if u.components[0] != {(): 1}:
            raise ValueError("ribbon-u expects a series with constant term 1")
        coeffs = [Fraction(1)]
        for comp in u.components[1:]:
            # every word has at least one part, so the u-polynomial is
            # exactly divisible by u
            coeffs.append(sum(Fraction(c) * 2 ** (len(w) - 1)
                              for w, c in comp.items()))
        return UniSeries(coeffs)
    if name == "lambda-abs":
        _require_ring(u, INT_RING, name)
        return UniSeries([
            sum(Fraction(c) * 2 ** (sum(w) - len(w)) for w, c in comp.items())
            for comp in u.components])
    if name == "zq":
        _require_ring(u, EPOLY_RING, name)
        terms = {}
        for n, comp in enumerate(u.components):
            for word, c in comp.items():
                # integer coefficients: den is 1
                for j, a in enumerate(epoly_evaluate(c, "q").num):
                    if a and n + j <= u.order:
                        terms[(n, j)] = terms.get((n, j), Fraction(0)) + a
        return BiSeries(terms, u.order)
    raise ValueError(f"unknown specialization {name!r}; expected one of {SPECIALIZATIONS}")


def _require_ring(u: NcsfSeries, ring, name):
    if u.ring.name != ring.name:
        raise ValueError(f"specialization {name!r} requires the {ring.name} ring, "
                         f"got {u.ring.name}")


def prefix_check(series: UniSeries, expected) -> tuple[bool, int | None]:
    """Compare leading coefficients exactly; report the first mismatch index."""
    if len(expected) > series.order + 1:
        raise ValueError("expected prefix longer than the series")
    for i, val in enumerate(expected):
        if series.coeffs[i] != Fraction(val):
            return False, i
    return True, None
