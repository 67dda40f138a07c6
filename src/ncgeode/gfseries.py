"""Truncated ordinary generating functions over exact rationals.

``PowerSeries`` is a power series in (x, y) truncated by total degree.  A
series with no power of y is univariate, and for it truncation by total
degree is truncation by order.  Besides the ring operations the class has
square roots (by the quadratic recurrence on total-degree slices) and exact
division by powers of a variable.  These back the closed forms for the
coefficient-sum sequences and the specialization homomorphisms applied to
series in the free algebra.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .coeffring import EPOLY_RING, INT_RING, epoly_evaluate
from .ncsf import NcsfSeries


class PowerSeries:
    """Exact power series in (x, y) truncated by total degree.

    ``terms`` maps exponent pairs (i, j) with i + j <= ``order`` to nonzero
    ``Fraction``s; terms of higher total degree are dropped on construction.
    """

    __slots__ = ("order", "terms")

    def __init__(self, terms, order: int):
        clean: dict = {}
        for (i, j), c in (terms.items() if isinstance(terms, Mapping) else terms):
            if i + j <= order and c:
                clean[(i, j)] = clean.get((i, j), 0) + Fraction(c)
        self.order = order
        self.terms = {k: v for k, v in clean.items() if v}

    @classmethod
    def univariate(cls, coeffs, order: int | None = None) -> "PowerSeries":
        """The series sum c_i x^i, truncated at ``order`` (default: the last c_i)."""
        coeffs = list(coeffs)
        return cls((((i, 0), c) for i, c in enumerate(coeffs)),
                   len(coeffs) - 1 if order is None else order)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The x-coefficients 0..order of a univariate series."""
        if any(j for _, j in self.terms):
            raise ValueError("coeffs needs a series without powers of y")
        return tuple(self.terms.get((i, 0), Fraction(0)) for i in range(self.order + 1))

    def coefficient(self, i: int, j: int = 0) -> Fraction:
        if i + j > self.order:
            raise ValueError(f"series truncated at total order {self.order}")
        return self.terms.get((i, j), Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return PowerSeries(self.terms, order)

    def __add__(self, other) -> "PowerSeries":
        return PowerSeries([*self.terms.items(), *other.terms.items()],
                           min(self.order, other.order))

    def __sub__(self, other) -> "PowerSeries":
        return self + other.scale(-1)

    def __mul__(self, other) -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        order = min(self.order, other.order)
        out: dict = {}
        for (i1, j1), a in self.terms.items():
            room = order - i1 - j1
            for (i2, j2), b in other.terms.items():
                if i2 + j2 <= room:
                    key = (i1 + i2, j1 + j2)
                    out[key] = out.get(key, 0) + a * b
        return PowerSeries(out, order)

    __rmul__ = __mul__

    def scale(self, c) -> "PowerSeries":
        c = Fraction(c)
        return PowerSeries({k: v * c for k, v in self.terms.items()}, self.order)

    def sqrt(self) -> "PowerSeries":
        """Square root of a series with constant term 1.

        Split s and its root r into slices of total degree d; then
        2 r_d = s_d - sum_{0<a<d} r_a r_{d-a}.
        """
        if self.terms.get((0, 0)) != 1:
            raise ValueError("sqrt requires constant term 1")
        slices = [{} for _ in range(self.order + 1)]
        for (i, j), c in self.terms.items():
            slices[i + j][(i, j)] = c
        root = [{(0, 0): Fraction(1)}]
        for d in range(1, self.order + 1):
            acc = slices[d]
            for a in range(1, d):
                for (i1, j1), ca in root[a].items():
                    for (i2, j2), cb in root[d - a].items():
                        key = (i1 + i2, j1 + j2)
                        acc[key] = acc.get(key, 0) - ca * cb
            root.append({k: v / 2 for k, v in acc.items() if v})
        return PowerSeries([kv for sl in root for kv in sl.items()], self.order)

    def divide_by_var(self, var: int, k: int = 1) -> "PowerSeries":
        """Exact division by the var-th variable (0 for x, 1 for y) to the k-th power."""
        d = {}
        for (i, j), c in self.terms.items():
            if (i, j)[var] < k:
                raise ValueError(f"series is not divisible; low-order term at {(i, j)}")
            d[(i - k, j) if var == 0 else (i, j - k)] = c
        return PowerSeries(d, self.order - k)

    def __repr__(self) -> str:
        items = sorted(self.terms.items())
        return f"PowerSeries(order={self.order}, terms={[(k, str(v)) for k, v in items]})"


# ---------------------------------------------------------------------------
# closed forms

CLOSED_FORMS = ("catalan", "geode", "ribbon-sum", "lambda-sum", "zq")


def closed_form(name: str, order: int) -> PowerSeries:
    """Evaluate one of the five generating-function closed forms.

    catalan     C(x) = (1 - sqrt(1-4x)) / (2x)
    geode       (C(x) - 1)(1 - x) / x
    ribbon-sum  1 + ((x-1) sqrt(x^2-6x+1) - x^2 - 4x + 1) / (8 x^2)
    lambda-sum  1 + (1 - 5x + 2x^2 + (2x-1) sqrt(x^2-6x+1)) / (4 x^2)
    zq          1 + (1 - z - sqrt(1 - 2(1+2q) z + z^2)) / (2q)   (bivariate)

    The divisions by powers of x, z or q must cancel exactly; a failure
    signals a transcription bug rather than truncation noise.
    """
    uni = PowerSeries.univariate
    if name == "catalan":
        num = uni([1], order + 1) - uni([1, -4], order + 1).sqrt()
        return num.divide_by_var(0).scale(Fraction(1, 2))
    if name == "geode":
        c = closed_form("catalan", order + 1)
        return ((c - uni([1], order + 1)) * uni([1, -1], order + 1)).divide_by_var(0)
    if name == "ribbon-sum":
        rad = uni([1, -6, 1], order + 2).sqrt()
        num = uni([-1, 1], order + 2) * rad + uni([1, -4, -1], order + 2)
        return num.divide_by_var(0, 2).scale(Fraction(1, 8)) + uni([1], order)
    if name == "lambda-sum":
        rad = uni([1, -6, 1], order + 2).sqrt()
        num = uni([-1, 2], order + 2) * rad + uni([1, -5, 2], order + 2)
        return num.divide_by_var(0, 2).scale(Fraction(1, 4)) + uni([1], order)
    if name == "zq":
        # variables (z, q); the radicand is 1 - 2z - 4qz + z^2
        inner = PowerSeries({(0, 0): 1, (1, 0): -2, (1, 1): -4, (2, 0): 1}, order + 1)
        num = uni([1, -1], order + 1) - inner.sqrt()
        return num.divide_by_var(1).scale(Fraction(1, 2)) + uni([1], order)
    raise ValueError(f"unknown closed form {name!r}; expected one of {CLOSED_FORMS}")


# ---------------------------------------------------------------------------
# specializations of free-algebra series

SPECIALIZATIONS = ("catalan", "coeff-sum", "ribbon-u", "lambda-abs", "zq")


def specialize_ncsf(u: NcsfSeries, name: str) -> PowerSeries:
    """Apply a named specialization homomorphism termwise.

    catalan / coeff-sum   S^I -> x^|I|                (integer coefficients)
    ribbon-u              the x-series with degree-n coefficient
                          [the u-polynomial of degree n] / u at u = 2
    lambda-abs            S^I -> 2^(|I|-len(I)) x^|I|
    zq                    S_n -> z^n with e_k -> q^k on EPoly coefficients
    """
    if u.basis != "S":
        raise ValueError("specializations act on the S basis")
    if name in ("catalan", "coeff-sum"):
        _require_ring(u, INT_RING, name)
        return PowerSeries.univariate([sum(comp.values()) for comp in u.components])
    if name == "ribbon-u":
        _require_ring(u, INT_RING, name)
        if u.components[0] != {(): 1}:
            raise ValueError("ribbon-u expects a series with constant term 1")
        # every word has a part, so u divides the u-polynomial exactly
        return PowerSeries.univariate([1] + [sum(c * 2 ** (len(w) - 1) for w, c in comp.items())
                                             for comp in u.components[1:]])
    if name == "lambda-abs":
        _require_ring(u, INT_RING, name)
        return PowerSeries.univariate([
            sum(c * 2 ** (sum(w) - len(w)) for w, c in comp.items())
            for comp in u.components])
    if name == "zq":
        _require_ring(u, EPOLY_RING, name)
        # integer coefficients: den is 1
        return PowerSeries((((n, j), a) for n, comp in enumerate(u.components)
                            for c in comp.values()
                            for j, a in enumerate(epoly_evaluate(c, "q").num)), u.order)
    raise ValueError(f"unknown specialization {name!r}; expected one of {SPECIALIZATIONS}")


def _require_ring(u: NcsfSeries, ring, name):
    if u.ring.name != ring.name:
        raise ValueError(f"specialization {name!r} requires the {ring.name} ring, "
                         f"got {u.ring.name}")


def prefix_check(series: PowerSeries, expected) -> tuple[bool, int | None]:
    """Compare leading coefficients exactly; report the first mismatch index."""
    if len(expected) > series.order + 1:
        raise ValueError("expected prefix longer than the series")
    coeffs = series.coeffs
    for i, val in enumerate(expected):
        if coeffs[i] != Fraction(val):
            return False, i
    return True, None
