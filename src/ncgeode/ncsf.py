"""Truncated series in the graded free algebra on generators S_1, S_2, ...

A homogeneous component of degree n is a sparse map from compositions of n
(tuples of positive integers) to coefficients in an exact ring.  The product
is concatenation of compositions extended bilinearly, so a series with unit
constant term is invertible degree by degree.

Three bases are supported.  S is the computational basis; the ribbon basis R
and the elementary basis L exist as views.  A composition of n is a descent
set D in {1, ..., n-1}; with s, r and l the coefficients in the three bases,

    r[D] = sum of s[D'] over D' containing D   (S^I = sum of R_J, J coarser),
    s[D] = sum of (-1)^(|D'| - |D|) r[D'] over D' containing D,
    l[D] = (-1)^(n-1-|D|) sum of s[D'] over D' inside D,

the last its own inverse (S_n = sum of (-1)^(n - len J) L^J over compositions
J of n, extended multiplicatively).  Alphabet negation is that subset sum
signed (-1)^(|D|+1).  ``_descent_transform`` computes each of them.

Every series records the degree through which it is exact; operations derive
the output truncation from the inputs and raise rather than silently truncate.

Powers have two kernels.  ``graded_power`` reads the degree-d component of u^m
off the components of u through degree d, so a fixed-point solver can call it
while u grows, in any ring.  It works on rows, degree n >= 1 being 2^(n-1)
slots indexed by ``combinat.descent_mask`` (degree 0 one slot), where a
product is a block update.  ``lagrange_step`` sums S_m u^m on it:
``lagrange.solve_g`` grows g by that step, and ``schroeder.solve_xy_system``
(behind ``lagrange.k_lagrange_direct`` too) its x.  ``series_mul``,
``series_inverse``, ``compose``, ``right_divide`` and ``lagrange_transform``
stay on dicts of words, through ``_conv_into``.  Chained products stay where
they serve as a check or cost less memory: ``compose``, behind both
defining-equation checks, exercises the product kernel on truncations (each
power only through the degrees its term reads), and ``series_power_binomial``
would gain little on ``graded_power`` while its memo held every (u-1)^j.
The repeated-product ``series_power`` is a test oracle.

Annihilation and ``phi_k`` send each output word back to exactly one input
word, so they filter the S components directly; annihilation reaches the R
and L bases through ``convert_basis``, so it is one operator in every basis.
``lagrange_transform`` multiplies out the images of the letters of each word.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import add, neg, sub
from types import MappingProxyType

from .coeffring import PolyT, POLYT_ONE, RINGS, Ring
from .combinat import compositions

BASES = ("S", "R", "L")


class TruncationError(ValueError):
    """An operation needs more exact degrees than its input carries."""


class NotDivisibleError(ValueError):
    """Right division left a residual term not ending in the divisor part."""


class NcsfSeries:
    """Graded truncated element of the free algebra, tagged with a basis.

    A series is immutable: ``components`` is a tuple of read-only mappings,
    so the series that the caches hand out cannot be changed by a caller.
    """

    __slots__ = ("ring", "basis", "components")

    def __init__(self, ring: Ring, components, basis: str = "S"):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self._fill(ring, tuple(frozen_component(comp, degree)
                               for degree, comp in enumerate(components)), basis)

    @classmethod
    def _of(cls, ring: Ring, components: tuple, basis: str = "S") -> "NcsfSeries":
        """The series over a tuple of read-only components already checked
        (``frozen_component``, ``row_component``): shared, not copied."""
        series = object.__new__(cls)
        series._fill(ring, components, basis)
        return series

    def _fill(self, ring: Ring, components: tuple, basis: str):
        _set = object.__setattr__
        _set(self, "ring", ring)
        _set(self, "basis", basis)
        _set(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError(f"NcsfSeries is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"NcsfSeries is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # the ring goes by name, so a copy shares the descriptor in RINGS
        return _series_of, (self.ring.name, [c.copy() for c in self.components],
                            self.basis)

    @property
    def order(self) -> int:
        return len(self.components) - 1

    def component(self, n: int) -> Mapping:
        if n < 0:
            raise ValueError(f"no component of negative degree {n}")
        if n > self.order:
            raise TruncationError(f"series exact through degree {self.order}, "
                                  f"component {n} requested")
        return self.components[n]

    def coefficient(self, word: tuple[int, ...]):
        """The coefficient of a composition; a part below 1 raises
        ``ValueError``."""
        if any(p < 1 for p in word):
            raise ValueError(f"not a composition: {word}")
        return self.component(sum(word)).get(word, self.ring.zero)

    def truncate(self, order: int) -> "NcsfSeries":
        check_order(order)
        if order > self.order:
            raise TruncationError(f"series exact through degree {self.order}, "
                                  f"truncation {order} requested")
        return NcsfSeries._of(self.ring, self.components[: order + 1], self.basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NcsfSeries):
            return NotImplemented
        return (self.ring.name == other.ring.name and self.basis == other.basis
                and self.order == other.order
                and self.components == other.components)

    def __add__(self, other) -> "NcsfSeries":
        self._check_compatible(other)
        order = min(self.order, other.order)
        out = []
        for n in range(order + 1):
            comp = self.components[n].copy()
            for w, c in other.components[n].items():
                comp[w] = comp.get(w, self.ring.zero) + c
            out.append(comp)
        return NcsfSeries(self.ring, out, self.basis)

    def __neg__(self) -> "NcsfSeries":
        out = [{w: -c for w, c in comp.items()} for comp in self.components]
        return NcsfSeries(self.ring, out, self.basis)

    def __sub__(self, other) -> "NcsfSeries":
        return self + (-other)

    def scale(self, c) -> "NcsfSeries":
        out = [{w: v * c for w, v in comp.items()} for comp in self.components]
        return NcsfSeries(self.ring, out, self.basis)

    def map_coefficients(self, fn, ring: Ring | None = None) -> "NcsfSeries":
        ring = ring or self.ring
        out = [{w: fn(c) for w, c in comp.items()} for comp in self.components]
        return NcsfSeries(ring, out, self.basis)

    def _check_compatible(self, other):
        if self.ring.name != other.ring.name:
            raise ValueError(f"ring mismatch: {self.ring.name} vs {other.ring.name}")
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")

    def __repr__(self) -> str:
        nterms = sum(len(c) for c in self.components)
        return (f"NcsfSeries(ring={self.ring.name}, basis={self.basis}, "
                f"order={self.order}, terms={nterms})")


def frozen_component(comp: Mapping, degree: int) -> Mapping:
    """A read-only copy of ``comp`` without its zero coefficients; a word
    of another degree than ``degree`` raises ``ValueError``."""
    clean = {}
    for word, coeff in comp.items():
        if sum(word) != degree:
            raise ValueError(f"word {word} in the component of degree {degree}")
        if coeff:
            clean[word] = coeff
    return MappingProxyType(clean)


def check_order(order: int) -> None:
    """Refuse a negative truncation order: no series is exact through it."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")


def _series_of(ring_name: str, components, basis: str) -> NcsfSeries:
    return NcsfSeries(RINGS[ring_name], components, basis)


def unit_series(ring: Ring, order: int) -> NcsfSeries:
    check_order(order)
    comps = [{(): ring.one}] + [{} for _ in range(order)]
    return NcsfSeries(ring, comps)


def sigma1(ring: Ring, order: int) -> NcsfSeries:
    """The sum 1 + S_1 + S_2 + ... truncated at ``order``."""
    check_order(order)
    comps = [{(): ring.one}]
    for n in range(1, order + 1):
        comps.append({(n,): ring.one})
    return NcsfSeries(ring, comps)


def _conv_into(target: dict, a: dict, b: dict, zero):
    """Add the word convolution of two components into ``target``."""
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            target[w] = target.get(w, zero) + ca * cb


def series_mul(u: NcsfSeries, v: NcsfSeries) -> NcsfSeries:
    """Graded Cauchy product; words concatenate, order is preserved."""
    u._check_compatible(v)
    if u.basis != "S":
        raise ValueError("products are computed in the S basis")
    order = min(u.order, v.order)
    zero = u.ring.zero
    out = [dict() for _ in range(order + 1)]
    for da in range(order + 1):
        ca = u.components[da]
        if not ca:
            continue
        for db in range(order + 1 - da):
            cb = v.components[db]
            if not cb:
                continue
            _conv_into(out[da + db], ca, cb, zero)
    return NcsfSeries(u.ring, out)


def series_inverse(u: NcsfSeries) -> NcsfSeries:
    """Two-sided inverse of a series with constant term 1."""
    if u.basis != "S":
        raise ValueError("inversion is computed in the S basis")
    if u.components[0] != {(): u.ring.one}:
        raise ValueError("series inverse requires constant term 1")
    inv = [{(): u.ring.one}]
    for n in range(1, u.order + 1):
        # v_n = -sum_{i=1..n} u_i v_{n-i}, less cancelled words: it feeds v_{>n}
        comp: dict = {}
        for i in range(1, n + 1):
            _conv_into(comp, u.components[i], inv[n - i], u.ring.zero)
        inv.append({w: -c for w, c in comp.items() if c})
    return NcsfSeries(u.ring, inv)


def compose(a: NcsfSeries, b: NcsfSeries) -> NcsfSeries:
    """sum_n a_n b^n, a_n the degree-n component of ``a``, through the lower
    order; a_n b^n reads b^n only through degree order - n, so each power
    is a ``series_mul`` of truncations."""
    a._check_compatible(b)
    order = min(a.order, b.order)
    acc = [dict() for _ in range(order + 1)]
    power = unit_series(b.ring, order)
    for n in range(order + 1):
        if n:
            power = series_mul(power, b.truncate(order - n))
        for j, comp in enumerate(power.components):
            _conv_into(acc[n + j], a.components[n], comp, b.ring.zero)
    return NcsfSeries(b.ring, acc)


def row_component(row: list, n: int) -> Mapping:
    """The read-only component of the row ``row`` of degree ``n``, less zeros."""
    return MappingProxyType({w: c for w, c in zip(compositions(n), row) if c})


def _row_conv_into(target: list, a: list, da: int, b: list, db: int, one) -> None:
    """Add the product of the rows ``a`` and ``b``, of degrees ``da`` and
    ``db``, into the row ``target``.  The bit 2^(db-1) is the descent
    between the factors: the word i of ``a`` before all of ``b`` is the
    block of 2^(db-1) slots from (i << db) | 2^(db-1), and all of ``a``
    before the word i of ``b`` every 2^db-th slot from 2^(db-1) | i; the
    loop runs over the shorter row.  A zero slot of ``a`` is never
    multiplied, and a degree-0 factor equal to ``one`` adds the other row."""
    if not (da and db):
        scalar, row = (a[0], b) if not da else (b[0], a)
        if scalar:
            target[:] = (map(add, target, row) if scalar == one else
                         [t + c * scalar if c else t for t, c in zip(target, row)])
        return
    size = 1 << (db - 1)
    if len(a) <= size:
        for i, ca in enumerate(a):
            if ca:
                lo = (i << db) | size
                target[lo:lo + size] = [t + ca * c for t, c in zip(target[lo:lo + size], b)]
    else:
        for i, cb in enumerate(b):
            if cb:
                cells = slice(size | i, None, 1 << db)
                target[cells] = [t + c * cb if c else t for t, c in zip(target[cells], a)]


def graded_power(rows, m: int, d: int, memo: dict, one, zero) -> list:
    """Degree-``d`` row of the m-th power of the graded series ``rows``.

    Reads only the rows of degree <= d, so ``rows`` may still be growing.
    ``memo`` keeps the (m, d) rows already computed; the caller decides how
    long it lives.  The first power is ``rows`` itself, not a copy.  ``one``
    and ``zero`` are the units of the coefficient ring.  ``lagrange_step``,
    the x/y system's y and ``lagrange.gessel_gamma`` use it.
    """
    if m == 0:
        return [one] if d == 0 else [zero] * (1 << (d - 1))
    if m == 1:
        return rows[d]
    key = (m, d)
    acc = memo.get(key)
    if acc is None:
        acc = [zero] * (1 << (d - 1) if d else 1)
        for j in range(d + 1):
            _row_conv_into(acc, graded_power(rows, m - 1, d - j, memo, one, zero), d - j,
                           rows[j], j, one)
        memo[key] = acc
    return acc


def left_letters(n: int, block) -> list:
    """Degree-``n`` row of sum_{m=1..n} S_m v_m, ``block(m)`` the row of v_m
    (degree n - m): in mask order, v_n, ..., v_1 end to end."""
    row: list = []
    for m in range(n, 0, -1):
        row += block(m)
    return row


def lagrange_step(rows, n: int, memo: dict, one, zero) -> list:
    """Degree-``n`` row of sum_{m>=1} S_m u^m off ``graded_power``; reads
    u only below degree n, so a solver can call it while u grows."""
    return left_letters(n, lambda m: graded_power(rows, m, n - m, memo, one, zero))


def series_power_binomial(u: NcsfSeries, p: PolyT) -> NcsfSeries:
    """Binomial power u^p = sum_j C(p, j) (u-1)^j for a polynomial exponent.

    Requires constant term 1; the sum is finite per degree because (u-1)^j
    has valuation at least j.  At a nonnegative integer constant p this
    agrees with the repeated product.
    """
    if u.components[0] != {(): u.ring.one}:
        raise ValueError("binomial power requires constant term 1")
    w = u - unit_series(u.ring, u.order)
    out = unit_series(u.ring, u.order)
    binom = POLYT_ONE
    wj = unit_series(u.ring, u.order)
    for j in range(1, u.order + 1):
        binom = (binom * (p - (j - 1))).scale_div(j)
        wj = series_mul(wj, w)
        out = out + wj.scale(binom)
    return out


# ---------------------------------------------------------------------------
# annihilation operators

def annihilate(u: NcsfSeries, n: int) -> NcsfSeries:
    """Right annihilation by S_n^{-1}; the grading drops by n.

    In the S basis a word ending in the part n loses that part and any other
    word dies.  Each output word then has exactly one preimage, so the
    degree-d component is read off the degree-(d + n) component directly.
    A series in the R or L basis is annihilated in S and converted back.
    """
    if n < 1:
        raise ValueError("annihilation index must be positive")
    if u.order < n:
        raise TruncationError("series too short for this annihilation")
    if u.basis != "S":
        return convert_basis(annihilate(convert_basis(u, "S"), n), u.basis)
    # a word of degree d + n >= 1 is never empty
    return NcsfSeries(u.ring, [{w[:-1]: c for w, c in comp.items() if w[-1] == n}
                               for comp in u.components[n:]])


# ---------------------------------------------------------------------------
# basis conversions

def _descent_transform(u: NcsfSeries, basis: str, butterfly,
                       negate_odd: bool = False) -> NcsfSeries:
    """The linear map acting on each descent position by ``butterfly``.

    A component of degree n >= 1 is laid out as 2^(n-1) slots indexed by
    ``descent_mask``, in the order of ``compositions(n)``.  Each of the n-1
    passes (Yates) maps the slices (a, b) of slots without and with one
    descent position to ``butterfly(a, b)``.  With ``negate_odd``, odd
    degrees then change sign.  Degree 0 passes through unchanged.
    """
    zero = u.ring.zero
    out = list(u.components[:1])
    for n in range(1, u.order + 1):
        size = 1 << (n - 1)
        slots = [u.components[n].get(w, zero) for w in compositions(n)]
        half = 1
        while half < size:
            for lo in range(0, size, 2 * half):
                mid, hi = lo + half, lo + 2 * half
                slots[lo:mid], slots[mid:hi] = butterfly(slots[lo:mid], slots[mid:hi])
            half *= 2
        if negate_odd and n % 2:
            slots = map(neg, slots)
        out.append(row_component(slots, n))
    return NcsfSeries._of(u.ring, tuple(out), basis)


# the slots a lack the descent position of the pass, the slots b have it
_BUTTERFLIES = {
    ("S", "R"): lambda a, b: (map(add, a, b), b),           # sum over supersets
    ("R", "S"): lambda a, b: (map(sub, a, b), b),           # its Moebius inverse
    ("S", "L"): lambda a, b: (map(neg, a), map(add, a, b)),  # signed subset sum
}
_BUTTERFLIES["L", "S"] = _BUTTERFLIES["S", "L"]  # an involution


def convert_basis(u: NcsfSeries, target: str) -> NcsfSeries:
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if target == u.basis:
        return u
    butterfly = _BUTTERFLIES.get((u.basis, target))
    if butterfly is None:
        # route through S
        return convert_basis(convert_basis(u, "S"), target)
    return _descent_transform(u, target, butterfly)


# ---------------------------------------------------------------------------
# algebra morphisms

def negate_alphabet(u: NcsfSeries) -> NcsfSeries:
    """The morphism sending S_n to (-1)^n times the elementary generator."""
    if u.basis != "S":
        raise ValueError("alphabet negation acts on the S basis")
    # the image of S^I is (-1)^n times L^I written in S, and L^I in S has the
    # coefficients of S^I in L: the S -> L transform, signed (-1)^n at degree n
    return _descent_transform(u, "S", _BUTTERFLIES["S", "L"], negate_odd=True)


def phi_k(u: NcsfSeries, k: int) -> NcsfSeries:
    """The morphism S_n -> S_{n/k} when k divides n, 0 otherwise."""
    if u.basis != "S":
        raise ValueError("phi_k acts on the S basis")
    if k < 1:
        raise ValueError("k must be positive")
    # each output word has one preimage, in the component of k times its degree
    return NcsfSeries(u.ring, [{tuple(p // k for p in w): c for w, c in comp.items()
                                if not any(p % k for p in w)}
                               for comp in u.components[::k]])


def lagrange_transform(g: NcsfSeries, u: NcsfSeries) -> NcsfSeries:
    """The morphism S_n -> g_n applied to ``u`` (degrees are preserved).

    ``g`` must be exact at least through the order of ``u``.
    """
    if u.basis != "S" or g.basis != "S":
        raise ValueError("the transform acts on the S basis")
    if g.order < u.order:
        raise TruncationError("transform series shorter than the argument")
    zero = u.ring.zero
    out = []
    for comp in u.components:
        acc: dict = {}
        for word, coeff in comp.items():
            # coeff times the product of the images g_n of the letters n
            product = {(): coeff}
            for letter in word:
                nxt: dict = {}
                _conv_into(nxt, product, g.components[letter], zero)
                product = nxt
            for w, c in product.items():
                acc[w] = acc.get(w, zero) + c
        out.append(acc)
    return NcsfSeries(u.ring, out)


# ---------------------------------------------------------------------------
# exact right division

def right_divide(v: NcsfSeries, u: NcsfSeries) -> NcsfSeries:
    """Solve theta * u = v exactly, for u with zero constant term and
    lowest term S_1.

    The degree-n equation theta_{n-1} u_1 = v_n - sum_{m>=2} theta_{n-m} u_m
    determines theta triangularly; dividing by u_1 = S_1 strips a final
    part 1 from every residual word.  A residual word not ending in 1 means
    v is not right-divisible by u and NotDivisibleError is raised.
    """
    v._check_compatible(u)
    if v.basis != "S":
        raise ValueError("right division is computed in the S basis")
    if v.components[0] or u.components[0]:
        raise ValueError("right division requires zero constant terms")
    if min(v.order, u.order) < 1:
        raise TruncationError("right division needs at least degree 1")
    ring = v.ring
    if u.components[1] != {(1,): ring.one}:
        raise ValueError("divisor must start with S_1")
    order = min(v.order, u.order)
    minus_u = [{w: -c for w, c in comp.items()} for comp in u.components[: order + 1]]
    theta: list[dict] = []
    for n in range(1, order + 1):
        residual = v.components[n].copy()
        for m in range(2, n + 1):
            _conv_into(residual, theta[n - m], minus_u[m], ring.zero)
        comp = {}
        for word, coeff in residual.items():
            if not coeff:
                continue
            if not word or word[-1] != 1:
                raise NotDivisibleError(
                    f"residual term {word} at degree {n} does not end in 1")
            comp[word[:-1]] = coeff
        theta.append(comp)
    return NcsfSeries(ring, theta)
