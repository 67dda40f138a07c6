"""Truncated series in the graded free algebra on generators S_1, S_2, ...

A homogeneous component of degree n maps compositions of n (tuples of
positive integers) to coefficients in an exact ring.  The product is
concatenation of compositions extended bilinearly, so a series with unit
constant term is invertible degree by degree.

A composition of n is a descent set D in {1, ..., n-1}, so a series stores
the component of degree n >= 1 as a row of 2^(n-1) slots, one slot at degree
0, in the layout that ``combinat.descent_mask`` defines (the order of
``compositions(n)``), with ``ring.zero`` for an absent word.  Rows are read
here and by ``lagrange.theta_t``, which unpacks the rows of an integer
quotient; ``NcsfSeries._of`` wraps those written here, by ``lagrange.solve_g``
and ``gessel_gamma``, ``schroeder.solve_xy_system`` and the tree-code walk
``combinat.tree_code_prefix_sums``.  ``NcsfSeries(ring, comps, basis)``
reads dicts of words, and ``component`` and ``components`` are read-only views.

Three bases are supported.  S is the computational basis; the ribbon basis R
and the elementary basis L exist as views.  With s, r and l the coefficients
in the three bases,

    r[D] = sum of s[D'] over D' containing D   (S^I = sum of R_J, J coarser),
    s[D] = sum of (-1)^(|D'| - |D|) r[D'] over D' containing D,
    l[D] = (-1)^(n-1-|D|) sum of s[D'] over D' inside D,

the last its own inverse (S_n = sum of (-1)^(n - len J) L^J over compositions
J of n, extended multiplicatively).  Alphabet negation is that subset sum
signed (-1)^(|D|+1).  ``_descent_transform`` computes each of them.

Every series records the degree through which it is exact; operations derive
the output truncation from the inputs and raise rather than silently truncate.

Every product, and each step of ``_right_solve``, the triangular solve of
``right_quotient`` (whose quotient of 1 is the inverse) and ``right_divide``,
is the block update ``_row_conv_into``.  ``graded_power`` reads the degree-d
row of u^m off the rows of u through degree d, so a fixed-point solver
(``lagrange_step``, for the x of the x/y system) can call it while u grows;
``compose`` reads its powers there too.  ``lagrange.solve_g`` convolves
no row: it grows the powers of g by their first letter, in the layout of
the ``graded_power`` memo, which ``lagrange.gessel_gamma`` then reads.
``series_power_binomial`` chains ``series_mul``, as a memo would gain it
little.  Annihilation, right division by S_1, ``phi_k`` and the first-part
map ``raise_first_part`` send each output word back to at most one input
word, so they read slots off the rows; annihilation reaches the R and L
bases through ``convert_basis``, one operator in every basis.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from functools import wraps
from itertools import compress, repeat
from operator import add, itemgetter, neg, sub

from .coeffring import EPoly, PolyT, POLYT_ONE, RINGS, Ring, _Value
from .combinat import (_compositions, _size, _zero_rows, check_composition, descent_mask,
                       is_composition)

BASES = ("S", "R", "L")


class TruncationError(ValueError):
    """An operation needs more exact degrees than its input carries."""


class NotDivisibleError(ValueError):
    """Right division left a residual term not ending in the divisor part."""


def _negated(row) -> tuple:
    # a zero slot keeps its object: negating a zero PolyT would build another
    return tuple(-c if c else c for c in row)


class _Component(Mapping):
    """Read-only word -> coefficient view of the row of degree ``n``: zero
    slots absent, words in ``compositions(n)`` order."""

    __slots__ = ("_row", "_n")

    def __init__(self, row: tuple, n: int):
        self._row, self._n = row, n

    def __getitem__(self, word):
        if (isinstance(word, tuple) and is_composition(word)
                and sum(word) == self._n and (coeff := self._row[descent_mask(word)])):
            return coeff
        raise KeyError(word)

    def __iter__(self):
        return compress(_compositions(self._n), self._row)

    def __len__(self) -> int:
        return sum(map(bool, self._row))

    def items(self):
        return _Items(self)

    def values(self):
        return _Values(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _Items(ItemsView):
    def __iter__(self):
        return filter(itemgetter(1), zip(_compositions(self._mapping._n), self._mapping._row))


class _Values(ValuesView):
    def __iter__(self):
        return filter(None, self._mapping._row)


def _row_of(comp: Mapping, n: int, zero) -> tuple:
    """The row of a map of words of degree ``n``, ``zero`` for an absent
    word; a key that is not a composition of ``n`` raises ``ValueError``."""
    words = _compositions(n)
    if sum(map(comp.__contains__, words)) != len(comp):
        bad = next(iter(set(comp).difference(words)))
        raise ValueError(f"word {bad} in the component of degree {n}")
    return tuple(map(comp.get, words, repeat(zero)))


class NcsfSeries(_Value):
    """Graded truncated element of the free algebra, tagged with a basis.

    A series is immutable: its rows are tuples and its components read-only
    views, so the series that the caches hand out cannot be changed."""

    __slots__ = ("ring", "basis", "_rows")

    def __init__(self, ring: Ring, components, basis: str = "S"):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self._fill(ring, [_row_of(c, n, ring.zero) for n, c in enumerate(components)], basis)

    @classmethod
    def _of(cls, ring: Ring, rows, basis: str = "S") -> "NcsfSeries":
        """The series over rows of the layout; a tuple is shared, not copied."""
        series = object.__new__(cls)
        series._fill(ring, rows, basis)
        return series

    def _fill(self, ring: Ring, rows, basis: str):
        for name, value in ("ring", ring), ("basis", basis), ("_rows", tuple(map(tuple, rows))):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # the ring goes by name, so a copy shares the descriptor in RINGS
        return _series_of, (self.ring.name, self._rows, self.basis)

    @property
    def order(self) -> int:
        return len(self._rows) - 1

    @property
    def components(self) -> tuple:
        """The read-only components of degree 0..order."""
        return tuple(map(_Component, self._rows, range(len(self._rows))))

    def component(self, n: int) -> Mapping:
        if n < 0:
            raise ValueError(f"no component of negative degree {n}")
        if n > self.order:
            raise TruncationError(f"series exact through degree {self.order}, "
                                  f"component {n} requested")
        return _Component(self._rows[n], n)

    def coefficient(self, word):
        """The coefficient of a composition, a sequence of parts; a part that
        is not a positive int raises ``ValueError``."""
        word = tuple(word)
        check_composition(word)
        return self.component(sum(word)).get(word, self.ring.zero)

    def truncate(self, order: int) -> "NcsfSeries":
        check_order(order)
        if order > self.order:
            raise TruncationError(f"series exact through degree {self.order}, "
                                  f"truncation {order} requested")
        return NcsfSeries._of(self.ring, self._rows[: order + 1], self.basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NcsfSeries):
            return NotImplemented
        return (self.ring.name == other.ring.name and self.basis == other.basis
                and self._rows == other._rows)

    def __add__(self, other) -> "NcsfSeries":
        self._check_compatible(other)
        return NcsfSeries._of(self.ring, [map(add, a, b) for a, b in zip(self._rows, other._rows)],
                              self.basis)

    def __neg__(self) -> "NcsfSeries":
        return NcsfSeries._of(self.ring, map(_negated, self._rows), self.basis)

    def scale(self, c) -> "NcsfSeries":
        return self.map_coefficients(lambda v: v * c)

    def map_coefficients(self, fn, ring: Ring | None = None) -> "NcsfSeries":
        ring = ring or self.ring
        zero = ring.zero
        return NcsfSeries._of(ring, [[fn(c) if c else zero for c in row]
                                     for row in self._rows], self.basis)

    def _check_compatible(self, other):
        if self.ring.name != other.ring.name:
            raise ValueError(f"ring mismatch: {self.ring.name} vs {other.ring.name}")
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")

    def __repr__(self) -> str:
        nterms = sum(len(c) for c in self.components)
        return (f"NcsfSeries(ring={self.ring.name}, basis={self.basis}, "
                f"order={self.order}, terms={nterms})")


def check_order(order: int) -> None:
    """Refuse a negative truncation order: no series is exact through it."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")


def _series_of(ring_name: str, rows, basis: str) -> NcsfSeries:
    return NcsfSeries._of(RINGS[ring_name], rows, basis)


def longest(build):
    """Cache ``build(order)`` by the longest series built: a lower order is
    its truncation, a higher one builds anew and replaces it, and a negative
    one is refused.  ``cache_clear`` drops it; ``__wrapped__`` is ``build``."""
    @wraps(build)
    def series(order: int) -> NcsfSeries:
        check_order(order)
        if series.kept is None or series.kept.order < order:
            series.kept = build(order)
        return series.kept.truncate(order)
    series.cache_clear = lambda: setattr(series, "kept", None)
    series.cache_clear()
    return series


def unit_series(ring: Ring, order: int) -> NcsfSeries:
    check_order(order)
    return NcsfSeries._of(ring, [(ring.one,)] + _zero_rows(ring.zero, order)[1:])


def sigma1(ring: Ring, order: int) -> NcsfSeries:
    """The sum 1 + S_1 + S_2 + ... truncated at ``order``."""
    check_order(order)
    # S_n is the word (n), slot 0 of its row
    return NcsfSeries._of(ring, [[ring.one] + row[1:] for row in _zero_rows(ring.zero, order)])


def series_mul(u: NcsfSeries, v: NcsfSeries) -> NcsfSeries:
    """Graded Cauchy product; words concatenate, order is preserved."""
    u._check_compatible(v)
    if u.basis != "S":
        raise ValueError("products are computed in the S basis")
    order, one = min(u.order, v.order), u.ring.one
    out = _zero_rows(u.ring.zero, order)
    for da, a in enumerate(u._rows[: order + 1]):
        for db in range(order + 1 - da):
            _row_conv_into(out[da + db], a, da, v._rows[db], db, one)
    return NcsfSeries._of(u.ring, out)


def series_inverse(u: NcsfSeries) -> NcsfSeries:
    """Two-sided inverse of a series with constant term 1: the right quotient of 1 by it."""
    return right_quotient(unit_series(u.ring, u.order), u)


def right_quotient(v: NcsfSeries, u: NcsfSeries) -> NcsfSeries:
    """The w with w u = v, for u with constant term 1, through the lower
    order: w_n = v_n - sum_{i>=1} w_{n-i} u_i, one degree after another."""
    v._check_compatible(u)
    if u.basis != "S":
        raise ValueError("right quotients are computed in the S basis")
    if u._rows[0] != (u.ring.one,):
        raise ValueError("right quotient requires a divisor with constant term 1")
    return _right_solve(v, u, 0)


def _right_solve(v: NcsfSeries, u: NcsfSeries, d: int) -> NcsfSeries:
    """The triangular solve of w u = v by the lead word u_d of u, 1 at
    d = 0 and S_1 at d = 1: w_{n-d} = (v_n - sum_{i>d} w_{n-i} u_i) / u_d.
    Dividing by S_1 keeps the odd slots, the words ending in 1 (at degree 1
    its one slot); a nonzero even slot raises ``NotDivisibleError``."""
    minus_u, w = (-u)._rows, []
    for n in range(d, min(v.order, u.order) + 1):
        acc = list(v._rows[n])
        for i in range(d + 1, n + 1):
            _row_conv_into(acc, w[n - i], n - i, minus_u[i], i, u.ring.one)
        if d and n > 1:
            for i in range(0, len(acc), 2):
                if acc[i]:
                    raise NotDivisibleError(f"residual term {_compositions(n)[i]} at "
                                            f"degree {n} does not end in 1")
            acc = acc[1::2]
        w.append(acc)
    return NcsfSeries._of(u.ring, w)


def compose(a: NcsfSeries, b: NcsfSeries) -> NcsfSeries:
    """sum_n a_n b^n, a_n the degree-n component of ``a``, through the lower
    order; the rows of b^n come off ``graded_power`` with one memo."""
    a._check_compatible(b)
    if b.basis != "S":
        raise ValueError("composition is computed in the S basis")
    order, one, zero = min(a.order, b.order), b.ring.one, b.ring.zero
    acc = _zero_rows(zero, order)
    memo: dict = {}
    for n in range(order + 1):
        for j in range(order + 1 - n):
            _row_conv_into(acc[n + j], a._rows[n], n,
                           graded_power(b._rows, n, j, memo, one, zero), j, one)
    return NcsfSeries._of(b.ring, acc)


def _row_conv_into(target: list, a, da: int, b, db: int, one) -> None:
    """Add the product of the rows ``a`` and ``b``, of degrees ``da`` and
    ``db``, into the row ``target``.  The bit 2^(db-1) is the descent
    between the factors: the word i of ``a`` before all of ``b`` is the
    block of 2^(db-1) slots from (i << db) | 2^(db-1), and all of ``a``
    before the word i of ``b`` every 2^db-th slot from 2^(db-1) | i; the
    loop runs over the shorter row.  A zero slot of ``a`` is never
    multiplied, and a degree-0 factor equal to ``one`` adds the other row.
    Over ``EPoly`` a block or stride is one ``EPoly.mul_add_row``: each slot
    t + a b is summed in one copy of t's terms, and no product is built."""
    fused = isinstance(one, EPoly)
    if not (da and db):
        scalar, row = (a[0], b) if not da else (b[0], a)
        if scalar:
            target[:] = (map(add, target, row) if scalar == one else
                         EPoly.mul_add_row(target, row, scalar) if fused else
                         [t + c * scalar if c else t for t, c in zip(target, row)])
        return
    size = 1 << (db - 1)
    if len(a) <= size:
        for i, ca in enumerate(a):
            if ca:
                lo = (i << db) | size
                target[lo:lo + size] = (EPoly.mul_add_row(target[lo:lo + size], b, ca) if fused
                                        else [t + ca * c for t, c in zip(target[lo:lo + size], b)])
    else:
        for i, cb in enumerate(b):
            if cb:
                cells = slice(size | i, None, 1 << db)
                target[cells] = (EPoly.mul_add_row(target[cells], a, cb) if fused else
                                 [t + c * cb if c else t for t, c in zip(target[cells], a)])


def graded_power(rows, m: int, d: int, memo: dict, one, zero):
    """Degree-``d`` row of the m-th power of the graded series ``rows``.

    Reads only the rows of degree <= d, so ``rows`` may still be growing.
    ``memo`` keeps the (m, d) rows already computed; the caller decides how
    long it lives.  The first power is ``rows`` itself, not a copy.  ``one``
    and ``zero`` are the units of the coefficient ring.  ``lagrange_step``
    (so the x/y system's x), ``compose`` and ``lagrange.gessel_gamma`` use
    it; the last reads the memo that ``lagrange.solve_g`` fills without it.
    """
    if m == 0:
        return [one] if d == 0 else [zero] * (1 << (d - 1))
    if m == 1:
        return rows[d]
    key = (m, d)
    acc = memo.get(key)
    if acc is None:
        acc = [zero] * _size(d)
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
    if u._rows[0] != (u.ring.one,):
        raise ValueError("binomial power requires constant term 1")
    out = wj = unit_series(u.ring, u.order)
    w = u - out
    binom = POLYT_ONE
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
    word dies.  The word of mask a and degree d >= 1 followed by the part n
    has the mask (a << n) | 2^(n-1), so the degree-d row is every 2^n-th
    slot of the degree-(d + n) row from 2^(n-1); at degree 0 it is the slot
    of S_n.  A series in the R or L basis is annihilated in S and converted
    back.
    """
    if n < 1:
        raise ValueError("annihilation index must be positive")
    if u.order < n:
        raise TruncationError("series too short for this annihilation")
    if u.basis != "S":
        return convert_basis(annihilate(convert_basis(u, "S"), n), u.basis)
    rows = u._rows[n:]
    step = 1 << n
    return NcsfSeries._of(u.ring, [rows[0][:1]] + [row[step >> 1::step] for row in rows[1:]])


def with_last_part(gamma: NcsfSeries) -> NcsfSeries:
    """1 + gamma (sigma_1 - 1), one degree beyond ``gamma``: (I, x) has the
    coefficient of I for every last part x.  In the row of degree d, S_d is
    slot 0 and the words of last part x < d the slots ``annihilate`` reads."""
    rows = [(gamma.ring.one,)]
    for d in range(1, gamma.order + 2):
        rows.append([gamma._rows[0][0]] * _size(d))
        for x in range(1, d):
            rows[d][1 << (x - 1)::1 << x] = gamma._rows[d - x]
    return NcsfSeries._of(gamma.ring, rows)


def raise_first_part(g: NcsfSeries) -> NcsfSeries:
    """``g`` of order n under the word map S_m w -> S_{m+1} w, 1 -> S_1, a
    series through degree n + 1.  The map keeps descent masks, so row d + 1
    is row d of g, then zeros for the words starting with S_1 (none at d = 0)."""
    zero = g.ring.zero
    return NcsfSeries._of(g.ring, [(zero,)] + [row + (zero,) * len(row) if d else row
                                               for d, row in enumerate(g._rows)])


# ---------------------------------------------------------------------------
# basis conversions

def _descent_transform(u: NcsfSeries, basis: str, butterfly,
                       negate_odd: bool = False) -> NcsfSeries:
    """The linear map acting on each descent position by ``butterfly``.

    Each of the n-1 passes (Yates) over the row of degree n >= 1 maps the
    slices (a, b) of slots without and with one descent position to
    ``butterfly(a, b)``.  With ``negate_odd``, odd degrees then change sign.
    Degree 0 passes through unchanged.
    """
    out = [u._rows[0]]
    for n in range(1, u.order + 1):
        slots = list(u._rows[n])
        for half in (1 << p for p in range(n - 1)):
            for lo in range(0, len(slots), 2 * half):
                mid, hi = lo + half, lo + 2 * half
                slots[lo:mid], slots[mid:hi] = butterfly(slots[lo:mid], slots[mid:hi])
        out.append(_negated(slots) if negate_odd and n % 2 else slots)
    return NcsfSeries._of(u.ring, out, basis)


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
    # each output word w has one preimage, k w in degree k |w|: the descent
    # bit b of the mask of w is the bit k b + k - 1 of the mask of k w
    rows, slots = u._rows[::k], [0]
    out = [rows[0]]
    for d in range(1, len(rows)):
        out.append([rows[d][i] for i in slots])
        slots += [i | 1 << (k * d - 1) for i in slots]
    return NcsfSeries._of(u.ring, out)


def lagrange_transform(g: NcsfSeries, u: NcsfSeries) -> NcsfSeries:
    """The morphism S_n -> g_n applied to ``u`` (degrees are preserved).

    ``g`` must be exact at least through the order of ``u``.  The words
    S_m w of a row of degree n are the block of the row of w, so the image
    of the row is the sum over m of g_m times the image of that block.
    """
    if u.basis != "S" or g.basis != "S":
        raise ValueError("the transform acts on the S basis")
    if g.order < u.order:
        raise TruncationError("transform series shorter than the argument")

    def image(row, n: int):
        if not n:
            return row
        acc = [u.ring.zero] * _size(n)
        for m in range(1, n + 1):
            # the words S_m w, w of degree n - m: slot 0 at m = n, else a block
            lo = _size(n - m) if m < n else 0
            block = row[lo:lo + _size(n - m)]
            if any(block):
                _row_conv_into(acc, g._rows[m], m, image(block, n - m), n - m, u.ring.one)
        return acc

    return NcsfSeries._of(u.ring, map(image, u._rows, range(len(u._rows))))


# ---------------------------------------------------------------------------
# exact right division

def right_divide(v: NcsfSeries, u: NcsfSeries) -> NcsfSeries:
    """Solve theta * u = v exactly (``_right_solve``), for u with zero
    constant term and lowest term S_1; a remainder raises NotDivisibleError."""
    v._check_compatible(u)
    if v.basis != "S":
        raise ValueError("right division is computed in the S basis")
    if v._rows[0][0] or u._rows[0][0]:
        raise ValueError("right division requires zero constant terms")
    if min(v.order, u.order) < 1:
        raise TruncationError("right division needs at least degree 1")
    if u._rows[1] != (v.ring.one,):
        raise ValueError("divisor must start with S_1")
    return _right_solve(v, u, 1)
