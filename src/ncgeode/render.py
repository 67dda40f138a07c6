"""Text and JSON rendering of series, plus JSON round-tripping.

Text output mirrors the usual notation of the field: S_3 and S^{211} for the
complete basis, R_{21} for ribbons, L^{21} for the elementary basis, with
coefficients prefixed, e.g. "gamma_3 = 3S_3 + 3S^{21} + 2S^{12} + S^{111}".
"""

from __future__ import annotations

from .coeffring import EPOLY_RING, POLYT_ONE, EPoly, PolyT, RINGS, fraction_to_str
from .combinat import is_composition
from .ncsf import NcsfSeries


def word_str(word: tuple[int, ...]) -> str:
    """The letters of a word run together, or comma-separated if one
    exceeds 9."""
    body = "".join(map(str, word))
    # a letter above 9 has two digits or more, which lengthens the string
    return body if len(body) == len(word) else ",".join(map(str, word))


def composition_str(word: tuple[int, ...], basis: str) -> str:
    if not word:
        return "1"
    body = word_str(word)
    if basis == "S":
        if len(word) == 1:
            n = word[0]
            return f"S_{n}" if n <= 9 else f"S_{{{n}}}"
        return f"S^{{{body}}}"
    if basis == "R":
        return f"R_{{{body}}}"
    if basis == "L":
        return f"L^{{{body}}}"
    raise ValueError(f"unknown basis {basis!r}")


def _join_signed(terms: list[str], plus: str = "+", minus: str = "-") -> str:
    """Join nonempty ``terms``, folding the leading minus of each term after
    the first into the joining sign."""
    return terms[0] + "".join([minus + t[1:] if t[0] == "-" else plus + t for t in terms[1:]])


def _head(coeff: int) -> str:
    """An integer coefficient as the prefix of a symbol; empty for 1."""
    return "" if coeff == 1 else ("-" if coeff == -1 else str(coeff))


def _monomial_t(coeff: int, power: int, var: str) -> str:
    if power == 0:
        return str(coeff)
    return _head(coeff) + (var if power == 1 else f"{var}^{power}")


def polyt_str(p: PolyT, var: str = "t") -> str:
    """Render over the common denominator, e.g. (3t^2-t)/2 or 2t or 1."""
    if not p:
        return "0"
    num = p.num
    core = _join_signed([_monomial_t(num[k], k, var) for k in range(len(num) - 1, -1, -1)
                         if num[k]])
    if p.den != 1:
        return f"({core})/{p.den}"
    return core


def partition_str(part: tuple[int, ...]) -> str:
    if not part:
        return "1"
    body = word_str(part)
    if len(part) == 1 and part[0] <= 9:
        return f"e_{body}"
    return f"e_{{{body}}}"


def _epoly_monomial(partition: tuple[int, ...], c: int) -> str:
    return _head(c) + partition_str(partition) if partition else str(c)


def epoly_str(p: EPoly) -> str:
    if not p:
        return "0"
    return _join_signed([_epoly_monomial(part, c) for part, c in p.sorted_terms()])


def coeff_prefix(coeff, ring_name: str) -> str:
    """Coefficient as a prefix for a basis symbol; empty for 1.

    Returns a string starting with "-" for negative leading coefficients so
    the caller can fold the sign into the joining operator.
    """
    if ring_name == "int":
        return _head(coeff)
    if ring_name == "polyt":
        if coeff == POLYT_ONE:
            return ""
        s = polyt_str(coeff)
        if s.startswith("(") or ("+" not in s[1:] and "-" not in s[1:]):
            return s
        return f"({s})"
    if ring_name == "epoly":
        if coeff == EPOLY_RING.one:
            return ""
        terms = coeff.terms
        if len(terms) == 1:
            return _epoly_monomial(*next(iter(terms.items())))
        return f"({epoly_str(coeff)})"
    raise ValueError(f"unknown ring {ring_name!r}")


def component_str(comp, basis: str, ring_name: str) -> str:
    if not comp:
        return "0"
    terms = []
    for w, c in comp.items():
        prefix = coeff_prefix(c, ring_name)
        terms.append(prefix + composition_str(w, basis) if w else
                     (prefix if prefix not in ("", "-") else prefix + "1"))
    return _join_signed(terms, " + ", " - ")


def series_to_text(series: NcsfSeries, name: str) -> list[str]:
    lines = []
    for n, comp in enumerate(series.components):
        lines.append(f"{name}_{n} = {component_str(comp, series.basis, series.ring.name)}")
    return lines


def series_to_json_dict(series: NcsfSeries, name: str) -> dict:
    ring = series.ring
    components = []
    for n, comp in enumerate(series.components):
        terms = [{"composition": list(w), "coeff": ring.to_json(c)} for w, c in comp.items()]
        components.append({"degree": n, "terms": terms})
    return {"series": name, "ring": ring.name, "basis": series.basis,
            "truncation": series.order, "components": components}


def series_from_json(data: dict) -> NcsfSeries:
    """Rebuild a series from the output of ``series_to_json_dict``.

    Raises ValueError for a missing key, a component or term that is not
    an object, an unknown ring, a negative truncation, a component degree
    outside 0..truncation, a composition that is not a list of positive
    integers (``combinat.is_composition``: no float or bool part) summing to
    its degree, two terms on one word, or a coefficient
    its ring cannot read: a float or a bool where an integer belongs too.
    """
    try:
        ring_name, order, basis = data["ring"], data["truncation"], data["basis"]
        entries = [(entry["degree"],
                    [(term["composition"], term["coeff"]) for term in entry["terms"]])
                   for entry in data["components"]]
    except KeyError as exc:
        raise ValueError(f"series JSON lacks the key {exc}") from None
    except TypeError:
        raise ValueError("series JSON is not shaped as series_to_json_dict writes it") from None
    if ring_name not in RINGS:
        raise ValueError(f"unknown ring {ring_name!r}; expected one of {sorted(RINGS)}")
    if type(order) is not int or order < 0:
        raise ValueError(f"truncation must be a nonnegative integer, not {order!r}")
    ring = RINGS[ring_name]
    comps = [dict() for _ in range(order + 1)]
    for degree, terms in entries:
        if type(degree) is not int or not 0 <= degree <= order:
            raise ValueError(f"component degree {degree!r} outside 0..{order}")
        for word, coeff in terms:
            if type(word) is not list or not is_composition(word):
                raise ValueError(f"composition {word!r} is not a list of positive integers")
            if tuple(word) in comps[degree]:
                raise ValueError(f"two terms on the composition {word}")
            try:
                value = ring.from_json(coeff)
            except (KeyError, TypeError, ZeroDivisionError):
                raise ValueError(f"bad {ring_name} coefficient {coeff!r}") from None
            comps[degree][tuple(word)] = value
    return NcsfSeries(ring, comps, basis)


def uniseries_to_json_dict(series, name: str) -> dict:
    return {"map": name, "order": series.order,
            "coefficients": [fraction_to_str(c) for c in series.coeffs]}


def biseries_to_json_dict(series, name: str) -> dict:
    terms = [{"powers": [i, j], "coeff": fraction_to_str(c)}
             for (i, j), c in sorted(series.terms.items())]
    return {"map": name, "order": series.order, "terms": terms}
