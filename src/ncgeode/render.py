"""Text and JSON rendering of series, plus JSON round-tripping.

Text output mirrors the usual notation of the field: S_3 and S^{211} for the
complete basis, R_{21} for ribbons, L^{21} for the elementary basis, with
coefficients prefixed, e.g. "gamma_3 = 3S_3 + 3S^{21} + 2S^{12} + S^{111}".
"""

from __future__ import annotations

from .coeffring import POLYT_ONE, EPoly, PolyT, RINGS, fraction_to_str
from .combinat import composition_sort_key
from .ncsf import NcsfSeries


def composition_str(word: tuple[int, ...], basis: str) -> str:
    if not word:
        return "1"
    body = ",".join(str(p) for p in word) if any(p > 9 for p in word) \
        else "".join(str(p) for p in word)
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


def _monomial_t(coeff: int, power: int, var: str) -> str:
    if power == 0:
        return str(coeff)
    head = "" if coeff == 1 else ("-" if coeff == -1 else str(coeff))
    tail = var if power == 1 else f"{var}^{power}"
    return head + tail


def polyt_str(p: PolyT, var: str = "t") -> str:
    """Render over the common denominator, e.g. (3t^2-t)/2 or 2t or 1."""
    if not p:
        return "0"
    parts = []
    for power in range(len(p.num) - 1, -1, -1):
        c = p.num[power]
        if not c:
            continue
        mono = _monomial_t(c, power, var)
        if parts:
            parts.append("-" + mono[1:] if mono.startswith("-") else "+" + mono)
        else:
            parts.append(mono)
    core = "".join(parts)
    if p.den != 1:
        return f"({core})/{p.den}"
    return core


def partition_str(part: tuple[int, ...]) -> str:
    if not part:
        return "1"
    body = ",".join(str(x) for x in part) if any(x > 9 for x in part) \
        else "".join(str(x) for x in part)
    if len(part) == 1 and part[0] <= 9:
        return f"e_{body}"
    return f"e_{{{body}}}"


def epoly_str(p: EPoly) -> str:
    if not p:
        return "0"
    parts = []
    for partition, c in p.sorted_terms():
        if not partition:
            mono = str(c)
        else:
            head = "" if c == 1 else ("-" if c == -1 else str(c))
            mono = head + partition_str(partition)
        if parts:
            parts.append("-" + mono[1:] if mono.startswith("-") else "+" + mono)
        else:
            parts.append(mono)
    return "".join(parts)


def coeff_prefix(coeff, ring_name: str) -> str:
    """Coefficient as a prefix for a basis symbol; empty for 1.

    Returns a string starting with "-" for negative leading coefficients so
    the caller can fold the sign into the joining operator.
    """
    if ring_name == "int":
        if coeff == 1:
            return ""
        if coeff == -1:
            return "-"
        return str(coeff)
    if ring_name == "polyt":
        if coeff == POLYT_ONE:
            return ""
        s = polyt_str(coeff)
        if s.startswith("(") or ("+" not in s[1:] and "-" not in s[1:]):
            return s
        return f"({s})"
    if ring_name == "epoly":
        if coeff == EPoly({(): 1}):
            return ""
        if len(coeff.terms) == 1:
            ((partition, c),) = coeff.terms.items()
            if not partition:
                return str(c)
            head = "" if c == 1 else ("-" if c == -1 else str(c))
            return head + partition_str(partition)
        return f"({epoly_str(coeff)})"
    raise ValueError(f"unknown ring {ring_name!r}")


def component_str(comp: dict, basis: str, ring_name: str) -> str:
    if not comp:
        return "0"
    words = sorted(comp, key=composition_sort_key)
    parts = []
    for w in words:
        prefix = coeff_prefix(comp[w], ring_name)
        term = prefix + composition_str(w, basis) if w else \
            (prefix if prefix not in ("", "-") else prefix + "1")
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(" - " + term[1:])
        else:
            parts.append(" + " + term)
    return "".join(parts)


def series_to_text(series: NcsfSeries, name: str) -> list[str]:
    lines = []
    for n, comp in enumerate(series.components):
        lines.append(f"{name}_{n} = {component_str(comp, series.basis, series.ring.name)}")
    return lines


def series_to_json_dict(series: NcsfSeries, name: str) -> dict:
    ring = series.ring
    components = []
    for n, comp in enumerate(series.components):
        terms = [{"composition": list(w), "coeff": ring.to_json(c)}
                 for w, c in sorted(comp.items(), key=lambda kv: composition_sort_key(kv[0]))]
        components.append({"degree": n, "terms": terms})
    return {"series": name, "ring": ring.name, "basis": series.basis,
            "truncation": series.order, "components": components}


def series_from_json(data: dict) -> NcsfSeries:
    """Rebuild a series from the output of ``series_to_json_dict``.

    Raises ValueError for a missing key, an unknown ring, a negative
    truncation or a component degree outside 0..truncation.
    """
    try:
        ring_name, order, basis = data["ring"], data["truncation"], data["basis"]
        entries = [(entry["degree"],
                    [(term["composition"], term["coeff"]) for term in entry["terms"]])
                   for entry in data["components"]]
    except KeyError as exc:
        raise ValueError(f"series JSON lacks the key {exc}") from None
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
            comps[degree][tuple(word)] = ring.from_json(coeff)
    return NcsfSeries(ring, comps, basis)


def uniseries_to_json_dict(series, name: str) -> dict:
    return {"map": name, "order": series.order,
            "coefficients": [fraction_to_str(c) for c in series.coeffs]}


def biseries_to_json_dict(series, name: str) -> dict:
    terms = [{"powers": [i, j], "coeff": fraction_to_str(c)}
             for (i, j), c in sorted(series.terms.items())]
    return {"map": name, "order": series.order, "terms": terms}
