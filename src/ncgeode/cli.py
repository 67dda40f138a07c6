"""Command-line front end.

Subcommands: expand, klagrange, eseries, trees, specialize, verify.
Exit codes: 0 success, 1 verification failure, 2 usage error, 141 output cut
short by the reader.  Flags control everything; equal invocations print equal output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from itertools import islice

from .combinat import (_plane_arity, catalan, count_parking_quasi_ribbons, is_composition,
                       iter_parking_quasi_ribbons, iter_tree_codes, large_schroeder)
from .gfseries import specialize_ncsf
from .lagrange import (eta_t, g_t, gamma_t, geode, gessel_gamma, h_t,
                       k_lagrange_by_phi, k_lagrange_direct, prime_series,
                       solve_g, specialize_t)
from .ncsf import convert_basis
from .render import (biseries_to_json_dict, series_to_json_dict,
                     series_to_text, uniseries_to_json_dict, word_str)
from .schroeder import _arity, g_e, gamma_e, iter_prime_schroeder
from .verify import SUITES, run_suite


# the commands refuse a request for more words, trees or fillings
MAX_ITEMS = 10**6
# counting the fillings costs time quadratic in the letter count of the shape
PQR_MAX_LETTERS = 2000
# items per json.dumps: one item per call doubles the CPU, all in one holds them all
JSON_CHUNK = 1024


class Refused(Exception):
    """A refused request: ``main`` prints the message to stderr and exits 2."""


def _digits(text: str) -> bool:
    """Whether ``text`` is plain decimal digits: ``int`` would also take
    underscores, a sign and spaces, or digits of other scripts."""
    return text.isascii() and text.isdigit()


def _parse_shape(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    if all(map(_digits, parts)):
        shape = tuple(map(int, parts))
        if is_composition(shape):
            return shape
    raise argparse.ArgumentTypeError(f"bad composition {text!r}")


def _nonnegative(text: str) -> int:
    if _digits(text):
        return int(text)
    if text[:1] == "-" and _digits(text[1:]):
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {int(text)}")
    raise argparse.ArgumentTypeError(f"invalid int value {text!r}")


# built once per process: parsing leaves the parser unchanged
@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncgeode",
        description="exact noncommutative Lagrange series, geodes and friends")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand a named series")
    p.set_defaults(run=cmd_expand)
    p.add_argument("--series", required=True,
                   choices=("g", "gamma", "h", "eta", "gessel"))
    p.add_argument("--degree", type=_nonnegative, required=True)
    p.add_argument("--ring", choices=("int", "polyt"), default="int")
    p.add_argument("--basis", choices=("S", "R", "L"), default="S")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("klagrange", help="expand the k-Lagrange series")
    p.set_defaults(run=cmd_klagrange)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--degree", type=_nonnegative, required=True)
    p.add_argument("--route", choices=("direct", "phi", "delta"), default="delta")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("eseries", help="expand the e-Lagrange series or e-geode")
    p.set_defaults(run=cmd_eseries)
    p.add_argument("--series", choices=("g", "gamma"), required=True)
    p.add_argument("--degree", type=_nonnegative, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("trees", help="enumerate tree codes or ribbon fillings")
    p.set_defaults(run=cmd_trees)
    p.add_argument("--kind", required=True,
                   choices=("lukasiewicz", "schroeder", "prime-schroeder", "pqr"))
    p.add_argument("--n", type=_nonnegative)
    p.add_argument("--shape", type=_parse_shape)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("specialize", help="apply a generating-function specialization")
    p.set_defaults(run=cmd_specialize)
    p.add_argument("--map", required=True, dest="map_name",
                   choices=("catalan", "coeff-sum", "ribbon-u", "lambda-abs", "zq"))
    p.add_argument("--series", choices=("g", "gamma", "ge"), required=True)
    p.add_argument("--order", type=_nonnegative, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="run the verification suites")
    p.set_defaults(run=cmd_verify)
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--degree", type=_nonnegative, default=6)
    return parser


def _refuse_order(order: int, request: str) -> None:
    """Raise ``Refused`` for a request that solves a series through
    ``order`` when 2^(order+1) words exceed ``MAX_ITEMS``: a series through
    order n holds up to 2^n words, one per composition of each degree."""
    # compared by bit length, so a huge order costs no huge power of 2
    if order + 1 >= MAX_ITEMS.bit_length():
        raise Refused(f"{request} needs up to 2^{order + 1} words, "
                      f"more than the limit of {MAX_ITEMS}")


def _emit_series(series, name, fmt, out):
    if fmt == "json":
        print(json.dumps(series_to_json_dict(series, name)), file=out)
    else:
        for line in series_to_text(series, name):
            print(line, file=out)


def cmd_expand(args, out) -> int:
    n = args.degree
    # the series solved reach order n + 1 at most, which holds 2^(n+1) words
    _refuse_order(n, f"--degree {n}")
    if args.ring == "int":
        makers = {"g": solve_g, "gamma": geode, "gessel": gessel_gamma,
                  "h": lambda d: prime_series(d)[0],
                  "eta": lambda d: prime_series(d)[1]}
    elif args.series == "gessel":
        raise Refused("the inversion-formula route is only computed over int")
    else:
        makers = {"g": g_t, "gamma": gamma_t, "h": h_t, "eta": eta_t}
    series = convert_basis(makers[args.series](n), args.basis)
    _emit_series(series, args.series, args.format, out)
    return 0


def cmd_klagrange(args, out) -> int:
    n = args.degree
    if args.route == "phi" and args.k < 1:
        raise Refused("the phi route needs k >= 1")
    # the phi route solves g through order k n, the others through order n
    order = args.k * n if args.route == "phi" else n
    _refuse_order(order, f"--route {args.route} --k {args.k} --degree {n}")
    if args.route == "direct":
        series = k_lagrange_direct(args.k, n)
    elif args.route == "phi":
        series = k_lagrange_by_phi(args.k, n)
    else:
        series = specialize_t(g_t(n), args.k)
    _emit_series(series, f"g^({args.k})", args.format, out)
    return 0


def cmd_eseries(args, out) -> int:
    # gamma^[e] through degree n is read off the prefix walk through n, and
    # g^[e] through n appends the last parts to the walk through n - 1
    _refuse_order(args.degree, f"--series {args.series} --degree {args.degree}")
    series = g_e(args.degree) if args.series == "g" else gamma_e(args.degree)
    name = "g^[e]" if args.series == "g" else "gamma^[e]"
    _emit_series(series, name, args.format, out)
    return 0


def count_trees(kind: str, n: int) -> int:
    """How many codes ``trees --kind kind --n n`` lists, without listing them:
    Catalan(n) plane trees, the little Schroeder number s_n of Schroeder
    trees, and the large Schroeder number r_(n-1) of prime Schroeder trees."""
    if kind == "lukasiewicz":
        return catalan(n)
    if kind == "schroeder":
        # s_n = r_n / 2 for n >= 1, and s_0 = r_0 = 1
        return (large_schroeder(n) + 1) // 2
    return large_schroeder(n - 1)


def _emit_items(head: dict, items, count: int, line, fmt, out):
    """Print the ``count`` items as they come: one JSON object after the keys
    of ``head``, ``JSON_CHUNK`` items per ``json.dumps``, or one ``line`` each."""
    if fmt == "json":
        items = iter(items)
        chunks = iter(lambda: json.dumps(list(islice(items, JSON_CHUNK)))[1:-1], "")
        out.write(json.dumps({**head, "count": count, "items": []})[:-2])
        for i, chunk in enumerate(chunks):
            out.write(", " * bool(i) + chunk)
        print("]}", file=out)
    else:
        for item in items:
            print(line(item), file=out)
        print(f"count: {count}", file=out)


def cmd_trees(args, out) -> int:
    # a flag the kind does not read is refused, not ignored
    flag, value = ("--n", args.n) if args.kind == "pqr" else ("--shape", args.shape)
    if value is not None:
        raise Refused(f"{flag} is not read by --kind {args.kind}")
    if args.kind == "pqr":
        if args.shape is None:
            raise Refused("--shape is required for pqr")
        letters = sum(args.shape)
        if letters > PQR_MAX_LETTERS:
            raise Refused(f"shape has {letters} letters, more than the limit of "
                          f"{PQR_MAX_LETTERS}")
        count = count_parking_quasi_ribbons(args.shape)
        if count > MAX_ITEMS:
            raise Refused(f"shape {','.join(map(str, args.shape))} has {count} "
                          f"fillings, more than the limit of {MAX_ITEMS}")
        _emit_items({"kind": "pqr", "shape": args.shape},
                    iter_parking_quasi_ribbons(args.shape), count,
                    lambda f: "|".join(map(word_str, f)), args.format, out)
        return 0
    if args.n is None:
        raise Refused("--n is required for tree enumerations")
    if args.kind == "prime-schroeder" and args.n < 1:
        raise Refused("prime Schroeder trees need --n of at least 1")
    count = count_trees(args.kind, args.n)
    if count > MAX_ITEMS:
        raise Refused(f"--kind {args.kind} --n {args.n} has {count} trees, "
                      f"more than the limit of {MAX_ITEMS}")
    codes = (iter_prime_schroeder(args.n) if args.kind == "prime-schroeder" else
             iter_tree_codes(args.n, _plane_arity if args.kind == "lukasiewicz" else _arity))
    _emit_items({"kind": args.kind, "n": args.n}, codes, count, word_str, args.format, out)
    return 0


def cmd_specialize(args, out) -> int:
    name = f"{args.series}:{args.map_name}"
    # the geode through order n is read off g through n + 1
    order = args.order + (args.series == "gamma")
    _refuse_order(order, f"--series {args.series} --order {args.order}")
    if args.map_name == "zq":
        if args.series != "ge":
            raise Refused("zq applies to the e-Lagrange series (--series ge)")
        series = specialize_ncsf(g_e(args.order), "zq")
        if args.format == "json":
            print(json.dumps(biseries_to_json_dict(series, name)), file=out)
        else:
            for (i, j), c in sorted(series.terms.items()):
                print(f"z^{i} q^{j}: {c}", file=out)
        return 0
    if args.series == "ge":
        raise Refused(f"{args.map_name} applies to integer series (g or gamma)")
    base = solve_g(args.order) if args.series == "g" else geode(args.order)
    series = specialize_ncsf(base, args.map_name)
    if args.format == "json":
        print(json.dumps(uniseries_to_json_dict(series, name)), file=out)
    else:
        print(", ".join(str(c) for c in series.coeffs), file=out)
    return 0


def cmd_verify(args, out) -> int:
    _refuse_order(args.degree, f"--degree {args.degree}")
    report = run_suite(args.suite, args.degree)
    for line in report.lines():
        print(line, file=out)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args, sys.stdout)
        # a reader that closed the pipe is met here, not at the exit flush
        sys.stdout.flush()
        return code
    except Refused as exc:
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the exit flush goes to /dev/null; a shell reports 141 for SIGPIPE
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
