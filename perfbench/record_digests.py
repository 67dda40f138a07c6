"""Re-derive ``digests.json``, the expected output of every benchmark request.

Usage, from the root of a source checkout::

    PYTHONPATH=src python3 perfbench/record_digests.py

Each response is first confirmed by a route independent of the one the
request takes; the digests are written only if every confirmation holds:

* the t-series at t = 1 equal the integer series computed by ``solve_g``,
  ``geode`` and ``prime_series``, and ``g^(t)`` at t = -1 equals the free
  cumulants from alphabet negation;
* the ribbon expansion of the t-geode converts back to the S basis and, at
  t = 1, equals the ribbon expansion of the integer geode;
* each verification suite reports every check as passed;
* each route of ``g^[e]`` and the e-geode specialize (e_1 -> 1, higher e_n
  -> 0) to ``solve_g`` and ``geode``, and (e_n -> (-1)^n) to the free
  cumulants, and the three routes agree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import session  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent


class Unconfirmed(Exception):
    """A response disagrees with its independent route."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise Unconfirmed(what)


def confirm_tseries(req_id: str, text: str) -> None:
    from ncgeode.lagrange import (free_cumulants, gamma_t, geode, prime_series,
                                  solve_g, specialize_t)
    from ncgeode.ncsf import convert_basis
    from ncgeode.render import series_from_json, series_to_text

    if "--basis R" in req_id:
        ribbon = convert_basis(gamma_t(8), "R")
        require(text.splitlines() == series_to_text(ribbon, "gamma"), req_id)
        require(convert_basis(ribbon, "S") == gamma_t(8), req_id)
        require(specialize_t(ribbon, 1) == convert_basis(geode(8), "R"), req_id)
        return
    series = series_from_json(json.loads(text))
    at_one = specialize_t(series, 1)
    name = req_id.split()[2]
    expected = {"g": solve_g(8), "gamma": geode(8), "h": prime_series(8)[0],
                "eta": prime_series(8)[1]}[name]
    require(at_one == expected, req_id)
    if name == "g":
        require(specialize_t(series, -1) == free_cumulants(8), req_id)


def confirm_verify(req_id: str, text: str) -> None:
    lines = text.splitlines()
    checks = [line for line in lines if line.startswith("[")]
    require(checks and all(line.startswith("[PASS]") for line in checks), req_id)
    require(lines[-1] == f"overall: PASS ({len(checks)}/{len(checks)} checks)", req_id)


def confirm_eseries(req_id: str, series) -> None:
    from ncgeode.coeffring import INT_RING, epoly_evaluate
    from ncgeode.lagrange import free_cumulants, geode, solve_g
    from ncgeode.ncsf import annihilate

    def spec(rule):
        return series.map_coefficients(lambda c: epoly_evaluate(c, rule), INT_RING)

    if req_id.startswith("g_e"):
        require(spec("e1") == solve_g(9), req_id)
        require(spec("sign") == free_cumulants(9), req_id)
    else:
        require(spec("e1") == geode(8), req_id)
        require(spec("sign") == annihilate(free_cumulants(9), 1), req_id)


def main() -> int:
    from ncgeode import cli, schroeder

    digests = {}
    for workload, requests in workloads.WORKLOADS.items():
        values = {}
        for req in requests:
            res = session.serve(req, cli, schroeder)
            require(res["error"] is None and res["exit"] == 0, str(res))
            values[req["id"]] = res["value"]
            if workload == "tseries":
                confirm_tseries(req["id"], res["value"])
            elif workload == "verify":
                confirm_verify(req["id"], res["value"])
            else:
                confirm_eseries(req["id"], res["value"])
        routes = [values[req["id"]] for req in requests if "agree" in req]
        require(all(r == routes[0] for r in routes[1:]), f"{workload}: routes disagree")
        for req_id, value in values.items():
            digests[req_id] = (session.digest(value) if isinstance(value, str)
                               else session.series_digest(value))
        print(f"{workload}: {len(values)} responses confirmed", file=sys.stderr)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
