"""The benchmark's workloads: fixed request lists run as one session each.

A session is one fresh interpreter that serves every request of its list in
turn, so the package's ``lru_cache``s start cold and are shared by the
session's requests.  The seed only fixes the order of the requests; the
session process receives the ordered list and nothing else.
"""

from __future__ import annotations

import random


def _cli(argv: list[str]) -> dict:
    return {"id": " ".join(argv), "cli": argv}


def _call(fn: str, *args, agree: str | None = None) -> dict:
    req = {"id": f"{fn}({', '.join(repr(a) for a in args)})", "call": [fn, list(args)]}
    if agree:
        req["agree"] = agree
    return req


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS: dict[str, list[dict]] = {
    "tseries": [
        *(_cli(["expand", "--series", s, "--ring", "polyt", "--degree", "8",
                "--format", "json"]) for s in ("g", "gamma", "h", "eta")),
        _cli(["expand", "--series", "gamma", "--ring", "polyt", "--degree", "8",
              "--basis", "R"]),
    ],
    "verify": [
        _cli(["verify", "--suite", s, "--degree", "12"])
        for s in ("paper", "identities", "oeis")
    ],
    "eseries": [
        *(_call("g_e", 9, route, agree="g_e(9)") for route in ("delta", "system", "trees")),
        _call("gamma_e", 8),
    ],
}


def session_requests(workload: str, seed: int, index: int) -> list[dict]:
    """The requests of session ``index`` of a run, in the seed's order.

    Sessions come in pairs: an odd session serves the requests of the even
    session before it in reverse.  Cache sharing makes time and memory depend
    on the order (``g_e`` by trees before the system route raises the eseries
    peak by about a tenth), and each pair covers both sides of every such
    precedence.
    """
    reqs = list(WORKLOADS[workload])
    random.Random(f"{seed}:{index // 2}").shuffle(reqs)
    return reqs[::-1] if index % 2 else reqs
