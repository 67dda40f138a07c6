"""One benchmark session: serve a request list in this fresh interpreter.

Reads ``{"requests": [...], "trace": bool, "spans": path-or-null,
"metrics": [per-layer metric names]}`` as JSON on stdin and prints one JSON
result line on stdout.  Only the request loop is timed; importing the package
comes before it and the output digests, route agreement and trace statistics
come after it.  With ``trace`` set, the package is wrapped by ``tracer``
before the loop; the result then holds the named per-layer metrics and the
number of exceptions raised inside traced callables, and the spans are
written to ``spans`` at the end.  Besides the wall and CPU seconds of the
request loop, the result gives its interval on the monotonic clock, which the
run matches against the host-speed meter.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

# keep bytecode of the benchmark's own modules out of its directory
sys.dont_write_bytecode = True
import tracer  # noqa: E402
sys.dont_write_bytecode = False


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def series_digest(series) -> str:
    """Digest of the canonical JSON of a returned series."""
    from ncgeode.render import series_to_json_dict
    data = series_to_json_dict(series, "series")
    return digest(json.dumps(data, sort_keys=True, separators=(",", ":")))


def serve(req: dict, cli, schroeder) -> dict:
    """Run one request; a raised exception is recorded, never propagated."""
    out = {"id": req["id"], "exit": None, "error": None, "value": None}
    start = time.perf_counter()
    try:
        if "cli" in req:
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                try:
                    out["exit"] = cli.main(list(req["cli"]))
                except SystemExit as exc:
                    out["exit"] = exc.code
            out["value"] = buf.getvalue()
        else:
            name, args = req["call"]
            out["value"] = getattr(schroeder, name)(*args)
            out["exit"] = 0
    except Exception as exc:  # a failed request must not end the session
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["seconds"] = time.perf_counter() - start
    return out


def run(spec: dict) -> dict:
    from ncgeode import cli, schroeder

    trace = None
    if spec.get("trace"):
        trace = tracer.Tracer()
        tracer.install_ncgeode(trace)
        caches_before = tracer.cache_counts()
        trace.active = True

    results = []
    cpu0 = time.process_time()
    t0 = time.monotonic()
    for req in spec["requests"]:
        results.append(serve(req, cli, schroeder))
    t1 = time.monotonic()
    cpu = time.process_time() - cpu0
    if trace is not None:
        trace.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    groups: dict[str, list] = {}
    for req, res in zip(spec["requests"], results):
        if "agree" in req and res["error"] is None:
            groups.setdefault(req["agree"], []).append(res["value"])
    agreement = {tag: all(v == vals[0] for v in vals[1:]) for tag, vals in groups.items()}
    for req, res in zip(spec["requests"], results):
        value = res.pop("value")
        if res["error"] is None and value is not None:
            res["digest"] = digest(value) if isinstance(value, str) else series_digest(value)
        if "agree" in req:
            res["agrees"] = agreement.get(req["agree"], False)

    out = {"wall_s": t1 - t0, "cpu_s": cpu, "window": [t0, t1], "peak_rss_mb": peak_rss_mb,
           "requests": results}
    if trace is not None:
        summary = trace.summary()
        out["layers"] = tracer.layer_metrics(trace, summary, caches_before,
                                             tracer.cache_counts(), spec["metrics"])
        out["exceptions"] = trace.exceptions
        out["shares"] = tracer.layer_shares(summary, t1 - t0)
        if spec.get("spans"):
            trace.write(spec["spans"])
    return out


if __name__ == "__main__":
    result = run(json.load(sys.stdin))
    sys.stdout.write(json.dumps(result) + "\n")
