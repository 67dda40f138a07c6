"""Benchmark of ncgeode: timed sessions of the command line and library.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload tseries --seed 1 --seconds 20 --trace 0

The workloads are listed in ``workloads.py`` and explained in BENCHMARK.json.
A run pins itself, and so every process it starts, to one vCPU, then

1. imports the package once in a fresh interpreter and discards that run, so
   bytecode is compiled, then probes ``import ncgeode, ncgeode.cli`` in more
   fresh interpreters, a few before the first session and two after each
   session, so the probes span the run;
2. with ``--trace 0``, starts the host-speed meter (``meter.py``) on the same
   vCPU and runs sessions (``session.py``, each a fresh interpreter with a
   fixed ``PYTHONHASHSEED``) until ``--seconds`` have passed and both request
   orders of a pair have run.  Times are CPU seconds at reference host speed:
   the CPU time of the timed region times ``REF_S`` over the meter's mean
   iteration time in the same interval.  ``session_s`` is their median over
   the sessions, ``setup_s`` over the import probes, and ``peak_rss_mb`` is
   the highest peak memory of a session;
3. with ``--trace 1``, runs pairs of one untraced and one traced session, with
   no meter (spans are wall-clock intervals, which a co-running meter would
   stretch), and reports every per-layer metric of BENCHMARK.json as the
   median over the traced sessions; the spans of the last traced session are
   written under ``.perfbench_out/`` as JSON lines;
4. checks every response against ``digests.json`` and the route agreement of
   the ``g_e`` routes, outside the timed region.

A session (or traced pair) starts only while its full time limit still fits
in the run's budget, so no session is cut short by the run's own limit.  A
request fails on a non-zero exit, an exception, a session time-out, a digest
mismatch or a route disagreement.  A traced session also fails if any
exception was raised inside a traced callable, since none is raised on these
workloads.  Any failure makes the run exit 1; a checkout without the package
makes it exit 2 before printing a result.  The last line of stdout is the JSON
result; the full record of the run goes to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``.

Self-tests of the harness: ``python3 -m pytest perfbench/test_harness.py``.
``record_digests.py`` re-derives ``digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PROBES_FIRST = 5
PROBES_BETWEEN = 2
SESSION_LIMIT_S = 50.0
PROBE_LIMIT_S = 5.0
IMPORT_PROBE = ("import time; c = time.process_time(); t = time.monotonic(); "
                "import ncgeode, ncgeode.cli; "
                "print(time.process_time() - c, t, time.monotonic())")
# The whole run, meter start included, must end within 180 s.
RUN_LIMIT_S = 160.0
# CPU seconds of one meter iteration at reference speed: an uncontended vCPU
# of the Xeon host the bounds were set on.  It only sets the scale, so that
# times read close to seconds on such a host.
REF_S = 0.020
# The meter builds its 36 MB chain before its first sample.
METER_START_LIMIT_S = 10.0
# Meter samples this close to an interval also count for it, so that a short
# import probe still has several.
METER_PAD_S = 0.5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def host_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model, "loadavg": list(os.getloadavg())}


def import_probe() -> tuple[float, list[float]]:
    """CPU seconds of ``import ncgeode, ncgeode.cli`` in a fresh interpreter,
    with the monotonic interval they fell in."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=PROBE_LIMIT_S)
    if proc.returncode:
        raise RuntimeError(f"importing ncgeode failed:\n{proc.stderr}")
    cpu, start, end = map(float, proc.stdout.split())
    return cpu, [start, end]


def start_meter(log: Path) -> subprocess.Popen:
    """Start ``meter.py`` and wait for its first sample."""
    log.unlink(missing_ok=True)  # a log left by an earlier run is not a sample
    meter = subprocess.Popen([sys.executable, str(HERE / "meter.py"), str(log),
                              str(RUN_LIMIT_S + 15)], cwd=ROOT)
    deadline = time.monotonic() + METER_START_LIMIT_S
    while not (log.is_file() and log.stat().st_size):
        if meter.poll() is not None or time.monotonic() > deadline:
            stop(meter)
            raise RuntimeError("the host-speed meter wrote no sample")
        time.sleep(0.01)
    return meter


def stop(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def read_meter(log: Path) -> list[tuple[float, float]]:
    """(end time, CPU seconds) of each meter iteration; a line the meter's end
    cut short, which lacks its newline, is dropped."""
    lines = log.read_text().split("\n")[:-1]
    return [(float(t), float(d)) for t, d in (line.split() for line in lines)]


def at_ref_speed(cpu_s: float, window, samples) -> float:
    """``cpu_s``, spent in ``window``, converted to reference host speed."""
    near = [d for t, d in samples if window[0] - METER_PAD_S <= t <= window[1] + METER_PAD_S]
    if len(near) < 3:
        raise RuntimeError(f"{len(near)} meter samples near {window}; need 3")
    return cpu_s * REF_S * len(near) / sum(near)


def run_session(requests: list[dict], trace: bool, spans: Path | None,
                metrics: list[str], timeout: float) -> dict:
    """Serve one session in a fresh interpreter; never raises for the
    session's own failures, which come back as ``error``."""
    spec = {"requests": requests, "trace": trace, "spans": str(spans) if spans else None,
            "metrics": metrics}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "session.py")],
                              input=json.dumps(spec), env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"session exceeded {timeout:.0f} s", "requests": []}
    if proc.returncode:
        return {"error": f"session exited {proc.returncode}: {proc.stderr[-2000:]}",
                "requests": []}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def request_failures(requests: list[dict], session: dict, digests: dict) -> list[str]:
    """Why each failed request of a session failed, one line each, plus a
    line for exceptions raised inside traced callables."""
    if session.get("error"):
        return [f"{req['id']}: {session['error']}" for req in requests]
    failures = []
    if session.get("exceptions"):
        failures.append(f"session: {session['exceptions']} exceptions raised "
                        "inside traced callables")
    by_id = {res["id"]: res for res in session["requests"]}
    for req in requests:
        res = by_id.get(req["id"])
        if res is None:
            failures.append(f"{req['id']}: no response")
        elif res["error"]:
            failures.append(f"{req['id']}: {res['error']}")
        elif res["exit"] != 0:
            failures.append(f"{req['id']}: exit {res['exit']}")
        elif res.get("digest") != digests.get(req["id"]):
            failures.append(f"{req['id']}: digest {res.get('digest')} != "
                            f"recorded {digests.get(req['id'])}")
        elif "agree" in req and not res.get("agrees"):
            failures.append(f"{req['id']}: routes of {req['agree']} disagree")
    return failures


def median_layers(traced: list[dict], overheads: list[float]) -> dict[str, float]:
    """Median of each per-layer value over the traced sessions."""
    keys = traced[0]["layers"].keys()
    out = {key: statistics.median(s["layers"][key] for s in traced) for key in keys}
    out["trace.overhead_s"] = statistics.median(overheads)
    return out


def measure(args, digests: dict, layer_names: list[str]) -> dict:
    """Probe the import and run the sessions of one run."""
    started = time.monotonic()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    run = {"setup": [], "sessions": [], "traced": [], "overheads": [], "failures": [],
           "attempted": 0}

    def probe_setup(count: int) -> None:
        run["setup"].extend(import_probe() for _ in range(count))

    import_probe()  # compiles bytecode; discarded
    probe_setup(PROBES_FIRST)
    spans = OUT / f"{args.workload}.spans"
    measure_start = time.monotonic()
    index = 0
    while index < 2 or time.monotonic() - measure_start < args.seconds:
        requests = workloads.session_requests(args.workload, args.seed, index)
        pair = [False, True] if args.trace else [False]
        if remaining() < len(pair) * SESSION_LIMIT_S + PROBES_BETWEEN * PROBE_LIMIT_S:
            break
        walls = {}
        for trace in pair:
            session = run_session(requests, trace, spans if trace else None,
                                  layer_names, SESSION_LIMIT_S)
            session["order"] = [req["id"] for req in requests]
            failed = request_failures(requests, session, digests)
            run["attempted"] += len(requests)
            run["failures"].extend(failed)
            run["traced" if trace else "sessions"].append(session)
            if not session.get("error"):
                walls[trace] = session["wall_s"]
            if trace and not failed and len(walls) == 2:
                run["overheads"].append(walls[True] - walls[False])
        index += 1
        probe_setup(PROBES_BETWEEN)
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ncgeode" / "__init__.py").is_file():
        print(f"no ncgeode package under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    digests = json.loads((HERE / "digests.json").read_text())
    layer_names = [m["name"] for m in config["per_layer"] if m["name"] != "trace.overhead_s"]
    host = host_info()
    cpu = host["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    OUT.mkdir(exist_ok=True)
    meter_log = OUT / f"{args.workload}-seed{args.seed}.meter"
    meter = None
    try:
        if not args.trace:
            meter = start_meter(meter_log)
        run = measure(args, digests, layer_names)
        if meter is not None:
            stop(meter)
            samples = read_meter(meter_log)
            setup = [at_ref_speed(c, w, samples) for c, w in run["setup"]]
            for s in run["sessions"]:
                if not s.get("error"):
                    s["ref_s"] = at_ref_speed(s["cpu_s"], s["window"], samples)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        if meter is not None and meter.poll() is None:
            stop(meter)

    sessions, traced, failures = run["sessions"], run["traced"], run["failures"]
    attempted = run["attempted"]
    good = [s for s in sessions if not s.get("error")]
    fail_ratio = len(failures) / attempted
    wanted = config["per_layer"] if args.trace else config["end_to_end"]
    values = {}
    if args.trace:
        ok_traced = [s for s in traced if not s.get("error")]
        if ok_traced and run["overheads"]:
            values = median_layers(ok_traced, run["overheads"])
    elif good:
        values = {"session_s": statistics.median(s["ref_s"] for s in good),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": max(s["peak_rss_mb"] for s in good)}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    correct = not failures and len(metrics) == len(wanted)

    if meter is not None:
        host["speed"] = REF_S * len(samples) / sum(d for _, d in samples)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "setup_probes": run["setup"],
              "fail_ratio": fail_ratio, "failures": failures,
              "sessions": sessions, "traced_sessions": traced, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"sessions {len(sessions)} untraced, {len(traced)} traced")
    print(f"host: python {host['python']}, nproc {host['nproc']}, pinned to cpu {cpu}, "
          f"{host['cpu_model']}, loadavg {' '.join(f'{x:.2f}' for x in host['loadavg'])}")
    if good:
        print(f"  raw          wall {statistics.median(s['wall_s'] for s in good):.6g} s, "
              f"CPU {statistics.median(s['cpu_s'] for s in good):.6g} s "
              f"(medians of {len(good)} untraced sessions"
              + (f"; host at {host['speed']:.3f}x reference speed)" if meter else ")"))
    if not args.trace:
        notes = {"session_s": f"median of {len(good)} sessions, at reference speed",
                 "setup_s": f"median of {len(setup)} imports, at reference speed",
                 "peak_rss_mb": f"highest of {len(good)} sessions"}
        for name, m in metrics.items():
            print(f"  {name:<12} {m['value']:.6g} {m['unit']} ({notes[name]})")
    print(f"  {'fail_ratio':<12} {fail_ratio:.6g} ({len(failures)}/{attempted} requests)")
    if args.trace:
        raised = sum(s.get("exceptions", 0) for s in traced)
        print(f"  {'exceptions':<12} {raised} (raised inside traced callables, "
              f"over {len(traced)} traced sessions)")
        if traced and not traced[-1].get("error"):
            shares = traced[-1]["shares"]
            print("  self-time share by layer (last traced session): " +
                  ", ".join(f"{k} {v:.1%}" for k, v in shares.items() if v >= 0.0005))
        for name, m in metrics.items():
            print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
