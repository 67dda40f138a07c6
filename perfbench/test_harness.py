"""Self-tests of the benchmark harness.

Run from the root of a source checkout::

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans(tmp_path):
    t = tracer.Tracer()
    a = t.add_span("A", 0.0, 10.0)
    b1 = t.add_span("B", 1.0, 4.0, a)
    t.add_span("C", 2.0, 3.0, b1, outer=2.0)  # its wrapper and hooks took 1 s more
    b2 = t.add_span("B", 5.0, 9.0, a)
    t.add_span("B", 6.0, 8.0, b2)  # recursive call of B
    summary = t.summary()
    assert summary["A"] == {"calls": 1, "self_s": 3.0, "total_s": 10.0}
    assert summary["C"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}
    # self times 1 + 2 + 2; the recursive inner call is not added to total_s
    assert summary["B"] == {"calls": 3, "self_s": 5.0, "total_s": 7.0}
    # the second around C belongs to no span
    assert sum(s["self_s"] for s in summary.values()) == 9.0

    t.write(tmp_path / "spans")
    lines = [json.loads(line) for line in (tmp_path / "spans").read_text().splitlines()]
    assert [(x["name"], x["parent"]) for x in lines] == [
        ("A", -1), ("B", 0), ("C", 1), ("B", 0), ("B", 3)]
    assert lines[2]["start"] == 2.0 and lines[2]["end"] == 3.0


def _fake_package():
    mod = types.ModuleType("fake.mod")
    calls = []

    @functools.lru_cache(maxsize=None)
    def square(x):
        calls.append(x)
        return x * x

    def boom():
        raise ValueError("boom")

    class P:
        def __init__(self, v):
            self.v = v

        def __mul__(self, other):
            return P(self.v * (other.v if isinstance(other, P) else other))

        __rmul__ = __mul__

    mod.square, mod.boom, mod.P = square, boom, P
    importer = types.ModuleType("fake.importer")  # as after "from .mod import square"
    importer.square = square
    return mod, importer, calls


def test_wrappers_keep_values_exceptions_and_cache_info():
    mod, importer, calls = _fake_package()
    original_square, original_mul = mod.square, mod.P.__dict__["__mul__"]
    t = tracer.Tracer()
    patch = tracer.Patch()
    tracer.wrap_function(patch, t, [mod, importer], mod, "square", "fake.square")
    tracer.wrap_function(patch, t, [mod, importer], mod, "boom", "fake.boom")
    tracer.wrap_method(patch, t, mod.P, "__mul__", "fake.P.mul")
    assert importer.square is mod.square is not original_square
    assert mod.P.__rmul__ is mod.P.__mul__

    t.active = True
    assert mod.square(3) == 9 and importer.square(3) == 9
    assert calls == [3]
    assert mod.square.cache_info().hits == 1 and importer.square.cache_info().misses == 1
    with pytest.raises(ValueError, match="boom"):
        mod.boom()
    assert (mod.P(2) * mod.P(5)).v == 10 and (3 * mod.P(2)).v == 6
    t.active = False

    summary = t.summary()
    assert summary["fake.square"]["calls"] == 2
    assert summary["fake.boom"]["calls"] == 1 and t.exceptions == 1
    assert summary["fake.P.mul"]["calls"] == 2
    assert len(t.name) == 5

    patch.restore()
    assert mod.square is importer.square is original_square
    assert mod.P.__dict__["__mul__"] is mod.P.__dict__["__rmul__"] is original_mul


def test_tracing_ncgeode_changes_no_result():
    from ncgeode import lagrange, schroeder
    from ncgeode.lagrange import g_t, h_t
    expected_t, expected_e = h_t(4), schroeder.gamma_e(3)
    lagrange.g_t.cache_clear()
    lagrange.delta_coefficient.cache_clear()
    t = tracer.Tracer()
    patch = tracer.install_ncgeode(t)
    try:
        before = tracer.cache_counts()
        t.active = True
        assert lagrange.h_t(4) == expected_t
        assert schroeder.gamma_e(3) == expected_e
        lagrange.delta_coefficient((2, 1, 1))  # cached by h_t(4)
        t.active = False
        config = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in config["per_layer"] if m["name"] != "trace.overhead_s"]
        extra = ["lagrange.h_t.calls", "schroeder.g_e.delta.calls"]
        summary, after = t.summary(), tracer.cache_counts()
        metrics = tracer.layer_metrics(t, summary, before, after, names + extra)
        with pytest.raises(KeyError):
            tracer.layer_metrics(t, summary, before, after, ["lagrange.h_t.calls_s"])
    finally:
        patch.restore()
    assert lagrange.g_t is g_t and lagrange.h_t is h_t
    assert metrics["lagrange.h_t.calls"] == 1
    assert metrics["coeffring.PolyT.mul.calls"] > 0
    assert metrics["coeffring.PolyT.mul.coeff_products"] > 0
    assert metrics["ncsf.series_mul.pairs"] >= metrics["ncsf.series_mul.terms_out"] > 0
    assert 0 < metrics["lagrange.delta_coefficient.hit_ratio"] < 1
    assert metrics["schroeder.g_e.delta.calls"] == 1
    assert t.exceptions == 0
    assert list(metrics) == names + extra


def test_session_order_depends_only_on_seed():
    first = workloads.session_requests("verify", 7, 0)
    assert first == workloads.session_requests("verify", 7, 0)
    assert sorted(r["id"] for r in first) == sorted(r["id"] for r in workloads.WORKLOADS["verify"])
    assert workloads.session_requests("verify", 7, 1) == first[::-1]
    orders = {tuple(r["id"] for r in workloads.session_requests("tseries", s, 0))
              for s in range(20)}
    assert len(orders) > 1


def test_request_failures():
    reqs = [{"id": "a"}, {"id": "b"}, {"id": "c"}, {"id": "d", "agree": "x"},
            {"id": "e", "agree": "x"}]
    digests = {k: "h" for k in "abcde"}
    session = {"requests": [
        {"id": "a", "exit": 0, "error": None, "digest": "h"},
        {"id": "b", "exit": 2, "error": None, "digest": "h"},
        {"id": "c", "exit": 0, "error": None, "digest": "wrong"},
        {"id": "d", "exit": 0, "error": None, "digest": "h", "agrees": False},
    ]}
    failed = run.request_failures(reqs, session, digests)
    assert [line.split(":")[0] for line in failed] == ["b", "c", "d", "e"]
    assert len(run.request_failures(reqs, {"error": "timeout"}, digests)) == 5
    session["requests"][1:] = []
    session["exceptions"] = 2
    failed = run.request_failures(reqs[:1], session, digests)
    assert failed == ["session: 2 exceptions raised inside traced callables"]


def test_times_at_reference_speed(tmp_path):
    log = tmp_path / "meter"
    # the host runs at half the reference speed; the last line was cut short
    log.write_text("".join(f"{t} {2 * run.REF_S}\n" for t in range(10, 21)) + "21 0.0")
    samples = run.read_meter(log)
    assert len(samples) == 11
    assert run.at_ref_speed(3.0, [12.0, 18.0], samples) == pytest.approx(1.5)
    with pytest.raises(RuntimeError):
        run.at_ref_speed(3.0, [30.0, 31.0], samples)


def _checkout(tmp_path: Path, with_src: bool) -> Path:
    dest = tmp_path / "checkout"
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def _bench(cwd: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_wrong_digest_exits_nonzero(tmp_path):
    dest = _checkout(tmp_path, with_src=True)
    path = dest / "perfbench" / "digests.json"
    digests = json.loads(path.read_text())
    digests["verify --suite oeis --degree 12"] = "0" * 64
    path.write_text(json.dumps(digests))
    proc = _bench(dest, "verify")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    # two sessions, the requests in both orders
    assert result["failed"] == 2 and result["attempted"] == 6
    assert "verify --suite oeis --degree 12: digest" in proc.stderr


def test_checkout_without_package_exits_without_result(tmp_path):
    dest = _checkout(tmp_path, with_src=False)
    proc = _bench(dest, "verify")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
