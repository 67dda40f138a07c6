import json
import math
import os
import subprocess
import sys
import time

import pytest

from ncgeode import cli, fixtures as fx, lagrange, verify
from ncgeode.cli import _refuse_order, count_trees, main
from ncgeode.coeffring import INT_RING, PolyT
from ncgeode.combinat import (_plane_arity, enumerate_lukasiewicz, iter_tree_codes,
                              parking_quasi_ribbons)
from ncgeode.lagrange import g_t, geode, solve_g
from ncgeode.ncsf import NcsfSeries, NotDivisibleError, sigma1, unit_series
from ncgeode.render import series_from_json, series_to_json_dict, word_str
from ncgeode.schroeder import _arity, enumerate_prime_schroeder, enumerate_schroeder, g_e


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_expand_gamma_text(capsys):
    code, out = run_cli(capsys, "expand", "--series", "gamma", "--degree", "3")
    assert code == 0
    assert out.splitlines() == [
        "gamma_0 = 1",
        "gamma_1 = S_1",
        "gamma_2 = 2S_2 + S^{11}",
        "gamma_3 = 3S_3 + 3S^{21} + 2S^{12} + S^{111}",
    ]


def test_expand_gamma_ribbon(capsys):
    code, out = run_cli(capsys, "expand", "--series", "gamma", "--degree", "3",
                        "--basis", "R")
    assert code == 0
    assert out.splitlines()[-1] == "gamma_3 = 9R_{3} + 4R_{21} + 3R_{12} + R_{111}"


def test_expand_degree_zero(capsys):
    code, out = run_cli(capsys, "expand", "--series", "g", "--degree", "0")
    assert code == 0
    assert out.strip() == "g_0 = 1"


def test_expand_polyt(capsys):
    code, out = run_cli(capsys, "expand", "--series", "h", "--degree", "3",
                        "--ring", "polyt")
    assert code == 0
    assert out.splitlines()[-1] == "h_3 = S_3 + tS^{21}"


def test_expand_is_deterministic(capsys):
    _, first = run_cli(capsys, "expand", "--series", "gessel", "--degree", "5")
    _, second = run_cli(capsys, "expand", "--series", "gessel", "--degree", "5")
    assert first == second


def test_json_round_trip(capsys):
    code, out = run_cli(capsys, "expand", "--series", "g", "--degree", "4",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert series_from_json(data) == solve_g(4)


def test_json_round_trip_polyt(capsys):
    code, out = run_cli(capsys, "expand", "--series", "g", "--degree", "3",
                        "--ring", "polyt", "--format", "json")
    assert code == 0
    assert series_from_json(json.loads(out)) == g_t(3)


def test_json_round_trip_epoly():
    data = series_to_json_dict(g_e(3), "ge")
    assert series_from_json(json.loads(json.dumps(data))) == g_e(3)


def _without(data, key):
    return {k: v for k, v in data.items() if k != key}


def _with_terms(data, degree, *terms):
    """``data`` with the component of ``degree`` replaced by ``terms``, each
    a (composition, coefficient) pair."""
    entry = {"degree": degree,
             "terms": [{"composition": w, "coeff": c} for w, c in terms]}
    return {**data, "components": [entry]}


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda d: {**d, "ring": "quaternion"}, "unknown ring", id="unknown-ring"),
    pytest.param(lambda d: {**d, "truncation": -1}, "truncation", id="negative-truncation"),
    pytest.param(lambda d: {**d, "truncation": 2}, "outside 0..2", id="degree-above-truncation"),
    pytest.param(lambda d: {**d, "components": [{"degree": -1, "terms": []}]},
                 "outside 0..3", id="negative-degree"),
    pytest.param(lambda d: _without(d, "basis"), "lacks the key 'basis'", id="missing-basis"),
    pytest.param(lambda d: {**d, "components": [{"degree": 0}]},
                 "lacks the key 'terms'", id="missing-terms"),
    pytest.param(lambda d: {**d, "components": [5]}, "not shaped", id="component-not-an-object"),
    pytest.param(lambda d: {**d, "components": [{"degree": 1, "terms": [7]}]}, "not shaped",
                 id="term-not-an-object"),
    pytest.param(lambda d: _with_terms(d, 2, ([0, 2], "1")), "positive integers",
                 id="zero-part"),
    pytest.param(lambda d: _with_terms(d, 2, ([3, -1], "1")), "positive integers",
                 id="negative-part"),
    pytest.param(lambda d: _with_terms(d, 2, ([2], "1"), ([2], "5")), "two terms",
                 id="repeated-word"),
    pytest.param(lambda d: _with_terms(d, 2, (2, "1")), "positive integers",
                 id="composition-not-a-list"),
    pytest.param(lambda d: _with_terms({**d, "ring": "epoly"}, 2,
                                       ([2], [{"partition": [1]}])),
                 "bad epoly coefficient", id="epoly-coeff-without-coeff"),
    pytest.param(lambda d: _with_terms(d, 2, ([2], 1.5)), "bad int coefficient",
                 id="int-float-coeff"),
    pytest.param(lambda d: _with_terms(d, 2, ([2], True)), "bad int coefficient",
                 id="int-bool-coeff"),
    pytest.param(lambda d: _with_terms({**d, "ring": "polyt"}, 2, ([2], [0.1])),
                 "bad polyt coefficient", id="polyt-float-entry"),
    pytest.param(lambda d: _with_terms({**d, "ring": "polyt"}, 2, ([2], "12")),
                 "bad polyt coefficient", id="polyt-coeff-not-a-list"),
    pytest.param(lambda d: _with_terms({**d, "ring": "polyt"}, 2, ([2], ["1/0"])),
                 "bad polyt coefficient", id="polyt-zero-denominator"),
    pytest.param(lambda d: _with_terms({**d, "ring": "epoly"}, 2,
                                       ([2], [{"partition": [1], "coeff": 2.5}])),
                 "bad epoly coefficient", id="epoly-float-coeff"),
    pytest.param(lambda d: _with_terms({**d, "ring": "epoly"}, 2,
                                       ([2], [{"partition": [1.5], "coeff": "1"}])),
                 "bad epoly coefficient", id="epoly-float-part"),
    pytest.param(lambda d: _with_terms({**d, "ring": "epoly"}, 2,
                                       ([2], [{"partition": [True], "coeff": "1"}])),
                 "bad epoly coefficient", id="epoly-bool-part"),
])
def test_series_from_json_rejects_bad_input(edit, message):
    data = series_to_json_dict(solve_g(3), "g")
    with pytest.raises(ValueError, match=message):
        series_from_json(edit(data))


def test_klagrange_routes(capsys):
    for route in ("direct", "phi", "delta"):
        code, out = run_cli(capsys, "klagrange", "--k", "2", "--degree", "3",
                            "--route", route)
        assert code == 0
        assert out.splitlines()[2] == "g^(2)_2 = S_2 + 2S^{11}"


def test_klagrange_negative(capsys):
    code, out = run_cli(capsys, "klagrange", "--k", "-1", "--degree", "2")
    assert code == 0
    assert out.splitlines()[-1] == "g^(-1)_2 = S_2 - S^{11}"


def test_trees_lukasiewicz(capsys):
    code, out = run_cli(capsys, "trees", "--kind", "lukasiewicz", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["3000", "2100", "2010", "1200", "1110", "count: 5"]


def test_trees_prime_schroeder(capsys):
    code, out = run_cli(capsys, "trees", "--kind", "prime-schroeder", "--n", "3")
    assert code == 0
    assert out.splitlines()[-1] == "count: 6"


def test_trees_schroeder(capsys):
    code, out = run_cli(capsys, "trees", "--kind", "schroeder", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["2000", "11000", "10100", "count: 3"]


def test_trees_pqr(capsys):
    code, out = run_cli(capsys, "trees", "--kind", "pqr", "--shape", "3,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "111|2"
    assert lines[-1] == "count: 9"
    assert "113|4" in lines


def test_trees_pqr_separates_letters_above_nine(capsys):
    code, out = run_cli(capsys, "trees", "--kind", "pqr", "--shape", "1,10")
    assert code == 0
    assert out.splitlines()[-2:] == ["1|2,3,4,5,6,7,8,9,10,11", "count: 16796"]
    code, out = run_cli(capsys, "trees", "--kind", "pqr", "--shape", "1,10",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == len(data["items"]) == 16796
    assert data["items"][-1] == [[1], list(range(2, 12))]


def test_trees_pqr_refuses_huge_shape(capsys):
    start = time.perf_counter()
    code = main(["trees", "--kind", "pqr", "--shape", "9,9,9"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "17055399281284 fillings" in captured.err


def test_trees_pqr_refuses_long_shape(capsys):
    # a single filling, but counting it is quadratic in the letter count
    start = time.perf_counter()
    code = main(["trees", "--kind", "pqr", "--shape", ",".join(["1"] * 2001)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2001 letters" in captured.err


@pytest.mark.parametrize("ring", ["int", "polyt"])
def test_expand_refuses_huge_degree(capsys, ring):
    start = time.perf_counter()
    code = main(["expand", "--series", "g", "--degree", "19", "--ring", ring])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2^20 words" in captured.err


@pytest.mark.parametrize("argv, power", [
    (["klagrange", "--k", "2", "--degree", "19", "--route", "direct"], 20),
    (["klagrange", "--k", "-2", "--degree", "19", "--route", "direct"], 20),
    (["klagrange", "--k", "2", "--degree", "19", "--route", "delta"], 20),
    (["klagrange", "--k", "2", "--degree", "10", "--route", "phi"], 21),
    (["klagrange", "--k", "10", "--degree", "2", "--route", "phi"], 21),
    (["eseries", "--series", "g", "--degree", "19"], 20),
    (["eseries", "--series", "gamma", "--degree", "19"], 20),
    (["specialize", "--map", "catalan", "--series", "g", "--order", "19"], 20),
    (["specialize", "--map", "ribbon-u", "--series", "gamma", "--order", "18"], 20),
    (["specialize", "--map", "zq", "--series", "ge", "--order", "19"], 20),
    (["expand", "--series", "g", "--degree", str(10**9)], 10**9 + 1),
    (["verify", "--suite", "paper", "--degree", "19"], 20),
    (["verify", "--degree", str(10**9)], 10**9 + 1),
])
def test_series_commands_refuse_huge_orders(capsys, argv, power):
    # the largest order solved: k n on the phi route, n + 1 for a geode
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"2^{power} words" in captured.err


@pytest.mark.parametrize("k, degree", [(3000, 2), (-251, 2), (501, 1)])
def test_klagrange_direct_matches_delta_at_huge_k(capsys, k, degree):
    # the direct route takes no power above the degree, whatever k is
    outputs = []
    for route in ("direct", "delta"):
        assert main(["klagrange", "--k", str(k), "--degree", str(degree),
                     "--route", route]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


def test_klagrange_direct_reaches_the_power_limit(capsys):
    k = -250
    assert main(["klagrange", "--k", str(k), "--degree", "2",
                 "--route", "direct"]) == 0
    # g^(k)_2 = S_2 + k S^{11}
    assert f"g^({k})_2 = S_2 - {-k}S^{{11}}" in capsys.readouterr().out


def test_size_guard_bound():
    # 2^19 < MAX_ITEMS = 10^6 < 2^20
    _refuse_order(18, "order 18")
    with pytest.raises(cli.Refused, match=r"^order 19 needs up to 2\^20 words"):
        _refuse_order(19, "order 19")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_pipe_exits_141_quietly(fmt):
    # the output, about 0.7 MB as text and 2 MB as JSON, outgrows the pipe
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen([sys.executable, "-m", "ncgeode.cli", "trees", "--kind",
                             "lukasiewicz", "--n", "11", "--format", fmt],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline(64)
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (141, b"")


@pytest.mark.parametrize("kind", ["lukasiewicz", "schroeder", "prime-schroeder"])
def test_trees_refuses_huge_n(capsys, kind):
    start = time.perf_counter()
    code = main(["trees", "--kind", kind, "--n", "40"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"has {count_trees(kind, 40)} trees" in captured.err


def test_tree_counts_match_enumerations():
    for kind, enumerate_codes in (("lukasiewicz", enumerate_lukasiewicz),
                                  ("schroeder", enumerate_schroeder),
                                  ("prime-schroeder", enumerate_prime_schroeder)):
        for n in range(kind == "prime-schroeder", 9):
            assert count_trees(kind, n) == len(enumerate_codes(n)), (kind, n)
    # each family counted straight off the odometer, storing no code
    def count(n, arity, need=1):
        return sum(1 for _ in iter_tree_codes(n, arity, need))

    for n in range(13):
        assert count(n, _plane_arity) == count_trees("lukasiewicz", n), n
    for n in range(10):
        assert count(n, _arity) == count_trees("schroeder", n), n
    for n in range(1, 10):
        # root r, a forest of r trees, then the final leaf
        assert sum(count(n - r, _arity, r) for r in range(1, n + 1)) \
            == count_trees("prime-schroeder", n), n
    # plane forests of r trees with n edges: r C(2n + r, n) / (2n + r)
    for r in range(1, 5):
        for n in range(9):
            assert count(n, _plane_arity, r) \
                == r * math.comb(2 * n + r, n) // (2 * n + r), (r, n)


def test_trees_json(capsys):
    code, out = run_cli(capsys, "trees", "--kind", "lukasiewicz", "--n", "2",
                        "--format", "json")
    data = json.loads(out)
    assert data["count"] == 2
    assert data["items"] == [[2, 0, 0], [1, 1, 0]]


def _listed_output(head: dict, items: list, line, fmt: str) -> str:
    """What ``trees`` printed when it built the whole list first."""
    if fmt == "json":
        return json.dumps({**head, "count": len(items), "items": items}) + "\n"
    return "".join(f"{line(item)}\n" for item in items) + f"count: {len(items)}\n"


@pytest.mark.parametrize("chunk", [cli.JSON_CHUNK, 2])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_trees_streamed_output_equals_the_listed_output(capsys, monkeypatch, fmt, chunk):
    # a small chunk joins many json.dumps pieces, as n = 10 does at full size
    monkeypatch.setattr(cli, "JSON_CHUNK", chunk)
    listings = {"lukasiewicz": enumerate_lukasiewicz, "schroeder": enumerate_schroeder,
                "prime-schroeder": enumerate_prime_schroeder}
    for kind, listing in listings.items():
        for n in range(1 if kind == "prime-schroeder" else 0, 7):
            code, out = run_cli(capsys, "trees", "--kind", kind, "--n", str(n),
                                "--format", fmt)
            assert code == 0
            assert out == _listed_output({"kind": kind, "n": n}, list(listing(n)),
                                         word_str, fmt), (kind, n)
    for shape in ((1,), (3, 1), (1, 10), (2, 2, 2)):
        code, out = run_cli(capsys, "trees", "--kind", "pqr", "--shape",
                            ",".join(map(str, shape)), "--format", fmt)
        assert code == 0
        assert out == _listed_output({"kind": "pqr", "shape": shape},
                                     parking_quasi_ribbons(shape),
                                     lambda f: "|".join(map(word_str, f)), fmt), shape


def test_specialize_coeff_sum(capsys):
    code, out = run_cli(capsys, "specialize", "--map", "coeff-sum",
                        "--series", "gamma", "--order", "7")
    assert code == 0
    assert out.strip() == "1, 1, 3, 9, 28, 90, 297, 1001"


def test_specialize_zq_at_order_zero(capsys):
    # the series has no q term, yet the map name selects the bivariate layout
    code, out = run_cli(capsys, "specialize", "--map", "zq", "--series", "ge",
                        "--order", "0")
    assert code == 0
    assert out == "z^0 q^0: 1\n"


def test_specialize_zq_requires_eseries(capsys):
    code = main(["specialize", "--map", "zq", "--series", "g", "--order", "4"])
    capsys.readouterr()
    assert code == 2


def test_eseries(capsys):
    code, out = run_cli(capsys, "eseries", "--series", "g", "--degree", "3")
    assert code == 0
    assert out.splitlines()[-1] == \
        "g^[e]_3 = S_3 + 2e_1S^{21} + e_1S^{12} + (e_{11}+e_2)S^{111}"


def test_verify_suites(capsys):
    for suite in ("oeis", "identities"):
        code, out = run_cli(capsys, "verify", "--suite", suite, "--degree", "4")
        assert code == 0, out
        assert "overall: PASS" in out


def test_verify_paper_reports_three_deviations(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "paper", "--degree", "4")
    assert code == 0, out
    assert out.count("documented deviation") == 3


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--series", "nonsense", "--degree", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    code = main(["expand", "--series", "gessel", "--degree", "3",
                 "--ring", "polyt"])
    capsys.readouterr()
    assert code == 2
    code = main(["trees", "--kind", "lukasiewicz"])
    capsys.readouterr()
    assert code == 2
    for argv in (["expand", "--series", "g", "--degree", "-1"],
                 ["klagrange", "--k", "2", "--degree", "-1"],
                 ["eseries", "--series", "gamma", "--degree", "-1"],
                 ["eseries", "--series", "g", "--degree", "-2"],
                 ["verify", "--degree", "-1"],
                 ["trees", "--kind", "schroeder", "--n", "-1"],
                 ["trees", "--kind", "lukasiewicz", "--n", "-1"],
                 ["specialize", "--map", "ribbon-u", "--series", "gamma",
                  "--order", "-1"],
                 ["specialize", "--map", "catalan", "--series", "g",
                  "--order", "-1"],
                 ["specialize", "--map", "zq", "--series", "ge", "--order", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "must be nonnegative" in capsys.readouterr().err, argv
    # only plain decimal digits: int() would take underscores, signs, spaces
    # and digits of other scripts
    for argv, message in (
            (["trees", "--kind", "pqr", "--shape", "1_0, +2"], "bad composition"),
            (["trees", "--kind", "pqr", "--shape", "1,+2"], "bad composition"),
            (["trees", "--kind", "pqr", "--shape", " 3"], "bad composition"),
            (["trees", "--kind", "pqr", "--shape", "1,\u0662"], "bad composition"),
            (["trees", "--kind", "pqr", "--shape", "1,,2"], "bad composition"),
            (["expand", "--series", "g", "--degree", "1_0"], "invalid int value"),
            (["expand", "--series", "g", "--degree", "+3"], "invalid int value"),
            (["eseries", "--series", "g", "--degree", " 3"], "invalid int value"),
            (["eseries", "--series", "g", "--degree", "3 "], "invalid int value"),
            (["klagrange", "--k", "2", "--degree", "\u0663"], "invalid int value"),
            (["verify", "--degree", "0x3"], "invalid int value"),
            (["trees", "--kind", "schroeder", "--n", "1_0"], "invalid int value"),
            (["specialize", "--map", "catalan", "--series", "g", "--order", "+4"],
             "invalid int value")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2, argv
        assert captured.out == "" and message in captured.err, argv
    # --k stays a signed int
    code, out = run_cli(capsys, "klagrange", "--k", "-2", "--degree", "2")
    assert code == 0 and out
    code = main(["trees", "--kind", "prime-schroeder", "--n", "0"])
    assert "at least 1" in capsys.readouterr().err
    assert code == 2
    for argv, message in (
            (["klagrange", "--route", "phi", "--k", "0", "--degree", "3"],
             "the phi route needs k >= 1"),
            (["trees", "--kind", "pqr"], "--shape is required for pqr"),
            (["specialize", "--series", "ge", "--map", "catalan", "--order", "3"],
             "catalan applies to integer series (g or gamma)")):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == "" and message in captured.err, argv
    # a flag that the kind does not read is refused, not ignored
    for argv, flag in ((["trees", "--kind", "schroeder", "--n", "3", "--shape", "1,2"],
                        "--shape"),
                       (["trees", "--kind", "pqr", "--shape", "2", "--n", "5"], "--n")):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert f"{flag} is not read by" in captured.err, argv


def perturbed(series, degree):
    """``series`` with the coefficient of S_degree raised by one."""
    comps = [dict(c) for c in series.components]
    comps[degree][(degree,)] = comps[degree].get((degree,), 0) + 1
    return NcsfSeries(series.ring, comps)


@pytest.mark.parametrize("degree", [6, 1])
def test_verify_catches_a_wrong_g_coefficient(capsys, monkeypatch, degree):
    real = verify.solve_g
    monkeypatch.setattr(verify, "solve_g", lambda order: perturbed(real(order), degree))
    code, out = run_cli(capsys, "verify", "--suite", "identities", "--degree", "6")
    assert code == 1
    assert "[FAIL] defining-equation" in out


@pytest.mark.parametrize("degree", [6, 1])
def test_verify_catches_a_wrong_free_cumulant(capsys, monkeypatch, degree):
    real = lagrange.free_cumulants
    monkeypatch.setattr(lagrange, "free_cumulants",
                        lambda order: perturbed(real(order), degree))
    code, out = run_cli(capsys, "verify", "--suite", "identities", "--degree", "6")
    assert code == 1
    # the alphabet-negation route reads free_cumulants too, so both fail
    assert "[FAIL] free-cumulant-defining-equation" in out
    assert "[FAIL] free-cumulant-route-agreement" in out
    assert out.count("[FAIL]") == 2


def test_verify_reports_the_first_table_and_prefix_mismatch(capsys, monkeypatch):
    table = dict(fx.G_T_TABLE)
    table[2] = {(2,): PolyT((1,)), (1, 1): PolyT((0, 2))}
    monkeypatch.setattr(fx, "G_T_TABLE", table)
    catalan = list(fx.A000108_CATALAN)
    catalan[5] += 1
    monkeypatch.setattr(fx, "A000108_CATALAN", catalan)
    code, out = run_cli(capsys, "verify", "--suite", "all", "--degree", "5")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert failed == [
        "[FAIL] table-g-t  (degree 2: expected {(2,): PolyT(['1']), "
        "(1, 1): PolyT(['0', '2'])}, got {(2,): PolyT(['1']), (1, 1): PolyT(['0', '1'])})",
        "[FAIL] catalan-coefficient-sums  (first mismatch at 5)",
        "[FAIL] catalan-closed-form  (first mismatch at 5)",
    ]
    assert out.rstrip().splitlines()[-1] == "overall: FAIL (56/59 checks)"


def test_verify_reports_a_failed_division(capsys, monkeypatch):
    # an integer divisor other than sigma_1 - 1 is one of the levels k >= 2
    # of divisibility_check; the geode's division by sigma_1 - 1 still
    # divides, and the step quotient theta^(t) is a ratio of geodes, no division
    real = lagrange.right_divide

    def refuse_levels_above_1(v, u):
        if u.ring is INT_RING and u != sigma1(INT_RING, u.order) - unit_series(INT_RING, u.order):
            raise NotDivisibleError("residual term at degree 2 does not end in 1")
        return real(v, u)

    monkeypatch.setattr(lagrange, "right_divide", refuse_levels_above_1)
    code, out = run_cli(capsys, "verify", "--suite", "identities", "--degree", "5")
    assert code == 1
    assert "[FAIL] divisibility-nonnegative-quotients" in out
    assert out.count("[FAIL]") == 1
    assert out.rstrip().splitlines()[-1].startswith("overall: FAIL")
