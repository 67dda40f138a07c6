"""Golden-file regression of command-line output.

Each file under tests/data/golden was produced by the recorded invocation
and cross-checked against the frozen reference tables; any rendering or
ordering change shows up as a byte-level diff.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ncgeode.cli import main
from ncgeode import fixtures as fx

DATA = Path(__file__).parent / "data" / "golden"

CASES = {
    "expand_g_int_3.txt": ["expand", "--series", "g", "--degree", "3"],
    "expand_gamma_int_3.txt": ["expand", "--series", "gamma", "--degree", "3"],
    "expand_gamma_R_3.txt": ["expand", "--series", "gamma", "--degree", "3",
                             "--basis", "R"],
    "expand_gamma_L_3.txt": ["expand", "--series", "gamma", "--degree", "3",
                             "--basis", "L"],
    "expand_g_L_7.txt": ["expand", "--series", "g", "--basis", "L", "--degree", "7"],
    "expand_eta_polyt_R_6.txt": ["expand", "--series", "eta", "--ring", "polyt",
                                 "--basis", "R", "--degree", "6"],
    "expand_h_int_4.txt": ["expand", "--series", "h", "--degree", "4"],
    "expand_eta_int_4.txt": ["expand", "--series", "eta", "--degree", "4"],
    "expand_g_polyt_4.txt": ["expand", "--series", "g", "--degree", "4",
                             "--ring", "polyt"],
    "expand_gamma_polyt_4.txt": ["expand", "--series", "gamma", "--degree", "4",
                                 "--ring", "polyt"],
    "expand_h_polyt_4.txt": ["expand", "--series", "h", "--degree", "4",
                             "--ring", "polyt"],
    "expand_eta_polyt_4.txt": ["expand", "--series", "eta", "--degree", "4",
                               "--ring", "polyt"],
    "klagrange_m1_3.txt": ["klagrange", "--k", "-1", "--degree", "3"],
    "klagrange_2_3.txt": ["klagrange", "--k", "2", "--degree", "3"],
    "eseries_g_4.txt": ["eseries", "--series", "g", "--degree", "4"],
    "eseries_gamma_4.txt": ["eseries", "--series", "gamma", "--degree", "4"],
    "trees_lukasiewicz_3.txt": ["trees", "--kind", "lukasiewicz", "--n", "3"],
    "trees_schroeder_3.txt": ["trees", "--kind", "schroeder", "--n", "3"],
    "trees_prime_schroeder_3.txt": ["trees", "--kind", "prime-schroeder",
                                    "--n", "3"],
    "trees_pqr_31.txt": ["trees", "--kind", "pqr", "--shape", "3,1"],
    "specialize_gamma_coeffsum_7.txt": ["specialize", "--map", "coeff-sum",
                                        "--series", "gamma", "--order", "7"],
    "specialize_gamma_ribbonu_9.txt": ["specialize", "--map", "ribbon-u",
                                       "--series", "gamma", "--order", "9"],
    "specialize_gamma_lambdaabs_10.txt": ["specialize", "--map", "lambda-abs",
                                          "--series", "gamma", "--order", "10"],
    "specialize_ge_zq_5.txt": ["specialize", "--map", "zq", "--series", "ge",
                               "--order", "5"],
    "specialize_g_catalan_json_5.txt": ["specialize", "--map", "catalan", "--series", "g",
                                        "--order", "5", "--format", "json"],
    "specialize_ge_zq_json_4.txt": ["specialize", "--map", "zq", "--series", "ge",
                                    "--order", "4", "--format", "json"],
    "expand_g_json_3.txt": ["expand", "--series", "g", "--degree", "3",
                            "--format", "json"],
    "expand_gessel_int_6.txt": ["expand", "--series", "gessel", "--degree", "6"],
    "klagrange_direct_m2_5.txt": ["klagrange", "--k", "-2", "--degree", "5",
                                  "--route", "direct"],
    "verify_all_3.txt": ["verify", "--suite", "all", "--degree", "3"],
    "verify_all_6.txt": ["verify", "--suite", "all", "--degree", "6"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(CASES[name])
    assert code == 0
    assert buf.getvalue() == (DATA / name).read_text(), name


def test_deviation_list_covers_table_deviations():
    data = json.loads((DATA / "deviations.json").read_text())
    ids = {d["id"] for d in data["deviations"]}
    assert set(fx.DOCUMENTED_DEVIATIONS) <= ids
