"""Command line front end: outputs, exit codes, JSON round trips."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

from hypothesis import given, settings
from hypothesis import strategies as st

import hbcells
import hbcells.cli
from hbcells import betti, census, generic_cells
from hbcells.cli import main
from hbcells.hilbert_burch import CellMatrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dims_worked_example(capsys):
    code, out, _ = run(capsys, "dims", "--m", "0,3,3,5")
    assert code == 0
    assert out.strip() == "V0=16 V1=11 V2=8 V3=4"


def test_dims_accepts_d_vector(capsys):
    code, out, _ = run(capsys, "dims", "--d", "3,0,2")
    assert out.strip() == "V0=16 V1=11 V2=8 V3=4"


def test_canonicalize_example(capsys):
    code, out, _ = run(capsys, "canonicalize", "x-3, y-2")
    assert code == 0
    assert out.strip() == "m=[0,1]; N=[[-2],[3]]"


def test_canonicalize_at_large_t(capsys):
    # t = 500: the zero matrix of (x^500, y) costs what its nonzeros cost
    code, out, _ = run(capsys, "canonicalize", "x^500, y")
    assert code == 0
    assert out.startswith("m=[0," + "1," * 499 + "1]; N=[[0,")


def test_dense_output_over_the_budget_exits_1(capsys):
    # (x^20000, y) has t = 20,000: its chart is cheap, but printing N is not
    start = time.perf_counter()
    code, out, err = run(capsys, "canonicalize", "x^20000, y")
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert err == ("domain error: a 20001 x 20000 matrix has 400020000 entries to print, "
                   "over the budget of 1001000 (cli.DENSE_OUTPUT_LIMIT)\n")
    m = "0," + ",".join(["1"] * 1001)  # t = 1,001, one past the budget
    for argv in (("frame", "--m", m), ("minors", "--m", m, "--format", "json"),
                 ("minors", "--m", m, "--format", "latex")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "cli.DENSE_OUTPUT_LIMIT" in err, argv
    # the text form of minors prints the generators only
    code, out, _ = run(capsys, "minors", "--m", m, "--kind", "V3")
    assert code == 0 and len(out.splitlines()) == 1002
    code, out, _ = run(capsys, "canonicalize", "x^1000, y")  # t = 1,000: at the budget
    assert code == 0 and out.startswith("m=[0," + "1," * 999 + "1]; N=[[0,")


def test_canonicalize_text_writes_zero_entries_as_0(capsys):
    # golden text: the zero entries print as "0" beside the nonzero ones
    code, out, _ = run(capsys, "canonicalize", "x^3 + 2*x*y - y^2, x*y^2, y^3")
    assert code == 0
    assert out == "m=[0,2,2,3]; N=[[0,0,0],[0,0,0],[-2*y,0,0],[y,0,0]]\n"
    code, out, _ = run(capsys, "canonicalize", "--field", "p:3", "x^3 + 2*x*y - y^2, x*y^2, y^3")
    assert code == 0
    assert out == "m=[0,2,2,3]; N=[[0,0,0],[0,0,0],[y,0,0],[y,0,0]]\n"


def test_canonicalize_outputs_in_every_format(capsys, monkeypatch):
    # golden outputs of an ideal with zero entries; the JSON object is built
    # only for --format json, and no format changes by it
    built = []
    to_json = CellMatrix.to_json
    monkeypatch.setattr(CellMatrix, "to_json", lambda N: built.append(N) or to_json(N))
    ideal = "x^3 + 2*x*y - y^2, x*y^2, y^3"
    expected = {
        "text": "m=[0,2,2,3]; N=[[0,0,0],[0,0,0],[-2*y,0,0],[y,0,0]]\n",
        "json": '{"N": [[[], [], []], [[], [], []], [[0, -2], [], []], [[0, 1], [], []]], '
                '"m": [0, 2, 2, 3]}\n',
        "latex": "\\begin{array}{r|ccc}\n & 5 & 4 & 4 \\\\ \\hline\n3 & y^2 & 0 & 0 \\\\\n"
                 "4 & -x & 1 & 0 \\\\\n3 & -2y & -x & y \\\\\n3 & y & 0 & -x \\\\\n"
                 "\\end{array}\n",
    }
    for fmt, out in expected.items():
        assert run(capsys, "canonicalize", ideal, "--format", fmt) == (0, out, "")
        assert len(built) == (fmt == "json")
        built.clear()


def test_every_json_object_is_built_only_for_format_json(capsys, monkeypatch):
    # as for canonicalize: text and latex build no JSON object, and stratum
    # writes its conditions once, for the one form printed
    built = []
    for cls, name in ((CellMatrix, "to_json"), (betti.BettiTable, "to_json"),
                      (betti.StratumDescriptor, "to_json"),
                      (betti.StratumDescriptor, "condition_strings"),
                      (census.CellCensus, "to_json"), (generic_cells.EliminationReport, "to_json")):
        monkeypatch.setattr(cls, name, lambda self, *args, _fn=getattr(cls, name),
                            _what=f"{cls.__name__}.{name}", **kwargs:
                            built.append(_what) or _fn(self, *args, **kwargs))
    builders = {
        ("minors", "--m", "0,3,3,5", "--kind", "V3", "--seed", "1"): ["CellMatrix.to_json"],
        ("betti", "--m", "0,1,3,4,4,5,7", "--p", "generic"): ["BettiTable.to_json"],
        ("stratum", "--m", "0,1,3,4,4,5,7", "--j", "7", "--u", "1"): ["StratumDescriptor.to_json"],
        ("generic", "--gens", "x4^2, x2*x4, x2^2, x1*x4", "--n", "4", "--log"):
            ["EliminationReport.to_json"],
        ("census", "--d", "3", "--q", "2", "--brute-force"): ["CellCensus.to_json"],
    }
    for argv, json_builders in builders.items():
        conditions = ["StratumDescriptor.condition_strings"] * (argv[0] == "stratum")
        formats = ("text", "json", "latex") if argv[0] in ("minors", "stratum") else ("text", "json")
        for fmt in formats:
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, "") and out, (argv, fmt)
            expected = json_builders + conditions if fmt == "json" else conditions * (fmt == "text")
            assert sorted(built) == sorted(expected), (argv, fmt, built)
            built.clear()


def test_latex_is_refused_before_any_work_where_there_is_no_display(capsys, monkeypatch):
    # only frame, minors, canonicalize and stratum offer --format latex; argparse
    # refuses it elsewhere (exit 2) before the subcommand runs, so census --d 30
    # no longer enumerates 5,604 staircases first
    ran = []
    for name in ("frame", "dims", "minors", "canonicalize", "kinds", "betti", "stratum", "gdim",
                 "generic", "census"):
        monkeypatch.setattr(hbcells.cli, f"cmd_{name}", lambda args, _name=name: ran.append(_name) or 0)
    argvs = {
        "frame": ("--m", "0,3,3,5"), "dims": ("--m", "0,3,3,5"), "minors": ("--m", "0,3,3,5"),
        "canonicalize": ("x^2, y",), "kinds": ("x^2, y",), "betti": ("--m", "0,3,3,5"),
        "stratum": ("--m", "0,3,3,5", "--j", "4", "--u", "1"), "gdim": ("--h", "1,2,1"),
        "generic": ("--gens", "x^2, y", "--n", "2"), "census": ("--d", "30"),
    }
    for name, argv in argvs.items():
        code, out, err = run(capsys, name, *argv, "--format", "latex")
        if name in ("frame", "minors", "canonicalize", "stratum"):
            assert (code, out, err, ran) == (0, "", "", [name])
        else:
            assert code == 2 and out == "" and not ran, name
            assert "--format: invalid choice: 'latex' (choose from 'text', 'json')" in err, name
        ran.clear()


def test_canonicalize_json_writes_integral_fractions_as_ints(capsys):
    _, plain, _ = run(capsys, "canonicalize", "--format", "json", "x-3, y-2")
    code, scaled, _ = run(capsys, "canonicalize", "--format", "json", "1/2*x - 3/2, y - 2")
    assert code == 0 and scaled == plain


def test_gdim_example(capsys):
    code, out, _ = run(capsys, "gdim", "--h", "1,2,1")
    assert code == 0
    assert out.strip() == "bella=2 brutta=2 agree=true"


def test_kinds(capsys):
    code, out, _ = run(capsys, "kinds", "x-y, y^2")
    assert code == 0 and out.strip() == "V0 V1 V2 V3"


def test_frame_text_and_json(capsys):
    code, out, _ = run(capsys, "frame", "--m", "0,3,3,5")
    assert code == 0 and "S: (2,1) (3,1) (4,1) (4,3)" in out
    code, out, _ = run(capsys, "frame", "--m", "0,3,3,5", "--format", "json")
    data = json.loads(out)
    assert data["U"] == [[3, 2, 3], [1, 0, 1], [2, 1, 2], [1, 0, 1]]
    assert data["S"] == [[2, 1], [3, 1], [4, 1], [4, 3]]


def test_minors_random_then_canonicalize_round_trip(capsys):
    code, out, _ = run(capsys, "minors", "--m", "0,2,3", "--kind", "V0", "--seed", "5",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    gens = ", ".join(data["generators"])
    code, out, _ = run(capsys, "canonicalize", gens, "--format", "json")
    assert code == 0
    back = json.loads(out)
    assert back["m"] == [0, 2, 3] and back["N"] == data["N"]


def test_cell_json_input_accepted(capsys):
    code, out, _ = run(capsys, "canonicalize", "x-3, y-2", "--format", "json")
    cell = out.strip()
    code, out, _ = run(capsys, "minors", "--m", "0,1", "--cell", cell)
    assert code == 0
    assert sorted(out.strip().splitlines()) == ["x - 3", "y - 2"]
    # round trip through the documented schema
    assert CellMatrix.from_json(json.loads(cell)).to_json() == json.loads(cell)


def test_betti_and_stratum(capsys):
    code, out, _ = run(capsys, "betti", "--m", "0,1,3,4,4,5,7", "--p", "zero")
    assert code == 0 and "j=7: beta0=2 beta1=2" in out
    code, out, _ = run(capsys, "betti", "--m", "0,1,3,4,4,5,7", "--p", "generic")
    assert "j=7" not in out
    code, out, _ = run(capsys, "stratum", "--m", "0,1,3,4,4,5,7", "--j", "7", "--u", "1",
                       "--format", "json")
    data = json.loads(out)
    assert data["rows"] == [3, 4, 7] and data["cols"] == [1, 4, 5]
    assert data["rank_bound"] == 1 and data["conditions"] == ["p1*p7"]
    assert data["entries"] == [["p", 1], ["zero"], ["zero"],
                               ["p", 2], ["one"], ["zero"],
                               ["p", 3], ["zero"], ["p", 7]]


def test_betti_incomplete_assignment_is_usage_error(capsys):
    code, _, err = run(capsys, "betti", "--m", "0,1,3,4,4,5,7", "--p", "p1=1")
    assert code == 2 and "missing" in err


def test_generic_subcommand(capsys):
    code, out, _ = run(capsys, "generic", "--gens", "x4^2, x2*x4, x2^2, x1*x4",
                       "--n", "4", "--format", "json")
    data = json.loads(out)
    assert data["initial"] == 8 and len(data["eliminated"]) == 3
    assert len(data["residual"]) == 2 and data["affine_space"] is False


def test_generic_subcommand_on_819_parameters(capsys):
    # the ungraded family of (x1^9, x2^9, x3^9) has one parameter per standard
    # monomial below each generator in lex: 729 + 81 + 9 = 819
    code, out, _ = run(capsys, "generic", "--gens", "x1^9, x2^9, x3^9", "--n", "3", "--ungraded")
    assert code == 0
    lines = out.splitlines()
    assert "affine_space=true" in lines
    assert lines[0] == "initial=819 eliminated=0 surviving=819 residual=0"
    survivors = next(line for line in lines if line.startswith("survivors:")).split()[1:]
    assert len(survivors) == 819


def test_generic_subcommand_refuses_an_ungraded_family_over_budget(capsys):
    # the exponent box of this family has 60^3 monomials, and the family would
    # have 17,942 parameters: the budget stops it before the box is scanned
    start = time.perf_counter()
    code, out, err = run(capsys, "generic", "--gens", "x1^60, x2^60, x3^60, x1*x2*x3",
                         "--n", "3", "--ungraded")
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert err.startswith("domain error: the ungraded family has an exponent box of 216000 monomials")
    assert "Traceback" not in err


def test_generic_subcommand_refuses_a_graded_family_over_budget(capsys):
    # the graded family would scan every monomial of degree 99999999999: the
    # budget counts them first
    start = time.perf_counter()
    code, out, err = run(capsys, "generic", "--gens", "x^99999999999, y", "--n", "2")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == ("domain error: the graded family has a degree scan of 100000000002 monomials, "
                   "over the budget of 2500 (generic_cells.FAMILY_LIMIT)\n")


def test_a_pure_power_over_the_staircase_budget_exits_1(capsys):
    # the staircase of (x^t, y) holds t + 1 exponents: refused before it is built
    for command in ("kinds", "canonicalize"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "x^99999999999, y")
        assert time.perf_counter() - start < 5
        assert code == 1 and out == ""
        assert err == ("domain error: the least power of x in the ideal is x^99999999999: a staircase "
                       "of 99999999999 steps is over the budget of 33554432 "
                       "(staircase.STAIRCASE_T_LIMIT)\n")


def test_census_subcommand(capsys):
    code, out, _ = run(capsys, "census", "--d", "2", "--q", "2", "--brute-force",
                       "--format", "json")
    data = json.loads(out)
    assert data["total"] == "q^4 + q^3"
    assert data["at_q"] == {"q": 2, "total": 24, "brute_force": 24}


def test_census_brute_force_largest_budgeted_count(capsys):
    # --d 3 --q 5 has 406,875 points, the most that the budget lets through
    code, out, _ = run(capsys, "census", "--d", "3", "--q", "5", "--brute-force",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["at_q"] == {"q": 5, "total": 19375, "brute_force": 19375}


def test_census_brute_force_needs_q(capsys):
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "census", "--d", "2", "--brute-force", "--format", fmt)
        assert code == 2 and out == ""
        assert err == "usage error: --brute-force needs --q, the order of the field GF(q)\n"


def test_census_brute_force_counts_once_in_every_format(capsys, monkeypatch):
    import hbcells.census as census_mod
    count = census_mod.brute_force_ideal_count
    calls = []

    def spy(d, q):
        calls.append((d, q))
        return count(d, q)

    monkeypatch.setattr(census_mod, "brute_force_ideal_count", spy)
    outs = {}
    for fmt in ("text", "json"):
        calls.clear()
        code, outs[fmt], _ = run(capsys, "census", "--d", "2", "--q", "3", "--brute-force",
                                 "--format", fmt)
        assert code == 0 and calls == [(2, 3)], fmt
    assert outs["text"].endswith("total(3) = 108\nbrute_force(3) = 108\n")
    assert json.loads(outs["json"])["at_q"] == {"q": 3, "total": 108, "brute_force": 108}


def test_census_q_is_a_prime_power(capsys):
    for q in ("-3", "0", "1", "6", "12", "x", "2.0", str(2**31)):
        code, out, err = run(capsys, "census", "--d", "2", "--q", q)
        assert code == 2 and out == "", q
        assert f"argument --q: expected a prime power 2 <= q < 2**31, got '{q}'" in err
    for q, total in (("2", 24), ("4", 320), ("8", 4608), ("9", 7290), ("2147483647",
                     2147483647**4 + 2147483647**3)):
        code, out, _ = run(capsys, "census", "--d", "2", "--q", q)
        assert code == 0 and out.endswith(f"total({q}) = {total}\n")
    # a prime power that is no field of the brute force stays a usage error
    code, out, err = run(capsys, "census", "--d", "2", "--q", "8", "--brute-force")
    assert code == 2 and out == ""
    assert err == "usage error: field order must be a prime below 2**31, got 8\n"


def test_census_brute_force_budget(capsys):
    # q^2 points at colength 1: refused before any is enumerated
    start = time.perf_counter()
    code, out, err = run(capsys, "census", "--d", "1", "--q", "2147483647", "--brute-force")
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert err.startswith("domain error: brute-force counting at colength 1 over F_2147483647 "
                          "has 4611686014132420609 points, over the budget of 500000")


def test_census_staircase_budget(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "census", "--d", "100")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == ("domain error: the census at colength 100 has 10143 staircases or more, "
                   "over the budget of 10000 (census.CENSUS_STAIRCASE_LIMIT)\n")


def test_stratum_minor_budget(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "stratum", "--d", "1,0,1,1,1,1,1,1,1,1,1,1,2,1,1,1,1,1,1,1,1",
                         "--j", "21", "--u", "6")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == ("domain error: the stratum of j = 21, u = 6 on a 10 x 10 star matrix takes "
                   "7620480 Laplace terms, over the budget of 150000 (betti.STRATUM_TERM_LIMIT)\n")


def test_latex_output(capsys):
    code, out, _ = run(capsys, "frame", "--m", "0,3,3,5", "--format", "latex")
    assert code == 0 and out.startswith(r"\begin{array}")


def test_deterministic_output(capsys):
    a = run(capsys, "minors", "--m", "0,3,3,5", "--kind", "V3", "--seed", "3")
    b = run(capsys, "minors", "--m", "0,3,3,5", "--kind", "V3", "--seed", "3")
    assert a == b


def test_prime_field_flag(capsys):
    code, out, _ = run(capsys, "minors", "--m", "0,2", "--kind", "V0", "--seed", "1",
                       "--field", "p:5")
    assert code == 0


def test_prime_field_flag_near_the_order_bound(capsys):
    # a random matrix over GF(2^31 - 1) draws its entries without listing the field
    start = time.perf_counter()
    code, out, _ = run(capsys, "minors", "--m", "0,2", "--field", "p:2147483647")
    assert code == 0 and out.strip()
    assert time.perf_counter() - start < 1


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "canonicalize", "x^2")
    assert code == 1 and "domain error" in err
    code, _, err = run(capsys, "gdim", "--h", "1,5")
    assert code == 1 and "domain error" in err


def test_usage_error_exit_codes(capsys):
    code, _, err = run(capsys, "canonicalize", "x +")
    assert code == 2
    code, _, err = run(capsys, "dims", "--m", "zebra")
    assert code == 2
    code, _, err = run(capsys, "nonsense")
    assert code == 2
    code, _, err = run(capsys, "dims")
    assert code == 2 and "--m or --d" in err
    code, _, err = run(capsys, "generic", "--gens", "x1 + x2", "--n", "3")
    assert code == 2 and "monomial" in err
    code, _, err = run(capsys, "minors", "--m", "0,1", "--cell", "{}")
    assert code == 2 and "usage error" in err
    code, _, err = run(capsys, "minors", "--m", "0,1", "--cell", "[1]")
    assert code == 2 and "usage error" in err
    code, _, err = run(capsys, "betti", "--m", "0,2,2", "--p", "p1=1/0")
    assert code == 2 and "zero denominator" in err
    code, _, err = run(capsys, "minors", "--m", "0,1", "--cell",
                       '{"m":[0,1],"N":[[[0]],[["1/0"]]]}')
    assert code == 2 and "zero denominator" in err
    code, _, err = run(capsys, "minors", "--m", "0,1", "--field", "p:5", "--cell",
                       '{"m":[0,1],"N":[[[0]],[["1/5"]]]}')
    assert code == 2 and "zero denominator" in err
    code, _, err = run(capsys, "canonicalize", "--field", "p:5", "x - 1/5, y")
    assert code == 2 and "zero denominator" in err
    for field, value in (("p:5", "1.5"), ("q", "true")):
        code, out, err = run(capsys, "minors", "--m", "0,1", "--field", field, "--cell",
                             '{"m":[0,1],"N":[[[0]],[[%s]]]}' % value)
        assert code == 2 and "not a field element" in err and out == ""
    code, out, err = run(capsys, "minors", "--m", "0,1", "--cell",
                         '{"m":[0,1],"N":[[[0]],[["1_0/ 2"]]]}')
    assert code == 2 and "not a field element" in err and out == ""
    code, out, err = run(capsys, "betti", "--m", "0,2,2", "--p", "p1=\u0663")
    assert code == 2 and "not a field element" in err and out == ""


def test_a_reader_that_closes_stdout_early_exits_141_quietly():
    # the frame of t = 300 is over 100 KB, past any pipe buffer, so the writer
    # meets the closed pipe (as under `hb-cells frame ... | head -c 10`)
    src = str(pathlib.Path(hbcells.__file__).parent.parent)
    proc = subprocess.Popen([sys.executable, "-m", "hbcells.cli", "frame", "--d", "1" + ",0" * 300],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.read(10) == b"m=[0,1,1,1"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_non_integer_staircase_in_cell_is_usage_error(capsys):
    code, out, err = run(capsys, "minors", "--m", "0,1", "--cell",
                         '{"m":[0,1.5],"N":[[[0]],[[1]]]}')
    assert code == 2 and "usage error" in err and out == ""
    code, _, err = run(capsys, "minors", "--m", "0,1", "--cell",
                       '{"m":[0,"1"],"N":[[[0]],[[1]]]}')
    assert code == 2 and "usage error" in err


# -- boundary fuzzing: every input exits 0, 1 or 2 without a traceback ----------

_JUNK = st.text(alphabet="xy123^*+-,/= {}[]:mNp", max_size=6)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                     st.floats(-2, 2, allow_nan=False), st.sampled_from(("1/2", "-1/3", "1/0", "x", "")))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.sampled_from(("m", "N", "x")), inner, max_size=3),
                     max_leaves=10)
_STAIRCASES = ((0, 1), (0, 2), (0, 1, 1), (0, 1, 3))


@st.composite
def _cells(draw):
    """A cell matrix object: often the right shape for one of ``_STAIRCASES``,
    with small coefficients, and otherwise any small JSON value."""
    m = draw(st.sampled_from(_STAIRCASES))
    valid = st.one_of(st.integers(-3, 3), st.sampled_from(("1/2", "-2/3")))
    coefficient = st.integers(0, 9).flatmap(lambda roll: _SCALARS if roll == 0 else valid)
    entry = st.lists(coefficient, max_size=3)
    rows = st.lists(st.lists(entry, min_size=len(m) - 1, max_size=len(m) - 1),
                    min_size=len(m), max_size=len(m))
    if draw(st.integers(0, 3)):
        return {"m": list(m), "N": draw(rows)}
    return draw(st.one_of(
        st.fixed_dictionaries({"m": st.lists(st.one_of(st.integers(-1, 3), _SCALARS), max_size=4),
                               "N": st.one_of(rows, _JSON)}),
        _JSON))


_CELLS = _cells()


def _exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


# each subcommand's required options (one of a "|" pair) and its optional ones
_OPTIONS = {
    "frame": (["--m|--d"], ["--format"]), "dims": (["--m|--d"], ["--format"]),
    "minors": (["--m|--d"], ["--format", "--field", "--cell", "--kind", "--seed"]),
    "canonicalize": (["IDEAL"], ["--format", "--field"]),
    "kinds": (["IDEAL"], ["--format", "--field"]),
    "betti": (["--m|--d"], ["--format", "--p"]),
    "stratum": (["--m|--d", "--j", "--u"], ["--format"]),
    "gdim": (["--h"], ["--format"]),
    "generic": (["--gens", "--n"], ["--graded", "--ungraded", "--log", "--format"]),
    "census": (["--d"], ["--q", "--brute-force", "--format"]),
}
# small values: the valid ones, then some that are not
_VALUES = {
    "IDEAL": (("x^2, y", "x - 1, y^2", "x*y, x^2, y^3", "x^3 - y, y^2 - x", "x, y"),
              ("x^2", "x +", "1", "0", "z")),
    "--m": (("0,1", "0,2,2", "0,1,3,4", "0,3,3,5"), ("1,0", "0,-1", "", "0,x")),
    "--d": (("3,0,2", "1", "2", "3"), ("0", "-1,2", "", "101")),
    "--format": (("text", "json", "latex"), ("xml",)),
    "--field": (("q", "p:2", "p:3", "p:4"), ("p:6", "p:", "p:1")),
    "--kind": (("V0", "V1", "V2", "V3"), ("V4",)),
    "--seed": (("0", "1", "7"), ("-1", "x")),
    "--p": (("zero", "generic", "p1=1", "p2=-1/2,p1=3"), ("p1=1/0", "p9=1", "p1", "p1=x")),
    "--j": (("0", "2", "3", "4"), ("-1", "x")), "--u": (("0", "1", "2"), ("-1",)),
    "--h": (("1,2,1", "1,2,3,1", "1,2,2,1"), ("1,5", "0", "1,-1", "")),
    "--gens": (("x^2, y", "x*y, x^2, y^3", "x1^2, x2, x3^2", "x1*x2, x2^2, x3, x1^2", "y"),
               ("x + y", "1", "0", "", "x^-1")),
    "--n": (("1", "2", "3"), ("0", "-1", "x")),
    "--q": (("2", "3", "4", "5"), ("6", "0")),
}


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_fuzzed_argv_exits_0_1_or_2(data):
    draw = data.draw
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    required, optional = _OPTIONS[command]
    options = [draw(st.sampled_from(option.split("|"))) for option in required]
    options += draw(st.lists(st.sampled_from(optional), max_size=3))
    argv = [command]
    for option in draw(st.permutations(options)):
        if option != "IDEAL":
            argv.append(option)
        if option == "--cell":
            argv.append(json.dumps(draw(_CELLS)))
        elif option in _VALUES:
            valid, invalid = _VALUES[option]
            argv.append(draw(st.sampled_from(invalid if draw(st.integers(0, 4)) == 0 else valid)))
    if draw(st.integers(0, 4)) == 0:  # a stray token anywhere
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    _exits_cleanly(argv)


@settings(max_examples=150, deadline=None)
@given(_CELLS, st.sampled_from(("q", "p:2", "p:5")), st.sampled_from(("text", "json")))
def test_fuzzed_cell_matrix_json_exits_0_1_or_2(cell, field, fmt):
    # --m is the cell's own staircase when that is one, so most cells get past the check
    m = cell.get("m") if isinstance(cell, dict) else None
    m = ",".join(map(str, m)) if m in map(list, _STAIRCASES) else "0,1"
    _exits_cleanly(["minors", "--m", m, "--field", field, "--format", fmt,
                    "--cell", json.dumps(cell)])
