import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cosetalg as ca
from cosetalg import cli
from cosetalg.cli import main
from cosetalg.errors import CapExceeded


# every name the package exported when it still imported the verifier eagerly
PUBLIC_NAMES = """
    BACKEND CapExceeded CarrierMismatch CosetAlgError NoIdentity NoInverse NonPositive
    NotAPermutation NotAssociative NotClosed NotCosetConstant UnknownCheckId UnknownName
    ExactVector FiniteGroup QuotientSpace Subgroup build_coset_space
    build_from_cayley_table build_from_permutation_generators builtin_catalog
    builtin_from_token element_order find_element generate_subgroup group_from_dict
    group_to_dict subgroup_from_members subgroup_from_tokens test_normality
    ComplexMeasure DensityFunction from_density group_carrier group_convolve integrate
    measure_from_dict measure_to_dict point_mass quotient_carrier total_variation
    IdentitySolution StructureTable delta_h embed_density find_left_identity
    find_two_sided_identity ideal_factorize l1_convolve lp_action lp_norm module_action
    quotient_convolve quotient_convolve_exact structure_table QuotientMeasure
    RhoFunction average_ph compose_with_projection lift_to_invariant membership_mgh
    pushforward_rh quasi_invariant_lambda quotient_integral_check rho_from_dict rho_ones
    solve_mhg_space validate_rho weighted_average_th CHECK_IDS CatalogEntry CheckReport
    CheckSpec default_catalog exit_code run_check run_suite __version__
""".split()
SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code, *args):
    """Run code in a new interpreter that imports cosetalg from src; its
    stdout's last line."""
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_groups_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "groups", "--group", "builtin:S3", "--format", "json")
    assert code == 0
    spec = json.loads(out)
    G = ca.group_from_dict(spec)
    assert G.order == 6
    assert G.labels == ca.builtin_from_token("S3").labels


def test_groups_with_subgroup_text(capsys):
    code, out, _ = run_cli(capsys, "groups", "--group", "builtin:S3",
                           "--subgroup", "(12)")
    assert code == 0
    assert "not normal" in out
    assert "C0" in out


@pytest.mark.parametrize("token", ["(ab)", "(1,a)", "(1,,2)"])
def test_subgroup_token_with_a_non_integer_point_exits_2(capsys, token):
    code, out, err = run_cli(capsys, "groups", "--group", "builtin:S3", "--subgroup", token)
    assert (code, out, err) == (2, "", f"error: no element {token!r} in S3\n")


def test_subgroup_cycle_tokens_with_commas(capsys):
    # degree >= 10 labels carry commas inside cycles; they must parse back
    G = ca.builtin_from_token("D12")
    label = "(2,12)(3,11)(4,10)(5,9)(6,8)"
    assert label in G.labels
    code, out, err = run_cli(capsys, "groups", "--group", "builtin:D12",
                             "--format", "json", "--subgroup", label)
    assert code == 0, err
    assert json.loads(out)["subgroup"]["members"] == ["e", label]
    # commas outside parentheses still separate generators
    code, out, err = run_cli(capsys, "groups", "--group", "builtin:D12", "--format",
                             "json", "--subgroup", f"{label}, (1,3,5,7,9,11)(2,4,6,8,10,12)")
    assert code == 0, err
    assert len(json.loads(out)["subgroup"]["members"]) == 12


def test_table_worked_example(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "builtin:S3",
                           "--subgroup", "(12)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cosets"] == ["C0", "C1", "C2"]
    assert payload["c"][1][2] == ["1/2", "0/1", "1/2"]
    # every row sums to one
    from fractions import Fraction
    for block in payload["c"]:
        for row in block:
            assert sum(Fraction(v) for v in row) == 1


# table --format json, recorded before the structure table stored one label
# per coset: exact Fractions, so the bytes depend on no float kernel
TABLES = Path(__file__).resolve().parent / "data" / "tables"
PINNED_TABLES = {
    "S4_12": ("S4", "(12)"),
    "S4_S3": ("S4", "(12),(123)"),
    "A4_V4": ("A4", "(12)(34),(13)(24)"),
    "S5_12_123": ("S5", "(12),(123)"),
    "D6_26_35": ("D6", "(26)(35)"),
}


@pytest.mark.parametrize("name", PINNED_TABLES)
def test_table_json_matches_its_pinned_bytes(capsys, name):
    group, subgroup = PINNED_TABLES[name]
    code, out, err = run_cli(capsys, "table", "--group", f"builtin:{group}",
                             "--subgroup", subgroup, "--format", "json")
    assert (code, err) == (0, "")
    assert out.encode() == (TABLES / f"{name}.json").read_bytes()


def _table_past_its_request(monkeypatch, argv, short=False):
    """table's exit code, what it allocated from its one byte request on
    (traced, output to a sink) and that request; with short, the budget is
    one byte below the request from the request on."""
    requests = []

    def check(nbytes, what):
        requests.append((nbytes, tracemalloc.get_traced_memory()[0]))
        if short:
            monkeypatch.setattr(ca.groups, "BYTE_BUDGET", nbytes - 1)
        tracemalloc.reset_peak()
        ca.groups.require_bytes(nbytes, what)

    monkeypatch.setattr(cli, "require_bytes", check)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["table", *argv])
            (request, held), = requests
            return code, tracemalloc.get_traced_memory()[1] - held, request
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("group,subgroup", [("S4", "(12)"), ("S5", "(12)")])
def test_table_rows_stay_within_their_byte_check(monkeypatch, capsys, group, subgroup, fmt):
    # 12 and 60 cosets, up to 216,000 entries, written a row at a time:
    # what the command allocates past its request stays within it, and a
    # budget one byte short exits 2, naming the cosets, before any row
    argv = ("--group", f"builtin:{group}", "--subgroup", subgroup, "--format", fmt)
    code, grown, request = _table_past_its_request(monkeypatch, argv)
    assert code == 0 and grown <= request, (grown, request)
    code, grown, _ = _table_past_its_request(monkeypatch, argv, short=True)
    assert code == 2 and grown < request // 10, (grown, request)
    k = 12 if group == "S4" else 60
    assert capsys.readouterr().err == (f"error: table rows with {k} cosets needs {request} "
                                       f"bytes, over the byte budget of {request - 1} bytes\n")


def test_conv_quotient_worked_example(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"carrier": "quotient", "weights": {"C1": [1, 0]}}))
    b.write_text(json.dumps({"carrier": "quotient", "weights": {"C2": [1, 0]}}))
    code, out, _ = run_cli(capsys, "conv", "--quotient",
                           "--m1", str(a), "--m2", str(b),
                           "--group", "builtin:S3", "--subgroup", "(12)",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["weights"] == {"C0": [0.5, 0.0], "C2": [0.5, 0.0]}


def test_conv_group(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"carrier": "group", "weights": {"(12)": [1, 0]}}))
    b.write_text(json.dumps({"carrier": "group", "weights": {"(123)": [1, 0]}}))
    code, out, _ = run_cli(capsys, "conv", "--m1", str(a), "--m2", str(b),
                           "--group", "builtin:S3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["weights"] == {"(23)": [1.0, 0.0]}
    # text mode prints the nonzero weights in point order: (123) is element
    # 2 of S3, (23) element 3
    a.write_text(json.dumps({"carrier": "group", "weights": {"(12)": [2, 0], "e": [1, -0.5]}}))
    code, out, _ = run_cli(capsys, "conv", "--m1", str(a), "--m2", str(b), "--group", "builtin:S3")
    assert (code, out) == (0, "  (123): +1-0.5i\n  (23): +2+0i\n")


def test_check_single_pair_json(capsys):
    code, out, _ = run_cli(capsys, "check", "--group", "builtin:S3",
                           "--subgroup", "(12)", "--prop", "L11_RIGHT_ID",
                           "--trials", "10", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["status"] == "pass"
    assert "elapsed_s" not in reports[0]


def test_check_json_byte_identical(capsys):
    args = ("check", "--group", "builtin:S3", "--subgroup", "(12)",
            "--prop", "D6_CONV", "--trials", "10", "--seed", "5",
            "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_check_builds_the_group_once(tmp_path, capsys, monkeypatch):
    # one group, subgroup and coset-space build and one structure table of
    # the pair's own representatives for all checks, with or without a rho
    # file; D6_CONV gathers its tables of other representatives without one
    from cosetalg import cli, groups, verifier
    calls = {}

    def spy(module, name):
        real = getattr(module, name)

        def record(*args):
            calls.setdefault(name, []).append(args)
            return real(*args)
        monkeypatch.setattr(module, name, record)

    for module, name in ((cli, "builtin_from_token"), (groups, "generate_subgroup"),
                         (cli, "build_coset_space"), (verifier, "build_coset_space"),
                         (verifier, "structure_table")):
        spy(module, name)
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps({"values": {"(123)": 2, "(23)": 0.5}}))
    for extra in ((), ("--rho", str(rho))):
        calls.clear()
        code, out, _ = run_cli(capsys, "check", "--group", "builtin:S3", "--subgroup", "(12)",
                               "--trials", "2", "--format", "json", *extra)
        assert code == 0
        assert calls["builtin_from_token"] == [("builtin:S3",)]
        assert len(calls["generate_subgroup"]) == len(calls["build_coset_space"]) == 1
        tables = [args[1:] for args in calls["structure_table"]]
        assert tables == [()]
        reports = json.loads(out)
        assert len(reports) == 15
        assert {r["entry"] for r in reports} == {"builtin:S3/<(12)>"}


def test_check_jobs_is_ignored(capsys):
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, "check", "--group", "builtin:D4", "--subgroup", "(24)",
                               "--trials", "3", "--format", "json", "--jobs", jobs)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_check_accepts_a_group_file_from_groups(tmp_path, capsys):
    # the file `groups --format json` writes, round-tripped through check
    code, out, _ = run_cli(capsys, "groups", "--group", "builtin:S4", "--format", "json")
    assert code == 0
    path = tmp_path / "s4.json"
    path.write_text(out)
    code, out, err = run_cli(capsys, "check", "--group", str(path), "--subgroup", "(12)",
                             "--trials", "3", "--format", "json")
    assert code == 0, err
    reports = json.loads(out)
    assert len(reports) == 15
    assert reports[0]["entry"] == f"{path}/<(12)>"


def test_check_all_props_single_pair(capsys):
    code, out, _ = run_cli(capsys, "check", "--group", "builtin:S3",
                           "--subgroup", "(123)", "--trials", "10",
                           "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 15


def test_check_text_format(capsys):
    code, out, _ = run_cli(capsys, "check", "--group", "builtin:C6",
                           "--subgroup", "(135)(246)", "--prop", "P15_NORMALITY",
                           "--trials", "5")
    assert code == 0
    assert "PASS" in out and "P15_NORMALITY" in out


def test_check_with_rho_file(tmp_path, capsys):
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps({"values": {"(123)": 2, "(23)": 0.5}}))
    code, out, _ = run_cli(capsys, "check", "--group", "builtin:S3",
                           "--subgroup", "(12)", "--rho", str(rho),
                           "--prop", "W0_WEIL", "--trials", "10",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["status"] == "pass"


def test_usage_errors(capsys, tmp_path):
    assert run_cli(capsys, "check", "--bogus-flag")[0] == 2
    assert run_cli(capsys, "table", "--group", "builtin:S3")[0] == 2   # no subgroup
    assert run_cli(capsys, "groups")[0] == 2                           # no group
    code, _, err = run_cli(capsys, "check", "--group", "builtin:S3",
                           "--subgroup", "(77)", "--prop", "W0_WEIL")
    assert code == 2 and "error" in err
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(capsys, "conv", "--m1", str(missing), "--m2", str(missing),
                           "--group", "builtin:S3")
    assert code == 2


@pytest.mark.parametrize("content,message", [
    ([1, 2], "a rho file must be a JSON object"),
    ({"values": [1, 2]}, "a rho file's 'values' must be an object of label: value"),
    ({"values": {"(123)": float("inf")}}, "rho must be finite, got inf on coset C1"),
    ({"values": {"(23)": float("nan")}}, "rho must be > 0, got nan on coset C2"),
    ({"values": {"(123)": -1}}, "rho must be > 0, got -1.0 on coset C1"),
    ({"values": {"(123)": 10 ** 400}}, "rho must be finite, got inf on coset C1"),
], ids=["list", "values-list", "infinite", "nan", "negative", "beyond-float"])
def test_malformed_rho_file_exits_2(tmp_path, capsys, content, message):
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps(content))    # writes NaN and Infinity, as json reads them
    code, out, err = run_cli(capsys, "check", "--group", "builtin:S3", "--subgroup", "(12)",
                             "--rho", str(rho), "--trials", "1", "--format", "json")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("value,message", [
    ("1/0", "rho value '1/0' of '(123)' is not a positive finite number"),
    ("1/2x", "rho value '1/2x' of '(123)' is not a positive finite number"),
    ("-1/2", "rho value '-1/2' of '(123)' is not a positive finite number"),
    ("inf", "rho value 'inf' of '(123)' is not a positive finite number"),
    ("1e-400", "rho value '1e-400' of '(123)' is not a positive finite number"),
    (True, "rho value True of '(123)' is not a number"),
    (None, "rho value None of '(123)' is not a number"),
], ids=["zero-denominator", "no-number", "negative", "infinite", "underflow", "bool", "null"])
def test_rho_file_string_that_is_no_positive_number_exits_2(tmp_path, capsys, value, message):
    # "1/0" raised ZeroDivisionError, a traceback and exit 1
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps({"values": {"(123)": value}}))
    code, out, err = run_cli(capsys, "check", "--group", "builtin:S3", "--subgroup", "(12)",
                             "--rho", str(rho), "--trials", "1", "--format", "json")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_rho_file_string_with_a_huge_exponent_exits_2_at_once(tmp_path):
    # Fraction("1e999999999999") computes 10**999999999999 and does not
    # return; a fresh interpreter under a timeout fails instead of hanging
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps({"values": {"(123)": "1e999999999999", "(23)": "1/2"}}))
    done = subprocess.run([sys.executable, "-m", "cosetalg.cli", "check", "--group", "builtin:S3",
                           "--subgroup", "(12)", "--rho", str(rho), "--trials", "1"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (done.returncode, done.stderr) == (
        2, "error: rho value '1e999999999999' of '(123)' is not a positive finite number\n")


def test_rho_file_strings_read_as_the_numbers_they_name(s3_q):
    # a fraction or decimal string is the double nearest it, as
    # float(Fraction(s)) rounds it
    strings = ca.rho_from_dict(s3_q, {"values": {"(123)": "1/3", "(23)": " 1e-1 "}})
    assert strings.values.tolist() == [1.0, float(Fraction(1, 3)), float(Fraction("0.1"))]


@pytest.mark.parametrize("spec,message", [
    ({"elements": ["e", "a"], "table": [[0.2, 1.9], [1, 0]]},
     "entry mul(0,0) = 0.2 is not an integer"),
    ({"elements": ["e", "a"], "table": [[0, 1], [1, 10 ** 29]]},
     f"entry mul(1,1) = {10 ** 29} out of range"),
    ({"permutations": {"degree": 2, "generators": [[1, 0.5]]}},
     "generator 0 entry 1 = 0.5 is not an integer"),
    ({"permutations": {"degree": 2, "generators": [[True, False]]}},
     "generator 0 entry 0 = True is not an integer"),
    ({"permutations": {"degree": 2.9, "generators": [[1, 0]]}},
     "degree must be an integer >= 1, got 2.9"),
], ids=["truncated", "beyond-int64", "half", "bools", "float-degree"])
def test_group_file_entry_that_is_no_integer_in_range_exits_2(tmp_path, capsys, spec, message):
    # the truncated table and the three permutation files built C2 and S2
    # (exit 0), and 10**29 raised OverflowError, a traceback and exit 1
    path = tmp_path / "group.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "groups", "--group", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("content,message", [
    ([1, 2], "a measure file must be a JSON object"),
    ({"weights": [1, 2]}, "a measure file's 'weights' must be an object of label: weight"),
    *(({"weights": {"C1": w}}, "weight of 'C1' must be a finite number or a finite "
       f"[re, im] pair, got {w!r}")
      for w in (float("nan"), float("inf"), [1, float("-inf")], [float("nan"), 0],
                "1", True, [1, 2, 3], [1], None, 10 ** 400)),
], ids=["list", "weights-list", "nan", "inf", "pair-inf", "pair-nan", "string", "bool",
        "triple", "single", "null", "overflow"])
def test_malformed_measure_file_exits_2(tmp_path, capsys, content, message):
    # the same refusal on the group and on the coset space ("C1" is a label
    # of neither carrier: the weight is refused first)
    m = tmp_path / "m.json"
    m.write_text(json.dumps(content))
    for extra in ((), ("--quotient", "--subgroup", "(12)")):
        code, out, err = run_cli(capsys, "conv", "--group", "builtin:S3", *extra,
                                 "--m1", str(m), "--m2", str(m), "--format", "json")
        assert (code, out, err) == (2, "", f"error: {message}\n"), extra


@pytest.mark.parametrize("budget,what", [
    (4000, "Cayley table of order 24 needs 10688 bytes"),
])
def test_table_over_byte_budget_exits_2(capsys, monkeypatch, budget, what):
    monkeypatch.setattr(ca.groups, "BYTE_BUDGET", budget)
    code, out, err = run_cli(capsys, "table", "--group", "builtin:S4",
                             "--subgroup", "(12)", "--format", "json")
    assert code == 2 and out == ""
    assert err == f"error: {what}, over the byte budget of {budget} bytes\n"


def test_table_needs_no_dense_tensor(capsys, monkeypatch):
    # S5/<(12)>: the dense int8 k³ view (216000 bytes and more) is over the
    # budget, the group table (115200), the factored table (74400) and the
    # coset space (19712) are within it
    code, want, _ = run_cli(capsys, "table", "--group", "builtin:S5",
                            "--subgroup", "(12)", "--format", "json")
    assert code == 0
    monkeypatch.setattr(ca.groups, "BYTE_BUDGET", 150000)
    G = ca.builtin_from_token("S5")
    T = ca.structure_table(ca.build_coset_space(G, ca.subgroup_from_tokens(G, ["(12)"])))
    with pytest.raises(CapExceeded, match="dense structure tensor with 60 cosets"):
        T.counts
    code, out, err = run_cli(capsys, "table", "--group", "builtin:S5",
                             "--subgroup", "(12)", "--format", "json")
    assert (code, out, err) == (0, want, "")


def test_check_over_byte_budget_exits_2(capsys, monkeypatch):
    # a refused coset space is an input error, not a failing check: S4/A4,
    # whose Cayley table (10688 bytes) fits the budget
    monkeypatch.setattr(ca.groups, "BYTE_BUDGET", 10700)
    code, out, err = run_cli(capsys, "check", "--group", "builtin:S4", "--subgroup",
                             "(123),(234)", "--trials", "1", "--format", "json")
    assert (code, out) == (2, "")
    assert err == ("error: coset space of order 24 needs 11648 bytes, "
                   "over the byte budget of 10700 bytes\n")


def test_missing_group_file_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"weights": {}}))
    for missing in ("nope.json", "sub/nope"):
        for argv in (("groups",), ("table", "--subgroup", "(12)"),
                     ("conv", "--m1", str(m), "--m2", str(m)),
                     ("check", "--subgroup", "(12)", "--trials", "1")):
            code, out, err = run_cli(capsys, *argv, "--group", missing)
            assert (code, out) == (2, ""), argv
            assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n", argv
    # tokens without a suffix or directory part stay builtin tokens
    code, _, err = run_cli(capsys, "groups", "--group", "cyclic(0)")
    assert (code, err) == (2, "error: cyclic(n) needs n >= 1\n")
    code, _, err = run_cli(capsys, "check", "--group", "nope", "--subgroup", "(12)")
    assert (code, err) == (2, "error: cannot parse builtin group token 'nope'\n")


def test_check_rho_or_subgroup_without_group_exits_2(tmp_path, capsys):
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps({"values": {}}))
    for extra in (["--rho", str(rho)], ["--subgroup", "(12)"],
                  ["--rho", str(rho), "--subgroup", "(12)"]):
        code, out, err = run_cli(capsys, "check", "--prop", "W0_WEIL", "--trials", "1", *extra)
        assert (code, out) == (2, "")
        assert err == "error: --rho and --subgroup need --group\n"



def test_group_without_subgroup_exits_2_before_building(capsys, monkeypatch):
    # a missing --subgroup is reported before the group is built
    from cosetalg import cli
    built = []
    monkeypatch.setattr(cli, "builtin_from_token", lambda token: built.append(token))
    for argv in (("check", "--trials", "1"), ("table",), ("conv", "--quotient",
                                                          "--m1", "m", "--m2", "m")):
        code, out, err = run_cli(capsys, *argv, "--group", "builtin:S7")
        assert (code, out) == (2, ""), argv
        assert err == "error: --subgroup is required for quotient operations\n", argv
    assert built == []


def test_group_file_over_byte_budget_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(ca.group_to_dict(ca.builtin_from_token("S3"))))
    monkeypatch.setattr(ca.groups, "BYTE_BUDGET", 287)
    code, _, err = run_cli(capsys, "groups", "--group", str(path))
    assert code == 2
    assert "Cayley table of order 6 needs 288 bytes" in err


def test_unknown_prop_rejected(capsys, monkeypatch):
    # the library refuses the id before any group is built, naming the ids
    from cosetalg import cli, verifier
    built = []
    for module in (cli, verifier):
        monkeypatch.setattr(module, "builtin_from_token", lambda token: built.append(token))
    assert len(verifier.CHECK_IDS) == 15
    for extra in ((), ("--group", "builtin:S3", "--subgroup", "(12)")):
        code, out, err = run_cli(capsys, "check", "--prop", "NOT_A_CHECK", *extra)
        assert (code, out) == (2, ""), extra
        assert err == ("error: unknown check id 'NOT_A_CHECK'; the ids are "
                       f"{', '.join(verifier.CHECK_IDS)}\n"), extra
    assert built == []


@pytest.mark.parametrize("prop", ["all", *ca.CHECK_IDS])
def test_each_prop_runs(capsys, prop):
    code, out, err = run_cli(capsys, "check", "--group", "builtin:S3", "--subgroup", "(12)",
                             "--prop", prop, "--trials", "1", "--format", "json")
    assert code == 0, err
    assert [r["id"] for r in json.loads(out)] == list(ca.CHECK_IDS if prop == "all" else [prop])


LOADED = """
import sys, cosetalg, cosetalg.cli
assert sys.argv[1:] == [] or cosetalg.cli.main(sys.argv[1:]) == 0
print("cosetalg.verifier" in sys.modules)
"""


@pytest.mark.parametrize("argv,loaded", [
    ((), False),
    (("groups", "--group", "builtin:S4", "--subgroup", "(12)"), False),
    (("table", "--group", "builtin:S4", "--subgroup", "(12)"), False),
    (("conv", "--group", "builtin:S3", "--m1", "{group}", "--m2", "{group}"), False),
    (("conv", "--quotient", "--group", "builtin:S3", "--subgroup", "(12)",
      "--m1", "{quotient}", "--m2", "{quotient}"), False),
    (("check", "--prop", "W0_WEIL", "--trials", "1"), True),
], ids=["import", "groups", "table", "conv", "conv-quotient", "check"])
def test_only_check_loads_the_verifier(tmp_path, argv, loaded):
    files = {"group": {"carrier": "group", "weights": {"(12)": [1, 0]}},
             "quotient": {"carrier": "quotient", "weights": {"C1": [0.5, 0]}}}
    for name, content in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
    argv = [a.format(**{name: str(tmp_path / f"{name}.json") for name in files}) for a in argv]
    assert run_fresh(LOADED, *argv) == str(loaded)


def test_verifier_names_load_on_first_use():
    # every public name resolves as an attribute and by from-import, and dir
    # lists it; dir and the import itself load no verifier
    code = """
import sys, cosetalg
names = sys.argv[1:]
assert set(names) <= set(dir(cosetalg)) and "verifier" in dir(cosetalg)
assert "cosetalg.verifier" not in sys.modules
verifier = getattr(cosetalg, "verifier")
assert verifier is sys.modules["cosetalg.verifier"]
for name in names:
    value = getattr(cosetalg, name)
    exec(f"from cosetalg import {name} as imported")
    assert imported is value, name
assert cosetalg.run_suite is verifier.run_suite
try:
    cosetalg.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("no AttributeError")
print("ok")
"""
    assert run_fresh(code, *PUBLIC_NAMES) == "ok"


def test_table_text_format(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "builtin:S3",
                           "--subgroup", "(123)")
    assert code == 0
    assert "c[C0][C0]" in out


def test_group_file_input(tmp_path, capsys):
    spec = ca.group_to_dict(ca.builtin_from_token("C6"))
    path = tmp_path / "c6.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "table", "--group", str(path),
                           "--subgroup", "(135)(246)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cosets"] == ["C0", "C1"]
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "groups", "--group", str(bad))[0] == 2


def test_group_file_of_high_degree_permutations(tmp_path, capsys):
    from test_groups import HIGH_CYCLE_SPEC
    path = tmp_path / "c18.json"
    path.write_text(json.dumps(HIGH_CYCLE_SPEC))
    code, out, err = run_cli(capsys, "groups", "--group", str(path), "--format", "json")
    assert code == 0, err
    assert len(json.loads(out)["elements"]) == 18


def test_check_exact_mode_cli(capsys):
    code, out, _ = run_cli(capsys, "check", "--group", "builtin:S3",
                           "--subgroup", "(12)", "--prop", "L11_RIGHT_ID",
                           "--trials", "10", "--mode", "exact", "--format", "json")
    assert code == 0
    report = json.loads(out)[0]
    assert report["status"] == "pass" and report["max_residual"] == 0.0
