import json

import numpy as np
import pytest

import cosetalg as ca
from cosetalg.cli import main


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


def test_unknown_prop_rejected(capsys):
    assert run_cli(capsys, "check", "--prop", "NOT_A_CHECK")[0] == 2


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
