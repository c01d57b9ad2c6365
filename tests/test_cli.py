"""Command-line interface: exit-code contract (0 pass, 1 invalid or
counterexample, 2 usage or parse error), output shapes, and the pipe
behavior.  Runs in-process through main(); one subprocess smoke test."""

import io
import json
import subprocess
import sys

import pytest

from cycleset import cyclic_brace, from_cycles, pp_brace, trivial_cycle_set
from cycleset import cli, perm
from cycleset.cli import main
from cycleset.formats import dump_brace, dump_cycle_set

CYCLOID_BROKEN = "n=3\n0 1 2\n0 2 1\n2 0 1\n"


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def table4_file(tmp_path, table4):
    path = tmp_path / "table4.json"
    path.write_text(dump_cycle_set(table4))
    return str(path)


@pytest.fixture
def cyclic3_file(tmp_path, cyclic3):
    path = tmp_path / "cyclic3.txt"
    path.write_text(dump_cycle_set(cyclic3, "text"))
    return str(path)


class TestValidate:
    def test_valid(self, run, table4_file):
        code, out, _ = run("validate", table4_file)
        assert code == 0
        assert "valid cycle set of size 4" in out

    def test_invalid_axiom_reported(self, run, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(CYCLOID_BROKEN)
        code, out, _ = run("validate", str(path))
        assert code == 1
        assert "invalid:" in out and "witness" in out

    @pytest.mark.parametrize("text", ["{}", '{"table": 5}', '{"table": [0]}'])
    def test_wrong_shape_is_a_parse_error(self, run, tmp_path, text):
        path = tmp_path / "shape.json"
        path.write_text(text)
        code, out, err = run("validate", str(path))
        assert (code, out) == (2, "")
        assert "'table' must be a list of rows" in err

    def test_broken_json_is_a_parse_error(self, run, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{broken")
        code, _, err = run("validate", str(path))
        assert code == 2
        assert "error:" in err

    def test_missing_file(self, run, tmp_path):
        code, _, err = run("validate", str(tmp_path / "absent.json"))
        assert code == 2

    def test_stdin_dash(self, run, monkeypatch, table4):
        monkeypatch.setattr(sys, "stdin", io.StringIO(dump_cycle_set(table4)))
        code, out, _ = run("validate", "-")
        assert code == 0 and "size 4" in out


class TestAnalyze:
    def test_json_report_with_meta(self, run, table4_file):
        code, out, _ = run("analyze", table4_file)
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 4 and report["latin"] is True
        assert report["_meta"]["command"].startswith("cycleset analyze")

    def test_single_field(self, run, table4_file):
        code, out, _ = run("analyze", table4_file, "--field", "dehornoy_class")
        assert code == 0
        assert out.strip() == "2"

    def test_list_field_is_json(self, run, table4_file):
        code, out, _ = run("analyze", table4_file, "--field", "fixed_points")
        assert code == 0
        assert json.loads(out) == [0, 2]

    def test_unknown_field(self, run, table4_file):
        code, _, err = run("analyze", table4_file, "--field", "bogus")
        assert code == 2
        assert "unknown field" in err

    def test_text_format(self, run, table4_file):
        code, out, _ = run("analyze", table4_file, "--format", "text")
        assert code == 0
        assert "group_order: 8" in out

    def test_invalid_input_exits_one(self, run, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(CYCLOID_BROKEN)
        code, _, err = run("analyze", str(path))
        assert code == 1
        assert "invalid input" in err

    def test_group_past_the_order_cap_is_a_usage_error(self, run, tmp_path, monkeypatch):
        # constant rows of cycle type (9, 8, 7, 5): |G| = lcm = 2,520
        gamma = from_cycles(29, [range(0, 9), range(9, 17), range(17, 24), range(24, 29)])
        path = tmp_path / "big.json"
        path.write_text(dump_cycle_set(trivial_cycle_set(gamma)))
        monkeypatch.setattr(perm, "ORDER_CAP", 100)
        code, out, err = run("analyze", str(path), "--field", "group_order")
        assert code == 2
        assert out == ""
        assert err == "error: group order exceeds cap 100\n"


class TestTrivial:
    def test_one_based_cycles(self, run):
        code, out, _ = run("trivial", "-n", "5", "-g", "(1 2)(3 4 5)")
        assert code == 0
        obj = json.loads(out)
        want = trivial_cycle_set(from_cycles(5, [(0, 1), (2, 3, 4)]))
        assert tuple(tuple(r) for r in obj["table"]) == want.table

    def test_zero_based_flag(self, run):
        code, out, _ = run("trivial", "-n", "2", "-g", "(0 1)", "--zero-based")
        assert code == 0
        assert json.loads(out)["table"] == [[1, 0], [1, 0]]

    def test_image_array_input(self, run):
        code, out, _ = run("trivial", "-n", "3", "-g", "[1, 2, 0]")
        assert code == 0
        assert json.loads(out)["n"] == 3

    def test_text_output_to_file(self, run, tmp_path):
        out_path = tmp_path / "out.txt"
        code, out, _ = run(
            "trivial", "-n", "2", "-g", "(1 2)", "--format", "text",
            "-o", str(out_path),
        )
        assert code == 0 and out == ""
        body = out_path.read_text()
        assert "n=2" in body and body.startswith("# format_version")

    def test_point_out_of_range(self, run):
        code, _, err = run("trivial", "-n", "3", "-g", "(1 5)")
        assert code == 2

    def test_empty_permutation_is_a_usage_error(self, run):
        # an empty table is not a cycle set, so nothing may be written
        code, out, err = run("trivial", "-n", "0", "-g", "[]")
        assert code == 2
        assert out == ""
        assert "nonempty" in err

    def test_size_past_the_cap_is_refused_before_any_table(self, run, monkeypatch):
        # 10^10 cells: the cap must refuse before the permutation or table
        def forbidden(*args, **kwargs):
            raise AssertionError("built a table past the size cap")

        monkeypatch.setattr(cli.formats, "parse_permutation", forbidden)
        monkeypatch.setattr(cli, "trivial_cycle_set", forbidden)
        code, out, err = run("trivial", "-n", "100000", "-g", "(1 2)")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "size cap 1024" in err

    def test_size_at_the_cap_is_built(self, run, monkeypatch):
        monkeypatch.setattr(cli, "TABLE_MAX_N", 3)
        assert run("trivial", "-n", "3", "-g", "(1 2)")[0] == 0
        assert run("trivial", "-n", "4", "-g", "(1 2)")[0] == 2


class TestTransforms:
    def test_cable(self, run, cyclic3_file, cyclic3):
        code, out, _ = run("cable", cyclic3_file, "-k", "2")
        assert code == 0
        got = tuple(tuple(r) for r in json.loads(out)["table"])
        assert got == cyclic3.cabling(2).table

    def test_retract_records_class_map(self, run, tmp_path, trivial2):
        path = tmp_path / "t2.json"
        path.write_text(dump_cycle_set(trivial2))
        code, out, _ = run("retract", str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 1
        assert obj["_meta"]["class_map"] == [0, 0]

    def test_product(self, run, cyclic3_file, tmp_path, size2_indec):
        left = tmp_path / "s2.json"
        left.write_text(dump_cycle_set(size2_indec))
        code, out, _ = run("product", str(left), cyclic3_file)
        assert code == 0
        assert json.loads(out)["n"] == 6

    def test_product_past_the_size_cap_is_refused(
        self, run, cyclic3_file, tmp_path, size2_indec, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("built a table past the size cap")

        left = tmp_path / "s2.json"
        left.write_text(dump_cycle_set(size2_indec))
        monkeypatch.setattr(cli, "TABLE_MAX_N", 5)
        monkeypatch.setattr(cli, "direct_product", forbidden)
        code, out, err = run("product", str(left), cyclic3_file)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "6 points" in err


class TestEnumerate:
    def test_count_only_summary(self, run):
        code, out, err = run("enumerate", "-n", "3", "--count-only")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[-1])["summary"]["count"] == 5
        assert "size 3: 5 classes" in err

    def test_filter_flag(self, run):
        code, out, _ = run("enumerate", "-n", "4", "--indecomposable",
                           "--count-only")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        assert summary["count"] == 5
        assert summary["filter"] == {"indecomposable": True}

    def test_oracle_engine_agrees(self, run):
        code, out, _ = run("enumerate", "-n", "3", "--oracle")
        assert code == 0
        oracle_tables = [
            json.loads(l)["table"] for l in out.strip().splitlines()[1:-1]
        ]
        code, out, _ = run("enumerate", "-n", "3")
        main_tables = [
            json.loads(l)["table"] for l in out.strip().splitlines()[1:-1]
        ]
        assert sorted(oracle_tables) == sorted(main_tables)

    def test_jobs_give_identical_records(self, run):
        def records(*argv):
            code, out, _ = run(*argv)
            assert code == 0
            lines = out.strip().splitlines()
            return lines[1:-1], json.loads(lines[-1])["summary"]["count"]

        seq, n_seq = records("enumerate", "-n", "4")
        par, n_par = records("enumerate", "-n", "4", "--jobs", "2")
        assert seq == par and n_seq == n_par

    def test_cap_is_a_usage_error(self, run):
        code, _, err = run("enumerate", "-n", "9")
        assert code == 2
        assert "exceeds the enumeration cap" in err

    def test_non_integer_cap_is_a_usage_error(self, run, monkeypatch):
        monkeypatch.setenv("CYCLESET_MAX_N", "8.5")
        code, _, err = run("enumerate", "-n", "3")
        assert code == 2
        assert "CYCLESET_MAX_N must be an integer, got '8.5'" in err


class TestVerify:
    def test_suite_pattern_selects_checkers(self, run):
        code, out, err = run("verify", "--suite", "latin", "--max-size", "3")
        assert code == 0
        verdicts = [json.loads(l) for l in out.strip().splitlines()]
        assert [v["checker"] for v in verdicts] == ["latin_fixed_points"]
        assert "pass" in err

    def test_pattern_can_match_several(self, run):
        # substring match on underscore-stripped ids: "fixedp" selects every
        # fixed-point checker, including the latin one
        code, out, _ = run("verify", "--suite", "fixedp", "--max-size", "2")
        assert code == 0
        names = {json.loads(l)["checker"] for l in out.strip().splitlines()}
        assert names == {
            "fixed_point_bound",
            "fixed_point_orders",
            "latin_fixed_points",
        }

    def test_unknown_pattern(self, run):
        code, _, err = run("verify", "--suite", "bogus", "--max-size", "2")
        assert code == 2
        assert "no checker matches" in err

    def test_all_flag_removed(self, run):
        code, _, err = run("verify", "--all", "--max-size", "2")
        assert code == 2
        assert "--all" in err

    def test_cabling_index_below_one_is_a_usage_error(self, run):
        code, out, err = run("verify", "--max-size", "2", "--ks", "0")
        assert code == 2
        assert out == ""
        assert "cabling indices must be >= 1" in err

    def test_usage_errors_come_before_the_census(self, run, monkeypatch):
        # a bad --ks or --suite must not cost a size-6 census first
        built = []
        monkeypatch.setattr(cli, "enumerate_cycle_sets", lambda *a, **k: built.append(a))
        code, out, err = run("verify", "--max-size", "6", "--ks", "0")
        assert (code, out) == (2, "")
        assert "cabling indices must be >= 1" in err
        code, out, err = run("verify", "--max-size", "6", "--suite", "nosuch")
        assert (code, out) == (2, "")
        assert "no checker matches 'nosuch'" in err
        assert built == []

    def test_census_file_counterexample_exits_one(self, run, tmp_path):
        lines = [
            json.dumps({"n": 2, "table": [[0, 0], [0, 0]]}),
            json.dumps({"summary": {"n": 2, "count": 1}}),
        ]
        path = tmp_path / "fake.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run("verify", "--census", str(path), "--suite", "pair")
        assert code == 1
        verdict = json.loads(out.strip().splitlines()[0])
        assert verdict["passed"] is False
        assert "FAIL(1)" in err

    def test_census_file_clean_pass(self, run, tmp_path):
        code, out, _ = run("enumerate", "-n", "3", "-o",
                           str(tmp_path / "c3.jsonl"))
        assert code == 0
        code, out, err = run("verify", "--census", str(tmp_path / "c3.jsonl"),
                             "--ks", "1,2,3")
        assert code == 0
        assert all(json.loads(l)["passed"] for l in out.strip().splitlines())


class TestBrace:
    def test_validate(self, run, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(dump_brace(cyclic_brace(3)))
        code, out, _ = run("brace", "validate", str(path))
        assert code == 0
        assert "valid left brace of order 3" in out

    def test_validate_invalid(self, run, tmp_path):
        obj = json.loads(dump_brace(cyclic_brace(3)))
        obj["circ"][1][1] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run("brace", "validate", str(path))
        assert code == 1
        assert "invalid:" in out

    @pytest.mark.parametrize("text", ["{}", "[[0]]", '{"add": 5, "circ": 5}'])
    def test_validate_wrong_shape_is_a_parse_error(self, run, tmp_path, text):
        path = tmp_path / "shape.json"
        path.write_text(text)
        code, out, err = run("brace", "validate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_socle(self, run, tmp_path):
        path = tmp_path / "pp.json"
        path.write_text(dump_brace(pp_brace(2)))
        code, out, _ = run("brace", "socle", str(path))
        assert code == 0
        assert json.loads(out) == [0, 2]

    def test_cosets_trivial_subgroup(self, run, tmp_path, cyclic3):
        path = tmp_path / "z3.json"
        path.write_text(dump_brace(cyclic_brace(3)))
        code, out, _ = run("brace", "cosets", str(path), "--a", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 3
        assert sorted(map(tuple, obj["_meta"]["cosets"])) == [(0,), (1,), (2,)]

    def test_cosets_subgroup_outside_the_brace(self, run, tmp_path):
        path = tmp_path / "z3.json"
        path.write_text(dump_brace(cyclic_brace(3)))
        code, _, err = run("brace", "cosets", str(path), "--a", "1", "--k", "0,99")
        assert code == 1
        assert "invalid input: K is not a multiplicative subgroup" in err

    def test_cosets_bad_base_element(self, run, tmp_path):
        path = tmp_path / "z3.json"
        path.write_text(dump_brace(cyclic_brace(3)))
        code, _, err = run("brace", "cosets", str(path), "--a", "0")
        assert code == 1
        assert "no transitive cycle base contains 0" in err

    def test_of_cycleset_round_trip(self, run, table4_file):
        from cycleset.formats import parse_brace

        code, out, _ = run("brace", "of-cycleset", table4_file)
        assert code == 0
        B = parse_brace(out)
        assert B.n == 8
        obj = json.loads(out)
        assert len(obj["_meta"]["elements"]) == 8

    def test_of_cycleset_past_the_group_order_cap(self, run, tmp_path):
        # constant rows (1..5)(6..12)(13..20)(21..29): G(X) is cyclic of
        # order lcm(5, 7, 8, 9) = 2,520, past the cap of 256
        gamma = "(1 2 3 4 5)(6 7 8 9 10 11 12)(13 14 15 16 17 18 19 20)"
        gamma += "(21 22 23 24 25 26 27 28 29)"
        path = tmp_path / "big.json"
        assert run("trivial", "-n", "29", "-g", gamma, "-o", str(path))[0] == 0
        code, out, err = run("brace", "of-cycleset", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "more than 256 elements" in err
        assert "Traceback" not in err


class TestUsage:
    def test_no_arguments(self, run):
        code, _, _ = run()
        assert code == 2

    def test_unknown_subcommand(self, run):
        code, _, _ = run("frobnicate")
        assert code == 2

    def test_missing_required_option(self, run):
        code, _, _ = run("enumerate")
        assert code == 2

    def test_bad_option_type(self, run, cyclic3_file):
        code, _, _ = run("cable", cyclic3_file, "-k", "two")
        assert code == 2

    def test_version(self, run):
        code, out, _ = run("--version")
        assert code == 0
        assert out.startswith("cycleset ")


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "cycleset", "trivial", "-n", "3", "-g", "(1 2 3)"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["table"] == [[1, 2, 0]] * 3
