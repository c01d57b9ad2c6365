"""Interchange formats: round-trips, comment and unknown-key tolerance, and
the malformed-input diagnostics."""

import json

import pytest

from cycleset import InvalidCycleSet, cyclic_brace, from_cycles, identity
from cycleset.formats import (
    FORMAT_CENSUS,
    dump_brace,
    dump_census_jsonl,
    dump_cycle_set,
    make_meta,
    parse_brace,
    parse_census_jsonl,
    parse_cycle_set,
    parse_permutation,
    verdict_json,
)


class TestCycleSetFormats:
    def test_json_round_trip(self, table4):
        text = dump_cycle_set(table4, "json", meta={"command": "test"})
        back = parse_cycle_set(text)
        assert back.table == table4.table

    def test_text_round_trip_with_comments(self, table4):
        text = dump_cycle_set(table4, "text", meta={"source": "unit test"})
        assert text.startswith("# source: unit test\n")
        assert parse_cycle_set(text).table == table4.table

    def test_text_rows_without_header(self, cyclic3):
        body = "\n".join(" ".join(str(v) for v in row) for row in cyclic3.table)
        assert parse_cycle_set(body).table == cyclic3.table

    def test_unknown_json_keys_ignored(self, size2_indec):
        obj = json.loads(dump_cycle_set(size2_indec, "json"))
        obj["provenance"] = {"arbitrary": True}
        assert parse_cycle_set(json.dumps(obj)).table == size2_indec.table

    def test_declared_n_must_match(self):
        with pytest.raises(ValueError, match="declared n"):
            parse_cycle_set('{"n": 3, "table": [[0, 1], [1, 0]]}')

    @pytest.mark.parametrize("n", [2.0, True, "2"])
    def test_declared_n_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="must be an integer"):
            parse_cycle_set(json.dumps({"n": n, "table": [[0, 1], [0, 1]]}))

    def test_row_count_must_match_header(self):
        with pytest.raises(ValueError, match="expected 3 rows"):
            parse_cycle_set("n=3\n0 1 2\n0 1 2\n")

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError, match="row of length"):
            parse_cycle_set("n=2\n0 1\n0 1 0\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_cycle_set("# nothing here\n")

    def test_parsing_validates_the_table(self):
        with pytest.raises(InvalidCycleSet):
            parse_cycle_set("n=2\n0 0\n0 0\n")

    def test_unknown_dump_format(self, size2_indec):
        with pytest.raises(ValueError, match="unknown format"):
            dump_cycle_set(size2_indec, "yaml")


class TestPermutationParsing:
    def test_image_array(self):
        assert parse_permutation("[1, 0, 2]") == (1, 0, 2)

    def test_image_array_degree_check(self):
        with pytest.raises(ValueError, match="degree 3"):
            parse_permutation("[1, 0, 2]", n=4)

    def test_image_array_must_be_a_permutation(self):
        with pytest.raises(ValueError, match="not a permutation"):
            parse_permutation("[0, 0, 1]")

    def test_one_based_cycles(self):
        got = parse_permutation("(1 2)(3 4 5)", n=5)
        assert got == from_cycles(5, [(0, 1), (2, 3, 4)])

    def test_zero_based_cycles(self):
        got = parse_permutation("(0 1)(2 3 4)", n=5, one_based=False)
        assert got == from_cycles(5, [(0, 1), (2, 3, 4)])

    def test_comma_separated_cycles(self):
        assert parse_permutation("(1,2)", n=3) == from_cycles(3, [(0, 1)])

    def test_empty_cycles_give_identity(self):
        assert parse_permutation("()", n=4) == identity(4)

    def test_cycles_need_a_degree(self):
        with pytest.raises(ValueError, match="needs the degree"):
            parse_permutation("(1 2)")

    def test_out_of_range_point(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_permutation("(1 6)", n=5)
        with pytest.raises(ValueError, match="out of range"):
            parse_permutation("(0 1)", n=5)  # 1-based reading of point 0

    def test_stray_characters_rejected(self):
        with pytest.raises(ValueError, match="stray characters"):
            parse_permutation("(1 2) junk", n=3)

    def test_unrecognized_syntax(self):
        with pytest.raises(ValueError, match="unrecognized"):
            parse_permutation("1 2 3", n=3)


class TestBraceFormats:
    def test_round_trip(self):
        B = cyclic_brace(4)
        back = parse_brace(dump_brace(B, meta={"command": "test"}))
        assert back.add == B.add and back.circ == B.circ

    def test_declared_n_checked(self):
        obj = json.loads(dump_brace(cyclic_brace(3)))
        obj["n"] = 4
        with pytest.raises(ValueError, match="declared n"):
            parse_brace(json.dumps(obj))

    def test_declared_zero_checked(self):
        obj = json.loads(dump_brace(cyclic_brace(3)))
        obj["zero"] = 1
        with pytest.raises(ValueError, match="declared zero"):
            parse_brace(json.dumps(obj))

    @pytest.mark.parametrize("header", [{"n": True, "zero": False}, {"n": 1.0}, {"zero": 0.0}])
    def test_declared_fields_must_be_integers(self, header):
        # true == 1 and 0.0 == 0, so a check by value alone lets these pass
        with pytest.raises(ValueError, match="must be integers"):
            parse_brace(json.dumps({**header, "add": [[0]], "circ": [[0]]}))


class TestCensusFormats:
    def test_round_trip(self, censuses_small):
        census = censuses_small[3]
        text = dump_census_jsonl(census, meta={"command": "test"})
        back = parse_census_jsonl(text)
        assert back == census
        assert back.canonical_bytes() == census.canonical_bytes()

    def test_meta_head_line(self, censuses_small):
        first = dump_census_jsonl(censuses_small[2]).splitlines()[0]
        head = json.loads(first)["_meta"]
        assert head["format"] == FORMAT_CENSUS

    def test_comment_lines_ignored(self, censuses_small):
        census = censuses_small[2]
        text = "# hand-added comment\n" + dump_census_jsonl(census)
        assert parse_census_jsonl(text) == census

    def test_count_only_has_no_table_records(self, censuses_small):
        census = censuses_small[3]
        text = dump_census_jsonl(census, count_only=True)
        records = [json.loads(line) for line in text.splitlines()]
        assert len(records) == 2
        assert json.loads(text.splitlines()[-1])["summary"]["count"] == census.count
        # a count-only dump is deliberately not round-trippable
        with pytest.raises(ValueError, match="does not match"):
            parse_census_jsonl(text)

    def test_tampered_count_detected(self, censuses_small):
        text = dump_census_jsonl(censuses_small[2])
        lines = text.splitlines()
        summary = json.loads(lines[-1])
        summary["summary"]["count"] += 1
        lines[-1] = json.dumps(summary)
        with pytest.raises(ValueError, match="does not match"):
            parse_census_jsonl("\n".join(lines))

    def test_summary_required(self):
        with pytest.raises(ValueError, match="no summary"):
            parse_census_jsonl('{"n": 2, "table": [[0, 1], [1, 0]]}\n')

    @pytest.mark.parametrize(
        "text, message",
        [
            ("5\n", "must be a JSON object"),
            ('{"table": 5}\n', "'table' must be a list of rows"),
            ('{"table": [[0]]}\n{"summary": {"n": 1}}\n', "integers 'n' and 'count'"),
            # true == 1, so a check by value alone lets booleans pass
            ('{"table": [[0]]}\n{"summary": {"n": true, "count": 1}}\n', "integers 'n' and 'count'"),
            ('{"table": [[0]]}\n{"summary": {"n": 1, "count": true}}\n', "integers 'n' and 'count'"),
            ('{"table": [[0]]}\n{"summary": {"n": 1.0, "count": 1}}\n', "integers 'n' and 'count'"),
            (
                '{"table": [[0, 1, 2], [0, 1, 2], [0, 1, 2]]}\n{"table": [[0, 1], [0, 1]]}\n'
                '{"summary": {"n": 5, "count": 2}}\n',
                "the summary says n = 5",
            ),
        ],
    )
    def test_wrong_shape_is_a_value_error(self, text, message):
        # the CLI turns ValueError into exit 2, a KeyError or TypeError into
        # a traceback
        with pytest.raises(ValueError, match=message):
            parse_census_jsonl(text)


class TestMetaAndVerdicts:
    def test_make_meta(self):
        meta = make_meta(command="cycleset analyze", extra_key=7)
        assert meta["command"] == "cycleset analyze"
        assert meta["extra_key"] == 7
        assert "format_version" in meta

    def test_verdict_json_line(self, size2_indec):
        from cycleset import run_checker

        line = verdict_json(run_checker("pair_map_bijective", [size2_indec]))
        obj = json.loads(line)
        assert obj["checker"] == "pair_map_bijective"
        assert obj["passed"] is True
