import contextlib
import csv
import io
import json
import sys
from math import factorial

import pytest

from popkit import (
    avoidance_sequence,
    gf_coefficients,
    n_class1_closed_form,
    n_class1_gf,
    n_class2_binomial_sum,
    n_class2_gf,
    pop_from_text,
)
from popkit.cli import run_cli


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def int_str_digits(limit):
    """Set the interpreter's int-to-str digit limit (0 for none) inside
    the block only; interpreters older than the limit have none to set."""
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


class TestCount:
    def test_path_pattern_count(self, capsys):
        code, out, _ = run(capsys, "count", "--pattern", "n:2134", "--n", "5")
        assert code == 0
        assert out.strip() == "59"

    def test_quasi_count(self, capsys):
        code, out, _ = run(
            capsys, "count", "--pattern", "cb:4:{1,2}", "--n", "6", "--quasi"
        )
        assert code == 0
        assert out.strip() == "176"  # 6*68 - 232

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--pattern", "chain:123", "--n", "5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == "42"
        assert payload["pattern"] == "chain:123"

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--pattern", "chain:123", "--n", "4", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["pattern", "n", "quasi", "count"]
        assert rows[1][3] == "14"

    def test_pattern_far_longer_than_n(self, capsys):
        # Every 3-permutation avoids a pattern with more labels than 3.
        code, out, _ = run(
            capsys, "count", "--pattern", "rel:99999999999999999999:{}", "--n", "3"
        )
        assert code == 0
        assert out == "6\n"

    def test_count_past_the_int_str_digit_limit(self, capsys):
        # 399! has 867 digits, past the least limit an interpreter takes
        with int_str_digits(640):
            code, out, err = run(
                capsys,
                "count", "--pattern", "rel:400:{}", "--n", "399", "--cap", "400",
            )
        assert (code, err) == (0, "")
        with int_str_digits(0):
            assert out == f"{factorial(399)}\n"


class TestSeq:
    def test_brute_force_sequence(self, capsys):
        code, out, _ = run(
            capsys,
            "seq", "--pattern", "cb:4:{1,2}", "--nmax", "7", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "value"]
        assert [r[1] for r in rows[1:]] == [
            "1", "1", "2", "6", "20", "68", "232", "792",
        ]

    def test_theorem_sequence_json(self, capsys):
        code, out, _ = run(
            capsys,
            "seq", "--theorem", "b2", "--k", "4", "--nmax", "7",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["values"] == [
            "1", "1", "2", "6", "20", "68", "232", "792",
        ]

    def test_pattern_and_theorem_conflict(self, capsys):
        code, _, err = run(
            capsys,
            "seq", "--pattern", "chain:12", "--theorem", "b1", "--nmax", "5",
        )
        assert code == 2
        assert "exactly one" in err

    def test_neither_pattern_nor_theorem(self, capsys):
        code, _, _ = run(capsys, "seq", "--nmax", "5")
        assert code == 2

    def test_k_with_pattern_rejected(self, capsys):
        code, _, _ = run(
            capsys, "seq", "--pattern", "chain:12", "--k", "3", "--nmax", "5"
        )
        assert code == 2

    def test_value_past_the_int_str_digit_limit(self, capsys):
        code, out, _ = run(
            capsys,
            "seq", "--theorem", "B1", "--k", "40", "--nmax", "3000",
            "--format", "csv",
        )
        assert code == 0
        last = factorial(39) * 39 ** (3000 - 39)  # (k-1)! (k-1)^(n-k+1)
        with int_str_digits(0):  # lift the limit only to print it
            want = str(last)
        assert len(want) > 4300
        assert out.endswith(f"\r\n3000,{want}\r\n")

    @pytest.mark.parametrize(
        "theorem, gf, oracle",
        [
            ("N-class1", n_class1_gf, n_class1_closed_form),
            ("N-class2", n_class2_gf, n_class2_binomial_sum),
        ],
        ids=["N-class1", "N-class2"],
    )
    def test_path_class_through_2000(self, capsys, theorem, gf, oracle):
        code, out, _ = run(
            capsys,
            "seq", "--theorem", theorem, "--nmax", "2000", "--format", "json",
        )
        assert code == 0
        values = [int(v) for v in json.loads(out)["values"]]
        assert values == list(gf_coefficients(gf(), 2000).values)
        assert values[-1] == oracle(2000)


class TestSeries:
    def test_two_chain_series(self, capsys):
        code, out, _ = run(capsys, "series", "--dc", "[12|34]", "--order", "7")
        assert code == 0
        values = [line.split()[1] for line in out.strip().splitlines()]
        assert values == ["1", "1", "2", "6", "18", "50", "130", "322"]

    def test_kind_prefix_accepted(self, capsys):
        code, out, _ = run(
            capsys,
            "series", "--dc", "dc:[123|21]", "--order", "7", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["values"][-1] == "2597"

    def test_non_dc_pattern_rejected(self, capsys):
        code, _, _ = run(capsys, "series", "--dc", "chain:123")
        assert code == 2

    # One-letter chains take the constant series; chains of length 4 or
    # more fall back to search.
    @pytest.mark.parametrize("words", ["[1|32]", "[4321|5]", "[2413|5]", "[12|3456]"])
    def test_series_equals_search(self, capsys, words):
        code, out, _ = run(
            capsys, "series", "--dc", words, "--order", "8", "--format", "json"
        )
        assert code == 0
        expected = avoidance_sequence(pop_from_text("dc:" + words), 8).values
        assert json.loads(out)["values"] == [str(v) for v in expected]

    def test_long_chain_at_default_order_hits_cap(self, capsys):
        code, out, err = run(capsys, "series", "--dc", "[1234|5]")
        assert code == 3
        assert out == ""
        assert err == (
            "popkit: length 15 exceeds cap 12; "
            "raise the cap explicitly if this is intended\n"
        )


class TestClassify:
    def test_path_patterns_table(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--family", "npatterns", "--nmax", "8"
        )
        assert code == 0
        assert "3 classes" in out
        assert "not proof" in out

    def test_cb_family_json(self, capsys):
        code, out, _ = run(
            capsys,
            "classify", "--family", "cb:5:2", "--nmax", "7",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["classes"]) == 2
        sizes = sorted(c["size"] for c in payload["classes"])
        assert sizes == [2, 8]

    def test_unknown_family(self, capsys):
        code, _, _ = run(capsys, "classify", "--family", "everything")
        assert code == 2

    def test_non_integer_family_parameter(self, capsys):
        code, out, err = run(capsys, "classify", "--family", "cb:x:2")
        assert code == 2
        assert out == ""
        assert "bad family 'cb:x:2'" in err

    def test_negative_subset_size(self, capsys):
        code, out, err = run(capsys, "classify", "--family", "cb:3:-1")
        assert code == 2
        assert out == ""
        assert err == "popkit: negative upper set size: -1\n"

    def test_prefix_past_the_int_str_digit_limit(self, capsys):
        # a pattern of 331 labels: a(330) = 330!, 684 digits
        with int_str_digits(640):
            code, out, err = run(
                capsys,
                "classify", "--family", "cb:331:330", "--nmax", "330",
                "--cap", "400", "--format", "json",
            )
        assert (code, err) == (0, "")
        [cls] = json.loads(out)["classes"]
        assert cls["size"] == 331
        with int_str_digits(0):
            assert cls["prefix"] == [str(factorial(n)) for n in range(331)]


class TestVerify:
    def test_matching_theorem_exits_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--theorem", "n-class3", "--pattern", "n:3142",
            "--nmax", "8",
        )
        assert code == 0
        assert "match through n=8" in out

    def test_mismatch_exits_one(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--theorem", "b1", "--k", "3",
            "--pattern", "cb:4:{1}", "--nmax", "6",
        )
        assert code == 1
        assert "MISMATCH at n=3" in out

    def test_both_sequences_printed_on_mismatch(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--theorem", "b1", "--k", "3",
            "--pattern", "cb:4:{1}", "--nmax", "6",
        )
        assert code == 1
        assert "theorem" in out and "brute force" in out

    def test_match_past_the_int_str_digit_limit(self, capsys):
        # below n = k both sides are n!, and 399! has 867 digits
        with int_str_digits(640):
            code, out, err = run(
                capsys,
                "verify", "--theorem", "B1", "--k", "400",
                "--pattern", "cb:400:{1}", "--nmax", "399", "--cap", "400",
            )
        assert (code, err) == (0, "")
        with int_str_digits(0):
            values = ",".join(str(factorial(n)) for n in range(400))
        theorem, brute, verdict = out.splitlines()
        assert theorem.endswith(": " + values)
        assert brute == "brute force cb:400:{1}: " + values
        assert verdict == "match through n=399"


class TestParse:
    def test_canonicalizes(self, capsys):
        code, out, _ = run(capsys, "parse", "--pattern", "cb:5:{2,1}")
        assert code == 0
        assert "canonical: cb:5:{1,2}" in out
        assert "rel:5:" in out

    def test_bad_word_is_usage_error(self, capsys):
        code, _, err = run(capsys, "parse", "--pattern", "n:3125")
        assert code == 2
        assert "not a permutation" in err

    def test_syntax_error_reports_offset(self, capsys):
        code, _, err = run(capsys, "parse", "--pattern", "cb:4:{1,2")
        assert code == 2
        assert "offset 9" in err

    def test_huge_size_parses(self, capsys):
        code, out, _ = run(capsys, "parse", "--pattern", "rel:99999999999999999999:{}")
        assert code == 0
        assert out == (
            "canonical: rel:99999999999999999999:{}\n"
            "poset: rel:99999999999999999999:{}\n"
        )

    def test_json_relations(self, capsys):
        code, out, _ = run(
            capsys, "parse", "--pattern", "n:2134", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["relations"] == [[2, 1], [3, 1], [3, 4]]


class TestCapsAndErrors:
    def test_cap_exceeded_exits_three(self, capsys):
        code, _, err = run(capsys, "count", "--pattern", "chain:12", "--n", "13")
        assert code == 3
        assert "cap" in err

    def test_cap_flag_raises_limit(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--pattern", "chain:12", "--n", "13", "--cap", "13",
        )
        assert code == 0
        assert out.strip() == "1"

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("POPKIT_CAP", "13")
        code, out, _ = run(capsys, "count", "--pattern", "chain:12", "--n", "13")
        assert code == 0
        assert out.strip() == "1"

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("POPKIT_CAP", "5")
        code, out, _ = run(
            capsys,
            "count", "--pattern", "chain:12", "--n", "8", "--cap", "8",
        )
        assert code == 0

    def test_bad_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("POPKIT_CAP", "many")
        code, _, err = run(capsys, "count", "--pattern", "chain:12", "--n", "3")
        assert code == 2
        assert "POPKIT_CAP" in err

    @pytest.mark.parametrize(
        "argv", [["count", "--n", "3"], ["parse"], ["seq", "--nmax", "3"]]
    )
    @pytest.mark.parametrize(
        "pattern", ["rel:\u00b2:{}", "cb:\u00b2:{1}", "chain:1\u00b23", "chain:(\u00b2)"]
    )
    def test_non_ascii_digit_is_usage_error(self, capsys, argv, pattern):
        # "\u00b2".isdigit() is true, but int() refuses it
        code, out, err = run(capsys, argv[0], "--pattern", pattern, *argv[1:])
        assert (code, out) == (2, "")
        assert "offset" in err

    @pytest.mark.parametrize(
        "argv", [["count", "--n", "3"], ["parse"], ["seq", "--nmax", "3"]]
    )
    def test_number_past_the_int_str_digit_limit_is_usage_error(self, capsys, argv):
        pattern = "rel:" + "9" * 5000 + ":{}"
        with int_str_digits(4300):
            code, out, err = run(capsys, argv[0], "--pattern", pattern, *argv[1:])
        assert (code, out) == (2, "")
        assert err == "popkit: number too long (5000 digits) at offset 4\n"

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "count", "--n", "5")
        assert code == 2


class TestNegativeLengths:
    @pytest.mark.parametrize(
        "theorem, params",
        [
            ("B1", ["--k", "4"]),
            ("B2", ["--k", "4"]),
            ("CB-adjacent", ["--k", "5"]),
            ("CB-interval", ["--k", "5", "--j", "2"]),
            ("CB-gap2", ["--k", "5"]),
            ("CB-14-235", []),
            ("N-class1", []),
            ("N-class2", []),
            ("N-class3", []),
            ("DC-p1", []),
            ("DC-p2-fibonacci", []),
        ],
    )
    def test_theorem_nmax(self, capsys, theorem, params):
        code, out, err = run(
            capsys, "seq", "--theorem", theorem, *params, "--nmax", "-2"
        )
        assert code == 2
        assert out == ""
        assert "negative length" in err

    @pytest.mark.parametrize("words", ["[1|2]", "[12|34]", "[123|4]", "[1234]"])
    def test_series_order(self, capsys, words):
        code, out, err = run(capsys, "series", "--dc", words, "--order", "-1")
        assert code == 2
        assert out == ""
        assert "negative length" in err


class TestOutFile:
    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.txt"
        code, out, _ = run(
            capsys,
            "count", "--pattern", "n:2134", "--n", "5", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().strip() == "59"

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_unwritable_path_exits_two(self, capsys, tmp_path, fmt):
        missing = tmp_path / "no-such-dir" / "out.txt"
        code, out, err = run(
            capsys,
            "seq", "--theorem", "b1", "--k", "3", "--nmax", "4",
            "--format", fmt, "--out", str(missing),
        )
        assert code == 2
        assert out == ""
        assert err == f"popkit: cannot write {missing}: No such file or directory\n"
        assert not missing.parent.exists()

    def test_directory_as_out_exits_two(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "verify", "--theorem", "b1", "--k", "3",
            "--pattern", "cb:4:{1}", "--nmax", "4", "--out", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert err == f"popkit: cannot write {tmp_path}: Is a directory\n"
