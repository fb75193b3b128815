import argparse
import contextlib
import csv
import functools
import io
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import reference_profile
from congspeed import arith, classes, cli, decadic, primes, speed, verify


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture(autouse=True)
def fresh_verdicts():
    """No test inherits a cached record's verdict or parsed line from another test."""
    cli._verified.cache_clear()
    cli._cached_record.cache_clear()


class TestBareValues:
    def test_min_base(self, capsys):
        assert run(capsys, "min-base", "4") == (0, "15\n")
        assert run(capsys, "min-base", "0") == (0, "1\n")

    def test_min_base_class(self, capsys):
        assert run(capsys, "min-base", "9", "--class", "2") == (0, "280182\n")

    def test_root_padded(self, capsys):
        assert run(capsys, "root", "9", "--digits", "3") == (0, "807\n")
        # leading zero must be preserved
        assert run(capsys, "root", "10", "--digits", "3") == (0, "057\n")

    def test_speed(self, capsys):
        assert run(capsys, "speed", "807") == (0, "3\n")

    def test_speed_at_height(self, capsys):
        assert run(capsys, "speed", "2", "--height", "3") == (0, "1\n")

    def test_tall_height_sizes_its_own_precision(self, capsys):
        nus = reference_profile.frozen_counts(65535, 9)
        assert run(capsys, "speed", "65535", "--height", "9") == (0, f"{nus[8] - nus[7]}\n")

    def test_q(self, capsys):
        assert run(capsys, "q", "6") == (0, "2218751\n")


class TestJson:
    def test_speed_json_roundtrip(self, capsys):
        code, out = run(capsys, "--output", "json", "speed", "807")
        assert code == 0
        obj = json.loads(out)
        assert obj["a"] == "807"
        assert obj["V"] == 3
        assert [2, 4] in obj["heights"]
        # byte-identical re-serialization
        assert json.dumps(obj) + "\n" == out

    @pytest.mark.parametrize(
        "a,speeds",
        [
            ("807", [0, 4, 4, 4, 4, 3]),
            ("12345678901234567891", [2] + [1] * 22),
            # 70 digits: the floor caps at height 61 + 3
            ("1234567895" * 7, [1, 6] + [3] * 62),
        ],
    )
    def test_speed_json_heights(self, capsys, a, speeds):
        code, out = run(capsys, "--output", "json", "speed", a)
        assert code == 0
        assert json.loads(out)["heights"] == [[b, v] for b, v in enumerate(speeds, 1)]
        assert len(speeds) == speed.stabilization_floor(int(a))

    def test_profile_json(self, capsys):
        code, out = run(capsys, "--output", "json", "profile", "2", "--max-height", "5")
        obj = json.loads(out)
        assert code == 0
        assert obj["a"] == "2"
        assert [e[2] for e in obj["entries"]] == [0, 0, 1, 1, 1]
        assert obj["V"] == 1
        assert json.dumps(obj) + "\n" == out

    def test_q_json_record(self, capsys):
        code, out = run(capsys, "--output", "json", "q", "3")
        obj = json.loads(out)
        assert obj == {
            "n": 3,
            "q": "193",
            "method": "deterministic-small",
            "oracle_checked": True,
        }
        assert list(obj.keys()) == ["n", "q", "method", "oracle_checked"]

    def test_verify_json(self, capsys):
        code, out = run(capsys, "--output", "json", "verify", "--sweep", "120")
        assert code == 0
        obj = json.loads(out)
        assert obj["mismatches"] == []
        assert obj["fixture_ok"] is True


class TestTables:
    def test_table1_text(self, capsys):
        code, out = run(capsys, "table1", "--max", "4")
        assert code == 0
        assert out.splitlines() == ["1 - 2", "2 5 7", "3 25 57", "4 15 182"]

    def test_table2_text(self, capsys):
        code, out = run(capsys, "table2", "--max", "4")
        assert code == 0
        assert out.splitlines() == ["1 2", "2 5", "3 193", "4 1249"]

    def test_table2_extra_only(self, capsys):
        assert run(capsys, "table2", "--max", "0", "--extra", "3") == (0, "3 193\n")

    def test_table2_no_indices_is_2(self, capsys):
        assert cli.main(["table2", "--max", "0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_table2_csv(self, capsys):
        code, out = run(capsys, "--output", "csv", "table2", "--max", "3")
        lines = out.splitlines()
        assert lines[0] == "n,q,method,oracle_checked,non_monotonic"
        assert lines[1] == "1,2,deterministic-small,True,False"

    def test_class_members(self, capsys):
        code, out = run(capsys, "class", "2", "4", "--count", "5")
        assert code == 0
        assert out.splitlines() == ["182", "1432", "2682", "3932", "6432"]

    @pytest.mark.parametrize("s1,want", [("1", "11 21 31 41 61 71"), ("2", "2 12 22 42 52 62"),
                                         ("9", "9 19 29 39 59 69")])
    def test_class_speed_one(self, capsys, s1, want):
        # Speed 1 is a residue test mod 25; no base ending in 5 has it
        # (TestClassEdges::test_class_empty_is_2_with_the_min_base_line).
        code, out = run(capsys, "class", s1, "1", "--count", "6")
        assert (code, out.split()) == (0, want.split())
        assert all(speed.constant_speed(int(a)) == 1 for a in out.split())


def usage_error(capsys, *argv):
    """Exit code and stderr `error:` lines of an argv that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    err = capsys.readouterr().err.splitlines()
    return exc.value.code, [line for line in err if "error:" in line]


class TestCounts:
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_class_count(self, capsys, value):
        # members() is infinite: a count below 1 used to loop forever
        code, err = usage_error(capsys, "class", "2", "4", "--count", value)
        assert code == 2 and len(err) == 1 and "--count" in err[0]

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_table1_max(self, capsys, value):
        code, err = usage_error(capsys, "table1", "--max", value)
        assert code == 2 and len(err) == 1 and "--max" in err[0]

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_oeis_terms(self, capsys, value):
        code, err = usage_error(capsys, "oeis", "--min-bases", "--terms", value)
        assert code == 2 and len(err) == 1 and "--terms" in err[0]

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_class_speed(self, capsys, value):
        code, err = usage_error(capsys, "class", "2", value, "--count", "3")
        assert code == 2 and len(err) == 1 and "argument n:" in err[0]

    @pytest.mark.parametrize("command", [["q", "6"], ["table2", "--max", "3"]])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_budget(self, capsys, command, value):
        code, err = usage_error(capsys, *command, "--budget", value)
        assert code == 2 and len(err) == 1 and "--budget" in err[0]

    @pytest.mark.parametrize("command", [["speed", "7", "--height", "3"],
                                         ["profile", "2", "--max-height", "5"],
                                         ["verify", "--sweep", "20"]])
    @pytest.mark.parametrize("value", ["0", "8", "-1"])
    def test_digits(self, capsys, command, value):
        # the oracle sizes its own precision; only `root --digits` remains
        assert usage_error(capsys, *command, "--digits", value) == (
            2, [f"congspeed: error: unrecognized arguments: --digits {value}"])

    @pytest.mark.parametrize("value", ["5,x", "0", "5,0", "3,,4"])
    def test_table2_extra(self, capsys, value):
        code, err = usage_error(capsys, "table2", "--max", "3", "--extra", value)
        assert code == 2 and len(err) == 1 and "argument --extra:" in err[0]

    def test_non_integer_message_kept(self, capsys):
        code, err = usage_error(capsys, "class", "2", "4", "--count", "x")
        assert code == 2 and err[0].endswith("argument --count: invalid int value: 'x'")

    @pytest.mark.parametrize("argv,line", [
        (["q", "0"], "congspeed q: error: argument n: must be at least 1, got 0"),
        (["min-base", "-1"], "congspeed min-base: error: argument n: must be at least 0, got -1"),
        (["min-base", "3", "--class", "0"], "congspeed min-base: error: argument --class: "
         "invalid choice: 0 (choose from 1, 2, 3, 4, 5, 6, 7, 8, 9)"),
        (["min-base", "3", "--class", "10"], "congspeed min-base: error: argument --class: "
         "invalid choice: 10 (choose from 1, 2, 3, 4, 5, 6, 7, 8, 9)"),
        (["root", "0", "--digits", "3"], "congspeed root: error: argument i: "
         "invalid choice: 0 (choose from 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)"),
        (["root", "14", "--digits", "3"], "congspeed root: error: argument i: "
         "invalid choice: 14 (choose from 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)"),
        (["root", "3", "--digits", "0"],
         "congspeed root: error: argument --digits: must be at least 1, got 0"),
        (["speed", "7", "--height", "0"],
         "congspeed speed: error: argument --height: must be at least 1, got 0"),
        (["profile", "2", "--max-height", "0"],
         "congspeed profile: error: argument --max-height: must be at least 1, got 0"),
        (["table2", "--max", "-3"],
         "congspeed table2: error: argument --max: must be at least 0, got -3"),
        (["class", "0", "4", "--count", "3"], "congspeed class: error: argument s1: "
         "invalid choice: 0 (choose from 1, 2, 3, 4, 5, 6, 7, 8, 9)"),
        (["class", "10", "4", "--count", "3"], "congspeed class: error: argument s1: "
         "invalid choice: 10 (choose from 1, 2, 3, 4, 5, 6, 7, 8, 9)"),
        (["min-base", "0", "--class", "3"],
         "congspeed min-base: error: argument n: must be at least 1 with --class, got 0"),
    ])
    def test_range_names_argument(self, capsys, argv, line):
        assert usage_error(capsys, *argv) == (2, [line])


# One argv per command, with its CSV header; each is run in JSON and in CSV.
COMMANDS = {
    "speed": (["speed", "807"], "a,V"),
    "profile": (["profile", "2", "--max-height", "5"], "height,frozen,speed"),
    "min-base": (["min-base", "9", "--class", "2"], "n,s1,value"),
    "class": (["class", "2", "4", "--count", "3"], "member"),
    "root": (["root", "10", "--digits", "3"], "root,digits,value"),
    "q": (["q", "3"], "n,q,method,oracle_checked"),
    "table1": (["table1", "--max", "3"], "n,class5,others"),
    "table2": (["table2", "--max", "3"], "n,q,method,oracle_checked,non_monotonic"),
    "verify": (["verify", "--sweep", "20"], "a_min,a_max,precision,mismatches,fixture_ok"),
    "oeis": (["oeis", "--min-bases", "--terms", "3"], "n,a"),
}


class TestOutputFormats:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_json(self, capsys, command):
        code, out = run(capsys, "--output", "json", *COMMANDS[command][0])
        assert code == 0
        assert json.dumps(json.loads(out)) + "\n" == out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_csv(self, capsys, command):
        argv, header = COMMANDS[command]
        code, out = run(capsys, "--output", "csv", *argv)
        assert code == 0
        first, *rows = csv.reader(io.StringIO(out))
        assert first == header.split(",")
        assert rows and all(len(row) == len(first) for row in rows)

    def test_verify_csv(self, capsys):
        code, out = run(capsys, "--output", "csv", "verify", "--sweep", "20")
        assert list(csv.DictReader(io.StringIO(out))) == [
            {"a_min": "2", "a_max": "20", "precision": "40", "mismatches": "0",
             "fixture_ok": "True"}
        ]

    def test_oeis_json(self, capsys):
        code, out = run(capsys, "--output", "json", "oeis", "--min-bases", "--terms", "3")
        assert json.loads(out) == {"rows": [{"n": 0, "a": "1"}, {"n": 1, "a": "2"},
                                            {"n": 2, "a": "5"}]}


class TestOeis:
    def test_bfile(self, capsys):
        code, out = run(capsys, "oeis", "--min-bases", "--terms", "6")
        assert code == 0
        assert out.splitlines() == ["0 1", "1 2", "2 5", "3 25", "4 15", "5 95"]

    def test_sequence_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oeis", "--terms", "3"])
        assert exc.value.code == 2


RECORD_3 = '{{"n": 3, "q": "{q}", "method": "deterministic-small", "oracle_checked": true}}\n'


class TestCache:
    def test_cache_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "q.jsonl"
        code, out = run(capsys, "q", "5", "--cache", str(path))
        assert code == 0 and out == "22943\n"
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "n": 5,
            "q": "22943",
            "method": "deterministic-small",
            "oracle_checked": True,
        }
        # second run hits the cache (file unchanged) and verifies
        code, out = run(capsys, "q", "5", "--cache", str(path))
        assert code == 0 and out == "22943\n"
        assert path.read_text().splitlines() == lines

    def test_corrupt_cache_detected(self, capsys, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"n": 5, "q": "22945", "method": "deterministic-small", '
                        '"oracle_checked": true}\n')
        assert cli.main(["q", "5", "--cache", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "verification" in err[0]

    # Strong pseudoprimes to base 2.  2047 = 23 * 89 has V = 1, so trial
    # division and the speed check also reject it at n = 3.  90751 = 151 * 601
    # has V = 3 and no prime factor below 54: only the Lucas step rejects it.
    @pytest.mark.parametrize("q", [2047, 90751])
    def test_base2_pseudoprime_in_table2_cache_is_3(self, capsys, tmp_path, q):
        assert primes._miller_rabin_round(q)
        assert 90751 == 151 * 601 and classes.speed_by_formula(90751) == 3
        path = tmp_path / "q.jsonl"
        path.write_text(f'{{"n": 3, "q": "{q}", "method": "deterministic-small", '
                        '"oracle_checked": true}\n')
        assert cli.main(["table2", "--max", "3", "--cache", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: cache entry for n = 3 fails verification"]

    def test_torn_line_is_3(self, capsys, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"n": 3, "q": "193", "method": "deterministic-small", '
                        '"oracle_checked": true}\n{"n": 5, "q": "229')
        assert cli.main(["q", "3", "--cache", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"{path}:2:" in err[0]

    # One field off per line, as JSON text; the rest is the record for n = 3.
    @pytest.mark.parametrize("field,text", [
        ("n", "4.9"), ("n", "true"), ("n", '"3"'),
        ("q", "193.0"), ("q", '"0x1"'), ("q", '" 193"'), ("q", '"193.0"'), ("q", "null"),
        ("method", '"banana"'), ("method", '"probabilistic"'),
        ("oracle_checked", '"false"'), ("oracle_checked", "1"),
    ])
    def test_mistyped_field_is_3(self, capsys, tmp_path, field, text):
        record = {"n": "3", "q": '"193"', "method": '"deterministic-small"',
                  "oracle_checked": "true", field: text}
        path = tmp_path / "q.jsonl"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in record.items()) + "}\n")
        assert cli.main(["q", "3", "--cache", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {path}:1: unreadable cache line\n"

    def test_failing_record_is_3_on_every_call(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text(RECORD_3.format(q=90751))
        argv = ["q", "3", "--cache", str(path)]
        assert cli.main(argv) == 3
        tests = _counting(monkeypatch, primes, "is_prime")
        assert cli.main(argv) == 3  # the memoised False, not a fresh test
        assert tests == []
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: cache entry for n = 3 fails verification"] * 2

    def test_rewritten_record_is_verified_afresh(self, capsys, tmp_path):
        # The verdict is keyed on (n, q): a new q for the same n is tested again.
        path = tmp_path / "q.jsonl"
        path.write_text(RECORD_3.format(q=193))
        assert run(capsys, "q", "3", "--cache", str(path)) == (0, "193\n")
        path.write_text(RECORD_3.format(q=90751))
        assert cli.main(["q", "3", "--cache", str(path)]) == 3
        assert "fails verification" in capsys.readouterr().err

    def test_formula_mismatch_is_raised_on_every_call(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text(RECORD_3.format(q=193))
        monkeypatch.setattr(classes, "_formula_value", lambda a: 5)
        for _ in range(2):
            assert cli.main(["q", "3", "--cache", str(path)]) == 3
            assert capsys.readouterr().err.startswith("error: valuation formula gives V(193) = 5")

    def test_missing_directory_is_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "q.jsonl"
        assert cli.main(["q", "3", "--cache", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot use cache {path}: No such file or directory\n")

    def test_missing_directory_fails_before_the_search(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "missing" / "q.jsonl"
        searches = _counting(monkeypatch, primes, "smallest_prime_with_speed")
        assert cli.main(["q", "400", "--cache", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert searches == []

    def test_cache_is_opened_for_append_once_per_miss(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text(RECORD_3.format(q=193))
        opens = _counting(monkeypatch, cli, "_cache_file")
        assert run(capsys, "q", "3", "--cache", str(path)) == (0, "193\n")
        assert [mode for _, mode in opens] == ["rb"]  # served: never opened to write
        opens.clear()
        assert cli.main(["table2", "--max", "5", "--cache", str(path)]) == 0
        assert [mode for _, mode in opens] == ["rb"] + ["ab"] * 4  # misses 1, 2, 4, 5
        assert [json.loads(line)["n"] for line in path.read_text().splitlines()] == [3, 1, 2, 4, 5]

    def test_directory_is_2(self, capsys, tmp_path):
        assert cli.main(["q", "3", "--cache", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: cannot use cache {tmp_path}: Is a directory\n"

    def test_undecodable_line_is_3(self, capsys, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_bytes(RECORD_3.format(q=193).encode() + b'{"n": 5, "q": "\xff"}\n')
        assert cli.main(["q", "3", "--cache", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {path}:2: unreadable cache line\n"

    def test_integer_q_is_served(self, capsys, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"n": 3, "q": 193, "method": "deterministic-small", '
                        '"oracle_checked": false}\n')
        code, out = run(capsys, "--output", "json", "q", "3", "--cache", str(path))
        assert code == 0 and json.loads(out) == {
            "n": 3, "q": "193", "method": "deterministic-small", "oracle_checked": False}


# Lines appended between two `table2` calls in one process: the second call
# reads them as the first call of a fresh process would.
class TestCacheAppendedBetweenCalls:
    @pytest.mark.parametrize("tail", [b'{"n": 4, "q": "12', b'{"n": 4, "q": "\xff"}\n'],
                             ids=["torn", "not-utf8"])
    def test_bad_line_is_3_on_every_call(self, capsys, tmp_path, tail):
        path = tmp_path / "q.jsonl"
        argv = ["table2", "--max", "3", "--cache", str(path)]
        assert run(capsys, *argv) == (0, "1 2\n2 5\n3 193\n")
        with open(path, "ab") as fh:
            fh.write(tail)
        for _ in range(2):  # a failing line is not memoised
            assert cli.main(argv) == 3
            assert capsys.readouterr().err == f"error: {path}:4: unreadable cache line\n"

    def test_valid_record_is_served(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "q.jsonl"
        assert run(capsys, "table2", "--max", "3", "--cache", str(path))[0] == 0
        with open(path, "a") as fh:
            fh.write('{"n": 4, "q": "1249", "method": "deterministic-small", '
                     '"oracle_checked": true}\n')
        searches = _counting(monkeypatch, primes, "smallest_prime_with_speed")
        code, out = run(capsys, "table2", "--max", "4", "--cache", str(path))
        assert (code, out, searches) == (0, "1 2\n2 5\n3 193\n4 1249\n", [])

    def test_crlf_and_whitespace_lines_load(self, capsys, tmp_path):
        # str.strip() takes CR, tabs, U+0085, U+00A0, U+2028 and U+001C alike.
        blanks = ["\r\n", " \t\r\n", "\x85\xa0\u2028\x1c\n"]
        body = "".join(RECORD_3.format(q=193).replace("\n", "\r\n") + b for b in blanks)
        path = tmp_path / "q.jsonl"
        path.write_bytes(body.encode())
        for _ in range(2):
            assert run(capsys, "q", "3", "--cache", str(path)) == (0, "193\n")
        assert path.read_bytes() == body.encode()  # served: nothing appended


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["min-base"])
        assert exc.value.code == 2

    def test_unknown_command_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_budget_error_is_1(self, capsys):
        assert cli.main(["q", "6", "--budget", "1"]) == 1
        err = capsys.readouterr().err
        # 77057 is the one candidate examined: resuming above it skips nothing.
        assert err == "error: budget exhausted after 1 candidates for speed 6; resume above 77057\n"

    def test_fixture_mismatch_is_3(self, capsys, monkeypatch):
        from congspeed import verify

        monkeypatch.setattr(verify, "PHASE_SHIFT_SPEEDS", (9, 9, 9, 9, 9, 9))
        assert cli.main(["verify", "--sweep", "50"]) == 3

    @pytest.mark.parametrize("top,message", [
        ("1", "congspeed verify: error: argument --sweep: must be at least 2, got 1"),
        ("2000000", "sweep is a desk-scale tool; a_max is capped at 10^6"),
    ])
    def test_bad_sweep_skips_fixture(self, capsys, monkeypatch, top, message):
        from congspeed import verify

        def fixture():
            pytest.fail("phase-shift fixture ran before the sweep range was checked")

        monkeypatch.setattr(verify, "phase_shift_fixture", fixture)
        if message.startswith("congspeed"):  # argparse rejects it and names the argument
            assert usage_error(capsys, "verify", "--sweep", top) == (2, [message])
        else:  # the cap is verify.sweep's own
            assert cli.main(["verify", "--sweep", top]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_base_is_2(self, capsys):
        assert cli.main(["speed", "40"]) == 2

    @pytest.mark.parametrize("a", ["0", "-7"])
    def test_nonpositive_base_names_the_base(self, capsys, a):
        assert cli.main(["speed", a]) == 2
        err = capsys.readouterr().err
        assert err == f"error: undefined congruence speed for a = {a}\n"

    def test_formula_mismatch_is_3(self, capsys, monkeypatch):
        monkeypatch.setattr(classes, "_formula_value", lambda a: 5)
        assert cli.main(["q", "3"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_unsettled_speed_is_1(self, capsys, monkeypatch):
        # Towers that agree in every digit leave the certificate unreadable.
        monkeypatch.setattr(arith, "tower_residues", lambda a, b_max, digits: [0] * b_max)
        assert cli.main(["speed", "7"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot certify the speed of 7")

    def test_profile_off_the_certified_lines_is_3(self, capsys, monkeypatch):
        monkeypatch.setattr(speed, "_frozen_table", lambda a, b_max, digits: [0] * b_max)
        assert cli.main(["speed", "807"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: frozen digits")

    @pytest.mark.parametrize(
        "a,t2,t5",
        [
            ("807", [4, 7, 10, 14], [0, 4, 8, 12]),  # t2 bends at height 3
            ("807", [0, 1, 2, 3], [0, 4, 8, 12]),  # t2(2) < 2 leaves t5 unproven
            ("2", [1, 2, 3, 16], [0, 0, 1, 2]),  # the 2-side of 2 grows less than 2-fold
            ("2", [1, 2, 4, 8], [0, 0, 9, 18]),  # it grows, but below the 5-side
        ],
    )
    def test_broken_certificate_is_3(self, capsys, monkeypatch, a, t2, t5):
        monkeypatch.setattr(speed, "_side_reads", lambda a, b_max, digits: (t2, t5))
        assert cli.main(["speed", a]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "fail the certificate" in err[0]


class TestClassEdges:
    def test_min_base_speed_one(self, capsys):
        assert run(capsys, "min-base", "1", "--class", "3") == (0, "3\n")

    def test_min_base_empty_class_is_2(self, capsys):
        assert cli.main(["min-base", "1", "--class", "5"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_class_empty_is_2_with_the_min_base_line(self, capsys):
        # class 5 has no speed-1 member; before, `class` printed an empty list
        line = "error: no base with last digit 5 has speed 1\n"
        assert cli.main(["min-base", "1", "--class", "5"]) == 2
        assert capsys.readouterr().err == line
        for fmt in ("text", "json", "csv"):
            assert cli.main(["--output", fmt, "class", "5", "1", "--count", "3"]) == 2
            assert capsys.readouterr() == ("", line)

    def test_root_above_str_limit(self, capsys):
        code, out = run(capsys, "root", "1", "--digits", "5000")
        text = out.rstrip("\n")
        assert code == 0 and len(text) == 5000
        assert_decimal(text, decadic.root_residue(1, 5000).value)


def assert_decimal(text, value):
    """text writes value >= 0 in decimal, checked digit by digit (no int-str conversion)."""
    assert text[:1] != "0" or text == "0" * len(text)
    for c in reversed(text):
        value, digit = divmod(value, 10)
        assert int(c) == digit
    assert value == 0


class TestPastTheStrLimit:
    """CPython converts at most 4,300 digits between int and str in one step; the
    CLI reads bases and prints integers of any length, with no process-wide setting."""

    def test_printed_integers(self, capsys):
        code, out = run(capsys, "min-base", "15000")
        assert code == 0 and len(out) > 4301
        assert_decimal(out.rstrip("\n"), classes.min_base(15000))
        members = list(itertools.islice(classes.class_spec(1, 4400).members(), 2))
        code, out = run(capsys, "--output", "json", "class", "1", "4400", "--count", "2")
        assert code == 0 and len(out) > 8600
        for text, value in zip(json.loads(out)["members"], members, strict=True):
            assert_decimal(text, value)
        code, out = run(capsys, "--output", "csv", "class", "1", "4400", "--count", "2")
        for text, value in zip(out.splitlines()[1:], members, strict=True):
            assert_decimal(text, value)

    def test_base_arguments(self, capsys):
        text = "7" * 5000
        a = 7 * (10**5000 - 1) // 9
        v = speed.speed_at_height(a, 2)
        code, out = run(capsys, "--output", "json", "speed", text, "--height", "2")
        assert code == 0 and json.loads(out) == {"a": text, "V": v, "heights": [[2, v]]}
        nu = speed.speed_profile(a, 2).frozen_counts[1]
        code, out = run(capsys, "--output", "csv", "profile", "+" + text, "--max-height", "2")
        assert code == 0 and out.splitlines()[2] == f"2,{nu},{v}"
        assert cli.main(["speed", text + "0"]) == 2
        assert capsys.readouterr().err == f"error: undefined congruence speed for a = {text}0\n"
        assert cli.main(["speed", "-" + text]) == 2
        assert capsys.readouterr().err == f"error: undefined congruence speed for a = -{text}\n"
        assert usage_error(capsys, "speed", text + "x")[1][0].endswith(
            f"argument a: invalid decimal value: '{text}x'")

    def test_budget_error_names_the_whole_candidate(self, capsys):
        first = next(primes.speed_candidates(4400))  # 4,400 digits
        assert cli.main(["q", "4400", "--budget", "1"]) == 1
        head = "error: budget exhausted after 1 candidates for speed 4400; resume above "
        err = capsys.readouterr().err
        assert err.startswith(head) and err.count("\n") == 1 and err.endswith("\n")
        assert_decimal(err[len(head):-1], first)

    def test_cache_reads_back_what_it_writes(self, capsys, tmp_path):
        q = 10**4400 + 1  # 4,401 digits, never verified: only n = 3 is asked for
        path = tmp_path / "q.jsonl"
        with open(path, "wb") as fh:
            cli._append_cache(fh, primes.PrimeSpeedRecord(4400, q, "probabilistic", False))
            fh.write(RECORD_3.format(q=193).encode())
            # q as a JSON integer, which a cache line may also hold
            fh.write(f'{{"n": 4401, "q": 1{"0" * 4399}1, "method": "probabilistic", '
                     '"oracle_checked": false}\n'.encode())
        assert run(capsys, "q", "3", "--cache", str(path)) == (0, "193\n")
        cache = cli._load_cache(str(path))
        assert cache[4400].q == cache[4401].q == q


class TestParserReuse:
    """`main` reuses one parser for every call; no call may see another's state."""

    def test_fifty_calls_build_one_parser(self, capsys, monkeypatch):
        cli.build_parser.cache_clear()  # so the first call below builds it
        built = _counting(monkeypatch, argparse.ArgumentParser, "__init__")
        argvs = [["min-base", "4"], ["root", "9", "--digits", "3"], ["speed", "807"],
                 ["--output", "json", "table1", "--max", "3"], ["speed", "2", "--height", "3"]]
        assert run(capsys, *argvs[0]) == (0, "15\n")
        first = len(built)
        assert first >= 1
        for argv in itertools.islice(itertools.cycle(argvs), 1, 50):
            assert run(capsys, *argv)[0] == 0
        assert len(built) == first

    def test_output_format_does_not_carry_over(self, capsys):
        assert json.loads(run(capsys, "--output", "json", "speed", "807")[1])["V"] == 3
        assert run(capsys, "speed", "807") == (0, "3\n")
        assert run(capsys, "--output", "csv", "table1", "--max", "2")[1].startswith("n,")
        assert run(capsys, "table1", "--max", "2") == (0, "1 - 2\n2 5 7\n")

    def test_valid_call_after_usage_error(self, capsys):
        assert usage_error(capsys, "--output", "csv", "speed", "x")[0] == 2
        assert run(capsys, "speed", "807") == (0, "3\n")
        assert usage_error(capsys, "profile", "2", "--max-height", "0")[0] == 2
        code, out = run(capsys, "--output", "json", "profile", "2", "--max-height", "5")
        # nu(1..5) = 0, 0, 1, 2, 3, read off one table of nu(5) + 1 digits
        assert code == 0 and json.loads(out)["precision"] == 4


def _counting(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestWorkCounts:
    def test_speed_builds_at_most_two_tables(self, capsys, monkeypatch):
        calls = _counting(monkeypatch, arith, "tower_residues")
        assert run(capsys, "speed", "163574218751") == (0, "13\n")
        assert len(calls) <= 2

    def test_long_coprime_speed_builds_two_narrow_tables(self, capsys, monkeypatch):
        # 70 digits: the certificate's table, sized by the LTE bound, then the
        # floor height 64 at the digits the certified lines predict
        calls = _counting(monkeypatch, arith, "tower_residues")
        assert run(capsys, "speed", "1234567891" * 7) == (0, "1\n")
        assert len(calls) <= 2
        assert max(digits for _, _, digits in calls) <= 128

    def test_phase_shift_fixture_builds_at_most_two_tables(self, monkeypatch):
        calls = _counting(monkeypatch, arith, "tower_residues")
        uncached = functools.lru_cache(maxsize=1)(verify._phase_shift_profile.__wrapped__)
        monkeypatch.setattr(verify, "_phase_shift_profile", uncached)
        assert verify.phase_shift_fixture().constant_speed == 4
        assert len(calls) <= 2
        assert max(b_max for _, b_max, _ in calls) <= 7

    @pytest.mark.parametrize("a,v", [(2, 1), (5, 2), (807, 3)])
    def test_short_bases_certify_from_one_table(self, monkeypatch, a, v):
        calls = _counting(monkeypatch, arith, "tower_residues")
        assert speed.constant_speed(a) == v
        assert len(calls) == 1

    def test_q150_oracle_check_builds_one_short_table(self, monkeypatch):
        q150 = primes.smallest_prime_with_speed(150).q
        calls = _counting(monkeypatch, arith, "tower_residues")
        assert speed.constant_speed(q150) == 150
        assert len(calls) == 1
        assert max(b_max for _, b_max, _ in calls) <= 5
        assert max(digits for _, _, digits in calls) <= 761  # 5 nu_2(q^4 - 1) + 1

    def test_constant_speed_builds_one_table(self, monkeypatch):
        # The LTE bound sizes the certificate's one table before it is built, so
        # no base reads a second one: not the seeded bases of 2-80 digits, not the
        # class members of speed up to 25, whose sides pass 64 digits, nor q_150.
        rng = random.Random(23)
        bases = [rng.randrange(2, 10 ** rng.randint(2, 80)) for _ in range(300)]
        bases += [next(classes.class_spec(s1, v).members())
                  for s1 in (1, 2, 3, 4, 5, 6, 7, 8, 9) for v in range(2, 26)]
        bases.append(primes.smallest_prime_with_speed(150).q)
        calls = _counting(monkeypatch, arith, "tower_residues")
        for a in bases:
            if a % 10:
                calls.clear()
                assert speed.constant_speed(a) == classes.speed_by_formula(a), a
                assert len(calls) == 1, a

    def test_q20_oracle_check_builds_at_most_two_tables(self, monkeypatch):
        calls = _counting(monkeypatch, arith, "tower_residues")
        assert speed.constant_speed(3640476581907922943) == 20
        assert len(calls) <= 2

    def test_table2_reads_cache_once(self, capsys, monkeypatch, tmp_path):
        calls = _counting(monkeypatch, cli, "_load_cache")
        path = str(tmp_path / "q.jsonl")
        argv = ["table2", "--max", "21", "--extra", "51,52,53,54", "--cache", path]
        code, cold = run(capsys, *argv)
        assert code == 0 and len(calls) == 1
        marked = [line.split()[0] for line in cold.splitlines() if line.endswith("*")]
        assert marked == ["20", "51", "54"]
        assert run(capsys, *argv) == (0, cold)
        assert len(calls) == 2

    def test_second_warm_table2_parses_no_cache_line(self, capsys, tmp_path):
        argv = ["table2", "--max", "21", "--extra", "51,52,53,54",
                "--cache", str(tmp_path / "q.jsonl")]
        code, cold = run(capsys, *argv)
        assert code == 0 and cli._cached_record.cache_info().misses == 0  # the file was empty
        assert run(capsys, *argv) == (0, cold)
        assert cli._cached_record.cache_info().misses == 26  # one per line, each parsed once
        assert run(capsys, *argv) == (0, cold)
        assert cli._cached_record.cache_info()[:2] == (26, 26)  # hits, misses

    def test_second_warm_table2_runs_no_primality_test(self, capsys, monkeypatch, tmp_path):
        argv = ["table2", "--max", "21", "--extra", "51,52,53,54",
                "--cache", str(tmp_path / "q.jsonl")]
        code, cold = run(capsys, *argv)
        assert code == 0  # every record was searched, so none was verified yet
        tests = _counting(monkeypatch, primes, "is_prime")
        assert run(capsys, *argv) == (0, cold)
        assert len(tests) == 26  # q_1..q_21, q_51..q_54 and q_50 for the flag on 51
        assert run(capsys, *argv) == (0, cold)
        assert len(tests) == 26


def _int_text(low, high):
    """The text of a small int, in range or not, or now and then a token that is not an int."""
    ints, junk = st.integers(low, high).map(str), st.sampled_from(["x", "", "1.5", "1e3"])
    return st.integers(0, 9).flatmap(lambda k: ints if k else junk)


def _opt(flag, values):
    """Now and then no option (missing when required), else the flag with a drawn value."""
    present = values.map(lambda v: [flag, v])
    return st.integers(0, 3).flatmap(lambda k: present if k else st.just([]))


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [t for p in ps for t in p])


def _args(*values):
    return st.tuples(*values).map(list)


# Small, fast values for every subcommand; the cache names map to files in
# `cache_dir`: a fresh file, one with a torn line, a missing directory, a directory.
CACHES = st.sampled_from(["fresh.jsonl", "torn.jsonl", "missing/q.jsonl", "."])
ARGVS = _argv(
    _opt("--output", st.sampled_from(["text", "json", "csv", "xml"])),
    st.one_of(
        _argv(st.just(["speed"]), _args(_int_text(-2, 10**6)), _opt("--height", _int_text(-1, 7))),
        _argv(st.just(["profile"]), _args(_int_text(-2, 10**6)),
              _opt("--max-height", _int_text(-1, 7))),
        _argv(st.just(["min-base"]), _args(_int_text(-2, 60)), _opt("--class", _int_text(-1, 10))),
        _argv(st.just(["class"]), _args(_int_text(-1, 10), _int_text(-1, 8)),
              _opt("--count", _int_text(-1, 5))),
        _argv(st.just(["root"]), _args(_int_text(-1, 14)), _opt("--digits", _int_text(-1, 80))),
        _argv(st.just(["q"]), _args(_int_text(-1, 12)), _opt("--budget", _int_text(-1, 3)),
              _opt("--cache", CACHES)),
        _argv(st.just(["table1"]), _opt("--max", _int_text(-1, 12))),
        _argv(st.just(["table2"]), _opt("--max", _int_text(-1, 12)),
              _opt("--extra", st.sampled_from(["", "3", "1,7", "0", "x", "2,,3"])),
              _opt("--budget", _int_text(-1, 3)), _opt("--cache", CACHES)),
        _argv(st.just(["verify"]),
              _opt("--sweep", st.one_of(_int_text(-1, 30), st.just("2000000")))),
        _argv(st.just(["oeis"]), st.sampled_from([[], ["--min-bases"]]),
              _opt("--terms", _int_text(-1, 12))),
        st.sampled_from([[], ["frobnicate"], ["speed", "7", "--bogus"]]),
    ),
)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("caches")
    (path / "torn.jsonl").write_text(RECORD_3.format(q=193) + '{"n": 5, "q": "229')
    return path


class TestContract:
    """Every argv exits 0-3 with no traceback and at most one error line."""

    @given(ARGVS)
    @settings(max_examples=400, deadline=None)
    def test_exit_code_and_stderr(self, cache_dir, argv):
        if "--cache" in argv:
            at = argv.index("--cache") + 1
            argv = argv[:at] + [str(cache_dir / argv[at])] + argv[at + 1:]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2, 3)
        assert bool(lines) == (code != 0), (argv, code, lines)
        if len(lines) == 1:
            assert lines[0].startswith("error: "), lines
        elif lines:
            errors = [line for line in lines if "error:" in line]
            assert lines[0].startswith("usage: congspeed") and errors == lines[-1:], lines
            assert re.match(r"congspeed( [a-z0-9-]+)?: error: ", lines[-1]), lines
