import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hypident import cli, fuzzing, identity
from hypident.cli import main
from hypident.errors import ValidationError

from oracles import law_q

ZERO_SHIFT = {"a": ["0", "1/2"], "b": ["1/3", "1/4"], "m": [0, 0], "n": [0, 0]}
COLLIDING = {"a": ["0", "1"], "b": ["1/3", "1/4"], "m": [0, 0], "n": [0, 0]}
CONFLUENT = {"a": ["0", "1/2"], "b": ["1/3"], "m": [3], "n": [0, 0]}
# p = 5, so lemma prints a polynomial
DEGREE_FIVE = {"a": ["0", "1/2"], "b": ["1/3", "1/4"], "m": [3, 3], "n": [0, 0]}
# r - s = 1 is odd and the n_i have mixed parities, so the per-term sign
# (-1)^((r-s) n_i) matters
ODD_MIXED = {"a": ["1/2", "1/3", "-1/4"], "b": ["1/5", "2/7"], "m": [3, 2], "n": [1, 0, -1]}
# (1 - b_0 + a_0)_(m_0 - n_0) = (1)_(-1) has a zero factor
PREFACTOR_POLE = {"a": ["0", "1/2"], "b": ["0", "1/4"], "m": [0, 0], "n": [1, 0]}
# the prefactor of term 0 has negative shifts m_1 - n_0 = -2 and
# n_1 - n_0 + 1 = -2, neither of them at a pole
NEGATIVE_SHIFTS = {"a": ["1/3", "-2/5"], "b": ["1/4", "1/6"], "m": [5, 1], "n": [3, 0]}
# p = 15 with r = 3, D = 420 and a negative shift: lemma steps the law over 18 points
LONG_LAW = {"a": ["0", "1/3", "-2/5"], "b": ["1/4", "5/7", "-1/6"], "m": [5, 6, 6], "n": [0, 1, -1]}
# p = 199: lemma prints integers of up to 1085 digits
P199 = {"a": ["-7/5", "2/9"], "b": ["3/4", "-5/11"], "m": [100, 100], "n": [0, 0]}
# p = 4, but q_4 has degree 2: the law's interpolation ends in two zero coefficients
DEGREE_DROP = {"a": ["-3/4", "0", "23/12"], "b": ["7/3", "7/3", "3/2"], "m": [-2, 3, 3], "n": [3, -3, -2]}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, args):
    status = main(args)
    out = capsys.readouterr().out
    return status, out


class TestVerifyCommand:
    def test_zero_shift_golden(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", ZERO_SHIFT)
        status, out = run_cli(capsys, ["verify", path])
        assert status == 0
        payload = json.loads(out)
        assert payload["vanishing_ok"] is True
        assert payload["beta"] == {}
        assert payload["cross_checks"] == {"residue": True, "lemma1": True, "alpha": None}

    def test_validation_error_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", COLLIDING)
        status, out = run_cli(capsys, ["verify", path])
        assert status == 2
        assert json.loads(out)["error"]["type"] == "NotDistinctModZ"

    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch):
        # as verify --buffer 1000000000 does where memory is bounded
        def exhausted(inst, buffer):
            raise MemoryError

        monkeypatch.setattr(cli, "verify", exhausted)
        status, out = run_cli(capsys, ["verify", write(tmp_path, "inst.json", ZERO_SHIFT)])
        assert status == 2
        assert json.loads(out) == {"error": {"type": "MemoryError", "message": ""}}

    def test_missing_file_exits_2(self, capsys):
        status, out = run_cli(capsys, ["verify", "/nonexistent/inst.json"])
        assert status == 2
        assert "error" in json.loads(out)

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        status, out = run_cli(capsys, ["verify", str(path)])
        assert status == 2
        assert "error" in json.loads(out)

    @pytest.mark.parametrize(
        "text, kind", [("[1, 2]", "list"), ("null", "NoneType"), ("3", "int"), ('"abc"', "str")]
    )
    def test_top_level_value_not_an_object_exits_2(self, tmp_path, capsys, text, kind):
        path = tmp_path / "inst.json"
        path.write_text(text)
        status, out = run_cli(capsys, ["verify", str(path)])
        assert status == 2
        assert json.loads(out)["error"] == {
            "type": "ValueError",
            "message": f"instance JSON must be an object, got {kind}",
        }


class TestCoeffsCommand:
    def test_confluent_table(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", CONFLUENT)
        status, out = run_cli(capsys, ["coeffs", path])
        assert status == 0
        payload = json.loads(out)
        assert payload["support_low"] == 0
        assert payload["support_high"] == 2
        assert payload["beta"] == {"0": "121/12", "1": "-23/3", "2": "1"}
        assert payload["theorem"] == "Two"


class TestLemmaCommand:
    def test_balanced(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", ZERO_SHIFT)
        status, out = run_cli(capsys, ["lemma", path])
        assert status == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["p"] == -1

    def test_confluent_is_an_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", CONFLUENT)
        status, out = run_cli(capsys, ["lemma", path])
        assert status == 2
        assert "error" in json.loads(out)

    def test_degree_drop(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", DEGREE_DROP)
        status, out = run_cli(capsys, ["lemma", path])
        assert status == 0
        payload = json.loads(out)
        assert payload["p"] == 4 and len(payload["polynomial"]) == 3
        a, b, m, n = (DEGREE_DROP[key] for key in "abmn")
        assert len(payload["residue_values"]) == 7
        for k, value in zip(payload["points"], payload["residue_values"], strict=True):
            assert value == str(law_q(a, b, m, n, 4, k)), k

    def test_route_2_fault_at_a_law_point_exits_1(self, tmp_path, capsys, monkeypatch):
        # route 2 off by 1 at k = 4, one of DEGREE_FIVE's law points -3 .. 4
        real = identity.residue_sum_closed_form
        monkeypatch.setattr(
            identity, "residue_sum_closed_form", lambda inst, k: real(inst, k) + (k == 4)
        )
        path = write(tmp_path, "inst.json", DEGREE_FIVE)
        status, out = run_cli(capsys, ["lemma", path])
        assert status == 1
        error = json.loads(out)["error"]
        assert error["type"] == "CheckFailed"
        assert error["message"].startswith("residue for k=4 is ")


class TestIntDigitCap:
    def test_output_past_the_cap_prints(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", P199)
        status, expected = run_cli(capsys, ["lemma", path])
        assert status == 0 and max(map(len, re.findall(r"[0-9]+", expected))) > 640
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert run_cli(capsys, ["lemma", path]) == (0, expected)
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)

    def test_input_keeps_the_cap(self, tmp_path, capsys):
        huge = "1" * 5000 + "/7"
        path = write(tmp_path, "inst.json", {**ZERO_SHIFT, "a": [huge, "1/3"]})
        for args in (["verify", path], ["bessel", "--nu", huge, "--m", "1"]):
            status, out = run_cli(capsys, args)
            assert status == 2
            assert "Exceeds the limit" in json.loads(out)["error"]["message"]


class TestResidueCheckCommand:
    def test_three_routes_agree(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", ZERO_SHIFT)
        status, out = run_cli(capsys, ["residue-check", path, "--k", "3"])
        assert status == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert (
            payload["finite_residue_sum"]
            == payload["residue_at_infinity"]
            == payload["closed_form_sum"]
        )

    def test_missing_k_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", ZERO_SHIFT)
        status, out = run_cli(capsys, ["residue-check", path])
        assert status == 2
        assert json.loads(out)["error"]["type"] == "UsageError"

    def test_k_below_range(self, tmp_path, capsys):
        path = write(tmp_path, "inst.json", ZERO_SHIFT)
        status, out = run_cli(capsys, ["residue-check", path, "--k", "-1"])
        assert status == 2
        assert json.loads(out)["error"]["type"] == "KBelowRange"


class TestFuzzCommand:
    def test_deterministic_and_green(self, capsys):
        args = ["fuzz", "--count", "10", "--seed", "42"]
        status1, out1 = run_cli(capsys, args)
        status2, out2 = run_cli(capsys, args)
        assert status1 == status2 == 0
        assert out1 == out2  # byte-identical
        payload = json.loads(out1)
        assert payload["passed"] == 10
        assert payload["failed"] == 0

    def test_narrowest_valid_arguments(self, capsys):
        args = ["--count", "2", "--r-range", "3", "3", "--shift-range", "1", "--buffer", "1"]
        status, out = run_cli(capsys, ["fuzz", *args])
        assert status == 0
        assert json.loads(out)["passed"] == 2

    def test_seed_changes_output(self, capsys):
        _, out1 = run_cli(capsys, ["fuzz", "--count", "3", "--seed", "1"])
        _, out2 = run_cli(capsys, ["fuzz", "--count", "3", "--seed", "2"])
        assert json.loads(out1)["passed"] == json.loads(out2)["passed"] == 3

    def test_optimised_interpreter_prints_the_same_bytes(self):
        # -O strips every assert; draws 11, 29 and 32 of this batch have a
        # negative n, so they step a kernel through a root division
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "hypident", "fuzz", "--count", "40", "--seed", "3"],
                capture_output=True,
                env=env,
                timeout=120,
            )
            for flags in ([], ["-O"])
        ]
        assert [run.returncode for run in runs] == [0, 0]
        assert runs[1].stdout == runs[0].stdout and runs[1].stderr == b""

    def test_raising_draw_is_recorded_and_the_batch_goes_on(self, capsys, monkeypatch):
        real = fuzzing.verify
        calls = []

        def flaky(inst, buffer):
            calls.append(inst)
            if len(calls) == 2:
                raise ZeroDivisionError("boom")
            return real(inst, buffer)

        monkeypatch.setattr(fuzzing, "verify", flaky)
        status, out = run_cli(capsys, ["fuzz", "--count", "3", "--seed", "1"])
        assert status == 1
        payload = json.loads(out)
        assert len(calls) == 3
        assert (payload["passed"], payload["failed"]) == (2, 1)
        assert payload["failures"] == [
            {
                "index": 1,
                "instance": calls[1].to_dict(),
                "error": {"type": "ZeroDivisionError", "message": "boom"},
            }
        ]


class TestBesselCommand:
    def test_demo_passes(self, capsys):
        status, out = run_cli(capsys, ["bessel", "--nu", "1/3", "--m", "1"])
        assert status == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["exact"]["vanishing_ok"] is True

    def test_custom_samples(self, capsys):
        status, out = run_cli(
            capsys,
            ["bessel", "--nu", "1/4", "--m", "2", "--samples", "0.5,1,1.5,2"],
        )
        assert status == 0
        assert json.loads(out)["samples"] == [0.5, 1.0, 1.5, 2.0]

    def test_unreachable_tolerance_exits_1(self, capsys):
        status, out = run_cli(
            capsys, ["bessel", "--nu", "1/3", "--m", "1", "--tolerance", "1e-18"]
        )
        assert status == 1
        assert json.loads(out)["error"]["type"] == "NumericResidualExceeded"

    def test_order_next_to_an_integer(self, capsys):
        # the orders reach bessel_j exactly: with float orders this exited 1,
        # residual 1.03e-9 at x = 0.5
        status, out = run_cli(capsys, ["bessel", "--nu", "1/1000000", "--m", "20"])
        assert status == 0
        assert json.loads(out)["max_residual"] < 1e-13

    def test_negative_nu_in_either_form(self, capsys):
        outputs = []
        for args in (["--nu", "-1/3"], ["--nu=-1/3"]):
            status, out = run_cli(capsys, ["bessel", *args, "--m", "1"])
            assert status == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["nu"] == "-1/3"

    def test_closed_stdout_exits_without_traceback(self):
        # the reader closes the pipe before the payload is written, so
        # every write to stdout fails with EPIPE, whatever the buffering
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        child = subprocess.Popen(
            [sys.executable, "-m", "hypident", "bessel", "--nu=-1/3", "--m", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=120) == 141
        assert err == b""

    def test_missing_nu_is_usage_error(self, capsys):
        status, out = run_cli(capsys, ["bessel", "--m", "1"])
        assert status == 2
        assert json.loads(out)["error"]["type"] == "UsageError"

    def test_integer_nu_is_validation_error(self, capsys):
        status, out = run_cli(capsys, ["bessel", "--nu", "2", "--m", "1"])
        assert status == 2
        assert json.loads(out)["error"]["type"] == "NotDistinctModZ"


class TestStrictInput:
    @pytest.mark.parametrize("shift", [1.7, True])
    def test_non_int_shift_exits_2(self, tmp_path, capsys, shift):
        path = write(tmp_path, "inst.json", {**ZERO_SHIFT, "m": [shift, 1]})
        status, out = run_cli(capsys, ["verify", path])
        assert status == 2
        assert json.loads(out)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize(
        "value, error", [(1.5, "ValueError"), ("+1/2", "ValueError"), ("1/0", "ZeroDivisionError")]
    )
    def test_non_rational_parameter_exits_2(self, tmp_path, capsys, value, error):
        path = write(tmp_path, "inst.json", {**ZERO_SHIFT, "a": [value, "1/3"]})
        status, out = run_cli(capsys, ["verify", path])
        assert status == 2
        assert json.loads(out)["error"]["type"] == error

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 200_000,
            '{"a": ' + "[" * 100_000 + "]" * 100_000 + ', "n": [0, 0]}',
        ],
        ids=["array", "object"],
    )
    def test_deeply_nested_file_exits_2(self, tmp_path, capsys, text):
        # json.loads raises RecursionError on these, which used to escape
        # as a traceback with exit 1, the status of a failed check
        path = tmp_path / "deep.json"
        path.write_text(text)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        child = subprocess.run(
            [sys.executable, "-m", "hypident", "verify", str(path)],
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert child.returncode == 2
        assert child.stdout.count(b"\n") == 1
        assert json.loads(child.stdout)["error"]["type"] == "ValueError"
        assert b"Traceback" not in child.stderr
        for args in (["coeffs"], ["lemma"], ["residue-check", "--k", "0"]):
            status, out = run_cli(capsys, [*args, str(path)])
            assert status == 2
            assert json.loads(out)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize(
        "text",
        [
            # misspelled keys used to be dropped, certifying the s = 0 instance
            '{"a": ["0", "1/2"], "B": ["1/3", "1/4"], "M": [1, 1], "n": [0, 0]}',
            # a repeated key used to keep its last value
            '{"a": ["0", "1/2"], "n": [0, 0], "b": [], "n": [5, 5]}',
        ],
        ids=["unknown-key", "repeated-key"],
    )
    def test_unknown_or_repeated_key_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "inst.json"
        path.write_text(text)
        status, out = run_cli(capsys, ["verify", str(path)])
        assert status == 2
        assert out.count("\n") == 1
        assert json.loads(out)["error"]["type"] == "ValueError"

    def test_rejection_exhaustion_exits_2(self, capsys, monkeypatch):
        def reject(_inst):
            raise ValidationError("rejected")

        monkeypatch.setattr(fuzzing, "validate", reject)
        status, out = run_cli(capsys, ["fuzz", "--count", "1"])
        assert status == 2
        assert json.loads(out) == {
            "error": {
                "type": "ValueError",
                "message": "rejection sampling found no valid instance in 10000 draws",
            }
        }

    def test_negative_fuzz_count_exits_2(self, capsys):
        status, out = run_cli(capsys, ["fuzz", "--count", "-1"])
        assert status == 2
        assert json.loads(out)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize(
        "args, message",
        [
            # a zero buffer used to fail every draw and exit 1
            (["--buffer", "0"], "buffer must be positive, got 0"),
            # these two used to exit 2 with randrange's own message
            (["--shift-range", "-1"], "shift range must be positive, got -1"),
            (["--r-range", "5", "3"], "r range 5..3 is empty"),
            (["--r-range", "4", "3"], "r range 4..3 is empty"),
            (["--r-range", "-3", "-2"], "r range must start at 2 or more, got -3"),
            # these two used to spend every draw before giving up
            (["--r-range", "1", "1"], "r range must start at 2 or more, got 1"),
            (["--shift-range", "0"], "shift range must be positive, got 0"),
        ],
    )
    def test_bad_fuzz_arguments_exit_2_before_drawing(self, capsys, monkeypatch, args, message):
        def no_draws(*_args, **_kwargs):
            raise AssertionError("drew an instance")

        monkeypatch.setattr(fuzzing, "random_instance", no_draws)
        status, out = run_cli(capsys, ["fuzz", "--count", "3", *args])
        assert status == 2
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": {"type": "ValueError", "message": message}}

    @pytest.mark.parametrize(
        "args",
        [
            ["--nu", "abc", "--m", "1"],
            ["--nu", "1/0", "--m", "1"],
            ["--nu", "1/3", "--m", "1", "--samples", "0.5,x"],
            # used to pass vacuously with max_residual 0.0; --order is now an unknown option
            ["--nu", "1/3", "--m", "3", "--order", "-1"],
            # each of these used to pass vacuously with max_residual 0.0
            ["--nu", "1/3", "--m", "3", "--samples", "nan,1,2"],
            ["--nu", "1/3", "--m", "3", "--samples", "inf,1,2"],
            ["--nu", "1/3", "--m", "3", "--tolerance", "inf"],
            ["--nu", "1/3", "--m", "3", "--tolerance", "0"],
            # each of these used to be read as a rational and exit 0
            ["--nu", "0.25", "--m", "1"],
            ["--nu", " 1/3", "--m", "1"],
            ["--nu", "+1/3", "--m", "1"],
            ["--nu", "1_0/3", "--m", "1"],
            # each of these used to exit 0: the default samples, 10.0, 1e-10
            ["--nu", "1/3", "--m", "1", "--samples", ""],
            ["--nu", "1/3", "--m", "1", "--samples", "1_0,2,3"],
            ["--nu", "1/3", "--m", "1", "--tolerance", "1_0e-11"],
            # each of these used to end in an OverflowError traceback, status 1
            ["--nu", "1/3", "--m", "200"],
            ["--nu", "1/3", "--m", "2", "--samples", "1e300,1"],
            ["--nu", "1/3", "--m", "2", "--samples", "1e-300,1"],
        ],
    )
    def test_bad_bessel_values_exit_2(self, capsys, args):
        status, out = run_cli(capsys, ["bessel", *args])
        assert status == 2
        assert "error" in json.loads(out, parse_constant=pytest.fail)

    @pytest.mark.parametrize(
        "args, nu, x",
        [
            (["--m", "170"], "-170.33333333333334", "0.5"),
            (["--m", "200"], "200.33333333333334", "0.5"),
            (["--m", "2", "--samples", "1e300,1"], "-0.3333333333333333", "1e+300"),
            # this one used to name no value: (34, 'Numerical result out of range')
            (["--m", "2", "--samples", "1e-300,1"], "-2.3333333333333335", "1e-300"),
        ],
    )
    def test_overflow_names_nu_and_the_sample(self, capsys, args, nu, x):
        status, out = run_cli(capsys, ["bessel", "--nu", "1/3", *args])
        assert status == 2
        message = f"J_nu(x) does not fit in a float at nu={nu}, x={x}"
        assert json.loads(out) == {"error": {"type": "OverflowError", "message": message}}

    @pytest.mark.parametrize(
        "args",
        [
            ["fuzz", "--count", "abc"],
            ["verify"],
            ["no-such-command"],
            ["residue-check", "x.json", "--k"],
            ["verify", "x.json", "--no-such-flag"],
            [],
            # the series is summed to float precision, so --order is gone
            ["bessel", "--nu", "1/3", "--m", "2", "--order", "30"],
        ],
    )
    def test_unparsable_command_line_exits_2_with_json(self, capsys, args):
        # each of these used to print argparse usage text on stderr only
        status = main(args)
        out, err = capsys.readouterr()
        assert status == 2
        assert out.count("\n") == 1 and err == ""
        assert json.loads(out)["error"]["type"] == "UsageError"


def command_line(tmp_path, args):
    """``args`` with an instance file after the command where it takes one."""
    if args[0] in ("verify", "coeffs", "lemma", "residue-check"):
        return [args[0], write(tmp_path, "inst.json", ZERO_SHIFT), *args[1:]]
    return args


class TestSharedArguments:
    @pytest.mark.parametrize(
        "args",
        [
            ["verify"],
            ["coeffs"],
            ["lemma"],
            ["residue-check", "--k", "0"],
            ["fuzz", "--count", "2"],
            ["bessel", "--nu", "1/3", "--m", "1"],
        ],
        ids=lambda args: args[0],
    )
    def test_pretty_changes_formatting_only(self, tmp_path, capsys, args):
        args = command_line(tmp_path, args)
        status, plain = run_cli(capsys, args)
        pretty_status, pretty = run_cli(capsys, [*args, "--pretty"])
        assert status == pretty_status == 0
        assert plain != pretty
        assert json.loads(plain) == json.loads(pretty)

    @pytest.mark.parametrize(
        "args",
        [["lemma"], ["residue-check", "--k", "0"], ["bessel", "--nu", "1/3", "--m", "1"]],
        ids=lambda args: args[0],
    )
    def test_buffer_is_refused_where_nothing_reads_it(self, tmp_path, capsys, args):
        status, out = run_cli(capsys, [*command_line(tmp_path, args), "--buffer", "5"])
        assert status == 2
        assert json.loads(out)["error"] == {
            "type": "UsageError",
            "message": "unrecognized arguments: --buffer 5",
        }

    def test_missing_arguments_are_named_in_order(self, capsys):
        status, out = run_cli(capsys, ["residue-check"])
        assert status == 2
        assert json.loads(out)["error"]["message"] == (
            "the following arguments are required: input, --k"
        )

    def test_fuzz_draws_with_the_library_defaults(self, capsys):
        status, out = run_cli(capsys, ["fuzz", "--count", "5", "--seed", "3"])
        assert status == 0
        expected = json.dumps(fuzzing.fuzz(5, seed=3).to_dict(), sort_keys=True, separators=(",", ":"))
        assert out == expected + "\n"


# (instance or None, command line without the input path, exit status, stdout)
GOLDEN = [
    (ZERO_SHIFT, ['verify'], 0,
     b'{"beta":{},"checked_up_to":25,"cross_checks":{"alpha":null,"lemma1":true,"residue":true},"derived":{"M":0,"N":0,"m_min":0,"n_max":0,"p":-1,"r":2,"s":2,"theorem":"One"},"instance":{"a":["0","1/2"],"b":["1/3","1/4"],"m":[0,0],"n":[0,0]},"vanishing_ok":true}\n'),
    (ZERO_SHIFT, ['coeffs'], 0,
     b'{"beta":{},"support_high":-1,"support_low":0,"theorem":"One"}\n'),
    (ZERO_SHIFT, ['lemma'], 0,
     b'{"ok":true,"p":-1,"points":[0,1,2],"polynomial":null,"residue_values":["0","0","0"]}\n'),
    (ZERO_SHIFT, ['residue-check', '--k', '3'], 0,
     b'{"agree":true,"closed_form_sum":"0","finite_residue_sum":"0","k":3,"residue_at_infinity":"0"}\n'),
    (COLLIDING, ['verify'], 2,
     b'{"error":{"message":"a[0]=0 and a[1]=1 differ by an integer","type":"NotDistinctModZ"}}\n'),
    (COLLIDING, ['coeffs'], 2,
     b'{"error":{"message":"a[0]=0 and a[1]=1 differ by an integer","type":"NotDistinctModZ"}}\n'),
    (COLLIDING, ['lemma'], 2,
     b'{"error":{"message":"a[0]=0 and a[1]=1 differ by an integer","type":"NotDistinctModZ"}}\n'),
    (COLLIDING, ['residue-check', '--k', '3'], 2,
     b'{"error":{"message":"a[0]=0 and a[1]=1 differ by an integer","type":"NotDistinctModZ"}}\n'),
    (CONFLUENT, ['verify'], 0,
     b'{"beta":{"0":"121/12","1":"-23/3","2":"1"},"checked_up_to":27,"cross_checks":{"alpha":null,"lemma1":null,"residue":null},"derived":{"M":3,"N":0,"m_min":3,"n_max":0,"p":2,"r":2,"s":1,"theorem":"Two"},"instance":{"a":["0","1/2"],"b":["1/3"],"m":[3],"n":[0,0]},"vanishing_ok":true}\n'),
    (CONFLUENT, ['coeffs'], 0,
     b'{"beta":{"0":"121/12","1":"-23/3","2":"1"},"support_high":2,"support_low":0,"theorem":"Two"}\n'),
    (CONFLUENT, ['lemma'], 2,
     b'{"error":{"message":"defined only for balanced instances (s = r)","type":"ValueError"}}\n'),
    (CONFLUENT, ['residue-check', '--k', '3'], 0,
     b'{"agree":true,"closed_form_sum":"0","finite_residue_sum":"0","k":3,"residue_at_infinity":"0"}\n'),
    (None, ['fuzz', '--count', '5', '--seed', '7'], 0,
     b'{"count":5,"failed":0,"failures":[],"passed":5,"seed":7}\n'),
    (DEGREE_FIVE, ['lemma'], 0,
     b'{"ok":true,"p":5,"points":[-3,-2,-1,0,1,2,3,4],"polynomial":["287875/2304","358186577/995328","2368446325/5971968","1254179255/5971968","320378555/5971968","31698163/5971968"],"residue_values":["0","0","0","287875/2304","23854145/20736","1278834515/248832","666845165/41472","1120282835/27648"]}\n'),
    (DEGREE_FIVE, ['verify'], 0,
     b'{"beta":{"0":"287875/2304","1":"8308895/20736","2":"27693575/248832"},"checked_up_to":27,"cross_checks":{"alpha":null,"lemma1":true,"residue":true},"derived":{"M":6,"N":0,"m_min":3,"n_max":0,"p":5,"r":2,"s":2,"theorem":"One"},"instance":{"a":["0","1/2"],"b":["1/3","1/4"],"m":[3,3],"n":[0,0]},"vanishing_ok":true}\n'),
    (ODD_MIXED, ['coeffs'], 0,
     b'{"beta":{"-1":"5083/5600","0":"28083983/661500","1":"-1143539/19600","2":"215/14","3":"-1"},"support_high":3,"support_low":-1,"theorem":"Two"}\n'),
    (ODD_MIXED, ['verify'], 0,
     b'{"beta":{"-1":"5083/5600","0":"28083983/661500","1":"-1143539/19600","2":"215/14","3":"-1"},"checked_up_to":28,"cross_checks":{"alpha":null,"lemma1":null,"residue":null},"derived":{"M":5,"N":0,"m_min":2,"n_max":1,"p":3,"r":3,"s":2,"theorem":"Two"},"instance":{"a":["1/2","1/3","-1/4"],"b":["1/5","2/7"],"m":[3,2],"n":[1,0,-1]},"vanishing_ok":true}\n'),
    (PREFACTOR_POLE, ['verify'], 2,
     b'{"error":{"message":"prefactor (1-b[0]+a[0])_(m[0]-n[0]) is undefined: (1)_-1 has zero factor 1 + -1","type":"PrefactorPole"}}\n'),
    (NEGATIVE_SHIFTS, ['coeffs'], 0,
     b'{"beta":{"-1":"15041/480","-2":"7267/1440","-3":"-247/45","0":"-310063/7200","1":"23023/1440"},"support_high":1,"support_low":-3,"theorem":"One"}\n'),
    (LONG_LAW, ['lemma'], 0,
     b'{"ok":true,"p":15,"points":[-5,-4,-3,-2,-1,0,1,2,3,4,5,6,7,8,9,10,11,12],"polynomial":["1479626773053625625/7169347584","1674648335449487441413393485787500902113670183/1323106652719192965120000000000000000","69818357828414536890351087150643656624042517391963/20005372589114197632614400000000000000000","1153922926662701435584932000032091306761372154876017/200053725891141976326144000000000000000000","19552013500239989331721120989740101296421043118017/3048437727865020591636480000000000000000","466117964202051405334278306286027207766746626856559/91453131835950617749094400000000000000000","548152097610827061764424438363464079845544757124521/182906263671901235498188800000000000000000","270324189113093455052385977302740201292290551275897/203229181857668039442432000000000000000000","12802868722166866076085449333251135659071934473083/28452085460073525521940480000000000000000","5509026907902374258903921369902329708299026422859/47420142433455875869900800000000000000000","1140524198557543733835100934653295236180608419/50180044903127910973440000000000000000","389551739039589338710632140770771685306980501/117609480241706041344000000000000000000","233060685907138911358462350563149049623321/669067265375038812979200000000000000","696274054930427988644956385794862317996483/27877802723959950540800000000000000000","53296284100315748612573902730248603592419/48786154766929913446400000000000000000","42907095615309140139984921618597006937017/1951446190677196537856000000000000000000"],"residue_values":["0","0","0","0","-2963180237875/27433728","1479626773053625625/7169347584","887403790152766953362195296532993/32672808000000000000000","206794798972427179749869084286166016543/230539333248000000000000000","184960209148158636067965071488152272021/12807740736000000000000000","13654870285030960193403644875709965085723/92974710528000000000000000","113945243456243866262339865711474139741244077/105433321738752000000000000000","6144827399603807470213457029694017058985749753/984044336228352000000000000000","68629744312861400743874957961842630949228564407/2296103451199488000000000000000","213539304223336507061787072844383362845545290148307/1735854209106812928000000000000000","25361536520933528077461137088675829328327523584167847/56704570830822555648000000000000000","55415121425436769000016664888781138646124767057408903/37803047220548370432000000000000000","4677339517525562967402026679560138495244688442420077/1063210703077922918400000000000000","11566502835492289545171150753041717841851770883381813/945076180513709260800000000000000"]}\n'),
]


@pytest.mark.parametrize(
    "instance, args, status, stdout",
    GOLDEN,
    ids=[f"{i}-{' '.join(case[1])}" for i, case in enumerate(GOLDEN)],
)
def test_golden_stdout_bytes(tmp_path, capsys, instance, args, status, stdout):
    if instance is not None:
        args = [args[0], write(tmp_path, "inst.json", instance), *args[1:]]
    assert run_cli(capsys, args) == (status, stdout.decode())
