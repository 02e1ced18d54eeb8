"""JSON-in/JSON-out command line front end.

Every command parses its input, makes one call into ``identity``, ``fuzzing``
or ``bessel`` (``residue-check`` hands it the kernel at --k) and prints one
JSON payload on stdout, of any size: the interpreter's cap on int digits
bounds the input only.  Instance files are JSON objects {"a": [...], "b":
[...], "m": [...], "n": [...]} with rationals written as ints or strings
"p/q", "p"; r and s are inferred from the vector lengths; ``bessel --nu``
takes the same strings.  Exit codes: 0 all checks pass, 1 a check failed, 2
input or validation error (with an {"error": ...} payload), a ``bessel``
value too large for a float, a run out of memory and a command line that
does not parse included: the latter's UsageError payload is always compact,
as --pretty was never read.  Output is deterministic: identical input,
flags, and seed produce byte-identical bytes; --pretty toggles indentation
only.  A reader that closes stdout early ends the run quietly with status
141, as a shell reports a process stopped by SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from .bessel import DEFAULT_SAMPLES, DEFAULT_TOLERANCE, bessel_demo
from .errors import (
    CheckFailed,
    HypidentError,
    NumericResidualExceeded,
    SupportViolation,
)
from .fuzzing import fuzz
from .hyper import IdentityInstance, parse_rational
from .identity import DEFAULT_BUFFER, beta_coefficients, lemma_report, residue_routes, verify
from .residues import residue_kernel

#: Exceptions that mean "the certificate failed", not "the input was bad".
_CHECK_FAILURES = (SupportViolation, CheckFailed, NumericResidualExceeded)

_DECIMAL = re.compile(r"[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")  # "1", "0.5", "1e-10"


def decimal(text: str) -> float:
    """An argparse type: digits, an optional fraction and exponent, nothing else."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(text)
    return float(text)


def decimals(text: str) -> tuple[float, ...]:
    """An argparse type: one or more comma-separated ``decimal``s."""
    return tuple([decimal(x) for x in text.split(",")])


class UsageError(ValueError):
    """A command line that does not parse: an unknown command or option, a
    missing or malformed argument."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hypident",
        description="Exact certification of hypergeometric-product reduction identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True, with_buffer=True):
        if with_input:
            p.add_argument("input", help="path to an instance JSON file")
        if with_buffer:
            p.add_argument(
                "--buffer",
                type=int,
                default=DEFAULT_BUFFER,
                help="extra exponents checked past the certified support (default 25)",
            )
        p.add_argument("--pretty", action="store_true", help="indent JSON output")

    p = sub.add_parser("verify", help="full verification report for one instance")
    add_common(p)

    p = sub.add_parser("coeffs", help="certified coefficient table only")
    add_common(p)

    p = sub.add_parser("lemma", help="polynomial law for residues at infinity")
    add_common(p, with_buffer=False)

    p = sub.add_parser("residue-check", help="three-route residue values at one k")
    add_common(p, with_buffer=False)
    p.add_argument("--k", type=int, required=True, help="kernel index")

    p = sub.add_parser("fuzz", help="verify a batch of random instances")
    add_common(p, with_input=False)
    p.add_argument("--count", type=int, default=100)
    p.add_argument(
        "--r-range",
        type=int,
        nargs=2,
        default=(2, 4),
        metavar=("MIN", "MAX"),
        help="range of r (default 2 4)",
    )
    p.add_argument("--shift-range", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bessel", help="Bessel-product demonstration")
    # read "--nu -1/3" as a value: argparse's own pattern admits -3 and -0.5 but no "/"
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    add_common(p, with_input=False, with_buffer=False)
    p.add_argument("--nu", required=True, help='rational order, e.g. "1/3"')
    p.add_argument("--m", type=int, required=True, dest="m_shift", help="integer shift")
    p.add_argument("--tolerance", type=decimal, default=DEFAULT_TOLERANCE)
    p.add_argument("--samples", type=decimals, default=DEFAULT_SAMPLES, help='e.g. "0.5,1,2"')
    return parser


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key is an error, not its last value."""
    if len(data := dict(pairs)) < len(pairs):
        raise ValueError(f"instance JSON object repeats a key: {[key for key, _ in pairs]}")
    return data


def _load_instance(path: str) -> IdentityInstance:
    text = Path(path).read_text()
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        # bad input, not a failed check: exit 2 like any other malformed file
        raise ValueError("instance JSON is nested too deeply") from None
    return IdentityInstance.from_dict(data)


def _dispatch(args: argparse.Namespace) -> tuple[dict, int]:
    inst = _load_instance(args.input) if "input" in args else None
    nu = parse_rational(args.nu) if "nu" in args else None
    # the input is parsed under the interpreter's cap on int digits; the
    # output, printed as text, may exceed it
    sys.set_int_max_str_digits(0)

    if args.command == "verify":
        report = verify(inst, args.buffer)
        return report.to_dict(), 0 if report.passed else 1

    if args.command == "coeffs":
        table = beta_coefficients(inst, args.buffer)
        return table.to_dict(), 0

    if args.command == "lemma":
        return lemma_report(inst).to_dict(), 0

    if args.command == "residue-check":
        finite, at_infinity, closed = residue_routes(inst, residue_kernel(inst, args.k))
        agree = finite == at_infinity == closed
        payload = {
            "k": args.k,
            "finite_residue_sum": str(finite),
            "residue_at_infinity": str(at_infinity),
            "closed_form_sum": str(closed),
            "agree": agree,
        }
        return payload, 0 if agree else 1

    if args.command == "fuzz":
        report = fuzz(
            count=args.count,
            r_range=tuple(args.r_range),
            shift_range=args.shift_range,
            seed=args.seed,
            buffer=args.buffer,
        )
        return report.to_dict(), 0 if report.failed == 0 else 1

    if args.command == "bessel":
        report = bessel_demo(nu, args.m_shift, args.samples, args.tolerance)
        return report.to_dict(), 0 if report.passed else 1


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    print(text, flush=True)


def main(argv: list[str] | None = None) -> int:
    """Run one command line; returns the process exit status."""
    # _dispatch lifts the cap on int digits for its output; a caller gets its own back
    limit = sys.get_int_max_str_digits()
    pretty = False  # a command line that does not parse never set --pretty
    try:
        try:
            args = build_parser().parse_args(argv)
            pretty = args.pretty
            payload, status = _dispatch(args)
        except (HypidentError, MemoryError, OSError, OverflowError, ValueError, ZeroDivisionError) as exc:
            payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
            status = 1 if isinstance(exc, _CHECK_FAILURES) else 2
        _emit(payload, pretty)
        return status
    except BrokenPipeError:
        # the reader closed stdout early: what is still buffered goes to
        # devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
