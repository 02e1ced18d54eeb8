"""Seeded random instance generation and batch verification."""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import record
from .errors import ValidationError
from .hyper import IdentityInstance, validate
from .identity import DEFAULT_BUFFER, verify

MAX_REJECTIONS = 10_000


def random_rational(rng: random.Random, shift_range: int) -> Fraction:
    """Numerator bounded by 8 * shift_range in magnitude, denominator by
    min(12, 8 * shift_range)."""
    bound = max(8 * shift_range, 1)
    return Fraction(rng.randint(-bound, bound), rng.randint(1, max(1, min(12, bound))))


def _check_draw_arguments(r_range: tuple[int, int], shift_range: int) -> None:
    # no draw validates with r < 2, nor with shift range 0 (every a_i an integer)
    if shift_range < 1:
        raise ValueError(f"shift range must be positive, got {shift_range}")
    if r_range[0] > r_range[1]:
        raise ValueError(f"r range {r_range[0]}..{r_range[1]} is empty")
    if r_range[0] < 2:
        raise ValueError(f"r range must start at 2 or more, got {r_range[0]}")


def random_instance(
    rng: random.Random,
    r_range: tuple[int, int] = (2, 4),
    shift_range: int = 3,
    family: str = "any",
) -> IdentityInstance:
    """Draw a valid instance, rejecting (and fully redrawing) any draw that
    fails validation — parameter collisions modulo integers or prefactor
    poles — and raising ValueError if none of MAX_REJECTIONS draws is valid.
    ``family`` selects s: "one" forces s = r, "two" forces s < r,
    "any" draws s uniformly from {0, ..., r}.  Raises ValueError for an
    unknown family, a shift range below 1 or an r range that is empty or
    starts below 2."""
    if family not in ("any", "one", "two"):
        raise ValueError(f"unknown family {family!r}")
    _check_draw_arguments(r_range, shift_range)
    for _ in range(MAX_REJECTIONS):
        r = rng.randint(*r_range)
        if family == "one":
            s = r
        elif family == "two":
            s = rng.randint(0, r - 1)
        else:
            s = rng.randint(0, r)
        a = tuple(random_rational(rng, shift_range) for _ in range(r))
        b = tuple(random_rational(rng, shift_range) for _ in range(s))
        m = tuple(rng.randint(-shift_range, shift_range) for _ in range(s))
        n = tuple(rng.randint(-shift_range, shift_range) for _ in range(r))
        inst = IdentityInstance(a=a, b=b, m=m, n=n)
        try:
            validate(inst)
        except ValidationError:
            continue
        return inst
    raise ValueError(
        f"rejection sampling found no valid instance in {MAX_REJECTIONS} draws"
    )


@record
class FuzzReport:
    count: int
    seed: int
    passed: int
    failed: int
    failures: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "seed": self.seed,
            "passed": self.passed,
            "failed": self.failed,
            "failures": list(self.failures),
        }


def fuzz(
    count: int,
    r_range: tuple[int, int] = (2, 4),
    shift_range: int = 3,
    seed: int = 0,
    buffer: int = DEFAULT_BUFFER,
) -> FuzzReport:
    """Verify ``count`` random instances of the "any" family; deterministic
    for a fixed seed.  A draw whose verification raises is a failure
    recording the exception's type and message, and the batch goes on.
    A negative count, a non-positive buffer or draw arguments that
    ``random_instance`` rejects raise ValueError before the first draw."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if buffer < 1:
        raise ValueError(f"buffer must be positive, got {buffer}")
    _check_draw_arguments(r_range, shift_range)
    rng = random.Random(seed)
    passed = 0
    failures = []
    for index in range(count):
        inst = random_instance(rng, r_range=r_range, shift_range=shift_range)
        try:
            report = verify(inst, buffer)
        except Exception as exc:  # a fuzzer reports every crash and keeps going
            failures.append(
                {
                    "index": index,
                    "instance": inst.to_dict(),
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                }
            )
            continue
        if report.passed:
            passed += 1
        else:
            failures.append(
                {
                    "index": index,
                    "instance": inst.to_dict(),
                    "vanishing_ok": report.vanishing_ok,
                    "cross_checks": dict(report.cross_checks),
                }
            )
    return FuzzReport(
        count=count,
        seed=seed,
        passed=passed,
        failed=count - passed,
        failures=tuple(failures),
    )
