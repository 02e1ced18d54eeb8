"""Span tracing of hypident's layers from outside the package.

``Tracer.installed()`` swaps timing wrappers into the module globals the
pipeline calls through (``hypident.identity.residue_kernel``,
``hypident.residues.validate``, ...) and restores the originals on exit.
Each wrapper records a span (name, start, end, parent span, call id) in
memory, and reads its work counts off the arguments and return value.
Spans are named after the module that defines the function, so
``residue_kernel`` is ``residues.residue_kernel`` whether ``identity`` or
``asymptotics`` called it.  A hook whose target no longer exists is listed
in ``missing``; the metrics that depend on it are then left out of the
report rather than reported as zero.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


def _bits(values) -> int:
    """Largest numerator or denominator bit length among Fractions."""
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


def _count_verify(tracer, args, report) -> None:
    tracer.maxima["algebra.beta_bits_max"] = max(
        tracer.maxima["algebra.beta_bits_max"], _bits(report.beta.values.values())
    )


def _count_series(tracer, args, series) -> None:
    # the window lhs_series assembles: exponents -n_max .. trunc
    tracer.counts["identity.series_coeffs"] += series.trunc + 1 + max(args[0].n)


def _count_terms(tracer, args, series) -> None:
    # hyper_series computes every term up to its truncation, even zero ones
    tracer.counts["hyper.series_terms"] += series.trunc + 1


def _count_kernel(tracer, args, kernel) -> None:
    num, den = kernel.fraction.num, kernel.fraction.den
    degree = max(num.degree, den.degree, 0)
    tracer.counts["residues.poles"] += len(kernel.poles)
    tracer.counts["residues.kernel_degree_sum"] += degree
    for key, value in (
        ("residues.kernel_degree_max", degree),
        ("algebra.kernel_bits_max", _bits(num.coeffs + den.coeffs)),
    ):
        tracer.maxima[key] = max(tracer.maxima[key], value)


def _count_lemma_kernel(tracer, args, kernel) -> None:
    tracer.counts["asymptotics.lemma_kernels"] += 1
    _count_kernel(tracer, args, kernel)


# (module, global, span name, counter).  The first two entries are the
# benchmark's own entry points into the package.
HOOKS = (
    ("hypident", "verify", "identity.verify", _count_verify),
    ("hypident.cli", "main", "cli.main", None),
    ("hypident.cli", "fuzz", "fuzzing.fuzz", None),
    ("hypident.fuzzing", "verify", "identity.verify", _count_verify),
    ("hypident.fuzzing", "random_instance", "fuzzing.random_instance", None),
    ("hypident.fuzzing", "validate", "hyper.validate", None),
    ("hypident.identity", "validate", "hyper.validate", None),
    ("hypident.residues", "validate", "hyper.validate", None),
    ("hypident.asymptotics", "validate", "hyper.validate", None),
    ("hypident.identity", "lhs_series", "identity.lhs_series", _count_series),
    ("hypident.identity", "hyper_series", "hyper.hyper_series", _count_terms),
    ("hypident.identity", "residue_kernel", "residues.residue_kernel", _count_kernel),
    ("hypident.identity", "sum_finite_residues", "residues.sum_finite_residues", None),
    ("hypident.identity", "residue_at_infinity", "residues.residue_at_infinity", None),
    ("hypident.identity", "residue_sum_closed_form", "residues.residue_sum_closed_form", None),
    ("hypident.identity", "check_residue_polynomial", "asymptotics.check_residue_polynomial", None),
    ("hypident.asymptotics", "residue_kernel", "residues.residue_kernel", _count_lemma_kernel),
    ("hypident.asymptotics", "residue_at_infinity", "residues.residue_at_infinity", None),
    ("hypident.asymptotics", "exp_series_coefficient", "asymptotics.exp_series_coefficient", None),
)

# Counters and maxima, each with the span whose hook feeds it.
COUNT_SOURCES = {
    "identity.series_coeffs": "identity.lhs_series",
    "hyper.series_terms": "hyper.hyper_series",
    "residues.poles": "residues.residue_kernel",
    "residues.kernel_degree_sum": "residues.residue_kernel",
    "asymptotics.lemma_kernels": "residues.residue_kernel",
}
MAX_SOURCES = {
    "algebra.beta_bits_max": "identity.verify",
    "algebra.kernel_bits_max": "residues.residue_kernel",
    "residues.kernel_degree_max": "residues.residue_kernel",
}


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self) -> None:
        # span i: [name, start, end, parent index or -1, call id]
        self.spans: list[list] = []
        self.covered: list[float] = []  # time of span i spent in children
        self.stack: list[int] = []
        self.call_id = -1
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.missing: set[str] = set()
        self.hooked: set[str] = set()

    def wrap(self, name: str, fn, counter):
        spans, covered, stack = self.spans, self.covered, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, 0.0, 0.0, parent, self.call_id])
            covered.append(0.0)
            stack.append(index)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                stack.pop()
                spans[index][1:3] = start, end
                if returned and counter is not None:
                    counter(self, args, result)
                if parent >= 0:
                    # counting time is the tracer's, not the parent's self time
                    covered[parent] += clock() - start
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, counter in HOOKS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counter))
                self.hooked.add(name)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def metrics(self, wanted: list[str]) -> dict[str, float]:
        """Per-layer metrics among ``wanted`` that this trace can support:
        ``<span>.calls`` and ``<span>.self_s`` per span name, the counters,
        ``fuzzing.accept_ratio`` and ``cli.self_s``."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        draws = draw_validations = 0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - self.covered[index]
            if name == "fuzzing.random_instance":
                draws += 1
            elif name == "hyper.validate" and parent >= 0:
                draw_validations += self.spans[parent][0] == "fuzzing.random_instance"
        available: dict[str, float] = {}
        for name in self.hooked:
            available[f"{name}.calls"] = calls[name]
            available[f"{name}.self_s"] = self_s[name]
        for key, source in COUNT_SOURCES.items():
            if source in self.hooked:
                available[key] = self.counts[key]
        for key, source in MAX_SOURCES.items():
            if source in self.hooked:
                available[key] = self.maxima[key]
        if "cli.main" in self.hooked:
            available["cli.self_s"] = self_s["cli.main"]
        if draw_validations:
            available["fuzzing.accept_ratio"] = draws / draw_validations
        return {key: available[key] for key in wanted if key in available}

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, start and end in seconds
        since the first span, parent index, call id and self time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as out:
            for index, (name, start, end, parent, call_id) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "call": call_id,
                            "self": (end - start) - self.covered[index],
                        }
                    )
                    + "\n"
                )
