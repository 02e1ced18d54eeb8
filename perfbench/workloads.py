"""Seeded workloads for the hypident benchmark.

Each workload turns a seed into a list of calls.  A call is either one
``verify(inst)`` on an instance (the in-process workloads) or one
``python -m hypident fuzz --count N --seed S`` child process (``cli-fuzz``).
Instances come from ``hypident.fuzzing.random_instance``; the program only
ever sees the generated instances or the generated fuzz arguments.

Why these four workloads (see README.md for the layer map):

- ``balanced-corpus``: the acceptance corpus family (s = r, r in 2..4,
  shifts in [-3, 3]).  The residue routes do almost all of the work.
- ``confluent-corpus``: the same draws with s < r.  Only series assembly
  runs; residues and the polynomial law make no calls, so an optimisation
  of those must show no change here.
- ``shift-ladder``: r = 2, n = (0, 0), m = (j, j) for rising j.  Few poles
  but high-degree numerators, and the polynomial law at p = 2j - 1.
- ``cli-fuzz``: the only workload that goes through ``hypident.cli`` and
  ``hypident.fuzzing.fuzz``, with the mixed family draw, and the only one
  that checks byte-identical stdout across repeats.

Verify time spans two orders of magnitude across draws of one family, so a
plain run of the first draws of a seed measures mostly which heavy
instances that seed happened to draw.  The corpora are therefore
stratified: a large pool is drawn from the seed, ranked by a cost estimate
computed from the instance's shape alone, and one instance is taken from
the middle of each of ``size`` equal rank bins.  Every seed then yields the
same cost profile, and a seed still decides every instance in it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from hypident import IdentityInstance, fuzzing

DEFAULT_BUFFER = 25  # verify's default buffer; the cost estimate assumes it

DEFAULT_SEEDS = {
    "balanced-corpus": 1001,
    "confluent-corpus": 1002,
    "shift-ladder": 1003,
    "cli-fuzz": 0,
}


@dataclass(frozen=True)
class Call:
    """One closed-loop call: ``verify(instance)``, or a fuzz child process
    with arguments ``fuzz_args`` that certifies ``fuzz_count`` instances."""

    instance: IdentityInstance | None = None
    fuzz_args: tuple[str, ...] = ()
    fuzz_count: int = 0

    @property
    def instances(self) -> int:
        return self.fuzz_count if self.fuzz_args else 1

    def label(self) -> str:
        if self.fuzz_args:
            return "fuzz " + " ".join(self.fuzz_args)
        return str(self.instance.to_dict())


@dataclass(frozen=True)
class Sizes:
    """How much work one workload puts in a run."""

    pool: int           # draws ranked for stratification (ladder: per rung)
    calls: int          # calls in one pass over the workload
    trace_calls: int    # calls in the fixed set a traced run measures
    rungs: tuple[int, ...] = ()
    fuzz_count: int = 0


SIZES = {
    "balanced-corpus": Sizes(pool=1000, calls=40, trace_calls=8),
    "confluent-corpus": Sizes(pool=2000, calls=400, trace_calls=150),
    "shift-ladder": Sizes(pool=9, calls=20, trace_calls=8, rungs=(4, 8, 12, 16)),
    "cli-fuzz": Sizes(pool=1000, calls=48, trace_calls=8, fuzz_count=2),
}

SMOKE_SIZES = {
    "balanced-corpus": Sizes(pool=20, calls=2, trace_calls=2),
    "confluent-corpus": Sizes(pool=20, calls=3, trace_calls=3),
    "shift-ladder": Sizes(pool=3, calls=2, trace_calls=2, rungs=(1, 2)),
    "cli-fuzz": Sizes(pool=10, calls=2, trace_calls=1, fuzz_count=1),
}


def estimated_cost(inst: IdentityInstance) -> float:
    """Rough verify time in seconds, from r, s and the shifts alone.

    Fitted once on seeded draws of both families: series assembly grows with
    the squared series length per term, the residue routes with the squared
    pole count plus poles times numerator degree over the kernels verify
    builds.  It only ranks draws; no measurement depends on its accuracy.
    """
    r, s, m, n = len(inst.a), len(inst.b), inst.m, inst.n
    m_min = min(m) if m else 0
    n_max = max(n)
    if s == r:
        p = max(-1, sum(m) - sum(n) - r + 1)
        support_high = p - m_min
    else:
        p = (sum(m) - sum(n) - r + 1) // (r - s)
        support_high = max(-m_min - 1, p)
    trunc = max(support_high, -n_max) + DEFAULT_BUFFER
    series = sum((trunc + n_i + 1) ** 2 for n_i in n if trunc + n_i >= 0)
    kernels = 0
    if s == r:
        window = range(-m_min, -m_min + DEFAULT_BUFFER // 2 + 1)
        law = range(-m_min, -m_min + (p + 3 if p >= 1 else 3))
        for k in (*window, *law):
            poles = sum(max(0, k + n_i + 1) for n_i in n)
            degree = sum(max(0, m_l + k) for m_l in m)
            degree += sum(max(0, -(n_i + k + 1)) for n_i in n)
            kernels += poles * poles + poles * degree
        kernels += (p + 3) ** 3 if p >= 1 else 0
    return 7.2e-6 * series + 1.9e-5 * kernels


def spread_order(count: int) -> list[int]:
    """0..count-1 in van der Corput order, so every prefix of the list
    samples the whole range rather than one end of it."""
    order: list[int] = []
    seen: set[int] = set()
    t = 0
    while len(order) < count:
        value, weight, bits = 0.0, 0.5, t
        while bits:
            value += weight * (bits & 1)
            bits >>= 1
            weight /= 2
        index = int(value * count)
        if index not in seen:
            seen.add(index)
            order.append(index)
        t += 1
    return order


def stratified(pool: list, size: int, cost) -> list:
    """``size`` members of ``pool``, one from the middle of each equal bin
    of the pool ranked by ``cost``, in spread order."""
    ranked = sorted(pool, key=cost)
    picks = [ranked[(2 * i + 1) * len(ranked) // (2 * size)] for i in range(size)]
    return [picks[i] for i in spread_order(size)]


def _corpus(seed: int, sizes: Sizes, family: str) -> list[Call]:
    rng = random.Random(seed)
    pool = [fuzzing.random_instance(rng, family=family) for _ in range(sizes.pool)]
    return [Call(instance=inst) for inst in stratified(pool, sizes.calls, estimated_cost)]


def _denominator_lcm(inst: IdentityInstance) -> int:
    return math.lcm(*(x.denominator for x in inst.a + inst.b))


def _ladder(seed: int, sizes: Sizes) -> list[Call]:
    """The rising ladder, climbed once per draw of a and b.

    At a fixed rung the polynomial law's cost moves by a third with the
    draw, mostly with the lcm of the parameters' denominators, so each rung
    takes the draw of median lcm among ``sizes.pool`` draws."""
    rng = random.Random(seed)
    calls = []
    for _ in range(sizes.calls // len(sizes.rungs)):
        for j in sizes.rungs:
            candidates = [
                fuzzing.random_instance(rng, r_range=(2, 2), family="one")
                for _ in range(sizes.pool)
            ]
            draw = stratified(candidates, 1, _denominator_lcm)[0]
            inst = IdentityInstance(a=draw.a, b=draw.b, m=(j, j), n=(0, 0))
            calls.append(Call(instance=inst))
    return calls


def _fuzz_commands(seed: int, sizes: Sizes) -> list[Call]:
    """Stratified ``fuzz`` child seeds: each candidate's batch is redrawn
    here exactly as ``fuzz`` draws it, to rank the candidates by cost."""
    def batch_cost(child_seed: int) -> float:
        rng = random.Random(child_seed)
        return sum(
            estimated_cost(fuzzing.random_instance(rng)) for _ in range(sizes.fuzz_count)
        )

    candidates = range(seed * sizes.pool, (seed + 1) * sizes.pool)
    return [
        Call(
            fuzz_args=("--count", str(sizes.fuzz_count), "--seed", str(child_seed)),
            fuzz_count=sizes.fuzz_count,
        )
        for child_seed in stratified(list(candidates), sizes.calls, batch_cost)
    ]


def build(workload: str, seed: int, smoke: bool = False) -> list[Call]:
    """The workload's calls for ``seed``, in the order a pass makes them."""
    sizes = (SMOKE_SIZES if smoke else SIZES)[workload]
    if workload == "balanced-corpus":
        return _corpus(seed, sizes, "one")
    if workload == "confluent-corpus":
        return _corpus(seed, sizes, "two")
    if workload == "shift-ladder":
        return _ladder(seed, sizes)
    if workload == "cli-fuzz":
        return _fuzz_commands(seed, sizes)
    raise ValueError(f"unknown workload {workload!r}")
