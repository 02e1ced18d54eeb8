"""Benchmark of hypident's exact certification, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload balanced-corpus --seed 1 --seconds 25 --trace 0

One process, one closed-loop caller: each call starts when the previous one
returns.  With ``--trace 0`` the run times the workload's calls in a loop
for ``--seconds`` and prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs a fixed set of calls once untraced and once under the
span tracer (tracer.py) and prints the per-layer metrics, including the
tracing overhead.  Either way the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; a human summary goes
to stderr.  Exit status is 0 when every output was correct, 1 when one was
not, and 2 when the benchmark could not run at all (for instance when the
checkout holds no ``src/hypident``).

Correctness gate: every verify report must pass; the sha256 of each call's
certified output (beta table, derived quantities and checked_up_to for
verify, the stdout bytes for fuzz) must equal the digest pinned in
digests.json when the seed is the workload's default, and must agree across
repeats of the call in any case.  ``--pin`` rewrites digests.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "digests.json"
WORKLOADS = ("balanced-corpus", "confluent-corpus", "shift-ladder", "cli-fuzz")
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    """Import hypident from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import hypident
    except ImportError as exc:
        raise BenchError(f"cannot import hypident from {SRC}: {exc}") from exc
    if Path(hypident.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"hypident was imported from {hypident.__file__}, not {SRC}")
    return hypident


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def fuzz_command(args) -> list[str]:
    return [sys.executable, "-m", "hypident", "fuzz", *args]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- calls ------------------------------------------------------------------


def run_verify(hypident, call) -> tuple[bool, str]:
    """verify(inst); returns (passed, digest of the certified output)."""
    # looked up on each call so the tracer's wrapper is used when installed
    report = hypident.verify(call.instance)
    certified = {
        "beta": report.beta.beta_map(),
        "derived": report.derived.to_dict(),
        "checked_up_to": report.checked_up_to,
    }
    return report.passed, _sha(json.dumps(certified, sort_keys=True).encode())


def _fuzz_ok(status: int, stdout: bytes, count: int) -> bool:
    if status != 0:
        return False
    try:
        payload = json.loads(stdout)
    except ValueError:
        return False
    return payload.get("failed") == 0 and payload.get("passed") == count


def run_fuzz_child(call) -> tuple[bool, str]:
    """One ``python -m hypident fuzz`` child process."""
    done = subprocess.run(
        fuzz_command(call.fuzz_args),
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return _fuzz_ok(done.returncode, done.stdout, call.fuzz_count), _sha(done.stdout)


def run_fuzz_in_process(call) -> tuple[bool, str]:
    """``hypident.cli.main`` in this process, for the traced run."""
    from hypident import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["fuzz", *call.fuzz_args])
    stdout = out.getvalue().encode()
    return _fuzz_ok(status, stdout, call.fuzz_count), _sha(stdout)


class Gate:
    """Correctness bookkeeping across every call of a run."""

    def __init__(self, pins: list[str] | None) -> None:
        self.pins = pins or []
        self.seen: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.repeats = 0
        self.errors: list[str] = []

    def record(self, slot: int, call, outcome) -> bool:
        """Count one call; ``outcome`` is (passed, digest) or an exception."""
        self.attempted += 1
        if isinstance(outcome, BaseException):
            problem = f"raised {type(outcome).__name__}: {outcome}"
        else:
            passed, digest = outcome
            if slot in self.seen:
                self.repeats += 1
            expected = self.seen.setdefault(
                slot, self.pins[slot] if slot < len(self.pins) else digest
            )
            if not passed:
                problem = "report did not pass"
            elif digest != expected:
                problem = f"digest {digest[:12]} != expected {expected[:12]}"
            else:
                return True
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"call {slot} ({call.label()}): {problem}")
        return False


def make_call(call, runner):
    try:
        return runner(call)
    except Exception as exc:  # a failed call is counted, the run goes on
        return exc


# -- setup ------------------------------------------------------------------


def setup_probe(workload: str, seed: int, smoke: bool) -> None:
    """Child-process side of setup_s: time the import of hypident plus the
    workload's generation, probing the machine's speed around it; prints
    the raw and the speed-scaled time."""
    probe = speed.SpeedProbe()
    probe.probe()
    start = time.perf_counter()
    import_package()
    import workloads

    workloads.build(workload, seed, smoke)
    end = time.perf_counter()
    probe.probe()
    print(end - start, probe.scaled(start, end))


def measure_setup(workload: str, seed: int, smoke: bool, probe) -> tuple[list, list]:
    """Fresh-process set-up times, raw and speed-scaled.  For cli-fuzz, the
    wall time of a ``fuzz --count 0`` process; otherwise import of hypident
    plus instance generation, timed inside a child process."""
    if workload == "cli-fuzz":
        command = fuzz_command(("--count", "0"))
    else:
        command = [
            sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed),
        ] + (["--smoke"] if smoke else [])
    raw, scaled, intervals = [], [], []
    for _ in range(SETUP_RUNS):
        probe.probe()
        start = time.perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S
        )
        end = time.perf_counter()
        if done.returncode != 0:
            raise BenchError(f"set-up process failed: {done.stderr.decode()[-2000:]}")
        if workload == "cli-fuzz":
            raw.append(end - start)
            intervals.append((start, end))
        else:
            child_raw, child_scaled = (float(word) for word in done.stdout.split())
            raw.append(child_raw)
            scaled.append(child_scaled)
    probe.probe()
    scaled += [probe.scaled(start, end) for start, end in intervals]
    return raw, scaled


# -- runs -------------------------------------------------------------------


def closed_loop(calls, runner, gate: Gate, probe, deadline: float) -> list:
    """Call ``calls`` round and round, one at a time, probing the machine's
    speed between calls, until ``deadline``.  Returns (slot, start, end) of
    every correct call."""
    records = []
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        probe.maybe_probe()
        slot = index % len(calls)
        start = time.perf_counter()
        outcome = make_call(calls[slot], runner)
        end = time.perf_counter()
        if gate.record(slot, calls[slot], outcome):
            records.append((slot, start, end))
        index += 1
    probe.probe()
    return records


def call_metrics(calls, records, duration, top_slots=frozenset()) -> dict:
    """certs_per_s and per-instance percentiles, with ``duration(start, end)``
    giving each call's time.  A call's time is its median over its repeats
    in the run, and every call that ran counts once, so where the deadline
    cuts a pass does not change the mix.  certs_per_s is one pass's
    instances over the sum of those times.  top_rung_ms is the median time
    of the calls in ``top_slots``."""
    slot_times: dict[int, list[float]] = {}
    for slot, start, end in records:
        slot_times.setdefault(slot, []).append(duration(start, end))
    if not slot_times:  # every call failed; the result says so
        return {"certs_per_s": 0.0, "verify_p50_ms": 0.0, "verify_p90_ms": 0.0}
    medians = {slot: statistics.median(times) for slot, times in slot_times.items()}
    samples = [medians[slot] / calls[slot].instances for slot in medians]  # s per instance
    pass_s = sum(medians.values())
    p90 = statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]
    metrics = {
        "certs_per_s": sum(calls[slot].instances for slot in slot_times) / pass_s,
        "verify_p50_ms": statistics.median(samples) * 1e3,
        "verify_p90_ms": p90 * 1e3,
        "samples": len(samples),
        "samples_beyond_p90": sum(sample > p90 for sample in samples),
    }
    top = [t for slot in top_slots for t in slot_times.get(slot, ())]
    if top:
        metrics["top_rung_ms"] = statistics.median(top) * 1e3
    return metrics


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-fuzz" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def end_to_end(args, hypident, workloads, gate: Gate) -> tuple[dict, dict]:
    probe = speed.SpeedProbe()
    setup_raw, setup = measure_setup(args.workload, args.seed, args.smoke, probe)
    calls = workloads.build(args.workload, args.seed, args.smoke)
    if args.workload == "cli-fuzz":
        runner = run_fuzz_child
    else:
        runner = lambda call: run_verify(hypident, call)  # noqa: E731
    start = time.perf_counter()
    records = closed_loop(calls, runner, gate, probe, deadline=start + args.seconds)
    elapsed = time.perf_counter() - start
    top_slots = frozenset()
    if args.workload == "shift-ladder":
        top_j = max(call.instance.m[0] for call in calls)
        top_slots = {slot for slot, call in enumerate(calls) if call.instance.m[0] == top_j}
    metrics = call_metrics(calls, records, probe.scaled, top_slots)
    metrics.update(setup_s=statistics.median(setup), peak_rss_mb=peak_rss_mb(args.workload))
    raw = call_metrics(calls, records, lambda start, end: end - start, top_slots)
    raw["setup_s"] = statistics.median(setup_raw)
    details = {
        "calls_timed": len(records),
        "samples": metrics.get("samples", 0),
        "samples_beyond_p90": metrics.get("samples_beyond_p90", 0),
        "passes": round(gate.attempted / len(calls), 2),
        "elapsed_s": elapsed,
        "speed_scale": speed.REFERENCE_S / statistics.fmean(probe.times),
        "raw": {name: raw[name] for name in raw if name not in ("samples", "samples_beyond_p90")},
        "failed_frac": gate.failed / gate.attempted,
        "repeats_compared": gate.repeats,
    }
    if "top_rung_ms" in metrics:
        details["top_rung_ms"] = metrics["top_rung_ms"]
    return metrics, details


def traced(args, hypident, workloads, gate: Gate, wanted: list[str]) -> tuple[dict, dict]:
    import tracer as tracing

    tracer = tracing.Tracer()
    if args.workload == "cli-fuzz":
        calls = workloads.build(args.workload, args.seed, args.smoke)
        with tracer.installed():
            run_fuzz_in_process(workloads.Call(fuzz_args=("--count", "0")))
        runner = run_fuzz_in_process
    else:
        with tracer.installed():
            calls = workloads.build(args.workload, args.seed, args.smoke)
        runner = lambda call: run_verify(hypident, call)  # noqa: E731
    sizes = (workloads.SMOKE_SIZES if args.smoke else workloads.SIZES)[args.workload]
    subset = calls[: sizes.trace_calls]
    probe = speed.SpeedProbe()
    records = []  # (traced, start, end)
    for slot, call in enumerate(subset):
        # each call runs untraced and traced, alternately first, so neither
        # side gains from running second on a warm interpreter
        for tracing in (False, True) if slot % 2 == 0 else (True, False):
            probe.maybe_probe()
            tracer.call_id = slot
            with tracer.installed() if tracing else contextlib.nullcontext():
                start = time.perf_counter()
                outcome = make_call(call, runner)
                end = time.perf_counter()
            gate.record(slot, call, outcome)
            records.append((tracing, start, end))
    probe.probe()

    def total(side: bool, duration) -> float:
        return sum(duration(start, end) for tracing, start, end in records if tracing is side)

    untraced_raw, traced_raw = (total(side, lambda start, end: end - start) for side in (False, True))
    untraced_s, traced_s = (total(side, probe.scaled) for side in (False, True))
    metrics = tracer.metrics(wanted)
    for name in metrics:
        if name.endswith("self_s"):
            metrics[name] *= traced_s / traced_raw
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    out = HERE / "out" / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write(out)
    details = {
        "trace_calls": len(subset),
        "spans": len(tracer.spans),
        "spans_file": str(out.relative_to(ROOT)),
        "raw": {"trace.untraced_s": untraced_raw, "trace.traced_s": traced_raw},
        "missing_hooks": sorted(tracer.missing),
        "missing_metrics": [name for name in wanted if name not in metrics],
        "failed_frac": gate.failed / gate.attempted,
    }
    return metrics, details


def pin(hypident, workloads, names) -> None:
    """Record the digest of every call at each workload's default seed."""
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for workload in names:
        seed = workloads.DEFAULT_SEEDS[workload]
        calls = workloads.build(workload, seed)
        digests = []
        for call in calls:
            if workload == "cli-fuzz":
                passed, digest = run_fuzz_child(call)
            else:
                passed, digest = run_verify(hypident, call)
            if not passed:
                raise BenchError(f"{workload}: {call.label()} did not pass; not pinning")
            digests.append(digest)
        pins[workload] = {"seed": seed, "digests": digests}
        print(f"pinned {len(digests)} digests for {workload} at seed {seed}", file=sys.stderr)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the speed
    probes and the calls they correct share a core."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not supported here: the scaling is then coarser, not wrong


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--pin", action="store_true", help="rewrite the pinned digests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.setup_probe:
            setup_probe(args.workload, args.seed, args.smoke)
            return 0
        pin_to_one_cpu()
        hypident = import_package()
        import workloads

        if args.seed is None:
            args.seed = workloads.DEFAULT_SEEDS[args.workload]
        if args.pin:
            pin(hypident, workloads, [args.workload])
            return 0
        pinned = json.loads(PINS.read_text()).get(args.workload, {}) if PINS.exists() else {}
        use_pins = not args.smoke and pinned.get("seed") == args.seed
        gate = Gate(pinned.get("digests") if use_pins else None)
        if args.trace:
            wanted = [m["name"] for m in spec["per_layer"]]
            metrics, details = traced(args, hypident, workloads, gate, wanted)
        else:
            wanted = [m["name"] for m in spec["end_to_end"]]
            metrics, details = end_to_end(args, hypident, workloads, gate)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    correct = gate.failed == 0
    details.update(workload=args.workload, seed=args.seed, pinned=use_pins, errors=gate.errors)
    print("details: " + json.dumps(details), file=sys.stderr)
    for name in wanted:
        if name in metrics:
            print(f"  {name:45s} {metrics[name]:14.6g} {units[name]}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in wanted
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
