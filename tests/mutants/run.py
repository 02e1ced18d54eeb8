"""Mutation check of the tier-1 suite: does it notice a broken route?

    python tests/mutants/run.py            # every mutant in mutants.json
    python tests/mutants/run.py NAME ...   # only the named ones

Each entry of ``mutants.json`` is one exact edit: a ``file`` relative to the
repository root, a ``snippet`` that must occur exactly once in it, its
``replacement``, a ``name`` and a ``reason`` (the fault it stands for).  An
entry may carry ``survive``, the reason the suite cannot catch it yet.

The mutants run strictly one after another.  Each gets a fresh temporary
copy of src/, tests/, demos/ and pyproject.toml, with its one edit applied,
and tier-1 runs there under ``pytest -x -q -p no:cacheprovider`` with a
timeout.  A mutant is killed when the suite fails (or times out), with the
first failing test as its catcher, and survives when the suite passes.  The
report lists each mutant, then the kill rate.

The exit status is 1 when an unmarked mutant survives, a marked one is killed
(its ``survive`` mark is stale) or a snippet does not occur exactly once,
else 0.  Only the standard library is used; pytest runs as a child process
and does not collect this file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MUTANTS = Path(__file__).resolve().with_name("mutants.json")
COPIED = ["src", "tests", "demos", "pyproject.toml"]
TIMEOUT_S = 300  # a survivor costs one whole tier-1 run, about 20 s


def check_snippets(mutants: list[dict]) -> list[str]:
    """One line per mutant whose snippet does not occur exactly once."""
    problems = []
    for mutant in mutants:
        count = (ROOT / mutant["file"]).read_text().count(mutant["snippet"])
        if count != 1:
            problems.append(f"{mutant['name']}: snippet occurs {count} times in {mutant['file']}")
    return problems


def first_failure(output: str) -> str:
    """The first failing test id of a ``pytest -q`` run, from its summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return ""


def run_one(mutant: dict) -> tuple[bool, str]:
    """(killed, catcher) for the mutant, from tier-1 in a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in COPIED:
            source, target = ROOT / name, Path(tmp) / name
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, target)
        path = Path(tmp) / mutant["file"]
        path.write_text(path.read_text().replace(mutant["snippet"], mutant["replacement"]))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "--continue-on-collection-errors"]
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            result = subprocess.run(command, cwd=tmp, env=env, capture_output=True, text=True,
                                    timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, f"timeout after {TIMEOUT_S} s"
    if result.returncode == 0:
        return False, ""
    return True, first_failure(result.stdout) or f"pytest exit {result.returncode}"


def main(names: list[str]) -> int:
    mutants = json.loads(MUTANTS.read_text())
    unknown = set(names) - {mutant["name"] for mutant in mutants}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}")
        return 1
    if names:
        mutants = [mutant for mutant in mutants if mutant["name"] in names]
    problems = check_snippets(mutants)
    if problems:
        print("\n".join(problems))
        return 1
    killed = 0
    for mutant in mutants:
        start = time.perf_counter()
        was_killed, catcher = run_one(mutant)
        killed += was_killed
        marked = "survive" in mutant
        if was_killed and marked:
            problems.append(f"{mutant['name']}: killed, so its survive mark is stale")
        elif not was_killed and not marked:
            problems.append(f"{mutant['name']}: survived")
        verdict, note = ("killed", catcher) if was_killed else ("survived", mutant.get("survive", ""))
        print(f"{mutant['name']:<28} {verdict:<8} {note} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"kill rate: {killed}/{len(mutants)} ({100 * killed / len(mutants):.0f} %)")
    if problems:
        print("\n".join(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
