"""Smoke check for the benchmark; takes under a minute.

    python3 perfbench/smoke.py

- A tiny run of each workload, untraced and traced, is correct and emits
  exactly the metric names that BENCHMARK.json declares.
- Building a seed's inputs twice gives byte-identical files and inputs.
- In a directory holding only BENCHMARK.json and perfbench/, run.py exits
  with a non-zero status and prints no result.
"""

from __future__ import annotations

import filecmp
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads


def check_metric_names(problems: list[str]) -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        names = {m["name"] for m in declared[key]}
        for workload in workloads.WORKLOADS:
            result = run.run_benchmark(workload, 1, 0.5, trace, tiny=True)
            got = set(result["metrics"])
            label = f"{workload} trace={int(trace)}"
            if got != names:
                problems.append(
                    f"{label}: missing {sorted(names - got)}, undeclared {sorted(got - names)}"
                )
            if not result["correct"]:
                problems.append(f"{label}: {result['details']['failures']}")


def check_inputs_repeat(problems: list[str]) -> None:
    lib = run.load_library()
    run.OUT.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        built = []
        for _ in range(2):
            tmp = Path(tempfile.mkdtemp(dir=run.OUT))
            ctx = workloads.Context(lib, 5, False, run.CORPUS, lib.reference_lex, tmp)
            ops, probes = workloads.build_round(ctx, workload, 1)
            built.append((tmp, [op.inputs.replace(str(tmp), "") for op in ops + probes]))
        (first, inputs_a), (second, inputs_b) = built
        if inputs_a != inputs_b:
            problems.append(f"{workload}: op inputs differ between two builds")
        if not _same_tree(first, second):
            problems.append(f"{workload}: generated files differ between two builds")
        shutil.rmtree(first)
        shutil.rmtree(second)


def _same_tree(a: Path, b: Path) -> bool:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all(
        filecmp.cmp(a / rel, b / rel, shallow=False) for rel in files_a
    )


def check_refuses_bare_directory(problems: list[str]) -> None:
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "files", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("run.py outside a checkout did not fail cleanly")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    problems: list[str] = []
    check_metric_names(problems)
    check_inputs_repeat(problems)
    check_refuses_bare_directory(problems)
    for problem in problems:
        print("smoke:", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
