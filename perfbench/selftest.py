"""Self-test of the benchmark on tiny inputs (about half a minute).

    python3 perfbench/selftest.py

For each workload, in both trace modes, every metric BENCHMARK.json names
must print with its unit, and every metric that applies to the workload must
appear in the detail line. A planted wrong expected outcome must raise
fail_ratio above 0. Finally, a copy of the benchmark without the package
source must exit non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: bool, size) -> tuple[dict, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.run(workload, seed=3, seconds=0, trace=trace,
                sizes={"full": size, "warmup": size})
    detail, result = (json.loads(line) for line in buf.getvalue().splitlines()[-2:])
    return detail, result


def expect_metrics(result: dict, declared: list) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"metrics differ: {set(got) ^ set(want)} or units"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def plant(workload: str, size):
    """The tiny size with one expected outcome made wrong."""
    if workload == "catalog":
        return dataclasses.replace(size, reports=size.reports + 1)
    if workload == "ladder":
        wrong = dataclasses.replace(size.pairs[0], cosets=size.pairs[0].cosets + 1)
        return dataclasses.replace(size, pairs=(wrong,) + size.pairs[1:])
    wrong = dataclasses.replace(size.cases[0], expect="delta_h")
    return dataclasses.replace(size, cases=(wrong,) + size.cases[1:])


def check_workload(workload: str) -> None:
    cls, table = WORKLOADS[workload]
    tiny = table["tiny"]

    detail, result = tiny_run(workload, False, tiny)
    assert result["correct"] and result["failed"] == 0, detail
    assert result["attempted"] == detail["attempted"] >= 1
    expect_metrics(result, BENCHMARK["end_to_end"])
    for name in (*run.END_TO_END, "fail_ratio", *cls.metrics):
        assert detail["metrics"][name]["unit"] == run.UNITS[name], name
    assert detail["metrics"]["fail_ratio"]["value"] == 0
    assert set(detail["stamp"]) == {"nproc", "python", "numpy", "backend"}

    detail, result = tiny_run(workload, True, tiny)
    assert result["correct"], detail
    expect_metrics(result, BENCHMARK["per_layer"])

    detail, result = tiny_run(workload, False, plant(workload, tiny))
    assert not result["correct"] and result["failed"] > 0
    assert detail["metrics"]["fail_ratio"]["value"] > 0
    print(f"{workload}: metrics and units complete; planted outcome caught")


def check_bare_copy() -> None:
    bare = run.SPAN_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for rel in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / rel, bare / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120, check=False)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print("copy without the package: exits", proc.returncode)


if __name__ == "__main__":
    for name in WORKLOADS:
        check_workload(name)
    check_bare_copy()
    print("selftest passed")
