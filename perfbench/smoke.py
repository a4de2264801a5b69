"""The benchmark's own smoke test.

Run from the repository root: ``python3 perfbench/smoke.py``.  It

* runs every workload of ``BENCHMARK.json`` briefly, untraced and
  traced, and checks that the report prints every end-to-end and
  per-layer metric with its unit and that nothing failed
  (``failed_ratio`` 0);
* runs every workload with one deliberately wrong expected answer
  (write-serve: the expected document digest) and checks that the
  checker reports it;
* checks that ``gen.py`` writes the same text and XML as the library
  generator ``repro.corpus.generator`` for small documents;
* runs the benchmark in a directory holding only ``BENCHMARK.json`` and
  the benchmark's files, where it must fail without printing a result.

It takes about five minutes on two CPUs and exits non-zero on the
first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "8"


def run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout.splitlines() + [done.stderr]


def result_of(lines: list[str], where: str) -> dict:
    """The result object printed last, or a failure showing stderr."""
    try:
        return json.loads(lines[-2])
    except (IndexError, ValueError):
        raise SystemExit(f"FAIL: {where} printed no result: "
                         f"{lines[-1][-2000:]}") from None


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def reported(result: dict, metric: dict) -> bool:
    """Whether the result object carries ``metric`` as a number in its
    unit."""
    printed = result["metrics"].get(metric["name"])
    return (isinstance(printed, dict)
            and printed.get("unit") == metric["unit"]
            and isinstance(printed.get("value"), (int, float)))


def check_run(workload: str, trace: int, wanted: list[dict]) -> None:
    code, lines = run("--workload", workload, "--seed", "1",
                      "--seconds", SECONDS, "--trace", str(trace))
    where = f"{workload} --trace {trace}"
    result = result_of(lines, where)
    check(code == 0, f"{where} exits 0")
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{where} prints the result object last")
    check(result["failed"] == 0 and result["correct"]
          and result["attempted"] >= 1,
          f"{where}: failed_ratio is 0 over {result['attempted']} "
          "attempted")
    missing = [metric["name"] for metric in wanted
               if not reported(result, metric)]
    check(not missing, f"{where} reports all {len(wanted)} metrics with "
                       f"their units (missing or wrong: {missing})")
    if trace == 0:
        report = "\n".join(lines[:-2])
        check(all(f"  {metric['name']} " in report for metric in wanted),
              f"{where} prints every metric in its report")


def check_generator() -> None:
    """``gen.generate`` against the library generator it replaces."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from gen import generate
    from repro.corpus.generator import GeneratorConfig, generate_document

    for n_words, seed in ((1, 0), (7, 3), (200, 1), (200, 2)):
        ours = generate(n_words, seed)
        library = generate_document(GeneratorConfig(n_words=n_words,
                                                    seed=seed))
        check(ours.text == library.text and ours.sources == {
            name: hierarchy.to_xml()
            for name, hierarchy in library.hierarchies.items()},
            f"gen.py writes the library generator's text and XML "
            f"({n_words} words, seed {seed})")


def main() -> int:
    check_generator()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        check_run(workload["name"], 0, spec["end_to_end"])
        check_run(workload["name"], 1, spec["per_layer"])

    for workload in spec["workloads"]:
        code, lines = run("--workload", workload["name"], "--seed", "1",
                          "--seconds", SECONDS, "--corrupt-expected")
        result = result_of(lines, f"{workload['name']} "
                                  "--corrupt-expected")
        check(code == 0 and not result["correct"]
              and result["failed"] >= 1,
              f"{workload['name']}: a wrong expected answer is reported "
              "as a failure")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run("--workload", "read-serve", "--seed", "1",
                          "--seconds", SECONDS, cwd=bare)
        check(code != 0 and not any(line.startswith("{")
                                    for line in lines),
              "without the program's source the run fails, printing "
              "no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
