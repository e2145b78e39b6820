"""Runs bench_suite on study_obs and checks its report against BENCHMARK.json.

usage: check_names.py BENCH_SUITE BENCHMARK_JSON TRACE

Passes when bench_suite exits 0, its last stdout line is the result object
with correct=true, and the metrics it reports (and prints in its table) are
exactly the end_to_end (TRACE 0) or per_layer (TRACE 1) metrics of
BENCHMARK.json, with the same units.
"""
import json
import subprocess
import sys


def main():
    binary, spec_path, trace = sys.argv[1], sys.argv[2], sys.argv[3]
    with open(spec_path) as f:
        spec = json.load(f)
    expected = spec["per_layer" if trace == "1" else "end_to_end"]
    proc = subprocess.run(
        [binary, "--workload", "study_obs", "--seed", "7", "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"bench_suite exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    got = result.get("metrics", {})
    table = "\n".join(lines[:-1])
    for m in expected:
        if m["name"] not in got:
            problems.append(f"{m['name']} missing from the result")
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{m['name']} unit {got[m['name']]['unit']} != {m['unit']}")
        if m["name"] + " " not in table:
            problems.append(f"{m['name']} missing from the printed table")
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        problems.append(f"unlisted metrics {sorted(extra)}")
    if problems:
        sys.exit("\n".join(problems))


if __name__ == "__main__":
    main()
