"""Tiny-size smoke check of the benchmark itself; no timing gates.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

For every workload it runs ``run.py --tiny`` once untraced and twice
traced, each in a fresh process, and checks that:

- the last line of output is the result object with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``;
- every op passed its correctness check;
- every metric of ``BENCHMARK.json`` is emitted, with its unit;
- count metrics (units ``count`` and ``GFLOP``) are identical in the two
  traced runs of one seed;
- ``layer_map.json`` names every per-layer metric, and only known
  workloads and end-to-end metrics.

Exits 0 when everything holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_UNITS = ("count", "GFLOP")
RUN_TIMEOUT_S = 170


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} trace={trace}: exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "layer_map.json")) as fh:
        layer_map = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    problems = []

    def expect(ok: bool, message: str):
        if not ok:
            problems.append(message)

    mapped = {row["metric"] for row in layer_map["layers"]}
    for spec in bench["per_layer"]:
        expect(spec["name"] in mapped, f"layer_map.json lacks {spec['name']}")
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for row in layer_map["layers"]:
        for name, moves in row["moves"].items():
            expect(name in workloads, f"layer_map.json names unknown workload {name}")
            expect(set(moves) <= end_to_end, f"layer_map.json: unknown metric in {moves}")

    for workload in workloads:
        results = {0: [run(workload, 0)], 1: [run(workload, 1), run(workload, 1)]}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            for result in results[trace]:
                tag = f"{workload} trace={trace}"
                expect(
                    sorted(result) == ["attempted", "correct", "failed", "metrics"],
                    f"{tag}: result keys {sorted(result)}",
                )
                expect(result["correct"] is True, f"{tag}: not correct")
                expect(result["attempted"] >= 1, f"{tag}: no ops attempted")
                expect(result["failed"] == 0, f"{tag}: {result['failed']} ops failed")
                emitted = {n: m["unit"] for n, m in result["metrics"].items()}
                wanted = {m["name"]: m["unit"] for m in bench[kind]}
                expect(emitted == wanted, f"{tag}: metrics or units differ")
        first, second = (r["metrics"] for r in results[1])
        for spec in bench["per_layer"]:
            name = spec["name"]
            if spec["unit"] in COUNT_UNITS and name in first and name in second:
                expect(
                    first[name]["value"] == second[name]["value"],
                    f"{workload}: count {name} differs between traced runs "
                    f"({first[name]['value']} vs {second[name]['value']})",
                )
        print(f"{workload}: checked", flush=True)

    for message in problems:
        print(f"FAIL {message}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
