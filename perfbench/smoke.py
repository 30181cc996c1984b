"""Smoke test of the benchmark at minimal size: one second per workload.

    python3 perfbench/smoke.py

Runs every workload untraced and traced at the default seed (each in a fresh
interpreter, through ``run.py --workload all``) and checks that
- every run is correct (outputs digest as recorded, no unexpected failure)
  and reports no failed op;
- every end-to-end metric of BENCHMARK.json, and error_rate, is printed with
  its unit for every workload, and every per-layer metric in the traced run;
- the JSON result of each run carries exactly the metrics BENCHMARK.json lists;
- error_rate is 0 on pg25-warm and intake-cold.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(trace: int) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"smoke: {' '.join(cmd)} exited with {proc.returncode}")
    return proc.stdout.splitlines()


def check(lines: list[str], want: dict[str, str], workloads: list[str], errors: list[str]):
    printed = {}
    values = {}
    results = {}
    current = None
    for ln in lines:
        parts = ln.split()
        if ln.startswith("provenance "):
            current = json.loads(ln[len("provenance "):])["workload"]
        elif ln.startswith("metric ") and len(parts) == 5:
            printed[(parts[1], parts[2])] = parts[4]
            values[(parts[1], parts[2])] = float(parts[3])
        elif ln.startswith("{") and current is not None:
            results[current] = json.loads(ln)
            current = None
    for wl in workloads:
        res = results.get(wl)
        if res is None:
            errors.append(f"{wl}: no result line")
            continue
        if not res["correct"]:
            errors.append(f"{wl}: run not correct")
        extra = set(res["metrics"]) ^ (set(want) - {"error_rate"})
        if extra:
            errors.append(f"{wl}: result metrics differ from BENCHMARK.json by {sorted(extra)}")
        for name, unit in want.items():
            got = printed.get((wl, name))
            if got != unit:
                errors.append(f"{wl}: metric {name} printed with unit {got!r}, want {unit!r}")
        if res["failed"] != 0:
            errors.append(f"{wl}: {res['failed']} of {res['attempted']} ops failed, want 0")
        if wl in ("pg25-warm", "intake-cold") and values.get((wl, "error_rate")) != 0:
            errors.append(f"{wl}: error_rate is {values.get((wl, 'error_rate'))}, want 0")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    end_to_end["error_rate"] = "ratio"
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    per_layer["error_rate"] = "ratio"
    errors: list[str] = []
    check(run(0), end_to_end, workloads, errors)
    check(run(1), per_layer, workloads, errors)
    for e in errors:
        print("smoke: " + e)
    print("smoke: " + ("FAIL" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
