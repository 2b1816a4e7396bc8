#!/usr/bin/env bash
# Repeatability of the benchmark on this machine.
#
# Runs --all twice with seed 1 and once with seed 2; prints the relative
# difference of every workload x end-to-end metric; fails if a same-seed
# pair differs by more than the metric's bound (from ../BENCHMARK.json),
# or any gate fails; writes baseline/run-a.json and baseline/run-b.json
# (the two seed-1 runs) with nproc and the CPU model. About 6 minutes.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline --quiet
exec python3 - <<'PY'
import json, os, subprocess, sys

spec = json.load(open("../BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
workloads = [w["name"] for w in spec["workloads"]]


def results(seed):
    """Runs --all with `seed`; returns {workload: {metric: value}}."""
    run = ["cargo", "run", "--release", "--offline", "--quiet", "--", "--all", "--seed", seed]
    proc = subprocess.run(run, stdout=subprocess.PIPE, text=True)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith('{"correct"')]
    if proc.returncode != 0 or not all(l["correct"] for l in lines):
        sys.exit(f"a correctness gate failed with seed {seed}")
    return {w: {k: v["value"] for k, v in l["metrics"].items()} for w, l in zip(workloads, lines)}


def machine():
    model = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo")
                  if l.startswith("model name")), "unknown")
    return {"nproc": os.cpu_count(), "cpu_model": model}


a, b, c = (results(seed) for seed in ("1", "1", "2"))
failed = False
print(f"{'workload':<14} {'metric':<18} {'run a':>12} {'run b':>12} {'b vs a':>8} "
      f"{'seed 2':>12} {'vs a':>8} {'bound':>6}")
for w in workloads:
    for metric, bound in bounds.items():
        va, vb, vc = a[w][metric], b[w][metric], c[w][metric]
        same, other = abs(vb - va) / va, abs(vc - va) / va
        failed |= same > bound
        print(f"{w:<14} {metric:<18} {va:>12.4f} {vb:>12.4f} {same:>8.3f} "
              f"{vc:>12.4f} {other:>8.3f} {bound:>6.2f}{'  FAIL' if same > bound else ''}")
os.makedirs("baseline", exist_ok=True)
for name, run_results in (("run-a", a), ("run-b", b)):
    doc = {"machine": machine(), "seed": 1, "run_seconds": spec["run_seconds"],
           "results": run_results}
    with open(f"baseline/{name}.json", "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
sys.exit(1 if failed else 0)
PY
