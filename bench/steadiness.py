"""Do two separate sets of runs of this checkout agree within the benchmark's bounds?

    python3 bench/steadiness.py

Runs the command in BENCHMARK.json untraced, first set A over every
workload, then set B, so slow drift of the machine shows up as a difference
between the sets. Set A uses seeds 1-5 and set B seeds 6-10. For each
workload and end-to-end metric it prints both medians with their quartiles,
the spread of each set (interquartile range over median), the spread of all
runs pooled, and whether the sets agree: B's median differs from A's, in
either direction, by at most the metric's bound, and each set's spread is
within the bound. It also compares the share of failed operations, which
must be equal.
Raw results are written to ``bench/_work/steadiness.json``. Exit code 1 if
any metric disagrees.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT = 900
RUNS = 5  # runs per set and workload
FIRST_SEED = 1  # set A's first seed; set B follows on


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} reported incorrect output:\n{proc.stderr}")
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    results = {"A": {w: [] for w in workloads}, "B": {w: [] for w in workloads}}
    for offset, name in ((0, "A"), (RUNS, "B")):
        for w in workloads:
            for i in range(RUNS):
                seed = FIRST_SEED + offset + i
                results[name][w].append(run_once(spec, w, seed))
                print(f"set {name} {w} seed {seed} done", file=sys.stderr)
    out_dir = ROOT / "bench" / "_work"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steadiness.json").write_text(json.dumps(results, indent=1))

    all_agree = True
    print(f"{'workload':<15} {'metric':<23} {'bound':>5} {'A median [q1, q3]':>29} "
          f"{'B median [q1, q3]':>29} {'B/A-1':>7} {'sprA':>6} {'sprB':>6} {'pool':>6}  verdict")
    for w in workloads:
        names = sorted({n for r in results["A"][w] + results["B"][w] for n in r["metrics"]})
        for n in names:
            m = metrics[n]
            a = [r["metrics"][n]["value"] for r in results["A"][w]]
            b = [r["metrics"][n]["value"] for r in results["B"][w]]
            (ma, a1, a3, sa), (mb, b1, b3, sb) = spread(a), spread(b)
            pooled = spread(a + b)[3]
            change = mb / ma - 1
            ok = abs(change) <= m["bound"] and max(sa, sb) <= m["bound"]
            steady = pooled < m["bound"] / 3
            all_agree &= ok
            verdict = ("agree" if ok else "DISAGREE") + ("" if steady else ", spread > bound/3")
            print(f"{w:<15} {n:<23} {m['bound']:>5.2f} "
                  f"{ma:>10.4g} [{a1:>8.4g}, {a3:>8.4g}] {mb:>10.4g} [{b1:>8.4g}, {b3:>8.4g}] "
                  f"{change:>+7.3f} {sa:>6.3f} {sb:>6.3f} {pooled:>6.3f}  {verdict}")
        shares = [sum(r["failed"] for r in results[s][w]) / sum(r["attempted"] for r in results[s][w])
                  for s in ("A", "B")]
        all_agree &= shares[0] == shares[1]
        print(f"{w:<15} {'failed share':<23} A {shares[0]:.6f}  B {shares[1]:.6f}  "
              f"{'agree' if shares[0] == shares[1] else 'DISAGREE'}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
