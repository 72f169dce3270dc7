"""Steadiness check: run the suite twice and compare each end-to-end
metric's spread and drift with its bound from BENCHMARK.json.

    python3 perfbench/steady.py [--workload NAME ...]

Each of the two sets runs every workload ten times, with seeds 1000-1009
in the first set and 2000-2009 in the second.  Per set, a metric's spread
is the distance between the first and third quartiles of its values
(statistics.quantiles, n=4) over their median; its drift is the distance
between the two sets' medians over the first set's median.  A metric
passes when both spreads and the drift are within its bound; the share of
failed operations must be the same in both sets.  A summary goes to
.perfbench/steady-*.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEED_BASES = (1000, 2000)   # one set of runs per base
RUNS = 10                   # runs per workload and set, seeds base + 0..RUNS-1


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}   # workload -> [set -> [result]]
    for k, base in enumerate(SEED_BASES):
        for w in workloads:
            runs = []
            for seed in range(base, base + RUNS):
                res = one_run(w, seed, bench["run_seconds"])
                print(f"set {k} {w} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} " + " ".join(
                          f"{m}={v['value']:.6g}" for m, v in res["metrics"].items()),
                      flush=True)
                runs.append(res)
            results[w].append(runs)

    ok = True
    summary = {}
    print(f"\n{'workload':20} {'metric':15} {'bound':>6} "
          + " ".join(f"{'spread' + str(k):>8}" for k in range(len(SEED_BASES)))
          + f" {'drift':>8}")
    for w in workloads:
        sets = results[w]
        shares = {sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets}
        if len(shares) != 1 or not all(r["correct"] for s in sets for r in s):
            ok = False
            print(f"{w}: failed shares {shares} or incorrect output")
        for name, spec in bounds.items():
            vals = [[r["metrics"][name]["value"] for r in s] for s in sets]
            spreads = [spread(v) for v in vals]
            meds = [statistics.median(v) for v in vals]
            drifts = [abs(m - meds[0]) / meds[0] for m in meds[1:]]
            bound = spec["bound"]
            good = all(d <= bound for d in drifts + spreads)
            ok &= good
            summary.setdefault(w, {})[name] = {
                "bound": bound, "spreads": spreads, "medians": meds, "drifts": drifts,
                "within_third": all(s <= bound / 3 for s in spreads), "ok": good}
            print(f"{w:20} {name:15} {bound:6.3f} "
                  + " ".join(f"{s:8.4f}" for s in spreads) + " "
                  + " ".join(f"{d:8.4f}" for d in drifts) + ("" if good else "  OUT"))
    out = ROOT / ".perfbench" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"summary": summary, "runs": results}, indent=1))
    print(f"\n{'steady' if ok else 'NOT steady'}; details in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
