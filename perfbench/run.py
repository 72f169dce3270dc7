"""gobgraph benchmark: end-to-end and per-module metrics for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/, nothing is installed.  Each round runs the workload's gobgraph
commands, one process each, at --workers 1, and checks every output.
Rounds repeat until --seconds have passed, so the last one may end later.

--trace 0 prints the end-to-end metrics, medians over the rounds.
--trace 1 runs one plain round, then at least two traced rounds, and
prints the per-module metrics.
The last line of standard output is one JSON object; a record of the run
(versions, machine, seed, CSV digests, raw timings) goes to .perfbench/.
"""

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# Every child is killed once the run has lasted --seconds plus this long:
# room for the last round and the extra rounds a traced run needs (a round
# takes at most about 22 s).
ROUND_ALLOWANCE_S = 110.0

# The documented simplex configs (docs/simplex_connectivity.yaml and
# docs/simplex_giant.yaml), written out here so the benchmark owns them.
SIMPLEX = {"family": "simplex", "coeff": 1.0}
EXACT_SIMPLEX = {"method": "exact_simplex", "seed": 20260824}
SIMPLEX_CONNECTIVITY = {
    "model": SIMPLEX, "sampler": EXACT_SIMPLEX,
    "scan": {"n_list": [50, 100, 200, 400], "replicates": 500, "beta": 2.0,
             "pilot_draws": 500,
             "grid": {"kind": "gamma",
                      "gammas": [0.4, 0.55, 0.7, 0.85, 1.0, 1.2, 1.5]}},
}
SIMPLEX_GIANT = {
    "model": SIMPLEX, "sampler": EXACT_SIMPLEX,
    "scan": {"n_list": [400], "replicates": 500, "beta": 2.0, "pilot_draws": 500,
             "grid": {"kind": "gamma", "gammas": [0.25, 0.5, 1, 2, 4, 8],
                      "sigma_normalized": True}},
}
# The docs/gob_mixed.yaml model.  The chains start at the analytic centre,
# from which 300 steps bring G(X) to its law at d = 28 (the origin-nudge
# start needs several times more); thinning is the extra steps each
# replicate's one-draw chain runs.
GOB_Q, GOB_RATE = 2.0, 1.5
GOB_RADIAL = {
    "model": {"family": "gob", "component": {"kind": "power", "a": 1.0, "q": GOB_Q},
              "radial_density": {"kind": "exponential", "rate": GOB_RATE}},
    "sampler": {"method": "hit_and_run", "seed": 20260824, "burn_in": 300,
                "thinning": 10, "start": "analytic_center"},
    "scan": {"n_list": [6, 8], "replicates": 30, "beta": 2.0, "pilot_draws": 60,
             "grid": {"kind": "gamma", "gammas": [0.5, 1, 2, 3, 4, 6, 8]}},
}
# `nc-test` is left out: its 3-sigma rule, applied to each of its
# configurations without correction, flags the simplex (where negative
# correlation holds) on a fraction of seeds, so failures would depend on
# the seed.
ESTIMATORS_N = 60
ESTIMATORS = {
    "model": {"family": "simplex", "n": ESTIMATORS_N},
    "sampler": {"method": "exact_simplex", "seed": 20260824},
    "moments": {"reps": 20000},
}


def _scan_vectors(cfg):
    scan = cfg["scan"]
    return len(scan["n_list"]) * (scan["pilot_draws"] + scan["replicates"])


def _check_simplex_scan(mode, cfg):
    scan = cfg["scan"]

    def check(out, record):
        rows = checks.read_csv(out / f"scan_{mode}.csv")
        return checks.simplex_scan(rows, mode, scan["n_list"], scan["grid"]["gammas"],
                                   scan["replicates"], scan["pilot_draws"])
    return check


def _check_gob_scan(out, record):
    scan = GOB_RADIAL["scan"]
    index = record["vectors"]["index"]
    with np.load(out.parent / record["vectors"]["file"]) as data:
        captured = [(n, key, data[f"v{i}"]) for i, (n, key) in enumerate(index)]
    rows = checks.read_csv(out / "scan_connectivity.csv")
    return checks.gob_radial_scan(rows, captured, scan["grid"]["gammas"],
                                  scan["n_list"], scan["replicates"],
                                  scan["pilot_draws"], GOB_Q, GOB_RATE)


def _check_moments(out, record):
    return checks.simplex_moments(out / "moments.csv", ESTIMATORS_N,
                                  ESTIMATORS["moments"]["reps"])


class Command:
    def __init__(self, name, config, vectors, check, csv, capture=False):
        self.name = name          # gobgraph subcommand
        self.config = config
        self.vectors = vectors    # edge vectors the command draws (fixed by config)
        self.check = check
        self.csv = csv            # emitted CSV whose digest is recorded
        self.capture = capture


WORKLOADS = {
    # The per-p pure-Python union-find in graph dominates; n = 400 pilot
    # chunks set peak memory.
    "simplex-scans": [
        Command("scan-connectivity", SIMPLEX_CONNECTIVITY,
                _scan_vectors(SIMPLEX_CONNECTIVITY),
                _check_simplex_scan("connectivity", SIMPLEX_CONNECTIVITY),
                "scan_connectivity.csv"),
        Command("scan-giant", SIMPLEX_GIANT, _scan_vectors(SIMPLEX_GIANT),
                _check_simplex_scan("giant", SIMPLEX_GIANT), "scan_giant.csv"),
    ],
    # Hit-and-run with chord bisection and the radial chord grid; tiny graphs.
    "gob-radial-scan": [
        Command("scan-connectivity", GOB_RADIAL, _scan_vectors(GOB_RADIAL),
                _check_gob_scan, "scan_connectivity.csv", capture=True),
    ],
    # Whole reps x d exact draws; no graph, no chords.
    "simplex-estimators": [
        Command("moments", ESTIMATORS, ESTIMATORS["moments"]["reps"],
                _check_moments, "moments.csv"),
    ],
}


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_child(argv, log_path, timeout):
    """Run argv; return (exit code, wall start, wall end, peak RSS in MB).

    The child is waited for without being reaped first (WNOWAIT), so the
    timeout can never signal a recycled pid; wait4 then gives its rusage.
    """
    lock = threading.Lock()
    state = {"exited": False}
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)

        def kill():
            with lock:
                if not state["exited"]:
                    proc.kill()

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        end = time.monotonic()
        with lock:
            state["exited"] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss * 1024 / 1e6


TIMES = ("wall", "setup", "rss_mb")


class Run:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.commands = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.deadline = seconds + ROUND_ALLOWANCE_S
        self.started = time.monotonic()
        self.work = STATE / "work" / f"{workload}-s{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        for i, cmd in enumerate(self.commands):
            cmd.path = self.work / f"config{i}.yaml"
            cmd.path.write_text(json.dumps(cmd.config, indent=1))  # JSON is YAML

    def elapsed(self):
        return time.monotonic() - self.started

    def command(self, i, cmd, mode):
        """One operation: a command and the checks of its output."""
        out = self.work / f"out{i}"
        record_path = self.work / f"record{i}.json"
        record_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), str(SRC), str(record_path), mode]
        if cmd.capture:
            argv.append("--capture")
        argv += ["--", cmd.name, "--config", str(cmd.path), "--out", str(out),
                 "--seed", str(self.seed), "--workers", "1"]
        self.attempted += 1
        code, start, end, rss = run_child(argv, self.work / f"log{i}.txt",
                                          self.deadline - self.elapsed())
        record = None
        if record_path.exists():
            record = json.loads(record_path.read_text())
        problems = []
        if code != 0 or record is None or record["first_draw"] is None:
            log = (self.work / f"log{i}.txt").read_text()[-2000:]
            problems.append(f"{cmd.name} exited {code}:\n{log}")
        else:
            try:
                problems = cmd.check(out, record)
                digests = self.digests.setdefault(cmd.name, [])
                digests.append(sha256(out / cmd.csv))
                if digests[-1] != digests[0]:
                    problems.append(f"{cmd.csv} differs between rounds at one seed")
            except Exception:  # a check that cannot run is a failed check
                problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            self.problems += [f"{cmd.name}: {p}" for p in problems]
            return None
        return {"wall": end - start, "setup": record["first_draw"] - start,
                "rss_mb": rss, "record": record}

    def round(self, mode):
        results = [self.command(i, cmd, mode) for i, cmd in enumerate(self.commands)]
        if any(r is None for r in results):
            return None
        return {"wall": sum(r["wall"] for r in results),
                "setup": sum(r["setup"] for r in results),
                "rss_mb": max(r["rss_mb"] for r in results),
                "commands": [{"command": cmd.name, **{k: r[k] for k in TIMES}}
                             for cmd, r in zip(self.commands, results)],
                "records": [r["record"] for r in results]}

    def repeat(self, mode, minimum):
        """Whole rounds in `mode` until `seconds` have passed since the run
        began; returns those in which every operation passed."""
        out = []
        for done in itertools.count(1):
            result = self.round(mode)
            if result is not None:
                out.append(result)
            if done >= minimum and self.elapsed() >= self.seconds:
                return out

    def vectors(self):
        return sum(cmd.vectors for cmd in self.commands)


def end_to_end(run):
    rounds = run.repeat("plain", 1)
    if not rounds:
        return None, {}
    vectors = run.vectors()
    metrics = {
        "setup_s": (statistics.median([r["setup"] for r in rounds]), "s"),
        "wall_s": (statistics.median([r["wall"] for r in rounds]), "s"),
        "vectors_per_s": (statistics.median(
            [vectors / (r["wall"] - r["setup"]) for r in rounds]), "1/s"),
        "peak_rss_mb": (statistics.median([r["rss_mb"] for r in rounds]), "MB"),
    }
    raw = {"rounds": [_raw(r) for r in rounds]}
    return metrics, raw


def _raw(r):
    return {**{k: r[k] for k in TIMES}, "commands": r["commands"]}


def _layer(records):
    """Per-module metrics of one traced round (records of its commands)."""
    calls, ns, child_ns, counts = {}, {}, {}, {}
    for rec in records:
        for span in rec["trace"]["spans"]:
            name, parent = span["name"], span["parent"]
            calls[name] = calls.get(name, 0) + span["calls"]
            ns[name] = ns.get(name, 0) + span["ns"]
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + span["ns"]
        for key, val in rec["trace"]["counts"].items():
            counts[key] = max(counts.get(key, 0), val) if key.endswith("_mb") \
                else counts.get(key, 0) + val

    def s(name):
        return ns.get(name, 0) / 1e9

    def n(name):
        return calls.get(name, 0)

    def c(key):
        return counts.get(key, 0)

    def self_s(name):
        return s(name) - child_ns.get(name, 0) / 1e9

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    draw_s = s("samplers.draw") + s("samplers.hr_draw")
    return {
        "cli.import_s": (sum(r["import_s"] for r in records), "s"),
        "config.parse_s": (s("config.parse"), "s"),
        "config.build_spec_calls": (n("config.build_spec"), "count"),
        "config.build_spec_s": (s("config.build_spec"), "s"),
        "graph.build_graph_calls": (n("graph.build_graph"), "count"),
        "graph.build_graph_s": (s("graph.build_graph"), "s"),
        "graph.edges_kept": (c("graph.edges_kept"), "count"),
        "graph.components_calls": (n("graph.components"), "count"),
        "graph.components_s": (s("graph.components"), "s"),
        "graph.components_us": (ratio(s("graph.components"), n("graph.components"),
                                      1e6), "us"),
        "samplers.draw_calls": (n("samplers.draw") + n("samplers.hr_draw"), "count"),
        "samplers.vectors": (c("samplers.vectors"), "count"),
        "samplers.draw_s": (draw_s, "s"),
        "samplers.coords_per_s": (ratio(c("samplers.coords"), draw_s), "1/s"),
        "samplers.hr_steps": (c("samplers.hr_steps"), "count"),
        "samplers.hr_step_us": (ratio(s("samplers.hr_draw"), c("samplers.hr_steps"),
                                      1e6), "us"),
        "samplers.validate_s": (s("samplers.validate"), "s"),
        "orlicz.chord_calls": (n("orlicz.chord"), "count"),
        "orlicz.chord_s": (s("orlicz.chord"), "s"),
        "orlicz.total_calls": (c("orlicz.total_calls"), "count"),
        "orlicz.total_calls_per_chord": (ratio(c("orlicz.total_calls"),
                                               n("orlicz.chord")), "calls/chord"),
        "orlicz.total_batch_calls": (n("orlicz.total_batch"), "count"),
        "orlicz.total_batch_s": (s("orlicz.total_batch"), "s"),
        "experiments.run_scan_s": (s("experiments.run_scan"), "s"),
        "experiments.cells": (c("experiments.cells"), "count"),
        "experiments.self_s": (self_s("experiments.run_scan"), "s"),
        "rng.substream_calls": (n("rng.substream"), "count"),
        "rng.substream_s": (s("rng.substream"), "s"),
        "estimators.calls": (n("estimators.call"), "count"),
        "estimators.s": (s("estimators.call"), "s"),
        "estimators.self_s": (self_s("estimators.call"), "s"),
        "estimators.array_mb": (c("estimators.array_mb"), "MB_computed"),
        "report.emit_s": (s("report.emit"), "s"),
        "report.bytes_written": (c("report.bytes_written"), "B"),
    }


COUNT_UNITS = ("count", "B", "MB_computed", "calls/chord")


def per_layer(run):
    plain = run.round("plain")
    traced = run.repeat("trace", 2)
    if plain is None or not traced:
        return None, {}
    layers = [_layer(r["records"]) for r in traced]
    metrics = {}
    for key, (val, unit) in layers[0].items():
        vals = [layer[key][0] for layer in layers]
        if unit in COUNT_UNITS:
            if len(set(vals)) != 1:
                run.problems.append(f"count {key} differs between traced rounds: {vals}")
            metrics[key] = (vals[0], unit)
        else:
            metrics[key] = (statistics.median(vals), unit)
    if layers[0]["samplers.vectors"][0] != run.vectors():
        run.problems.append(f"samplers drew {layers[0]['samplers.vectors'][0]} vectors, "
                            f"the configs ask for {run.vectors()}")
    traced_wall = statistics.median([r["wall"] for r in traced])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain["wall"], "s")
    raw = {"rounds": [_raw(plain)], "traced": [_raw(r) for r in traced]}
    return metrics, raw


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def versions():
    out = {"python": platform.python_version()}
    for dist in ("numpy", "scipy", "PyYAML", "networkx"):
        try:
            out[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            out[dist] = None
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gobgraph" / "cli.py").is_file():
        print(f"no gobgraph source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds)
    try:
        metrics, raw = (per_layer if args.trace else end_to_end)(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "versions": versions(), "nproc": os.cpu_count(),
        "git_commit": git_commit(), "attempted": run.attempted, "failed": run.failed,
        "csv_sha256": run.digests, "raw": raw, "problems": run.problems,
        "metrics": metrics,
    }
    records = STATE / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = records / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(f"run record: {path.relative_to(ROOT)}")
    if metrics is None:
        print("the workload stopped at a failed operation", file=sys.stderr)
        return 1

    result = {
        "correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
