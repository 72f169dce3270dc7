"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 validation failure,
4 I/O error.  Internal errors are not config errors: a broken invariant
inside a run (a RuntimeError, such as two components of order > n/2 in
one scan graph) is not caught here and ends the command with a traceback
and exit status 1.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import config as cfgmod
from .config import ConfigError, build_spec, config_hash, n_list, parse_config
from .estimators import estimate_moments, nc_test
from .experiments import (connectivity_scan, er_connectivity_oracle, giant_scan,
                          threshold_locator)
from .report import emit_csv, emit_plotdata
from .rng import substream
from .samplers import make_sampler, validate_sampler
from .edges import edge_pairs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

# fixed stream key tags so every command draws from disjoint substreams
_TAG_SAMPLE = 101
_TAG_MOMENTS = 102
_TAG_NC = 103
_TAG_VALIDATE = 104
_TAG_MARGINAL = 105


class ValidationFailure(Exception):
    pass


def _load(args, scan_mode="connectivity"):
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    cfg = parse_config(text, scan_mode=scan_mode)
    seed = args.seed if args.seed is not None else cfg.sampler.seed
    return cfg, int(seed)


def _write_manifest(out_dir, command, cfg, seed):
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "command": command,
        "master_seed": seed,
        "config_hash": config_hash(cfg, seed),
        "config": cfgmod.normalized(cfg),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _single_spec(cfg):
    ns = n_list(cfg)
    if len(ns) != 1:
        raise ConfigError("this command needs a single n (set model.n)")
    return build_spec(cfg.model, ns[0])


def _maybe_validate(cfg, spec, seed, force):
    """Gate hit-and-run scans on the exact-vs-MCMC KS battery."""
    if cfg.sampler.method != "hit_and_run":
        return None
    pair = (substream(seed, (_TAG_VALIDATE, 0)), substream(seed, (_TAG_VALIDATE, 1)))
    report = validate_sampler(spec, cfg.sampler, pair, draws=4000)
    if report.ok is None:
        print(f"validate-sampler: skipped ({report.reason})")
        return report
    status = "ok" if report.ok else "FAILED"
    print(f"validate-sampler: {status} (max KS {report.max_ks:.4f}, "
          f"critical {report.critical:.4f})")
    if not report.ok and not force:
        raise ValidationFailure(
            "hit-and-run schedule failed the KS battery; rerun with --force "
            "to scan anyway")
    return report


def _cmd_sample(args):
    cfg, seed = _load(args)
    spec = _single_spec(cfg)
    sampler = make_sampler(spec, cfg.sampler)
    stream = substream(seed, (_TAG_SAMPLE,))
    X = sampler(stream, args.count)
    _write_manifest(args.out, "sample", cfg, seed)
    path = os.path.join(args.out, "samples.dat")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# master_seed={seed} config_hash={config_hash(cfg, seed)}\n")
        fh.write(f"# n={spec.n} dim={spec.dim} count={args.count}\n")
        for row in X:
            fh.write(" ".join(format(v, ".10g") for v in row) + "\n")
    print(f"wrote {args.count} draws to {path}")
    return EXIT_OK


def _run_scan(args, mode):
    cfg, seed = _load(args, scan_mode=mode)
    if cfg.scan is None:
        raise ConfigError("section 'scan' is required for scan commands")
    specs = [build_spec(cfg.model, n) for n in n_list(cfg)]
    _maybe_validate(cfg, specs[0], seed, args.force)
    runner = connectivity_scan if mode == "connectivity" else giant_scan
    result = runner(specs, cfg.sampler, cfg.scan, seed, workers=args.workers)
    _write_manifest(args.out, f"scan-{mode}", cfg, seed)
    csv_path = os.path.join(args.out, f"scan_{mode}.csv")
    emit_csv(result, csv_path)
    emit_plotdata(result, args.out, seed, config_hash(cfg, seed), stem=f"scan_{mode}")
    metric = "p_connected" if mode == "connectivity" else "p_giant"
    for c in threshold_locator(result, metric=metric):
        if c.censored:
            print(f"n={c.n}: crossing censored (grid does not straddle 1/2)")
        else:
            extra = (f", sigma-normalized {c.normalized_sigma:.4g}"
                     if c.normalized_sigma else "")
            print(f"n={c.n}: p*={c.p_star:.6g}, normalized {c.normalized:.4g}{extra}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_moments(args):
    cfg, seed = _load(args)
    spec = _single_spec(cfg)
    sampler = make_sampler(spec, cfg.sampler)
    reps = int(cfg.moments.get("reps", 20000))
    est = estimate_moments(sampler, substream(seed, (_TAG_MOMENTS,)), reps)
    _write_manifest(args.out, "moments", cfg, seed)
    path = os.path.join(args.out, "moments.csv")
    pairs = edge_pairs(spec.n)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("edge_i,edge_j,second_moment,stderr\n")
        for e, (m, s) in enumerate(zip(est.second_moments, est.standard_errors)):
            fh.write(f"{pairs[e][0]},{pairs[e][1]},{m:.6g},{s:.6g}\n")
    print(f"sigma_min^2={est.sigma_min_sq:.6g} (edge {est.argmin}), "
          f"sigma_max^2={est.sigma_max_sq:.6g} (edge {est.argmax})")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_nc_test(args):
    cfg, seed = _load(args)
    spec = _single_spec(cfg)
    sampler = make_sampler(spec, cfg.sampler)
    reps = int(cfg.nc_test.get("reps", 20000))
    n_configs = int(cfg.nc_test.get("configurations", 10))
    size_max = int(cfg.nc_test.get("set_size_max", 3))
    q_lo, q_hi = cfg.nc_test.get("quantile_range", [0.6, 0.95])

    pilot = sampler(substream(seed, (_TAG_NC, 0)), 4000)
    reports = []
    for i in range(n_configs):
        stream = substream(seed, (_TAG_NC, i + 1))
        I, J, s, t = random_nc_configuration(
            stream, pilot, spec.dim, size_max, (q_lo, q_hi))
        reports.append(nc_test(sampler, stream, I, J, s, t, reps))

    _write_manifest(args.out, "nc-test", cfg, seed)
    path = os.path.join(args.out, "nc_report.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("config,I,J,joint,joint_lo,joint_hi,"
                 "product,product_lo,product_hi,verdict\n")
        for i, r in enumerate(reports):
            fh.write(
                f"{i},{'|'.join(map(str, r.I))},{'|'.join(map(str, r.J))},"
                f"{r.joint:.6g},{r.joint_ci[0]:.6g},{r.joint_ci[1]:.6g},"
                f"{r.product:.6g},{r.product_ci[0]:.6g},{r.product_ci[1]:.6g},"
                f"{r.verdict}\n")
    bad = [r for r in reports if r.verdict != "consistent"]
    print(f"{len(reports)} configurations, {len(bad)} violation(s); wrote {path}")
    return EXIT_OK if not bad else EXIT_VALIDATION


def random_nc_configuration(stream, pilot, dim, size_max, q_range):
    """Random disjoint index sets with quantile-based thresholds."""
    k_i = int(stream.integers(1, size_max + 1))
    k_j = int(stream.integers(1, size_max + 1))
    idx = stream.permutation(dim)[: k_i + k_j]
    I, J = idx[:k_i], idx[k_i:]
    qs = stream.uniform(q_range[0], q_range[1], size=k_i + k_j)
    s = np.array([np.quantile(pilot[:, e], q) for e, q in zip(I, qs[:k_i])])
    t = np.array([np.quantile(pilot[:, e], q) for e, q in zip(J, qs[k_i:])])
    return I, J, s, t


def _cmd_oracle_er(args):
    print(format(er_connectivity_oracle(args.n, args.p), ".12g"))
    return EXIT_OK


def _cmd_validate(args):
    cfg, seed = _load(args)
    spec = _single_spec(cfg)
    pair = (substream(seed, (_TAG_VALIDATE, 0)), substream(seed, (_TAG_VALIDATE, 1)))
    report = validate_sampler(spec, cfg.sampler, pair, draws=args.draws)
    if report.ok is None:
        print(f"skipped: {report.reason}")
        return EXIT_OK
    print(f"max marginal KS {report.max_ks:.4f} vs critical {report.critical:.4f}: "
          f"{'ok' if report.ok else 'FAILED'}")
    return EXIT_OK if report.ok else EXIT_VALIDATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gobgraph",
        description="Simulation lab for threshold graphs on generalized "
                    "Orlicz balls.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--config", required=True, help="YAML config file")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed override")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--force", action="store_true",
                       help="run scans even if sampler validation fails")

    p = sub.add_parser("sample", help="draw edge vectors")
    common(p)
    p.add_argument("--count", type=int, default=100)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("scan-connectivity", help="connectivity-regime scan")
    common(p)
    p.set_defaults(func=lambda a: _run_scan(a, "connectivity"))

    p = sub.add_parser("scan-giant", help="giant-component-regime scan")
    common(p)
    p.set_defaults(func=lambda a: _run_scan(a, "giant"))

    p = sub.add_parser("nc-test", help="negative-correlation test battery")
    common(p)
    p.set_defaults(func=_cmd_nc_test)

    p = sub.add_parser("moments", help="per-edge second-moment estimates")
    common(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("oracle-er", help="exact G(n,p) connectivity probability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.set_defaults(func=_cmd_oracle_er)

    p = sub.add_parser("validate-sampler",
                       help="KS battery: hit-and-run vs exact sampler")
    common(p, out=False)
    p.add_argument("--draws", type=int, default=8000)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
