"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 validation failure,
4 I/O error.  Only a ConfigError (bad config file or command-line value)
gives exit status 2.  Internal errors are not config errors: any other
exception inside a run (a RuntimeError such as two components of order
> n/2 in one scan graph, or a ValueError from a chord or a sampler) is
not caught here and ends the command with a traceback and exit status 1.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import experiments
from .config import ConfigError, config_hash, parse_config
from .estimators import estimate_moments, nc_test
from .experiments import er_connectivity_oracle, threshold_locator
from .report import emit_csv, emit_plotdata
from .rng import MAX_SEED, substream
from .samplers import draw_blocks, make_sampler, validate_sampler
from .edges import edge_endpoints

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

_NC_PILOT_DRAWS = 4000  # nc-test sets its thresholds from this many draws
# `sample` writes at most this many numbers (count * d), about 1.2 GB of
# text, and `validate-sampler` draws at most this many from each sampler
MAX_SAMPLE_NUMBERS = 10**8


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
    if not 0 <= seed < MAX_SEED:
        raise ConfigError(f"master seed must be a 64-bit unsigned int, got {seed}")
    return cfg, seed


def _versions():
    """Library versions that fix a run's draws and statistics."""
    import platform
    import scipy  # not at module top: only the manifest needs its version
    from . import __version__
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "gobgraph": __version__}


def _write_manifest(out_dir, command, cfg, seed, run=None):
    """Write manifest.json: the config and its hash, the library versions,
    and what the run found (`run`, e.g. a scan's sigma-hats); none of the
    run record enters the config hash."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "command": command,
        "master_seed": seed,
        "config_hash": config_hash(cfg, seed),
        "config": cfg.canonical,
        "versions": _versions(),
        **(run or {}),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _single_spec(cfg):
    if len(cfg.specs) != 1:
        raise ConfigError("this command needs a single n (set model.n)")
    return cfg.specs[0]


def _check_draw_count(option, count, spec):
    """Refuse `count` draws at `spec` that hold more than MAX_SAMPLE_NUMBERS
    numbers, naming the largest count allowed."""
    if count * spec.dim > MAX_SAMPLE_NUMBERS:
        raise ConfigError(
            f"{option} {count} at n={spec.n} asks for {count * spec.dim} numbers, "
            f"more than {MAX_SAMPLE_NUMBERS}; {option} <= "
            f"{MAX_SAMPLE_NUMBERS // spec.dim} at this n")


def _maybe_validate(cfg, spec, seed, force, index):
    """Gate a hit-and-run scan at one n on the exact-vs-MCMC KS battery.

    The spec at position `index` of the scan draws from the validation
    streams 2*index and 2*index + 1."""
    if cfg.sampler.method != "hit_and_run":
        return None
    pair = (substream(seed, (_TAG_VALIDATE, 2 * index)),
            substream(seed, (_TAG_VALIDATE, 2 * index + 1)))
    report = validate_sampler(spec, cfg.sampler, pair, draws=4000)
    if report.ok is None:
        print(f"validate-sampler n={spec.n}: skipped ({report.reason})")
        return report
    status = "ok" if report.ok else "FAILED"
    print(f"validate-sampler n={spec.n}: {status} (max KS {report.max_ks:.4f}, "
          f"critical {report.critical:.4f})")
    if not report.ok and not force:
        raise ValidationFailure(
            f"hit-and-run schedule failed the KS battery at n={spec.n}; rerun "
            "with --force to scan anyway")
    return report


def _cmd_sample(args):
    """Write `--count` draws to samples.dat, one `draw_blocks` block at a
    time, so memory stays bounded however many draws are asked for."""
    cfg, seed = _load(args)
    spec = _single_spec(cfg)
    _check_draw_count("--count", args.count, spec)
    sampler = make_sampler(spec, cfg.sampler)
    stream = substream(seed, (_TAG_SAMPLE,))
    _write_manifest(args.out, "sample", cfg, seed)
    path = os.path.join(args.out, "samples.dat")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# master_seed={seed} config_hash={config_hash(cfg, seed)}\n")
        fh.write(f"# n={spec.n} dim={spec.dim} count={args.count}\n")
        for block in draw_blocks(sampler, stream, args.count, spec.dim):
            for row in block:
                fh.write(" ".join(format(v, ".10g") for v in row) + "\n")
    print(f"wrote {args.count} draws to {path}")
    return EXIT_OK


def _run_scan(args, mode):
    cfg, seed = _load(args, scan_mode=mode)
    if cfg.scan is None:
        raise ConfigError("section 'scan' is required for scan commands")
    if cfg.scan.mode != mode:
        raise ConfigError(f"scan.mode is {cfg.scan.mode!r}, but scan-{mode} "
                          f"runs a {mode} scan")
    verdicts = []
    for k, spec in enumerate(cfg.specs):
        report = _maybe_validate(cfg, spec, seed, args.force, k)
        if report is not None:
            verdicts.append({"n": spec.n, "ok": report.ok, "reason": report.reason,
                             "max_ks": report.max_ks, "critical": report.critical})
    # looked up on the module at each call, so a wrapper installed there
    # runs (perfbench/child.py rebinds experiments.run_scan to trace scans)
    result = experiments.run_scan(cfg.specs, cfg.sampler, cfg.scan, seed,
                                  workers=args.workers)
    metric = "p_connected" if mode == "connectivity" else "p_giant"
    crossings = threshold_locator(result, metric=metric)
    _write_manifest(args.out, f"scan-{mode}", cfg, seed, run={
        **{key: {str(n): v for n, v in result.meta[key].items()}
           for key in ("sigma_hat", "censor_above", "edges_kept")},
        "validation": verdicts,
        "crossings": [dataclasses.asdict(c) for c in crossings],
    })
    csv_path = os.path.join(args.out, f"scan_{mode}.csv")
    emit_csv(result, csv_path)
    emit_plotdata(result, args.out, seed, config_hash(cfg, seed), stem=f"scan_{mode}")
    for c in crossings:
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
    reps = cfg.moments.get("reps", 20000)
    est = estimate_moments(sampler, substream(seed, (_TAG_MOMENTS,)), reps)
    _write_manifest(args.out, "moments", cfg, seed)
    path = os.path.join(args.out, "moments.csv")
    ends = edge_endpoints(spec.n, np.arange(spec.dim))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("edge_i,edge_j,second_moment,stderr\n")
        for i, j, m, s in zip(*ends, est.second_moments, est.standard_errors):
            fh.write(f"{i},{j},{m:.6g},{s:.6g}\n")
    print(f"sigma_min^2={est.sigma_min_sq:.6g} (edge {est.argmin}), "
          f"sigma_max^2={est.sigma_max_sq:.6g} (edge {est.argmax})")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_nc_test(args):
    cfg, seed = _load(args)
    spec = _single_spec(cfg)
    sampler = make_sampler(spec, cfg.sampler)
    reps = cfg.nc_test.get("reps", 20000)
    n_configs = cfg.nc_test.get("configurations", 10)
    size_max = cfg.nc_test.get("set_size_max", 3)
    q_lo, q_hi = cfg.nc_test.get("quantile_range", [0.6, 0.95])
    if not 1 <= size_max < spec.dim:
        raise ConfigError(f"nc_test.set_size_max must lie in [1, {spec.dim - 1}], "
                          f"got {size_max}")

    # Every configuration's index sets and quantile levels come first, each
    # from its own stream; the pilot, on a stream of its own, is then drawn
    # in blocks keeping only the columns they name, and each test goes on
    # with its configuration's stream.  The order does not change the draws.
    streams = [substream(seed, (_TAG_NC, i + 1)) for i in range(n_configs)]
    picks = [random_nc_indices(stream, spec.dim, size_max, (q_lo, q_hi))
             for stream in streams]
    columns = np.unique(np.concatenate([np.concatenate([I, J]) for I, J, _ in picks]))
    pilot = np.concatenate([
        X[:, columns] for X in draw_blocks(sampler, substream(seed, (_TAG_NC, 0)),
                                           _NC_PILOT_DRAWS, spec.dim)])
    reports = []
    for stream, (I, J, qs) in zip(streams, picks):
        s, t = nc_thresholds(pilot, np.searchsorted(columns, I),
                             np.searchsorted(columns, J), qs)
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


def random_nc_indices(stream, dim, size_max, q_range):
    """Random disjoint index sets I, J and one quantile level per index."""
    k_i = int(stream.integers(1, size_max + 1))
    k_j = int(stream.integers(1, size_max + 1))
    idx = stream.permutation(dim)[: k_i + k_j]
    qs = stream.uniform(q_range[0], q_range[1], size=k_i + k_j)
    return idx[:k_i], idx[k_i:], qs


def nc_thresholds(pilot, cols_i, cols_j, qs):
    """Thresholds s, t: the pilot's quantiles at levels qs of columns
    cols_i, then cols_j."""
    s = np.array([np.quantile(pilot[:, e], q) for e, q in zip(cols_i, qs)])
    t = np.array([np.quantile(pilot[:, e], q) for e, q in zip(cols_j, qs[len(cols_i):])])
    return s, t


def _cmd_oracle_er(args):
    print(format(er_connectivity_oracle(args.n, args.p), ".12g"))
    return EXIT_OK


def _cmd_validate(args):
    cfg, seed = _load(args)
    spec = _single_spec(cfg)
    # the battery holds an exact and a hit-and-run draw of (draws, d) at once
    _check_draw_count("--draws", args.draws, spec)
    pair = (substream(seed, (_TAG_VALIDATE, 0)), substream(seed, (_TAG_VALIDATE, 1)))
    report = validate_sampler(spec, cfg.sampler, pair, draws=args.draws)
    if report.ok is None:
        print(f"skipped: {report.reason}")
        return EXIT_OK
    print(f"max marginal KS {report.max_ks:.4f} vs critical {report.critical:.4f}: "
          f"{'ok' if report.ok else 'FAILED'}")
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _int_at_least(low):
    """argparse type: an int >= low (argparse exits 2 on anything else)."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


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
        p.add_argument("--workers", type=_int_at_least(1), default=1)
        p.add_argument("--force", action="store_true",
                       help="run scans even if sampler validation fails")

    p = sub.add_parser("sample", help="draw edge vectors")
    common(p)
    p.add_argument("--count", type=_int_at_least(0), default=100)
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
    p.add_argument("--draws", type=_int_at_least(1), default=8000)
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
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
