import hashlib
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import gobgraph
from gobgraph import cli, config, samplers
from gobgraph.cli import main
from gobgraph.config import (MAX_NC_CONFIGURATIONS, MAX_VERTICES, ConfigError,
                             config_hash, parse_config)
from gobgraph.experiments import MAX_REPLICATES, er_connectivity_oracle
from gobgraph.orlicz import Cap, ExponentialDecay, GobSpec
from gobgraph.report import CSV_HEADER, emit_csv, emit_plotdata
from gobgraph.experiments import ScanResult, ScanRow
from gobgraph.rng import substream
from gobgraph.samplers import ValidationReport, make_sampler

DOCS = Path(__file__).resolve().parent.parent / "docs"


def _row(n=5, p=0.5):
    return ScanRow(
        n=n, p=p, replicates=100, p_connected=0.5, p_connected_lo=0.4,
        p_connected_hi=0.6, p_has_isolated=0.2, p_has_isolated_lo=0.1,
        p_has_isolated_hi=0.3, mean_isolated=0.4, mean_giant_frac=0.7,
        p_mid_component=0.05, p_mid_component_lo=0.02, p_mid_component_hi=0.1,
        small_mass_frac=0.3)


# ---------------------------------------------------------------------------
# config parsing

def test_parse_minimal_cube():
    cfg = parse_config("model:\n  family: cube\n  n: 50\n")
    [spec] = cfg.specs
    assert (spec.n, spec.dim) == (50, 1225)
    assert all(isinstance(c, Cap) for c in spec.components)
    assert cfg.sampler.method == "exact_cube"  # family default


def test_parse_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("model:\n  family: cube\n  n: 5\n  extra: 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("model:\n  family: cube\n  n: 5\nbogus: {}\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(
            "model:\n  family: cube\n  n: 5\nsampler:\n  walk_length: 3\n")
    # the scan sets the censoring level; a config file cannot
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("model:\n  family: simplex\n  n: 5\n"
                     "sampler:\n  censor_above: 0.1\n")


def test_parse_invariant_errors():
    with pytest.raises(ConfigError, match="q>=1"):
        parse_config("model:\n  family: lq\n  n: 5\n  q: 0.5\n")
    with pytest.raises(ConfigError, match="positive"):
        parse_config("model:\n  family: simplex\n  n: 5\n  coeff: -1\n")
    with pytest.raises(ConfigError, match="family"):
        parse_config("model:\n  family: torus\n  n: 5\n")
    with pytest.raises(ConfigError):
        parse_config("model: [not, a, mapping]\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        parse_config("model: {family: cube\n")


def test_parse_numbers_are_finite():
    # beta: .inf once ended in OverflowError, and rate: .inf hung `sample`
    gob = ("model: {family: gob, n: 3, component: {kind: power, q: 2},\n"
           "        radial_density: {kind: exponential, rate: %s}}\n")
    for text in ("model: {family: simplex}\nscan: {n_list: [5], beta: .inf,\n"
                 "       grid: {kind: explicit, values: [0.1]}}\n",
                 gob % ".inf", gob % ".nan", gob % "-.inf",
                 "model: {family: lq, n: 5, q: .nan}\n",
                 "model: {family: cube, n: 3, scales: [1, .inf, 1]}\n"):
        with pytest.raises(ConfigError, match="finite number"):
            parse_config(text)
    for rate in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            ExponentialDecay(rate)


def test_parse_per_edge_length_mismatch():
    text = "model:\n  family: simplex\n  n: 4\n  coeffs: [1, 1, 1]\n"
    with pytest.raises(ConfigError, match="coeffs"):
        parse_config(text)


def test_parse_gob_component():
    text = textwrap.dedent("""\
        model:
          family: gob
          n: 4
          component: {kind: power, a: 1.0, q: 2.0}
          radial_density: {kind: exponential, rate: 0.5}
    """)
    cfg = parse_config(text)
    [spec] = cfg.specs
    assert spec.dim == 6
    assert cfg.sampler.method == "hit_and_run"
    with pytest.raises(ConfigError, match="kind"):
        parse_config(text.replace("power", "cubic"))
    with pytest.raises(ConfigError, match="rate"):
        parse_config(text.replace("rate: 0.5", "rate: -2"))


def test_simplex_coefficient_convention():
    cfg = parse_config("model:\n  family: simplex\n  n: 3\n  coeff: 2.0\n")
    [spec] = cfg.specs
    # sum 2 x_e <= 1  <=>  extent 1/2 per edge
    assert np.allclose(spec.a, 0.5)


def test_missing_n_is_an_error():
    with pytest.raises(ConfigError, match="n"):
        parse_config("model:\n  family: cube\n")


def test_parse_builds_a_spec_per_vertex_count():
    cfg = parse_config("model: {family: simplex, coeff: 2}\n"
                       "scan: {n_list: [6, 4, 5], grid: {gammas: [1.0]}}\n")
    assert [(spec.n, spec.dim) for spec in cfg.specs] == [(6, 15), (4, 6), (5, 10)]
    assert all(np.all(spec.a == 0.5) for spec in cfg.specs)


def test_sampler_start_is_the_analytic_center():
    # the one start stays a key, so that configs naming it parse
    text = "model: {family: gob, n: 3, component: {kind: power, q: 2}}\n"
    named = parse_config(text + "sampler: {start: analytic_center}\n")
    assert named.canonical == parse_config(text).canonical
    assert named.canonical["sampler"]["start"] == "analytic_center"
    for start in ("origin_nudge", "somewhere", 1):
        with pytest.raises(ConfigError, match="sampler.start"):
            parse_config(text + f"sampler: {{start: {start}}}\n")


def test_scan_builds_each_spec_once(tmp_path, monkeypatch):
    # parse_config builds the spec at each n (through config.build_spec,
    # which the benchmark's tracer wraps), and the scan runs on those
    calls = []
    build, init = config.build_spec, GobSpec.__init__

    def counted(model, n):
        calls.append(n)
        return build(model, n)

    def counted_init(self, n, *args, **kwargs):
        calls.append(("GobSpec", n))
        init(self, n, *args, **kwargs)

    monkeypatch.setattr(config, "build_spec", counted)
    monkeypatch.setattr(GobSpec, "__init__", counted_init)
    cfg = _write_cfg(tmp_path, """\
        model: {family: simplex}
        scan:
          n_list: [5, 6]
          replicates: 30
          pilot_draws: 10
          grid: {kind: gamma, gammas: [1.0]}
    """)
    assert main(["scan-connectivity", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 0
    assert calls == [5, ("GobSpec", 5), 6, ("GobSpec", 6)]


_DOCUMENTED = [
    ("cube_scan.yaml", "connectivity", "2d10481dbce44888"),
    ("simplex_connectivity.yaml", "connectivity", "016209cdb963f390"),
    ("simplex_giant.yaml", "giant", "5caa1f5cc62bb9bb"),
    ("gob_mixed.yaml", "connectivity", "0a901d3bae0c4bea"),
]


@pytest.mark.parametrize("name,mode,pinned", _DOCUMENTED,
                         ids=[f"{name}-{mode}" for name, mode, _ in _DOCUMENTED])
def test_documented_configs_roundtrip(name, mode, pinned):
    text = (DOCS / name).read_text()
    cfg = parse_config(text, scan_mode=mode)
    # the hash at the documented seed, which outputs and manifests carry
    assert config_hash(cfg, 20260824) == pinned
    # re-serialize the canonical form and parse it back
    again = parse_config(yaml.safe_dump(cfg.canonical), scan_mode=mode)
    assert again.canonical == cfg.canonical
    assert config_hash(again, 7) == config_hash(cfg, 7)
    assert config_hash(again, 8) != config_hash(cfg, 7)


@pytest.mark.parametrize("text,mode,pinned", [
    ("model: {family: lq, n: 3, q: 2, scales: [1, 2, 3]}\n"
     "sampler: {seed: 5}\n", "connectivity", "aaa5d6a6b3d0c129"),
    ("model:\n  family: gob\n  n: 3\n  components:\n    - {kind: linear}\n"
     "    - {kind: power, q: 3}\n    - {kind: pwl, breakpoints: [[0, 0], [1, 2]]}\n"
     "  radial_density: {kind: power_decay}\n"
     "sampler: {burn_in: 100}\n", "connectivity",
     "5e3b7908cc3077d7"),
    ("model: {family: simplex, coeff: 2}\n"
     "scan: {n_list: [5, 6], beta: 3, grid: {kind: explicit, values: [0.1, 0.9]}}\n"
     "nc_test: {configurations: 2, quantile_range: [0, 1]}\nmoments: {reps: 5000}\n",
     "giant", "41082098c3ccf2f6"),
])
def test_config_hash_pinned(text, mode, pinned):
    # the canonical form converts the model's numbers and beta to floats,
    # fills the model, sampler and scan defaults and keeps a component's,
    # a radial density's, nc_test's and moments' values as given
    assert config_hash(parse_config(text, scan_mode=mode), 7) == pinned


# words of the schema, so that a mutant can swap a family, kind or method
_WORDS = ["cube", "simplex", "lq", "gob", "power", "linear", "cap", "pwl",
          "indicator", "exponential", "power_decay", "gamma", "explicit",
          "connectivity", "giant", "exact_cube", "exact_simplex", "exact_lq",
          "hit_and_run", "origin_nudge", "analytic_center"]


def _values(int_max):
    # scalars, lists and small mappings, with integers up to int_max
    scalar = st.one_of(
        st.integers(-10**6, int_max), st.floats(),
        st.sampled_from([x for x in (10**18, 10**400, -10**400, 1e300, -1e300)
                         if x <= int_max]),
        st.text(max_size=6), st.sampled_from(_WORDS), st.booleans(), st.none())
    return st.one_of(
        scalar, st.lists(scalar, max_size=4),
        st.dictionaries(st.sampled_from(["kind", "a", "q", "rate"]), scalar,
                        max_size=2))


# vertex counts reach past the bound: a uniform spec costs O(1) at any n,
# and a count above config.MAX_VERTICES is a config error before any draw
_ANY_VALUE, _VERTEX_COUNT = _values(10**400), _values(2 * MAX_VERTICES)


def _paths(node, path=()):
    """The path (keys and list indices) to every value below `node`."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@pytest.mark.parametrize("name,mode", [(name, mode) for name, mode, _ in _DOCUMENTED])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_configs_fail_only_as_config_errors(name, mode, data):
    # a documented config with one value replaced, one key dropped or one
    # unknown key added: it is rejected with a ConfigError, or it parses
    # and its canonical form, dumped and parsed again, keeps its hash
    raw = yaml.safe_load((DOCS / name).read_text())
    paths = list(_paths(raw))
    how = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if how == "add":
        path = data.draw(st.sampled_from(
            [()] + [p for p in paths if isinstance(_at(raw, p), dict)]))
        key = "unknown_" + data.draw(st.text("abc", max_size=3))
        _at(raw, path)[key] = data.draw(_ANY_VALUE)
    elif how == "drop":
        path = data.draw(st.sampled_from(
            [p for p in paths if isinstance(_at(raw, p[:-1]), dict)]))
        del _at(raw, path[:-1])[path[-1]]
    else:
        path = data.draw(st.sampled_from(paths))
        vertex_count = path == ("model", "n") or path[:2] == ("scan", "n_list")
        _at(raw, path[:-1])[path[-1]] = data.draw(
            _VERTEX_COUNT if vertex_count else _ANY_VALUE)
    try:
        cfg = parse_config(yaml.safe_dump(raw), scan_mode=mode)
    except ConfigError:
        return
    again = parse_config(yaml.safe_dump(cfg.canonical), scan_mode=mode)
    assert config_hash(again, 7) == config_hash(cfg, 7)


# ---------------------------------------------------------------------------
# csv / plotdata emission

def test_csv_header_and_shape(tmp_path):
    assert CSV_HEADER.count(",") == 14  # 15 columns
    path = tmp_path / "out.csv"
    emit_csv(ScanResult(rows=[_row()]), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    assert lines[1].split(",")[0] == "5"
    assert len(lines[1].split(",")) == 15


def test_csv_sorted_and_stable(tmp_path):
    rows = [_row(6, 0.5), _row(5, 0.9), _row(5, 0.1)]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    emit_csv(ScanResult(rows=rows), p1)
    emit_csv(ScanResult(rows=list(reversed(rows))), p2)
    text = p1.read_text()
    assert text == p2.read_text()
    first_cols = [ln.split(",")[:2] for ln in text.splitlines()[1:]]
    assert first_cols == [["5", "0.1"], ["5", "0.9"], ["6", "0.5"]]


def test_csv_refuses_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_csv(ScanResult(rows=[]), tmp_path / "x.csv")
    with pytest.raises(ValueError):
        emit_plotdata(ScanResult(rows=[]), tmp_path, 0, "abc")


def test_plotdata_files_and_headers(tmp_path):
    rows = [_row(5, 0.1), _row(5, 0.2), _row(8, 0.1)]
    paths = emit_plotdata(ScanResult(rows=rows), tmp_path, 123, "deadbeef")
    assert len(paths) == 6  # 2 n values x 3 metrics
    text = Path(paths[0]).read_text()
    assert text.startswith("# master_seed=123 config_hash=deadbeef\n")
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert all(len(ln.split()) == 4 for ln in body)


# ---------------------------------------------------------------------------
# command-line interface

def _write_cfg(tmp_path, text):
    p = tmp_path / "cfg.yaml"
    p.write_text(textwrap.dedent(text))
    return str(p)


@pytest.mark.parametrize("name,command,digest", [
    ("cube_scan.yaml", "scan-connectivity", "e40cd1ff6a26968b"),
    ("simplex_connectivity.yaml", "scan-connectivity", "799315f9eaa24514"),
    ("simplex_giant.yaml", "scan-giant", "349132bd94ce6753"),
])
def test_documented_scans_keep_their_bytes(tmp_path, name, command, digest):
    # each documented scan at its own seed; numpy's generators fix the
    # draws, and these digests were read with numpy 2.4.6
    assert main([command, "--config", str(DOCS / name), "--out", str(tmp_path)]) == 0
    csv = tmp_path / f"scan_{command.removeprefix('scan-')}.csv"
    assert hashlib.sha256(csv.read_bytes()).hexdigest()[:16] == digest


def test_cli_oracle_er(capsys):
    assert main(["oracle-er", "--n", "5", "--p", "0.5"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(91 / 128, abs=1e-12)


def test_cli_scan_end_to_end(tmp_path):
    cfg = _write_cfg(tmp_path, """\
        model:
          family: cube
        sampler:
          method: exact_cube
          seed: 11
        scan:
          n_list: [5, 6]
          replicates: 200
          grid: {kind: explicit, values: [0.3, 0.6]}
    """)
    out = tmp_path / "out"
    rc = main(["scan-connectivity", "--config", cfg, "--out", str(out)])
    assert rc == 0
    csv_path = out / "scan_connectivity.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5  # header + 2 n x 2 p
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 11
    assert manifest["command"] == "scan-connectivity"
    # the run record below stays out of the hash: this is its value from
    # before the manifest recorded the run
    assert manifest["config_hash"] == "018bce93690e9fb3"
    assert set(manifest["versions"]) == {"python", "numpy", "scipy", "gobgraph"}
    assert manifest["versions"]["numpy"] == np.__version__
    assert manifest["sigma_hat"] == {"5": None, "6": None}  # explicit grid
    assert manifest["validation"] == []  # exact sampler, nothing to gate
    assert [c["n"] for c in manifest["crossings"]] == [5, 6]
    assert set(manifest["crossings"][0]) == {
        "n", "p_star", "censored", "normalized", "normalized_sigma"}
    # the level is the grid's largest p; every replicate keeps some of the
    # 10 and 15 coordinates at or below 0.6, and none of it enters the CSV
    assert manifest["censor_above"] == {"5": 0.6, "6": 0.6}
    kept = manifest["edges_kept"]
    assert set(kept) == {"5", "6"}
    assert 0 < kept["5"] < 200 * 10 and 0 < kept["6"] < 200 * 15
    assert "censor" not in lines[0] and "kept" not in lines[0]
    dat = sorted(out.glob("*.dat"))
    assert len(dat) == 6
    assert dat[0].read_text().splitlines()[0].endswith(
        manifest["config_hash"])

    # the --seed override changes outputs; rerunning with the same seed
    # reproduces them byte for byte
    out2 = tmp_path / "out2"
    assert main(["scan-connectivity", "--config", cfg, "--out", str(out2),
                 "--seed", "12"]) == 0
    assert (out2 / "scan_connectivity.csv").read_text() != csv_path.read_text()
    out3 = tmp_path / "out3"
    assert main(["scan-connectivity", "--config", cfg, "--out", str(out3),
                 "--workers", "2"]) == 0
    assert (out3 / "scan_connectivity.csv").read_text() == csv_path.read_text()


def test_cli_sample_and_moments(tmp_path):
    cfg = _write_cfg(tmp_path, """\
        model:
          family: simplex
          n: 4
        sampler:
          seed: 3
        moments:
          reps: 2000
    """)
    out = tmp_path / "s"
    assert main(["sample", "--config", cfg, "--out", str(out),
                 "--count", "20"]) == 0
    body = [ln for ln in (out / "samples.dat").read_text().splitlines()
            if not ln.startswith("#")]
    assert len(body) == 20
    X = np.array([[float(v) for v in ln.split()] for ln in body])
    assert X.shape == (20, 6)
    assert np.all(X.sum(axis=1) <= 1 + 1e-9)

    out2 = tmp_path / "m"
    assert main(["moments", "--config", cfg, "--out", str(out2)]) == 0
    lines = (out2 / "moments.csv").read_text().splitlines()
    assert lines[0] == "edge_i,edge_j,second_moment,stderr"
    assert len(lines) == 7


@pytest.mark.parametrize("model", ["family: simplex", "family: cube",
                                   "family: lq, q: 3"],
                         ids=["simplex", "cube", "lq"])
def test_cli_sample_same_bytes_across_blocks(tmp_path, monkeypatch, model):
    # `sample` writes one draw_blocks block at a time; an exact sampler's
    # blocks concatenate to one draw of all the rows
    cfg = _write_cfg(tmp_path, f"model: {{{model}, n: 4}}\n"
                               "sampler: {seed: 3}\n")
    whole, blocked = tmp_path / "whole", tmp_path / "blocked"
    assert main(["sample", "--config", cfg, "--out", str(whole),
                 "--count", "20"]) == 0
    monkeypatch.setattr(samplers, "_BLOCK_BYTES", 8 * 6 * 7)  # 7 rows at d = 6
    calls = []

    def recording(spec, sampler_cfg):
        sampler = make_sampler(spec, sampler_cfg)
        return lambda stream, count: calls.append(count) or sampler(stream, count)

    monkeypatch.setattr(cli, "make_sampler", recording)
    assert main(["sample", "--config", cfg, "--out", str(blocked),
                 "--count", "20"]) == 0
    assert calls == [7, 7, 6]
    text = (whole / "samples.dat").read_text()
    assert (blocked / "samples.dat").read_text() == text
    parsed = parse_config(Path(cfg).read_text())
    X = make_sampler(parsed.specs[0], parsed.sampler)(
        substream(3, (cli._TAG_SAMPLE,)), 20)
    rows = [" ".join(format(v, ".10g") for v in row) for row in X]
    assert text.splitlines()[2:] == rows


def test_cli_nc_test(tmp_path):
    cfg = _write_cfg(tmp_path, """\
        model:
          family: cube
          n: 4
        sampler:
          seed: 5
        nc_test:
          reps: 10000
          configurations: 3
    """)
    out = tmp_path / "nc"
    assert main(["nc-test", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "nc_report.csv").read_text().splitlines()
    assert len(lines) == 4
    assert all(ln.endswith("consistent") for ln in lines[1:])


@pytest.mark.parametrize("family", ["cube", "simplex"])
def test_cli_nc_test_streamed_pilot_matches_whole(tmp_path, monkeypatch, family):
    # the former order, the whole pilot drawn first, is the oracle: with the
    # pilot streamed in 7-row blocks every test gets the same sets and
    # thresholds, and the report keeps its bytes
    cfg = _write_cfg(tmp_path, f"""\
        model:
          family: {family}
          n: 6
        sampler:
          seed: 5
        nc_test:
          reps: 10000
          configurations: 4
    """)
    parsed = parse_config(Path(cfg).read_text())
    [spec] = parsed.specs
    sampler = make_sampler(spec, parsed.sampler)
    pilot = sampler(substream(5, (cli._TAG_NC, 0)), cli._NC_PILOT_DRAWS)
    expected = []
    for i in range(4):
        I, J, qs = cli.random_nc_indices(substream(5, (cli._TAG_NC, i + 1)),
                                         spec.dim, 3, (0.6, 0.95))
        expected.append((I, J, *cli.nc_thresholds(pilot, I, J, qs)))
    assert main(["nc-test", "--config", cfg, "--out", str(tmp_path / "whole")]) == 0

    seen, inner = [], cli.nc_test

    def logged(sampler, stream, I, J, s, t, reps):
        seen.append((I, J, s, t))
        return inner(sampler, stream, I, J, s, t, reps)

    monkeypatch.setattr(cli, "nc_test", logged)
    monkeypatch.setattr(samplers, "_BLOCK_BYTES", 8 * spec.dim * 7)
    assert main(["nc-test", "--config", cfg, "--out", str(tmp_path / "blocks")]) == 0
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    report = "nc_report.csv"
    assert ((tmp_path / "blocks" / report).read_bytes()
            == (tmp_path / "whole" / report).read_bytes())


def test_cli_nc_test_pilot_memory_bounded(tmp_path):
    # n = 60: the whole 4000-row pilot would be 57 MB; the streamed one
    # holds one block and the chosen columns
    cfg = _write_cfg(tmp_path, """\
        model:
          family: simplex
          n: 60
        sampler:
          seed: 5
        nc_test:
          reps: 10000
          configurations: 2
    """)
    tracemalloc.start()
    try:
        assert main(["nc-test", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * samplers._BLOCK_BYTES


def test_cli_validate_sampler(tmp_path):
    good = _write_cfg(tmp_path, """\
        model:
          family: cube
          n: 3
        sampler:
          method: hit_and_run
          seed: 1
          burn_in: 200
          thinning: 5
    """)
    assert main(["validate-sampler", "--config", good,
                 "--draws", "2000"]) == 0

    bad = tmp_path / "bad.yaml"
    bad.write_text(Path(good).read_text()
                   .replace("burn_in: 200", "burn_in: 0")
                   .replace("thinning: 5", "thinning: 1")
                   .replace("n: 3", "n: 6")
                   .replace("family: cube", "family: simplex"))
    assert main(["validate-sampler", "--config", str(bad),
                 "--draws", "2000"]) == 3


def test_cli_scan_gated_on_validation(tmp_path):
    text = """\
        model:
          family: simplex
        sampler:
          method: hit_and_run
          seed: 1
          burn_in: 0
          thinning: 1
        scan:
          n_list: [6]
          replicates: 50
          grid: {kind: explicit, values: [0.3]}
    """
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "gated"
    assert main(["scan-connectivity", "--config", cfg,
                 "--out", str(out)]) == 3
    assert not (out / "scan_connectivity.csv").exists()
    assert main(["scan-connectivity", "--config", cfg, "--out", str(out),
                 "--force"]) == 0
    assert (out / "scan_connectivity.csv").exists()


def test_cli_scan_gates_every_n(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, """\
        model:
          family: simplex
        sampler:
          method: hit_and_run
          seed: 1
          burn_in: 30
          thinning: 2
        scan:
          n_list: [4, 5, 6]
          replicates: 30
          pilot_draws: 40
          grid: {kind: gamma, gammas: [0.5, 1.0]}
    """)
    keys = {}
    substream = cli.substream

    def keyed(seed, key):
        gen = substream(seed, key)
        keys[id(gen)] = key
        return gen

    gated = []
    failing = {6}

    def fake_validate(spec, sampler_cfg, pair, draws):
        gated.append((spec.n, [keys[id(s)] for s in pair]))
        ok = spec.n not in failing
        return ValidationReport(ok=ok, reason="stub", max_ks=0.5, critical=0.1)

    monkeypatch.setattr(cli, "substream", keyed)
    monkeypatch.setattr(cli, "validate_sampler", fake_validate)
    out = tmp_path / "gated"
    argv = ["scan-connectivity", "--config", cfg, "--out", str(out)]
    assert main(argv) == 3
    tag = cli._TAG_VALIDATE
    expect = [(4, [(tag, 0), (tag, 1)]), (5, [(tag, 2), (tag, 3)]),
              (6, [(tag, 4), (tag, 5)])]
    assert gated == expect
    assert not (out / "scan_connectivity.csv").exists()

    gated.clear()
    assert main(argv + ["--force"]) == 0
    assert gated == expect
    manifest = json.loads((out / "manifest.json").read_text())
    assert [(v["n"], v["ok"]) for v in manifest["validation"]] == [
        (4, True), (5, True), (6, False)]
    assert set(manifest["sigma_hat"]) == {"4", "5", "6"}
    assert all(s > 0 for s in manifest["sigma_hat"].values())

    # without --force the gate stops at the first failing n
    gated.clear()
    failing = {4}
    assert main(argv) == 3
    assert gated == expect[:1]


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    missing = str(tmp_path / "nope.yaml")
    assert main(["scan-giant", "--config", missing,
                 "--out", str(tmp_path / "o")]) == 2

    bad = _write_cfg(tmp_path, "model:\n  family: cube\n  n: 5\n  junk: 1\n")
    assert main(["sample", "--config", bad, "--out", str(tmp_path / "o")]) == 2

    ok = _write_cfg(tmp_path, """\
        model:
          family: cube
          n: 5
    """)
    blocker = tmp_path / "file_not_dir"
    blocker.write_text("")
    assert main(["sample", "--config", ok, "--out", str(blocker)]) == 4

    # user input found bad only once a command runs is still a config error
    assert main(["oracle-er", "--n", "20", "--p", "0.5"]) == 2
    assert main(["sample", "--config", ok, "--out", str(tmp_path / "o"),
                 "--seed", "-1"]) == 2
    few_reps = _write_cfg(tmp_path, """\
        model: {family: cube, n: 5}
        moments: {reps: 999}
    """)
    assert main(["moments", "--config", few_reps, "--out", str(tmp_path / "o")]) == 2
    p_above_one = _write_cfg(tmp_path, """\
        model: {family: cube}
        scan:
          n_list: [5]
          replicates: 30
          grid: {kind: explicit, values: [1.5]}
    """)
    assert main(["scan-connectivity", "--config", p_above_one,
                 "--out", str(tmp_path / "o")]) == 2
    bad_range = _write_cfg(tmp_path, """\
        model: {family: cube, n: 5}
        nc_test: {quantile_range: [0.9, 0.5]}
    """)
    assert main(["nc-test", "--config", bad_range, "--out", str(tmp_path / "o")]) == 2

    # each of these once ended in a traceback and exit status 1
    simplex = "model: {family: simplex, n: 5}\n"
    gob = "model: {family: gob, n: 3, component: %s}\n"
    scan = ("model: {family: simplex}\n"
            "scan: {n_list: [5], replicates: 30, pilot_draws: %s,\n"
            "       grid: {kind: gamma, gammas: %s}}\n")
    for command, text in [
            ("sample", simplex + "sampler: {method: exact_cube}\n"),
            ("sample", simplex + "sampler: {method: hit_and_run, burn_in: abc}\n"),
            ("sample", simplex + "sampler: {method: hit_and_run, burn_in: 10.5}\n"),
            ("scan-connectivity", scan % (0, "[0.5]")),
            ("scan-connectivity", scan % (10, "[0.5, abc]")),
            ("scan-connectivity", scan.replace("{n_list", "{mode: giant, n_list")
             % (10, "[0.5]")),
            ("scan-connectivity", scan % (10, "0.5")),
            ("scan-connectivity", scan.replace("[5]", "5") % (10, "[0.5]")),
            ("nc-test", "model: {family: cube, n: 5}\nnc_test: {quantile_range: 0.5}\n"),
            ("sample", "model: {family: cube, n: [5]}\n"),
            ("sample", "model: {family: cube, n: 3, scales: 2}\n"),
            ("sample", "model: {family: gob, n: 3, components: 5}\n"),
            ("sample", gob % "{kind: power, a: 1.0, q: 2.0}, radial_density: 5"),
            ("sample", simplex + "sampler: {seed: [1]}\n"),
            ("scan-connectivity", scan.replace("30", "[30]") % (10, "[0.5]")),
            ("moments", "model: {family: cube, n: 5}\nmoments: {reps: [2000]}\n"),
            ("sample", gob % "{kind: pwl, breakpoints: 5}"),
            ("sample", gob % "{kind: power, a: abc}"),
            ("sample", "model: {family: cube, n: 5, scale: null}\n"),
            ("sample", "model: {family: lq, n: 5, q: [2]}\n"),
            ("nc-test", "model: {family: cube, n: 5}\nnc_test: {configurations: 0}\n"),
            # a repeated n, whose counts were merged into one n's
            ("scan-connectivity", scan.replace("[5]", "[5, 5]") % (10, "[0.5]")),
            # and each of these once ran, on a value other than the one given
            ("sample", "model: {family: cube, n: 5.5}\n"),
            ("sample", simplex + "sampler: {seed: '5'}\n"),
            ("scan-connectivity", scan.replace("30", "30.0") % (10, "[0.5]")),
            ("scan-connectivity", scan.replace("[5]", "[5.7]") % (10, "[0.5]")),
            ("scan-giant", scan.replace("gammas: %s", "gammas: %s, sigma_normalized: 'no'")
             % (10, "[0.5]")),
            ("scan-connectivity",
             scan.replace("gammas: %s", "gammas: %s, sigma_normalized: false")
             % (10, "[0.5]")),
            # a grid entry beyond the float range once ended in OverflowError
            ("scan-connectivity", scan % (10, f"[0.5, {10**400}]")),
            ("scan-connectivity", scan.replace("kind: gamma, gammas", "kind: explicit, values")
             % (10, f"[{10**400}]")),
            # the grid list that kind does not name was once dropped unread
            ("scan-connectivity", scan.replace("gammas: %s", "gammas: %s, values: [0.5]")
             % (10, "[0.5]")),
            ("scan-connectivity", scan.replace("kind: gamma, gammas: %s",
                                               "kind: explicit, values: [0.5], gammas: %s")
             % (10, "[1.0]"))]:
        capsys.readouterr()
        cfg = _write_cfg(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2, text
        assert "config error" in capsys.readouterr().err

    # a family's scalar given with its per-edge list was once ignored
    for text, keys in [
            ("model: {family: lq, n: 3, q: 2, scale: 3, scales: [1, 2, 3]}\n",
             "scale or scales"),
            ("model: {family: simplex, n: 3, coeff: 5.0, coeffs: [1, 1, 1]}\n",
             "coeff or coeffs")]:
        capsys.readouterr()
        cfg = _write_cfg(tmp_path, text)
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and keys in err, err

    # a vertex count above the bound (10**8 once ended in MemoryError);
    # zero draws keep the command cheap should the bound ever be missing
    for n in (MAX_VERTICES + 1, 10**8):
        for text in (f"model: {{family: cube, n: {n}}}\n",
                     scan.replace("[5]", f"[{n}]") % (10, "[0.5]")):
            capsys.readouterr()
            cfg = _write_cfg(tmp_path, text)
            assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--count", "0"]) == 2, text
            assert "config error" in capsys.readouterr().err

    # count * d above cli.MAX_SAMPLE_NUMBERS is refused before the manifest
    # and the first draw (the default count at n = 10000 is about 60 GB of
    # text); the message names the largest count allowed at that n
    big = _write_cfg(tmp_path, "model: {family: cube, n: 10000}\n")
    out = tmp_path / "big"
    capsys.readouterr()
    assert main(["sample", "--config", big, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "--count <= 2 at this n" in err
    assert not out.exists()
    monkeypatch.setattr(cli, "MAX_SAMPLE_NUMBERS", 30)  # three draws at d = 10
    small = _write_cfg(tmp_path, "model: {family: cube, n: 5}\n")
    for count, code in (("3", 0), ("4", 2)):
        out = tmp_path / f"count{count}"
        assert main(["sample", "--config", small, "--out", str(out),
                     "--count", count]) == code
        assert (out / "samples.dat").exists() == (code == 0)
    # validate-sampler holds two (draws, d) arrays: its bound comes before
    # any draw, and names the largest --draws allowed at that n
    drawn = []
    monkeypatch.setattr(cli, "validate_sampler", lambda spec, cfg, pair, draws: (
        drawn.append(draws) or ValidationReport(True, "stub", 0.0, 1.0)))
    for draws, code in (("3", 0), ("4", 2)):
        capsys.readouterr()
        assert main(["validate-sampler", "--config", small, "--draws", draws]) == code
    assert drawn == [3]
    err = capsys.readouterr().err
    assert "config error" in err and "--draws <= 3 at this n" in err

    # a worker count below 1 is an argparse error, exit status 2
    for workers in ("0", "-2"):
        with pytest.raises(SystemExit) as exc:
            main(["scan-connectivity", "--config", ok, "--out", str(tmp_path / "o"),
                  "--workers", workers])
        assert exc.value.code == 2


def test_cli_list_building_counts_are_bounded(tmp_path, capsys):
    # a scan lists one task per 100 replicates and nc-test one stream per
    # configuration before the first draw; one over each bound is a config
    # error that names its key, raised before anything is allocated
    for command, text, key in [
            ("scan-connectivity",
             "model: {family: simplex, n: 5}\nscan: {replicates: %d, "
             "grid: {kind: gamma, gammas: [1.0]}}\n" % (MAX_REPLICATES + 1),
             "scan: replicates"),
            ("nc-test", "model: {family: simplex, n: 5}\n"
             "nc_test: {configurations: %d}\n" % (MAX_NC_CONFIGURATIONS + 1),
             "nc_test.configurations")]:
        cfg = _write_cfg(tmp_path, text)
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err, err
        assert peak < 1 << 20
        assert not (tmp_path / "o").exists()


def test_cli_internal_value_error_exits_1(tmp_path):
    # a ValueError raised inside a scan is an internal error: it ends the
    # command with a traceback and exit status 1, not the config-error 2
    cfg = _write_cfg(tmp_path, """\
        model:
          family: gob
          component: {kind: power, a: 1.0, q: 2.0}
          radial_density: {kind: exponential, rate: 1.5}
        sampler: {burn_in: 10, thinning: 2}
        scan:
          n_list: [4]
          replicates: 30
          pilot_draws: 10
          grid: {kind: gamma, gammas: [1.0]}
    """)
    argv = ["scan-connectivity", "--config", cfg, "--out", str(tmp_path / "o")]
    code = textwrap.dedent(f"""\
        import sys
        from gobgraph import cli, orlicz
        def chord(self, x, u, tol=None, line=None):
            raise ValueError("injected chord failure")
        orlicz.GobSpec.chord = chord
        sys.exit(cli.main({argv!r}))
    """)
    src = str(Path(gobgraph.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1
    assert "ValueError: injected chord failure" in proc.stderr
    assert "config error" not in proc.stderr


def test_perfbench_tracer_finds_the_names_it_rebinds(tmp_path):
    # perfbench/child.py traces a run by rebinding package names from
    # outside (experiments.run_scan among them); a scan must still call
    # through each binding it wraps
    cfg = _write_cfg(tmp_path, """\
        model:
          family: gob
          component: {kind: power, a: 1.0, q: 2.0}
          radial_density: {kind: exponential, rate: 1.5}
        scan:
          n_list: [4]
          replicates: 30
          pilot_draws: 10
          grid: {kind: gamma, gammas: [1.0]}
    """)
    src = str(Path(gobgraph.__file__).resolve().parent.parent)
    child = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(child), src, str(record), "trace", "--",
         "scan-connectivity", "--config", cfg, "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    spans = {s["name"] for s in json.loads(record.read_text())["trace"]["spans"]}
    assert {"experiments.run_scan", "samplers.hr_draw", "orlicz.chord",
            "config.build_spec"} <= spans


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs about a second of start-up; only validate_sampler
    # needs it, so importing the CLI must not pull it in; nor the process
    # pool's modules (about 19 ms), which only a scan at --workers > 1 uses
    src = str(Path(gobgraph.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, gobgraph.cli; print([m for m in ('scipy.stats', "
            "'concurrent.futures', 'multiprocessing') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
