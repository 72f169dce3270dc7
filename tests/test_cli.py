import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

import gobgraph
from gobgraph.cli import main
from gobgraph.config import (ConfigError, build_spec, config_hash, n_list,
                             normalized, parse_config)
from gobgraph.experiments import er_connectivity_oracle
from gobgraph.report import CSV_HEADER, emit_csv, emit_plotdata
from gobgraph.experiments import ScanResult, ScanRow

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
    assert cfg.model.family == "cube"
    assert n_list(cfg) == [50]
    spec = build_spec(cfg.model)
    assert spec.dim == 1225
    assert cfg.sampler.method == "exact_cube"  # family default


def test_parse_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("model:\n  family: cube\n  n: 5\n  extra: 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("model:\n  family: cube\n  n: 5\nbogus: {}\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(
            "model:\n  family: cube\n  n: 5\nsampler:\n  walk_length: 3\n")


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
    spec = build_spec(cfg.model)
    assert spec.dim == 6
    assert cfg.sampler.method == "hit_and_run"
    with pytest.raises(ConfigError, match="kind"):
        parse_config(text.replace("power", "cubic"))
    with pytest.raises(ConfigError, match="rate"):
        parse_config(text.replace("rate: 0.5", "rate: -2"))


def test_simplex_coefficient_convention():
    cfg = parse_config("model:\n  family: simplex\n  n: 3\n  coeff: 2.0\n")
    spec = build_spec(cfg.model)
    # sum 2 x_e <= 1  <=>  extent 1/2 per edge
    assert np.allclose(spec.a, 0.5)


def test_missing_n_is_an_error():
    with pytest.raises(ConfigError, match="n"):
        parse_config("model:\n  family: cube\n")


@pytest.mark.parametrize("name,mode", [
    ("cube_scan.yaml", "connectivity"),
    ("simplex_connectivity.yaml", "connectivity"),
    ("simplex_giant.yaml", "giant"),
    ("gob_mixed.yaml", "connectivity"),
])
def test_documented_configs_roundtrip(name, mode):
    text = (DOCS / name).read_text()
    cfg = parse_config(text, scan_mode=mode)
    norm = normalized(cfg)
    # re-serialize the normalized form and parse it back
    again = parse_config(yaml.safe_dump(norm), scan_mode=mode)
    assert normalized(again) == norm
    assert config_hash(again, 7) == config_hash(cfg, 7)
    assert config_hash(again, 8) != config_hash(cfg, 7)


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
    assert len(manifest["config_hash"]) == 16
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


def test_cli_exit_codes(tmp_path):
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


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs about a second of start-up; only validate_sampler
    # needs it, so importing the CLI must not pull it in
    src = str(Path(gobgraph.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, gobgraph.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
