"""CSV and plot-data emission for scan results."""

import os
from dataclasses import fields

from .experiments import ScanRow

# the CSV columns are the ScanRow fields, in declaration order, minus the
# diagnostic ones marked csv=False
_CSV_FIELDS = tuple(f.name for f in fields(ScanRow) if f.metadata.get("csv", True))
CSV_HEADER = ",".join(_CSV_FIELDS)

# metric name -> (estimate, lo, hi) row attributes
PLOT_METRICS = {
    "connected": ("p_connected", "p_connected_lo", "p_connected_hi"),
    "isolated": ("p_has_isolated", "p_has_isolated_lo", "p_has_isolated_hi"),
    "mid_component": ("p_mid_component", "p_mid_component_lo", "p_mid_component_hi"),
}


def _fmt(v):
    if isinstance(v, int):
        return str(v)
    return format(v, ".6g")


def emit_csv(result, path):
    """Write a scan result as CSV: fixed header, rows sorted by (n, p)."""
    if not result.rows:
        raise ValueError("refusing to emit an empty scan result")
    rows = sorted(result.rows, key=lambda r: (r.n, r.p))
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_fmt(getattr(r, f)) for f in _CSV_FIELDS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def emit_plotdata(result, out_dir, master_seed, cfg_hash, stem="scan"):
    """Per-(n, metric) whitespace files: p, estimate, lo, hi.

    Each file carries a comment header with the master seed and the
    resolved config hash.
    """
    if not result.rows:
        raise ValueError("refusing to emit an empty scan result")
    os.makedirs(out_dir, exist_ok=True)
    by_n = {}
    for row in sorted(result.rows, key=lambda r: (r.n, r.p)):
        by_n.setdefault(row.n, []).append(row)
    paths = []
    for n, rows in sorted(by_n.items()):
        for metric, (est, lo, hi) in PLOT_METRICS.items():
            path = os.path.join(out_dir, f"{stem}_{metric}_n{n}.dat")
            lines = [
                f"# master_seed={master_seed} config_hash={cfg_hash}",
                f"# n={n} metric={metric}",
                "# p estimate lo hi",
            ]
            for r in rows:
                lines.append(" ".join(_fmt(v) for v in (
                    r.p, getattr(r, est), getattr(r, lo), getattr(r, hi))))
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
            paths.append(path)
    return paths
