"""Golden CSVs: each config in tests/golden/ is rerun and must reproduce the
rows recorded next to it.

Rows, designs, sweep values and error strings must be identical.  Numeric
columns must agree within 1e-9 relative; ``qstem_residual`` has an absolute
floor of 1e-10, since residuals of exact syntheses are rounding noise.  The
``sigma_min_h`` of ``max_det_phase_corrected`` rows may differ by 1e-6
relative, because sigma_min moves to first order with phi where the rate, at
its maximum, moves only to second order.  The recorded rows come from a phase
search that stopped at |dphi| < 1e-7.  phase_correction takes phi as the
maximizer of the trigonometric polynomial that 2r + 1 exact samples fix, at
a root of the polynomial whose roots are its critical points, so phi is as
accurate as the rounding of that polynomial allows against the curvature of
its peak.

Regenerate the CSVs, when a change of the numbers is intended, with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

which rewrites the CSV of each named config (``NAME`` is the config's file
stem, e.g. ``rate_vs_snr_direct``), or of every config when none is named.
A cell the comparison below accepts keeps its recorded text, so only the
cells that moved beyond their tolerance are rewritten.
"""

import csv
import io
import math
import sys
from pathlib import Path

import pytest

from bdris import harness

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted(GOLDEN.glob("*.cfg"))
EXACT_COLUMNS = ("experiment", "trial", "design", "sweep_value", "error")
REL_TOL = 1e-9
RESIDUAL_FLOOR = 1e-10
PHASE_SIGMA_TOL = 1e-6


def run_csv(config_path):
    return harness.csv_bytes(harness.run_experiment(harness.load_config(config_path)))


def _rows(data):
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _close(got, want, rel, floor=0.0):
    if got == "" or want == "":
        return got == want
    a, b = float(got), float(want)
    if not (math.isfinite(a) and math.isfinite(b)):
        return got == want
    return abs(a - b) <= max(rel * abs(b), floor)


def _accepts(col, got, want):
    """Whether the numeric cell ``col`` of row ``got`` matches row ``want``."""
    rel, floor = REL_TOL, 0.0
    if col == "qstem_residual":
        floor = RESIDUAL_FLOOR
    if col == "sigma_min_h" and want["design"] == "max_det_phase_corrected":
        rel = PHASE_SIGMA_TOL
    return _close(got[col], want[col], rel, floor)


def merge_recorded(got, want):
    """The rerun CSV ``got`` with every cell that the golden comparison accepts
    kept as recorded in ``want``; ``got`` itself when the rows do not line up."""
    new, old = _rows(got), _rows(want)
    if len(new) != len(old) or got.partition(b"\n")[0] != want.partition(b"\n")[0]:
        return got
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(harness.CSV_COLUMNS)
    for g, w in zip(new, old):
        same_row = [g[c] for c in EXACT_COLUMNS] == [w[c] for c in EXACT_COLUMNS]
        writer.writerow([w[c] if same_row and c not in EXACT_COLUMNS and _accepts(c, g, w) else g[c]
                         for c in harness.CSV_COLUMNS])
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_reproduces_golden_csv(config):
    got = _rows(run_csv(config))
    want = _rows(config.with_suffix(".csv").read_bytes())
    assert len(got) == len(want)
    assert got[0].keys() == want[0].keys()
    for g, w in zip(got, want):
        where = f"trial {w['trial']} {w['design']} @ {w['sweep_value']}"
        assert [g[c] for c in EXACT_COLUMNS] == [w[c] for c in EXACT_COLUMNS], where
        for col in g.keys() - set(EXACT_COLUMNS):
            assert _accepts(col, g, w), f"{where}: {col} {g[col]} != {w[col]}"


def test_regeneration_rewrites_only_what_moved():
    want = CONFIGS[0].with_suffix(".csv").read_bytes()
    rate = _rows(want)[0]["rate_bits"]

    def with_rate(factor):  # the recorded CSV with its first rate scaled
        return want.replace(rate.encode(), repr(float(rate) * factor).encode(), 1)

    within, moved = with_rate(1.0 + 1e-12), with_rate(1.0 + 1e-6)
    assert want != within and merge_recorded(within, want) == want
    assert want != moved and merge_recorded(moved, want) == moved
    assert merge_recorded(moved, b"") == moved


def test_every_experiment_is_covered():
    text = " ".join(path.read_text() for path in CONFIGS)
    assert all(f"experiment = {name}\n" in text for name in harness.EXPERIMENTS)


def main(names):
    by_name = {path.stem: path for path in CONFIGS}
    unknown = sorted(set(names) - by_name.keys())
    if unknown:
        raise SystemExit(f"no golden config named {', '.join(unknown)}; have {', '.join(sorted(by_name))}")
    for path in [by_name[name] for name in names] if names else CONFIGS:
        out = path.with_suffix(".csv")
        out.write_bytes(merge_recorded(run_csv(path), out.read_bytes() if out.exists() else b""))
        print(f"wrote {out.name}")


if __name__ == "__main__":
    main(sys.argv[1:])
