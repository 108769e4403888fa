"""Golden CSVs: each config in tests/golden/ is rerun and must reproduce the
rows recorded next to it.

Rows, designs, sweep values and error strings must be identical.  Numeric
columns must agree within 1e-9 relative; ``qstem_residual`` has an absolute
floor of 1e-10, since residuals of exact syntheses are rounding noise, and
``abs_det`` one of 1e-12 ``d_max``, since a rank-deficient RIS channel (M < r)
has a |det| at rounding level, orders below the ceiling d_max.  The
``sigma_min_h`` of ``max_det_phase_corrected`` rows may differ by 1e-6
relative: the phase optimizer stops at |dphi| < 1e-7, so phi itself is only
that accurate.

Regenerate the CSVs, when a change of the numbers is intended, with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

which rewrites the CSV of each named config (``NAME`` is the config's file
stem, e.g. ``rate_vs_snr_direct``), or of every config when none is named.
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
DET_FLOOR = 1e-12  # times d_max
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
            rel, floor = REL_TOL, 0.0
            if col == "qstem_residual":
                floor = RESIDUAL_FLOOR
            if col == "abs_det" and w["d_max"]:
                floor = DET_FLOOR * float(w["d_max"])
            if col == "sigma_min_h" and w["design"] == "max_det_phase_corrected":
                rel = PHASE_SIGMA_TOL
            assert _close(g[col], w[col], rel, floor), f"{where}: {col} {g[col]} != {w[col]}"


def test_every_experiment_is_covered():
    text = " ".join(path.read_text() for path in CONFIGS)
    assert all(f"experiment = {name}\n" in text for name in harness.EXPERIMENTS)


def main(names):
    by_name = {path.stem: path for path in CONFIGS}
    unknown = sorted(set(names) - by_name.keys())
    if unknown:
        raise SystemExit(f"no golden config named {', '.join(unknown)}; have {', '.join(sorted(by_name))}")
    for path in [by_name[name] for name in names] if names else CONFIGS:
        path.with_suffix(".csv").write_bytes(run_csv(path))
        print(f"wrote {path.with_suffix('.csv').name}")


if __name__ == "__main__":
    main(sys.argv[1:])
