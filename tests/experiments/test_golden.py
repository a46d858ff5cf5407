"""Golden regression fixtures for the Fig. 7 quality numbers.

A small fixed grid (2 records × 2 CRs × both methods) is solved
end-to-end and compared against per-point PRD/SNR values committed in
``tests/experiments/golden/``.  The point is drift detection: any change
to the encode → transport → recover → score path that moves the
reconstruction quality — a solver tweak, a quantizer change, an operator
cache bug — fails this suite, while pure refactors pass.

Tolerances are relative and deliberately small-but-nonzero: across BLAS
builds the PDHG iterates differ at rounding level, which the stopping
rule can amplify to ~1e-4 relative on final PRD.  The 2e-3 band covers
that; real regressions move PRD by percents.

Regenerate (after an *intentional* quality change) with::

    PYTHONPATH=src python tests/experiments/test_golden.py --regen
"""

import json
from pathlib import Path

import pytest

from repro.core.config import FrontEndConfig
from repro.experiments.runner import ExperimentScale, sweep_compression_ratios
from repro.recovery.pdhg import PdhgSettings

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "fig7_smoke.json"
SCHEMA = "repro-golden-fig7/v1"

#: The Bayesian-family fixture: same records/scale, BSBL methods on the
#: CR points where measurements-only BSBL still operates (at 87.5% it
#: legitimately collapses, which is the comparison's point, not a
#: regression worth pinning).
BSBL_GOLDEN_PATH = GOLDEN_DIR / "bsbl_smoke.json"
BSBL_SCHEMA = "repro-golden-bsbl/v1"
BSBL_METHODS = ("bsbl", "bsbl-dequant")
BSBL_CR_VALUES = (50.0, 75.0)

#: Relative tolerance on PRD/SNR agreement (see module docstring).
RTOL = 2e-3

#: The fixed grid the fixtures pin.
RECORDS = ("100", "101")
CR_VALUES = (75.0, 87.5)
DURATION_S = 10.0
MAX_WINDOWS = 3
FIG7_METHODS = ("hybrid", "normal")


def golden_config() -> FrontEndConfig:
    """The fixture grid's base config — small enough to solve in seconds,
    big enough to exercise the real wavelet depth and both channels."""
    return FrontEndConfig(
        window_len=256,
        n_measurements=64,
        lowres_bits=7,
        solver=PdhgSettings(max_iter=1500, tol=2e-4),
    )


def expected_grid(methods, cr_values=CR_VALUES):
    """The grid metadata a fixture must match exactly."""
    return {
        "records": list(RECORDS),
        "cr_values": list(cr_values),
        "duration_s": DURATION_S,
        "max_windows": MAX_WINDOWS,
        "window_len": golden_config().window_len,
        "methods": list(methods),
    }


def compute_points(methods=FIG7_METHODS, cr_values=CR_VALUES):
    """Solve the golden grid; returns JSON-ready per-point dicts."""
    scale = ExperimentScale(
        record_names=RECORDS, duration_s=DURATION_S, max_windows=MAX_WINDOWS
    )
    points = sweep_compression_ratios(
        golden_config(),
        cr_values=cr_values,
        methods=methods,
        scale=scale,
        cache=False,
    )
    rows = []
    for point in points:
        for outcome in point.outcomes:
            rows.append(
                {
                    "record": outcome.record_name,
                    "cr_percent": round(point.cr_percent, 6),
                    "method": point.method,
                    "mean_prd_percent": outcome.mean_prd,
                    "mean_snr_db": outcome.mean_snr_db,
                }
            )
    return rows


def load_golden(
    path: Path = GOLDEN_PATH,
    schema: str = SCHEMA,
    methods=FIG7_METHODS,
    cr_values=CR_VALUES,
):
    """Load and validate a golden fixture file.

    Checks the schema tag, the grid parameters and per-point structure so
    a stale or hand-mangled fixture fails loudly here instead of as a
    confusing numeric mismatch later.
    """
    data = json.loads(path.read_text())
    if data.get("schema") != schema:
        raise ValueError(f"unexpected golden schema: {data.get('schema')!r}")
    grid = data.get("grid", {})
    expected = expected_grid(methods, cr_values)
    if grid != expected:
        raise ValueError(
            f"golden grid mismatch: fixture {grid} != expected {expected}"
        )
    points = data.get("points")
    required = {
        "record", "cr_percent", "method", "mean_prd_percent", "mean_snr_db",
    }
    if not points:
        raise ValueError("golden fixture has no points")
    for point in points:
        missing = required - point.keys()
        if missing:
            raise ValueError(f"golden point missing fields: {sorted(missing)}")
        if not (point["mean_prd_percent"] > 0 and point["mean_snr_db"] > 0):
            raise ValueError(f"golden point has non-positive quality: {point}")
    return points


def write_golden(
    path: Path = GOLDEN_PATH,
    schema: str = SCHEMA,
    methods=FIG7_METHODS,
    cr_values=CR_VALUES,
) -> None:
    """Regenerate a fixture file from the current pipeline."""
    payload = {
        "schema": schema,
        "grid": expected_grid(methods, cr_values),
        "points": compute_points(methods, cr_values),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")


class TestGoldenLoader:
    def test_fixture_loads_and_validates(self):
        points = load_golden()
        # 2 records x 2 CRs x 2 methods
        assert len(points) == 8

    def test_loader_rejects_bad_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope", "points": []}))
        with pytest.raises(ValueError, match="schema"):
            load_golden(bad)

    def test_loader_rejects_grid_drift(self, tmp_path):
        data = json.loads(GOLDEN_PATH.read_text())
        data["grid"]["max_windows"] = 99
        bad = tmp_path / "drift.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="grid mismatch"):
            load_golden(bad)


class TestGoldenRegression:
    @pytest.fixture(scope="class")
    def computed(self):
        return {
            (r["record"], r["cr_percent"], r["method"]): r
            for r in compute_points()
        }

    def test_quality_matches_fixture(self, computed):
        golden = load_golden()
        assert len(golden) == len(computed)
        for point in golden:
            key = (point["record"], point["cr_percent"], point["method"])
            assert key in computed, f"grid point {key} not computed"
            got = computed[key]
            assert got["mean_prd_percent"] == pytest.approx(
                point["mean_prd_percent"], rel=RTOL
            ), f"PRD drift at {key}"
            assert got["mean_snr_db"] == pytest.approx(
                point["mean_snr_db"], rel=RTOL
            ), f"SNR drift at {key}"

    def test_hybrid_beats_normal_on_fixture(self):
        """Sanity on the committed numbers themselves: the paper's core
        claim (bounds help) must hold at every golden grid point."""
        golden = {
            (p["record"], p["cr_percent"], p["method"]): p
            for p in load_golden()
        }
        for record in RECORDS:
            for cr in CR_VALUES:
                hybrid = golden[(record, cr, "hybrid")]
                normal = golden[(record, cr, "normal")]
                assert hybrid["mean_snr_db"] > normal["mean_snr_db"]


class TestBsblGolden:
    """The Bayesian-family fixture: same grid, BSBL methods.

    Pins the full dispatch path (engine → receiver → EM solver) for
    ``"bsbl"`` and ``"bsbl-dequant"`` so a prior tweak, a gamma-rule
    change or an E-step bug shows up as quality drift."""

    @pytest.fixture(scope="class")
    def computed(self):
        return {
            (r["record"], r["cr_percent"], r["method"]): r
            for r in compute_points(BSBL_METHODS, BSBL_CR_VALUES)
        }

    def test_fixture_loads_and_validates(self):
        points = load_golden(
            BSBL_GOLDEN_PATH, BSBL_SCHEMA, BSBL_METHODS, BSBL_CR_VALUES
        )
        # 2 records x 2 CRs x 2 methods
        assert len(points) == 8

    def test_quality_matches_fixture(self, computed):
        golden = load_golden(
            BSBL_GOLDEN_PATH, BSBL_SCHEMA, BSBL_METHODS, BSBL_CR_VALUES
        )
        assert len(golden) == len(computed)
        for point in golden:
            key = (point["record"], point["cr_percent"], point["method"])
            assert key in computed, f"grid point {key} not computed"
            got = computed[key]
            assert got["mean_prd_percent"] == pytest.approx(
                point["mean_prd_percent"], rel=RTOL
            ), f"PRD drift at {key}"
            assert got["mean_snr_db"] == pytest.approx(
                point["mean_snr_db"], rel=RTOL
            ), f"SNR drift at {key}"

    def test_dequant_beats_plain_bsbl_on_fixture(self):
        """Sanity on the committed numbers: the low-res channel is extra
        information, so de-quantization must beat measurements-only BSBL
        at every golden grid point."""
        golden = {
            (p["record"], p["cr_percent"], p["method"]): p
            for p in load_golden(
                BSBL_GOLDEN_PATH, BSBL_SCHEMA, BSBL_METHODS, BSBL_CR_VALUES
            )
        }
        for record in RECORDS:
            for cr in BSBL_CR_VALUES:
                dequant = golden[(record, cr, "bsbl-dequant")]
                plain = golden[(record, cr, "bsbl")]
                assert dequant["mean_snr_db"] > plain["mean_snr_db"]


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        write_golden()
        print(f"wrote {GOLDEN_PATH}")
        write_golden(
            BSBL_GOLDEN_PATH, BSBL_SCHEMA, BSBL_METHODS, BSBL_CR_VALUES
        )
        print(f"wrote {BSBL_GOLDEN_PATH}")
    else:
        print("pass --regen to rewrite the golden fixtures")
