import hashlib
import json
import math
import subprocess
import sys

import pytest

from thermometry import GENERATOR_ID, two_level_factor
from thermometry.cli import main

TWO_LEVEL_SPECTRUM = {"label": "qubit", "levels": [{"energy": 0.0}, {"energy": 1.0}]}
SINGLE_LEVEL_SPECTRUM = {"label": "flat", "levels": [{"energy": 0.0, "degeneracy": 3}]}


@pytest.fixture
def spectrum_file(tmp_path):
    path = tmp_path / "qubit.json"
    path.write_text(json.dumps(TWO_LEVEL_SPECTRUM))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = [line for line in text.strip().splitlines() if not line.startswith("#")]
    header, data = rows[0], rows[1:]
    return header.split(","), [row.split(",") for row in data]


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def test_bound_reports_optimal_floor(capsys, spectrum_file):
    T = 1.0 / 2.4
    code, out, _ = run_cli(
        capsys, "bound", "--spectrum", spectrum_file, "--temperature", str(T), "--shots", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["crb_single_shot"] / T**2 == pytest.approx(2.2767177663074674, rel=1e-12)
    assert report["fisher"] == pytest.approx(report["specific_heat"] / T**2, rel=1e-12)
    assert len(report["sld_eigenvalues"]) == 2
    assert report["crb_m_shots"] == report["crb_single_shot"]


def test_bound_m_shot_scaling(capsys, spectrum_file):
    code, out, _ = run_cli(
        capsys, "bound", "--spectrum", spectrum_file, "-T", "1.0", "-M", "100"
    )
    assert code == 0
    report = json.loads(out)
    assert report["crb_m_shots"] == pytest.approx(report["crb_single_shot"] / 100, rel=1e-14)


def test_bound_single_level_unbounded(capsys, tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(SINGLE_LEVEL_SPECTRUM))
    code, out, _ = run_cli(capsys, "bound", "--spectrum", str(path), "-T", "1.0")
    assert code == 0
    report = json.loads(out)
    assert report["crb_single_shot"] == "unbounded"
    assert report["crb_m_shots"] == "unbounded"


def test_bound_rejects_zero_temperature(capsys, spectrum_file):
    code, out, err = run_cli(capsys, "bound", "--spectrum", spectrum_file, "-T", "0.0")
    assert code == 3
    assert out == ""
    assert "--temperature" in err


def test_bound_malformed_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run_cli(capsys, "bound", "--spectrum", str(bad), "-T", "1.0")
    assert code == 2
    assert "bad.json" in err
    missing = tmp_path / "missing_levels.json"
    missing.write_text(json.dumps({"label": "x"}))
    code, _, err = run_cli(capsys, "bound", "--spectrum", str(missing), "-T", "1.0")
    assert code == 2
    assert "levels" in err


# ---------------------------------------------------------------------------
# gfun / hfun
# ---------------------------------------------------------------------------

def test_gfun_grid(capsys):
    code, out, _ = run_cli(
        capsys, "gfun", "--min", "0.5", "--max", "10", "--step", "0.01"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "g"]
    assert len(rows) == 951
    values = [(float(x), float(g)) for x, g in rows]
    x_min, g_min = min(values, key=lambda p: p[1])
    assert x_min == pytest.approx(2.40, abs=0.005)
    assert g_min == pytest.approx(2.2767, abs=1e-3)


def test_gfun_round_trips_losslessly(capsys):
    code, out, _ = run_cli(capsys, "gfun", "--min", "1", "--max", "2", "--step", "0.1")
    assert code == 0
    _, rows = parse_csv(out)
    for x_text, g_text in rows:
        assert float(g_text) == two_level_factor(float(x_text))


def test_gfun_step_larger_than_range(capsys):
    code, _, err = run_cli(capsys, "gfun", "--min", "1", "--max", "2", "--step", "5")
    assert code == 3
    assert "step" in err


def test_hfun_grid(capsys):
    code, out, _ = run_cli(capsys, "hfun", "--min", "1", "--max", "6", "--step", "0.05")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "y", "h"]
    assert len(rows) == 101 * 101
    values = [(float(x), float(y), float(h)) for x, y, h in rows]
    xm, ym, hm = min(values, key=lambda p: p[2])
    assert xm == pytest.approx(2.65, abs=0.001)
    assert ym == pytest.approx(2.65, abs=0.001)
    assert hm == pytest.approx(1.3127, abs=1e-3)


# ---------------------------------------------------------------------------
# minima
# ---------------------------------------------------------------------------

def test_minima_report(capsys):
    code, out, _ = run_cli(capsys, "minima")
    assert code == 0
    fields = {}
    for line in out.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        key, _, value = line.partition(" = ")
        fields[key] = value
    assert float(fields["two_level_xm"]) == pytest.approx(2.4, abs=0.05)
    assert float(fields["two_level_min"]) == pytest.approx(2.27, abs=0.01)
    assert float(fields["three_level_xh"]) == pytest.approx(2.66, abs=0.05)
    assert float(fields["three_level_yh"]) == float(fields["three_level_xh"])
    assert float(fields["three_level_min"]) == pytest.approx(1.31, abs=0.01)
    assert fields["two_level_converged"] == "true"
    assert fields["three_level_converged"] == "true"


def test_minima_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "minima")
    _, second, _ = run_cli(capsys, "minima")
    assert first == second


# ---------------------------------------------------------------------------
# sweep / simulate
# ---------------------------------------------------------------------------

def test_sweep_csv(capsys, spectrum_file):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--spectrum", spectrum_file,
        "--temperatures", str(1.0 / 1.2), str(1.0 / 2.4), str(1.0 / 4.8),
        "--shots", "50",
        "--trials", "40",
        "--seed", "7",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["T", "crb", "empirical_mse", "ratio", "excluded", "trials_used"]
    assert len(rows) == 3
    factors = [float(r[1]) / float(r[0]) ** 2 * 50 for r in rows]
    assert factors[0] == pytest.approx(3.9036882879505206, rel=1e-12)
    assert factors[1] == pytest.approx(2.276717766307468, rel=1e-12)
    assert factors[2] == pytest.approx(5.361052398688536, rel=1e-12)
    for row in rows:
        assert int(row[4]) + int(row[5]) == 40


def test_simulate_small_config(capsys, tmp_path):
    cfg = {
        "spectrum": TWO_LEVEL_SPECTRUM,
        "true_temperature": 1.0 / 2.4,
        "shots_per_trial": 200,
        "trials": 300,
        "estimator": "mle",
        "seed": 11,
        "degenerate_sample_policy": "exclude_and_report",
    }
    path = tmp_path / "run.cfg"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["trials_used"] + report["excluded_trials"] == 300
    assert report["config"]["seed"] == 11
    assert report["generator"].startswith("numpy.random.PCG64")
    assert 0.5 < report["ratio"] < 2.0


def test_simulate_same_seed_identical_output(capsys, tmp_path):
    cfg = {
        "spectrum": TWO_LEVEL_SPECTRUM,
        "true_temperature": 0.5,
        "shots_per_trial": 100,
        "trials": 100,
        "estimator": "mle",
        "seed": 3,
        "degenerate_sample_policy": "exclude_and_report",
    }
    path = tmp_path / "run.cfg"
    path.write_text(json.dumps(cfg))
    _, first, _ = run_cli(capsys, "simulate", "--config", str(path))
    _, second, _ = run_cli(capsys, "simulate", "--config", str(path))
    assert first == second


def test_simulate_abort_policy_exits_4(capsys, tmp_path):
    cfg = {
        "spectrum": TWO_LEVEL_SPECTRUM,
        "true_temperature": 100.0,
        "shots_per_trial": 9,
        "trials": 200,
        "estimator": "mle",
        "seed": 1,
        "degenerate_sample_policy": "abort",
    }
    path = tmp_path / "abort.cfg"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 4
    assert "degenerate" in err
    # the first degenerate trial in trial order, with its counts
    assert err == (
        "error: trial 3 produced a degenerate sample (status non_invertible, counts (3, 6))\n"
    )


FIVE_LEVEL_SPECTRUM = {
    "label": "five",
    "levels": [
        {"energy": 0.0, "degeneracy": 1},
        {"energy": 0.5, "degeneracy": 2},
        {"energy": 1.0, "degeneracy": 3},
        {"energy": 1.5, "degeneracy": 2},
        {"energy": 2.0, "degeneracy": 1},
    ],
}


def _report_digest(out: str) -> str:
    # the generator line names the numpy version; the report bits are what is pinned
    return hashlib.sha256(out.replace(GENERATOR_ID, "<generator>").encode()).hexdigest()


@pytest.mark.parametrize(
    "config,digest",
    [
        (
            {"spectrum": TWO_LEVEL_SPECTRUM, "true_temperature": 1.0 / 2.4,
             "shots_per_trial": 200, "trials": 300, "estimator": "mle", "seed": 11,
             "degenerate_sample_policy": "exclude_and_report"},
            "bbd0814df08e43dc0243f714ae5d7e1c27db00628bef6e3655797ac48eefb975",
        ),
        (
            {"spectrum": FIVE_LEVEL_SPECTRUM, "true_temperature": 0.4,
             "shots_per_trial": 500, "trials": 100, "estimator": "bayes", "seed": 5,
             "degenerate_sample_policy": "exclude_and_report", "bayes_grid_size": 1024},
            "df279f5b975563a1b0eefc3e5f53e56d65457475a8eb818d1b4fd4b27fb34734",
        ),
    ],
    ids=["mle", "bayes"],
)
def test_simulate_report_bytes_pinned(capsys, tmp_path, config, digest):
    # digests of the reports written by the one-trial-at-a-time implementation
    path = tmp_path / "run.cfg"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0
    assert _report_digest(out) == digest


def test_sweep_csv_bytes_pinned(capsys, spectrum_file):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--spectrum", spectrum_file,
        "--temperatures", str(1.0 / 1.2), str(1.0 / 2.4), str(1.0 / 4.8),
        "--shots", "50",
        "--trials", "40",
        "--seed", "7",
    )
    assert code == 0
    assert _report_digest(out) == (
        "24d3c9a430690c9c7a3440356ffc83493405cb86f6eba0946a273dddbe430842"
    )


def test_simulate_malformed_config_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(json.dumps({"spectrum": TWO_LEVEL_SPECTRUM}))
    code, _, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert "true_temperature" in err


@pytest.mark.parametrize(
    "field",
    [
        {"bayes_prior": [None, 1.0]},
        {"bayes_grid_size": None},
        {"mle_bracket": ["a", 1.0]},
        {"bayes_grid_size": 100.7},
    ],
)
def test_simulate_malformed_config_field_one_line_exit_2(capsys, tmp_path, field):
    config = {"spectrum": TWO_LEVEL_SPECTRUM, "true_temperature": 0.4,
              "shots_per_trial": 10, "trials": 5, "seed": 0, **field}
    path = tmp_path / "bad.cfg"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert next(iter(field)) in err


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------

def test_tune_linear_family(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(
        json.dumps(
            {"kind": "linear", "slope": 1.0, "intercept": 0.0,
             "lambda_min": 0.01, "lambda_max": 10.0}
        )
    )
    code, out, _ = run_cli(capsys, "tune", "--family", str(path), "-T", "1.0")
    assert code == 0
    report = json.loads(out)
    assert report["bound_over_T2"] == pytest.approx(2.27, abs=0.01)
    assert report["lambda_star"] == pytest.approx(2.3993572805154675, abs=1e-6)
    assert report["gap"] == pytest.approx(report["lambda_star"], rel=1e-12)


def test_tune_quadratic_family(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(
        json.dumps(
            {"kind": "quadratic", "curvature": 1.0, "center": 3.0, "gap_min": 5.0,
             "lambda_min": 0.0, "lambda_max": 6.0}
        )
    )
    code, out, _ = run_cli(capsys, "tune", "--family", str(path), "-T", "1.0")
    assert code == 0
    report = json.loads(out)
    assert report["lambda_star"] == pytest.approx(3.0, abs=1e-6)
    assert report["bound_over_T2"] == pytest.approx(6.016795881983028, rel=1e-9)


def test_tune_table_family(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(
        json.dumps({"kind": "table", "points": [[0.0, 0.5], [5.0, 2.4], [10.0, 9.0]]})
    )
    code, out, _ = run_cli(capsys, "tune", "--family", str(path), "-T", "1.0")
    assert code == 0
    report = json.loads(out)
    assert report["bound_over_T2"] == pytest.approx(2.2767175312280727, rel=1e-6)


def test_tune_rejects_unknown_kind(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"kind": "spline"}))
    code, _, err = run_cli(capsys, "tune", "--family", str(path), "-T", "1.0")
    assert code == 2
    assert "kind" in err


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_from_sample_file(capsys, tmp_path, spectrum_file):
    sample_path = tmp_path / "sample.json"
    sample_path.write_text(
        json.dumps({"spectrum_label": "qubit", "counts": [731, 269], "M": 1000})
    )
    code, out, _ = run_cli(
        capsys, "estimate", "--sample", str(sample_path), "--spectrum", spectrum_file
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "interior"
    assert report["estimate"] == pytest.approx(1.0 / math.log(731 / 269), rel=1e-10)


def test_estimate_with_posterior(capsys, tmp_path, spectrum_file):
    sample_path = tmp_path / "sample.json"
    sample_path.write_text(json.dumps({"spectrum_label": "qubit", "counts": [731, 269]}))
    code, out, _ = run_cli(
        capsys,
        "estimate",
        "--sample", str(sample_path),
        "--spectrum", spectrum_file,
        "--prior", "0.2", "5.0",
        "--grid", "4096",
    )
    assert code == 0
    report = json.loads(out)
    assert report["posterior_mean"] == pytest.approx(1.0148556037302665, rel=1e-9)
    assert report["posterior_sd"] == pytest.approx(0.07434260732264761, rel=1e-9)


def test_estimate_boundary_sample(capsys, tmp_path, spectrum_file):
    sample_path = tmp_path / "sample.json"
    sample_path.write_text(json.dumps({"spectrum_label": "qubit", "counts": [500, 500]}))
    code, out, _ = run_cli(
        capsys, "estimate", "--sample", str(sample_path), "--spectrum", spectrum_file
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "non_invertible"
    assert report["estimate"] is None


def test_estimate_label_mismatch_exits_2(capsys, tmp_path, spectrum_file):
    sample_path = tmp_path / "sample.json"
    sample_path.write_text(json.dumps({"spectrum_label": "other", "counts": [7, 3]}))
    code, _, err = run_cli(
        capsys, "estimate", "--sample", str(sample_path), "--spectrum", spectrum_file
    )
    assert code == 2
    assert "spectrum_label" in err


# ---------------------------------------------------------------------------
# shared behavior
# ---------------------------------------------------------------------------

def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "gfun", "--min", "1", "--max", "2", "--step", "0.5", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("#")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "thermometry", "minima"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "two_level_xm" in proc.stdout


def test_unknown_subcommand_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "thermometry", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
