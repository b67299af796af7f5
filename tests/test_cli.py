import contextlib
import copy
import hashlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from _strategies import spectra, temperatures
from thermometry import GENERATOR_ID, cli, make_spectrum, save_spectrum, two_level_factor
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


def test_bound_report_bytes_pinned(capsys, tmp_path):
    # 300 levels on a 1/64 lattice, 89 energies repeated exactly (merged on load);
    # the digest is that of the report written by json.dumps(report, indent=2)
    levels = [{"energy": (i * 37 % 211) / 64, "degeneracy": 1 + i % 3} for i in range(300)]
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"label": "lattice-300", "levels": levels}))
    code, out, _ = run_cli(capsys, "bound", "--spectrum", str(path), "-T", "1.7", "-M", "250")
    assert code == 0
    assert len(json.loads(out)["sld_eigenvalues"]) == 211
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6191f2c811bed6bb7c2c01d463a61b32f7a6cb61fb40fc582b1fbde48d13dc40"
    )


def test_bound_overflowing_sld_eigenvalue_prints_infinity(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"label": "wide", "levels": [{"energy": 0.0}, {"energy": 1e300}]}))
    code, out, _ = run_cli(capsys, "bound", "--spectrum", str(path), "-T", "1e-10")
    assert code == 0
    report = json.loads(out)
    assert report["sld_eigenvalues"] == [0.0, math.inf]
    assert out == json.dumps(report, indent=2) + "\n"
    assert out.endswith('  "sld_eigenvalues": [\n    0.0,\n    Infinity\n  ]\n}\n')


def test_bound_empty_level_beyond_float_range_adds_no_variance(tmp_path):
    # the empty level's squared deviation overflows: it adds 0, not 0 * inf = NaN,
    # and no numpy warning reaches stderr
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"label": "wide", "levels": [{"energy": 0.0}, {"energy": 1e300}]}))
    proc = subprocess.run(
        [sys.executable, "-m", "thermometry", "bound", "--spectrum", str(path), "-T", "1e-10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == json.dumps(
        {
            "spectrum_label": "wide",
            "temperature": 1e-10,
            "fisher": 0.0,
            "specific_heat": 0.0,
            "crb_single_shot": "unbounded",
            "shots": 1,
            "crb_m_shots": "unbounded",
            "sld_eigenvalues": [0.0, math.inf],
        },
        indent=2,
    ) + "\n"


@settings(max_examples=50, deadline=None)
@given(spectra(), temperatures(0.01, 100.0), st.floats(-1e8, 1e8))
def test_bound_stdout_of_a_shifted_spectrum_is_that_of_its_gaps(tmp_path_factory, s, T, c):
    shifted = make_spectrum([(e + c, m) for e, m in zip(s.energies, s.multiplicities)], "shifted")
    gaps = make_spectrum(zip(shifted.gaps, shifted.multiplicities), "gaps")
    assume(gaps.energies == shifted.gaps)  # the merge may group rounded gaps differently
    outputs = []
    for spectrum in (shifted, gaps):
        path = tmp_path_factory.mktemp("spectrum") / "s.json"
        save_spectrum(spectrum, path)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["bound", "--spectrum", str(path), "-T", repr(T), "-M", "7"]) == 0
        outputs.append(out.getvalue())
    assert outputs[0].replace('"shifted"', '"gaps"', 1) == outputs[1]


_report_floats = st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324])
_report_scalars = (
    _report_floats | st.integers(-(10**20), 10**20) | st.text(max_size=6) | st.none()
    | st.booleans()
)
_report_lists = st.lists(_report_floats | st.integers(-(10**6), 10**6), max_size=40) | st.lists(
    _report_scalars, max_size=3
)
_report_nested = st.lists(_report_lists | _report_scalars, max_size=3) | st.dictionaries(
    st.text(max_size=4), _report_scalars | _report_lists, max_size=3
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(
    st.text(max_size=8), _report_scalars | _report_lists | _report_nested, max_size=8
))
def test_json_text_matches_the_indenting_encoder(report):
    assert cli._json_text(report) == json.dumps(report, indent=2) + "\n"


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


@pytest.mark.parametrize("points", [[[None, 1], [1, 2]], [[0, 1], [1, [2]]]])
def test_tune_malformed_table_point_one_line_exit_2(capsys, tmp_path, points):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"kind": "table", "points": points}))
    code, out, err = run_cli(capsys, "tune", "--family", str(path), "-T", "1.0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: points[") and err.count("\n") == 1


@pytest.mark.parametrize(
    "points, code, message",
    [
        ([[0.0, 1.0], [1e-300, 1.0000000001], [1.0, 3.0]], 2,
         "invalid gap family: table family interpolation overflows"
         " (points too close or far apart)"),
        ([[3.909014152741032e154, 0.5], [5.0, 2.4], [10.0, 9.0]], 3,
         "gap at lambda=3.909014152741032e+154 must be finite and >= 0, got nan"),
    ],
    ids=["coefficient-overflows", "evaluation-overflows"],
)
def test_tune_table_beyond_float_range_one_line(capsys, tmp_path, points, code, message):
    # the interpolant's construction overflows; numpy's warning must not reach stderr
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"kind": "table", "points": points}))
    assert run_cli(capsys, "tune", "--family", str(path), "-T", "1.0") == (
        code, "", f"error: {message}\n"
    )


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


@pytest.mark.parametrize(
    "prior, message",
    [
        (["1e-320", "1"],
         "prior interval lower end 1e-320 is out of range: T^-1 under- or overflows"),
        (["1e-307", "1e-306"],
         "prior interval [1e-307, 1e-306]: the sample's log-likelihood has no finite maximum"
         " on the grid"),
    ],
    ids=["reciprocal-overflows", "likelihood-overflows"],
)
def test_estimate_prior_beyond_float_range_exits_3(capsys, tmp_path, spectrum_file, prior, message):
    # 1/T overflows at the first grid point, or the log-likelihood overflows to -inf at
    # every grid point: either would make the posterior mean NaN
    sample_path = tmp_path / "sample.json"
    sample_path.write_text(json.dumps(QUBIT_SAMPLE))
    code, out, err = run_cli(
        capsys, "estimate", "--sample", str(sample_path), "--spectrum", spectrum_file,
        "--prior", *prior, "--grid", "64",
    )
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


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


def test_sweep_rejects_negative_seed(capsys, spectrum_file):
    code, out, err = run_cli(
        capsys, "sweep", "--spectrum", spectrum_file, "--temperatures", "0.5",
        "--shots", "10", "--trials", "5", "--seed", "-1",
    )
    assert code == 3
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"


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

def test_main_reuses_one_parser(capsys, tmp_path, spectrum_file):
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps(QUBIT_SAMPLE))
    estimate = ["estimate", "--sample", str(sample), "--spectrum", spectrum_file]
    argvs = [
        ["gfun", "--min", "1", "--max", "2", "--step", "0.5"],
        ["bound", "--spectrum", spectrum_file, "-T", "0.5", "-M", "3"],
        ["gfun", "--min", "1", "--max", "2", "--step", "0.5", "--out", str(tmp_path / "g.csv")],
        [*estimate, "--prior", "0.2", "5.0", "--grid", "64"],
        ["minima"],
        ["bound", "--spectrum", spectrum_file, "-T", "0.5"],
        estimate,
        ["hfun", "--min", "1", "--max", "2", "--step", "0.5"],
        ["gfun", "--min", "1", "--max", "3", "--step", "0.5"],
    ]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert [code for code, _, _ in fresh] == [0] * len(argvs)
    assert fresh[2][1] == "" and (tmp_path / "g.csv").read_text() == fresh[0][1]
    assert cli.build_parser() is cli.build_parser()
    for _ in range(2):
        for argv, expected in zip(argvs, fresh):
            assert run_cli(capsys, *argv) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "-T", "1.0", "--spectrum", "{bad}"],
        ["tune", "-T", "1.0", "--family", "{bad}"],
        ["simulate", "--config", "{bad}"],
        ["estimate", "--spectrum", "{spectrum}", "--sample", "{bad}"],
    ],
    ids=["bound", "tune", "simulate", "estimate"],
)
def test_non_utf8_input_file_exits_2(capsys, tmp_path, spectrum_file, argv):
    bad = tmp_path / "latin.json"
    bad.write_bytes(b'{"label": "caf\xff", "levels": [{"energy": 0.0}]}')
    code, out, err = run_cli(capsys, *(a.format(bad=bad, spectrum=spectrum_file) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}: not UTF-8 text") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["estimate", "simulate"])
def test_grid_beyond_memory_exits_3(tmp_path, spectrum_file, kind):
    # a 10^13-point grid (73 TiB); the child's address space is capped so that the
    # allocation fails at once whatever the host's overcommit policy
    if kind == "estimate":
        sample = tmp_path / "sample.json"
        sample.write_text(json.dumps(QUBIT_SAMPLE))
        argv = ["estimate", "--sample", str(sample), "--spectrum", spectrum_file,
                "--prior", "1", "2", "--grid", str(10**13)]
    else:
        config = tmp_path / "run.cfg"
        config.write_text(json.dumps({**BASE_CONFIG, "estimator": "bayes",
                                      "bayes_grid_size": 10**13}))
        argv = ["simulate", "--config", str(config)]
    child = (
        "import resource, sys\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "cap = 16 << 30 if hard == resource.RLIM_INFINITY else min(16 << 30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from thermometry.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "allocate" in proc.stderr


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


# ---------------------------------------------------------------------------
# input fuzz: every CLI file input, one location of a valid file replaced
# ---------------------------------------------------------------------------

QUBIT_SAMPLE = {"spectrum_label": "qubit", "counts": [731, 269], "M": 1000}
BASE_CONFIG = {"spectrum": TWO_LEVEL_SPECTRUM, "true_temperature": 0.4, "shots_per_trial": 10,
               "trials": 5, "seed": 0, "estimator": "mle", "mle_bracket": [0.01, 10.0],
               "bayes_prior": [0.1, 2.0], "bayes_grid_size": 64,
               "degenerate_sample_policy": "exclude_and_report"}


def _json_values(integers):
    scalars = st.none() | st.booleans() | integers | st.floats() | st.text(max_size=4)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )


# Configs draw only small integers: a mutated trial or shot count is run, not parsed.
SMALL_VALUES = _json_values(st.integers(-3, 1000))
ANY_VALUES = _json_values(st.integers(-3, 1000) | st.just(10**400))


def _paths(doc, path=()):
    """Every location in a JSON document, the root included."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def _mutants(draw, base, values):
    """``base`` with one location deleted or replaced by an arbitrary JSON value."""
    path = draw(st.sampled_from(list(_paths(base))))
    if not path:
        return draw(values)
    doc = copy.deepcopy(base)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(values)
    return doc


@pytest.mark.parametrize(
    "argv,base,values",
    [
        (["bound", "-T", "1.0", "--spectrum", "{doc}"], TWO_LEVEL_SPECTRUM, ANY_VALUES),
        (["tune", "-T", "1.0", "--family", "{doc}"],
         {"kind": "linear", "slope": 1.0, "intercept": 0.0, "lambda_min": 0.01,
          "lambda_max": 10.0}, ANY_VALUES),
        (["tune", "-T", "1.0", "--family", "{doc}"],
         {"kind": "quadratic", "curvature": 1.0, "center": 3.0, "gap_min": 0.5,
          "lambda_min": 0.0, "lambda_max": 6.0}, ANY_VALUES),
        (["tune", "-T", "1.0", "--family", "{doc}"],
         {"kind": "table", "points": [[0.0, 0.5], [5.0, 2.4], [10.0, 9.0]]}, ANY_VALUES),
        (["simulate", "--config", "{doc}"], BASE_CONFIG, SMALL_VALUES),
        (["simulate", "--config", "{doc}"], {**BASE_CONFIG, "estimator": "bayes"}, SMALL_VALUES),
        (["estimate", "--spectrum", "{spectrum}", "--sample", "{doc}",
          "--prior", "0.2", "5.0", "--grid", "64"], QUBIT_SAMPLE, ANY_VALUES),
        (["estimate", "--sample", "{sample}", "--spectrum", "{doc}",
          "--prior", "0.2", "5.0", "--grid", "64"], TWO_LEVEL_SPECTRUM, ANY_VALUES),
    ],
    ids=["bound", "tune-linear", "tune-quadratic", "tune-table", "simulate-mle",
         "simulate-bayes", "estimate-sample", "estimate-spectrum"],
)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_file_inputs_exit_cleanly(capsys, tmp_path, argv, base, values, data):
    files = {"doc": data.draw(_mutants(base, values)), "spectrum": TWO_LEVEL_SPECTRUM,
             "sample": QUBIT_SAMPLE}
    paths = {}
    for name, content in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(content, fh)
    code, _, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code in (0, 2, 3, 4)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1
