import csv
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import simdoa
from simdoa import cli, experiments
from simdoa.cli import (
    ConfigError,
    load_stack,
    main,
    parse_config,
    save_stack,
)
from simdoa.estimator import ProtocolConfig
from simdoa.experiments import McConfig, run_monte_carlo
from simdoa.geometry import dft_matrix
from simdoa.trainer import TrainConfig
from simdoa.wavemodel import PhaseStack, random_stack

LAM = 0.005
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(path, doc):
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    return str(path)


def read_manifest(path):
    with open(path) as fh:
        return yaml.safe_load(fh)


def tiny_fit_doc(max_iters=15, restarts=2):
    return {
        "geometry": {"n_x": 2, "n_y": 2, "m_x": 5, "m_y": 5,
                     "layers": 2, "thickness": 2.0},
        "train": {"max_iters": max_iters, "restarts": restarts, "seed": 0},
    }


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


# --------------------------------------------------------------------- parsing

def test_minimal_config_fills_reference_stack(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", {"geometry": {"n_x": 2, "n_y": 2}})
    parsed = parse_config(cfg)
    geom = parsed["geometry"]
    assert (geom.n_x, geom.n_y) == (2, 2)
    assert (geom.m_x, geom.m_y) == (11, 11)
    assert geom.layers == 7
    assert geom.thickness == pytest.approx(9 * LAM)
    assert geom.d_x == pytest.approx(LAM / 2)
    assert geom.s_x == pytest.approx(LAM / 2)
    assert geom.wavelength == pytest.approx(LAM)


def test_config_errors_cite_their_location(tmp_path):
    cfg = write_config(tmp_path / "c.yaml",
                       {"geometry": {"n_x": 2, "n_y": 2, "s": -0.5}})
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert "geometry" in str(err.value)
    cfg = write_config(tmp_path / "d.yaml",
                       {"geometry": {"n_x": 2, "n_y": 2, "bogus": 1}})
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert "bogus" in str(err.value)
    cfg = write_config(tmp_path / "e.yaml", {"nonsense": {}})
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert "nonsense" in str(err.value)


def test_config_missing_file_and_bad_yaml(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "absent.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("geometry: [unclosed\n")
    with pytest.raises(ConfigError):
        parse_config(str(bad))


def test_source_accepts_either_angle_form(tmp_path):
    doc = {"geometry": {"n_x": 2, "n_y": 2},
           "source": {"phi_deg": 90.0, "theta_deg": 30.0}}
    parsed = parse_config(write_config(tmp_path / "c.yaml", doc))
    src = parsed["source"]
    assert src["psi_x"] == pytest.approx(0.0, abs=1e-12)
    assert src["psi_y"] == pytest.approx(0.5)
    doc["source"] = {"psi_x": 0.25, "psi_y": -0.5, "phi_deg": 10.0,
                     "theta_deg": 10.0}
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path / "d.yaml", doc))


# ------------------------------------------------------------------ exit codes

def test_exit_code_for_config_problems(tmp_path, capsys):
    assert main(["fit", "--config", str(tmp_path / "none.yaml")]) == 2
    assert "config error" in capsys.readouterr().err
    cfg = write_config(tmp_path / "c.yaml", {"geometry": {"n_x": 2}})
    assert main(["fit", "--config", cfg]) == 2
    cfg = write_config(tmp_path / "d.yaml",
                       {"geometry": {"n_x": 2, "n_y": 2},
                        "protocol": {"t_x": 4, "t_y": 4},
                        "source": {"psi_x": 0.1, "psi_y": 0.1}})
    # estimate without --stack or estimate.ideal is a usage problem
    assert main(["estimate", "--config", cfg, "--outdir", str(tmp_path)]) == 2


def test_exit_code_for_missing_stack_file(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.yaml",
                       {"geometry": {"n_x": 2, "n_y": 2},
                        "protocol": {"t_x": 2, "t_y": 2},
                        "source": {"psi_x": 0.1, "psi_y": 0.1}})
    code = main(["estimate", "--config", cfg, "--stack",
                 str(tmp_path / "ghost.bin"), "--outdir", str(tmp_path)])
    assert code == 1
    assert "not found" in capsys.readouterr().err


# ------------------------------------------------------------------- artifacts

def test_fit_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.yaml", tiny_fit_doc())
    out = tmp_path / "run"
    assert main(["fit", "--config", cfg, "--outdir", str(out)]) == 0
    assert (out / "stack.bin").exists()
    rows = read_csv(out / "loss_history.csv")
    assert rows[0] == ["iteration", "loss", "loss_db"]
    assert len(rows) == 17  # header + initial + 15 iterations
    manifest = read_manifest(out / "fit-manifest.yaml")
    assert manifest["command"] == "fit"
    assert manifest["seeds"] == [0, 1]
    assert manifest["results"]["best_db"] <= 0.0
    assert manifest["results"]["beta_abs"] > 0.0
    assert manifest["geometry_digest"] != ""
    stack = load_stack(out / "stack.bin")
    assert stack.layers == 2
    assert stack.xi[0].size == 25


def test_fit_manifest_lists_every_restart(tmp_path, capsys, monkeypatch):
    fits = []
    fit_reference = experiments.fit_reference
    # 'fit' runs the same fit path as the studies and the acceptance tests
    monkeypatch.setattr(experiments, "fit_reference",
                        lambda *a: fits.append(a) or fit_reference(*a))
    cfg = write_config(tmp_path / "c.yaml", tiny_fit_doc(max_iters=6, restarts=2))
    out = tmp_path / "run"
    assert main(["fit", "--config", cfg, "--outdir", str(out)]) == 0
    assert len(fits) == 1
    results = read_manifest(out / "fit-manifest.yaml")["results"]
    restarts = results["restarts"]
    assert [r["seed"] for r in restarts] == [0, 1]
    assert all(r["stop_reason"] == "max_iters" and 0 <= r["best_iteration"] <= 6
               for r in restarts)
    winner = next(r for r in restarts if r["seed"] == results["best_seed"])
    assert winner["best_db"] == results["best_db"]
    assert winner["best_db"] == min(r["best_db"] for r in restarts)
    assert winner["stop_reason"] == results["stop_reason"]


def test_stack_round_trip_and_bad_magic(tmp_path):
    stack = random_stack(3, 9, np.random.default_rng(0))
    path = tmp_path / "s.bin"
    save_stack(path, stack)
    back = load_stack(path)
    assert back.layers == 3
    for a, b in zip(stack.xi, back.xi):
        assert np.array_equal(a, b)
    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"not a stack")
    with pytest.raises(IOError):
        load_stack(bad)


def test_stack_file_round_trips_an_l_by_m_stack_byte_for_byte(tmp_path):
    stack = random_stack(3, 5, np.random.default_rng(2))
    path = tmp_path / "s.bin"
    save_stack(path, stack)
    raw = path.read_bytes()
    # magic, version 1, layers, atoms, then the phases row after row as little-endian f8
    assert raw[:18] == b"PHSTK\x00" + struct.pack("<III", 1, 3, 5)
    assert raw[18:] == stack.xi.astype("<f8").tobytes()
    back = load_stack(path)
    assert back.xi.shape == (3, 5)
    assert np.array_equal(back.xi.view(np.int64), stack.xi.view(np.int64))
    save_stack(tmp_path / "again.bin", back)
    assert (tmp_path / "again.bin").read_bytes() == raw


def test_stack_dims_must_match_geometry(tmp_path, capsys, monkeypatch):
    stack = random_stack(1, 4, np.random.default_rng(1))
    path = tmp_path / "s.bin"
    save_stack(path, stack)
    cfg = write_config(tmp_path / "c.yaml",
                       {"geometry": {"n_x": 2, "n_y": 2, "m_x": 5, "m_y": 5,
                                     "layers": 2, "thickness": 2.0},
                        "protocol": {"t_x": 2, "t_y": 2},
                        "source": {"psi_x": 0.1, "psi_y": 0.1}})
    builds = []
    monkeypatch.setattr(cli, "build_propagation_matrices", builds.append)
    code = main(["estimate", "--config", cfg, "--stack", str(path),
                 "--outdir", str(tmp_path)])
    assert code == 1
    assert "dims" in capsys.readouterr().err
    assert builds == []  # the stack's dims are checked before the M x M matrices are built


def test_manifest_round_trip(tmp_path, capsys):
    doc = {"geometry": {"n_x": 2, "n_y": 2}, "protocol": {"t_x": 2, "t_y": 2},
           "source": {"psi_x": 0.5, "psi_y": 0.0}, "spectrum": {"ideal": True}}
    out = tmp_path / "run"
    assert main(["spectrum", "--config", write_config(tmp_path / "c.yaml", doc),
                 "--outdir", str(out)]) == 0
    manifest = read_manifest(out / "spectrum-manifest.yaml")
    assert list(manifest) == ["command", "version", "created", "config", "seeds",
                              "geometry_digest", "outputs", "results"]
    assert manifest["command"] == "spectrum" and manifest["config"] == doc
    assert manifest["seeds"] == [] and manifest["outputs"] == ["spectrum.csv"]


def test_outdir_env_variable(tmp_path, monkeypatch, capsys):
    out = tmp_path / "env-out"
    monkeypatch.setenv("SIMDOA_OUTDIR", str(out))
    cfg = write_config(tmp_path / "c.yaml",
                       {"geometry": {"n_x": 2, "n_y": 2},
                        "protocol": {"t_x": 2, "t_y": 2},
                        "source": {"psi_x": 0.0, "psi_y": 0.0},
                        "estimate": {"ideal": True}})
    assert main(["estimate", "--config", cfg]) == 0
    assert (out / "estimate.csv").exists()


# ------------------------------------------------------------------- commands

def test_spectrum_peak_near_truth(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.yaml",
                       {"geometry": {"n_x": 2, "n_y": 2},
                        "protocol": {"t_x": 8, "t_y": 8},
                        "source": {"psi_x": 0.48, "psi_y": 0.23},
                        "spectrum": {"ideal": True}})
    out = tmp_path / "run"
    assert main(["spectrum", "--config", cfg, "--outdir", str(out)]) == 0
    rows = read_csv(out / "spectrum.csv")
    assert rows[0] == ["psi_x", "psi_y", "power"]
    assert len(rows) == 1 + 16 * 16
    results = read_manifest(out / "spectrum-manifest.yaml")["results"]
    cell = 2.0 / 16
    assert abs(results["peak_psi_x"] - 0.48) <= cell / 2 + 1e-12
    assert abs(results["peak_psi_y"] - 0.23) <= cell / 2 + 1e-12


def test_estimate_snaps_to_lattice(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.yaml",
                       {"geometry": {"n_x": 2, "n_y": 2},
                        "protocol": {"t_x": 4, "t_y": 4},
                        "source": {"psi_x": 0.5, "psi_y": -0.25},
                        "estimate": {"ideal": True}})
    out = tmp_path / "run"
    assert main(["estimate", "--config", cfg, "--outdir", str(out)]) == 0
    rows = read_csv(out / "estimate.csv")
    assert rows[0] == ["antenna", "snapshot", "psi_x", "psi_y", "phi_rad",
                       "theta_rad"]
    est = dict(zip(rows[0], rows[1]))
    assert float(est["psi_x"]) == 0.5
    assert float(est["psi_y"]) == -0.25
    assert float(est["theta_rad"]) == pytest.approx(math.asin(math.hypot(0.5, 0.25)))


def test_bound_csv(tmp_path, capsys):
    doc = tiny_fit_doc()
    doc.update({"protocol": {"t_x": 4, "t_y": 4},
                "source": {"psi_x": 0.31, "psi_y": -0.12},
                "bound": {"snr_db": [0, 10, 20]}})
    cfg = write_config(tmp_path / "c.yaml", doc)
    out = tmp_path / "run"
    assert main(["fit", "--config", cfg, "--outdir", str(out)]) == 0
    assert main(["bound", "--config", cfg, "--outdir", str(out),
                 "--stack", str(out / "stack.bin")]) == 0
    rows = read_csv(out / "bound.csv")
    assert rows[0] == ["effective_snr_db", "mse_x_bound", "mse_y_bound"]
    bounds = [float(r[1]) for r in rows[1:]]
    assert len(bounds) == 3
    assert bounds[0] > bounds[1] > bounds[2]


def test_montecarlo_csv_and_determinism(tmp_path, capsys):
    doc = {"geometry": {"n_x": 2, "n_y": 2},
           "protocol": {"t_x": 2, "t_y": 2},
           "montecarlo": {"trials": 12, "snr_db": ["inf"], "seed": 3,
                          "pipeline": "digital", "with_bound": False}}
    cfg = write_config(tmp_path / "c.yaml", doc)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["montecarlo", "--config", cfg, "--outdir", str(out_a),
                 "--jobs", "1"]) == 0
    assert main(["montecarlo", "--config", cfg, "--outdir", str(out_b),
                 "--jobs", "1"]) == 0
    rows = read_csv(out_a / "montecarlo.csv")
    assert rows[0] == ["effective_snr_db", "mse_x", "mse_y", "mse", "se",
                       "bound_x", "bound_y", "bound", "bound_se", "trials",
                       "low_trials"]
    assert rows[1][9] == "12"
    assert rows[1][10] == "True"
    assert (out_a / "montecarlo.csv").read_bytes() == (out_b / "montecarlo.csv").read_bytes()


def test_sweep_ablation_csv(tmp_path, capsys):
    doc = {"geometry": {"n_x": 2, "n_y": 2},
           "train": {"max_iters": 8},
           "sweep": {"mode": "ablation", "thickness": [2.0], "layers": [2],
                     "atoms": [1, 25], "spacing": [0.5], "runs": 2}}
    cfg = write_config(tmp_path / "c.yaml", doc)
    out = tmp_path / "run"
    assert main(["sweep", "--config", cfg, "--outdir", str(out),
                 "--jobs", "1"]) == 0
    rows = read_csv(out / "sweep.csv")
    assert rows[0][:4] == ["thickness_lam", "layers", "atoms", "spacing_lam"]
    table = {r[2]: r for r in rows[1:]}
    assert table["1"][4] == "False"  # single atom cannot span rank 4
    assert table["25"][4] == "True"
    assert float(table["25"][6]) < 0.0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_flags_a_cell_whose_lengths_overflow_the_propagation_build(tmp_path, capsys,
                                                                        jobs):
    # the cell aborted the whole sweep with exit 1 and wrote no sweep.csv, while a negative
    # thickness is flagged in the table
    doc = {"geometry": {"n_x": 2, "n_y": 2, "m_x": 3, "m_y": 3, "layers": 2},
           "train": {"max_iters": 3},
           "sweep": {"mode": "ablation", "thickness": [2.0, 1.0e300, -1.0], "layers": [2],
                     "atoms": [9], "spacing": [0.5], "runs": 1}}
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", write_config(tmp_path / "c.yaml", doc),
                     "--outdir", str(out), "--jobs", jobs]) == 0
    assert capsys.readouterr().err == ""
    rows = read_csv(out / "sweep.csv")[1:]
    assert [r[:2] + r[4:5] for r in rows] == [["2.0", "2", "True"], ["1e+300", "2", "False"],
                                              ["-1.0", "2", "False"]]
    assert rows[1][5].startswith("propagation coefficients beyond a float's range for"
                                 " SimGeometry(wavelength=")
    assert rows[1][6:] == ["nan", "nan", "nan", "0"]
    assert rows[2][5] == "thickness_lam must be positive and finite, got -1.0"
    assert float(rows[0][6]) < 0.0 and rows[0][9] == "1"


def test_sweep_receiver_csv(tmp_path, capsys):
    doc = {"geometry": {"n_x": 2, "n_y": 2, "m_x": 5, "m_y": 5,
                        "layers": 2, "thickness": 2.0},
           "train": {"max_iters": 8},
           "sweep": {"mode": "receiver", "u_x": [0.5, 1.0],
                     "rotation_deg": [30.0], "runs": 2}}
    cfg = write_config(tmp_path / "c.yaml", doc)
    out = tmp_path / "run"
    assert main(["sweep", "--config", cfg, "--outdir", str(out),
                 "--jobs", "1"]) == 0
    rows = read_csv(out / "receiver.csv")
    assert rows[0] == ["parameter", "value", "mean_db", "min_db", "max_db",
                       "runs"]
    assert [r[0] for r in rows[1:]] == ["u_x", "u_x", "rotation"]
    assert float(rows[1][1]) == pytest.approx(0.5 * LAM)
    assert float(rows[3][1]) == pytest.approx(math.radians(30.0))


# ----------------------------------------------------------------- bad inputs

MC_DOC = {"geometry": {"n_x": 2, "n_y": 2},
          "protocol": {"t_x": 2, "t_y": 2},
          "montecarlo": {"trials": 4, "snr_db": [10, 0], "ideal": True}}
RUN_DOC = {"geometry": {"n_x": 2, "n_y": 2},
           "protocol": {"t_x": 2, "t_y": 2},
           "source": {"psi_x": 0.1, "psi_y": 0.2}}


def _config_error(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path / "c.yaml", doc)
    code = main([command, "--config", cfg, "--outdir", str(tmp_path / "run")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("value", [-math.inf, math.nan])
def test_montecarlo_refuses_minus_inf_and_nan_snr(tmp_path, capsys, value):
    # -inf once ran as the noise-free limit and reported the lattice floor
    doc = {**MC_DOC, "montecarlo": {**MC_DOC["montecarlo"], "snr_db": [10, value]}}
    code, err = _config_error(tmp_path, capsys, "montecarlo", doc)
    assert code == 2
    assert "montecarlo.snr_db[1]" in err


@pytest.mark.parametrize("command", ["estimate", "spectrum"])
def test_run_commands_refuse_minus_inf_snr(tmp_path, capsys, command):
    doc = {**RUN_DOC, command: {"ideal": True, "snr_db": -math.inf}}
    code, err = _config_error(tmp_path, capsys, command, doc)
    assert code == 2
    assert f"{command}.snr_db" in err


@pytest.mark.parametrize("command,key", [("montecarlo", "with_bound"),
                                         ("montecarlo", "ideal"),
                                         ("estimate", "ideal"),
                                         ("spectrum", "ideal")])
def test_flags_must_be_yaml_booleans(tmp_path, capsys, command, key):
    # 'no' is a string; bool('no') would have read it as true
    base = MC_DOC if command == "montecarlo" else {**RUN_DOC, command: {"ideal": True}}
    doc = {**base, command: {**base[command], key: "no"}}
    code, err = _config_error(tmp_path, capsys, command, doc)
    assert code == 2
    assert f"{command}.{key}" in err


def _stack_bytes(tmp_path):
    path = tmp_path / "s.bin"
    save_stack(path, random_stack(2, 4, np.random.default_rng(3)))
    return path, path.read_bytes()


def test_load_stack_refuses_truncated_header(tmp_path):
    path, data = _stack_bytes(tmp_path)
    for cut in (6, 10):  # right after the magic, and inside the header
        path.write_bytes(data[:cut])
        with pytest.raises(IOError, match="truncated"):
            load_stack(path)


def test_load_stack_refuses_non_finite_phases(tmp_path):
    path, data = _stack_bytes(tmp_path)
    for bad in (math.nan, math.inf):
        path.write_bytes(data[:-8] + np.array([bad], dtype="<f8").tobytes())
        with pytest.raises(IOError, match="non-finite"):
            load_stack(path)


@pytest.mark.parametrize("damage", ["truncate", "nan"])
def test_corrupt_stack_exits_1(tmp_path, capsys, damage):
    path, data = _stack_bytes(tmp_path)
    path.write_bytes(data[:6] if damage == "truncate"
                     else data[:-8] + np.array([math.nan], dtype="<f8").tobytes())
    doc = {**RUN_DOC, "geometry": {"n_x": 2, "n_y": 2, "m_x": 2, "m_y": 2,
                                   "layers": 2, "thickness": 2.0}}
    cfg = write_config(tmp_path / "c.yaml", doc)
    code = main(["estimate", "--config", cfg, "--stack", str(path),
                 "--outdir", str(tmp_path / "run")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("layers, m", [(2 ** 32 - 1, 2 ** 32 - 1), (2 ** 31 - 1, 16)])
def test_stack_header_claiming_more_than_the_file_exits_1(tmp_path, capsys, layers, m):
    # the first header once raised OverflowError (a traceback), the second tried a 274 GB read
    path, data = _stack_bytes(tmp_path)
    path.write_bytes(data[:6] + struct.pack("<III", 1, layers, m) + data[18:])
    doc = {**RUN_DOC, "geometry": {"n_x": 2, "n_y": 2, "m_x": 2, "m_y": 2,
                                   "layers": 2, "thickness": 2.0}}
    cfg = write_config(tmp_path / "c.yaml", doc)
    code = main(["estimate", "--config", cfg, "--stack", str(path),
                 "--outdir", str(tmp_path / "run")])
    assert code == 1
    assert "truncated stack file" in capsys.readouterr().err


@pytest.mark.parametrize("source", [{"phi_deg": math.inf, "theta_deg": 40.0},
                                    {"phi_deg": math.nan, "theta_deg": 40.0},
                                    {"psi_x": 0.1, "psi_y": 0.2, "s_real": math.nan},
                                    {"psi_x": 0.1, "psi_y": 0.2, "s_imag": math.inf},
                                    {"psi_x": 0.1, "psi_y": 0.2, "s_real": -math.inf}],
                         ids=["phi-inf", "phi-nan", "s_real-nan", "s_imag-inf", "s_real-neg-inf"])
def test_source_refuses_non_finite_numbers(tmp_path, capsys, source):
    # a NaN symbol once gave exit 0 and a cell read from NaN energies;
    # an infinite azimuth exited 2 with a math domain error that named no key
    key = next(k for k in ("phi_deg", "s_real", "s_imag") if k in source)
    doc = {**RUN_DOC, "source": source, "estimate": {"ideal": True}}
    code, err = _config_error(tmp_path, capsys, "estimate", doc)
    assert code == 2
    assert f"'source.{key}' must be finite" in err


@pytest.mark.parametrize("source,key,message", [
    ({"psi_x": math.nan, "psi_y": 0.2}, "psi_x", "must lie in [-1, 1)"),
    ({"psi_x": 1.5, "psi_y": 0.2}, "psi_x", "must lie in [-1, 1)"),
    ({"psi_x": 0.1, "psi_y": 1.0}, "psi_y", "must lie in [-1, 1)"),
    ({"psi_x": 0.1, "psi_y": -1.0000001}, "psi_y", "must lie in [-1, 1)"),
    ({"phi_deg": 10.0, "theta_deg": math.inf}, "theta_deg", "must lie in [0, 90]"),
    ({"phi_deg": 10.0, "theta_deg": math.nan}, "theta_deg", "must lie in [0, 90]"),
    ({"phi_deg": 10.0, "theta_deg": 90.5}, "theta_deg", "must lie in [0, 90]"),
    ({"phi_deg": 10.0, "theta_deg": -1.0}, "theta_deg", "must lie in [0, 90]"),
], ids=["psi_x-nan", "psi_x-above", "psi_y-one", "psi_y-below", "theta-inf", "theta-nan",
        "theta-above", "theta-below"])
def test_source_range_errors_name_the_key(tmp_path, capsys, source, key, message):
    # these once exited 2 naming the section only: "source: psi values must lie in [-1, 1)"
    doc = {**RUN_DOC, "source": source, "estimate": {"ideal": True}}
    code, err = _config_error(tmp_path, capsys, "estimate", doc)
    assert code == 2
    assert f"'source.{key}' {message}" in err


@pytest.mark.parametrize("source", [{"psi_x": -1.0, "psi_y": 0.999},
                                    {"phi_deg": 10.0, "theta_deg": 0.0},
                                    {"phi_deg": 10.0, "theta_deg": 90.0}],
                         ids=["psi-edges", "theta-zero", "theta-ninety"])
def test_source_range_edges_are_accepted(tmp_path, capsys, source):
    doc = {**RUN_DOC, "source": source, "estimate": {"ideal": True}}
    cfg = write_config(tmp_path / "c.yaml", doc)
    assert main(["estimate", "--config", cfg, "--outdir", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("command,section,key", [
    ("estimate", {"ideal": True, "snr_db": None, "seed": 3}, "estimate.snr_db"),
    ("spectrum", {"ideal": True, "snr_db": None}, "spectrum.snr_db"),
    # list entries once truncated to int
    ("sweep", {"thickness": [2.0], "layers": [1.7], "atoms": [25], "spacing": [0.5]},
     "sweep.layers[0]"),
    ("sweep", {"thickness": [2.0], "layers": [1], "atoms": [25.9], "spacing": [0.5]},
     "sweep.atoms[0]"),
    # keys of the other sweep mode were accepted and ignored
    ("sweep", {"mode": "receiver", "layers": [1], "thickness": [3.0]}, "sweep.thickness"),
    ("sweep", {"thickness": [2.0], "layers": [1], "atoms": [25], "spacing": [0.5],
               "u_x": [1.0]}, "sweep.u_x"),
    # these failed late with exit 1
    ("sweep", {"mode": "receiver", "layers": [1], "runs": 0}, "sweep.runs"),
    ("sweep", {"mode": "receiver", "layers": [1], "seed": -1}, "sweep.seed"),
    ("montecarlo", {"trials": 0, "snr_db": [10], "ideal": True}, "montecarlo.trials"),
    ("montecarlo", {"trials": 4, "snr_db": [10], "seed": -1, "ideal": True},
     "montecarlo.seed"),
    # receiver values once exited 1 with SimGeometry's message, which names no key
    ("sweep", {"mode": "receiver", "u_x": [0.0]}, "sweep.u_x[0]"),
    ("sweep", {"mode": "receiver", "u_x": [0.5, -1.0]}, "sweep.u_x[1]"),
    ("sweep", {"mode": "receiver", "u_x": [math.inf]}, "sweep.u_x[0]"),
    ("sweep", {"mode": "receiver", "u_x": [math.nan]}, "sweep.u_x[0]"),
    ("sweep", {"mode": "receiver", "rotation_deg": [math.inf]}, "sweep.rotation_deg[0]"),
    ("sweep", {"mode": "receiver", "rotation_deg": [30.0, math.nan]}, "sweep.rotation_deg[1]"),
    ("sweep", {"mode": "receiver", "layers": [0]}, "sweep.layers[0]"),
])
def test_refused_inputs_exit_2_naming_the_key(tmp_path, capsys, command, section, key):
    base = {"sweep": {"geometry": {"n_x": 2, "n_y": 2}, "train": {"max_iters": 2}},
            "montecarlo": MC_DOC}.get(command, RUN_DOC)
    code, err = _config_error(tmp_path, capsys, command, {**base, command: section})
    assert code == 2
    assert f"'{key}'" in err


@pytest.mark.parametrize("pipeline", ["wave", "digital"])
@pytest.mark.parametrize("key", ["d_x", "d_y"])
def test_montecarlo_refuses_input_spacing_other_than_half_wave(tmp_path, capsys, pipeline,
                                                                key):
    # trials draw and recover angles at half-wave spacing, so a 0.9 spacing
    # once wrote the same montecarlo.csv as 0.5
    doc = {**MC_DOC, "geometry": {**MC_DOC["geometry"], key: 0.9},
           "montecarlo": {**MC_DOC["montecarlo"], "pipeline": pipeline}}
    code, err = _config_error(tmp_path, capsys, "montecarlo", doc)
    assert code == 2
    assert f"'geometry.{key}' must be 0.5" in err
    assert not (tmp_path / "run" / "montecarlo.csv").exists()


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_bound_refuses_non_finite_snr(tmp_path, capsys, value):
    # a non-finite entry once wrote NaN bounds and exited 0
    doc = {**RUN_DOC, "geometry": {"n_x": 2, "n_y": 2, "m_x": 2, "m_y": 2,
                                   "layers": 2, "thickness": 2.0},
           "bound": {"snr_db": [10, value]}}
    path = tmp_path / "s.bin"
    save_stack(path, random_stack(2, 4, np.random.default_rng(0)))
    cfg = write_config(tmp_path / "c.yaml", doc)
    code = main(["bound", "--config", cfg, "--stack", str(path),
                 "--outdir", str(tmp_path / "run")])
    assert code == 2
    assert "'bound.snr_db[1]' must be finite" in capsys.readouterr().err


def test_stackless_error_offers_ideal_only_where_it_is_a_key(tmp_path, capsys):
    doc = {**RUN_DOC, "bound": {"snr_db": [10]}, "estimate": {}}
    code, err = _config_error(tmp_path, capsys, "bound", doc)
    assert code == 2
    assert "--stack" in err and "bound.ideal" not in err
    code, err = _config_error(tmp_path, capsys, "estimate", doc)
    assert code == 2
    assert "'estimate.ideal: true'" in err


def test_train_and_protocol_read_their_dataclass_fields(tmp_path):
    parsed = parse_config(write_config(tmp_path / "c.yaml", {"train": {}, "protocol": {}}))
    assert parsed["train"] == TrainConfig()
    assert parsed["protocol"] == ProtocolConfig()
    doc = {"train": {"eta0": 1, "restarts": 3}, "protocol": {"t_y": 2}}
    parsed = parse_config(write_config(tmp_path / "d.yaml", doc))
    assert parsed["train"] == TrainConfig(eta0=1.0, restarts=3)
    assert isinstance(parsed["train"].eta0, float)
    assert parsed["protocol"] == ProtocolConfig(t_y=2)
    for section, bad, key in [("train", {"restarts": 1.5}, "train.restarts"),
                              ("protocol", {"t_z": 2}, "protocol.t_z")]:
        with pytest.raises(ConfigError, match=key):
            parse_config(write_config(tmp_path / "e.yaml", {section: bad}))


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
def test_shipped_configs_parse(path):
    parsed = parse_config(str(path))
    assert set(parsed) == {"_raw", *parsed["_raw"]}


def test_python_m_simdoa_runs_without_warnings():
    src = os.path.dirname(os.path.dirname(simdoa.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "simdoa", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.strip() == simdoa.__version__


def test_import_simdoa_loads_no_submodule_and_no_numpy():
    # the package once re-exported every submodule's names, so importing it loaded them all
    src = os.path.dirname(os.path.dirname(simdoa.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, simdoa; print(sorted(m for m in sys.modules"
            " if m.startswith('simdoa.') or m.split('.')[0] == 'numpy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _src_env():
    """The environment, with this package's source first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(simdoa.__file__))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


# modules that only some runs need: the config and manifest YAML, the parser, the bound,
# the Monte Carlo streams, the bound's erfc and the process pool
_RUN_ONLY = ("yaml", "argparse", "simdoa.analysis", "simdoa.streams", "scipy",
             "concurrent.futures")


def test_importing_cli_and_experiments_loads_no_run_only_module():
    # yaml, argparse and simdoa.analysis loaded with simdoa.cli, so every set-up that only
    # fits or runs paired trials imported them
    code = ("import sys; from simdoa import cli, experiments;"
            " print(*[m for m in sys.argv[1:] if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code, *_RUN_ONLY], capture_output=True,
                          text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


_LOADED_MODULES = """\
import sys
from simdoa import cli
workdir, commands = sys.argv[1], sys.argv[2:]
watched = ("scipy", "concurrent.futures", "yaml", "argparse", "simdoa.analysis")

def report(*what):
    print("loaded:", *what, *[m for m in watched if m in sys.modules])

report("import")
for command in commands:
    options = {"montecarlo": ["-j", "1"], "bound": ["--stack", f"{workdir}/stack.bin"]}
    report(command, cli.main([command, "-c", f"{workdir}/{command}.yaml",
                              "-o", f"{workdir}/{command}", *options.get(command, [])]))
"""


def _loaded_modules(workdir, docs):
    """{step: [exit code, modules loaded]} of ``docs``' commands run in turn in one interpreter.

    The "import" step, importing simdoa.cli, has no exit code.
    """
    for command, doc in docs.items():
        write_config(workdir / f"{command}.yaml", doc)
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, str(workdir), *docs],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {line.split()[1]: line.split()[2:] for line in proc.stdout.splitlines()
            if line.startswith("loaded:")}


def test_scipy_and_the_process_pool_load_only_when_used(tmp_path):
    # scipy (for the bound's erfc) and concurrent.futures loaded with the
    # package, so every subcommand and every -j 1 run paid for both; yaml, argparse
    # and simdoa.analysis loaded with simdoa.cli
    docs = {"fit": tiny_fit_doc(max_iters=2, restarts=1),
            "spectrum": {**RUN_DOC, "spectrum": {"ideal": True}},
            "estimate": {**RUN_DOC, "estimate": {"ideal": True, "snr_db": 10}},
            "montecarlo": MC_DOC}
    loaded = _loaded_modules(tmp_path, docs)
    assert loaded.pop("import") == []
    # with_bound is on by default; scipy may load concurrent.futures itself
    bounded = {"scipy", "yaml", "argparse", "simdoa.analysis"}
    code, *modules = loaded.pop("montecarlo")
    assert code == "0" and set(modules) - {"concurrent.futures"} == bounded
    assert loaded == {command: ["0", "yaml", "argparse"]
                      for command in ("fit", "spectrum", "estimate")}
    # 'bound' loads the bound too, seen in an interpreter of its own
    bound = tmp_path / "bound-run"
    bound.mkdir()
    save_stack(bound / "stack.bin", random_stack(2, 25, np.random.default_rng(0)))
    doc = {**RUN_DOC, "geometry": tiny_fit_doc()["geometry"], "bound": {"snr_db": [10]}}
    code, *modules = _loaded_modules(bound, {"bound": doc})["bound"]
    assert code == "0" and set(modules) - {"concurrent.futures"} == bounded


@pytest.mark.parametrize("command,doc,message", [
    # np.random.default_rng refused these late with exit 1
    ("fit", {**tiny_fit_doc(), "train": {"max_iters": 2, "seed": -1}},
     "'train.seed' must be >= 0"),
    ("estimate", {**RUN_DOC, "estimate": {"ideal": True, "snr_db": 10, "seed": -1}},
     "'estimate.seed' must be >= 0"),
    ("spectrum", {**RUN_DOC, "spectrum": {"ideal": True, "snr_db": 10, "seed": -1}},
     "'spectrum.seed' must be >= 0"),
], ids=["train", "estimate", "spectrum"])
def test_negative_seeds_exit_2(tmp_path, capsys, command, doc, message):
    code, err = _config_error(tmp_path, capsys, command, doc)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("key,value,message", [
    ("eta0", math.nan, "must be positive and finite"),
    ("eta0", math.inf, "must be positive and finite"),
    ("rel_tolerance", math.nan, "must be >= 0"),
    ("zeta", 1.5, "must lie in (0, 1]"),
    ("eta0", 1.0e308, "must be at most 2"),
    ("eta0", 2.5, "must be at most 2"),
], ids=["eta0-nan", "eta0-inf", "rel_tolerance-nan", "zeta", "eta0-huge", "eta0-past-a-turn"])
def test_train_values_exit_2_naming_the_key(tmp_path, capsys, key, value, message):
    # a non-finite eta0 once diverged at iteration 1 (exit 1), a NaN rel_tolerance
    # silently disabled early stopping, and zeta's message named no dotted key; a
    # finite eta0 of 1e308 overflowed the first step with two RuntimeWarnings (exit 1)
    doc = tiny_fit_doc()
    doc["train"][key] = value
    code, err = _config_error(tmp_path, capsys, "fit", doc)
    assert code == 2
    assert f"'train.{key}' {message}" in err


@pytest.mark.parametrize("section,key,value,message", [
    ("geometry", "n_x", 0, "must be >= 1"),
    ("geometry", "d_x", -1.0, "must be positive and finite"),
    ("geometry", "rotation_deg", math.inf, "must be finite"),
    ("protocol", "t_x", 0, "must be >= 1"),
], ids=["n_x", "d_x", "rotation_deg", "t_x"])
def test_geometry_and_protocol_ranges_exit_2_naming_the_key(tmp_path, capsys, section, key,
                                                            value, message):
    # each exited 2 with a message that named no dotted key, such as 'geometry: n_x must be
    # a positive integer, got 0'; d_x's gave its value in meters, -0.005
    doc = {**RUN_DOC, "estimate": {"ideal": True}}
    doc[section] = {**doc[section], key: value}
    code, err = _config_error(tmp_path, capsys, "estimate", doc)
    assert code == 2
    assert f"config error: '{section}.{key}' {message}\n" == err


@pytest.mark.parametrize("command,section,key", [
    ("estimate", {"geometry": {"n_x": 2, "n_y": 2, "d_x": 10 ** 400}}, "geometry.d_x"),
    ("estimate", {"estimate": {"ideal": True, "snr_db": -10 ** 400}}, "estimate.snr_db"),
    ("bound", {"bound": {"snr_db": [0, 10 ** 400]}}, "bound.snr_db[1]"),
], ids=["d_x", "snr_db", "bound"])
def test_float_keys_refuse_integers_beyond_float_range(tmp_path, capsys, command,
                                                       section, key):
    # float() raised OverflowError, which ended in a traceback
    code, err = _config_error(tmp_path, capsys, command, {**RUN_DOC, **section})
    assert code == 2
    assert f"'{key}' is too large for a float" in err


@pytest.mark.parametrize("command,section,key", [
    ("estimate", {"estimate": {"ideal": True, "snr_db": 5000}}, "estimate.snr_db"),
    ("spectrum", {"spectrum": {"ideal": True, "snr_db": 3083.0}}, "spectrum.snr_db"),
    ("bound", {"bound": {"snr_db": [0, 5000]}}, "bound.snr_db[1]"),
    ("montecarlo", {**MC_DOC, "montecarlo": {**MC_DOC["montecarlo"], "snr_db": [10, 1e300]}},
     "montecarlo.snr_db[1]"),
], ids=["estimate", "spectrum", "bound", "montecarlo"])
def test_snr_whose_power_overflows_a_float_is_refused(tmp_path, capsys, command, section, key):
    # 10.0 ** (snr_db / 10) raised OverflowError, which ended in a traceback
    code, err = _config_error(tmp_path, capsys, command, {**RUN_DOC, **section})
    assert code == 2
    assert f"'{key}' is too large: its power 10**(snr_db/10) overflows a float" in err


@pytest.mark.parametrize("command", ["estimate", "montecarlo"])
def test_energies_that_overflow_exit_1(tmp_path, capsys, command):
    # the power and rho fit a float but the energies overflow; estimate once exited 0 with
    # cell (1, 1) and psi (0, 0), montecarlo with an MSE of 0.27 and a NaN bound (at 3075
    # dB, which now overflows rho itself; see test_rho_that_overflows_exits_1_naming_the_snr)
    doc = {**RUN_DOC, "protocol": {"t_x": 4, "t_y": 4},
           "source": {**RUN_DOC["source"], "s_real": 2.0},
           "estimate": {"ideal": True, "snr_db": 3058, "seed": 1},
           "montecarlo": {"trials": 20, "snr_db": [3058], "ideal": True}}
    argv = [command, "--config", write_config(tmp_path / "c.yaml", doc),
            "--outdir", str(tmp_path / "run")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow's own warnings
        code = main(argv + (["-j", "1"] if command == "montecarlo" else []))
    assert code == 1
    assert "energy values must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "run" / f"{command}.csv").exists()


@pytest.mark.parametrize("command,pipeline", [
    ("estimate", "wave"), ("spectrum", "wave"), ("montecarlo", "wave"), ("montecarlo", "digital"),
])
def test_energies_that_overflow_exit_1_naming_the_snr_without_a_warning(tmp_path, capsys,
                                                                        command, pipeline):
    # each printed 'RuntimeWarning: overflow encountered in square' before an error that did
    # not name the SNR; the SNR point before it runs as usual
    doc = {**RUN_DOC, "protocol": {"t_x": 4, "t_y": 4},
           "source": {**RUN_DOC["source"], "s_real": 2.0},
           "estimate": {"ideal": True, "snr_db": 3058, "seed": 1},
           "spectrum": {"ideal": True, "snr_db": 3058, "seed": 1},
           "montecarlo": {"trials": 20, "snr_db": [10, 3058], "ideal": True,
                          "pipeline": pipeline}}
    argv = [command, "--config", write_config(tmp_path / "c.yaml", doc),
            "--outdir", str(tmp_path / "run")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + (["-j", "1"] if command == "montecarlo" else []))
    assert code == 1
    assert capsys.readouterr().err == "error: snr_db 3058: energy values must be finite and >= 0\n"
    assert not (tmp_path / "run" / f"{command}.csv").exists()


@pytest.mark.parametrize("command", ["bound", "estimate", "spectrum", "montecarlo"])
def test_rho_that_overflows_exits_1_naming_the_snr(tmp_path, capsys, command):
    # the power fits a float but rho, which carries the stack's |beta|^2, does not: bound
    # wrote the row '3082,nan,nan' and exited 0 after two RuntimeWarnings, and the others
    # exited 1 after RuntimeWarnings with an error that did not name the SNR
    stack = tmp_path / "s.bin"
    save_stack(stack, random_stack(2, 4, np.random.default_rng(3)))
    doc = {**RUN_DOC, "geometry": {"n_x": 2, "n_y": 2, "m_x": 2, "m_y": 2, "layers": 2,
                                   "thickness": 2.0},
           "bound": {"snr_db": [10, 3082]}, "estimate": {"snr_db": 3082},
           "spectrum": {"snr_db": 3082}, "montecarlo": {"trials": 4, "snr_db": [10, 3082]}}
    argv = [command, "--config", write_config(tmp_path / "c.yaml", doc),
            "--outdir", str(tmp_path / "run"), "--stack", str(stack)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv + (["-j", "1"] if command == "montecarlo" else []))
    assert code == 1
    assert "error: snr_db 3082 gives a transmit SNR rho that overflows" in capsys.readouterr().err
    assert not (tmp_path / "run" / f"{command}.csv").exists()


def test_a_stack_whose_scale_overflows_exits_1_without_a_warning(tmp_path, capsys):
    # a 33-layer cascade of single atoms over 300000 wavelengths has vdot(g, g) of about 4e-309,
    # below 1/DBL_MAX: beta = vdot(g, F)/vdot(g, g) overflowed with a RuntimeWarning, a traceback
    # under -W error::RuntimeWarning, and without it the error blamed the SNR
    stack = tmp_path / "s.bin"
    save_stack(stack, PhaseStack(np.zeros((33, 1))))
    doc = {**RUN_DOC, "geometry": {"n_x": 2, "n_y": 2, "m_x": 1, "m_y": 1, "layers": 33,
                                   "thickness": 300000.0},
           "bound": {"snr_db": [10]}}
    argv = ["bound", "--config", write_config(tmp_path / "c.yaml", doc),
            "--outdir", str(tmp_path / "run"), "--stack", str(stack)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 1
    assert capsys.readouterr().err == (f"error: {stack}: the stack's fitted scale beta leaves a"
                                       " float's range\n")
    assert not (tmp_path / "run" / "bound.csv").exists()


@pytest.mark.parametrize("command", ["bound", "montecarlo"])
@pytest.mark.parametrize("snr", [1500, -3000])
def test_bound_beyond_a_float_exits_1_naming_the_snr(tmp_path, capsys, command, snr):
    # rho fits a float but the bound's chi-square moments do not: bound wrote '1500,nan,nan'
    # and montecarlo a NaN bound column, each exiting 0 (after a RuntimeWarning at 1500 dB)
    stack = tmp_path / "s.bin"
    save_stack(stack, random_stack(2, 4, np.random.default_rng(3)))
    doc = {**RUN_DOC, "geometry": {"n_x": 2, "n_y": 2, "m_x": 2, "m_y": 2, "layers": 2,
                                   "thickness": 2.0},
           "bound": {"snr_db": [10, snr]},
           "montecarlo": {"trials": 20, "snr_db": [10, snr], "ideal": True}}
    argv = [command, "--config", write_config(tmp_path / "c.yaml", doc),
            "--outdir", str(tmp_path / "run")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv + (["-j", "1"] if command == "montecarlo" else ["--stack", str(stack)]))
    assert code == 1
    assert capsys.readouterr().err == (f"error: snr_db {snr} gives an MSE bound beyond a"
                                       " float's range\n")
    assert not (tmp_path / "run" / f"{command}.csv").exists()


def test_a_symbol_beyond_a_float_exits_1_from_bound_without_a_warning(tmp_path, capsys):
    # the bound's cell powers |G a s|**2 overflowed with a RuntimeWarning before the refusal,
    # which then blamed the SNR, although they overflow at every SNR
    stack = tmp_path / "s.bin"
    save_stack(stack, random_stack(2, 4, np.random.default_rng(3)))
    doc = {**RUN_DOC, "geometry": {"n_x": 2, "n_y": 2, "m_x": 2, "m_y": 2, "layers": 2,
                                   "thickness": 2.0},
           "source": {**RUN_DOC["source"], "s_imag": 1.0e308}, "bound": {"snr_db": [10]}}
    argv = ["bound", "--config", write_config(tmp_path / "c.yaml", doc),
            "--outdir", str(tmp_path / "run"), "--stack", str(stack)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert capsys.readouterr().err == ("error: 'source.s_real' and 'source.s_imag' give a symbol"
                                       " whose cell powers |G a s|**2 leave a float's range\n")


def test_a_symbol_beyond_a_float_is_refused_before_any_snr_point(tmp_path, capsys, monkeypatch):
    from simdoa import analysis

    def bound(*args):
        raise AssertionError("the bound ran")

    monkeypatch.setattr(analysis, "mse_bound", bound)
    doc = {**RUN_DOC, "source": {**RUN_DOC["source"], "s_real": -1.0e308, "s_imag": 1.0e308},
           "bound": {"snr_db": [-300, 10, 300]}}
    argv = ["bound", "--config", write_config(tmp_path / "c.yaml", doc),
            "--outdir", str(tmp_path / "run"), "--stack", str(tmp_path / "s.bin")]
    save_stack(tmp_path / "s.bin", random_stack(7, 121, np.random.default_rng(0)))
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: 'source.s_real' and 'source.s_imag'")
    assert not (tmp_path / "run" / "bound.csv").exists()


def test_bound_synthesizes_its_clean_field_once(tmp_path, capsys, monkeypatch):
    # the field was synthesized for the symbol check and again at each of the 7 SNR points
    from simdoa import analysis
    calls = []
    real = analysis.synthesize_received

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(analysis, "synthesize_received", counting)
    save_stack(tmp_path / "s.bin", random_stack(7, 121, np.random.default_rng(0)))
    assert main(["bound", "--config", str(CONFIGS / "bound.yaml"), "--outdir",
                 str(tmp_path / "run"), "--stack", str(tmp_path / "s.bin")]) == 0
    assert len(read_csv(tmp_path / "run" / "bound.csv")) == 8
    assert len(calls) == 1


@pytest.mark.parametrize("command,doc,key", [
    ("estimate", {**RUN_DOC, "protocol": {"t_x": 10 ** 400, "t_y": 2},
                  "estimate": {"ideal": True}}, "protocol.t_x"),
    ("montecarlo", {**MC_DOC, "geometry": {"n_x": 10 ** 400, "n_y": 2}}, "geometry.n_x"),
    ("montecarlo", {**MC_DOC, "geometry": {"n_x": 2, "n_y": 10 ** 20}}, "geometry.n_y"),
], ids=["t_x-400-digits", "n_x-400-digits", "n_y-20-digits"])
def test_size_keys_refuse_integers_beyond_numpy_index_range(tmp_path, capsys, command, doc, key):
    # t_x ended in an OverflowError traceback, n_x and n_y in "Maximum allowed size
    # exceeded"; a 20-digit t_y or trials hung (see the work-cap test below)
    code, err = _config_error(tmp_path, capsys, command, doc)
    assert code == 2
    assert f"'{key}' must be at most {np.iinfo(np.intp).max}" in err


@pytest.mark.parametrize("command,doc,key", [
    ("estimate", {**RUN_DOC, "protocol": {"t_x": 2, "t_y": 10 ** 18},
                  "estimate": {"ideal": True}}, "protocol.t_y"),
    ("montecarlo", {**MC_DOC, "montecarlo": {**MC_DOC["montecarlo"], "trials": 10 ** 18}},
     "montecarlo.trials"),
    ("montecarlo", {**MC_DOC, "protocol": {"t_x": 1024, "t_y": 1024}}, "protocol.t_x"),
], ids=["t_y-lattice", "trials-19-digits", "t_x-lattice"])
def test_work_beyond_the_caps_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, command,
                                                     doc, key):
    # the first two hung in the lattice build or the trial loop; here any work fails fast
    def started(*args, **kwargs):
        raise RuntimeError("the work started")

    monkeypatch.setattr(ProtocolConfig, "lattice", started)
    monkeypatch.setattr(experiments, "run_monte_carlo", started)
    code, err = _config_error(tmp_path, capsys, command, doc)
    assert code == 2
    assert f"'{key}' asks for too much work" in err


@pytest.mark.parametrize("geometry", [{"wavelength_mm": 1.0e300}, {"wavelength_mm": 1.0e-300},
                                      {"d_x": 1.0e300}],
                         ids=["huge-wavelength", "tiny-wavelength", "huge-spacing"])
@pytest.mark.parametrize("command", ["fit", "sweep", "estimate"])
def test_lengths_beyond_a_float_exit_1_naming_the_geometry(tmp_path, capsys, geometry, command):
    # fit and a receiver sweep ended in "OverflowError: (34, 'Numerical result out of range')"
    # at the layer gap's square; the others warned "invalid value encountered in divide",
    # then failed with "initial loss is not finite"
    stack = tmp_path / "s.bin"
    save_stack(stack, random_stack(2, 9, np.random.default_rng(0)))
    doc = {**RUN_DOC, "geometry": {"n_x": 2, "n_y": 2, "m_x": 3, "m_y": 3, "layers": 2,
                                   **geometry},
           "train": {"max_iters": 3},
           "sweep": {"mode": "receiver", "rotation_deg": [10.0], "runs": 1}}
    options = {"fit": [], "sweep": ["-j", "1"], "estimate": ["--stack", str(stack)]}[command]
    argv = [command, "--config", write_config(tmp_path / "c.yaml", doc),
            "--outdir", str(tmp_path / "run"), *options]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: propagation coefficients beyond a float's range for"
                          " SimGeometry(wavelength=")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command,geometry,message", [
    ("fit", {"layers": 3082}, "error: initial loss is not finite\n"),
    ("bound", {"thickness": 1.0e-100}, "the stack's response leaves a float's range\n"),
    ("estimate", {"thickness": 1.0e-100}, "the stack's response leaves a float's range\n"),
], ids=["fit-3082-layers", "bound-thin-stack", "estimate-thin-stack"])
def test_a_cascade_beyond_a_float_exits_1_without_a_warning(tmp_path, capsys, command, geometry,
                                                             message):
    # finite matrices whose cascade overflows: each warned "overflow encountered in matmul";
    # the --stack runs then blamed the SNR ("rho that overflows", "energy values must be finite")
    stack = tmp_path / "s.bin"
    save_stack(stack, random_stack(2, 4, np.random.default_rng(0)))
    doc = {**RUN_DOC, "geometry": {"n_x": 2, "n_y": 2, "m_x": 2, "m_y": 2, "layers": 2,
                                   "thickness": 2.0, **geometry},
           "train": {"max_iters": 2}, "bound": {"snr_db": [10]}}
    argv = [command, "--config", write_config(tmp_path / "c.yaml", doc),
            "--outdir", str(tmp_path / "run")] + ([] if command == "fit" else ["--stack", str(stack)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("doc,key", [
    # (65 * 32)**2 = 4,326,400 cells against 2**22 = 4,194,304
    ({"geometry": {"n_x": 2, "n_y": 2, "m_x": 65, "m_y": 32}, "train": {}}, "geometry.m_x"),
    # 1 * 1 * 1 * 2 * 2 * (2**39 + 1) iterations is just above 2**41 multiply-adds
    ({"geometry": {"n_x": 2, "n_y": 2, "m_x": 1, "m_y": 1, "layers": 1},
      "train": {"max_iters": 2 ** 39 + 1}}, "train.max_iters"),
    ({"geometry": {"n_x": 2, "n_y": 2, "m_x": 1, "m_y": 1, "layers": 1},
      "train": {"max_iters": 2 ** 19, "restarts": 2 ** 20 + 1}}, "train.restarts"),
], ids=["propagation-cells", "fit-iterations", "fit-restarts"])
def test_fit_work_beyond_the_caps_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, doc,
                                                         key):
    def started(*args, **kwargs):
        raise RuntimeError("the work started")

    monkeypatch.setattr(experiments, "fit_reference", started)
    code, err = _config_error(tmp_path, capsys, "fit", doc)
    assert code == 2
    assert f"'{key}' asks for too much work" in err


SWEEP_BASE = {"geometry": {"n_x": 2, "n_y": 2, "m_x": 3, "m_y": 3, "layers": 2},
              "train": {"max_iters": 2}}


@pytest.mark.parametrize("sweep,train,key,what", [
    # 10**8 layers of 3 x 3 atoms keep 3.6e9 complex layer inputs; it ran past a 30 s timeout
    ({"mode": "receiver", "layers": [100000000]}, {}, "sweep.layers[0]", "layer-input cells"),
    # 2000 x 2000 atoms: out of memory allocating 116 TiB of propagation matrices
    ({"mode": "ablation", "thickness": [2.0], "layers": [2], "atoms": [25, 4000000],
      "spacing": [0.5]}, {}, "sweep.atoms[1]", "propagation matrix cells"),
    # each cell's 4e5 * 9 * 9 * 4 * 1000 * 3 multiply-adds keep under 2**41, six of them do not
    ({"mode": "receiver", "layers": [7] + [400000] * 6}, {"max_iters": 1000},
     "sweep.layers[1]", "multiply-adds in the fit's GEMMs"),
], ids=["receiver-layers", "ablation-atoms", "summed-cells"])
def test_sweep_cells_beyond_the_caps_exit_2_before_any_fit(tmp_path, capsys, monkeypatch, sweep,
                                                            train, key, what):
    # the caps checked the base geometry alone, whose 3 x 3 atoms and 2 layers pass them
    def started(*args, **kwargs):
        raise RuntimeError("the fit started")

    monkeypatch.setattr(experiments, "_fit_runs", started)
    doc = {**SWEEP_BASE, "train": {**SWEEP_BASE["train"], **train}, "sweep": sweep}
    argv = ["sweep", "--config", write_config(tmp_path / "c.yaml", doc),
            "--outdir", str(tmp_path / "run"), "-j", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: '{key}' asks for too much work: ")
    assert f" {what}, above the cap of " in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("mode", [{"mode": "receiver", "rotation_deg": [10.0]},
                                  {"thickness": [2.0], "layers": [2], "atoms": [9],
                                   "spacing": [0.5]}], ids=["receiver", "ablation"])
@pytest.mark.parametrize("key,by", [("restarts", "runs"), ("seed", "seed")])
def test_sweep_refuses_the_train_keys_it_replaces(tmp_path, capsys, monkeypatch, mode, key, by):
    # a receiver sweep with 'train.restarts: 7' and 'sweep.runs: 2' fitted 2 runs a cell and
    # exited 0, so the value was ignored silently
    def started(*args, **kwargs):
        raise RuntimeError("the fit started")

    monkeypatch.setattr(experiments, "_fit_runs", started)
    doc = {**SWEEP_BASE, "train": {**SWEEP_BASE["train"], key: 7},
           "sweep": {**mode, "runs": 2}}
    cfg = write_config(tmp_path / "c.yaml", doc)
    assert main(["sweep", "--config", cfg, "--outdir", str(tmp_path / "run"), "-j", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: 'train.{key}' ")
    assert f"'sweep.{by}'" in err
    assert not (tmp_path / "run").exists()
    # fit on the same config still reads it
    assert getattr(_accepted(monkeypatch, "fit", cfg)["train"], key) == 7


def _accepted(monkeypatch, command, config, *options):
    """The config that ``main`` hands ``command`` once every check has passed; no work runs."""
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command,
                        (lambda args, parsed: seen.append(parsed) or 0, *cli._COMMANDS[command][1:]))
    assert main([command, "--config", config, *options]) == 0
    return seen[0]


def test_a_sweep_section_keeps_the_base_fit_caps(tmp_path, capsys, monkeypatch):
    # 'fit' reads the base geometry of a config that also holds a sweep, but an ablation
    # sweep fits only its cells: it once exited 2 on the base's 65 x 32 atoms too
    sweep = {"mode": "ablation", "thickness": [2.0], "layers": [2], "atoms": [25],
             "spacing": [0.5], "runs": 1}
    doc = {"geometry": {"n_x": 2, "n_y": 2, "m_x": 65, "m_y": 32}, "train": {"max_iters": 2},
           "sweep": sweep}
    def started(*args, **kwargs):
        raise RuntimeError("the work started")

    monkeypatch.setattr(experiments, "fit_reference", started)
    code, err = _config_error(tmp_path, capsys, "fit", doc)
    assert code == 2
    assert "config error: 'geometry.m_x' asks for too much work" in err
    argv = ["sweep", "--config", write_config(tmp_path / "c.yaml", doc),
            "--outdir", str(tmp_path / "run"), "-j", "1"]
    assert main(argv) == 0
    assert len(read_csv(tmp_path / "run" / "sweep.csv")) == 2


def test_sweep_cells_that_the_sweep_flags_are_not_counted(tmp_path, monkeypatch):
    # a non-square atom count or a layer count below 1 is flagged in the table, never fitted
    sweep = {"mode": "ablation", "thickness": [2.0], "layers": [0, 2],
             "atoms": [-4000000, 4000001, 25], "spacing": [0.5]}
    cfg = write_config(tmp_path / "c.yaml", {**SWEEP_BASE, "sweep": sweep})
    assert _accepted(monkeypatch, "sweep", cfg)["sweep"]["atoms"] == (-4000000, 4000001, 25)
    for name in ("sweep-ablation.yaml", "sweep-receiver.yaml"):
        assert _accepted(monkeypatch, "sweep", str(CONFIGS / name))["sweep"]["runs"] == 2


def test_fit_work_at_the_caps_is_accepted(tmp_path, monkeypatch):
    # 64 * 32 atoms is 2**22 propagation cells; 2**39 iterations of 2 x 2 inputs on one
    # atom is 2**41 multiply-adds
    for geometry, train in [({"m_x": 64, "m_y": 32}, {}),
                            ({"m_x": 1, "m_y": 1, "layers": 1}, {"max_iters": 2 ** 39})]:
        doc = {"geometry": {"n_x": 2, "n_y": 2, **geometry}, "train": train}
        parsed = _accepted(monkeypatch, "fit", write_config(tmp_path / "c.yaml", doc))
        assert parsed["geometry"].m_x == geometry["m_x"]


def test_fit_caps_need_a_train_section(tmp_path, capsys):
    # an estimate from the exact DFT builds no propagation matrices, whatever the stack size;
    # 'fit' refuses the config for its missing 'train' section before any cap
    doc = {**RUN_DOC, "geometry": {"n_x": 2, "n_y": 2, "m_x": 4096, "m_y": 4096},
           "estimate": {"ideal": True}}
    assert _config_error(tmp_path, capsys, "estimate", doc) == (0, "")
    assert _config_error(tmp_path, capsys, "fit", doc) == (
        2, "config error: 'fit' needs a 'train' section in the config\n")


def test_estimate_obeys_no_montecarlo_cap(tmp_path, capsys):
    # the Monte Carlo cap bound every command of a config with a 'montecarlo' section: this
    # estimate exited 2 with "'montecarlo.trials' asks for too much work"
    doc = {**RUN_DOC, "estimate": {"ideal": True},
           "montecarlo": {"trials": 100000000000, "snr_db": [10]}}
    assert _config_error(tmp_path, capsys, "estimate", doc) == (0, "")
    assert "'montecarlo.trials' asks for too much work" in _config_error(
        tmp_path, capsys, "montecarlo", doc)[1]


@pytest.mark.parametrize("command", ["estimate", "spectrum", "bound", "montecarlo"])
def test_stack_runs_refuse_matrices_beyond_the_cap(tmp_path, capsys, monkeypatch, command):
    # 65 * 32 atoms is just above 2**22 propagation cells: 'fit' refused it, but a
    # --stack run with a matching stack file built the matrices and exited 0
    def started(*args, **kwargs):
        raise RuntimeError("the work started")

    monkeypatch.setattr(cli, "build_propagation_matrices", started)
    stack = tmp_path / "s.bin"
    save_stack(stack, random_stack(2, 65 * 32, np.random.default_rng(0)))
    doc = {**RUN_DOC, "geometry": {"n_x": 2, "n_y": 2, "m_x": 65, "m_y": 32, "layers": 2},
           "bound": {"snr_db": [10]}, "montecarlo": {"trials": 4, "snr_db": [10]}}
    argv = [command, "--config", write_config(tmp_path / "c.yaml", doc),
            "--outdir", str(tmp_path / "run"), "--stack", str(stack)]
    assert main(argv + (["-j", "1"] if command == "montecarlo" else [])) == 2
    assert ("config error: 'geometry.m_x' asks for too much work: geometry.m_x * geometry.m_y"
            " * geometry.m_x * geometry.m_y = 4326400 propagation matrix cells, above the cap"
            " of 4194304") in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_work_at_the_caps_is_accepted(tmp_path, monkeypatch):
    # 2 x 2 inputs with 512 x 512 snapshots is 2**20 lattice cells, and
    # 4096 trials of them is 2**32 Monte Carlo cells per point
    doc = {**MC_DOC, "protocol": {"t_x": 512, "t_y": 512},
           "montecarlo": {**MC_DOC["montecarlo"], "trials": 4096}}
    parsed = _accepted(monkeypatch, "montecarlo", write_config(tmp_path / "c.yaml", doc))
    assert parsed["montecarlo"]["trials"] == 4096


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_2(tmp_path, capsys, jobs):
    # both once ran serially and exited 0
    cfg = write_config(tmp_path / "c.yaml", MC_DOC)
    with pytest.raises(SystemExit) as exc:
        main(["montecarlo", "--config", cfg, "--outdir", str(tmp_path / "run"), "-j", jobs])
    assert exc.value.code == 2
    assert f"argument --jobs/-j: must be >= 1, got {int(jobs)}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["fit", "-j", "2"], ["spectrum", "-j", "2"],
                                  ["estimate", "-j", "2"], ["bound", "-j", "2"]])
def test_options_a_command_does_not_read_exit_2(tmp_path, capsys, argv):
    # each was once accepted and ignored; an empty config makes the command stop at once
    config = ["--config", write_config(tmp_path / "c.yaml", {})]
    with pytest.raises(SystemExit) as exc:
        main([argv[0], *config, *argv[1:]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_memory_error_exits_1_without_traceback(tmp_path, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setattr(experiments, "run_monte_carlo", exhausted)
    cfg = write_config(tmp_path / "c.yaml", MC_DOC)
    assert main(["montecarlo", "--config", cfg, "--outdir", str(tmp_path / "run"), "-j", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory Unable to allocate 8.00 EiB for an array\n"


def test_seeds_take_any_non_negative_integer(tmp_path, capsys):
    doc = {**MC_DOC, "montecarlo": {**MC_DOC["montecarlo"], "seed": 10 ** 400}}
    cfg = write_config(tmp_path / "c.yaml", doc)
    assert main(["montecarlo", "--config", cfg, "--outdir", str(tmp_path / "run"), "-j", "1"]) == 0
    assert len(read_csv(tmp_path / "run" / "montecarlo.csv")) == 3


def test_montecarlo_manifest_reports_each_snr_point(tmp_path, capsys):
    doc = {**MC_DOC, "montecarlo": {"trials": 30, "snr_db": [0, 20, "inf"], "seed": 4,
                                    "source_mode": "uniform-psi", "ideal": True}}
    cfg = write_config(tmp_path / "c.yaml", doc)
    out = tmp_path / "run"
    assert main(["montecarlo", "--config", cfg, "--outdir", str(out), "-j", "1"]) == 0
    assert capsys.readouterr().out == f"montecarlo: 3 SNR points x 30 trials -> {out}/montecarlo.csv\n"
    per_point = read_manifest(out / "montecarlo-manifest.yaml")["results"]["per_point"]
    rows = read_csv(out / "montecarlo.csv")[1:]
    assert [p["snr_db"] for p in per_point] == [0.0, 20.0, math.inf]
    points = run_monte_carlo(McConfig(
        n_x=2, n_y=2, proto=ProtocolConfig(t_x=2, t_y=2), snr_db=(0.0, 20.0, math.inf),
        trials=30, g=dft_matrix(2, 2).matrix, seed=4, source_mode="uniform-psi"))
    # uniform-psi draws land outside the visible region about a fifth of the time
    assert [p["unrealizable"] for p in per_point] == [q.unrealizable for q in points]
    assert sum(q.unrealizable for q in points) > 0
    for p, row in zip(per_point[:2], rows):
        assert p["bound_over_mse"] == pytest.approx(float(row[7]) / float(row[3]), rel=1e-9)
    assert math.isnan(per_point[2]["bound_over_mse"])
