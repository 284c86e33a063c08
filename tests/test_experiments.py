import dataclasses
import math

import numpy as np
import pytest

from simdoa import estimator, experiments
from simdoa.analysis import quantization_floor
from simdoa.estimator import ProtocolConfig, electrical_angles, steering_for
from simdoa.experiments import (
    McConfig,
    SourceTruth,
    SweepSpec,
    ablation_sweep,
    digital_baseline,
    effective_rho,
    fit_reference,
    paired_trial,
    receiver_study,
    run_monte_carlo,
    sample_source,
)
from simdoa.geometry import SimGeometry, build_propagation_matrices, dft_matrix
from simdoa.trainer import TrainConfig, train
from simdoa.wavemodel import cn_noise

LAM = 0.005


def small_geom(**overrides):
    base = dict(
        wavelength=LAM, n_x=2, n_y=2, d_x=LAM / 2, d_y=LAM / 2,
        m_x=5, m_y=5, s_x=LAM / 2, s_y=LAM / 2, layers=2, thickness=0.01,
    )
    base.update(overrides)
    return SimGeometry(**base)


def lattice_source(n, t, n_x, n_y, proto, s=1.0 + 0j):
    psi_x, psi_y = electrical_angles(n, t, n_x, n_y, proto)
    return SourceTruth(phi=0.0, theta=0.0, psi_x=psi_x, psi_y=psi_y, s=s)


# --------------------------------------------------------------------- sources

def test_sample_source_parameter_mode():
    rng = np.random.default_rng(0)
    draws = [sample_source(rng) for _ in range(30_000)]
    sines = [math.sin(d.theta) for d in draws]
    # theta uniform on [0, pi/2) has mean sine 2/pi
    assert np.mean(sines) == pytest.approx(2.0 / math.pi, abs=0.01)
    for d in draws[:500]:
        assert d.psi_x ** 2 + d.psi_y ** 2 <= 1.0 + 1e-12
        assert d.psi_x == pytest.approx(math.sin(d.theta) * math.cos(d.phi))


def test_sample_source_solid_mode():
    rng = np.random.default_rng(1)
    draws = [sample_source(rng, mode="solid") for _ in range(30_000)]
    # cos(theta) uniform on (0, 1] has mean sine pi/4
    assert np.mean([math.sin(d.theta) for d in draws]) == pytest.approx(math.pi / 4, abs=0.01)


def test_sample_source_uniform_psi_mode():
    rng = np.random.default_rng(2)
    draws = [sample_source(rng, mode="uniform-psi") for _ in range(5000)]
    xs = [d.psi_x for d in draws]
    assert min(xs) < -0.95 and max(xs) > 0.95
    for d in draws:
        if d.psi_x ** 2 + d.psi_y ** 2 <= 1.0:
            assert d.theta == pytest.approx(math.asin(math.hypot(d.psi_x, d.psi_y)))
        else:
            assert math.isnan(d.theta)


def test_sample_source_symbols():
    rng = np.random.default_rng(3)
    cscg = [sample_source(rng).s for _ in range(20_000)]
    assert np.mean(np.abs(cscg) ** 2) == pytest.approx(1.0, rel=0.05)
    phase = [sample_source(rng, symbol="phase").s for _ in range(100)]
    assert np.allclose(np.abs(phase), 1.0)


def test_sample_source_rejects_unknown_modes():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        sample_source(rng, mode="nope")
    with pytest.raises(ValueError):
        sample_source(rng, symbol="nope")


def test_effective_rho_formula():
    assert effective_rho(10.0, 2.0, 4, 16) == pytest.approx(10.0 * 4.0 * 256.0 / 16.0)
    assert effective_rho(1.0, 1.0, 4, 1) == pytest.approx(1.0 / 16.0)


# -------------------------------------------------------------- digital branch

def test_digital_on_lattice_exact():
    proto = ProtocolConfig(t_x=4, t_y=4)
    for n0, t0 in ((1, 1), (3, 7), (4, 16), (2, 10)):
        src = lattice_source(n0, t0, 2, 2, proto, s=0.7 - 0.7j)
        est = digital_baseline(src, proto, 2, 2, 5.0, rng=None)
        assert (est.n, est.t) == (n0, t0)
        assert (est.psi_x, est.psi_y) == (src.psi_x, src.psi_y)


def _per_snapshot_digital_energies(source, proto, n_x, n_y, rho, noise):
    """The snapshot-by-snapshot loop that the lattice replaced, as an oracle."""
    f = dft_matrix(n_x, n_y).matrix
    sv = steering_for(source.psi_x, source.psi_y, n_x, n_y)
    values = np.empty((n_x * n_y, proto.t))
    for t in range(1, proto.t + 1):
        zeroth = estimator.zeroth_layer_config(t, n_x, n_y, proto)
        x = np.sqrt(rho) * (zeroth.transmission() * sv.entries) * source.s
        if noise is not None:
            x = x + noise[:, t - 1]
        values[:, t - 1] = np.abs(f @ x) ** 2
    return values


@pytest.mark.parametrize("kind", ["clean", "generator", "preset"])
def test_digital_matches_per_snapshot_loop_exactly(kind, monkeypatch):
    maps = []
    real = experiments.estimate_from_map

    def capture(emap, *args, **kwargs):
        maps.append(emap.values)
        return real(emap, *args, **kwargs)

    monkeypatch.setattr(experiments, "estimate_from_map", capture)
    proto = ProtocolConfig(t_x=3, t_y=4)
    src = SourceTruth(phi=0.0, theta=0.0, psi_x=0.37, psi_y=-0.58, s=0.3 - 1.1j)
    noise = cn_noise(np.random.default_rng(5), (6, proto.t), variance=1.0 / 6)
    if kind == "clean":
        digital_baseline(src, proto, 3, 2, 4.0, rng=None)
        want = _per_snapshot_digital_energies(src, proto, 3, 2, 4.0, None)
    elif kind == "generator":
        digital_baseline(src, proto, 3, 2, 4.0, rng=np.random.default_rng(5))
        want = _per_snapshot_digital_energies(src, proto, 3, 2, 4.0, noise)
    else:
        digital_baseline(src, proto, 3, 2, 4.0, rng=None, noise=noise)
        want = _per_snapshot_digital_energies(src, proto, 3, 2, 4.0, noise)
    assert np.array_equal(maps[0], want)


def test_paired_trial_ideal_paths_always_agree():
    f = dft_matrix(2, 2).matrix
    proto = ProtocolConfig(t_x=4, t_y=4)
    rng = np.random.default_rng(3)
    gamma = 10.0 ** (20.0 / 10.0)
    for _ in range(200):
        src = sample_source(rng)
        wave, digital = paired_trial(f, 1.0, src, proto, 2, 2, gamma, rng)
        assert wave.psi_x == digital.psi_x
        assert wave.psi_y == digital.psi_y


def test_wave_and_digital_mse_within_a_db():
    f = dft_matrix(2, 2).matrix
    proto = ProtocolConfig(t_x=4, t_y=4)
    out = {}
    for pipe in ("wave", "digital"):
        cfg = McConfig(n_x=2, n_y=2, proto=proto, snr_db=(10.0,), trials=400,
                       g=f if pipe == "wave" else None, beta=1.0, seed=8,
                       pipeline=pipe, with_bound=False)
        out[pipe] = run_monte_carlo(cfg)[0].mse
    gap_db = 10.0 * math.log10(out["wave"] / out["digital"])
    assert abs(gap_db) < 1.0


def test_trained_stack_tracks_digital_mse():
    # a deep fit behaves like the numeric DFT across the SNR grid
    geom = SimGeometry(
        wavelength=LAM, n_x=2, n_y=2, d_x=LAM / 2, d_y=LAM / 2,
        m_x=11, m_y=11, s_x=LAM / 2, s_y=LAM / 2, layers=7, thickness=9 * LAM,
    )
    report, g, beta = fit_reference(geom, TrainConfig(max_iters=200, seed=0, restarts=3))
    assert report.best_db <= -100.0
    proto = ProtocolConfig(t_x=4, t_y=4)
    for snr in (10.0, 20.0):
        wave = run_monte_carlo(McConfig(
            n_x=2, n_y=2, proto=proto, snr_db=(snr,), trials=400, g=g, beta=beta,
            seed=12, pipeline="wave", with_bound=False))[0].mse
        digital = run_monte_carlo(McConfig(
            n_x=2, n_y=2, proto=proto, snr_db=(snr,), trials=400, seed=12,
            pipeline="digital", with_bound=False))[0].mse
        assert abs(10.0 * math.log10(wave / digital)) < 1.0


# ----------------------------------------------------------------- monte carlo

def test_mc_config_validation():
    proto = ProtocolConfig()
    with pytest.raises(ValueError):
        McConfig(n_x=2, n_y=2, proto=proto, snr_db=(0.0,), trials=0)
    with pytest.raises(ValueError):
        McConfig(n_x=2, n_y=2, proto=proto, snr_db=(0.0,), trials=5, pipeline="nope")
    with pytest.raises(ValueError):
        McConfig(n_x=2, n_y=2, proto=proto, snr_db=(0.0,), trials=5, pipeline="wave")
    with pytest.raises(ValueError):
        McConfig(n_x=2, n_y=2, proto=proto, snr_db=(float("nan"),), trials=5,
                 pipeline="digital")


def test_mc_config_rejects_minus_inf():
    # -inf once ran as the noise-free limit and reported the lattice floor
    with pytest.raises(ValueError):
        McConfig(n_x=2, n_y=2, proto=ProtocolConfig(), snr_db=(0.0, -math.inf),
                 trials=5, pipeline="digital")


@pytest.mark.parametrize("pipeline", ["wave", "digital"])
def test_mc_builds_the_lattice_once_per_protocol(pipeline, monkeypatch):
    calls = []
    real = estimator.zeroth_layer_config

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(estimator, "zeroth_layer_config", counting)
    proto = ProtocolConfig(t_x=2, t_y=3)
    cfg = McConfig(n_x=2, n_y=2, proto=proto, snr_db=(10.0, math.inf), trials=6,
                   g=dft_matrix(2, 2).matrix, seed=4, pipeline=pipeline)
    run_monte_carlo(cfg)
    run_monte_carlo(cfg)
    assert calls == list(range(1, proto.t + 1))
    # the cache lives on the instance: an equal but new protocol builds again
    run_monte_carlo(dataclasses.replace(cfg, proto=ProtocolConfig(t_x=2, t_y=3)))
    assert len(calls) == 2 * proto.t


def test_mc_fixed_lattice_source_noise_free_is_exact():
    f = dft_matrix(2, 2).matrix
    proto = ProtocolConfig(t_x=4, t_y=4)
    src = lattice_source(2, 6, 2, 2, proto)
    cfg = McConfig(n_x=2, n_y=2, proto=proto, snr_db=(float("inf"),), trials=20,
                   g=f, beta=1.0, seed=0, sources=(src,), pipeline="wave")
    point = run_monte_carlo(cfg)[0]
    assert point.mse == 0.0
    assert math.isnan(point.bound)
    assert point.low_trials


def test_mc_noise_free_floor_matches_quantization():
    f = dft_matrix(2, 2).matrix
    proto = ProtocolConfig(t_x=4, t_y=4)
    cfg = McConfig(n_x=2, n_y=2, proto=proto, snr_db=(float("inf"),), trials=600,
                   g=f, beta=1.0, seed=7, source_mode="uniform-psi",
                   pipeline="wave", with_bound=False)
    point = run_monte_carlo(cfg)[0]
    floor = quantization_floor(2, 2, proto)[0]
    assert point.mse == pytest.approx(floor, rel=0.25)
    assert not point.low_trials


def test_mc_reproducible_and_order_independent():
    f = dft_matrix(2, 2).matrix
    proto = ProtocolConfig(t_x=2, t_y=2)
    cfg = McConfig(n_x=2, n_y=2, proto=proto, snr_db=(5.0, float("inf")), trials=40,
                   g=f, beta=1.0, seed=9, pipeline="wave")
    a = run_monte_carlo(cfg)
    b = run_monte_carlo(cfg)
    for pa, pb in zip(a, b):
        for field in ("mse_x", "mse_y", "mse", "se", "bound", "bound_se"):
            va, vb = getattr(pa, field), getattr(pb, field)
            assert va == vb or (math.isnan(va) and math.isnan(vb))


def test_mc_parallel_matches_serial():
    f = dft_matrix(2, 2).matrix
    proto = ProtocolConfig(t_x=2, t_y=2)
    base = McConfig(n_x=2, n_y=2, proto=proto, snr_db=(10.0,), trials=48,
                    g=f, beta=1.0, seed=10, pipeline="wave")
    serial = run_monte_carlo(base)[0]
    parallel = run_monte_carlo(dataclasses.replace(base, jobs=2))[0]
    assert serial.mse == parallel.mse
    assert serial.bound == parallel.bound


def test_mc_bound_reported_only_when_requested():
    f = dft_matrix(2, 2).matrix
    proto = ProtocolConfig(t_x=2, t_y=2)
    cfg = McConfig(n_x=2, n_y=2, proto=proto, snr_db=(10.0,), trials=10,
                   g=f, beta=1.0, seed=11, pipeline="wave", with_bound=False)
    p = run_monte_carlo(cfg)[0]
    assert math.isnan(p.bound) and math.isnan(p.bound_x)
    cfg = dataclasses.replace(cfg, with_bound=True)
    p = run_monte_carlo(cfg)[0]
    assert math.isfinite(p.bound) and p.bound > 0.0


def test_extra_snapshots_buy_resolution():
    # quadrupling T at fixed effective SNR shrinks the MSE several-fold
    f = dft_matrix(4, 4).matrix
    out = {}
    for tx in (4, 8):
        cfg = McConfig(n_x=4, n_y=4, proto=ProtocolConfig(t_x=tx, t_y=tx),
                       snr_db=(10.0,), trials=400, g=f, beta=1.0, seed=2,
                       pipeline="wave", with_bound=False)
        out[tx] = run_monte_carlo(cfg)[0].mse
    ratio = out[4] / out[8]
    assert 2.5 < ratio < 6.0


def test_digital_array_reaches_its_floor():
    cfg = McConfig(n_x=8, n_y=8, proto=ProtocolConfig(), snr_db=(40.0,), trials=500,
                   seed=5, pipeline="digital", with_bound=False)
    mse = run_monte_carlo(cfg)[0].mse
    floor = quantization_floor(8, 8, ProtocolConfig())[0]
    assert floor == pytest.approx(5.208e-3, rel=1e-3)
    assert 0.6 * floor < mse < 1.6 * floor


def test_large_digital_array_reaches_its_floor():
    cfg = McConfig(n_x=32, n_y=32, proto=ProtocolConfig(), snr_db=(50.0,), trials=80,
                   seed=6, pipeline="digital", with_bound=False)
    mse = run_monte_carlo(cfg)[0].mse
    floor = quantization_floor(32, 32, ProtocolConfig())[0]
    assert floor == pytest.approx(3.255e-4, rel=1e-3)
    assert 0.5 * floor < mse < 2.0 * floor


# ---------------------------------------------------------------------- sweeps

def test_ablation_grid_shape_and_flags():
    spec = SweepSpec(
        n_x=2, n_y=2,
        thickness_lam=(3.0,), layers=(1, 2), atoms=(1, 10, 25), spacing_lam=(0.5,),
        train=TrainConfig(max_iters=10), runs=2, seed=0,
    )
    cells = ablation_sweep(spec)
    assert len(cells) == 6
    by_key = {(c.layers, c.atoms): c for c in cells}
    rank_cell = by_key[(1, 1)]
    assert not rank_cell.feasible
    assert "rank" in rank_cell.note
    assert math.isnan(rank_cell.mean_db)
    square_cell = by_key[(1, 10)]
    assert not square_cell.feasible
    assert "square" in square_cell.note
    good = by_key[(2, 25)]
    assert good.feasible
    assert good.runs == 2
    assert good.min_db <= good.mean_db <= good.max_db


def test_ablation_parallel_matches_serial():
    spec = SweepSpec(
        n_x=2, n_y=2, thickness_lam=(3.0,), layers=(2,), atoms=(25,),
        spacing_lam=(0.5,), train=TrainConfig(max_iters=8), runs=2, seed=1,
    )
    serial = ablation_sweep(spec)
    parallel = ablation_sweep(dataclasses.replace(spec, jobs=2))
    assert serial == parallel


def test_receiver_study_rows_and_isomorphic_match():
    geom = small_geom()
    cfg = TrainConfig(max_iters=10)
    # spacing equal to the input pitch and zero rotation are the same
    # isomorphic geometry, so the two single-point studies agree bit-exactly
    a = receiver_study(geom, cfg, u_x=(geom.d_x,), runs=2, seed=3)
    b = receiver_study(geom, cfg, rotation=(0.0,), runs=2, seed=3)
    assert len(a) == len(b) == 1
    assert a[0].parameter == "u_x" and b[0].parameter == "rotation"
    assert a[0].mean_db == b[0].mean_db
    assert a[0].min_db == b[0].min_db
    assert a[0].max_db == b[0].max_db


def test_receiver_study_matches_direct_training():
    geom = small_geom()
    cfg = TrainConfig(max_iters=10)
    row = receiver_study(geom, cfg, layers=(2,), runs=2, seed=4)[0]
    assert row.parameter == "layers" and row.value == 2.0
    props = build_propagation_matrices(geom)
    f = dft_matrix(2, 2).matrix
    dbs = []
    for run in range(2):
        child = int(np.random.SeedSequence(4, spawn_key=(0, run)).generate_state(1)[0])
        dbs.append(train(props, f, dataclasses.replace(cfg, seed=child)).best_db)
    assert row.mean_db == pytest.approx(float(np.mean(dbs)), rel=1e-12)


def test_fit_reference_returns_best_restart():
    geom = small_geom()
    report, g, beta = fit_reference(geom, TrainConfig(max_iters=15, seed=0, restarts=3))
    assert g.shape == (4, 4)
    assert report.best_db <= 0.0
    assert beta != 0
    # the returned response really is the report stack's response
    props = build_propagation_matrices(geom)
    from simdoa.wavemodel import forward_response
    assert np.array_equal(g, forward_response(props, report.stack))
