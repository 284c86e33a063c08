"""End-to-end reproduction targets, one test per headline claim.

The two reference fits are shared module-scoped fixtures; everything else
pins its own seeds and trial counts so each test is a standalone
pass/fail line for its claim.
"""

import dataclasses
import math

import numpy as np
import pytest

from simdoa.analysis import quantization_floor
from simdoa.estimator import ProtocolConfig
from simdoa.experiments import (
    McConfig,
    fit_reference,
    paired_trial,
    receiver_study,
    run_monte_carlo,
    sample_source,
)
from simdoa.geometry import SimGeometry, build_propagation_matrices, dft_matrix
from simdoa.trainer import TrainConfig, finite_diff_gradient, gradient, train, train_restarts
from simdoa.wavemodel import forward_response, optimal_scale, random_stack

LAM = 0.005

GEOM22 = SimGeometry(
    wavelength=LAM, n_x=2, n_y=2, d_x=LAM / 2, d_y=LAM / 2,
    m_x=11, m_y=11, s_x=LAM / 2, s_y=LAM / 2, layers=7, thickness=9 * LAM,
)
GEOM44 = SimGeometry(
    wavelength=LAM, n_x=4, n_y=4, d_x=LAM / 2, d_y=LAM / 2,
    m_x=15, m_y=15, s_x=4 * LAM / 9, s_y=4 * LAM / 9, layers=13, thickness=12 * LAM,
)


@pytest.fixture(scope="module")
def fit22():
    cfg = TrainConfig(eta0=0.1, zeta=0.8, max_iters=200, seed=0, restarts=20)
    return fit_reference(GEOM22, cfg)


@pytest.fixture(scope="module")
def fit44():
    cfg = TrainConfig(eta0=0.1, zeta=0.95, max_iters=200, seed=0, restarts=10)
    return fit_reference(GEOM44, cfg)


def test_analytic_gradient_matches_finite_differences():
    # 20 random small stacks, relative sup-norm error per layer <= 1e-6
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        n_side = int(rng.integers(1, 3))
        m_side = int(rng.integers(2, 4))
        layers = int(rng.integers(1, 4))
        geom = SimGeometry(
            wavelength=LAM, n_x=n_side, n_y=n_side, d_x=LAM / 2, d_y=LAM / 2,
            m_x=m_side, m_y=m_side, s_x=LAM / 2, s_y=LAM / 2,
            layers=layers, thickness=3 * LAM * layers)
        props = build_propagation_matrices(geom)
        stack = random_stack(layers, geom.m, rng)
        f = dft_matrix(n_side, n_side).matrix
        # off-optimum beta keeps the residual nonzero on degenerate sizes
        beta = optimal_scale(forward_response(props, stack), f) * (1.1 + 0.3j)
        exact = gradient(props, stack, f, beta)
        approx = finite_diff_gradient(props, stack, f, beta)
        for ga, gf in zip(exact, approx):
            scale = max(float(np.max(np.abs(gf))), 1e-300)
            worst = max(worst, float(np.max(np.abs(ga - gf))) / scale)
    assert worst <= 1e-6


def test_two_by_two_fit_reaches_deep_loss(fit22):
    # (9 lam, 7 layers, 121 atoms, lam/2) with 20 seeds, 200 iterations
    report, _, _, _ = fit22
    assert report.best_db <= -100.0


def test_four_by_four_fit_reaches_target_loss(fit44):
    # (12 lam, 13 layers, 225 atoms, 4 lam/9) with 10 seeds, 200 iterations
    report, _, _, _ = fit44
    assert report.best_db <= -15.0


def test_decay_sweep_has_interior_optimum():
    # mean loss over the decay grid dips at an interior value near the
    # reference setting for each array size
    zetas = (0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99)
    cases = ((GEOM22, 4, 0.8), (GEOM44, 3, 0.95))
    for geom, runs, target in cases:
        props = build_propagation_matrices(geom)
        f = dft_matrix(geom.n_x, geom.n_y).matrix
        means = []
        for z in zetas:
            cfg = TrainConfig(eta0=0.1, zeta=z, max_iters=100, seed=1000,
                              restarts=runs)
            reports = train_restarts(props, f, cfg)
            means.append(float(np.mean([r.best_db for r in reports])))
        idx = int(np.argmin(means))
        assert 0 < idx < len(zetas) - 1
        assert means[idx] < means[0] and means[idx] < means[-1]
        assert abs(zetas[idx] - target) <= 0.05 + 1e-12


def test_wave_and_digital_paths_pick_same_peak(fit22):
    # shared-noise pairing: exact response agrees always, trained >= 99%
    report, g22, b22, _ = fit22
    f = dft_matrix(2, 2).matrix
    proto = ProtocolConfig(t_x=4, t_y=4)
    gamma = 10.0 ** (20.0 / 10.0)

    rng = np.random.default_rng(5)
    ideal = 0
    for _ in range(1000):
        src = sample_source(rng)
        wave, digital = paired_trial(f, 1.0, src, proto, 2, 2, gamma, rng)
        ideal += (wave.psi_x == digital.psi_x) and (wave.psi_y == digital.psi_y)
    assert ideal == 1000

    rng = np.random.default_rng(6)
    trained = 0
    for _ in range(1000):
        src = sample_source(rng)
        wave, digital = paired_trial(g22, b22, src, proto, 2, 2, gamma, rng)
        trained += (wave.psi_x == digital.psi_x) and (wave.psi_y == digital.psi_y)
    assert trained >= 990


def test_bound_dominates_empirical_mse_and_tightens(fit22, fit44):
    cases = (
        (2, fit22, ProtocolConfig(t_x=4, t_y=4)),
        (4, fit44, ProtocolConfig(t_x=8, t_y=8)),
    )
    for nx, fit, proto in cases:
        _, g, beta, _ = fit
        cfg = McConfig(n_x=nx, n_y=nx, proto=proto, snr_db=(0.0, 10.0, 20.0, 30.0),
                       trials=1000, g=g, beta=beta, seed=41, pipeline="wave",
                       with_bound=True)
        points = run_monte_carlo(cfg)
        gaps = []
        for p in points:
            slack = 3.0 * math.hypot(p.se, p.bound_se)
            assert p.mse <= p.bound + slack
            gaps.append(p.bound - p.mse)
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))


def _mse_curve(t_side, grid, trials):
    cfg = McConfig(n_x=2, n_y=2, proto=ProtocolConfig(t_x=t_side, t_y=t_side),
                   snr_db=tuple(float(v) for v in grid), trials=trials,
                   g=dft_matrix(2, 2).matrix, beta=1.0, seed=21,
                   pipeline="wave", with_bound=False)
    return run_monte_carlo(cfg)


def _crossing_db(points, target):
    # log-linear interpolation of the first downward crossing
    for a, b in zip(points, points[1:]):
        if a.mse >= target >= b.mse:
            frac = (math.log(target) - math.log(a.mse)) \
                / (math.log(b.mse) - math.log(a.mse))
            return a.snr_db + frac * (b.snr_db - a.snr_db)
    raise AssertionError("target MSE not crossed on the grid")


def test_quadrupling_snapshots_gains_about_twenty_db():
    # matched-MSE shift between the T=4 and T=16 curves on the 2x2 array
    target = 1.2 * quantization_floor(2, 2, ProtocolConfig(t_x=2, t_y=2))[0]
    c4 = _crossing_db(_mse_curve(2, range(6, 21, 2), 700), target)
    c16 = _crossing_db(_mse_curve(4, range(-10, 3, 2), 700), target)
    gain = c4 - c16
    assert 14.0 <= gain <= 26.0


def test_noise_free_mse_equals_quantization_floor(fit22):
    _, g, beta, _ = fit22
    proto = ProtocolConfig(t_x=4, t_y=4)
    cfg = McConfig(n_x=2, n_y=2, proto=proto, snr_db=(float("inf"),),
                   trials=3000, g=g, beta=beta, seed=13,
                   source_mode="uniform-psi", pipeline="wave", with_bound=False)
    point = run_monte_carlo(cfg)[0]
    floor_x, floor_y = quantization_floor(2, 2, proto)
    assert point.mse_x == pytest.approx(floor_x, rel=0.10)
    assert point.mse_y == pytest.approx(floor_y, rel=0.10)


def test_larger_aperture_gains_about_six_db(fit22, fit44):
    # 4x4/T=16 versus 2x2/T=16 at 10 dB effective SNR
    proto = ProtocolConfig(t_x=4, t_y=4)
    mse = {}
    for nx, fit in ((2, fit22), (4, fit44)):
        _, g, beta, _ = fit
        cfg = McConfig(n_x=nx, n_y=nx, proto=proto, snr_db=(10.0,), trials=1200,
                       g=g, beta=beta, seed=31, pipeline="wave", with_bound=False)
        mse[nx] = run_monte_carlo(cfg)[0].mse
    gain_db = 10.0 * math.log10(mse[2] / mse[4])
    assert 3.0 <= gain_db <= 9.0


def test_receiver_spacing_and_rotation_study():
    cfg = TrainConfig(eta0=0.1, zeta=0.8, max_iters=200, seed=0)
    spacings = (LAM / 4, LAM / 2, LAM)

    deep = receiver_study(GEOM22, cfg, u_x=spacings, runs=3, seed=0)
    by_u = {round(r.value / LAM, 2): r.min_db for r in deep}
    assert by_u[0.5] <= -100.0
    assert by_u[1.0] <= -100.0

    shallow = receiver_study(dataclasses.replace(GEOM22, layers=1), cfg,
                             u_x=spacings, runs=3, seed=0)
    assert all(r.min_db > -100.0 for r in shallow)

    # zero rotation is the isomorphic receiver: identical to plain training
    rot = receiver_study(GEOM22, cfg, rotation=(0.0,), runs=3, seed=0)[0]
    props = build_propagation_matrices(GEOM22)
    f = dft_matrix(2, 2).matrix
    dbs = []
    for run in range(3):
        child = int(np.random.SeedSequence(0, spawn_key=(0, run))
                    .generate_state(1)[0])
        dbs.append(train(props, f, dataclasses.replace(cfg, seed=child)).best_db)
    assert rot.mean_db == float(np.mean(dbs))
    assert rot.min_db == float(np.min(dbs))
    assert rot.max_db == float(np.max(dbs))
