import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from simdoa import analysis, estimator, experiments, streams
from simdoa.analysis import quantization_floor
from simdoa.estimator import (DoaEstimate, EnergyMap, ProtocolConfig, collect_snapshots,
                              electrical_angles, estimate_from_map, steering_for,
                              wrapped_angle_error)
from simdoa.experiments import (
    McConfig,
    McPoint,
    SourceTruth,
    ablation_sweep,
    digital_baseline,
    effective_rho,
    fit_reference,
    paired_trial,
    receiver_study,
    run_monte_carlo,
    sample_source,
)
from simdoa.geometry import (TWO_PI, SimGeometry, build_propagation_matrices,
                             dft_matrix)
from simdoa.trainer import TrainConfig, train
from simdoa.wavemodel import (antenna_field, cn_noise, complex_gaussian, matvec_columns,
                              scale_field, synthesize_received)

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


@pytest.mark.parametrize("beta", [1e160, np.float64(1e160), complex(1e160, 1.0)])
def test_snr_rho_refuses_a_beta_whose_power_overflows(beta):
    # |beta|**2 of a Python float raised OverflowError past the ValueError that names the SNR
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="snr_db 0 gives a transmit SNR rho that overflows"):
            experiments.snr_rho(0.0, beta, 4, 16)


# -------------------------------------------------------------- digital branch

def test_digital_on_lattice_exact():
    proto = ProtocolConfig(t_x=4, t_y=4)
    for n0, t0 in ((1, 1), (3, 7), (4, 16), (2, 10)):
        src = lattice_source(n0, t0, 2, 2, proto, s=0.7 - 0.7j)
        est = digital_baseline(dft_matrix(2, 2).matrix, proto.lattice(2, 2),
                               steering_for(src.psi_x, src.psi_y, 2, 2), src.s, 5.0)
        assert (est.n, est.t) == (n0, t0)
        assert (est.psi_x, est.psi_y) == (src.psi_x, src.psi_y)


def _antenna_noise(rng, proto, n_x, n_y):
    """(N, T) antenna noise at variance 1/N, as ``digital_baseline`` once drew it from ``rng``."""
    n = n_x * n_y
    return cn_noise(rng, (n, proto.t), variance=1.0 / n)


def _per_snapshot_digital_energies(source, proto, n_x, n_y, rho, noise):
    """The snapshot-by-snapshot loop that the lattice replaced, as an oracle."""
    f = dft_matrix(n_x, n_y).matrix
    sv = steering_for(source.psi_x, source.psi_y, n_x, n_y)
    values = np.empty((n_x * n_y, proto.t))
    for t in range(1, proto.t + 1):
        zeroth = np.exp(1j * estimator.zeroth_layer_phase(np.arange(1, n_x * n_y + 1), t,
                                                          n_x, n_y, proto))
        x = np.sqrt(rho) * (zeroth * sv) * source.s
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
    sv = steering_for(src.psi_x, src.psi_y, 3, 2)
    f, lattice = dft_matrix(3, 2).matrix, proto.lattice(3, 2)
    noise = cn_noise(np.random.default_rng(5), (6, proto.t), variance=1.0 / 6)
    if kind == "clean":
        digital_baseline(f, lattice, sv, src.s, 4.0)
        want = _per_snapshot_digital_energies(src, proto, 3, 2, 4.0, None)
    elif kind == "generator":
        digital_baseline(f, lattice, sv, src.s, 4.0,
                         noise=_antenna_noise(np.random.default_rng(5), proto, 3, 2))
        want = _per_snapshot_digital_energies(src, proto, 3, 2, 4.0, noise)
    else:
        digital_baseline(f, lattice, sv, src.s, 4.0, noise=noise)
        want = _per_snapshot_digital_energies(src, proto, 3, 2, 4.0, noise)
    assert np.array_equal(maps[0], want)


def test_digital_energies_refuse_symbols_other_than_one_per_trial():
    # the count was once refused only by numpy's broadcast error, which names no argument
    lattice = ProtocolConfig(t_x=2, t_y=2).lattice(2, 2)
    sv = steering_for(np.array([0.1, -0.3]), np.array([0.2, 0.4]), 2, 2)
    with pytest.raises(ValueError, match=r"one symbol per trial, \(2,\), got \(3,\)"):
        experiments._digital_energies(dft_matrix(2, 2).matrix, lattice, sv, np.ones(3), 1.0)


def three_pass_complex_gaussian(re, im, variance=1.0):
    """The former ``complex_gaussian``: ``1j * im``, ``re + ...`` and the scale, three passes."""
    return np.sqrt(variance / 2.0) * (re + 1j * im)


@pytest.mark.parametrize("variance", [1.0, 0.25, 1.0 / 6.0])
def test_complex_gaussian_equals_the_three_pass_form_bit_for_bit(variance):
    rng = np.random.default_rng(35)
    for shape in ((), (7,), (16, 4, 64)):
        re, im = rng.standard_normal(shape), rng.standard_normal(shape)
        got = complex_gaussian(re, im, variance)
        want = np.asarray(three_pass_complex_gaussian(re, im, variance))
        assert got.shape == want.shape == shape and got.dtype == complex
        assert np.array_equal(got.reshape(-1).view(np.int64), want.reshape(-1).view(np.int64))


def three_pass_cn_noise(rng, shape, variance=1.0):
    """``cn_noise`` as it was, on the three-pass form."""
    return three_pass_complex_gaussian(rng.standard_normal(shape), rng.standard_normal(shape),
                                       variance)


def two_vector_paired_trial(g, beta, source, proto, n_x, n_y, gamma, rng):
    """``paired_trial`` as it was, returning its estimates and its two energy maps.

    Each path builds its own steering vector and exp(1j * xi0), and the
    noise comes from the three-pass form.
    """
    n = n_x * n_y
    f = dft_matrix(n_x, n_y).matrix
    u_ant = three_pass_cn_noise(rng, (n, proto.t), variance=1.0 / n)
    rho_wave = effective_rho(gamma, beta, n, proto.t)
    rho_digital = effective_rho(gamma, 1.0, n, proto.t)
    frame = np.conj(beta) / abs(beta) if beta != 0 else 1.0
    xi0 = estimator.zeroth_layer_phase(np.arange(1, n + 1)[:, None], np.arange(1, proto.t + 1),
                                       n_x, n_y, proto)
    s = np.asarray(source.s, dtype=complex)
    sv = steering_for(source.psi_x, source.psi_y, n_x, n_y)
    field = matvec_columns(np.asarray(g), (np.exp(1j * xi0).T * sv).swapaxes(-1, -2))
    wave_map = np.abs(scale_field(field, s, rho_wave, frame * (f @ u_ant))) ** 2
    sv = steering_for(source.psi_x, source.psi_y, n_x, n_y)
    x = np.sqrt(rho_digital) * (np.exp(1j * xi0) * sv[..., None]) * source.s + u_ant
    digital_map = np.abs(matvec_columns(f, x)) ** 2
    return [estimate_from_map(EnergyMap(m), proto.lattice(n_x, n_y), (0.5, 0.5))
            for m in (wave_map, digital_map)], [wave_map, digital_map]


def _bits(est):
    return repr(dataclasses.astuple(est))


@pytest.mark.parametrize("response", ["dft", "random"])
def test_paired_trial_equals_the_two_vector_path_bit_for_bit(response, monkeypatch):
    maps = []
    real = experiments.estimate_from_map

    def capture(emap, *args, **kwargs):
        maps.append(emap.values)
        return real(emap, *args, **kwargs)

    monkeypatch.setattr(experiments, "estimate_from_map", capture)
    if response == "dft":
        n_x, n_y, proto = 2, 2, ProtocolConfig(t_x=4, t_y=4)
        g, beta = dft_matrix(2, 2).matrix, 1.0
    else:
        n_x, n_y, proto = 3, 2, ProtocolConfig(t_x=2, t_y=3)
        gen = np.random.default_rng(42)
        g = gen.standard_normal((6, 6)) + 1j * gen.standard_normal((6, 6))
        beta = 0.8 - 1.7j
    sources = np.random.default_rng(43)
    rng, oracle_rng = np.random.default_rng(44), np.random.default_rng(44)
    for _ in range(1000):
        src = sample_source(sources)
        maps.clear()
        got = paired_trial(g, beta, src, proto, n_x, n_y, 30.0, rng)
        want, want_maps = two_vector_paired_trial(g, beta, src, proto, n_x, n_y, 30.0,
                                                  oracle_rng)
        assert [_bits(e) for e in got] == [_bits(e) for e in want]
        for m, w in zip(maps, want_maps, strict=True):
            assert np.array_equal(m.view(np.int64), w.view(np.int64))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


# ``paired_trial`` and the one-map helpers it called before their per-call
# numpy overhead was cut (fromnumeric wrappers, numpy-scalar arithmetic,
# np.outer, two noise draws), kept as the oracle of every estimate field.

def _former_visible_angles(psi_x, psi_y, d_x, d_y):
    px, py = np.pi * psi_x, np.pi * psi_y
    radius = np.sqrt((px / d_x) * (px / d_x) + (py / d_y) * (py / d_y)) / TWO_PI
    if radius > 1.0:
        return math.nan, math.nan
    if psi_x == 0.0 and psi_y == 0.0:
        return 0.0, 0.0
    return float(np.mod(np.arctan2(py * d_x, px * d_y), TWO_PI)), float(np.arcsin(radius))


def _former_estimate(values, proto, n_x, n_y):
    assert not np.any(values < 0.0)
    t_hat, n_hat = divmod(int(np.argmax(values.T)), values.shape[0])
    lattice = proto.lattice(n_x, n_y)
    psi_x, psi_y = float(lattice.psi_x[n_hat, t_hat]), float(lattice.psi_y[n_hat, t_hat])
    return DoaEstimate(n_hat + 1, t_hat + 1, psi_x, psi_y,
                       *_former_visible_angles(psi_x, psi_y, 0.5, 0.5))


def former_paired_trial(g, beta, source, proto, n_x, n_y, gamma, rng):
    n = n_x * n_y
    f = dft_matrix(n_x, n_y).matrix
    re, im = rng.standard_normal((n, proto.t)), rng.standard_normal((n, proto.t))
    u_ant = np.empty(np.shape(re), dtype=complex)
    np.multiply(np.sqrt(1.0 / n / 2.0), re, out=u_ant.real)
    np.multiply(np.sqrt(1.0 / n / 2.0), im, out=u_ant.imag)
    rho_wave = effective_rho(gamma, beta, n, proto.t)
    rho_digital = effective_rho(gamma, 1.0, n, proto.t)
    frame = np.conj(beta) / abs(beta) if beta != 0 else 1.0
    ax = np.exp(1j * (np.pi * source.psi_x) * np.arange(n_x))
    ay = np.exp(1j * (np.pi * source.psi_y) * np.arange(n_y))
    sv = np.outer(ay, ax).ravel()
    zeroth = proto.lattice(n_x, n_y).zeroth
    wave = scale_field(synthesize_received(np.asarray(g), zeroth, sv),
                       np.asarray(source.s, dtype=complex), rho_wave, frame * (f @ u_ant))
    digital = matvec_columns(f, scale_field(antenna_field(zeroth, sv), source.s, rho_digital,
                                            u_ant))
    maps = [np.abs(x) ** 2 for x in (wave, digital)]
    return [_former_estimate(m, proto, n_x, n_y) for m in maps], maps


@pytest.mark.parametrize("response", ["dft", "perturbed"])
def test_paired_trial_equals_its_former_one_map_path_bit_for_bit(response, monkeypatch):
    maps = []
    real = experiments.estimate_from_map

    def capture(emap, *args, **kwargs):
        maps.append(emap.values)
        return real(emap, *args, **kwargs)

    monkeypatch.setattr(experiments, "estimate_from_map", capture)
    if response == "dft":
        n_x, n_y, proto = 2, 2, ProtocolConfig(t_x=4, t_y=4)
        g, beta = dft_matrix(2, 2).matrix, 1.0
    else:  # beta * g is the DFT up to a small error, as after a fit
        n_x, n_y, proto = 3, 3, ProtocolConfig(t_x=2, t_y=2)
        gen = np.random.default_rng(48)
        beta = 1.3 - 0.4j  # numpy's conj(beta) / |beta| and Python's differ in the last bit
        g = (dft_matrix(3, 3).matrix + 0.05 * (gen.standard_normal((9, 9))
                                               + 1j * gen.standard_normal((9, 9)))) / beta
    sources = np.random.default_rng(49)
    rng, oracle_rng = np.random.default_rng(50), np.random.default_rng(50)
    for i in range(2000):
        src = sample_source(sources, ("parameter", "solid", "uniform-psi")[i % 3])
        gamma = 10.0 ** ((i % 7) * 0.5)
        maps.clear()
        got = paired_trial(g, beta, src, proto, n_x, n_y, gamma, rng)
        want, want_maps = former_paired_trial(g, beta, src, proto, n_x, n_y, gamma, oracle_rng)
        assert [_bits(e) for e in got] == [_bits(e) for e in want], i
        for m, w in zip(maps, want_maps, strict=True):
            assert np.array_equal(m.view(np.int64), w.view(np.int64)), i
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def former_sample_source(rng, mode, symbol):
    """``sample_source`` with its former symbol draw, ``complex(cn_noise(rng, ()))``."""
    if mode == "uniform-psi":
        psi_x = rng.uniform(-1.0, 1.0)
        psi_y = rng.uniform(-1.0, 1.0)
        radius = math.hypot(psi_x, psi_y)
        if radius <= 1.0:
            theta = math.asin(radius)
            phi = math.atan2(psi_y, psi_x) % (2.0 * math.pi)
        else:
            theta = phi = float("nan")
    else:
        phi = rng.uniform(0.0, 2.0 * math.pi)
        if mode == "parameter":
            theta = rng.uniform(0.0, math.pi / 2.0)
        else:
            theta = math.acos(rng.uniform(0.0, 1.0))
        psi_x = math.sin(theta) * math.cos(phi)
        psi_y = math.sin(theta) * math.sin(phi)
    if symbol == "cscg":
        s = complex(three_pass_cn_noise(rng, ()))
    else:
        s = complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    return SourceTruth(phi=phi, theta=theta, psi_x=psi_x, psi_y=psi_y, s=s)


@pytest.mark.parametrize("symbol", ["cscg", "phase"])
@pytest.mark.parametrize("mode", ["parameter", "solid", "uniform-psi"])
def test_sample_source_equals_its_former_symbol_draw_bit_for_bit(mode, symbol):
    rng, oracle_rng = np.random.default_rng(45), np.random.default_rng(45)
    for _ in range(2000):
        got = sample_source(rng, mode, symbol)
        assert type(got.s) is complex
        assert _bits(got) == _bits(former_sample_source(oracle_rng, mode, symbol))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert rng.standard_normal() == oracle_rng.standard_normal()


def test_two_pass_noise_keeps_wave_and_digital_energies_on_signed_zeros():
    # the three-pass complex_gaussian can turn a -0.0 part into +0.0; |.|^2 erases the sign
    parts = [(re, im) for re in (0.0, -0.0, 0.7, -0.7) for im in (0.0, -0.0, 0.3, -0.3)]
    re, im = (np.array([p[i] for p in parts] * 4).reshape(4, 4, 4) for i in (0, 1))
    proto = ProtocolConfig(t_x=2, t_y=2)
    lattice = proto.lattice(2, 2)
    sv = steering_for(lattice.psi_x[:, 1], lattice.psi_y[:, 1], 2, 2)
    s = cn_noise(np.random.default_rng(46), 4)
    g = np.random.default_rng(47).standard_normal((4, 4)) + 0j
    g[1] = g[3] = 0.0
    f = dft_matrix(2, 2).matrix
    flipped = False
    for variance, energies in (
            (1.0, lambda rho, noise: collect_snapshots(
                synthesize_received(g, lattice.zeroth, sv), s, rho, noise=noise).values),
            (1.0, lambda rho, noise: collect_snapshots(
                synthesize_received(f, lattice.zeroth, sv), s, rho, noise=noise).values),
            (0.25, lambda rho, noise: experiments._digital_energies(f, lattice, sv, s, rho,
                                                                    noise).values)):
        two = complex_gaussian(re, im, variance)
        three = three_pass_complex_gaussian(re, im, variance)
        flipped |= bool(np.any(np.signbit([two.real, two.imag])
                               != np.signbit([three.real, three.imag])))
        for rho in (0.0, 2.5):
            assert np.array_equal(energies(rho, two).view(np.int64),
                                  energies(rho, three).view(np.int64))
    assert flipped  # the draws do hold zeros whose sign the three passes change


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
    report, g, beta, _ = fit_reference(geom, TrainConfig(max_iters=200, seed=0, restarts=3))
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


@pytest.mark.parametrize("trials", [0, 2.5, True, np.True_, np.int64(0), "3"])
def test_mc_config_refuses_trials_that_are_not_a_positive_integer(trials):
    # True ran one trial and reported 'trials: True', 2.5 raised TypeError in range()
    with pytest.raises(ValueError, match="trials must be an integer >= 1"):
        McConfig(n_x=2, n_y=2, proto=ProtocolConfig(), snr_db=(0.0,), trials=trials,
                 pipeline="digital")


def test_mc_config_takes_numpy_integer_trials():
    cfg = McConfig(n_x=2, n_y=2, proto=ProtocolConfig(), snr_db=(0.0,), trials=np.int64(3),
                   pipeline="digital")
    assert run_monte_carlo(cfg)[0].trials == 3


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.True_, np.int64(-3), "7"])
def test_mc_config_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    # -1 once failed inside numpy without naming the field, 1.5 raised TypeError and True
    # ran as seed 1
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        McConfig(n_x=2, n_y=2, proto=ProtocolConfig(), snr_db=(0.0,), trials=5,
                 pipeline="digital", seed=seed)


def _trial_rng(seed, snr_index, trial):
    """A trial's stream as numpy derives it, the oracle for ``streams.trial_states``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(snr_index, trial)))


# seeds of 1, 2, 3, 4, 5 and 42 words, and a numpy integer of 2 words
_SEEDS = [0, 42, 2 ** 32 + 7, 2 ** 127 + 3, 2 ** 70 + 12345, 2 ** 128 + 5, 10 ** 400,
          np.uint64(2 ** 63 + 9)]
# indices on both sides of 2**32 and the last index that fits 64 bits
_INDICES = [0, 1, 3, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3, 2 ** 64 - 1]


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("snr_index", [0, 2, 2 ** 32 + 1])
def test_trial_states_follow_numpy_seed_sequence(seed, snr_index):
    states = streams.trial_states(streams.point_pool(seed, snr_index), _INDICES)
    rng = np.random.Generator(np.random.PCG64(0))
    for trial, state in zip(_INDICES, states):
        want = _trial_rng(seed, snr_index, trial)
        assert state == want.bit_generator.state
        rng.bit_generator.state = state
        assert np.array_equal(rng.standard_normal(5), want.standard_normal(5))
        assert rng.uniform() == want.uniform()
        assert rng.bit_generator.state == want.bit_generator.state  # same stream position


def test_trial_states_of_a_block_straddling_two_to_the_32():
    trials = range(2 ** 32 - 3, 2 ** 32 + 3)
    states = streams.trial_states(streams.point_pool(5, 1), trials)
    assert states == [_trial_rng(5, 1, t).bit_generator.state for t in trials]


def test_trial_states_refuse_an_index_beyond_64_bits():
    with pytest.raises(OverflowError):
        streams.trial_states(streams.point_pool(0, 0), [2 ** 64])


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
    assert len(calls) == 1  # one build covers all T snapshots
    # the cache lives on the instance: an equal but new protocol builds again
    run_monte_carlo(dataclasses.replace(cfg, proto=ProtocolConfig(t_x=2, t_y=3)))
    assert len(calls) == 2


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


def _mc_trial(cfg, snr_index, trial, rho):
    """One trial on its own, as ``run_monte_carlo`` ran it before blocks, as an oracle.

    Returns the squared errors, the per-trial bounds and whether the peak
    was realizable.
    """
    rng = _trial_rng(cfg.seed, snr_index, trial)
    if cfg.sources is not None:
        source = cfg.sources[trial % len(cfg.sources)]
    else:
        source = sample_source(rng, cfg.source_mode, cfg.symbol)
    noiseless = rho is None
    sv = steering_for(source.psi_x, source.psi_y, cfg.n_x, cfg.n_y)
    lattice = cfg.proto.lattice(cfg.n_x, cfg.n_y)
    if cfg.pipeline == "digital":
        g_for_bound = dft_matrix(cfg.n_x, cfg.n_y).matrix
        if noiseless:
            est = digital_baseline(g_for_bound, lattice, sv, source.s, 1.0)
        else:
            est = digital_baseline(g_for_bound, lattice, sv, source.s, rho,
                                   noise=_antenna_noise(rng, cfg.proto, cfg.n_x, cfg.n_y))
    else:
        field = synthesize_received(cfg.g, lattice.zeroth, sv)
        if noiseless:
            emap = collect_snapshots(field, source.s, 1.0)
        else:
            noise = cn_noise(rng, (np.asarray(cfg.g).shape[0], cfg.proto.t))
            emap = collect_snapshots(field, source.s, rho, noise=noise)
        est = estimate_from_map(emap, lattice, (0.5, 0.5))
        g_for_bound = cfg.g
    ex = wrapped_angle_error(source.psi_x, est.psi_x)
    ey = wrapped_angle_error(source.psi_y, est.psi_y)
    bx = by = float("nan")
    if cfg.with_bound and not noiseless:
        field = analysis.clean_field(g_for_bound, lattice, sv)[None]
        (bx,), (by,) = analysis.mse_bound(field, np.array([source.s]), rho, lattice,
                                          np.array([source.psi_x]), np.array([source.psi_y]))
    return ex * ex, ey * ey, bx, by, est.realizable


def _oracle_points(cfg):
    """``run_monte_carlo``'s points from one-trial calls and the pre-block aggregation."""
    points = []
    for si, snr in enumerate(cfg.snr_db):
        rho = None if math.isinf(snr) else effective_rho(
            10.0 ** (snr / 10.0), cfg.beta, cfg.n_x * cfg.n_y, cfg.proto.t)
        rows = [_mc_trial(cfg, si, ti, rho) for ti in range(cfg.trials)]
        ex2 = np.array([r[0] for r in rows])
        ey2 = np.array([r[1] for r in rows])
        per_trial = 0.5 * (ex2 + ey2)
        bounds = 0.5 * (np.array([r[2] for r in rows]) + np.array([r[3] for r in rows]))
        have_bound = not np.all(np.isnan(bounds))
        nan = float("nan")
        points.append(McPoint(
            snr_db=snr,
            mse_x=float(np.mean(ex2)),
            mse_y=float(np.mean(ey2)),
            mse=float(np.mean(per_trial)),
            se=float(np.std(per_trial) / np.sqrt(cfg.trials)),
            bound_x=float(np.nanmean([r[2] for r in rows])) if have_bound else nan,
            bound_y=float(np.nanmean([r[3] for r in rows])) if have_bound else nan,
            bound=float(np.nanmean(bounds)) if have_bound else nan,
            bound_se=float(np.nanstd(bounds) / np.sqrt(cfg.trials)) if have_bound else nan,
            trials=cfg.trials,
            low_trials=cfg.trials < 30,
            unrealizable=sum(not r[4] for r in rows),
        ))
    return points


def _same_points(got, want):
    """Field by field exact equality, NaN equal to NaN."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in dataclasses.fields(McPoint):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            assert va == vb or (math.isnan(va) and math.isnan(vb)), (f.name, va, vb)


@st.composite
def mc_configs(draw):
    n_x, n_y = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = n_x * n_y
    proto = ProtocolConfig(t_x=draw(st.integers(1, 4)), t_y=draw(st.integers(1, 4)))
    snrs = draw(st.lists(st.sampled_from([-5.0, 0.0, 7.5, 20.0, math.inf]),
                         min_size=1, max_size=3))
    pipeline = draw(st.sampled_from(["wave", "digital"]))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sources = None
    if draw(st.booleans()):
        angle = st.floats(-1.0, 1.0, exclude_max=True)
        sources = tuple(SourceTruth(0.0, 0.0, draw(angle), draw(angle),
                                    complex(draw(st.floats(0.1, 2.0)), draw(st.floats(-2.0, 2.0))))
                        for _ in range(draw(st.integers(1, 3))))
    return McConfig(
        n_x=n_x, n_y=n_y, proto=proto, snr_db=tuple(snrs), trials=draw(st.integers(1, 12)),
        g=g if pipeline == "wave" else None, beta=complex(rng.uniform(0.5, 2.0), 0.3),
        seed=seed, source_mode=draw(st.sampled_from(["parameter", "solid", "uniform-psi"])),
        symbol=draw(st.sampled_from(["cscg", "phase"])), sources=sources,
        pipeline=pipeline, with_bound=draw(st.booleans()))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=mc_configs(),
       block_cells=st.sampled_from([1, 2 ** 14, experiments._BLOCK_CELLS, 2 ** 40]))
def test_mc_blocks_match_one_trial_oracle(cfg, block_cells):
    # block_cells 1 runs one trial per block, 2**40 one block per point
    want = _oracle_points(cfg)
    with mock.patch.object(experiments, "_BLOCK_CELLS", block_cells):
        _same_points(run_monte_carlo(cfg), want)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=mc_configs(), block_cells=st.sampled_from([1, 2 ** 40]))
def test_mc_blocks_match_one_trial_oracle_in_a_pool(cfg, block_cells):
    want = _oracle_points(cfg)
    with mock.patch.object(experiments, "_BLOCK_CELLS", block_cells):
        _same_points(run_monte_carlo(dataclasses.replace(cfg, jobs=2)), want)


def test_mc_whole_point_block_matches_oracle_at_4x4(monkeypatch):
    # 128 trials of 1024 cells: large enough that numpy may reorder a loop
    cfg = McConfig(n_x=4, n_y=4, proto=ProtocolConfig(t_x=8, t_y=8), snr_db=(5.0,),
                   trials=128, g=dft_matrix(4, 4).matrix, seed=2)
    monkeypatch.setattr(experiments, "_BLOCK_CELLS", 2 ** 40)
    _same_points(run_monte_carlo(cfg), _oracle_points(cfg))


def test_mc_random_response_at_4x4_matches_oracle():
    # a block's one clean field serves its snapshots and its bound; inf has no bound
    rng = np.random.default_rng(9)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    cfg = McConfig(n_x=4, n_y=4, proto=ProtocolConfig(t_x=8, t_y=8),
                   snr_db=(-3.0, 12.0, math.inf), trials=40, g=g, beta=0.8 - 0.2j, seed=5)
    got = run_monte_carlo(cfg)
    _same_points(got, _oracle_points(cfg))
    assert not math.isnan(got[0].bound) and math.isnan(got[2].bound)


@pytest.mark.parametrize("pipeline", ["wave", "digital"])
def test_mc_raises_no_runtime_warning(pipeline):
    # the bound's transform divides by zero on tied cells and silences it there only
    rng = np.random.default_rng(10)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    on_lattice = (lattice_source(2, 3, 2, 2, ProtocolConfig(t_x=2, t_y=2)),)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sources in (None, on_lattice):
            cfg = McConfig(n_x=2, n_y=2, proto=ProtocolConfig(t_x=2, t_y=2),
                           snr_db=(-20.0, 0.0, 30.0, math.inf), trials=20,
                           g=g if pipeline == "wave" else None, sources=sources,
                           pipeline=pipeline, seed=3)
            points = run_monte_carlo(cfg)
            assert all(math.isfinite(p.bound) for p in points[:3])


def test_mc_block_size_follows_the_input_shape(monkeypatch):
    # 4x4 receivers and T=8x8 give _BLOCK_CELLS // 1024 trials per block; each point spans
    # two full blocks and a half one
    size = experiments._BLOCK_CELLS // 1024
    assert size >= 2
    calls = []
    real = experiments.collect_snapshots

    def counting(field, *args, **kwargs):
        calls.append(field.shape[0])
        return real(field, *args, **kwargs)

    monkeypatch.setattr(experiments, "collect_snapshots", counting)
    cfg = McConfig(n_x=4, n_y=4, proto=ProtocolConfig(t_x=8, t_y=8), snr_db=(10.0, 20.0),
                   trials=2 * size + size // 2, g=dft_matrix(4, 4).matrix, seed=1)
    run_monte_carlo(cfg)
    assert calls == [size, size, size // 2] * 2


@pytest.mark.parametrize("pipeline", ["wave", "digital"])
def test_mc_block_builds_one_steering_vector_for_its_snapshots_and_field(monkeypatch, pipeline):
    # a block's snapshots (or digital energies) and its bound read one steering vector and one
    # clean field; a digital block's energies and bound read one DFT matrix
    calls = {}

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.setdefault(name, []).append((args, result))
            return result

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((experiments, "steering_for"), (analysis, "clean_field"),
                         (experiments, "collect_snapshots"), (experiments, "_digital_energies"),
                         (analysis, "mse_bound")):
        spy(module, name)
    proto = ProtocolConfig(t_x=2, t_y=2)
    run_monte_carlo(McConfig(n_x=2, n_y=2, proto=proto, snr_db=(10.0,), trials=3,
                             g=dft_matrix(2, 2).matrix, seed=4, pipeline=pipeline))
    (_, sv), = calls["steering_for"]
    ((response, _, read), field), = calls["clean_field"]
    assert read is sv
    (bound_args, _), = calls["mse_bound"]
    assert bound_args[0] is field
    if pipeline == "wave":
        (snapshot_args, _), = calls["collect_snapshots"]
        assert snapshot_args[0] is field
        assert "_digital_energies" not in calls
    else:
        (energy_args, _), = calls["_digital_energies"]
        assert energy_args[0] is response and energy_args[2] is sv
        assert "collect_snapshots" not in calls


def test_in_place_writes_touch_only_arrays_they_made():
    # a block's snapshots, energies and bound write their large arrays in place; g, the steering,
    # the noise, the symbols and the clean field must keep every bit, and no result may share
    # their memory
    rng = np.random.default_rng(14)
    proto = ProtocolConfig(t_x=3, t_y=2)
    k, n = 5, 4
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = cn_noise(rng, k)
    psi_x, psi_y = rng.uniform(-1.0, 1.0, k), rng.uniform(-1.0, 1.0, k)
    lattice = proto.lattice(2, 2)
    sv = steering_for(psi_x, psi_y, 2, 2)
    field = analysis.clean_field(g, lattice, sv)
    noise = cn_noise(rng, (k, n, proto.t))
    inputs = [g, s, field, sv, noise, psi_x, psi_y, lattice.zeroth]
    before = [a.tobytes() for a in inputs]
    results = [scale_field(field, s, 2.5, noise), scale_field(field, s, 2.5),
               collect_snapshots(synthesize_received(g, lattice.zeroth, sv), s, 2.5,
                                 noise=noise).values,
               collect_snapshots(field, s, 2.5, noise=noise).values,
               collect_snapshots(field, s, 2.5).values,
               experiments._digital_energies(dft_matrix(2, 2).matrix, lattice, sv, s, 2.5,
                                             noise).values,
               *analysis.mse_bound(field, s, 2.5, lattice, psi_x, psi_y)]
    assert [a.tobytes() for a in inputs] == before
    for result in results:
        assert not any(np.shares_memory(result, a) for a in inputs)


def test_mc_counts_unrealizable_peaks():
    # the corner cell (-1, -1) of a 2x2 lattice lies outside the visible region
    proto = ProtocolConfig(t_x=2, t_y=2)
    corner = lattice_source(4, 1, 2, 2, proto)
    inside = lattice_source(1, 1, 2, 2, proto)
    assert (corner.psi_x, corner.psi_y) == (-1.0, -1.0)
    cfg = McConfig(n_x=2, n_y=2, proto=proto, snr_db=(math.inf,), trials=5,
                   g=dft_matrix(2, 2).matrix, sources=(corner, inside))
    assert run_monte_carlo(cfg)[0].unrealizable == 3


@pytest.mark.parametrize("rows", [2, 9])
def test_mc_config_refuses_receiver_grid_other_than_input_grid(rows):
    # a (2, 4) g once ran and reported an MSE through the wrong grid
    g = np.ones((rows, 4), dtype=complex)
    with pytest.raises(ValueError, match=rf"\({rows}, 4\).*\(2, 2\).*\(4, 4\)"):
        McConfig(n_x=2, n_y=2, proto=ProtocolConfig(t_x=2, t_y=2), snr_db=(10.0,),
                 trials=3, g=g, with_bound=False)


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
    cells = ablation_sweep(
        small_geom(), TrainConfig(max_iters=10),
        thickness_lam=(3.0,), layers=(1, 2), atoms=(1, 10, 25), spacing_lam=(0.5,),
        runs=2, seed=0,
    )
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
    # cells SimGeometry refuses are flagged with its message, not raised
    refused = ablation_sweep(
        small_geom(), TrainConfig(max_iters=10),
        thickness_lam=(0.0, 3.0), layers=(0,), atoms=(25,), spacing_lam=(0.5,), runs=2,
    )
    assert [c.note for c in refused] == ["thickness_lam must be positive and finite, got 0.0",
                                         "layers must be a positive integer, got 0"]
    for cell in refused:
        assert not cell.feasible
        assert cell.runs == 0
        assert math.isnan(cell.mean_db) and math.isnan(cell.min_db) and math.isnan(cell.max_db)


def test_ablation_notes_name_the_sweep_key_in_wavelengths():
    # notes once named the geometry field in meters ("thickness ... got -0.005"), s_x for
    # the spacing, and gave isqrt's own error for a negative atom count
    base = dict(thickness_lam=(3.0,), layers=(2,), atoms=(25,), spacing_lam=(0.5,))
    for override, note in ((dict(thickness_lam=(-1.0,)),
                            "thickness_lam must be positive and finite, got -1.0"),
                           (dict(spacing_lam=(-2.0,)),
                            "spacing_lam must be positive and finite, got -2.0"),
                           (dict(atoms=(-4,)), "atoms must be a positive square, got -4"),
                           (dict(atoms=(0,)), "atoms must be a positive square, got 0")):
        cell, = ablation_sweep(small_geom(), TrainConfig(max_iters=2), **{**base, **override})
        assert cell.note == note
        assert not cell.feasible and cell.runs == 0


def test_ablation_parallel_matches_serial():
    sweep = dict(thickness_lam=(3.0,), layers=(2,), atoms=(25,), spacing_lam=(0.5,),
                 runs=2, seed=1)
    serial = ablation_sweep(small_geom(), TrainConfig(max_iters=8), **sweep)
    parallel = ablation_sweep(small_geom(), TrainConfig(max_iters=8), **sweep, jobs=2)
    assert serial == parallel


def test_ablation_cell_fits_the_base_geometry_receiver():
    # the base geometry's receiver spacing and rotation are kept; a cell's
    # seeds come from its grid index, the flagged cell before it counted
    base = small_geom(u_x=0.7 * LAM, u_y=0.7 * LAM, rotation=0.4)
    cfg = TrainConfig(max_iters=10)
    flagged, cell = ablation_sweep(base, cfg, thickness_lam=(3.0,), layers=(2,),
                                   atoms=(1, 25), spacing_lam=(0.5,), runs=2, seed=5)
    assert not flagged.feasible and cell.feasible
    variant = dataclasses.replace(base, m_x=5, m_y=5, s_x=0.5 * LAM, s_y=0.5 * LAM,
                                  layers=2, thickness=3.0 * LAM)
    props = build_propagation_matrices(variant)
    f = dft_matrix(2, 2).matrix
    dbs = []
    for run in range(2):
        child = int(np.random.SeedSequence(5, spawn_key=(1, run)).generate_state(1)[0])
        dbs.append(train(props, f, dataclasses.replace(cfg, seed=child)).best_db)
    assert (cell.mean_db, cell.min_db, cell.max_db) == (
        float(np.mean(dbs)), float(np.min(dbs)), float(np.max(dbs)))
    assert cell.runs == 2


def test_receiver_study_parallel_matches_serial():
    geom = small_geom()
    cfg = TrainConfig(max_iters=8)
    study = dict(u_x=(geom.d_x, 2 * geom.d_x), rotation=(0.3,), layers=(1,), runs=2, seed=2)
    assert receiver_study(geom, cfg, **study) == receiver_study(geom, cfg, **study, jobs=2)


def test_receiver_study_refuses_an_overflowing_build_before_any_fit(monkeypatch):
    # the study once fitted every other variant before it refused the one it could not build
    fits = []
    real = experiments.train

    def counting(*args, **kwargs):
        fits.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "train", counting)
    with pytest.raises(ValueError, match="propagation coefficients beyond a float's range"):
        receiver_study(small_geom(), TrainConfig(max_iters=3), u_x=(1e300, 0.5), runs=1)
    assert fits == []


def test_sweeps_build_each_variant_once(monkeypatch):
    # the receiver study built each variant for its overflow check and again in its fit
    builds = []
    real = experiments.build_propagation_matrices

    def counting(geom):
        builds.append(geom)
        return real(geom)

    monkeypatch.setattr(experiments, "build_propagation_matrices", counting)
    geom, cfg = small_geom(), TrainConfig(max_iters=2)
    rows = receiver_study(geom, cfg, u_x=(geom.d_x, 2 * geom.d_x), rotation=(0.3,),
                          layers=(1,), runs=2)
    assert len(rows) == 4
    assert builds == [dataclasses.replace(geom, u_x=geom.d_x, u_y=geom.d_x),
                      dataclasses.replace(geom, u_x=2 * geom.d_x, u_y=2 * geom.d_x),
                      dataclasses.replace(geom, rotation=0.3), dataclasses.replace(geom, layers=1)]
    builds.clear()
    # the infeasible 1-atom cell is flagged without a build
    cells = ablation_sweep(geom, cfg, thickness_lam=(3.0,), layers=(1, 2), atoms=(1, 25),
                           spacing_lam=(0.5,), runs=2)
    assert [c.feasible for c in cells] == [False, True, False, True]
    assert [(b.layers, b.m) for b in builds] == [(1, 25), (2, 25)]


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
    report, g, beta, reports = fit_reference(geom, TrainConfig(max_iters=15, seed=0, restarts=3))
    # every restart's report, in seed order, and the best of them is the one returned
    assert [r.seed for r in reports] == [0, 1, 2]
    assert report is min(reports, key=lambda r: r.best_loss)
    assert g.shape == (4, 4)
    assert report.best_db <= 0.0
    assert beta != 0
    # the returned response really is the report stack's response
    props = build_propagation_matrices(geom)
    from simdoa.wavemodel import forward_response
    assert np.array_equal(g, forward_response(props, report.stack))
