"""Monte Carlo estimation studies, digital reference path, and fit sweeps."""

import cmath
import dataclasses
import itertools
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .estimator import (ProtocolConfig, _power_map, collect_snapshots, estimate_from_map,
                        wrapped_angle_error)
from .geometry import (_AT_LEAST_ONE, _NON_NEGATIVE, _POSITIVE, _record,
                       build_propagation_matrices, check_feasibility, check_fields, check_value,
                       dft_matrix, rules, steering_vector)
from .trainer import train, train_restarts
from .wavemodel import (_complex_normals, antenna_field, cn_noise, forward_response,
                        matvec_columns, scale_field, synthesize_received)


@dataclass(frozen=True)
class SourceTruth:
    """One realized emitter: its normalized electrical angles and its symbol."""

    psi_x: float
    psi_y: float
    s: complex


def effective_rho(gamma, beta, n, t):
    """Transmit SNR that realizes effective SNR ``gamma`` (linear).

    The effective-SNR axis is calibrated as gamma = rho * |beta|^2 * (N/T)^2.
    |beta|^2 undoes the stack's insertion loss (the fitted scale has
    |beta| >> 1 because the cascade attenuates), and the (N/T)^2 factor
    sets the axis so that the reference arrays reach their angular
    quantization floors around 10 dB and the T=4 -> T=16 curves sit about
    20 dB apart, the operating points the estimator is quoted at. The
    per-snapshot received peak-cell SNR implied by gamma is gamma * T^2.
    A gamma below 0 or NaN, or a rho that is not finite, raises a ValueError.
    """
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma!r}")
    try:  # a Python float's power raises OverflowError where numpy's would warn
        rho = gamma * float(abs(beta)) ** 2 * t ** 2 / n ** 2
    except OverflowError:
        rho = math.inf
    if math.isfinite(rho):
        return rho
    raise ValueError(f"gamma {gamma:g} and |beta| {abs(beta):g} give a rho beyond a float's range")


def snr_rho(snr_db, beta, n, t):
    """``effective_rho`` at ``snr_db`` dB; a rho that overflows raises a ValueError naming the SNR.

    rho carries the stack's |beta|^2, so the config check of the SNR alone cannot refuse it.
    """
    try:
        with np.errstate(over="ignore"):
            return effective_rho(10.0 ** (snr_db / 10.0), beta, n, t)
    except (OverflowError, ValueError):  # OverflowError: Python's own float power of the SNR
        pass
    raise ValueError(f"snr_db {snr_db:g} gives a transmit SNR rho that overflows a float")


# The direction and symbol distributions that sample_source draws, and McConfig's choices
SOURCE_MODES = PARAMETER, SOLID, UNIFORM_PSI = ("parameter", "solid", "uniform-psi")
SYMBOLS = CSCG, PHASE = ("cscg", "phase")
_SQRT_HALF = math.sqrt(0.5)


def sample_source(rng, mode=PARAMETER, symbol=CSCG):
    """Draw one SourceTruth.

    ``mode`` picks the direction distribution: "parameter" draws azimuth
    and elevation uniformly (the documented default), "solid" draws
    uniformly over the hemisphere's solid angle, and "uniform-psi" draws
    the normalized electrical angles directly as independent Uniform[-1, 1)
    (a lattice-test mode; the draw may fall outside the visible region).
    Electrical angles assume half-wavelength receive spacing. ``symbol`` is
    "cscg" for a unit-variance complex Gaussian or "phase" for unit modulus.
    Any other ``mode`` or ``symbol`` raises McConfig's ValueError for it.
    """
    if mode == UNIFORM_PSI:
        psi_x, psi_y = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    else:
        # uniform(0.0, high) is 0.0 + high * random(), FMA-fused or not: high * random()
        phi = 2.0 * math.pi * rng.random()
        if mode == PARAMETER:
            theta = math.pi / 2.0 * rng.random()
        elif mode == SOLID:
            theta = math.acos(rng.random())
        else:
            check_value("source_mode", mode, SOURCE_MODES)  # which refuses it
        sin_theta = math.sin(theta)
        psi_x, psi_y = sin_theta * math.cos(phi), sin_theta * math.sin(phi)
    if symbol == CSCG:  # _complex_normals' draws and scaling of one sample, on Python floats
        s = complex(_SQRT_HALF * rng.standard_normal(), _SQRT_HALF * rng.standard_normal())
    elif symbol == PHASE:
        s = complex(np.exp(1j * (2.0 * math.pi * rng.random())))
    else:
        check_value("symbol", symbol, SYMBOLS)  # which refuses it
    return _record(SourceTruth, {"psi_x": psi_x, "psi_y": psi_y, "s": s})


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo study: an estimator pipeline against an SNR grid.

    ``g``/``beta`` hold the trained response and its fitted scale;
    ``pipeline`` is "wave" for the stack-based path or "digital" for the
    reference that applies the DFT numerically (g/beta unused). Entries of
    ``snr_db`` are effective SNRs; ``inf`` runs the noise-free limit.
    ``sources`` pins a fixed truth list (cycled in order) instead of
    random draws.
    """

    n_x: int = rules(int, _AT_LEAST_ONE)
    n_y: int = rules(int, _AT_LEAST_ONE)
    proto: ProtocolConfig
    snr_db: tuple = rules([float], (lambda v: v == math.inf or math.isfinite(v),
                                    "must be finite or +inf"))
    trials: int = rules(int, _AT_LEAST_ONE)
    g: np.ndarray = None
    beta: complex = 1.0
    seed: int = rules(int, _NON_NEGATIVE, default=0)
    source_mode: str = rules(SOURCE_MODES, default=PARAMETER)
    symbol: str = rules(SYMBOLS, default=CSCG)
    sources: tuple = None
    pipeline: str = rules(("wave", "digital"), default="wave")
    with_bound: bool = rules(bool, default=True)
    jobs: int = rules(int, _AT_LEAST_ONE, default=1)

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.proto, ProtocolConfig):
            raise ValueError(f"proto must be a ProtocolConfig, got {self.proto!r}")
        if self.sources is not None and not (
                isinstance(self.sources, Sequence) and self.sources
                and all(isinstance(source, SourceTruth) for source in self.sources)):
            raise ValueError(f"sources must be None or a nonempty sequence of SourceTruth,"
                             f" got {self.sources!r}")
        if self.pipeline == "wave" and self.g is None:
            raise ValueError("wave pipeline needs a response matrix g")
        if not (isinstance(self.beta, numbers.Number) and cmath.isfinite(self.beta)):
            raise ValueError(f"beta must be a finite number, got {self.beta!r}")
        n = self.n_x * self.n_y
        if self.g is not None and np.shape(self.g) != (n, n):
            # the estimator and the bound read receiver n as input cell n
            raise ValueError(f"g has shape {np.shape(self.g)} but the ({self.n_x}, {self.n_y})"
                             f" input grid needs ({n}, {n})")


@dataclass(frozen=True)
class McPoint:
    """Aggregates for one SNR grid point; ``unrealizable`` counts peaks off the visible region."""

    snr_db: float
    mse_x: float
    mse_y: float
    mse: float
    se: float
    bound_x: float
    bound_y: float
    bound: float
    bound_se: float
    trials: int
    low_trials: bool
    unrealizable: int


def _map(fn, tasks, jobs):
    """``[fn(*task) for task in tasks]``, mapped by a pool of ``jobs`` processes if ``jobs > 1``."""
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # -j 1 runs never load it
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, *zip(*tasks)))
    return [fn(*task) for task in tasks]


# Cells per Monte Carlo block of max(1, _BLOCK_CELLS // (R*T)) trials: at 4x4/T=8x8 a block
# costs about 0.8 ms however few trials it holds plus about 160 us a trial, so it holds 64.
_BLOCK_CELLS = 2 ** 16


def digital_baseline(f, lattice, sv, s, rho, noise=None):
    """Estimate via element-space sampling plus a numeric DFT.

    The array observes x_t = sqrt(rho) * Upsilon_t a s + u directly over
    the snapshot lattice ``lattice``, the exact DFT matrix ``f`` of its
    input grid is applied digitally, and the same peak search and angle
    recovery run on the resulting energies. Antenna noise has
    variance 1/N per element so the post-DFT noise is unit variance,
    making rho directly comparable with the wave path's effective SNR
    axis. ``sv`` is the source's steering vector on the input grid and
    ``s`` its symbol. ``noise`` holds the (N, T) antenna noise draws, or is
    None for the clean field.
    """
    emap = _digital_energies(f, lattice, sv, s, rho, noise)
    return estimate_from_map(emap, lattice)


@np.errstate(over="ignore", invalid="ignore")  # energies beyond range: EnergyMap refuses
def _digital_energies(f, lattice, sv, s, rho, noise=None):
    """Energies |F (sqrt(rho) Upsilon a s + u)|^2 on the lattice as an EnergyMap, (N, T).

    K trials take (K, N) steering entries, K symbols and (K, N, T) noise
    and give (K, N, T), slice k equal to trial k's own call bit for bit.
    """
    field = scale_field(antenna_field(lattice.zeroth, sv), s, rho, noise)
    return _power_map(matvec_columns(f, field))


# a field beyond range, such as G Y_0 a for a finite G of 1e308 entries, warns in matmul; the
# energy functions' own errstates do not cover synthesize_received: EnergyMap refuses it
@np.errstate(over="ignore", invalid="ignore")
def paired_trial(g, beta, source, proto, n_x, n_y, gamma, rng):
    """Wave and digital estimates on one shared noise realization.

    The antenna noise drawn for the digital path is passed through the
    DFT to serve as the wave path's receive noise, so with g exactly
    equal to the DFT matrix the two paths process identical numbers.
    With a fitted stack the wave signal carries the global phase -arg(beta)
    relative to beta*g = F, so the shared noise is rotated into that frame;
    otherwise the signal-noise cross term would differ between branches
    even for a perfect fit, which is an artifact of the pairing and not a
    property of either estimator. Returns (wave_estimate, digital_estimate).
    """
    n, t = n_x * n_y, proto.t
    f = dft_matrix(n_x, n_y).matrix
    lattice = proto.lattice(n_x, n_y)
    u_ant = cn_noise(rng, (n, t), variance=1.0 / n)
    rho_wave = effective_rho(gamma, beta, n, t)
    rho_digital = effective_rho(gamma, 1.0, n, t)
    # a complex beta keeps numpy's division, which Python's does not round alike
    frame = (np.conj(beta) if isinstance(beta, complex) else beta) / abs(beta) if beta != 0 else 1.0
    if not math.isfinite(abs(frame)):  # a subnormal complex beta's division overflows
        raise ValueError(f"beta {beta} gives a noise frame conj(beta) / |beta| that is not finite")
    sv = steering_vector(source.psi_x, source.psi_y, n_x, n_y)  # both paths read this vector
    field = synthesize_received(g, lattice.zeroth, sv)
    noise = f @ u_ant
    if frame != 1.0:  # a unit frame leaves the finite noise as it is
        noise = frame * noise  # not in place: numpy's complex scalar rounds otherwise
    wave = estimate_from_map(collect_snapshots(field, source.s, rho_wave, noise=noise), lattice)
    digital = digital_baseline(f, lattice, sv, source.s, rho_digital, noise=u_ant)
    return wave, digital


def _mc_block(cfg, stream, trials, snr, rho):
    """Per-trial squared errors, bounds and realizable flags of ``trials`` at SNR point ``snr``.

    Each trial draws from its own stream in a fixed order (source, then
    noise), its normals straight into the block's (K, 2, R, T) buffer. The
    streams continue the point's ``stream`` (``streams.point_pool``): their
    states come from ``streams.trial_states`` and are assigned in turn to
    one generator. A wave block then synthesizes its unit field G Y_0 a once
    (``analysis.clean_field``), scales it into the snapshots and reuses the
    field for the bound; a digital block computes its energies with the
    antenna noise at variance 1/N, as ``digital_baseline`` does for one
    trial. Either runs one batched peak search. ``rho`` is the point's
    ``snr_rho``, or None at a noiseless point, ``snr`` inf, which has no bound.
    """
    noiseless = rho is None
    run_rho = 1.0 if noiseless else rho  # noiseless: unit SNR
    n = cfg.n_x * cfg.n_y
    wave = cfg.pipeline == "wave"
    # each trial's real and imaginary normals, drawn in cn_noise's order by one call
    draws = None if noiseless else np.empty((len(trials), 2, n, cfg.proto.t))
    from . import analysis  # only 'bound' and 'montecarlo' load it
    from .streams import trial_states  # only a Monte Carlo run loads it
    psi_x, psi_y, s = np.empty(len(trials)), np.empty(len(trials)), np.empty(len(trials), complex)
    rng = np.random.Generator(np.random.PCG64(0))
    for i, (trial, state) in enumerate(zip(trials, trial_states(stream, trials))):
        rng.bit_generator.state = state
        source = (sample_source(rng, cfg.source_mode, cfg.symbol) if cfg.sources is None
                  else cfg.sources[trial % len(cfg.sources)])
        psi_x[i], psi_y[i], s[i] = source.psi_x, source.psi_y, source.s
        if draws is not None:
            rng.standard_normal(out=draws[i])
    sv = steering_vector(psi_x, psi_y, cfg.n_x, cfg.n_y)
    lattice = cfg.proto.lattice(cfg.n_x, cfg.n_y)
    noise = None if draws is None else _complex_normals(draws[:, 0], draws[:, 1],
                                                        1.0 if wave else 1.0 / n)
    # the noise replaces its draws, so the bound below runs with one buffer less: without this del
    # and the one below, bench/ mc-bound-4x4 read 0.80x ops_per_s, +2.2 MB peak RSS (0/10, 2 cores)
    del draws
    try:  # energies beyond a float's range: EnergyMap refuses them, with no RuntimeWarning
        with np.errstate(over="ignore", invalid="ignore"):
            if wave:
                field = analysis.clean_field(cfg.g, lattice, sv)
                emap = collect_snapshots(field, s, run_rho, noise)
            else:
                f = dft_matrix(cfg.n_x, cfg.n_y).matrix  # the bound below reads it too
                emap = _digital_energies(f, lattice, sv, s, run_rho, noise)
    except ValueError as exc:
        raise ValueError(f"snr_db {snr:g}: {exc}") from None
    est = estimate_from_map(emap, lattice)
    del noise, emap  # nor does the bound need the snapshots' noise and energies
    ex = wrapped_angle_error(psi_x, est.psi_x)
    ey = wrapped_angle_error(psi_y, est.psi_y)
    bx = by = np.full(len(trials), np.nan)
    if cfg.with_bound and not noiseless:
        if not wave:  # the digital path's response is the DFT itself
            field = analysis.clean_field(f, lattice, sv)
        bx, by = analysis.mse_bound(field, s, run_rho, lattice, psi_x, psi_y)
    return ex * ex, ey * ey, bx, by, ~(np.isnan(est.phi) | np.isnan(est.theta))


def run_monte_carlo(cfg):
    """Empirical MSE and averaged per-trial bound on each SNR grid point.

    Every (SNR point, trial) pair owns an RNG stream spawned from
    (cfg.seed, point index, trial index), so results are independent of
    execution order and of how trials are distributed over workers. Each
    point's trials run in blocks of max(1, _BLOCK_CELLS // (R*T)), 64 at
    4x4/T=8x8, which spreads a block's fixed 0.8 ms over trials of 160 us.
    A wave block synthesizes one clean field G Y_0 a for all its trials,
    scales it into the snapshots with the block's noise, runs one peak
    search over the (K, R, T) energies and evaluates the bound on the same
    field; every trial's result equals its one-trial run bit for bit. With
    ``jobs > 1`` the process pool maps blocks, so serial and parallel runs
    share one kernel and give identical results.
    """
    # built here so worker processes receive it with the pickled config
    cfg.proto.lattice(cfg.n_x, cfg.n_y)
    n, beta = cfg.n_x * cfg.n_y, cfg.beta if cfg.pipeline == "wave" else 1.0  # digital: no stack
    size = max(1, _BLOCK_CELLS // (n * cfg.proto.t))
    starts = range(0, cfg.trials, size)
    rhos = [None if math.isinf(snr) else snr_rho(snr, beta, n, cfg.proto.t)
            for snr in cfg.snr_db]
    from .streams import point_pool  # only a Monte Carlo run loads it
    streams = [point_pool(cfg.seed, si) for si in range(len(rhos))]
    blocks = [(cfg, stream, range(start, min(start + size, cfg.trials)), snr, rho)
              for stream, snr, rho in zip(streams, cfg.snr_db, rhos) for start in starts]
    rows = _map(_mc_block, blocks, cfg.jobs)
    points = []
    for si, snr in enumerate(cfg.snr_db):
        point_rows = rows[si * len(starts):(si + 1) * len(starts)]
        ex2, ey2, bx, by, realizable = (np.concatenate(col) for col in zip(*point_rows))
        per_trial = 0.5 * (ex2 + ey2)
        bounds = 0.5 * (bx + by)
        if cfg.with_bound and rhos[si] is not None and not np.all(np.isfinite(bounds)):
            raise ValueError(f"snr_db {snr:g} gives an MSE bound beyond a float's range")
        points.append(McPoint(
            snr_db=snr,
            mse_x=float(np.mean(ex2)),
            mse_y=float(np.mean(ey2)),
            mse=float(np.mean(per_trial)),
            se=float(np.std(per_trial) / np.sqrt(cfg.trials)),
            bound_x=float(np.mean(bx)),
            bound_y=float(np.mean(by)),
            bound=float(np.mean(bounds)),
            bound_se=float(np.std(bounds) / np.sqrt(cfg.trials)),
            trials=cfg.trials,
            low_trials=cfg.trials < 30,
            unrealizable=int(np.count_nonzero(~realizable)),
        ))
    return points


@dataclass(frozen=True)
class SweepCell:
    thickness_lam: float
    layers: int
    atoms: int
    spacing_lam: float
    feasible: bool
    note: str
    mean_db: float
    min_db: float
    max_db: float
    runs: int


def _fit_runs(props, train_cfg, seed, index, runs):
    """(mean, min, max best dB, runs) of ``runs`` one-restart fits of the built ``props``.

    Run r is seeded by (seed, index, r).
    """
    f = dft_matrix(props.geometry.n_x, props.geometry.n_y).matrix
    dbs = []
    for run in range(runs):
        child = int(np.random.SeedSequence(seed, spawn_key=(index, run)).generate_state(1)[0])
        dbs.append(train(props, f, dataclasses.replace(train_cfg, seed=child, restarts=1)).best_db)
    return float(np.mean(dbs)), float(np.min(dbs)), float(np.max(dbs)), runs


def _fit_variants(variants, train_cfg, runs, seed, jobs):
    """Each variant's ``_fit_runs`` result; a variant given as a note flags its cell.

    A variant is its built propagation matrices. Variant i is fitted by
    ``_fit_runs`` at index i, flagged cells counted, so its seeds do not
    depend on the other cells or on ``jobs``; with ``jobs > 1`` the process
    pool maps the variants that are fitted. A flagged cell's result is its
    note.
    """
    todo = [(props, train_cfg, seed, index, runs)
            for index, props in enumerate(variants) if not isinstance(props, str)]
    fits = iter(_map(_fit_runs, todo, jobs))
    return [props if isinstance(props, str) else next(fits) for props in variants]


def ablation_variant(geom, thickness, layers, atoms, spacing):
    """``geom`` given one ablation cell's stack, or the note that flags the cell unfitted.

    The cell sets the total thickness, the layer count, a square grid of ``atoms`` meta-atoms
    and their spacing, lengths in wavelengths; it is flagged if invalid or if M < N.
    """
    try:
        # checked here, so that a note names the sweep key and its value in wavelengths
        for key, value in (("thickness_lam", thickness), ("spacing_lam", spacing)):
            check_value(key, value, float, (_POSITIVE,))
        side = math.isqrt(max(atoms, 0))
        if side < 1 or side * side != atoms:
            raise ValueError(f"atoms must be a positive square, got {atoms}")
        lam = geom.wavelength
        variant = dataclasses.replace(geom, m_x=side, m_y=side, s_x=spacing * lam,
                                      s_y=spacing * lam, layers=layers, thickness=thickness * lam)
    except ValueError as exc:
        return str(exc)
    return check_feasibility(variant) or variant


def ablation_sweep(geom, train_cfg, thickness_lam, layers, atoms, spacing_lam, runs=3, seed=0,
                   jobs=1):
    """Fit quality over a grid of stack variants of ``geom``; one row per cell.

    Each cell is an ``ablation_variant`` of ``geom``, the receiver's fields kept. The cells it
    flags, and those whose propagation matrices leave a float's range, come back flagged
    with the reason instead of being dropped, so the table always has the full grid shape.
    """
    cells = list(itertools.product(thickness_lam, layers, atoms, spacing_lam))
    variants = []  # each cell's propagation matrices, or the note that flags it
    for cell in cells:
        variant = ablation_variant(geom, *cell)
        try:  # matrices beyond a float's range flag the cell too
            variants.append(variant if isinstance(variant, str)
                            else build_propagation_matrices(variant))
        except ValueError as exc:
            variants.append(str(exc))
    return [SweepCell(*cell, False, fit, math.nan, math.nan, math.nan, 0) if isinstance(fit, str)
            else SweepCell(*cell, True, "", *fit)
            for cell, fit in zip(cells, _fit_variants(variants, train_cfg, runs, seed, jobs))]


@dataclass(frozen=True)
class ReceiverCell:
    parameter: str
    value: float
    mean_db: float
    min_db: float
    max_db: float
    runs: int


def receiver_study(geom, train_cfg, u_x=(), rotation=(), layers=(), runs=3, seed=0, jobs=1):
    """Refit while varying one receiver/stack parameter at a time.

    Sweeps receive spacing ``u_x`` (both axes together, in meters),
    receiver ``rotation`` (radians), and layer count (thickness held
    fixed, so the per-gap distance rescales). Returns one row per
    (parameter, value) with mean/min/max dB over ``runs`` seeds; ``jobs``
    worker processes fit the rows. The table has no notes, so a propagation
    build that leaves a float's range raises its ValueError before any fit.
    """
    points = [("u_x", v, dataclasses.replace(geom, u_x=v, u_y=v)) for v in u_x]
    points += [("rotation", v, dataclasses.replace(geom, rotation=v)) for v in rotation]
    points += [("layers", v, dataclasses.replace(geom, layers=v)) for v in layers]
    variants = [build_propagation_matrices(variant) for _, _, variant in points]
    fits = _fit_variants(variants, train_cfg, runs, seed, jobs)
    return [ReceiverCell(name, float(value), *fit)
            for (name, value, _), fit in zip(points, fits)]


def fit_reference(geom, train_cfg):
    """Fit with restarts; returns (best report, its response, its scale, every report).

    The report's stack is the best iterate over the best-scoring seed, so
    the returned response and scale are exactly the artifact an estimation
    study should run against. Every restart's report follows, in seed order.
    """
    props = build_propagation_matrices(geom)
    f = dft_matrix(geom.n_x, geom.n_y).matrix
    reports = train_restarts(props, f, train_cfg)
    best = min(reports, key=lambda r: r.best_loss)
    return best, forward_response(props, best.stack), best.beta, reports
