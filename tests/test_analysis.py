import math
import re
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
from scipy.special import erfc

from simdoa import analysis
from simdoa.analysis import (
    _ERFC_ZERO,
    _wilson_hilferty,
    DegenerateField,
    clean_field,
    mse_bound,
    quantization_floor,
)
from simdoa.estimator import (EnergyMap, ProtocolConfig, collect_snapshots, electrical_angles,
                              peak_cells, peak_index, steering_for)
from simdoa.experiments import effective_rho
from simdoa.geometry import dft_matrix
from simdoa.wavemodel import synthesize_received


# Scalar twins of the vectorized bound, kept here as oracles: the Gaussian
# tail, per-cell moments, the single-cell detection bound, the noncentrality
# map and the noiseless peak.

def q_function(x):
    """Standard Gaussian tail probability P(Z > x). Accepts arrays."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


@dataclass(frozen=True)
class MomentTriple:
    """First three moments of the energy-difference statistic at one cell."""

    mu1: float
    mu2: float
    mu3: float

    @property
    def h(self):
        if self.mu3 == 0.0:
            raise ValueError("h is undefined when mu3 = 0")
        return self.mu2 ** 3 / self.mu3 ** 2

    @property
    def b(self):
        h = self.h
        return h - self.mu1 * np.sqrt(h / self.mu2)


class Trial(NamedTuple):
    """One realized trial, or K trials with length-K angles and symbols, as the oracles read it."""

    g: np.ndarray
    proto: ProtocolConfig
    n_x: int
    n_y: int
    psi_x: float
    psi_y: float
    rho: float
    s: complex


def _lattice(inp):
    return inp.proto.lattice(inp.n_x, inp.n_y)


def _field(inp):
    """``clean_field`` of the trial's response, lattice and true direction."""
    return clean_field(inp.g, _lattice(inp), steering_for(inp.psi_x, inp.psi_y, inp.n_x, inp.n_y))


def _bound(inp):
    """``mse_bound`` of the trials on their own clean field; one scalar trial gives two floats.

    ``mse_bound`` takes trial arrays only, so a scalar trial runs as a trial
    axis of one, as ``simdoa bound`` runs it.
    """
    if np.ndim(inp.psi_x):
        return mse_bound(_field(inp), inp.s, inp.rho, _lattice(inp), inp.psi_x, inp.psi_y)
    (bx,), (by,) = mse_bound(_field(inp)[None], np.array([inp.s]), inp.rho, _lattice(inp),
                             np.array([inp.psi_x]), np.array([inp.psi_y]))
    return float(bx), float(by)


def _clean_power(inp):
    """|field * s|^2 per cell: (R, T), or (K, R, T) for K trials."""
    return np.abs(_field(inp) * np.asarray(inp.s)[..., None, None]) ** 2


def noncentrality_map(inp):
    """Noncentrality delta^2 = 2*rho*|field*s|^2 for every (n, t) cell (and trial)."""
    return 2.0 * inp.rho * _clean_power(inp)


def peak_index_noiseless(inp):
    """1-based (n, t) of one trial's strongest noiseless cell, estimator tie rule."""
    power = _clean_power(inp)
    if not np.any(power > 0.0):
        raise DegenerateField("noiseless field is identically zero")
    return peak_index(EnergyMap(power))


def moments(delta_nt, delta_peak):
    """Moments of the peak-vs-cell energy difference distribution, term by term as written."""
    if delta_nt < 0.0 or delta_peak < 0.0:
        raise ValueError("noncentralities must be >= 0")
    out = []
    for i in (1, 2, 3):
        out.append((-1.0) ** i * (2.0 + i * delta_peak) + 2.0 + i * delta_nt)
    return MomentTriple(*out)


def _cube_root_z(nu1, nu2, nu3):
    """The centered, scaled cube-root coordinate z of the transform, expression by expression."""
    h = nu2 ** 3 / nu3 ** 2
    ratio = 1.0 - nu1 / np.sqrt(h * nu2)
    return (np.cbrt(ratio) - 1.0 + 2.0 / (9.0 * h)) * np.sqrt(9.0 * h / 2.0)


def _masked_wilson_hilferty(nu1, nu2, nu3):
    """The transform on the nu3 != 0 cells only, scattered into an array of 1/2.

    ``q_function`` evaluates erfc on every one of those cells.
    """
    nu1 = np.asarray(nu1, dtype=float)
    nu2 = np.asarray(nu2, dtype=float)
    nu3 = np.asarray(nu3, dtype=float)
    probs = np.full(nu1.shape, 0.5)
    live = nu3 != 0.0
    z = _cube_root_z(nu1[live], nu2[live], nu3[live])
    probs[live] = np.clip(q_function(-z), 0.0, 1.0)
    return probs


def _erfc_argument(nu1, nu2, nu3):
    """The argument -z/sqrt(2) that the transform hands to erfc."""
    return -_cube_root_z(nu1, nu2, nu3) / np.sqrt(2.0)


def _moments_from(delta, d_peak):
    """Sign-adjusted moments (nu1, nu2, nu3) of cells with noncentralities ``delta``."""
    nu1 = d_peak - delta
    return nu1, 4.0 + 2.0 * (delta + d_peak), 3.0 * nu1


def _deltas_across_the_cutoff(d_peak):
    """Eight adjacent floats delta whose cells put erfc's argument on either side of _ERFC_ZERO.

    The argument falls as delta grows, so a bisection on the bit patterns of
    delta in [0, d_peak/2] finds the last float whose argument reaches the cutoff.
    """
    def beyond(bits):
        delta = np.array([np.int64(bits).view(np.float64)])
        return _erfc_argument(*_moments_from(delta, d_peak))[0] >= _ERFC_ZERO

    lo, hi = int(np.float64(0.0).view(np.int64)), int(np.float64(d_peak / 2.0).view(np.int64))
    assert beyond(lo) and not beyond(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if beyond(mid) else (lo, mid)
    return np.arange(hi - 4, hi + 4).view(np.float64)


def detection_prob_bound(mt, peak_cell=False):
    """Upper bound on the chance this cell outscores the true peak (1 for the peak itself)."""
    if peak_cell:
        return 1.0
    if mt.mu3 == 0.0:
        return 0.5 if mt.mu1 == 0.0 else 1.0
    return float(_wilson_hilferty(np.array([-mt.mu1]), np.array([mt.mu2]),
                                  np.array([-mt.mu3]))[0])


def noncentrality(inp, n, t):
    """Single-cell noncentrality parameter (1-based antenna and snapshot)."""
    return float(noncentrality_map(inp)[n - 1, t - 1])


def make_inputs(psi_x, psi_y, rho=1.0, s=1.0 + 0j, proto=None):
    proto = proto or ProtocolConfig(t_x=4, t_y=4)
    return Trial(g=dft_matrix(2, 2).matrix, proto=proto, n_x=2, n_y=2,
                 psi_x=psi_x, psi_y=psi_y, rho=rho, s=s)


# ------------------------------------------------------------------ q function

def test_q_function_basics():
    assert q_function(0.0) == pytest.approx(0.5)
    assert q_function(1.96) == pytest.approx(0.0250, abs=1e-4)
    xs = np.linspace(-3, 3, 13)
    assert np.allclose(q_function(xs) + q_function(-xs), 1.0, atol=1e-15)
    assert np.all(np.diff(q_function(xs)) < 0.0)


# ---------------------------------------------------------------- field models

def test_bound_inputs_validation():
    # g not a matrix, g with the wrong column count, rho < 0
    f = dft_matrix(2, 2).matrix
    lattice = ProtocolConfig().lattice(2, 2)
    sv = steering_for(0.0, 0.0, 2, 2)
    with pytest.raises(ValueError, match="g must be a matrix"):
        clean_field(f[0], lattice, sv)
    with pytest.raises(ValueError, match=r"shape \(4, 3\).*needs \(4, 4\)"):
        clean_field(f[:, :3], lattice, sv)
    with pytest.raises(ValueError, match="rho must be >= 0"):
        mse_bound(clean_field(f, lattice, sv), 1.0 + 0j, -1.0, lattice, 0.0, 0.0)


def test_noncentrality_zero_without_signal():
    inp = make_inputs(0.37, -0.5, rho=0.0)
    assert np.all(noncentrality_map(inp) == 0.0)


def test_noncentrality_on_lattice_single_snapshot():
    # with T=1 and an on-bin source every antenna except the matched one is dark
    proto = ProtocolConfig()
    psi = electrical_angles(2, 1, 2, 2, proto)
    rho = 1.7
    s = 0.6 - 0.8j
    inp = make_inputs(psi[0], psi[1], rho=rho, s=s, proto=proto)
    delta = noncentrality_map(inp)
    assert delta.shape == (4, 1)
    assert delta[1, 0] == pytest.approx(2.0 * rho * 16.0 * abs(s) ** 2, rel=1e-12)
    dark = np.delete(delta[:, 0], 1)
    assert np.max(dark) < 1e-25


def test_noncentrality_matches_collected_energies():
    # delta = 2 * measured clean power, whatever the source direction
    proto = ProtocolConfig(t_x=2, t_y=4)
    f = dft_matrix(2, 2).matrix
    rho = 2.3
    s = 0.9 + 0.1j
    sv = steering_for(0.41, -0.77, 2, 2)
    emap = collect_snapshots(synthesize_received(f, proto.lattice(2, 2).zeroth, sv), s, rho)
    inp = make_inputs(0.41, -0.77, rho=rho, s=s, proto=proto)
    assert np.allclose(noncentrality_map(inp), 2.0 * emap.values, rtol=1e-10)
    assert noncentrality(inp, 3, 5) == pytest.approx(2.0 * emap.values[2, 4], rel=1e-10)


def test_clean_field_is_the_clean_snapshot_exactly():
    # one schedule (the protocol's lattice) feeds both the estimator and the bound
    proto = ProtocolConfig(t_x=3, t_y=2)
    rng = np.random.default_rng(2)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    inp = Trial(g=g, proto=proto, n_x=3, n_y=2, psi_x=0.27, psi_y=-0.64,
                rho=1.0, s=1.0 + 0j)
    field = synthesize_received(g, proto.lattice(3, 2).zeroth, steering_for(0.27, -0.64, 3, 2))
    emap = collect_snapshots(field, 1.0 + 0j, 1.0)
    assert np.array_equal(np.abs(_field(inp)) ** 2, emap.values)


def test_noiseless_peak_matches_estimator():
    proto = ProtocolConfig(t_x=4, t_y=4)
    f = dft_matrix(2, 2).matrix
    sv = steering_for(0.33, 0.52, 2, 2)
    emap = collect_snapshots(synthesize_received(f, proto.lattice(2, 2).zeroth, sv), 1.0 + 0j, 1.0)
    from simdoa.estimator import peak_index
    inp = make_inputs(0.33, 0.52, proto=proto)
    assert peak_index_noiseless(inp) == peak_index(emap)


def test_noiseless_peak_ignores_symbol_scale():
    inp_a = make_inputs(0.2, -0.6, s=1.0 + 0j)
    inp_b = make_inputs(0.2, -0.6, s=5.0j)
    assert peak_index_noiseless(inp_a) == peak_index_noiseless(inp_b)


def test_degenerate_field_raises():
    inp = Trial(g=np.zeros((4, 4)), proto=ProtocolConfig(), n_x=2, n_y=2,
                psi_x=0.1, psi_y=0.1, rho=1.0, s=1.0 + 0j)
    with pytest.raises(DegenerateField):
        peak_index_noiseless(inp)


# --------------------------------------------------------------------- moments

def test_moments_equal_noncentralities_cancel():
    for d in (0.0, 1.0, 7.5):
        mt = moments(d, d)
        assert mt.mu1 == 0.0
        assert mt.mu2 == pytest.approx(4.0 + 4.0 * d)
        assert mt.mu3 == 0.0


def test_moments_closed_forms():
    mt = moments(1.0, 3.0)
    assert (mt.mu1, mt.mu2, mt.mu3) == (-2.0, 12.0, -6.0)
    assert mt.h == pytest.approx(48.0)
    assert mt.b == pytest.approx(52.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        dnt, dpk = rng.uniform(0.0, 30.0, 2)
        mt = moments(dnt, dpk)
        assert mt.mu1 == pytest.approx(dnt - dpk)
        assert mt.mu2 == pytest.approx(4.0 + 2.0 * (dnt + dpk))
        assert mt.mu3 == pytest.approx(3.0 * (dnt - dpk))


def test_moments_reject_negative():
    with pytest.raises(ValueError):
        moments(-0.1, 1.0)
    with pytest.raises(ValueError):
        MomentTriple(0.0, 4.0, 0.0).h


# ------------------------------------------------------------- detection bound

def test_detection_peak_cell_is_one():
    assert detection_prob_bound(moments(0.0, 5.0), peak_cell=True) == 1.0


def test_detection_symmetric_case_is_half():
    assert detection_prob_bound(moments(0.0, 0.0)) == 0.5
    assert detection_prob_bound(moments(3.0, 3.0)) == 0.5


def test_detection_frozen_values():
    assert detection_prob_bound(moments(0.5, 20.0)) == pytest.approx(0.005380241967817, rel=1e-10)
    assert detection_prob_bound(moments(0.0, 10.0)) == pytest.approx(0.045723646061826, rel=1e-10)
    assert detection_prob_bound(moments(1.0, 3.0)) == pytest.approx(0.362380425582926, rel=1e-10)


def test_detection_decreases_with_peak_strength():
    vals = [detection_prob_bound(moments(0.0, d)) for d in (1.0, 5.0, 20.0, 100.0)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-8


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_wilson_hilferty_in_place_equals_masked_oracle():
    rng = np.random.default_rng(41)
    # a block's cells: moments from noncentralities, with ties to the peak (nu3 = 0)
    delta = rng.exponential(20.0, (6, 4, 9))
    delta[:, 1, 2] = delta[:, 0, 0]
    d_peak = delta[:, :1, :1]
    nu1 = d_peak - delta
    cases = [(nu1, 4.0 + 2.0 * (delta + d_peak), 3.0 * nu1)]
    # hand-built triples: b/h outside (0, 1], vanishing nu2, nu3 = 0 with nu1 != 0
    cases.append((np.array([5.0, -3.0, 40.0, 0.0, 1.0, 2.0, 0.0]),
                  np.array([1.0, 2.0, 3.0, 0.0, 0.0, 4.0, 0.0]),
                  np.array([0.5, -7.0, 0.1, 1.0, 2.0, 0.0, 0.0])))
    # erfc's argument one float either side of its underflow point, and +inf, -inf, NaN
    d_peak = 4000.0
    cases.append(_moments_from(_deltas_across_the_cutoff(d_peak), d_peak))
    arg = _erfc_argument(*cases[-1])
    assert np.any(arg == _ERFC_ZERO)
    assert 0.0 < erfc(np.max(arg[arg < _ERFC_ZERO])) < 1e-309  # a few floats below it
    cases.append((np.array([np.inf, -np.inf, np.nan]), np.ones(3), np.ones(3)))
    assert np.array_equal(_erfc_argument(*cases[-1]), [np.inf, -np.inf, np.nan],
                          equal_nan=True)
    for nu1, nu2, nu3 in cases:
        inputs = [a.copy() for a in (nu1, nu2, nu3)]
        with np.errstate(all="ignore"):
            want = _masked_wilson_hilferty(nu1, nu2, nu3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _wilson_hilferty(nu1, nu2, nu3)
        assert np.array_equal(_bits(got), _bits(want))
        assert np.all(got[nu3 == 0.0] == 0.5)
        for a, b in zip(inputs, (nu1, nu2, nu3)):
            assert np.array_equal(_bits(a), _bits(b))  # the inputs are left as they were


def test_erfc_zero_is_the_installed_underflow_point():
    # a scipy whose erfc underflows at another point fails here, not in the bound's bits
    assert erfc(_ERFC_ZERO) == 0.0
    assert erfc(np.nextafter(_ERFC_ZERO, 0.0)) > 0.0
    assert erfc(np.inf) == 0.0
    assert not np.any(erfc(np.geomspace(_ERFC_ZERO, 1e308, 1001)))


def _bound_block(snr_db):
    """A 16-trial 4x4/T=8x8 ideal-DFT block: its inputs, peak noncentralities and moments."""
    rng = np.random.default_rng(snr_db)
    k, proto = 16, ProtocolConfig(t_x=8, t_y=8)
    psi_x, psi_y = rng.uniform(-1.0, 1.0, (2, k))
    s = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / math.sqrt(2.0)
    rho = effective_rho(10.0 ** (snr_db / 10.0), 1.0, 16, proto.t)
    inp = Trial(g=dft_matrix(4, 4).matrix, proto=proto, n_x=4, n_y=4,
                psi_x=psi_x, psi_y=psi_y, rho=rho, s=s)
    delta = noncentrality_map(inp)
    n_pk, t_pk = peak_cells(delta)
    d_peak = delta[np.arange(k), n_pk, t_pk][:, None, None]
    return inp, d_peak, _moments_from(delta, d_peak)


@pytest.mark.parametrize("snr_db", [0, 10, 20, 30, 200, 400])
def test_bound_on_4x4_blocks_equals_erfc_on_every_cell(monkeypatch, snr_db):
    # most of the block's cells lie beyond the cutoff
    inp, _, nus = _bound_block(snr_db)
    with np.errstate(all="ignore"):
        assert np.mean(_erfc_argument(*nus) >= _ERFC_ZERO) > 0.6
        want = _masked_wilson_hilferty(*nus)
    assert np.array_equal(_bits(_wilson_hilferty(*nus)), _bits(want))
    got = _bound(inp)
    # erfc on every cell, and no cell skipped before the transform
    monkeypatch.setattr(analysis, "_ERFC_ZERO", math.inf)
    want = _bound(inp)
    for a, b in zip(got, want):
        assert np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("snr_db", [0, 10, 20, 30, 200, 400])
def test_skipped_cells_are_zero_in_the_unfiltered_transform(snr_db):
    _, d_peak, nus = _bound_block(snr_db)
    dead = nus[0] >= analysis._dead_nu1(d_peak)
    with np.errstate(all="ignore"):
        want = _masked_wilson_hilferty(*nus)
    assert np.all(want[dead] == 0.0)
    if snr_db >= 200:  # beyond the cutoff's range every cell runs the full transform
        assert not np.any(dead)
    else:  # and below it the cutoff finds most of the zeros: 86% at 0 dB, all at 20 dB
        assert np.mean(dead) >= 0.85 * np.mean(want == 0.0)


# the largest d_peak the cutoff covers (4 + 4 d_peak = 1e6 a^2), less a hair for rounding
_D_LAST = (1e6 * (2.0 * _ERFC_ZERO * (1.0 + 1e-6) + 0.5) ** 2 - 4.0) / 4.0 * (1.0 - 1e-12)


@pytest.mark.parametrize("d_peak", [*np.geomspace(2e4, 7e8, 9), _D_LAST])
def test_cells_on_the_cutoff_transform_to_zero(d_peak):
    # nu1 on the floats around the cutoff, from 2e4 up to the largest d_peak it covers
    cutoff = analysis._dead_nu1(np.array([d_peak]))[0]
    assert cutoff < d_peak
    middle = np.array([d_peak - cutoff]).view(np.int64)[0]
    delta = np.arange(middle - 64, middle + 64).view(np.float64)
    nus = _moments_from(delta, d_peak)
    dead = nus[0] >= cutoff
    assert np.any(dead) and not np.all(dead)
    with np.errstate(all="ignore"):
        assert np.all(_masked_wilson_hilferty(*nus)[dead] == 0.0)
        # the cutoff gives away little: its cells' erfc argument is within 20% of the zero
        assert np.min(_erfc_argument(*nus)[dead]) < 1.2 * _ERFC_ZERO


def test_cutoff_ends_where_its_rounding_bound_does():
    assert analysis._dead_nu1(np.array([_D_LAST]))[0] < np.inf
    beyond = analysis._dead_nu1(np.array([_D_LAST * (1.0 + 1e-11), 1e30, np.inf, np.nan]))
    assert np.all(beyond == np.inf)


def test_near_tie_at_extreme_snr_is_left_to_the_transform():
    # x = 3 nu1^2/nu2^2 = 3e-18: 1 - cbrt(1 - x) rounds to 0, and the transform gave 1/2,
    # although erfc's argument, about nu1/(2 sqrt(nu2)) = 158, puts the exact value at 0.0;
    # the series value -x/3 on such cells gives that 0.0
    nu1, nu2 = np.array([1e14]), np.array([1e23])
    assert _wilson_hilferty(nu1, nu2, 3.0 * nu1)[0] == 0.0
    # no cutoff covers such a cell, so the transform itself must give it
    assert analysis._dead_nu1(np.array([(1e23 - 4.0) / 4.0]))[0] == np.inf


def test_series_value_replaces_only_the_cells_whose_cube_root_rounds_to_one():
    # erfc's argument, about nu1/(2 sqrt(nu2)), from 0.1 to 30, at x = 3 nu1^2/nu2^2 from
    # 1e-19 to 1e-14 and below 1e-20: the cells where cbrt(1 - x) - 1 rounds to 0.0 take -x/3
    nu2 = np.repeat([1e18, 1e24], 301)
    nu1 = 2.0 * np.sqrt(nu2) * np.tile(np.geomspace(0.1, 30.0, 301), 2)
    nus = (nu1, nu2, 3.0 * nu1)
    h = nu2 ** 3 / nus[2] ** 2
    x = nu1 / np.sqrt(h * nu2)
    rounded = np.cbrt(1.0 - x) - 1.0 == 0.0
    assert np.any(rounded) and not np.all(rounded)
    got = _wilson_hilferty(*nus)
    assert np.array_equal(_bits(got[~rounded]), _bits(_masked_wilson_hilferty(*nus)[~rounded]))
    z = (-x / 3.0 + 2.0 / (9.0 * h)) * np.sqrt(9.0 * h / 2.0)
    want = np.clip(q_function(-z), 0.0, 1.0)[rounded]
    assert np.any(want > 0.0) and np.any(want == 0.0)
    np.testing.assert_allclose(got[rounded], want, rtol=1e-12, atol=0.0)
    # those cells gave 1/2 before
    assert np.all(_masked_wilson_hilferty(*nus)[rounded] == 0.5)


def test_bound_transforms_exactly_the_cells_not_proven_dead(monkeypatch):
    received = []
    real = analysis._wilson_hilferty

    def recording(nu1, nu2, nu3):
        received.append(nu1.copy())
        return real(nu1, nu2, nu3)

    monkeypatch.setattr(analysis, "_wilson_hilferty", recording)
    inp, d_peak, nus = _bound_block(30)
    _bound(inp)
    keep = ~(nus[0] >= analysis._dead_nu1(d_peak))
    # fewer than 1024 of the 16384 cells, each one that the cutoff cannot prove dead, in order
    (got,) = received
    assert 0 < np.count_nonzero(keep) < 1024
    assert np.array_equal(_bits(got), _bits(nus[0][keep]))


def test_detection_tracks_monte_carlo():
    # three-moment approximation stays near the simulated win probability
    rng = np.random.default_rng(0)
    trials = 400_000
    for dnt, dpk in ((0.5, 20.0), (0.0, 10.0), (1.0, 3.0)):
        wnt = math.sqrt(dnt / 2) + (rng.standard_normal(trials)
                                    + 1j * rng.standard_normal(trials)) / math.sqrt(2)
        wpk = math.sqrt(dpk / 2) + (rng.standard_normal(trials)
                                    + 1j * rng.standard_normal(trials)) / math.sqrt(2)
        mc = np.mean(np.abs(wnt) ** 2 >= np.abs(wpk) ** 2)
        wh = detection_prob_bound(moments(dnt, dpk))
        assert abs(wh - mc) <= 0.25 * max(mc, 0.01)


# ------------------------------------------------------------------- MSE bound

def test_mse_bound_no_signal_closed_form():
    # every non-peak cell gets probability 1/2; summing lattice offsets on
    # the 8-point axis gives 8 * (2*(0.0625+0.25+0.5625) + 1) / 2 = 11
    proto = ProtocolConfig(t_x=4, t_y=4)
    psi = electrical_angles(2, 6, 2, 2, proto)
    inp = make_inputs(psi[0], psi[1], rho=0.0, proto=proto)
    bx, by = _bound(inp)
    assert bx == pytest.approx(11.0, rel=1e-12)
    assert by == pytest.approx(11.0, rel=1e-12)


def test_mse_bound_decreases_with_snr():
    proto = ProtocolConfig(t_x=4, t_y=4)
    psi = electrical_angles(2, 6, 2, 2, proto)
    prev = None
    for rho in (0.0, 0.1, 1.0, 10.0, 100.0):
        bx, by = _bound(make_inputs(psi[0], psi[1], rho=rho, proto=proto))
        if prev is not None:
            assert bx < prev[0]
            assert by < prev[1]
        prev = (bx, by)


def test_mse_bound_vanishes_at_high_snr_on_lattice():
    proto = ProtocolConfig(t_x=4, t_y=4)
    psi = electrical_angles(3, 14, 2, 2, proto)
    bx, by = _bound(make_inputs(psi[0], psi[1], rho=1e4, proto=proto))
    assert bx < 1e-100
    assert by < 1e-100


def test_mse_bound_matches_cell_by_cell_evaluation():
    proto = ProtocolConfig(t_x=3, t_y=2)
    inp = Trial(g=dft_matrix(2, 3).matrix, proto=proto, n_x=2, n_y=3,
                psi_x=0.31, psi_y=-0.52, rho=4.0, s=0.6 - 0.8j)
    delta = noncentrality_map(inp)
    n_pk, t_pk = peak_index_noiseless(inp)
    want_x = want_y = 0.0
    for n in range(1, 7):
        for t in range(1, 7):
            mt = moments(delta[n - 1, t - 1], delta[n_pk - 1, t_pk - 1])
            prob = detection_prob_bound(mt, peak_cell=(n, t) == (n_pk, t_pk))
            gx, gy = electrical_angles(n, t, 2, 3, proto)
            want_x += (math.remainder(inp.psi_x - gx, 2.0)) ** 2 * prob
            want_y += (math.remainder(inp.psi_y - gy, 2.0)) ** 2 * prob
    bx, by = _bound(inp)
    assert bx == pytest.approx(want_x, rel=1e-12)
    assert by == pytest.approx(want_y, rel=1e-12)


def _mse_bound_every_cell(inp):
    """The bound with the wrapped offsets taken cell by cell, as before the lattice axes."""
    power = np.abs(_field(inp) * inp.s) ** 2
    n_pk, t_pk = peak_index_noiseless(inp)
    delta = 2.0 * inp.rho * power
    d_peak = delta[n_pk - 1, t_pk - 1]
    nu1 = d_peak - delta
    probs = _wilson_hilferty(nu1, 4.0 + 2.0 * (delta + d_peak), 3.0 * nu1)
    probs[n_pk - 1, t_pk - 1] = 1.0
    lattice = inp.proto.lattice(inp.n_x, inp.n_y)
    err_x = np.mod(inp.psi_x - lattice.psi_x + 1.0, 2.0) - 1.0
    err_y = np.mod(inp.psi_y - lattice.psi_y + 1.0, 2.0) - 1.0
    return float(np.sum(err_x ** 2 * probs)), float(np.sum(err_y ** 2 * probs))


def _random_trials(rng, k, n_x, n_y, proto, rho):
    g = rng.standard_normal((n_x * n_y,) * 2) + 1j * rng.standard_normal((n_x * n_y,) * 2)
    psi_x, psi_y = rng.uniform(-1.0, 1.0, (2, k))
    s = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    batch = Trial(g=g, proto=proto, n_x=n_x, n_y=n_y, psi_x=psi_x, psi_y=psi_y,
                  rho=rho, s=s)
    ones = [Trial(g=g, proto=proto, n_x=n_x, n_y=n_y, psi_x=float(psi_x[i]),
                  psi_y=float(psi_y[i]), rho=rho, s=complex(s[i])) for i in range(k)]
    return batch, ones


def test_mse_bound_scalar_call_equals_cell_by_cell_offsets_exactly():
    rng = np.random.default_rng(31)
    for n_x, n_y, t_x, t_y in ((2, 2, 4, 4), (3, 2, 2, 3), (4, 4, 8, 8), (1, 1, 1, 1)):
        _, ones = _random_trials(rng, 6, n_x, n_y, ProtocolConfig(t_x=t_x, t_y=t_y), 3.0)
        for inp in ones:
            got = _bound(inp)
            assert type(got[0]) is float and type(got[1]) is float
            assert got == _mse_bound_every_cell(inp)


def test_bound_functions_trial_axis_equal_scalar_calls():
    rng = np.random.default_rng(32)
    for n_x, n_y, t_x, t_y, k in ((2, 2, 4, 4, 7), (3, 2, 2, 3, 1), (4, 4, 8, 8, 70)):
        proto = ProtocolConfig(t_x=t_x, t_y=t_y)
        batch, ones = _random_trials(rng, k, n_x, n_y, proto, 2.0)
        field, delta = _field(batch), noncentrality_map(batch)
        bx, by = _bound(batch)
        assert field.shape == delta.shape == (k, n_x * n_y, proto.t)
        assert bx.shape == by.shape == (k,)
        for i, inp in enumerate(ones):
            assert np.array_equal(field[i], _field(inp))
            assert np.array_equal(delta[i], noncentrality_map(inp))
            assert (bx[i], by[i]) == _bound(inp)


def test_mse_bound_trial_axis_raises_on_a_degenerate_trial():
    proto = ProtocolConfig(t_x=2, t_y=2)
    inp = Trial(g=np.zeros((4, 4)), proto=proto, n_x=2, n_y=2,
                psi_x=np.array([0.1, 0.2]), psi_y=np.array([0.0, 0.3]),
                rho=1.0, s=np.array([1.0 + 0j, 1.0 + 0j]))
    with pytest.raises(DegenerateField):
        _bound(inp)


@pytest.mark.parametrize("rows", [2, 9])
def test_mse_bound_refuses_receiver_grid_other_than_input_grid(rows):
    # 2 rows once died on a numpy broadcast error in the bound, 9 on an index error
    lattice = ProtocolConfig(t_x=2, t_y=2).lattice(2, 2)
    sv = steering_for(0.1, 0.2, 2, 2)
    with pytest.raises(ValueError, match=rf"shape \({rows}, 4\).*4-cell input grid"):
        clean_field(np.ones((rows, 4)), lattice, sv)
    field = synthesize_received(np.ones((rows, 4)), lattice.zeroth, sv)
    with pytest.raises(ValueError, match=rf"field has \({rows}, 4\) cells.*\(4, 4\)"):
        mse_bound(field, 1.0 + 0j, 1.0, lattice, 0.1, 0.2)


def test_mse_bound_refuses_trial_counts_other_than_the_field_s():
    # a (3, 4, 4) field with two angles once died on numpy's "cannot reshape array of size 48"
    lattice = ProtocolConfig(t_x=2, t_y=2).lattice(2, 2)
    two = np.array([0.1, 0.2])
    field = clean_field(dft_matrix(2, 2).matrix, lattice,
                        steering_for(np.array([0.1, 0.2, 0.3]), np.zeros(3), 2, 2))
    ones = np.ones(3, complex)
    for args in ((field, ones[:2], two, two), (field, ones, two, np.zeros(3)),
                 (field, ones, np.zeros(3), two), (field[0], 1.0 + 0j, 0.1, 0.0),
                 (field, 1.0 + 0j, np.zeros(3), np.zeros(3))):
        with pytest.raises(ValueError, match=re.escape(f"field has shape {np.shape(args[0])} but"
                                                       f" s, psi_x and psi_y have shapes")):
            mse_bound(args[0], args[1], 1.0, lattice, *args[2:])
    with pytest.raises(ValueError, match=r"shape \(3, 4, 4\) .* shapes \(2,\), \(2,\) and \(2,\)"):
        mse_bound(field, ones[:2], 1.0, lattice, two, two)
    bx, by = mse_bound(field, ones, 1.0, lattice, np.zeros(3), np.zeros(3))
    assert bx.shape == by.shape == (3,)


def test_mse_bound_symmetric_axes():
    proto = ProtocolConfig(t_x=4, t_y=4)
    bx, by = _bound(make_inputs(0.3, 0.3, rho=2.0, proto=proto))
    assert bx == pytest.approx(by, rel=1e-9)


# ----------------------------------------------------------------------- floor

def _midpoint_floor(cells):
    """Mean squared snap error on a lattice of ``cells`` angles, integrated numerically.

    The source angle runs over a 200,001-point midpoint grid of [-1, 1), and
    each point snaps to the nearest angle of -1 + k * 2 / cells.
    """
    grid = 200001
    values = -1.0 + 2.0 * (np.arange(grid) + 0.5) / grid
    step = 2.0 / cells
    offset = np.mod(values + 1.0, step)
    err = np.minimum(offset, step - offset)
    return float(np.mean(err ** 2))


def test_quantization_floor_closed_form():
    fx, fy = quantization_floor(2, 2, ProtocolConfig(t_x=4, t_y=4))
    assert fx == pytest.approx(_midpoint_floor(8), rel=1e-9)
    assert fy == fx
    fx, fy = quantization_floor(2, 2, ProtocolConfig(t_x=64, t_y=64))
    assert fx == pytest.approx(_midpoint_floor(128), rel=1e-9)
    fx, fy = quantization_floor(3, 2, ProtocolConfig(t_x=5, t_y=7))
    assert (fx, fy) == pytest.approx((_midpoint_floor(15), _midpoint_floor(14)), rel=1e-9)


def test_quantization_floor_single_bin():
    fx, fy = quantization_floor(1, 1, ProtocolConfig())
    assert fx == pytest.approx(_midpoint_floor(1), rel=1e-9)
    assert fy == fx
