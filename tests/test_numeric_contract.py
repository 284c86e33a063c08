"""The trial inputs' and the one-map path's numeric contract, drawn across magnitudes and shapes.

Every function on the path from a source to a paired wave/digital estimate, and the K-wave
steering and complex noise of a Monte Carlo block, takes arguments drawn from subnormal to
1e308, +-0, NaN and +-inf, on 2x2 and 3x2 grids, and array arguments
whose shape is now and then off by one axis. With warnings raised as errors, each call must
give a finite result of its documented shape or raise a ValueError. An estimate's physical
angles may be NaN, as documented for a peak outside the visible region, and must then be its
lattice cell's. The fitting loss and the wrapped angle error are held to it too; a loss beyond
a float's range is documented as inf or NaN, which ``train`` refuses (``tests/test_trainer.py``).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import complex_gaussian
from simdoa.estimator import (DoaEstimate, EnergyMap, ProtocolConfig, collect_snapshots,
                              estimate_from_map, wrapped_angle_error)
from simdoa.experiments import SourceTruth, digital_baseline, paired_trial
from simdoa.geometry import dft_matrix, steering_vector
from simdoa.wavemodel import cn_noise, fitting_loss, scale_field

MAGNITUDES = [0.0, 5e-324, 2.2250738585072014e-308, 1e-200, 1e-8, 0.7, 1.0, 3.0, 1e8, 1e154,
              1e200, 1e307, 4e307, 1.7976931348623157e308]
REALS = [*MAGNITUDES, *(-m for m in MAGNITUDES), math.nan, math.inf, -math.inf]
GRIDS = [(2, 2), (3, 2)]

reals = st.sampled_from(REALS)
complexes = st.builds(complex, reals, reals)
# numpy scalars, whose arithmetic warns where Python's floats do not
scalars = reals | reals.map(np.float64)
grids = st.sampled_from(GRIDS)
protocols = st.builds(ProtocolConfig, st.integers(1, 3), st.integers(1, 3))
FUZZ = settings(max_examples=60, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def shapes(draw, shape):
    """``shape`` itself, or with one axis longer, shorter, dropped or a unit axis in front."""
    shape = list(shape)
    how = draw(st.sampled_from(["same", "same", "same", "longer", "shorter", "dropped", "lead"]))
    if how == "lead":
        return (1, *shape)
    if how == "same" or not shape:
        return tuple(shape)
    axis = draw(st.integers(0, len(shape) - 1))
    if how == "dropped":
        del shape[axis]
    else:
        shape[axis] = max(shape[axis] + (1 if how == "longer" else -1), 0)
    return tuple(shape)


@st.composite
def arrays(draw, shape, real=False):
    """An array of about one drawn magnitude on a drawn shape, with one entry sometimes drawn."""
    shape = draw(shapes(shape))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    base = rng.uniform(0.5, 1.0, shape)
    if not real:
        base = base * np.exp(2j * np.pi * rng.random(shape))
    with np.errstate(all="ignore"):
        values = draw(reals) * base
    if values.size and draw(st.booleans()):
        values.flat[draw(st.integers(0, values.size - 1))] = draw(reals if real else complexes)
    return values


def outcome(call, *args):
    """``call(*args)`` with every warning raised as an error; None when a ValueError refuses it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args)
        except ValueError:
            return None


def check_estimate(est, lattice):
    """Peak cells on ``lattice`` with their angles: finite, or NaN where the lattice's are.

    One map's estimate holds numbers, a batch's holds arrays with one entry a map.
    """
    assert isinstance(est, DoaEstimate)
    names = ("n", "t", "psi_x", "psi_y", "phi", "theta")
    for n, t, *angles in zip(*(np.atleast_1d(getattr(est, name)) for name in names)):
        assert 1 <= n <= lattice.zeroth.shape[0] and 1 <= t <= lattice.zeroth.shape[1]
        for name, value in zip(names[2:], angles):
            want = getattr(lattice, name)[n - 1, t - 1]
            assert value == want or (name in ("phi", "theta") and np.isnan(want))
            assert math.isfinite(value) or name in ("phi", "theta")


@FUZZ
@given(grid=grids, shape=st.data(), variance=reals)
def test_cn_noise(grid, shape, variance):
    shape = shape.draw(shapes((grid[0] * grid[1], 4)))
    noise = outcome(cn_noise, np.random.default_rng(0), shape, variance)
    if noise is not None:
        assert noise.shape == shape and noise.dtype == complex
        assert np.all(np.isfinite(noise))


@FUZZ
@given(grid=grids, data=st.data(), variance=scalars)
def test_complex_gaussian(grid, data, variance):
    # one trial's (N, T) draws or a block's (K, N, T), each part drawn on its own
    shape = data.draw(st.sampled_from([(grid[0] * grid[1], 4), (2, grid[0] * grid[1], 4)]))
    re, im = data.draw(arrays(shape, real=True)), data.draw(arrays(shape, real=True))
    noise = outcome(complex_gaussian, re, im, variance)
    if noise is not None:
        assert noise.shape == re.shape and noise.dtype == complex
        assert np.all(np.isfinite(noise))


@FUZZ
@given(grid=grids, psi_x=scalars, psi_y=scalars)
def test_steering_vector(grid, psi_x, psi_y):
    sv = outcome(steering_vector, psi_x, psi_y, *grid)
    if sv is not None:
        assert sv.shape == (grid[0] * grid[1],)
        assert np.all(np.isfinite(sv))


@FUZZ
@given(grid=grids, data=st.data())
def test_steering_vector_waves(grid, data):
    # K waves' angles; a dropped axis leaves a 0-d array, which is one wave
    waves = data.draw(st.integers(1, 3))
    psi_x, psi_y = data.draw(arrays((waves,), real=True)), data.draw(arrays((waves,), real=True))
    sv = outcome(steering_vector, psi_x, psi_y, *grid)
    if sv is not None:
        assert sv.shape == (*psi_x.shape, grid[0] * grid[1])
        assert np.all(np.isfinite(sv))


@st.composite
def snapshot_inputs(draw):
    """(field, s, rho, noise) for one map on a drawn grid, or K maps when a unit axis leads.

    One map's symbol is a Python or numpy complex, or a real, which takes the array path.
    """
    n_x, n_y = draw(grids)
    field = draw(arrays((n_x * n_y, 3)))
    trials = field.shape[:-2]
    symbols = complexes | complexes.map(np.complex128) | scalars
    s = draw(symbols) if not trials or draw(st.booleans()) else draw(arrays(trials))
    noise = draw(st.none() | arrays(field.shape))
    return field, s, draw(reals), noise


@FUZZ
@given(inputs=snapshot_inputs())
def test_scale_field(inputs):
    # under its callers' errstate: FOUND in CHANGES.md, scale_field passes on a field or noise
    # that is not finite, and a product beyond a float's range, which warns without the
    # errstate; every caller refuses such snapshots with EnergyMap's ValueError
    with np.errstate(all="ignore"):
        snapshots = outcome(scale_field, *inputs)
    if snapshots is None:
        return
    assert snapshots.shape == inputs[0].shape
    if not np.all(np.isfinite(snapshots)):
        assert outcome(collect_snapshots, *inputs) is None


@FUZZ
@given(inputs=snapshot_inputs())
def test_collect_snapshots(inputs):
    emap = outcome(collect_snapshots, *inputs)
    if emap is not None:
        assert emap.values.shape == inputs[0].shape
        assert np.all(np.isfinite(emap.values)) and np.all(emap.values >= 0.0)


@FUZZ
@given(grid=grids, data=st.data())
def test_energy_map(grid, data):
    values = data.draw(arrays(data.draw(st.sampled_from([(grid[0] * grid[1], 4),
                                                          (2, grid[0] * grid[1], 4)])),
                              real=True))
    emap = outcome(EnergyMap, values)
    if emap is not None:
        assert emap.values.shape == values.shape
        assert np.all(np.isfinite(emap.values)) and np.all(emap.values >= 0.0)


@FUZZ
@given(grid=grids, proto=protocols, data=st.data())
def test_estimate_from_map(grid, proto, data):
    lattice = proto.lattice(*grid)
    values = data.draw(arrays(lattice.zeroth.shape, real=True))
    with np.errstate(all="ignore"):
        emap = outcome(EnergyMap, np.abs(values))
    if emap is None:  # EnergyMap's own draws are test_energy_map's
        return
    est = outcome(estimate_from_map, emap, lattice)
    if est is not None:
        check_estimate(est, lattice)


@FUZZ
@given(grid=grids, proto=protocols, data=st.data())
def test_digital_baseline(grid, proto, data):
    n = grid[0] * grid[1]
    lattice = proto.lattice(*grid)
    sv = data.draw(arrays((n,)))
    noise = data.draw(st.none() | arrays((n, proto.t)))
    est = outcome(digital_baseline, dft_matrix(*grid).matrix, lattice, sv,
                  data.draw(complexes), data.draw(reals), noise)
    if est is not None:
        check_estimate(est, lattice)


@st.composite
def paired_inputs(draw):
    """(grid, protocol, g, beta, (psi_x, psi_y, s), gamma); a g of None is the exact DFT."""
    grid, proto = draw(grids), draw(protocols)
    g = draw(st.none() | arrays((grid[0] * grid[1],) * 2))
    beta = draw(scalars | complexes | complexes.map(np.complex128))
    return grid, proto, g, beta, (draw(scalars), draw(scalars), draw(complexes)), draw(scalars)


@FUZZ
@given(inputs=paired_inputs())
# each warned before paired_trial's errstate covered its whole body and steering_vector
# refused a ramp beyond a float: 'overflow encountered in multiply' for psi_x * 2 in the ramp,
# in scalar multiply for a numpy gamma's rho and a numpy psi_y's pi * psi_y, and in scalar
# divide for the frame of a subnormal numpy beta, which paired_trial now refuses by name
@example(inputs=((3, 2), ProtocolConfig(2, 2), None, 1.0, (4e307, 0.1, 1 + 0j), 10.0))
@example(inputs=((2, 2), ProtocolConfig(2, 2), None, 1e10, (0.1, 0.2, 1 + 0j),
                 np.float64(1e300)))
@example(inputs=((2, 2), ProtocolConfig(2, 2), None, 1.0, (0.1, np.float64(1e308), 1j), 10.0))
@example(inputs=((2, 2), ProtocolConfig(2, 2), None, np.complex128(5e-324), (0.1, 0.2, 1j),
                 10.0))
def test_paired_trial(inputs):
    grid, proto, g, beta, source, gamma = inputs
    g = dft_matrix(*grid).matrix if g is None else g
    pair = outcome(paired_trial, g, beta, SourceTruth(*source), proto, *grid,
                   gamma, np.random.default_rng(0))
    if pair is not None:
        for est in pair:
            check_estimate(est, proto.lattice(*grid))


@pytest.mark.parametrize("g_scale,beta", [(1e200, 1e200), (1e200, 1e200 - 1e200j),
                                          (1e160, 1.0)], ids=["product", "complex", "square"])
def test_fitting_loss_beyond_range_is_not_finite_without_a_warning(g_scale, beta):
    # beta * G beyond a float's range, or a norm whose square is, warned 'overflow encountered
    # in multiply' in a direct call; train held its own errstate
    f = dft_matrix(2, 2).matrix
    loss, db = outcome(fitting_loss, np.full((4, 4), g_scale, complex), f, beta)
    assert not math.isfinite(loss) and not math.isfinite(db)


@pytest.mark.parametrize("g,f,want", [
    # an all-zero F raised ZeroDivisionError from loss / ||F||^2
    (np.ones((4, 4)), np.zeros((4, 4)), (16.0, math.inf)),
    (np.zeros((4, 4)), np.zeros((4, 4)), (0.0, -400.0)),
    # a finite loss against an F of power beyond range warned 'divide by zero' in log10
    (np.full((2, 2), 1e160) * (1.0 + 2.0 ** -52), np.full((2, 2), 1e160), (None, -400.0)),
], ids=["zero-target", "zero-target-exact-fit", "target-beyond-range"])
def test_fitting_loss_against_a_zero_or_unbounded_target(g, f, want):
    loss, db = outcome(fitting_loss, g.astype(complex), f.astype(complex), 1.0)
    assert (want[0] is None and 0.0 < loss < math.inf or loss == want[0]) and db == want[1]


@FUZZ
@given(true_psi=scalars, est_psi=scalars)
@example(true_psi=math.inf, est_psi=0.0)  # warned 'invalid value encountered in remainder'
@example(true_psi=1e308, est_psi=-1e308)  # finite angles whose difference is not
def test_wrapped_angle_error(true_psi, est_psi):
    err = outcome(wrapped_angle_error, true_psi, est_psi)
    if err is not None:
        assert isinstance(err, float) and -1.0 <= err < 1.0
    else:
        assert not math.isfinite(float(true_psi) - float(est_psi))  # Python's floats: no warning


def test_wrapped_angle_error_refuses_arrays_with_an_angle_that_is_not_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^angles must be finite with a finite difference"):
            wrapped_angle_error(np.array([0.1, math.inf]), np.zeros(2))
