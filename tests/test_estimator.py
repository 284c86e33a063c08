import dataclasses
import math
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simdoa import cli
from simdoa.estimator import (
    DoaEstimate,
    EnergyMap,
    ProtocolConfig,
    angular_spectrum,
    collect_snapshots,
    electrical_angles,
    estimate_from_map,
    visible_angles,
    wrapped_angle_error,
    zeroth_layer_config,
    zeroth_layer_phase,
)
from simdoa.geometry import TWO_PI, SimGeometry, dft_matrix, linear_to_grid, steering_vector
from simdoa.wavemodel import cn_noise, synthesize_received

LAM = 0.005


# Scalar twins of the lattice functions, kept here as oracles: the per-cell
# formulas the array lattice must reproduce, one Python call per cell, on
# ints and floats.

def scalar_linear_to_grid(idx, width, height=None):
    """1-based (ix, iy) ints of one 1-based linear index, filled along x first."""
    idx = int(idx)
    width = int(width)
    if width < 1:
        raise ValueError("width must be >= 1")
    if idx < 1 or (height is not None and idx > width * int(height)):
        raise ValueError(f"index {idx} outside grid")
    iy = -(-idx // width)  # ceil(idx / width)
    ix = idx - (iy - 1) * width
    return ix, iy


def scalar_zeroth_layer_phase(n, t, n_x, n_y, proto):
    """Input-layer phase of atom n at snapshot t, in [0, 2*pi), as a float."""
    nx, ny = scalar_linear_to_grid(n, n_x, n_y)
    tx, ty = scalar_linear_to_grid(t, proto.t_x, proto.t_y)
    return float(np.mod(-2.0 * np.pi * (nx - 1) * (tx - 1) / (n_x * proto.t_x)
                        - 2.0 * np.pi * (ny - 1) * (ty - 1) / (n_y * proto.t_y), 2.0 * np.pi))


def scalar_zeroth_layer_phases(t, n_x, n_y, proto):
    """All N input-layer phases of snapshot t (N,), one scalar call each."""
    return np.array([scalar_zeroth_layer_phase(n, t, n_x, n_y, proto)
                     for n in range(1, n_x * n_y + 1)])


def scalar_electrical_angles(n, t, n_x, n_y, proto):
    """Normalized electrical angles of lattice cell (n, t), two floats in [-1, 1)."""
    nx, ny = scalar_linear_to_grid(n, n_x, n_y)
    tx, ty = scalar_linear_to_grid(t, proto.t_x, proto.t_y)
    psi_x = np.mod(2.0 * ((nx - 1) / n_x + (tx - 1) / (n_x * proto.t_x)) + 1.0, 2.0) - 1.0
    psi_y = np.mod(2.0 * ((ny - 1) / n_y + (ty - 1) / (n_y * proto.t_y)) + 1.0, 2.0) - 1.0
    return float(psi_x), float(psi_y)


def scalar_visible_angles(psi_x, psi_y, d_x, d_y):
    """``visible_angles`` of one cell's normalized angles, as two floats (radians).

    math.sqrt and % round as np.sqrt and np.mod do; arctan2 and arcsin stay
    numpy's, whose SIMD code math need not match.
    """
    px, py = np.pi * psi_x, np.pi * psi_y
    radius = math.sqrt((px / d_x) * (px / d_x) + (py / d_y) * (py / d_y)) / TWO_PI
    if radius > 1.0:
        return math.nan, math.nan
    if psi_x == 0.0 and psi_y == 0.0:
        return 0.0, 0.0
    return float(np.arctan2(py * d_x, px * d_y)) % TWO_PI, float(np.arcsin(radius))


def physical_angles(psi_x, psi_y, geom):
    """Azimuth and elevation (radians) of two floats, from ``geom``'s spacings in meters.

    Both angles are NaN outside the visible region; azimuth is 0 at broadside.
    """
    px = np.pi * psi_x
    py = np.pi * psi_y
    radius = np.sqrt((px / geom.d_x) ** 2 + (py / geom.d_y) ** 2) / geom.kappa
    if radius > 1.0:
        return math.nan, math.nan
    theta = float(np.arcsin(radius))
    if psi_x == 0.0 and psi_y == 0.0:
        return 0.0, 0.0
    phi = float(np.mod(np.arctan2(py * geom.d_x, px * geom.d_y), 2.0 * np.pi))
    return phi, theta


def make_geom(n_x=2, n_y=2):
    return SimGeometry(
        wavelength=LAM, n_x=n_x, n_y=n_y, d_x=LAM / 2, d_y=LAM / 2,
        m_x=3, m_y=3, s_x=LAM / 2, s_y=LAM / 2, layers=1, thickness=0.004,
    )


# -------------------------------------------------------------------- protocol

def test_protocol_counts():
    proto = ProtocolConfig(t_x=4, t_y=2)
    assert proto.t == 8
    assert linear_to_grid(1, proto.t_x, proto.t_y) == (1, 1)
    assert linear_to_grid(5, proto.t_x, proto.t_y) == (1, 2)
    with pytest.raises(ValueError):
        ProtocolConfig(t_x=0, t_y=1)


@pytest.mark.parametrize("kwargs", [dict(t_x=True, t_y=2), dict(t_x=2.5), dict(t_y=np.True_),
                                    dict(t_x=2, t_y=2.0)])
def test_protocol_refuses_bool_and_non_integer_counts(kwargs):
    # t_x=True ran as T=2, and t_x=2.5 failed only in the lattice: "index [1. 2. 3. 4. 5.]
    # outside grid"
    with pytest.raises(ValueError, match=r"^t_[xy] must be an integer, got "):
        ProtocolConfig(**kwargs)
    assert ProtocolConfig(t_x=np.int64(3), t_y=2).t == 6


def test_first_snapshot_phases_are_zero():
    proto = ProtocolConfig(t_x=8, t_y=8)
    for n in range(1, 5):
        assert zeroth_layer_phase(n, 1, 2, 2, proto) == 0.0


def test_first_atom_phase_is_zero():
    proto = ProtocolConfig(t_x=8, t_y=8)
    for t in range(1, 65):
        assert zeroth_layer_phase(1, t, 2, 2, proto) == 0.0


def test_phase_increment_per_axis():
    # atom (2,1) at snapshot (2,1): one x-step of the fine grid
    proto = ProtocolConfig(t_x=8, t_y=8)
    phase = zeroth_layer_phase(2, 2, 2, 2, proto)
    assert phase == pytest.approx(2 * math.pi * (1 - 1 / 16))
    # atom (1,2) at snapshot (1,2) = linear t=9: one y-step
    phase = zeroth_layer_phase(3, 9, 2, 2, proto)
    assert phase == pytest.approx(2 * math.pi * (1 - 1 / 16))


def test_zeroth_config_matches_scalar():
    proto = ProtocolConfig(t_x=4, t_y=4)
    schedule = zeroth_layer_config(np.array([7]), 2, 2, proto)[:, 0]  # snapshot 7's column
    assert schedule.shape == (4,)
    for n in range(1, 5):
        assert schedule[n - 1] == np.exp(1j * zeroth_layer_phase(n, 7, 2, 2, proto))


def test_lattice_matches_scalar_definitions():
    # n_x != n_y and t_x != t_y, so a swapped axis anywhere would show
    proto = ProtocolConfig(t_x=3, t_y=2)
    lattice = proto.lattice(3, 2)
    assert lattice.zeroth.shape == lattice.psi_x.shape == lattice.psi_y.shape == (6, 6)
    xi0 = zeroth_layer_phase(np.arange(1, 7)[:, None], np.arange(1, 7), 3, 2, proto)
    for t in range(1, 7):
        column = scalar_zeroth_layer_phases(t, 3, 2, proto)
        assert np.array_equal(xi0[:, t - 1], column)
        assert np.array_equal(lattice.zeroth[:, t - 1], np.exp(1j * column))
        for n in range(1, 7):
            assert (lattice.psi_x[n - 1, t - 1], lattice.psi_y[n - 1, t - 1]) \
                == scalar_electrical_angles(n, t, 3, 2, proto)


def _per_cell_lattice(proto, n_x, n_y, spacing):
    """(xi0, psi_x, psi_y, phi, theta) built one scalar call per cell, as an oracle."""
    snapshots = range(1, proto.t + 1)
    xi0 = np.column_stack([scalar_zeroth_layer_phases(t, n_x, n_y, proto) for t in snapshots])
    angles = np.array([[scalar_electrical_angles(n, t, n_x, n_y, proto) for t in snapshots]
                       for n in range(1, n_x * n_y + 1)])
    physical = np.array([[scalar_visible_angles(*cell, *spacing) for cell in row]
                         for row in angles.tolist()])
    return xi0, angles[..., 0], angles[..., 1], physical[..., 0], physical[..., 1]


# spacings in wavelengths; below 1/sqrt(2) the corner cells (psi_x, psi_y) = (-1, -1) lie
# outside the visible region, and at 0.5 the axis cells psi = -1 lie on its edge; the
# extreme examples below overflow the cells' radii or the arctan2 arguments
SPACINGS = st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 2.0))


@pytest.mark.parametrize("n_x, n_y, t_x, t_y", [
    (2, 2, 4, 4), (4, 4, 8, 8), (3, 2, 3, 2), (1, 5, 7, 3), (5, 3, 2, 9), (2, 2, 64, 64),
    (1, 1, 1, 1), (7, 1, 1, 13)])
@settings(max_examples=4, derandomize=True, deadline=None, database=None)
@given(spacing=SPACINGS)
@example(spacing=(0.5, 0.5))
@example(spacing=(0.7, 0.37))
@example(spacing=(1e-300, 0.6))
@example(spacing=(1e300, 1.7e308))
def test_array_lattice_equals_per_cell_build_bit_for_bit(n_x, n_y, t_x, t_y, spacing):
    proto = ProtocolConfig(t_x=t_x, t_y=t_y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lattice = proto.lattice(n_x, n_y, spacing)
    xi0, psi_x, psi_y, phi, theta = _per_cell_lattice(proto, n_x, n_y, spacing)
    for got, want in ((lattice.zeroth, np.exp(1j * xi0)), (lattice.psi_x, psi_x),
                      (lattice.psi_y, psi_y), (lattice.phi, phi), (lattice.theta, theta)):
        assert got.shape == want.shape == (n_x * n_y, proto.t)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))  # signed zeros, NaNs too
        assert not got.flags.writeable
    assert np.array_equal(np.isnan(lattice.phi), np.isnan(lattice.theta))
    for (axis, index), psi in ((lattice.distinct_x, psi_x), (lattice.distinct_y, psi_y)):
        want_axis, want_index = np.unique(psi, return_inverse=True)
        assert np.array_equal(axis.view(np.int64), want_axis.view(np.int64))
        assert np.array_equal(index, want_index.reshape(psi.shape))


@pytest.mark.parametrize("n_x, n_y, t_x, t_y", [
    (2, 2, 4, 4), (4, 4, 8, 8), (3, 2, 3, 2), (1, 5, 7, 3), (2, 2, 64, 64), (7, 1, 1, 13),
    (16, 16, 4, 4), (32, 32, 1, 1)])
def test_lattice_transmission_equals_the_former_record_bit_for_bit(n_x, n_y, t_x, t_y):
    # the removed zeroth-layer record reduced the phases with np.mod once more before exp(j
    # xi0); the lattice's one array must keep those bits, signed zeros included
    proto = ProtocolConfig(t_x=t_x, t_y=t_y)
    phase = np.column_stack([scalar_zeroth_layer_phases(t, n_x, n_y, proto)
                             for t in range(1, proto.t + 1)])
    former = np.exp(1j * np.mod(phase, 2.0 * np.pi))
    zeroth = proto.lattice(n_x, n_y).zeroth
    assert zeroth.shape == former.shape == (n_x * n_y, proto.t)
    assert np.array_equal(zeroth.view(np.int64), former.view(np.int64))
    assert not zeroth.flags.writeable
    with pytest.raises(ValueError):
        zeroth[0, 0] = 1.0


def test_scalar_lattice_calls_keep_their_types():
    proto = ProtocolConfig(t_x=3, t_y=2)
    # scalar indices give 0-d values equal to the per-cell formulas
    assert zeroth_layer_phase(4, 5, 3, 2, proto) == scalar_zeroth_layer_phase(4, 5, 3, 2, proto)
    assert electrical_angles(4, 5, 3, 2, proto) == scalar_electrical_angles(4, 5, 3, 2, proto)
    assert linear_to_grid(5, 3, 2) == scalar_linear_to_grid(5, 3, 2)
    assert zeroth_layer_config(np.array([5]), 3, 2, proto).shape == (6, 1)
    with pytest.raises(ValueError):
        linear_to_grid(np.array([1, 7]), 3, 2)
    with pytest.raises(ValueError):
        linear_to_grid(np.array([0, 2]), 3)


def test_lattice_distinct_angles_index_back_to_every_cell():
    proto = ProtocolConfig(t_x=3, t_y=2)
    lattice = proto.lattice(2, 3)
    for psi, (axis, index), cells in ((lattice.psi_x, lattice.distinct_x, 2 * 3),
                                      (lattice.psi_y, lattice.distinct_y, 3 * 2)):
        assert axis.shape == (cells,) and index.shape == psi.shape
        assert np.array_equal(axis[index], psi)
        for arr in (axis, index):
            with pytest.raises(ValueError):
                arr[0] = 0


def test_lattice_is_cached_per_instance_and_read_only():
    proto = ProtocolConfig(t_x=2, t_y=3)
    lattice = proto.lattice(2, 2)
    assert proto.lattice(2, 2) is lattice
    assert proto.lattice(2, 2, (0.5, 0.5)) is lattice  # half-wave spacing is the default
    assert proto.lattice(3, 2) is not lattice
    wide = proto.lattice(2, 2, (0.7, 0.5))
    assert wide is not lattice and proto.lattice(2, 2, (0.7, 0.5)) is wide
    assert np.array_equal(wide.psi_x, lattice.psi_x) and not np.array_equal(wide.phi, lattice.phi)
    assert ProtocolConfig(t_x=2, t_y=3).lattice(2, 2) is not lattice
    for arr in (lattice.zeroth, lattice.psi_x, lattice.psi_y, lattice.phi, lattice.theta):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


@pytest.mark.parametrize("spacing", [(0.0, 0.5), (math.inf, 0.5), (-0.5, 0.5), (0.5, math.nan),
                                     (0.5,)])
def test_lattice_refuses_a_spacing_that_is_not_two_positive_finite_numbers(spacing):
    # zero and inf once warned from visible_angles, a negative or NaN spacing built a lattice,
    # and one entry raised a TypeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="spacing must be two positive finite numbers"):
            ProtocolConfig(t_x=2, t_y=2).lattice(2, 2, spacing)


# ------------------------------------------------------------------ energy map

def test_energy_map_validation():
    with pytest.raises(ValueError):
        EnergyMap(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        EnergyMap(np.array([[1.0, -0.1]]))
    emap = EnergyMap(np.ones((4, 16)))
    assert emap.values.shape[-1] == 16


def test_energy_map_converts_values_that_are_not_a_float_array():
    values = [[1, 2], [3, 4]]
    emap = EnergyMap(values)
    assert isinstance(emap.values, np.ndarray) and emap.values.dtype == np.float64
    assert np.array_equal(emap.values, values)
    floats = np.ones((2, 3))
    assert EnergyMap(floats).values is floats  # a float array is kept, not copied


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_energy_map_refuses_non_finite_values(bad):
    # NaN passed the old `np.any(v < 0.0)` check and +inf is not below zero, so a map
    # that overflowed was searched for its peak
    for shape, cell in (((4, 16), (2, 5)), ((3, 4, 16), (1, 0, 7))):
        values = np.ones(shape)
        values[cell] = bad
        with pytest.raises(ValueError, match="finite"):
            EnergyMap(values)
    assert EnergyMap(np.array([[0.0, -0.0, np.finfo(float).max]])).values.shape == (1, 3)


def test_energy_map_refuses_a_negative_entry():
    # the one-map path checks only the max of its |x|^2 maps; the public map keeps its min
    for shape, cell in (((4, 16), (3, 15)), ((3, 4, 16), (2, 0, 0))):
        values = np.ones(shape)
        values[cell] = -5e-324
        with pytest.raises(ValueError, match=r"^energy values must be finite and >= 0$"):
            EnergyMap(values)


def unit_field(g, sv, proto, n_x, n_y):
    """The unit field G Y_0 a that ``collect_snapshots`` scales, on the protocol's lattice."""
    return synthesize_received(g, proto.lattice(n_x, n_y).zeroth, sv)


def test_collect_noise_only_preset():
    f = dft_matrix(2, 2).matrix
    proto = ProtocolConfig(t_x=2, t_y=2)
    field = unit_field(f, steering_vector(0.3, -0.4, 2, 2), proto, 2, 2)
    preset = (np.arange(16).reshape(4, 4) + 1.0) * (1 + 1j)
    emap = collect_snapshots(field, 1.0 + 0j, 0.0, noise=preset)
    assert np.allclose(emap.values, np.abs(preset) ** 2)
    with pytest.raises(ValueError, match="noise shape"):
        collect_snapshots(field, 1.0 + 0j, 1.0, noise=np.zeros((4, 5), complex))


def test_collect_noise_only_mean_power():
    f = dft_matrix(2, 2).matrix
    proto = ProtocolConfig(t_x=16, t_y=16)
    sv = steering_vector(0.1, 0.2, 2, 2)
    emap = collect_snapshots(unit_field(f, sv, proto, 2, 2), 1.0 + 0j, 0.0,
                             noise=per_snapshot_noise(np.random.default_rng(3), 4, proto.t))
    assert np.mean(emap.values) == pytest.approx(1.0, rel=0.1)


def test_collect_on_lattice_concentrates():
    f = dft_matrix(2, 2).matrix
    proto = ProtocolConfig(t_x=4, t_y=4)
    rho = 3.0
    s = 0.6 + 0.8j
    n0, t0 = 3, 6
    psi = electrical_angles(n0, t0, 2, 2, proto)
    sv = steering_vector(psi[0], psi[1], 2, 2)
    emap = collect_snapshots(unit_field(f, sv, proto, 2, 2), s, rho)
    est = estimate_from_map(emap, proto.lattice(2, 2))
    assert (est.n, est.t) == (n0, t0)
    assert emap.values[n0 - 1, t0 - 1] == pytest.approx(rho * 16.0 * abs(s) ** 2, rel=1e-12)
    # at the matched snapshot the other antennas are dark
    col = emap.values[:, t0 - 1].copy()
    col[n0 - 1] = 0.0
    assert np.max(col) < 1e-20


def test_collect_matches_direct_dft_computation():
    f = dft_matrix(2, 2).matrix
    proto = ProtocolConfig(t_x=2, t_y=2)
    sv = steering_vector(0.37, -0.21, 2, 2)
    rho = 2.0
    s = 0.8 - 0.3j
    emap = collect_snapshots(unit_field(f, sv, proto, 2, 2), s, rho)
    for t in range(1, 5):
        xi0 = scalar_zeroth_layer_phases(t, 2, 2, proto)
        r = math.sqrt(rho) * (f @ (np.exp(1j * xi0) * sv)) * s
        assert np.allclose(emap.values[:, t - 1], np.abs(r) ** 2, rtol=1e-12)


def per_snapshot_noise(rng, r, t):
    """(R, T) unit complex noise as ``collect_snapshots`` once drew it from a Generator.

    One ``cn_noise`` draw of R samples per snapshot, in snapshot order.
    """
    return np.column_stack([cn_noise(rng, r) for _ in range(t)])


def _per_snapshot_energies(g, sv, s, rho, proto, n_x, n_y, noise):
    """The snapshot-by-snapshot loop that the lattice replaced, as an oracle."""
    values = np.empty((g.shape[0], proto.t))
    for t in range(1, proto.t + 1):
        zeroth = np.exp(1j * scalar_zeroth_layer_phases(t, n_x, n_y, proto))
        r = np.sqrt(rho) * (g @ (zeroth * sv)) * s
        if noise is not None:
            r = r + noise[:, t - 1]
        values[:, t - 1] = np.abs(r) ** 2
    return values


@pytest.mark.parametrize("kind", ["clean", "preset"])
def test_collect_matches_per_snapshot_loop_exactly(kind):
    rng = np.random.default_rng(21)
    proto = ProtocolConfig(t_x=3, t_y=4)
    g = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    sv = steering_vector(0.41, -0.73, 3, 2)
    s = cn_noise(rng, proto.t)[0]
    noise = None if kind == "clean" else cn_noise(np.random.default_rng(8), (5, proto.t))
    want = _per_snapshot_energies(g, sv, s, 2.5, proto, 3, 2, noise)
    got = collect_snapshots(unit_field(g, sv, proto, 3, 2), s, 2.5, noise=noise)
    assert np.array_equal(got.values, want)


@pytest.mark.parametrize("n_x,n_y,t_x,t_y", [(2, 2, 4, 4), (3, 2, 3, 4)])
def test_cli_noise_equals_the_per_snapshot_draws_bit_for_bit(tmp_path, monkeypatch,
                                                             n_x, n_y, t_x, t_y):
    # the CLI draws a run's noise in one call, where collect_snapshots drew it from the
    # Generator one snapshot at a time
    noises = []
    real = cli.collect_snapshots

    def capture(*args, noise=None):
        noises.append(noise)
        return real(*args, noise=noise)

    monkeypatch.setattr(cli, "collect_snapshots", capture)
    doc = {"geometry": {"n_x": n_x, "n_y": n_y}, "protocol": {"t_x": t_x, "t_y": t_y},
           "source": {"psi_x": 0.3, "psi_y": -0.2},
           "estimate": {"snr_db": 10.0, "seed": 7, "ideal": True}}
    (tmp_path / "c.yaml").write_text(yaml.safe_dump(doc))
    assert cli.main(["estimate", "-c", str(tmp_path / "c.yaml"), "-o", str(tmp_path)]) == 0
    want = per_snapshot_noise(np.random.default_rng(7), n_x * n_y, t_x * t_y)
    got, = noises
    assert got.shape == want.shape
    assert np.array_equal(*(np.ascontiguousarray(a).view(np.int64) for a in (got, want)))


def test_collect_trial_axis_maps_equal_one_trial_calls():
    rng = np.random.default_rng(22)
    proto = ProtocolConfig(t_x=3, t_y=2)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    psi_x, psi_y = rng.uniform(-1.0, 1.0, (2, 4))
    symbols = cn_noise(rng, 4)
    noise = cn_noise(rng, (4, 6, proto.t))
    for u in (None, noise):
        maps = collect_snapshots(unit_field(g, steering_vector(psi_x, psi_y, 3, 2), proto, 3, 2),
                                 symbols, 1.7, noise=u)
        assert maps.values.shape == (4, 6, proto.t)
        for i, values in enumerate(maps.values):
            field = unit_field(g, steering_vector(psi_x[i], psi_y[i], 3, 2), proto, 3, 2)
            want = collect_snapshots(field, symbols[i], 1.7, noise=None if u is None else u[i])
            assert np.array_equal(values, want.values)
    # one symbol per trial: K of them for K trials, one for one; a per-snapshot sequence, and
    # one scalar for K trials, are refused
    for sv, bad in ((steering_vector(psi_x, psi_y, 3, 2), symbols[:3]),
                    (steering_vector(psi_x, psi_y, 3, 2), np.ones((4, proto.t), complex)),
                    (steering_vector(psi_x, psi_y, 3, 2), symbols[0]),
                    (steering_vector(psi_x[0], psi_y[0], 3, 2), np.ones(proto.t, complex))):
        with pytest.raises(ValueError, match="one symbol per trial"):
            collect_snapshots(unit_field(g, sv, proto, 3, 2), bad, 1.7)


# ----------------------------------------------------------------- peak search

def peak_read(values):
    """1-based (n, t) that ``estimate_from_map`` reads off an (R, T) map, and off it as a batch.

    The lattice is any of the map's shape: R input cells along x, T snapshots along x.
    """
    lattice = ProtocolConfig(t_x=values.shape[1]).lattice(values.shape[0], 1)
    one = estimate_from_map(EnergyMap(values), lattice)
    batch = estimate_from_map(EnergyMap(values[None]), lattice)
    return (one.n, one.t), (batch.n.item(), batch.t.item())


def test_peak_tie_breaks_to_first_cell():
    assert peak_read(np.ones((4, 4))) == ((1, 1), (1, 1))


def test_peak_earlier_snapshot_wins_tie():
    v = np.zeros((3, 3))
    v[1, 0] = 5.0  # n=2, t=1
    v[0, 1] = 5.0  # n=1, t=2
    assert peak_read(v) == ((2, 1), (2, 1))


def test_peak_single_cell():
    assert peak_read(np.array([[2.5]])) == ((1, 1), (1, 1))


def test_peak_invariant_to_positive_rescale():
    rng = np.random.default_rng(5)
    v = rng.uniform(0.0, 1.0, (4, 16))
    assert peak_read(v) == peak_read(10.0 * v)


# ------------------------------------------------------------- angle recovery

def test_electrical_angles_origin_and_nyquist():
    proto = ProtocolConfig()
    assert electrical_angles(1, 1, 2, 2, proto) == (0.0, 0.0)
    # second bin of a bare 2-element axis is the Nyquist angle, wrapped to -1
    assert electrical_angles(2, 1, 2, 2, proto) == (-1.0, 0.0)
    assert electrical_angles(3, 1, 2, 2, proto) == (0.0, -1.0)


def test_electrical_angles_fine_grid():
    proto = ProtocolConfig(t_x=64, t_y=1)
    psi_x, psi_y = electrical_angles(1, 64, 2, 2, proto)
    assert psi_x == pytest.approx(2 * 63 / 128)
    assert psi_y == 0.0


def test_physical_angles_examples():
    geom = make_geom()
    assert physical_angles(0.0, 0.0, geom) == (0.0, 0.0)
    phi, theta = physical_angles(0.0, 0.5, geom)
    assert phi == pytest.approx(math.pi / 2)
    assert theta == pytest.approx(math.asin(0.5))
    phi, theta = physical_angles(0.6, 0.8, geom)
    assert theta == pytest.approx(math.pi / 2)
    assert phi == pytest.approx(math.atan2(0.8, 0.6))
    (phi,), (theta,) = visible_angles(np.zeros(1), np.zeros(1), 0.5, 0.5)
    assert (phi, theta) == (0.0, 0.0)


def test_physical_angles_unrealizable():
    assert all(math.isnan(a) for a in physical_angles(0.9, 0.9, make_geom()))
    cells = np.array([0.9, -1.0])
    assert np.all(np.isnan(visible_angles(cells, cells, 0.5, 0.5)))
    # the same pair is visible once the elements sit further apart
    (phi,), (theta,) = visible_angles(np.array([0.9]), np.array([0.9]), 0.7, 0.7)
    assert math.sin(theta) == pytest.approx(math.hypot(0.9, 0.9) / 1.4)
    assert phi == pytest.approx(math.pi / 4)


def _half_wave_lattices():
    for n_x, n_y, t_x, t_y in ((2, 2, 4, 4), (4, 4, 8, 8), (3, 2, 3, 2), (1, 5, 7, 3),
                               (5, 1, 2, 1), (2, 3, 5, 5)):
        lattice = ProtocolConfig(t_x=t_x, t_y=t_y).lattice(n_x, n_y)
        yield lattice.psi_x.ravel(), lattice.psi_y.ravel()


@pytest.mark.parametrize("d_x, d_y", [(0.5, 0.5), (0.4, 0.4), (0.7, 0.37)])
def test_visible_angles_arrays_equal_scalar_calls_bit_for_bit(d_x, d_y):
    rng = np.random.default_rng(14)
    cases = list(_half_wave_lattices())
    cases.append(tuple(rng.uniform(-1.0, 1.0, (2, 500))))
    cases.append((np.array([0.0, -0.0, 0.0, -1.0, 0.6, -0.6]),
                  np.array([0.0, 0.0, -0.0, 0.0, 0.8, -0.8])))
    for psi_x, psi_y in cases:
        phi, theta = visible_angles(psi_x, psi_y, d_x, d_y)
        assert phi.shape == theta.shape == psi_x.shape
        for i in range(psi_x.size):
            one = scalar_visible_angles(float(psi_x[i]), float(psi_y[i]), d_x, d_y)
            assert type(one[0]) is float and type(one[1]) is float
            got = (float(phi[i]), float(theta[i]))
            assert np.array_equal(np.array(got), np.array(one), equal_nan=True), (i, got, one)


@pytest.mark.parametrize("d_x, d_y", [(0.5, 0.5), (0.7, 0.37)])
def test_visible_angles_scalar_kinds_equal_the_array_path_bit_for_bit(d_x, d_y):
    # the oracle runs on Python floats (math.sqrt, %); the array path on numpy's
    above = float(np.nextafter(1.0, 2.0))
    cases = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (0.0, 0.5), (-0.25, 0.0),  # psi = 0
             (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),  # radius exactly 1 at d = 0.5
             (above, 0.0), (0.0, -above), (0.9, 0.9), (-0.6, 0.3), (0.123, -0.987)]
    rng = np.random.default_rng(15)
    cases += [tuple(p) for p in rng.uniform(-1.0, 1.0, (200, 2))]
    psi_x, psi_y = (np.array([c[i] for c in cases]) for i in (0, 1))
    phi, theta = visible_angles(psi_x, psi_y, d_x, d_y)
    if (d_x, d_y) == (0.5, 0.5):
        assert np.all(theta[5:9] == math.pi / 2) and np.all(np.isnan(theta[9:12]))
    for i, (x, y) in enumerate(cases):
        want = np.array([phi[i], theta[i]]).view(np.int64)
        for kind in (float, np.float64, np.array):
            one = scalar_visible_angles(kind(x), kind(y), d_x, d_y)
            assert type(one[0]) is float and type(one[1]) is float
            assert np.array_equal(np.array(one).view(np.int64), want), (kind, x, y, one)


def test_visible_angles_agree_with_physical_angles():
    # on every lattice cell, visibility is decided as physical_angles decides it from
    # spacings in meters, and the angles agree to rounding
    for spacing in (0.4, 0.5, 0.7):
        geom = dataclasses.replace(make_geom(), d_x=spacing * LAM, d_y=spacing * LAM)
        for psi_x, psi_y in _half_wave_lattices():
            phi, theta = visible_angles(psi_x, psi_y, spacing, spacing)
            for i in range(psi_x.size):
                want = physical_angles(float(psi_x[i]), float(psi_y[i]), geom)
                if math.isnan(want[0]):
                    assert math.isnan(phi[i]) and math.isnan(theta[i])
                    continue
                assert phi[i] == pytest.approx(want[0], abs=1e-12)
                assert math.sin(theta[i]) == pytest.approx(math.sin(want[1]), abs=1e-12)


def test_estimate_batch_equals_one_map_calls():
    rng = np.random.default_rng(15)
    proto = ProtocolConfig(t_x=3, t_y=2)
    values = rng.uniform(0.0, 1.0, (9, 6, proto.t))
    values[2] = 1.0  # every cell tied: the first cell wins
    values[4, 5, 5] = 7.0  # the last cell
    batch = estimate_from_map(EnergyMap(values), proto.lattice(3, 2))
    assert not batch.realizable or all(
        estimate_from_map(EnergyMap(v), proto.lattice(3, 2)).realizable
        for v in values)
    for i, v in enumerate(values):
        one = estimate_from_map(EnergyMap(v), proto.lattice(3, 2))
        # Python ints and floats, which the estimate manifest's yaml.safe_dump needs
        assert [type(f) for f in dataclasses.astuple(one)] == [int, int] + [float] * 4
        yaml.safe_dump(dataclasses.asdict(one))
        assert np.array_equal([one.phi, one.theta],
                              scalar_visible_angles(one.psi_x, one.psi_y, 0.5, 0.5), equal_nan=True)
        assert (batch.n[i], batch.t[i]) == (one.n, one.t)
        assert (batch.psi_x[i], batch.psi_y[i]) == (one.psi_x, one.psi_y)
        assert (one.psi_x, one.psi_y) == electrical_angles(one.n, one.t, 3, 2, proto)
        assert np.array_equal([batch.phi[i], batch.theta[i]], [one.phi, one.theta],
                              equal_nan=True)
    assert (batch.n[2], batch.t[2]) == (1, 1)
    assert (batch.n[4], batch.t[4]) == (6, 6)


def test_estimate_nan_for_unrealizable_peak():
    proto = ProtocolConfig()
    v = np.zeros((4, 1))
    v[3, 0] = 1.0  # cell (-1, -1): radius sqrt(2) > 1
    est = estimate_from_map(EnergyMap(v), proto.lattice(2, 2))
    assert (est.psi_x, est.psi_y) == (-1.0, -1.0)
    assert not est.realizable
    assert math.isnan(est.phi) and math.isnan(est.theta)
    # at 0.75 wavelengths the same cell lies at radius sqrt(2) / 1.5, inside the visible region
    wide = estimate_from_map(EnergyMap(v), proto.lattice(2, 2, (0.75, 0.75)))
    assert wide.realizable
    geom = dataclasses.replace(make_geom(), d_x=0.75 * LAM, d_y=0.75 * LAM)
    assert (wide.phi, wide.theta) == pytest.approx(physical_angles(-1.0, -1.0, geom), abs=1e-12)


def test_estimate_of_a_one_cell_map_is_broadside():
    est = estimate_from_map(EnergyMap(np.array([[1.0]])), ProtocolConfig().lattice(1, 1))
    assert est.n == 1 and est.t == 1
    assert (est.phi, est.theta) == (0.0, 0.0)


@pytest.mark.parametrize("receivers", [2, 9])
def test_estimate_refuses_receiver_grid_other_than_input_grid(receivers):
    # a 2-row map once came back as a cell of the 2x2 grid, silently
    with pytest.raises(ValueError, match=rf"\({receivers}, 4\) cells.*lattice has \(4, 4\)"):
        estimate_from_map(EnergyMap(np.ones((receivers, 4))),
                          ProtocolConfig(t_x=2, t_y=2).lattice(2, 2))


@pytest.mark.parametrize("snapshots", [8, 20])
def test_estimate_refuses_snapshot_count_other_than_the_lattice(snapshots):
    # on a T=16 lattice a (4, 8) map was read off the wrong cells and a (4, 20) map raised an
    # IndexError; one map and a batch of maps are refused alike
    lattice = ProtocolConfig(t_x=4, t_y=4).lattice(2, 2)
    for shape in ((4, snapshots), (3, 4, snapshots)):
        values = np.zeros(shape)
        values[..., 1, snapshots - 1] = 1.0
        with pytest.raises(ValueError, match=rf"\(4, {snapshots}\) cells.*\(4, 16\)"):
            estimate_from_map(EnergyMap(values), lattice)


def test_on_lattice_round_trip():
    # a clean source placed on any lattice cell is recovered exactly
    f = dft_matrix(2, 2).matrix
    proto = ProtocolConfig(t_x=4, t_y=2)
    rng = np.random.default_rng(11)
    for _ in range(50):
        n0 = int(rng.integers(1, 5))
        t0 = int(rng.integers(1, 9))
        psi = electrical_angles(n0, t0, 2, 2, proto)
        sv = steering_vector(psi[0], psi[1], 2, 2)
        emap = collect_snapshots(unit_field(f, sv, proto, 2, 2), 1.0 + 0j, 1.0)
        est = estimate_from_map(emap, proto.lattice(2, 2))
        assert (est.n, est.t) == (n0, t0)
        assert (est.psi_x, est.psi_y) == psi


# -------------------------------------------------------------------- spectrum

def test_spectrum_on_lattice_is_delta():
    f = dft_matrix(2, 2).matrix
    proto = ProtocolConfig(t_x=4, t_y=4)
    psi = electrical_angles(2, 11, 2, 2, proto)
    sv = steering_vector(psi[0], psi[1], 2, 2)
    emap = collect_snapshots(unit_field(f, sv, proto, 2, 2), 1.0 + 0j, 1.0)
    ax, ay, power = angular_spectrum(emap, proto.lattice(2, 2))
    assert ax.shape == (8,) and ay.shape == (8,)
    assert power.shape == (8, 8)
    iy, ix = np.unravel_index(np.argmax(power), power.shape)
    assert ax[ix] == pytest.approx(psi[0])
    assert ay[iy] == pytest.approx(psi[1])
    assert power[iy, ix] == 1.0


def test_spectrum_peak_snaps_to_nearest_cell():
    f = dft_matrix(2, 2).matrix
    proto = ProtocolConfig(t_x=16, t_y=16)
    sv = steering_vector(0.48, 0.23, 2, 2)
    emap = collect_snapshots(unit_field(f, sv, proto, 2, 2), 1.0 + 0j, 1.0)
    ax, ay, power = angular_spectrum(emap, proto.lattice(2, 2))
    iy, ix = np.unravel_index(np.argmax(power), power.shape)
    assert abs(ax[ix] - 0.48) <= 1.0 / 32 + 1e-12
    assert abs(ay[iy] - 0.23) <= 1.0 / 32 + 1e-12


def test_spectrum_places_every_cell_like_the_scalar_loop():
    # each cell goes to the bin of its own angles; the 9-bin x axis is odd
    proto = ProtocolConfig(t_x=3, t_y=2)
    values = np.random.default_rng(4).uniform(0.5, 1.0, (6, 6))
    ax, ay, power = angular_spectrum(EnergyMap(values), proto.lattice(3, 2))
    cells = [(n, t, *electrical_angles(n, t, 3, 2, proto))
             for t in range(1, 7) for n in range(1, 7)]
    want_x = sorted({px for _, _, px, _ in cells})
    want_y = sorted({py for _, _, _, py in cells})
    assert list(ax) == want_x and list(ay) == want_y
    want = np.zeros((4, 9))
    for n, t, px, py in cells:
        want[want_y.index(py), want_x.index(px)] = values[n - 1, t - 1]
    assert np.array_equal(power, want / want.max())


@pytest.mark.parametrize("n_x, n_y, t_x, t_y", [(3, 2, 3, 2), (1, 1, 5, 3), (3, 3, 1, 1),
                                                (2, 2, 4, 4)])
def test_spectrum_fills_every_bin(n_x, n_y, t_x, t_y):
    # an odd n*t axis once missed the lattice by half a bin: cells collided, bins stayed empty
    proto = ProtocolConfig(t_x=t_x, t_y=t_y)
    ax, ay, power = angular_spectrum(EnergyMap(np.ones((n_x * n_y, proto.t))),
                                     proto.lattice(n_x, n_y))
    assert power.shape == (n_y * t_y, n_x * t_x) == (ay.size, ax.size)
    assert np.all(power == 1.0)


def test_spectrum_rejects_mismatched_map():
    with pytest.raises(ValueError):
        angular_spectrum(EnergyMap(np.ones((4, 3))), ProtocolConfig(t_x=2, t_y=2).lattice(2, 2))


# ---------------------------------------------------------------------- errors

def test_wrapped_error_values():
    assert wrapped_angle_error(0.3, 0.1) == pytest.approx(0.2)
    assert wrapped_angle_error(0.9, -0.9) == pytest.approx(-0.2)
    assert wrapped_angle_error(-0.95, 0.95) == pytest.approx(0.1)
    assert wrapped_angle_error(0.5, 0.5) == 0.0


def test_wrapped_error_range():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a, b = rng.uniform(-1.0, 1.0, 2)
        err = wrapped_angle_error(a, b)
        assert -1.0 <= err < 1.0
        assert abs(err) <= abs(a - b) + 1e-12
