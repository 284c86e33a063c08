import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simdoa.geometry import (
    TWO_PI,
    SimGeometry,
    build_propagation_matrices,
    check_feasibility,
    dft_matrix,
    linear_to_grid,
    steering_vector,
)

LAM = 0.005


# Scalar twins of the vectorized builders, kept here as oracles: the index
# inverse, the two propagation distances and one attenuation coefficient.

def grid_to_linear(ix, iy, width):
    """Inverse of :func:`linear_to_grid`."""
    ix, iy, width = int(ix), int(iy), int(width)
    if not (1 <= ix <= width) or iy < 1:
        raise ValueError("grid coordinates out of range")
    return (iy - 1) * width + ix


def intra_sim_distance(m, m_breve, geom):
    """Propagation distance between meta-atoms on two adjacent inner layers.

    Both indices are 1-based linear indices on the (m_x, m_y) grid. The
    layers are vertically separated by ``geom.s_layer``.
    """
    mx, my = linear_to_grid(m, geom.m_x, geom.m_y)
    bx, by = linear_to_grid(m_breve, geom.m_x, geom.m_y)
    return math.sqrt(
        ((mx - bx) * geom.s_x) ** 2
        + ((my - by) * geom.s_y) ** 2
        + geom.s_layer**2
    )


def input_to_first_distance(m, n, geom):
    """Distance from input-layer atom n to first-layer atom m.

    The two grids are aligned on their centers, so offsets are measured
    between center-referenced element positions.
    """
    mx, my = linear_to_grid(m, geom.m_x, geom.m_y)
    nx, ny = linear_to_grid(n, geom.n_x, geom.n_y)
    dx = (mx - (1 + geom.m_x) / 2.0) * geom.s_x - (nx - (1 + geom.n_x) / 2.0) * geom.d_x
    dy = (my - (1 + geom.m_y) / 2.0) * geom.s_y - (ny - (1 + geom.n_y) / 2.0) * geom.d_y
    return math.sqrt(dx**2 + dy**2 + geom.s_layer**2)


def rs_coefficient(distance, emit_area, geom):
    """Rayleigh-Sommerfeld attenuation coefficient between two elements.

    Returns ``(emit_area * s_layer) / (2*pi*d^3) * (1 - j*kappa*d) * exp(j*kappa*d)``
    where d is the propagation distance. ``emit_area`` is the radiating
    cell area of the transmitting element.
    """
    distance = float(distance)
    emit_area = float(emit_area)
    if distance <= 0.0:
        raise ValueError("distance must be positive")
    if emit_area <= 0.0:
        raise ValueError("emit_area must be positive")
    kd = geom.kappa * distance
    amp = emit_area * geom.s_layer / (TWO_PI * distance**3)
    return amp * (1.0 - 1j * kd) * complex(math.cos(kd), math.sin(kd))


def make_geom(**kw):
    base = dict(
        wavelength=LAM,
        n_x=2, n_y=2, d_x=LAM / 2, d_y=LAM / 2,
        m_x=3, m_y=3, s_x=LAM / 2, s_y=LAM / 2,
        layers=3, thickness=0.015,
    )
    base.update(kw)
    return SimGeometry(**base)


# ---------------------------------------------------------------- index maps

def test_linear_to_grid_first_element():
    assert linear_to_grid(1, 4) == (1, 1)


def test_linear_to_grid_wraps_to_second_row():
    assert linear_to_grid(5, 4) == (1, 2)


def test_linear_to_grid_third_row():
    # ceil(7/3) = 3, 7 - 2*3 = 1
    assert linear_to_grid(7, 3) == (1, 3)


def test_linear_to_grid_rejects_out_of_range():
    with pytest.raises(ValueError):
        linear_to_grid(0, 4)
    with pytest.raises(ValueError):
        linear_to_grid(13, 4, 3)
    with pytest.raises(ValueError, match="^width must be >= 1$"):
        linear_to_grid(1, 0)


@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 144))
def test_grid_round_trip(width, height, idx):
    if idx > width * height:
        idx = ((idx - 1) % (width * height)) + 1
    ix, iy = linear_to_grid(idx, width, height)
    assert 1 <= ix <= width and 1 <= iy <= height
    assert grid_to_linear(ix, iy, width) == idx


# ----------------------------------------------------------------- distances

def test_intra_distance_same_atom_is_layer_gap():
    geom = make_geom()
    assert intra_sim_distance(5, 5, geom) == pytest.approx(geom.s_layer)


def test_intra_distance_adjacent_atom_unit_diagonal():
    geom = make_geom(s_x=0.005, thickness=0.015)  # s_x = s_layer = 5 mm
    assert intra_sim_distance(1, 2, geom) == pytest.approx(math.sqrt(2) * geom.s_layer)


def test_intra_distance_corner_to_corner():
    geom = make_geom()
    expect = math.sqrt(8 * geom.s_x**2 + geom.s_layer**2)
    assert intra_sim_distance(1, 9, geom) == pytest.approx(expect, rel=1e-15)


def test_input_distance_collapsed_grids():
    geom = make_geom(n_x=1, n_y=1, m_x=1, m_y=1)
    assert input_to_first_distance(1, 1, geom) == pytest.approx(geom.s_layer)


def test_input_distance_center_atom_over_single_source():
    geom = make_geom(n_x=1, n_y=1, m_x=3, m_y=3)
    assert input_to_first_distance(5, 1, geom) == pytest.approx(geom.s_layer)


def test_input_distance_scalar_oracle():
    # m=1 on 3x3 at s=lam/2 sits at (-s, -s); n=1 on 2x2 at d=lam/2 sits
    # at (-d/2, -d/2); offset per axis is -s + d/2 = -1.25 mm
    geom = make_geom()
    off = -geom.s_x + geom.d_x / 2.0
    expect = math.sqrt(2 * off**2 + geom.s_layer**2)
    assert input_to_first_distance(1, 1, geom) == pytest.approx(expect, rel=1e-15)


# -------------------------------------------------------------- coefficients

def test_rs_coefficient_modulus_identity():
    geom = make_geom()
    d, area = 0.004, (LAM / 2) ** 2
    w = rs_coefficient(d, area, geom)
    expect = area * geom.s_layer / (2 * math.pi * d**3) * math.sqrt(1 + (geom.kappa * d) ** 2)
    assert abs(w) == pytest.approx(expect, rel=1e-14)


def test_rs_coefficient_linear_in_area():
    geom = make_geom()
    w1 = rs_coefficient(0.003, 1e-6, geom)
    w2 = rs_coefficient(0.003, 2e-6, geom)
    assert w2 == pytest.approx(2 * w1, rel=1e-14)
    assert cmath.phase(w2) == pytest.approx(cmath.phase(w1))


def test_rs_coefficient_one_wavelength_oracle():
    # d = s_layer = lam, A = (lam/2)^2: amp = A*lam/(2*pi*lam^3), kd = 2*pi
    geom = make_geom(layers=1, thickness=LAM)
    w = rs_coefficient(LAM, (LAM / 2) ** 2, geom)
    amp = (LAM / 2) ** 2 * LAM / (2 * math.pi * LAM**3)
    expect = amp * (1 - 2j * math.pi) * cmath.exp(2j * math.pi)
    assert w == pytest.approx(expect, rel=1e-12)


def test_rs_coefficient_magnitude_decreasing_far_field():
    geom = make_geom()
    dists = np.linspace(2 * LAM, 40 * LAM, 50)
    mags = [abs(rs_coefficient(d, 1e-6, geom)) for d in dists]
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_rs_coefficient_rejects_nonpositive():
    geom = make_geom()
    with pytest.raises(ValueError):
        rs_coefficient(0.0, 1e-6, geom)
    with pytest.raises(ValueError):
        rs_coefficient(0.003, -1e-6, geom)


# ---------------------------------------------------------------- matrix set

def test_propagation_isomorphic_receiver_transpose():
    props = build_propagation_matrices(make_geom())
    assert np.array_equal(props.w_last, props.w0.T)


def test_propagation_single_layer_has_no_inner():
    props = build_propagation_matrices(make_geom(layers=1, thickness=0.005))
    assert props.w_inner == ()
    assert props.w0.shape == (9, 4)
    assert props.w_last.shape == (4, 9)


def test_propagation_entries_match_scalar_oracle():
    geom = make_geom(layers=2, thickness=0.010)
    props = build_propagation_matrices(geom)
    for m in range(1, geom.m + 1):
        for n in range(1, geom.n + 1):
            expect = rs_coefficient(
                input_to_first_distance(m, n, geom), geom.d_x * geom.d_y, geom)
            assert props.w0[m - 1, n - 1] == pytest.approx(expect, rel=1e-13)
    for m in range(1, geom.m + 1):
        for b in range(1, geom.m + 1):
            expect = rs_coefficient(
                intra_sim_distance(m, b, geom), geom.s_x * geom.s_y, geom)
            assert props.w_inner[0][m - 1, b - 1] == pytest.approx(expect, rel=1e-13)


def test_propagation_rotated_receiver_differs():
    straight = build_propagation_matrices(make_geom())
    rotated = build_propagation_matrices(make_geom(rotation=math.pi / 6))
    assert not np.allclose(straight.w_last, rotated.w_last)
    # full-turn rotation comes back to the transpose
    full = build_propagation_matrices(make_geom(rotation=2 * math.pi))
    assert np.allclose(full.w_last, straight.w_last, rtol=1e-9)


def test_geometry_validation():
    with pytest.raises(ValueError):
        make_geom(n_x=0)
    with pytest.raises(ValueError):
        make_geom(s_x=-0.001)
    with pytest.raises(ValueError):
        make_geom(thickness=0.0)


@pytest.mark.parametrize("name,value,message", [
    ("rotation", math.nan, "must be finite, got nan"),
    ("rotation", -math.inf, "must be finite, got -inf"),
    ("n_x", 0, "must be >= 1, got 0"),
    ("d_y", 0.0, "must be positive and finite, got 0.0"),
    ("u_x", math.inf, "must be positive and finite, got inf"),
    ("wavelength", "0.005", "must be a real number, got '0.005'"),
    ("layers", 2.0, "must be an integer, got 2.0"),
])
def test_geometry_refusals_name_the_field(name, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(name + ' ' + message)}$"):
        make_geom(**{name: value})


@pytest.mark.parametrize("name", ["n_x", "m_y", "layers"])
@pytest.mark.parametrize("value", [True, np.True_])
def test_geometry_refuses_bool_counts(name, value):
    # a bool was accepted as the count 1
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        make_geom(**{name: value})


def _scaled(factor, **kw):
    """make_geom with every length times ``factor``."""
    lengths = dict(wavelength=LAM, d_x=LAM / 2, d_y=LAM / 2, s_x=LAM / 2, s_y=LAM / 2,
                   thickness=0.015)
    return make_geom(**{k: v * factor for k, v in lengths.items()}, **kw)


@pytest.mark.parametrize("geom", [
    _scaled(1e300), _scaled(1e-300), make_geom(d_x=1e300),
    make_geom(u_x=1e300, rotation=0.3),  # only the rotated receiver's matrix leaves the range
], ids=["huge-lengths", "tiny-lengths", "huge-input-spacing", "huge-receiver-spacing"])
def test_propagation_beyond_a_float_raises_naming_the_geometry(geom):
    # the layer gap's square raised OverflowError; tiny lengths or huge spacings warned
    # "invalid value encountered in divide" and gave NaN matrices
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^propagation coefficients beyond a float's"
                                             r" range for SimGeometry\(wavelength="):
            build_propagation_matrices(geom)


# ------------------------------------------------------------------ steering

def test_steering_zero_angles_all_ones():
    sv = steering_vector(0.0, 0.0, 3, 2)
    assert np.array_equal(sv, np.ones(6))


def test_steering_endfire_alternates():
    sv = steering_vector(1.0, 0.0, 2, 1)  # normalized angles: a progression of pi radians
    assert sv == pytest.approx([1.0, -1.0])


def test_steering_kronecker_oracle():
    px, py = 0.48 * math.pi, 0.23 * math.pi
    ax = np.array([1.0, cmath.exp(1j * px)])
    ay = np.array([1.0, cmath.exp(1j * py)])
    sv = steering_vector(0.48, 0.23, 2, 2)
    assert sv == pytest.approx(np.kron(ay, ax), rel=1e-15)


def test_steering_equals_kronecker_product_exactly():
    rng = np.random.default_rng(6)
    for _ in range(200):
        nx, ny = (int(v) for v in rng.integers(1, 9, 2))
        psi_x, psi_y = rng.uniform(-4.0, 4.0, 2)
        ax = np.exp(1j * (np.pi * psi_x) * np.arange(nx))
        ay = np.exp(1j * (np.pi * psi_y) * np.arange(ny))
        assert np.array_equal(steering_vector(psi_x, psi_y, nx, ny), np.kron(ay, ax))


def test_steering_rows_equal_one_wave_calls_exactly():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k, nx, ny = (int(v) for v in rng.integers(1, 9, 3))
        px, py = rng.uniform(-4.0, 4.0, (2, k))
        px[0] = 0.0 if k % 2 else -0.0  # signed zeros stay signed
        sv = steering_vector(px, py, nx, ny)
        assert sv.shape == (k, nx * ny)
        for row, x, y in zip(sv, px, py):
            one = steering_vector(float(x), float(y), nx, ny)
            assert np.array_equal(row, one)
            assert np.array_equal(np.signbit(row.view(float)), np.signbit(one.view(float)))
    with pytest.raises(ValueError):
        steering_vector(np.array([0.1, np.nan]), np.array([0.0, 0.0]), 2, 2)


def test_scalar_steering_equals_its_array_row_and_the_outer_form_bit_for_bit():
    # the one-wave call forms (ay[:, None] * ax), where it once called np.outer
    rng = np.random.default_rng(8)
    for _ in range(200):
        k, nx, ny = (int(v) for v in rng.integers(1, 7, 3))
        px, py = rng.uniform(-4.0, 4.0, (2, k))
        px[0], py[-1] = -0.0, 0.0
        rows = steering_vector(px, py, nx, ny)
        for row, x, y in zip(rows, px, py):
            one = steering_vector(float(x), float(y), nx, ny)
            outer = np.outer(np.exp(1j * (np.pi * y) * np.arange(ny)),
                             np.exp(1j * (np.pi * x) * np.arange(nx)))
            assert one.shape == (nx * ny,)
            assert np.array_equal(one.view(np.int64), row.view(np.int64))
            assert np.array_equal(one.view(np.int64), outer.ravel().view(np.int64))


@pytest.mark.parametrize("psi_x,psi_y,n_x,n_y", [
    (1e308, 0.1, 3, 2), (0.1, -1e308, 2, 3), (6e307, 0.1, 4, 1),
    (math.inf, 0.1, 1, 1), (0.1, math.nan, 2, 2), (1e308, 0.1, 1, 1),
    # pi * psi fits a float and the ramp does not
    (1e308 / math.pi, 0.1, 3, 2), (0.1, -1e308 / math.pi, 2, 3), (6e307 / math.pi, 0.1, 4, 1),
    # numpy scalars, whose products beyond a float's range warn where Python's do not
    (np.float64(1.7976931348623157e308), 0.1, 1, 1), (0.1, np.float64(4e307), 2, 3),
])
def test_scalar_steering_refuses_a_ramp_beyond_a_float(psi_x, psi_y, n_x, n_y):
    # a finite progression whose ramp pi * psi * (n - 1) overflows warned 'overflow encountered
    # in multiply' and 'invalid value encountered in exp', and gave NaN entries
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="steering angles must be finite"):
            steering_vector(psi_x, psi_y, n_x, n_y)
    # the largest ramp that fits is kept
    assert np.all(np.isfinite(steering_vector(8e307 / math.pi, -1e308 / math.pi, 3, 2)))


@pytest.mark.parametrize("psi_x,psi_y,n_x,n_y", [
    ([1e308, 0.1], [0.1, 0.2], 3, 2), ([0.1, 4e307], [0.1, 0.2], 3, 2),
    ([0.1, 0.2], [0.3, -4e307], 2, 3), ([0.1, 0.2], [0.3, math.inf], 2, 1),
    ([math.nan, 0.2], [0.3, 0.4], 1, 2),
])
def test_array_steering_refuses_a_ramp_beyond_a_float(psi_x, psi_y, n_x, n_y):
    # the K-wave path warned 'overflow encountered in multiply' and gave NaN rows for a finite
    # psi whose ramp overflows, where the one-wave path refused it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="steering angles must be finite"):
            steering_vector(np.array(psi_x), np.array(psi_y), n_x, n_y)
    rows = steering_vector(np.array([8e307, 0.1]) / math.pi, np.array([-1e308, 0.2]) / math.pi,
                           3, 2)
    assert np.all(np.isfinite(rows))


@given(st.floats(-10, 10), st.floats(-10, 10))
@settings(max_examples=50)
def test_steering_unit_modulus(px, py):
    sv = steering_vector(px, py, 4, 3)
    assert np.max(np.abs(np.abs(sv) - 1.0)) < 1e-14
    assert sv[0] == 1.0


# ----------------------------------------------------------------- dft target

def test_dft_single_point():
    assert np.array_equal(dft_matrix(1, 1).matrix, [[1.0]])


@pytest.mark.parametrize("n_x,n_y", [(0, 2), (2, 0), (-1, 3)])
def test_dft_refuses_an_empty_grid(n_x, n_y):
    with pytest.raises(ValueError, match="^grid sizes must be >= 1$"):
        dft_matrix(n_x, n_y)


def test_dft_two_point():
    assert np.allclose(dft_matrix(2, 1).matrix, [[1, 1], [1, -1]], atol=1e-15)


def test_dft_2x2_kron_oracle():
    f2 = np.array([[1, 1], [1, -1]], dtype=complex)
    assert np.allclose(dft_matrix(2, 2).matrix, np.kron(f2, f2), atol=1e-15)


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 2), (4, 4), (8, 8), (8, 4)])
def test_dft_scaled_unitary(nx, ny):
    f = dft_matrix(nx, ny).matrix
    n = nx * ny
    assert np.linalg.norm(f @ f.conj().T - n * np.eye(n)) <= 1e-12 * n
    assert np.linalg.norm(f, "fro") ** 2 == pytest.approx(n * n)


def test_dft_is_shared_and_read_only():
    f = dft_matrix(3, 2)
    assert dft_matrix(3, 2) is f
    with pytest.raises(ValueError):
        f.matrix[0, 0] = 0.0


def test_dft_structure():
    f = dft_matrix(4, 4).matrix
    assert np.allclose(np.abs(f), 1.0)
    assert np.allclose(f[0], 1.0) and np.allclose(f[:, 0], 1.0)
    assert np.allclose(f, f.T)


# --------------------------------------------------------------- feasibility

def test_feasibility_reference_design():
    assert check_feasibility(make_geom(m_x=11, m_y=11, layers=7, thickness=0.045)) == ""


def test_feasibility_rank_limited():
    note = check_feasibility(make_geom(m_x=3, m_y=1))
    assert note == "M=3 < N=4: response rank is at most 3, zero loss unattainable"


def test_feasibility_boundary_equal():
    assert check_feasibility(make_geom(m_x=2, m_y=2)) == ""


# ------------------------------------------------------------------ misc api

def test_derived_quantities():
    geom = make_geom(layers=7, thickness=0.045)
    assert geom.s_layer == pytest.approx(0.045 / 7)
    assert geom.kappa == pytest.approx(2 * math.pi / LAM)
    assert geom.n == 4 and geom.m == 9
    assert geom.receiver_isomorphic
    assert not make_geom(u_x=LAM).receiver_isomorphic
    assert not make_geom(rotation=0.1).receiver_isomorphic
