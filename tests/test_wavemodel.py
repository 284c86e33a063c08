import math
import sys
import warnings

import numpy as np
import pytest

from simdoa.estimator import ProtocolConfig, collect_snapshots, zeroth_layer_phase
from simdoa.geometry import (SimGeometry, build_propagation_matrices,
                             dft_matrix, steering_vector)
from simdoa.wavemodel import (
    DB_FLOOR,
    PhaseStack,
    cn_noise,
    complex_gaussian,
    fitting_loss,
    forward_response,
    optimal_scale,
    random_stack,
    scale_field,
    synthesize_received,
)

LAM = 0.005


def received(g, zeroth, sv, s, rho, noise=None):
    """Snapshots sqrt(rho) * G Y_0 a s + noise, as the scaled synthesis once returned them.

    ``zeroth`` holds the transmissions exp(j xi0). A one-snapshot ``zeroth``
    (N,) runs as a single column, and the result drops that column again:
    length R, or (K, R) for K trials.
    """
    if zeroth.ndim == 2:
        return scale_field(synthesize_received(g, zeroth, sv), s, rho, noise)
    column = zeroth[:, None]
    # one snapshot: its column axis goes after the symbols have broadcast against it
    noise = None if noise is None else np.asarray(noise)[..., None]
    return scale_field(synthesize_received(g, column, sv), s, rho, noise)[..., 0]


def make_props(layers=2, m_side=3, n_side=2):
    geom = SimGeometry(
        wavelength=LAM,
        n_x=n_side, n_y=n_side, d_x=LAM / 2, d_y=LAM / 2,
        m_x=m_side, m_y=m_side, s_x=LAM / 2, s_y=LAM / 2,
        layers=layers, thickness=0.005 * layers,
    )
    return build_propagation_matrices(geom)


# ---------------------------------------------------------------- phase stack

def test_phase_stack_reduces_and_is_unit_modulus():
    stack = PhaseStack([np.array([0.0, 2 * math.pi + 0.5, -0.25])])
    assert stack.xi[0] == pytest.approx([0.0, 0.5, 2 * math.pi - 0.25])
    assert np.max(np.abs(np.abs(stack.transmissions()[0]) - 1.0)) < 1e-15


def test_random_stack_shape_and_range():
    stack = random_stack(3, 9, np.random.default_rng(0))
    assert stack.layers == 3
    for xi in stack.xi:
        assert xi.shape == (9,)
        assert np.all((xi >= 0.0) & (xi < 2 * math.pi))


def test_random_stack_draws_layer_after_layer():
    # one (L, M) draw equals L per-layer draws and leaves the generator where they leave it
    for seed in range(50):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        stack = random_stack(13, 225, rng)
        rows = [oracle.uniform(0.0, 2 * math.pi, size=225) for _ in range(13)]
        assert np.array_equal(stack.xi.view(np.int64), np.array(rows).view(np.int64))
        assert rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("phases", [
    [np.zeros(3), np.zeros(4)],
    np.zeros(3),
    np.zeros((2, 3, 4)),
], ids=["ragged", "1-D", "3-D"])
def test_phase_stack_refuses_phases_that_are_not_l_by_m(phases):
    with pytest.raises(ValueError):
        PhaseStack(phases)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phase_stack_refuses_phases_that_are_not_finite(bad):
    # a NaN phase was accepted, and forward_response then returned NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^phases must be finite$"):
            PhaseStack([[0.0, bad], [1.0, 2.0]])


def test_phase_stack_holds_one_array_and_all_transmissions():
    stack = PhaseStack([np.array([0.5, -0.25]), np.array([7.0, 1.0])])
    assert isinstance(stack.xi, np.ndarray) and stack.xi.shape == (2, 2)
    assert np.array_equal(stack.transmissions(), np.exp(1j * stack.xi))
    copy = stack.copy()
    copy.xi[0, 0] = 1.0
    assert stack.xi[0, 0] == 0.5


# ------------------------------------------------------------------- response

def test_forward_identity_phases_is_plain_product():
    props = make_props(layers=1)
    stack = PhaseStack([np.zeros(9)])
    assert np.allclose(forward_response(props, stack), props.w_last @ props.w0)


def test_forward_global_phase_factors_out():
    props = make_props(layers=3)
    rng = np.random.default_rng(1)
    stack = random_stack(3, 9, rng)
    c = 0.7
    shifted = PhaseStack([x + c for x in stack.xi])
    g0 = forward_response(props, stack)
    g1 = forward_response(props, shifted)
    assert np.allclose(g1, np.exp(1j * 3 * c) * g0, rtol=1e-12)


def test_forward_matches_huygens_sum():
    # naive per-entry propagation: sum over every inner-atom path
    props = make_props(layers=2)
    rng = np.random.default_rng(2)
    stack = random_stack(2, 9, rng)
    y1 = np.exp(1j * stack.xi[0])
    y2 = np.exp(1j * stack.xi[1])
    g = forward_response(props, stack)
    for r in range(4):
        for n in range(4):
            acc = 0.0 + 0.0j
            for m2 in range(9):
                for m1 in range(9):
                    acc += (props.w_last[r, m2] * y2[m2]
                            * props.w_inner[0][m2, m1] * y1[m1]
                            * props.w0[m1, n])
            assert g[r, n] == pytest.approx(acc, rel=1e-12)


def test_forward_fold_order_invariance():
    props = make_props(layers=3)
    stack = random_stack(3, 9, np.random.default_rng(3))
    g = forward_response(props, stack)
    # left fold: start from w_last and absorb factors leftward
    acc = props.w_last @ np.diag(np.exp(1j * stack.xi[2]))
    acc = acc @ props.w_inner[1] @ np.diag(np.exp(1j * stack.xi[1]))
    acc = acc @ props.w_inner[0] @ np.diag(np.exp(1j * stack.xi[0]))
    acc = acc @ props.w0
    assert np.linalg.norm(acc - g) <= 1e-10 * np.linalg.norm(g)


def test_forward_rejects_layer_mismatch():
    props = make_props(layers=2)
    with pytest.raises(ValueError):
        forward_response(props, random_stack(3, 9, np.random.default_rng(0)))


def test_layer_passivity():
    stack = random_stack(1, 16, np.random.default_rng(4))
    v = np.random.default_rng(5).standard_normal(16) + 1j
    assert np.linalg.norm(stack.transmissions()[0] * v) == pytest.approx(np.linalg.norm(v))


# ---------------------------------------------------------------------- scale

def test_optimal_scale_perfect_fit():
    f = dft_matrix(2, 2).matrix
    assert optimal_scale(f, f) == pytest.approx(1.0)


def test_optimal_scale_complex_inverse():
    f = dft_matrix(2, 2).matrix
    assert optimal_scale(2j * f, f) == pytest.approx(-0.5j)


def test_optimal_scale_first_order_optimality():
    rng = np.random.default_rng(6)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    f = dft_matrix(2, 2).matrix
    beta = optimal_scale(g, f)
    base = fitting_loss(g, f, beta)[0]
    for db in (1e-7, 1e-7j, -1e-7, -1e-7j):
        assert fitting_loss(g, f, beta + db)[0] >= base


def test_optimal_scale_minimizes_over_candidates():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    f = dft_matrix(2, 2).matrix
    best = fitting_loss(g, f, optimal_scale(g, f))[0]
    for _ in range(100):
        cand = rng.standard_normal() + 1j * rng.standard_normal()
        assert best <= fitting_loss(g, f, cand)[0] + 1e-12


def test_optimal_scale_rejects_zero_response():
    with pytest.raises(ValueError):
        optimal_scale(np.zeros((2, 2)), dft_matrix(2, 1).matrix)


@pytest.mark.parametrize("g,power", [(np.full((2, 2), math.nan), "nan"),
                                     (np.full((2, 2), 1e200 + 0j), "inf")],
                         ids=["nan", "overflowing-power"])
def test_optimal_scale_refuses_a_response_power_that_is_not_finite(g, power):
    # an all-NaN g warned 'invalid value encountered in scalar divide', and 1e200 entries,
    # whose |g|**2 overflows, gave a scale of -0j with no refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^response power sum\(\|g\|\^2\) is {power},"):
            optimal_scale(g, dft_matrix(2, 2).matrix)


# ----------------------------------------------------------------------- loss

def test_loss_exact_fit_hits_sentinel():
    f = dft_matrix(2, 2).matrix
    loss, db = fitting_loss(f, f, 1.0)
    assert loss == 0.0 and db == DB_FLOOR


def test_loss_zero_information_reads_zero_db():
    f = dft_matrix(2, 2).matrix
    loss, db = fitting_loss(np.zeros_like(f), f, 1.0)
    assert loss == pytest.approx(16.0)  # N^2
    assert db == pytest.approx(0.0, abs=1e-12)


def test_loss_shape_mismatch():
    with pytest.raises(ValueError):
        fitting_loss(np.ones((2, 2)), np.ones((3, 3)), 1.0)


# ------------------------------------------------------------------ snapshots

def test_received_no_signal_is_noise():
    f = dft_matrix(2, 2).matrix
    zeroth = np.exp(1j * np.zeros(4))
    sv = steering_vector(0.3, -0.2, 2, 2)
    u = cn_noise(np.random.default_rng(8), 4)
    r = received(f, zeroth, sv, 1.0 + 0j, 0.0, noise=u)
    assert np.array_equal(r, u)


def test_received_on_bin_concentrates():
    # source exactly on DFT bin k: inner products are N there, 0 elsewhere
    n_x = n_y = 2
    f = dft_matrix(n_x, n_y).matrix
    zeroth = np.exp(1j * np.zeros(4))
    rho = 2.5
    for k in range(4):
        kx = k % n_x
        ky = k // n_x
        sv = steering_vector(2 * kx / n_x, 2 * ky / n_y, n_x, n_y)
        r = received(f, zeroth, sv, 1.0 + 0j, rho)
        mags = np.abs(r)
        assert mags[k] == pytest.approx(math.sqrt(rho) * 4, rel=1e-12)
        mags[k] = 0.0
        assert np.max(mags) < 1e-12


def test_received_off_grid_matches_digital_dft():
    f = dft_matrix(2, 2).matrix
    rng = np.random.default_rng(9)
    xi0 = rng.uniform(0, 2 * math.pi, 4)
    zeroth = np.exp(1j * xi0)
    sv = steering_vector(0.48, 0.23, 2, 2)
    s = 0.8 - 0.3j
    r = received(f, zeroth, sv, s, 4.0)
    oracle = 2.0 * f @ (np.exp(1j * xi0) * sv * s)
    assert np.allclose(r, oracle, rtol=1e-12)


def test_received_rejects_bad_inputs():
    f = dft_matrix(2, 2).matrix
    zeroth = np.exp(1j * np.zeros(4))
    sv = steering_vector(0.0, 0.0, 2, 2)
    with pytest.raises(ValueError):
        received(f, zeroth, sv, 1.0, -1.0)
    with pytest.raises(ValueError):
        received(f, zeroth, sv, 1.0, 1.0, noise=np.zeros(3))
    with pytest.raises(ValueError):  # one symbol a trial: a per-snapshot sequence is refused
        scale_field(synthesize_received(f, np.ones((4, 3)), sv), np.ones(3), 1.0)


@pytest.mark.parametrize("symbols", ["per_trial"])  # one symbol a trial, the only form
@pytest.mark.parametrize("columns", [True, False])
def test_received_trial_axis_slices_equal_one_trial_calls(symbols, columns):
    rng = np.random.default_rng(12)
    k, r, n, t = 5, 3, 6, 7
    g = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    zeroth = np.exp(1j * rng.uniform(0, 7, (n, t) if columns else n))
    entries = np.exp(1j * rng.uniform(0, 7, (k, n)))
    s = cn_noise(rng, k)
    shape = (r, t) if columns else (r,)
    noise = cn_noise(rng, (k, *shape))
    for u in (None, noise):
        got = received(g, zeroth, entries, s, 2.5, u)
        assert got.shape == (k, *shape)
        for i in range(k):
            want = received(g, zeroth, entries[i], s[i], 2.5, None if u is None else u[i])
            assert np.array_equal(got[i], want)


def test_scale_field_refuses_symbols_other_than_one_per_trial():
    # a wrong count was once refused only by numpy's broadcast error, which names no argument;
    # one scalar for K trials is refused too
    one, batch = np.ones((4, 3), complex), np.ones((2, 4, 3), complex)
    for field, s, want in ((one, np.ones(3), r"\(\), got \(3,\)"),
                           (batch, np.ones(3), r"\(2,\), got \(3,\)"),
                           (batch, 0.6 - 0.8j, r"\(2,\), got \(\)"),
                           (batch, np.ones((2, 3)), r"\(2,\), got \(2, 3\)")):
        with pytest.raises(ValueError, match="expected one symbol per trial, " + want):
            scale_field(field, s, 1.0)


def test_synthesized_field_is_the_unit_field_column_by_column():
    rng = np.random.default_rng(30)
    g = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    zeroth = np.exp(1j * rng.uniform(0, 7, (5, 4)))
    sv = np.exp(1j * rng.uniform(0, 7, 5))
    field = synthesize_received(g, zeroth, sv)
    assert field.shape == (3, 4)
    for t in range(4):
        assert np.array_equal(field[:, t], g @ (zeroth[:, t] * sv))


def _signed_zero_fields():
    """(K, R, T) unit fields with +-0 parts, K = R = T = 4.

    The exact DFT and a response with zero rows, both on lattice bins, and
    a field whose real and imaginary parts run through every sign of zero.
    """
    rng = np.random.default_rng(31)
    lattice = ProtocolConfig(t_x=2, t_y=2).lattice(2, 2)
    sv = steering_vector(lattice.psi_x[:, 1], lattice.psi_y[:, 1], 2, 2)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g[1] = g[3] = 0.0
    parts = np.array([[re, im] for re in (0.0, -0.0, 0.7, -0.7) for im in (0.0, -0.0, 0.3, -0.3)])
    hand = np.ascontiguousarray(parts).view(complex)[:, 0].reshape(4, 4)
    return [synthesize_received(dft_matrix(2, 2).matrix, lattice.zeroth, sv),
            synthesize_received(g, lattice.zeroth, sv),
            np.stack([hand, -hand, hand.T, np.conj(hand)])]


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("per_trial", [False, True])
def test_scaling_the_unit_field_once_keeps_the_energies_of_scaling_it_twice(noisy, per_trial):
    # the bound's clean field was once scaled by sqrt(1) and 1 before the snapshots
    # scaled it again; that pass can flip only signed zeros, which |r|^2 erases
    rng = np.random.default_rng(32)
    s = cn_noise(rng, 4) if per_trial else np.full(4, 0.6 - 0.8j)
    noise = cn_noise(rng, (4, 4, 4)) if noisy else None
    flipped = False
    for field in _signed_zero_fields():
        twice = scale_field(field, np.full(4, 1.0), 1.0)
        flipped |= bool(np.any(np.signbit([twice.real, twice.imag])
                               != np.signbit([field.real, field.imag])))
        for rho in (0.0, 2.5):
            once = np.abs(scale_field(field, s, rho, noise)) ** 2
            want = np.abs(scale_field(twice, s, rho, noise)) ** 2
            assert np.array_equal(once.view(np.int64), want.view(np.int64))
    assert flipped  # the fields do hold zeros whose sign the extra pass changes


def test_zeroth_transmission_is_computed_once_and_read_only():
    # the lattice holds exp(j xi0) alone, built once per grid; zeroth_layer_phase already
    # reduces into [0, 2*pi), so the reduction that the removed record applied again changed
    # no phase
    for proto, n_x, n_y in ((ProtocolConfig(t_x=3, t_y=2), 2, 2),
                            (ProtocolConfig(t_x=5, t_y=7), 3, 4)):
        lattice = proto.lattice(n_x, n_y)
        schedule = lattice.zeroth
        assert schedule is proto.lattice(n_x, n_y).zeroth
        xi0 = zeroth_layer_phase(np.arange(1, n_x * n_y + 1)[:, None], np.arange(1, proto.t + 1),
                                 n_x, n_y, proto)
        assert np.array_equal(np.mod(xi0, 2.0 * np.pi), xi0)
        assert np.all((xi0 >= 0.0) & (xi0 < 2.0 * np.pi))
        assert np.array_equal(schedule.view(np.int64), np.exp(1j * xi0).view(np.int64))
        assert not schedule.flags.writeable
        with pytest.raises(ValueError):
            schedule[0] = 0.0
        with pytest.raises(AttributeError):
            lattice.zeroth = schedule


def two_call_cn_noise(rng, shape, variance=1.0):
    """``cn_noise`` as two draws of ``shape``, real parts first, scaled as ``complex_gaussian``."""
    re, im = rng.standard_normal(shape), rng.standard_normal(shape)
    out = np.empty(np.shape(re), dtype=complex)
    np.multiply(np.sqrt(variance / 2.0), re, out=out.real)
    np.multiply(np.sqrt(variance / 2.0), im, out=out.imag)
    return out


@pytest.mark.parametrize("variance", [1.0, 0.25, 1.0 / 6.0])
def test_cn_noise_equals_two_draws_bit_for_bit(variance):
    rng, oracle_rng = np.random.default_rng(21), np.random.default_rng(21)
    for shape in (4, np.int64(3), (), (5,), [2, 3], (4, 16), (3, 4, 6)):
        got = cn_noise(rng, shape, variance)
        want = two_call_cn_noise(oracle_rng, shape, variance)
        assert got.shape == np.shape(want) and got.dtype == complex
        assert np.array_equal(got.reshape(-1).view(np.int64), want.reshape(-1).view(np.int64))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("variance", [0.0, 5e-324, 1.0, 1e300, sys.float_info.max])
def test_cn_noise_equals_complex_gaussian_of_its_draws_bit_for_bit(variance):
    # cn_noise skips complex_gaussian's range scan, which its ziggurat normals cannot fail
    rng, oracle_rng = np.random.default_rng(22), np.random.default_rng(22)
    for shape in (5, (4, 16), (3, 4, 6)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cn_noise(rng, shape, variance)
            want = complex_gaussian(*oracle_rng.standard_normal((2, *np.atleast_1d(shape))),
                                    variance)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.reshape(-1).view(np.int64), want.reshape(-1).view(np.int64))
        assert np.all(np.isfinite(got))


@pytest.mark.parametrize("re_shape,im_shape", [((2, 2), (2,)), ((4,), (1, 4)), ((), (1,)),
                                               ((3, 4), (4, 3))])
def test_complex_gaussian_refuses_parts_of_two_shapes(re_shape, im_shape):
    # an im of another shape was broadcast into re's: complex_gaussian(np.zeros((2, 2)),
    # np.ones(2)) gave rows of identical imaginary parts
    with pytest.raises(ValueError) as refusal:
        complex_gaussian(np.zeros(re_shape), np.ones(im_shape))
    assert str(refusal.value) == f"re has shape {re_shape} but im has shape {im_shape}"


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("bad", [np.ones(3, complex), np.array(["1", "2", "3"]),
                                 np.ones(3, bool), np.ones(3, object)],
                         ids=["complex", "string", "bool", "object"])
def test_complex_gaussian_refuses_parts_that_are_not_integer_or_float(part, bad):
    # a complex part lost its imaginary half with only a ComplexWarning, and strings were
    # parsed as numbers
    parts = {"re": np.zeros(3), "im": np.ones(3), part: bad}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as refusal:
            complex_gaussian(parts["re"], parts["im"])
    assert str(refusal.value) == f"{part} must be integer or float, got dtype {bad.dtype}"


def test_complex_gaussian_takes_integer_and_float_parts():
    got = complex_gaussian(np.arange(3, dtype=np.uint8), np.ones(3, np.float32), 2.0)
    assert np.array_equal(got, np.arange(3) + 1j)


def test_noise_unit_variance():
    u = cn_noise(np.random.default_rng(10), 100_000)
    assert np.mean(np.abs(u) ** 2) == pytest.approx(1.0, rel=0.02)
    assert np.var(u.real) == pytest.approx(0.5, rel=0.03)
    assert np.var(u.imag) == pytest.approx(0.5, rel=0.03)


@pytest.mark.parametrize("variance", [-1.0, math.nan, math.inf])
def test_cn_noise_refuses_a_variance_that_is_not_finite_and_non_negative(variance):
    # a NaN or infinite variance made NaN or infinite noise, and a negative one raised
    # math.sqrt's 'math domain error', which names no argument
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="variance must be >= 0 and finite"):
        cn_noise(rng, (4, 3), variance)


@pytest.mark.parametrize("s,rho,message", [
    (complex(math.nan, 0.0), 10.0, "symbol s must be finite"),
    (complex(0.0, math.inf), 10.0, "symbol s must be finite"),
    (np.array([1.0, math.nan]), 10.0, "symbol s must be finite"),
    (1.0 + 0j, math.nan, "rho must be >= 0 and finite"),
    (1.0 + 0j, math.inf, "rho must be >= 0 and finite"),
    (1.0 + 0j, -1.0, "rho must be >= 0 and finite"),
], ids=["nan-symbol", "inf-symbol", "nan-symbol-of-two", "nan-rho", "inf-rho", "negative-rho"])
def test_scale_field_refuses_a_symbol_or_rho_that_is_not_finite(s, rho, message):
    # a NaN or infinite symbol or rho made NaN or infinite snapshots, which EnergyMap then
    # refused as 'energy values must be finite and >= 0', naming neither argument
    field = np.ones((2, 4, 3) if np.ndim(s) else (4, 3), complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            scale_field(field, s, rho)
        with pytest.raises(ValueError, match=message):
            collect_snapshots(field, s, rho)
