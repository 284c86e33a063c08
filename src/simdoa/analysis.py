"""Closed-form MSE upper bound for the energy-peak angle estimator.

The estimator picks the strongest (antenna, snapshot) cell, so an error
occurs when some other cell's energy beats the true peak. Each cell's
energy is a noncentral chi-square variable; the probability that a given
cell wins is bounded through a three-moment chi-square approximation of
the energy difference followed by a Wilson-Hilferty cube-root transform.
Summing squared angle offsets weighted by these probabilities bounds the
MSE on each normalized-angle axis.
"""

import numpy as np

from .estimator import peak_cells, wrapped_angle_error
from .wavemodel import synthesize_received

_ERFC_ZERO = 26.64174755704633  # least x with erfc(x) == 0.0 (scipy 1.17.1)


class DegenerateField(ValueError):
    """Noiseless field is identically zero; no peak exists."""


def clean_field(g, lattice, sv):
    """Noiseless unit-power receive field G Y_0 a, one column per snapshot (R x T).

    ``g`` is the (N, N) response on the input grid of ``lattice`` and ``sv``
    the true direction's steering vector there. Column t is the receive
    field when the input layer runs snapshot t's phase profile against a
    unit plane wave, as ``synthesize_received`` returns it; SNR and symbol
    are applied by the callers. (K, N) steering rows give (K, R, T), each
    slice equal to its one-trial call bit for bit. A Monte Carlo block's
    snapshots (``collect_snapshots``) and its bound share it.
    """
    g = np.asarray(g, dtype=complex)
    n = lattice.zeroth.shape[0]
    if g.ndim != 2:
        raise ValueError("g must be a matrix")
    if g.shape != (n, n):
        # the bound reads receiver n as input cell n
        raise ValueError(f"g has shape {g.shape} but the {n}-cell input grid needs ({n}, {n})")
    return synthesize_received(g, lattice.zeroth, sv)


def _wilson_hilferty(nu1, nu2, nu3):
    """P{difference >= 0} for sign-adjusted moments, vectorized.

    The raw difference statistic is left-skewed at every non-peak cell, so
    the chi-square approximation is applied to its negation; nu_i are the
    negated statistic's moments (nu1 = -mu1, nu2 = mu2, nu3 = -mu3). The
    cube-root coordinate is centered and divided by its standard deviation
    sqrt(2/(9h)); b/h can only leave (0, 1] for hand-built moment triples,
    where the signed real cube root keeps the expression defined. A cell
    whose moments vanish (nu3 = 0, equal noncentralities) gets the exact
    symmetric-case value 1/2, which is also the continuous limit. Every
    cell is transformed in place in one work array, with the divisions
    by zero of nu3 = 0 cells silenced, and those cells are then set to 1/2.
    Moments whose powers leave a float's range give NaN, silently too.
    """
    from scipy.special import erfc  # scipy loads only when a bound is evaluated
    nu1, nu2, nu3 = (np.asarray(v, dtype=float) for v in (nu1, nu2, nu3))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = nu2 ** 3
        h /= nu3 ** 2
        z = h * nu2
        np.sqrt(z, out=z)
        np.divide(nu1, z, out=z)
        np.subtract(1.0, z, out=z)
        np.cbrt(z, out=z)
        z -= 1.0
        # where x = nu1/sqrt(h nu2) > 0 is so small that cbrt(1 - x) - 1 rounds to 0.0, the
        # series value -x/3 keeps its sign and size; every other cell keeps its bits
        flat = np.flatnonzero(z == 0.0)
        x = nu1.take(flat) / np.sqrt(h.take(flat) * nu2.take(flat))
        z.put(flat, np.where(x > 0.0, x / -3.0, 0.0))
        z += 2.0 / (9.0 * h)
        z *= np.sqrt(9.0 * h / 2.0)
        # the Gaussian tail P(Z > -z) = erfc(-z/sqrt(2))/2, clipped to [0, 1]
        np.negative(z, out=z)
        z /= np.sqrt(2.0)
        probs = erfc(z, out=z)
        probs *= 0.5
        np.clip(probs, 0.0, 1.0, out=probs)
    probs[nu3 == 0.0] = 0.5
    return probs


def _dead_nu1(d_peak):
    """Per trial of ``mse_bound``, the nu1 at and above which a cell's transform is 0.0.

    There nu3 = 3 nu1, nu1 = d_peak - delta >= 0 and nu2 = c - 2 nu1 with c =
    4 + 4 d_peak, so nu2 >= 4 + 2 nu1 and x = 3 nu1^2/nu2^2 < 3/4. erfc's
    argument, (1 - cbrt(1 - x)) nu2^1.5/(2 nu1) - nu1/nu2^1.5, is then at
    least nu1/(2 sqrt(nu2)) - 1/4, since cbrt(1 - x) <= 1 - x/3 and
    nu1/nu2^1.5 <= 1/4. That bound passes ``_ERFC_ZERO`` (1 + 1e-6) where
    nu1^2 >= a^2 nu2, a = 2 _ERFC_ZERO (1 + 1e-6) + 1/2, which is nu1 at or
    above the root c/(1 + sqrt(1 + c/a^2)) of nu1^2 = a^2 (c - 2 nu1). The
    rounding of nu1, nu2 and the root stays within a few 1e-16 of them.
    The floats follow the exact value only while the cancellation in 1 -
    cbrt(1 - x) is mild; below x of about 1e-16 it rounds to 0 and the
    transform takes the series value -x/3. So the root serves only for c <= 1e6 a^2, where it
    implies x >= 3e-6, and +inf beyond. At x >= 3e-6 the difference carries
    a rounding error of about 1e-9 of itself, far inside the 1e-6 margin,
    and nothing overflows. A NaN d_peak gives +inf.
    """
    a2 = (2.0 * _ERFC_ZERO * (1.0 + 1e-6) + 0.5) ** 2
    c = 4.0 + 4.0 * d_peak
    with np.errstate(invalid="ignore"):  # an infinite c gives inf/inf, which where() drops
        return np.where(c <= 1e6 * a2, c / (1.0 + np.sqrt(1.0 + c / a2)), np.inf)


def _weighted_errors(psi, distinct, probs):
    """Per trial of ``psi`` (K,), the sum of ``probs`` (K, N, T) times the cells' squared offsets.

    The shorter-arc offsets are computed and squared on the axis's distinct
    lattice angles and gathered back, the same bits as every cell's own, and
    weighted in place. ``np.take`` keeps the gather C-ordered, so each
    trial's sum runs over one contiguous row.
    """
    axis, index = distinct
    errors = np.take(wrapped_angle_error(psi[:, None], axis) ** 2, index, axis=1)
    errors *= probs
    return np.sum(errors.reshape(len(psi), -1), axis=1)


def mse_bound(field, s, rho, lattice, psi_x, psi_y):
    """Per-axis MSE upper bounds for K realized (source, symbol) pairs.

    ``field`` is the trials' (K, R, T) ``clean_field`` on ``lattice``, ``s``
    their K unit-variance symbols, each held over the T snapshots, ``rho``
    the transmit SNR and ``psi_x``/``psi_y`` the K true normalized
    electrical angles. Each cell contributes its squared angle offset
    (shorter arc on the period-2 circle) times its win-probability bound;
    the peak cell carries the trivial probability 1. The result is two
    length-K arrays, entry k equal to trial k's own one-trial call bit for
    bit. Cell (n, t) is scored at the lattice's angles, so the field's
    cells must be the lattice's. A trial whose moments leave a float's
    range (an extreme ``rho``) gets NaN bounds.
    """
    if rho < 0.0:
        raise ValueError("rho must be >= 0")
    if np.shape(field)[-2:] != lattice.psi_x.shape:
        raise ValueError(f"field has {np.shape(field)[-2:]} cells but the lattice has"
                         f" {lattice.psi_x.shape}")
    k = len(field)
    if not (np.ndim(field) == 3 and np.shape(s) == np.shape(psi_x) == np.shape(psi_y) == (k,)):
        raise ValueError(f"field has shape {np.shape(field)} but s, psi_x and psi_y have shapes"
                         f" {np.shape(s)}, {np.shape(psi_x)} and {np.shape(psi_y)}: each needs"
                         f" one entry per trial of a (K, R, T) field")
    power = np.abs(field * np.asarray(s)[:, None, None], order="C")
    power *= power
    if not np.all(np.any(power > 0.0, axis=(1, 2))):
        raise DegenerateField("noiseless field is identically zero")
    n_pk, t_pk = peak_cells(power)  # the estimator's tie rule
    peaks = np.arange(k), n_pk, t_pk
    delta = np.multiply(2.0 * rho, power, out=power)  # C-ordered: take() below copies nothing
    d_peak = delta[peaks][:, None, None]
    nu1 = d_peak - delta
    live = np.flatnonzero(~(nu1 >= _dead_nu1(d_peak)))  # NaN cells stay
    probs = np.zeros(nu1.shape)  # the dead cells stay in the sums as 0.0
    nu1 = nu1.take(live)
    nu2 = 4.0 + 2.0 * (delta.take(live) + d_peak.ravel()[live // delta[0].size])
    probs.put(live, _wilson_hilferty(nu1, nu2, 3.0 * nu1))
    probs[peaks] = 1.0
    return (_weighted_errors(np.asarray(psi_x), lattice.distinct_x, probs),
            _weighted_errors(np.asarray(psi_y), lattice.distinct_y, probs))


def quantization_floor(n_x, n_y, proto):
    """Expected squared snap-to-lattice error per normalized-angle axis.

    An axis's n * t lattice angles split the period-2 circle into cells of
    width step = 2 / (n * t). For a source angle uniform on [-1, 1) the snap
    error is uniform on [-step/2, step/2), so its mean square is step^2 / 12.
    """
    step_x, step_y = 2.0 / (n_x * proto.t_x), 2.0 / (n_y * proto.t_y)
    return step_x ** 2 / 12.0, step_y ** 2 / 12.0
