"""End-to-end wave response of the stack and the DFT fitting loss."""

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Sentinel for a numerically exact fit; keeps dB columns finite in outputs.
DB_FLOOR = -400.0


@dataclass
class PhaseStack:
    """Trainable phases, one row of M per intermediate layer, stored reduced to [0, 2*pi)."""

    xi: np.ndarray  # (L, M) real

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)  # a ragged sequence raises ValueError here
        if xi.ndim != 2:
            raise ValueError(f"phases must form an (L, M) array, got shape {xi.shape}")
        if not np.isfinite(xi).all():
            raise ValueError("phases must be finite")
        self.xi = np.mod(xi, 2.0 * np.pi)

    @property
    def layers(self):
        return self.xi.shape[0]

    def transmissions(self):
        """Unit-modulus diagonal entries exp(j xi) of every layer, (L, M)."""
        return np.exp(1j * self.xi)

    def copy(self):
        return PhaseStack(self.xi.copy())


def random_stack(layers, m, rng):
    """Phase stack with i.i.d. uniform phases on [0, 2*pi), drawn layer after layer."""
    return PhaseStack(rng.uniform(0.0, 2.0 * np.pi, size=(layers, m)))


def forward_response(props, stack):
    """Cascade product W_L Y_L W_{L-1} ... Y_1 W_0.

    Associated right to left so the running operand keeps N columns,
    costing O(L M^2 N).
    """
    if stack.layers != props.geometry.layers:
        raise ValueError(
            f"stack has {stack.layers} layers, geometry expects {props.geometry.layers}"
        )
    t = stack.transmissions()
    acc = props.w0
    for l in range(1, props.geometry.layers):
        acc = props.w_inner[l - 1] @ (t[l - 1][:, None] * acc)
    return props.w_last @ (t[-1][:, None] * acc)


def optimal_scale(g, f):
    """Least-squares complex scale minimizing ||beta*G - F||_F, for a G of positive finite power."""
    g = np.asarray(g)
    f = np.asarray(f)
    denom = np.vdot(g, g).real
    if not 0.0 < denom < np.inf:  # zero, NaN, or a power sum(|g|^2) beyond a float's range
        raise ValueError(f"response power sum(|g|^2) is {denom}, scale undefined")
    return np.vdot(g, f) / denom


def fitting_loss(g, f, beta):
    """Squared Frobenius fitting error and its normalized dB value.

    Returns ``(loss, db)`` with ``db = 10*log10(loss / ||F||_F^2)``. An
    exactly zero loss is reported as the DB_FLOOR sentinel.
    """
    if g.shape != f.shape:
        raise ValueError(f"shape mismatch {g.shape} vs {f.shape}")
    loss = float(np.linalg.norm(beta * g - f) ** 2)
    ref = float(np.linalg.norm(f) ** 2)
    if loss <= 0.0:
        return loss, DB_FLOOR
    return loss, max(10.0 * np.log10(loss / ref), DB_FLOOR)


def matvec_columns(m, x):
    """``m @ x`` batched by column: each column's product equals its own ``m @`` call bit for bit.

    One GEMM sums in another order and does not. Leading axes of an
    (..., N, T) ``x`` are batch axes.
    """
    return np.matvec(m, x, axes=[(-2, -1), -2, -2])


def antenna_field(zeroth, sv):
    """Antenna field Y_0 a from the (N, T) transmissions ``zeroth``; (K, N) steering: (K, N, T).

    The wave path propagates it through the stack, the digital path through the numeric DFT.
    """
    return zeroth * sv[..., None]


def synthesize_received(g, zeroth, sv):
    """Unit receive field G Y_0 a, one column per snapshot (R x T).

    Column t equals its own ``g @`` product bit for bit. Steering entries
    (K, N) run K trials at once: the result gains a leading trial axis,
    each trial's slice equal to its one-trial call bit for bit.
    ``scale_field`` turns the field into received snapshots, so one field
    serves any SNR, symbol and noise.
    """
    return matvec_columns(g, antenna_field(zeroth, sv))


def scale_field(field, s, rho, noise=None):
    """Snapshots sqrt(rho) * field * s + noise from a unit field, G Y_0 a or the antenna field.

    The one place where SNR, symbol and noise enter a snapshot. ``field`` is
    (R, T) with one symbol ``s``, held over the T snapshots, or (K, R, T)
    with one symbol per trial, K of them. ``noise`` has the field's shape,
    or is None. A symbol or a ``rho`` that is not finite raises a ValueError.
    """
    if not 0.0 <= rho < math.inf:  # a NaN fails every comparison
        raise ValueError(f"rho must be >= 0 and finite, got {rho}")
    r = np.multiply(math.sqrt(rho), field, dtype=complex)  # symbols and noise then go in place
    s = np.asarray(s, dtype=complex)
    if s.shape != (trials := r.shape[:-2]):
        raise ValueError(f"expected one symbol per trial, {trials}, got {s.shape}")
    if not (np.isfinite(s).all() if trials else cmath.isfinite(s)):
        raise ValueError(f"symbol s must be finite, got {s}")
    r *= s[..., None, None] if trials else s  # per-trial symbols lead; R and T broadcast
    if noise is not None:
        noise = np.asarray(noise)
        if noise.shape != r.shape:
            raise ValueError(f"noise shape {noise.shape} does not match {r.shape}")
        r += noise
    return r


def complex_gaussian(re, im, variance=1.0):
    """Complex samples sqrt(variance / 2) * (re + j im); ``re`` and ``im`` of two shapes or of a
    dtype that is not integer or float, a negative or non-finite variance, or samples beyond a
    float's range raise a ValueError."""
    if np.shape(re) != np.shape(im):
        raise ValueError(f"re has shape {np.shape(re)} but im has shape {np.shape(im)}")
    for name, part in (("re", re), ("im", im)):
        if (dtype := np.asarray(part).dtype).kind not in "iuf":
            raise ValueError(f"{name} must be integer or float, got dtype {dtype}")
    with np.errstate(over="ignore", invalid="ignore"):  # the scan below refuses what they flag
        out = _complex_normals(re, im, variance)
    if not np.isfinite(out).all():
        raise ValueError(f"complex samples beyond a float's range at variance {variance}")
    return out


def _complex_normals(re, im, variance=1.0):
    """``complex_gaussian`` with no scan, for numpy's normals: its ziggurat draws are finite with
    |z| < r + log(2^53) / r < 14 (tail start r = 3.654), and sqrt(variance / 2) <= 9.5e153."""
    if not 0.0 <= variance < math.inf:  # a NaN fails every comparison
        raise ValueError(f"variance must be >= 0 and finite, got {variance}")
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    parts = out.reshape(-1).view(float)  # every real and imaginary part, one contiguous run
    parts *= math.sqrt(variance / 2.0)
    return out


def cn_noise(rng, shape, variance=1.0):
    """``complex_gaussian`` samples of one (2, *shape) standard normal draw, real parts first."""
    return _complex_normals(*rng.standard_normal((2, *shape) if np.iterable(shape) else (2, shape)),
                            variance)
