"""Static structures of a stacked-metasurface array system.

Everything in this module is determined by the physical layout alone:
grid index maps, propagation distances, Rayleigh-Sommerfeld attenuation
matrices, plane-wave steering vectors, and the 2D DFT target matrix.
"""

from dataclasses import dataclass, field, fields
import cmath
import functools
import math
import numbers

import numpy as np

TWO_PI = 2.0 * math.pi
_RAMP_BEYOND_RANGE = "steering angles must be finite, as must each ramp's pi * psi * (n - 1)"

# Checks, each a (test, message) pair, for the ``rules`` of a config record's fields; the command
# line reads a key's rules from the field of its name, so both refuse a value with one message.
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
_FINITE = (math.isfinite, "must be finite")
_POSITIVE = (lambda v: 0.0 < v < math.inf, "must be positive and finite")
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number"),
          bool: ((bool, np.bool_), "a bool")}


def rules(kind, *checks, **kwargs):
    """A dataclass field that ``check_fields`` holds to ``kind`` and ``checks``; ``kwargs`` too."""
    return field(metadata={"kind": kind, "checks": checks}, **kwargs)


def check_value(name, value, kind, checks=()):
    """Refuse ``value`` unless it is of ``kind`` and passes each check, naming it ``name``.

    A kind is bool, int (numpy integers too), float (any real number but a bool), a tuple of
    choices or ``[kind]`` for a sequence whose every entry must pass. The ValueError reads
    '<name> <message>, got <value>'.
    """
    if isinstance(kind, list):
        for i, entry in enumerate(value):
            check_value(f"{name}[{i}]", entry, kind[0], checks)
        return
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"{name} must be one of: {', '.join(kind)}, got {value!r}")
    elif (not isinstance(value, _KINDS[kind][0])
          or kind is not bool and isinstance(value, (bool, np.bool_))):
        raise ValueError(f"{name} must be {_KINDS[kind][1]}, got {value!r}")
    for test, message in checks:
        if not test(value):
            raise ValueError(f"{name} {message}, got {value!r}")


def check_fields(record):
    """Refuse the first field of the dataclass ``record`` that breaks the ``rules`` it declares."""
    for f in fields(record):
        if "kind" in f.metadata:
            check_value(f.name, getattr(record, f.name), f.metadata["kind"], f.metadata["checks"])


@dataclass(frozen=True)
class SimGeometry:
    """Physical description of the metasurface stack, input layer and receiver.

    All lengths are in meters. Grids are counted in the x direction first;
    a linear index n on an (N_x, N_y) grid maps to coordinates via
    ``linear_to_grid(n, N_x)``. The receiver grid is the input grid.

    Parameters
    ----------
    wavelength : float
        Carrier wavelength.
    n_x, n_y : int
        Input-layer grid size.
    d_x, d_y : float
        Input-layer element spacings.
    m_x, m_y : int
        Intermediate-layer grid size.
    s_x, s_y : float
        Intermediate-layer element spacings.
    layers : int
        Number of intermediate layers L (the input layer is not counted).
    thickness : float
        Total stack thickness; adjacent layers sit ``thickness / layers`` apart.
    u_x, u_y : float, optional
        Receiver element spacings, default to the input spacings.
    rotation : float
        In-plane rotation of the receiver array about its center, radians.
    """

    wavelength: float = rules(float, _POSITIVE)
    n_x: int = rules(int, _AT_LEAST_ONE)
    n_y: int = rules(int, _AT_LEAST_ONE)
    d_x: float = rules(float, _POSITIVE)
    d_y: float = rules(float, _POSITIVE)
    m_x: int = rules(int, _AT_LEAST_ONE)
    m_y: int = rules(int, _AT_LEAST_ONE)
    s_x: float = rules(float, _POSITIVE)
    s_y: float = rules(float, _POSITIVE)
    layers: int = rules(int, _AT_LEAST_ONE)
    thickness: float = rules(float, _POSITIVE)
    u_x: float = rules(float, _POSITIVE, default=None)
    u_y: float = rules(float, _POSITIVE, default=None)
    rotation: float = rules(float, _FINITE, default=0.0)

    def __post_init__(self):
        if self.u_x is None:
            object.__setattr__(self, "u_x", self.d_x)
        if self.u_y is None:
            object.__setattr__(self, "u_y", self.d_y)
        check_fields(self)

    @property
    def n(self):
        return self.n_x * self.n_y

    @property
    def m(self):
        return self.m_x * self.m_y

    @property
    def s_layer(self):
        """Vertical gap between adjacent layers."""
        return self.thickness / self.layers

    @property
    def kappa(self):
        """Wavenumber 2*pi/wavelength."""
        return TWO_PI / self.wavelength

    @property
    def receiver_isomorphic(self):
        """True when the receiver repeats the input layer exactly."""
        return (
            self.u_x == self.d_x
            and self.u_y == self.d_y
            and self.rotation == 0.0
        )


@dataclass(frozen=True)
class PropagationSet:
    """Precomputed attenuation matrices for one geometry.

    ``w0`` maps the input layer to the first intermediate layer (M x N),
    ``w_inner`` holds the L-1 layer-to-layer matrices (M x M each), and
    ``w_last`` maps the final layer to the receiver (N x M).
    """

    w0: np.ndarray
    w_inner: tuple
    w_last: np.ndarray
    geometry: SimGeometry


@dataclass(frozen=True)
class DftTarget:
    """2D DFT matrix over an (n_x, n_y) grid."""

    matrix: np.ndarray


def linear_to_grid(idx, width, height=None):
    """Map 1-based linear indices to 1-based (ix, iy) grid coordinates.

    The grid is filled along x first. When ``height`` is given the indices
    are range-checked against the full grid. An integer index array gives
    coordinate arrays of its shape.
    """
    idx = np.asarray(idx)
    width = int(width)
    if width < 1:
        raise ValueError("width must be >= 1")
    if np.any(idx < 1) or (height is not None and np.any(idx > width * int(height))):
        raise ValueError(f"index {idx} outside grid")
    iy = -(-idx // width)  # ceil(idx / width)
    ix = idx - (iy - 1) * width
    return ix, iy


def _grid_coords(count_x, count_y):
    """1-based (ix, iy) arrays for all linear indices of a grid, x-fastest."""
    idx = np.arange(1, count_x * count_y + 1)
    iy = -(-idx // count_x)
    ix = idx - (iy - 1) * count_x
    return ix, iy


def _centered_positions(count_x, count_y, sp_x, sp_y):
    """In-plane (x, y) positions of all grid elements, centered on the array."""
    ix, iy = _grid_coords(count_x, count_y)
    x = (ix - (1 + count_x) / 2.0) * sp_x
    y = (iy - (1 + count_y) / 2.0) * sp_y
    return x, y


def _rs_matrix(to, frm, emit_area, geom):
    """Read-only Rayleigh-Sommerfeld coefficients from the (x, y) points ``frm`` to ``to``.

    The point sets lie one layer gap apart. Coefficients beyond a float's range
    raise a ValueError that names the geometry, with no RuntimeWarning.
    """
    with np.errstate(all="ignore"):
        dist = np.sqrt((to[0][:, None] - frm[0][None, :]) ** 2
                       + (to[1][:, None] - frm[1][None, :]) ** 2
                       + np.float64(geom.s_layer) ** 2)  # inf, not OverflowError, past range
        kd = geom.kappa * dist
        amp = emit_area * geom.s_layer / (TWO_PI * dist**3)
        w = amp * (1.0 - 1j * kd) * np.exp(1j * kd)
    if not np.all(np.isfinite(w)):
        raise ValueError(f"propagation coefficients beyond a float's range for {geom}")
    w.flags.writeable = False
    return w


def build_propagation_matrices(geom):
    """Assemble all attenuation matrices for a geometry.

    The emitting-cell area convention is the transmitting element's own cell:
    d_x*d_y for the input layer and s_x*s_y for intermediate layers. When the
    receiver is isomorphic to the input layer the final matrix is exactly the
    transpose of the first; otherwise it is built from the receiver element
    positions (a centered u-spaced grid rotated by ``geom.rotation``).
    """
    inputs = _centered_positions(geom.n_x, geom.n_y, geom.d_x, geom.d_y)
    atoms = _centered_positions(geom.m_x, geom.m_y, geom.s_x, geom.s_y)
    w0 = _rs_matrix(atoms, inputs, geom.d_x * geom.d_y, geom)
    w_in = (_rs_matrix(atoms, atoms, geom.s_x * geom.s_y, geom),) if geom.layers > 1 else ()
    w_inner = w_in * (geom.layers - 1)
    if geom.receiver_isomorphic:
        w_last = w0.T.copy()
        w_last.flags.writeable = False
    else:
        rx, ry = _centered_positions(geom.n_x, geom.n_y, geom.u_x, geom.u_y)
        c, s = math.cos(geom.rotation), math.sin(geom.rotation)
        w_last = _rs_matrix((rx * c - ry * s, rx * s + ry * c), atoms, geom.s_x * geom.s_y, geom)
    return PropagationSet(w0=w0, w_inner=w_inner, w_last=w_last, geometry=geom)


def steering_vector(psi_x, psi_y, n_x, n_y):
    """Steering vector of an (n_x, n_y) planar grid, as its (N,) entries array.

    ``psi_x`` and ``psi_y`` are normalized electrical angles (units of pi rad
    per element); entry n equals exp(j*pi*(psi_x*(n_x-1) + psi_y*(n_y-1))),
    the Kronecker product of the y ramp with the x ramp, x fastest. Two
    length-K numpy arrays give (K, N), row k equal to its one-wave call. An
    angle that is not finite, or a ramp pi*psi*(n-1) beyond a float's range,
    raises a ValueError on either path.
    """
    if isinstance(psi_x, np.ndarray) and psi_x.ndim or isinstance(psi_y, np.ndarray) and psi_y.ndim:
        if np.ndim(psi_x) != 1 or np.shape(psi_y) != np.shape(psi_x):
            raise ValueError("steering angles must be two numbers or two length-K arrays")
        with np.errstate(over="ignore", invalid="ignore"):  # a ramp beyond range is refused below
            ax, ay = (np.exp(1j * np.asarray(np.pi * psi, dtype=float)[:, None] * np.arange(n))
                      for psi, n in ((psi_x, n_x), (psi_y, n_y)))
        if not (np.isfinite(ax[:, -1]).all() and np.isfinite(ay[:, -1]).all()):  # the largest
            raise ValueError(_RAMP_BEYOND_RANGE)
        return (ay[:, :, None] * ax[:, None, :]).reshape(len(ax), n_x * n_y)
    # Python floats, twice as fast as the array form and overflowing to inf with no warning; both
    # ramps' products, each equal to its product with np.arange, go under one exp
    psi_x, psi_y = np.pi * float(psi_x), np.pi * float(psi_y)
    ramps = [1j * psi_x * k for k in range(n_x)] + [1j * psi_y * k for k in range(n_y)]
    if not (cmath.isfinite(ramps[n_x - 1]) and cmath.isfinite(ramps[-1])):  # the largest
        raise ValueError(_RAMP_BEYOND_RANGE)
    ramps = np.exp(ramps)
    return (ramps[n_x:, None] * ramps[:n_x]).ravel()


@functools.lru_cache(maxsize=8)  # bounded: a 32x32 grid's matrix alone is 16 MB
def dft_matrix(n_x, n_y):
    """2D DFT matrix over an (n_x, n_y) grid, in x-fastest linear ordering.

    Entry (n, n_breve) is exp(-2j*pi*(n_x-1)(n_breve_x-1)/N_x) times the
    matching y factor. Satisfies F @ F^H = N * I. Built once per grid and
    shared, so the matrix is read-only.
    """
    n_x, n_y = int(n_x), int(n_y)
    if n_x < 1 or n_y < 1:
        raise ValueError("grid sizes must be >= 1")
    ix, iy = _grid_coords(n_x, n_y)
    phase = (
        np.outer(ix - 1, ix - 1) / n_x
        + np.outer(iy - 1, iy - 1) / n_y
    )
    matrix = np.exp(-2j * math.pi * phase)
    matrix.flags.writeable = False
    return DftTarget(matrix=matrix)


def check_feasibility(geom):
    """Why a zero-residual DFT fit is out of reach, or "" when rank allows it.

    The stack response has rank at most M, so M >= N is necessary for the
    fit error to reach zero.
    """
    m, n = geom.m, geom.n
    if m >= n:
        return ""
    return f"M={m} < N={n}: response rank is at most {m}, zero loss unattainable"
