"""Snapshot protocol, energy collection, peak search, and angle recovery."""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _AT_LEAST_ONE, TWO_PI, _record, check_fields, linear_to_grid, rules
from .wavemodel import scale_field


@dataclass(frozen=True)
class ProtocolConfig:
    """Snapshot schedule: t_y blocks of t_x slots, T = t_x * t_y total."""

    t_x: int = rules(int, _AT_LEAST_ONE, default=1)
    t_y: int = rules(int, _AT_LEAST_ONE, default=1)

    __post_init__ = check_fields

    @property
    def t(self):
        return self.t_x * self.t_y

    def lattice(self, n_x, n_y, spacing=(0.5, 0.5)):
        """This schedule's SnapshotLattice on an (n_x, n_y) grid, kept on the instance.

        ``spacing`` is the grid's input (d_x, d_y) in wavelengths, for the cells' physical angles;
        a ValueError refuses any other than two positive finite numbers.
        """
        cache = self.__dict__.setdefault("_lattices", {})
        if (lattice := cache.get(key := (n_x, n_y, *spacing))) is None:
            if len(spacing) != 2 or not all(0.0 < d < math.inf for d in spacing):  # NaN fails
                raise ValueError(f"spacing must be two positive finite numbers, got {spacing}")
            snapshots = np.arange(1, self.t + 1)
            zeroth = zeroth_layer_config(snapshots, n_x, n_y, self)
            angles = electrical_angles(np.arange(1, n_x * n_y + 1)[:, None], snapshots,
                                       n_x, n_y, self)
            physical = visible_angles(*angles, *spacing)
            distinct = []
            for psi in angles:
                axis, index = np.unique(psi, return_inverse=True)
                distinct.append((axis, index.reshape(psi.shape)))
            for arr in (zeroth, *angles, *physical, *distinct[0], *distinct[1]):
                arr.flags.writeable = False
            lattice = cache[key] = SnapshotLattice(zeroth, *angles, *physical, *distinct)
        return lattice


@dataclass(frozen=True)
class SnapshotLattice:
    """A protocol's schedule on one input grid as read-only (N, T) arrays.

    Cell (n - 1, t - 1) of ``zeroth`` is exp(j ``zeroth_layer_phase(n, t)``),
    of ``psi_x``/``psi_y`` is ``electrical_angles(n, t)``, bit for bit, and of
    ``phi``/``theta`` their ``visible_angles`` at the grid's input spacing.
    ``distinct_x`` pairs the n_x * t_x distinct values of ``psi_x`` with the
    (N, T) map into them, so ``axis[index]`` is ``psi_x``; ``distinct_y`` likewise.
    """

    zeroth: np.ndarray
    psi_x: np.ndarray
    psi_y: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    distinct_x: tuple
    distinct_y: tuple


@dataclass(frozen=True)
class EnergyMap:
    """Received power |r|^2 per (antenna, snapshot) cell, R x T; K trials' maps are K x R x T."""

    values: np.ndarray

    def __post_init__(self):
        if (v := np.asarray(self.values, dtype=float)) is not self.values:
            object.__setattr__(self, "values", v)
        if v.ndim not in (2, 3) or v.size == 0:
            raise ValueError("energy map must be a nonempty 2-D array, or 3-D for a batch")
        if not 0.0 <= np.minimum.reduce(v, None) <= np.maximum.reduce(v, None) < math.inf:
            raise ValueError("energy values must be finite and >= 0")  # a NaN fails all of <=


@dataclass(frozen=True)
class DoaEstimate:
    """1-based peak cell (n, t) plus the angles recovered from it.

    ``psi_x``/``psi_y`` are normalized electrical angles in [-1, 1) (units
    of pi radians per element). ``phi``/``theta`` are radians; they are NaN
    when the peak maps to an unrealizable direction (off-lattice artifact).
    The estimates of a batch of K maps hold length-K arrays in every field.
    """

    n: int
    t: int
    psi_x: float
    psi_y: float
    phi: float
    theta: float

    @property
    def realizable(self):
        """Whether the peak maps to a physical direction; for a batch, whether every peak does."""
        return not (np.isnan(self.phi).any() or np.isnan(self.theta).any())


def zeroth_layer_phase(n, t, n_x, n_y, proto):
    """Input-layer phase for atom n at snapshot t, in [0, 2*pi).

    Advancing t steps the DFT frequency bin by 1/(N*T) of a cycle per
    axis, giving T*N distinct bins over the whole schedule. Integer index
    arrays of n and t broadcast to an array of phases.
    """
    nx, ny = linear_to_grid(n, n_x, n_y)
    tx, ty = linear_to_grid(t, proto.t_x, proto.t_y)
    phase = np.mod(-2.0 * np.pi * (nx - 1) * (tx - 1) / (n_x * proto.t_x)
                   - 2.0 * np.pi * (ny - 1) * (ty - 1) / (n_y * proto.t_y), 2.0 * np.pi)
    return phase


def zeroth_layer_config(t, n_x, n_y, proto):
    """Transmissions exp(j xi0) of the N input-layer atoms at each snapshot in ``t``, (N, T)."""
    n = np.arange(1, n_x * n_y + 1)
    return np.exp(1j * zeroth_layer_phase(n[:, None], t, n_x, n_y, proto))


@np.errstate(over="ignore", invalid="ignore")  # energies beyond range: EnergyMap refuses
def collect_snapshots(field, s, rho, noise=None):
    """Record the powers of the T snapshots made from unit field ``field``.

    ``field`` is the unit field G Y_0 a on the snapshot lattice, (R, T), as
    ``synthesize_received`` returns it, and ``scale_field`` makes the
    snapshots. ``s`` is the trial's complex symbol, held over every
    snapshot. ``noise`` is None (clean) or a preset (R, T) complex array. A
    (K, R, T) field runs K trials in that one call: ``s`` then holds K
    symbols, a preset ``noise`` is (K, R, T), and the result is one
    (K, R, T) energy map, slice k equal to trial k's one-trial call bit for
    bit.
    """
    return _power_map(scale_field(field, s, rho, noise))


def _power_map(x):
    """EnergyMap of |x|^2, squared in place; past __post_init__ once its max alone is < inf."""
    energies = np.abs(x)
    energies *= energies  # >= 0 or NaN, and np.maximum.reduce propagates a NaN
    if energies.ndim in (2, 3) and energies.size and np.maximum.reduce(energies, None) < math.inf:
        return _record(EnergyMap, {"values": energies})
    return EnergyMap(energies)  # which refuses it with its own message


def peak_cells(values):
    """0-based (n, t) index arrays of each (R, T) map's strongest cell in ``values`` (K, R, T).

    The argmax runs in snapshot-major order, so ties resolve to the
    smallest t, then the smallest n.
    """
    t_hat, n_hat = np.divmod(np.argmax(values.swapaxes(1, 2).reshape(len(values), -1), axis=1),
                             values.shape[1])
    return n_hat, t_hat


def electrical_angles(n, t, n_x, n_y, proto):
    """Normalized electrical angles of lattice cell (n, t), each in [-1, 1).

    Integer index arrays of n and t broadcast to two arrays of angles.
    """
    nx, ny = linear_to_grid(n, n_x, n_y)
    tx, ty = linear_to_grid(t, proto.t_x, proto.t_y)
    psi_x = np.mod(2.0 * ((nx - 1) / n_x + (tx - 1) / (n_x * proto.t_x)) + 1.0, 2.0) - 1.0
    psi_y = np.mod(2.0 * ((ny - 1) / n_y + (ty - 1) / (n_y * proto.t_y)) + 1.0, 2.0) - 1.0
    return psi_x, psi_y


@np.errstate(over="ignore")  # extreme spacings overflow to inf as floats do; an inf radius is NaN
def visible_angles(psi_x, psi_y, d_x, d_y):
    """Azimuth and elevation (radians) of arrays of normalized electrical angles.

    Normalized angles are in units of pi radians per element, and ``d_x``,
    ``d_y`` are the input element spacings in wavelengths. Both angles are
    NaN outside the visible region; azimuth is 0 by convention at
    broadside, where it is otherwise undefined. The results have the
    arrays' shape; ``ProtocolConfig.lattice`` keeps them for every cell.
    """
    px, py = np.pi * psi_x, np.pi * psi_y
    radius = np.sqrt((px / d_x) * (px / d_x) + (py / d_y) * (py / d_y)) / TWO_PI
    outside = radius > 1.0
    theta = np.arcsin(np.where(outside, np.nan, radius))
    phi = np.mod(np.arctan2(py * d_x, px * d_y), TWO_PI)
    phi[(psi_x == 0.0) & (psi_y == 0.0)] = 0.0
    phi[outside] = np.nan
    return phi, theta


def estimate_from_map(emap, lattice):
    """Peak search plus angle recovery in one step; a tie goes to the smallest t, then n.

    The map's (R, T) cells must be those of ``lattice``, the SnapshotLattice
    it was collected on, and the peak cell's electrical and physical angles
    are read from it: NaN physical angles for an unrealizable peak, so Monte
    Carlo scoring (which uses electrical angles only) can proceed. One map
    gives Python ints and floats; a batch of K maps gives one estimate of
    length-K arrays, entry k equal to map k's own call.
    """
    values = emap.values
    if (cells := values.shape[-2:]) != lattice.zeroth.shape:
        raise ValueError(f"energy map has {cells} cells but the lattice has"
                         f" {lattice.zeroth.shape}")
    if values.ndim == 2:
        t_hat, n_hat = divmod(int(values.T.argmax()), cells[0])  # over (t, n)
        cell = n_hat, t_hat
        return _record(DoaEstimate, {
            "n": n_hat + 1, "t": t_hat + 1, "psi_x": lattice.psi_x.item(cell),
            "psi_y": lattice.psi_y.item(cell), "phi": lattice.phi.item(cell),
            "theta": lattice.theta.item(cell)})
    cell = n_hat, t_hat = peak_cells(values)
    return DoaEstimate(n_hat + 1, t_hat + 1, lattice.psi_x[cell], lattice.psi_y[cell],
                       lattice.phi[cell], lattice.theta[cell])


def angular_spectrum(emap, lattice):
    """Measurements rearranged onto the normalized-angle lattice.

    Returns (psi_x_axis, psi_y_axis, power) where power[iy, ix] is the
    energy at (psi_x_axis[ix], psi_y_axis[iy]), peak-normalized to 1. The
    axes are the distinct angles of ``lattice`` (its read-only arrays),
    n_x * t_x and n_y * t_y of them in ascending order, so every cell has a
    bin of its own.
    """
    if emap.values.shape != lattice.zeroth.shape:
        raise ValueError(f"energy map has shape {emap.values.shape} but the lattice has"
                         f" {lattice.zeroth.shape}")
    (axis_x, ix), (axis_y, iy) = lattice.distinct_x, lattice.distinct_y
    power = np.zeros((axis_y.size, axis_x.size))
    power[iy, ix] = emap.values
    top = power.max()
    if top > 0.0:
        power = power / top
    return axis_x, axis_y, power


@np.errstate(over="ignore", invalid="ignore")  # the NaN they leave is refused below
def wrapped_angle_error(true_psi, est_psi):
    """Signed difference on the normalized-angle circle, in [-1, 1).

    Electrical angles wrap with period 2, so errors are scored along the
    shorter arc; without this a source near +1 estimated near -1 would
    score as a full-span miss. Arrays give the elementwise errors. Angles
    that are not finite, or whose difference is not, raise a ValueError.
    """
    err = np.mod(true_psi - est_psi + 1.0, 2.0) - 1.0
    if not np.isfinite(err).all():
        raise ValueError(f"angles must be finite with a finite difference, got {true_psi!r}"
                         f" and {est_psi!r}")
    return err if np.ndim(err) else float(err)

