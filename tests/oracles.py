"""Test oracles that only tests call: the scanned complex-noise builder and the quantization floor.

The test modules import them from here (pytest puts this directory on ``sys.path``).
"""

import numpy as np

from simdoa.wavemodel import _complex_normals


def complex_gaussian(re, im, variance=1.0):
    """Complex samples sqrt(variance / 2) * (re + j im); ``re`` and ``im`` of two shapes or of a
    dtype that is not integer or float, a negative or non-finite variance, or samples beyond a
    float's range raise a ValueError.

    The package's kernel ``_complex_normals`` with a range scan: its callers draw numpy's
    normals, which cannot fail the scan.
    """
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


def quantization_floor(n_x, n_y, proto):
    """Expected squared snap-to-lattice error per normalized-angle axis.

    An axis's n * t lattice angles split the period-2 circle into cells of
    width step = 2 / (n * t). For a source angle uniform on [-1, 1) the snap
    error is uniform on [-step/2, step/2), so its mean square is step^2 / 12.
    """
    step_x, step_y = 2.0 / (n_x * proto.t_x), 2.0 / (n_y * proto.t_y)
    return step_x ** 2 / 12.0, step_y ** 2 / 12.0
