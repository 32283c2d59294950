"""Robot-object distance matrices and point recovery by multilateration.

The distance matrix stores the Euclidean distance between every robot point
and every object point.  Any such matrix, together with the object cloud it
was measured against, determines the robot cloud: each row is a set of
range measurements to known reference points, solved by a linearized
least-squares step plus a Gauss-Newton polish on the squared-range
residuals.  The polish runs until its largest step over all rows is below
``_STEP_TOL`` (at most ``_MAX_STEPS`` steps); the matrix stops as a whole,
so a row that has already converged may still move by less than the
tolerance while the others finish.

All rows share the references: one SVD checks them for degeneracy, and the
squared-range residual is linear in (p, ||p||^2, 1), so the closed form and
every polish step come from a few moments of d^2.  The matrix is read once,
in ``_ROW_CHUNK``-row blocks, and each step after that costs O(rows).
"""

from __future__ import annotations

import math

import numpy as np

from .cloud import PointCloud
from .errors import ContractError, DegeneracyError

CONDITION_LIMIT = 1e10
_STEP_TOL = 1e-8  # m; the refine stops once no row moves further than this
_MAX_STEPS = 10  # refine cap; the iterate reached there is returned as is
_ROW_CHUNK = 64  # bounds the (rows x object points) distance temporary


def _points_of(cloud) -> np.ndarray:
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ContractError(f"expected (N, 3) points, got shape {pts.shape}")
    return pts


def compute_dro(robot_cloud, object_cloud) -> np.ndarray:
    """Pairwise robot-object distance matrix.

    Squares are summed per coordinate into the output, ``_ROW_CHUNK`` robot
    rows at a time, so the only temporary is one (_ROW_CHUNK, N_O) difference.
    Summing from zero keeps each entry bitwise equal to sqrt(dx*dx + dy*dy + dz*dz).
    """
    rpts = _points_of(robot_cloud)
    opts = _points_of(object_cloud)
    if len(rpts) == 0 or len(opts) == 0:
        raise ContractError("clouds must be nonempty")
    out = np.zeros((len(rpts), len(opts)))
    for i in range(0, len(rpts), _ROW_CHUNK):
        sq = out[i:i + _ROW_CHUNK]
        for k in range(3):
            d = rpts[i:i + _ROW_CHUNK, k, None] - opts[:, k]
            d *= d
            sq += d
        np.sqrt(sq, out=sq)
    return out


def _reference_system(obj: np.ndarray):
    """Reject references that cannot fix a point: fewer than four, or a
    linearized system [-2 p_j, 1] whose singular values say it is coplanar
    or worse.  Passing this check makes M = sum_j o_j o_j^T positive definite.
    """
    n = len(obj)
    if n < 4:
        raise DegeneracyError(f"need at least 4 reference points, got {n}")
    a = np.empty((n, 4))
    a[:, :3] = -2.0 * obj
    a[:, 3] = 1.0
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= 0.0 or sv[0] / sv[-1] > CONDITION_LIMIT:
        raise DegeneracyError("reference points are degenerate (coplanar or worse); "
                              f"condition number exceeds {CONDITION_LIMIT:.0e}")


def _multilaterate_rows(dist: np.ndarray, obj: np.ndarray) -> np.ndarray:
    """Solve every row of a distance matrix against shared references.

    Everything runs in the object's centroid frame (o_j = p_j - mean,
    q = p - mean, so sum_j o_j = 0), where the squared-range residual
    f_j = ||q||^2 - 2 q . o_j + ||o_j||^2 - d_j^2 is linear in (q, ||q||^2, 1).
    Every quantity the solver needs is then a moment of d^2, and the matrix
    is read once: d^2 is formed ``_ROW_CHUNK`` rows at a time and multiplied
    by [o | 1], giving G = d^2 @ o and g = sum_j d_j^2 per row.

    With M = sum_j o_j o_j^T and t = sum_j ||o_j||^2 o_j, the closed-form
    (linearized least-squares) point is q = -M^-1 (G - t) / 2.  Gauss-Newton
    steps on f then remove the linearization bias, each from O(rows) work:
    sum_j f_j = n ||q||^2 + sum_j ||o_j||^2 - g, f @ o = t - G - 2 M q,
    J^T f = 2 (q sum_j f_j - f @ o) and J^T J = 4 (M + n q q^T), solved by
    Sherman-Morrison on M^-1.  An exact matrix stops after one step.  The
    largest temporary is one (_ROW_CHUNK, N_O) block, and centring keeps the
    expanded squares small, so accuracy does not fall off as the object moves
    away from the origin.

    The same pass takes each block's min and max while the block is in
    cache, so the value checks cost no read of their own.  A non-finite
    entry is reported before a negative one, and both before the
    reference check, wherever they sit in the matrix.
    """
    n = len(obj)
    centroid = obj.mean(axis=0) if n else np.zeros(3)  # no references: rejected below
    basis = np.ones((n, 4))  # [o | 1]
    o = basis[:, :3]
    np.subtract(obj, centroid, out=o)
    sums = np.empty((len(dist), 4))  # [G | g]
    lowest = 0.0
    for i in range(0, len(dist), _ROW_CHUNK):
        rows = dist[i:i + _ROW_CHUNK]
        lo, hi = rows.min(initial=0.0), rows.max(initial=0.0)
        if not (math.isfinite(lo) and math.isfinite(hi)):  # NaN and +-inf reach one
            raise ContractError("distance matrix contains non-finite entries")
        lowest = min(lowest, lo)
        np.matmul(rows * rows, basis, out=sums[i:i + _ROW_CHUNK])
    if lowest < 0.0:
        raise ContractError("distance matrix contains negative entries")
    _reference_system(obj)
    o_sq = (o * o).sum(axis=1)
    moment = o.T @ o
    moment_inv = np.linalg.inv(moment)
    residual_o = o_sq @ o - sums[:, :3]  # t - G
    residual_sum = o_sq.sum() - sums[:, 3]  # sum_j ||o_j||^2 - g
    q = 0.5 * residual_o @ moment_inv
    for _ in range(_MAX_STEPS):
        f_sum = n * (q * q).sum(axis=1) + residual_sum
        rhs = 0.5 * (q * f_sum[:, None] - residual_o) + q @ moment  # J^T f / 4
        u = q @ moment_inv
        v = rhs @ moment_inv
        step = v - u * (n * (q * v).sum(axis=1) / (1.0 + n * (q * u).sum(axis=1)))[:, None]
        q = q - step
        if np.max(np.abs(step), initial=0.0) < _STEP_TOL:
            break
    p = q + centroid
    if not np.all(np.isfinite(p)):
        row = int(np.flatnonzero(~np.isfinite(p).all(axis=1))[0])
        raise DegeneracyError(f"multilateration diverged at row {row}")
    return p


def multilaterate_point(distances, object_cloud) -> np.ndarray:
    """Position of one point from its distances to all object points."""
    obj = _points_of(object_cloud)
    d = np.asarray(distances, dtype=float)
    if d.shape != (len(obj),):
        raise ContractError(f"distances shape {d.shape} does not match "
                            f"{len(obj)} reference points")
    return _multilaterate_rows(d[None, :], obj)[0]


def recover_cloud(dro: np.ndarray, object_cloud, labels=None) -> PointCloud:
    """Row-wise multilateration of a full distance matrix.

    Rows are solved independently but refined together: the polish stops
    when no row moves by ``_STEP_TOL`` or more, so a row's result depends
    on the rest of the matrix by less than that tolerance.  The output
    carries the provided link labels.
    """
    obj = _points_of(object_cloud)
    dro = np.asarray(dro, dtype=float)
    if dro.ndim != 2:
        raise ContractError(f"distance matrix must be 2-D, got shape {dro.shape}")
    if dro.shape[1] != len(obj):
        raise ContractError(f"matrix has {dro.shape[1]} columns but object cloud "
                            f"has {len(obj)} points")
    pts = _multilaterate_rows(dro, obj)
    return PointCloud(pts, list(labels) if labels is not None else None)
