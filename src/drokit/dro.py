"""Robot-object distance matrices and point recovery by multilateration.

The distance matrix stores the Euclidean distance between every robot point
and every object point.  Any such matrix, together with the object cloud it
was measured against, determines the robot cloud: each row is a set of
range measurements to known reference points, solved by a linearized
least-squares step plus a short Gauss-Newton polish on the squared-range
residuals.

All rows share one SVD of the object-side linear system: it checks the
references for degeneracy and gives the pseudo-inverse of the closed-form
step.  The polish works in moment form in the object's centroid frame, so
each step costs two (rows, N_O) matrix products and a batched 3 x 3 solve;
no per-row (N_O, 3) difference array is ever formed.
"""

from __future__ import annotations

import numpy as np

from .cloud import PointCloud
from .errors import ContractError, DegeneracyError

CONDITION_LIMIT = 1e10
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


def _reference_system(obj: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of the linearized multilateration system; shared by every row.

    The (N_O, 4) system [-2 p_j, 1] is factored once by SVD.  The same
    singular values decide degeneracy and build the pseudo-inverse, so the
    closed-form step needs no second factorization.
    """
    n = len(obj)
    if n < 4:
        raise DegeneracyError(f"need at least 4 reference points, got {n}")
    a = np.empty((n, 4))
    a[:, :3] = -2.0 * obj
    a[:, 3] = 1.0
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    if sv[-1] <= 0.0 or sv[0] / sv[-1] > CONDITION_LIMIT:
        raise DegeneracyError("reference points are degenerate (coplanar or worse); "
                              f"condition number exceeds {CONDITION_LIMIT:.0e}")
    return (vt.T / sv) @ u.T  # (4, N_O)


def _multilaterate_rows(dist: np.ndarray, obj: np.ndarray, refine_steps: int) -> np.ndarray:
    """Solve every row of a distance matrix against shared references.

    Closed-form step: with s = ||p||^2 the range equations become linear,
    -2 p_j . p + s = d_j^2 - ||p_j||^2, solved for all rows at once with the
    pseudo-inverse from the SVD that ``_reference_system`` also uses for its
    condition check.  Gauss-Newton steps on f_j(p) = ||p - p_j||^2 - d_j^2
    then remove the linearization bias.

    The refine runs in moment form in the object's centroid frame
    (o_j = p_j - mean, q = p - mean, so sum_j o_j = 0):
    f = ||q||^2 - 2 q . o_j + ||o_j||^2 - d_j^2 is one GEMM for all rows,
    J^T J = 4 (N q q^T + M) with M = sum_j o_j o_j^T formed once, and
    J^T f = 2 (q sum_j f_j - f @ o), a second GEMM.  The largest temporary
    is (rows, N_O).  Centring keeps the expanded squares small, so accuracy
    does not fall off as the object moves away from the origin.
    """
    pinv = _reference_system(obj)
    d_sq = dist * dist
    solution = (d_sq - (obj * obj).sum(axis=1)) @ pinv.T  # (rows, 4)

    centroid = obj.mean(axis=0)
    o = obj - centroid
    o_sq = (o * o).sum(axis=1)
    moment = o.T @ o
    n = len(obj)
    q = solution[:, :3] - centroid
    for _ in range(refine_steps):
        f = q @ o.T  # (rows, N_O)
        f *= -2.0
        f += (q * q).sum(axis=1)[:, None]
        f += o_sq
        f -= d_sq
        jtj = 4.0 * (n * q[:, :, None] * q[:, None, :] + moment)
        jtf = 2.0 * (q * f.sum(axis=1)[:, None] - f @ o)
        try:
            step = np.linalg.solve(jtj, jtf[..., None])[..., 0]
        except np.linalg.LinAlgError:
            bad = [i for i in range(len(q))
                   if np.linalg.matrix_rank(jtj[i]) < 3]
            row = bad[0] if bad else 0
            raise DegeneracyError(f"refinement normal equations singular at row {row}")
        q = q - step
    p = q + centroid
    if not np.all(np.isfinite(p)):
        row = int(np.flatnonzero(~np.isfinite(p).all(axis=1))[0])
        raise DegeneracyError(f"multilateration diverged at row {row}")
    return p


def multilaterate_point(distances, object_cloud, refine_steps: int = 3) -> np.ndarray:
    """Position of one point from its distances to all object points."""
    obj = _points_of(object_cloud)
    d = np.asarray(distances, dtype=float)
    if d.shape != (len(obj),):
        raise ContractError(f"distances shape {d.shape} does not match "
                            f"{len(obj)} reference points")
    _validate_distances(d)
    return _multilaterate_rows(d[None, :], obj, refine_steps)[0]


def _validate_distances(d: np.ndarray):
    if not np.all(np.isfinite(d)):
        raise ContractError("distance matrix contains non-finite entries")
    if np.any(d < 0.0):
        raise ContractError("distance matrix contains negative entries")


def recover_cloud(dro: np.ndarray, object_cloud, labels=None,
                  refine_steps: int = 3) -> PointCloud:
    """Row-wise multilateration of a full distance matrix.

    Rows are independent; the output carries the provided link labels.
    """
    obj = _points_of(object_cloud)
    dro = np.asarray(dro, dtype=float)
    if dro.ndim != 2:
        raise ContractError(f"distance matrix must be 2-D, got shape {dro.shape}")
    if dro.shape[1] != len(obj):
        raise ContractError(f"matrix has {dro.shape[1]} columns but object cloud "
                            f"has {len(obj)} points")
    _validate_distances(dro)
    pts = _multilaterate_rows(dro, obj, refine_steps)
    return PointCloud(pts, list(labels) if labels is not None else None)
