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

All rows share the references, judged for degeneracy on the centred system
the solver solves, so the verdict does not depend on where the object sits.
The squared-range residual is linear in (p, ||p||^2, 1), so the closed form
and every polish step come from a few moments of d^2.  The matrix is read once,
in ``_ROW_CHUNK``-row blocks, each checked with one ``min``, and each step
after that costs O(rows).  Everything that depends on the object alone (its
centroid frame, the reference check, M, M^-1 and t) is one cached function
of the object's bytes, so a run of recoveries against one object pays only
for its matrices, and a recovery depends on the object's values alone, not
on its memory layout or on the objects recovered before.

The distance matrix itself is built ``_ROW_CHUNK`` robot rows at a time,
each coordinate difference coming from BLAS as the GEMM [r_k | 1] @
[1 ; -o_k]: both products are exact and their sum is rounded once, so every
entry is bitwise the direct sqrt((dx*dx + dy*dy) + dz*dz) at about half the
cost of a broadcast subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cloud import PointCloud, _points_of
from .errors import ContractError, DegeneracyError

CONDITION_LIMIT = 1e10
_STEP_TOL = 1e-8  # m; the refine stops once no row moves further than this
_MAX_STEPS = 10  # refine cap; the iterate reached there is returned as is
_ROW_CHUNK = 64  # bounds the (rows x object points) distance temporary


def compute_dro(robot_cloud, object_cloud) -> np.ndarray:
    """Pairwise robot-object distance matrix.

    Each coordinate difference is a two-term product [r_k | 1] @ [1 ; -o_k],
    one GEMM per coordinate and ``_ROW_CHUNK`` robot rows.  Both products
    are exact and their sum is rounded once, so every difference equals
    r_k - o_k bitwise, whatever order or FMA the BLAS uses, and non-finite
    coordinates give the inf or NaN the subtraction would.  The x difference
    lands in the output block and y and z in one reused (_ROW_CHUNK, N_O)
    buffer, each squared in place and added in order, so every entry is
    sqrt((dx*dx + dy*dy) + dz*dz) and the temporaries are chunk-sized.
    """
    rpts = _points_of(robot_cloud, "robot_cloud: expected (N, 3) points")
    opts = _points_of(object_cloud, "object_cloud: expected (N, 3) points")
    if len(rpts) == 0 or len(opts) == 0:
        raise ContractError("clouds must be nonempty")
    lhs = np.ones((3, len(rpts), 2))  # [r_k | 1]
    lhs[:, :, 0] = rpts.T
    rhs = np.ones((3, 2, len(opts)))  # [1 ; -o_k]
    np.negative(opts.T, out=rhs[:, 1])
    out = np.empty((len(rpts), len(opts)))
    buf = np.empty((min(_ROW_CHUNK, len(rpts)), len(opts)))
    for i in range(0, len(rpts), _ROW_CHUNK):
        sq = out[i:i + _ROW_CHUNK]
        d = buf[:len(sq)]
        np.matmul(lhs[0, i:i + _ROW_CHUNK], rhs[0], out=sq)
        np.multiply(sq, sq, out=sq)
        for k in (1, 2):
            np.matmul(lhs[k, i:i + _ROW_CHUNK], rhs[k], out=d)
            np.multiply(d, d, out=d)
            np.add(sq, d, out=sq)
        np.sqrt(sq, out=sq)
    return out


@dataclass(frozen=True)
class _ObjectFrame:
    """Everything the solver needs from the references alone.

    ``degenerate`` holds the reference check's message, raised only after
    the matrix values have been checked; ``moment_inv`` is None then.
    """

    centroid: np.ndarray
    basis: np.ndarray  # [o | 1], o = p_j - centroid
    degenerate: str | None
    moment: np.ndarray  # M = sum_j o_j o_j^T
    moment_inv: np.ndarray | None
    t: np.ndarray  # sum_j ||o_j||^2 o_j
    o_sq_sum: float  # sum_j ||o_j||^2


@lru_cache(maxsize=1)
def _object_frame_of(key: bytes) -> _ObjectFrame:
    """The frame of the object whose C-ordered float64 coordinates are ``key``.

    The last object's frame is kept, so a run of recoveries against one
    object builds it once.  The key is ``obj.tobytes()`` and the points are
    rebuilt from it, so the frame depends only on the object's values: not on
    the layout of the array passed in, nor on which object came before.
    """
    obj = np.frombuffer(key).reshape(-1, 3)
    n = len(obj)
    centroid = obj.mean(axis=0) if n else np.zeros(3)  # no references: rejected later
    basis = np.ones((n, 4))
    o = basis[:, :3]
    np.subtract(obj, centroid, out=o)
    # judged on [o | 1] itself, the basis the moment pass multiplies by: its
    # SVD sees a plane whose offset from the centroid is rounding-sized, which
    # eigenvalues of M (accurate to eps ||M||) or the SVD of o alone miss
    degenerate = None
    if n < 4:
        degenerate = f"need at least 4 reference points, got {n}"
    elif np.isfinite(o).all():  # non-finite references end in the divergence check
        sv = np.linalg.svd(basis, compute_uv=False)
        if sv[-1] <= 0.0 or sv[0] / sv[-1] > CONDITION_LIMIT:
            degenerate = ("reference points are degenerate (coplanar or worse); "
                          f"condition number exceeds {CONDITION_LIMIT:.0e}")
    o_sq = (o * o).sum(axis=1)
    moment = o.T @ o
    return _ObjectFrame(centroid, basis, degenerate, moment,
                        None if degenerate else np.linalg.inv(moment),
                        o_sq @ o, float(o_sq.sum()))


@np.errstate(all="ignore")  # inf * 0 and overflow end in the checks
def _multilaterate_rows(dist: np.ndarray, obj: np.ndarray) -> np.ndarray:
    """Solve every row of a distance matrix against shared references.

    Everything runs in the object's centroid frame (o_j = p_j - mean,
    q = p - mean, so sum_j o_j = 0), where the squared-range residual
    f_j = ||q||^2 - 2 q . o_j + ||o_j||^2 - d_j^2 is linear in (q, ||q||^2, 1).
    Every quantity the solver needs is then a moment of d^2, and the matrix
    is read once: d^2 is formed ``_ROW_CHUNK`` rows at a time in one reused
    buffer and multiplied by [o | 1], giving G = d^2 @ o and
    g = sum_j d_j^2 per row.

    With M = sum_j o_j o_j^T and t = sum_j ||o_j||^2 o_j, the closed-form
    (linearized least-squares) point is q = -M^-1 (G - t) / 2.  Gauss-Newton
    steps on f then remove the linearization bias, each from O(rows) work:
    sum_j f_j = n ||q||^2 + sum_j ||o_j||^2 - g, f @ o = t - G - 2 M q,
    J^T f = 2 (q sum_j f_j - f @ o) and J^T J = 4 (M + n q q^T), solved by
    Sherman-Morrison on M^-1.  An exact matrix stops after one step.  The
    largest temporary is one (_ROW_CHUNK, N_O) block, and centring keeps the
    expanded squares small, so accuracy does not fall off as the object moves
    away from the origin.

    The value checks cost one ``min`` per block, taken while the block is in
    cache: it catches NaN, -inf and negative entries.  A +inf entry shows
    as a non-finite g, and only then are the maxima scanned, to tell it from
    finite entries whose squares overflow (those end in divergence).  A
    non-finite entry is reported before a negative one, and both before the
    reference check, wherever they sit in the matrix.
    """
    frame = _object_frame_of(obj.tobytes())
    n = len(obj)
    sums = np.empty((len(dist), 4))  # [G | g]
    sq = np.empty((min(_ROW_CHUNK, len(dist)), n))
    lowest = 0.0
    for i in range(0, len(dist), _ROW_CHUNK):
        rows = dist[i:i + _ROW_CHUNK]
        lo = rows.min(initial=0.0)
        if not lo >= lowest:  # NaN fails every comparison
            if not math.isfinite(lo):
                raise ContractError("distance matrix contains non-finite entries")
            lowest = lo
        block = sq[:len(rows)]
        np.multiply(rows, rows, out=block)
        np.matmul(block, frame.basis, out=sums[i:i + _ROW_CHUNK])
    if not math.isfinite(sums[:, 3].sum()) and dist.max() == math.inf:
        raise ContractError("distance matrix contains non-finite entries")
    if lowest < 0.0:
        raise ContractError("distance matrix contains negative entries")
    if frame.degenerate:
        raise DegeneracyError(frame.degenerate)
    moment, moment_inv = frame.moment, frame.moment_inv
    residual_o = frame.t - sums[:, :3]  # t - G
    residual_sum = frame.o_sq_sum - sums[:, 3]  # sum_j ||o_j||^2 - g
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
    p = q + frame.centroid
    if not np.all(np.isfinite(p)):
        row = int(np.flatnonzero(~np.isfinite(p).all(axis=1))[0])
        raise DegeneracyError(f"multilateration diverged at row {row}")
    return p


def multilaterate_point(distances, object_cloud) -> np.ndarray:
    """Position of one point from its distances to all object points."""
    obj = _points_of(object_cloud, "object_cloud: expected (N, 3) points")
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
    obj = _points_of(object_cloud, "object_cloud: expected (N, 3) points")
    dro = np.asarray(dro, dtype=float)
    if dro.ndim != 2:
        raise ContractError(f"distance matrix must be 2-D, got shape {dro.shape}")
    if dro.shape[1] != len(obj):
        raise ContractError(f"matrix has {dro.shape[1]} columns but object cloud "
                            f"has {len(obj)} points")
    pts = _multilaterate_rows(dro, obj)
    return PointCloud(pts, labels)
