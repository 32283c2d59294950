"""Reference numeric implementations of the training-loss formulas.

These operate on plain arrays so external harnesses can validate their own
(e.g. autograd) implementations against them.  Everything here is pure and
deterministic.
"""

from __future__ import annotations

import warnings

import numpy as np

from .cloud import TriangleMesh, _points_of
from .dro import compute_dro
from .errors import ContractError, DataError, _require_positive
from .rng import substream

_POINT_CHUNK = 128  # bounds the (points x triangles) working arrays
_WATERTIGHT_PROBES = 32  # random probes around the mesh in check_watertight
_WATERTIGHT_TOL = 1e-3  # largest winding-number drift from an integer


def contrastive_weights(points_b: np.ndarray, lam: float,
                        per_row: bool = False) -> np.ndarray:
    """Negative-pair weights: tanh(lam * pairwise distance), normalized by the
    global off-diagonal maximum (or each row's maximum when ``per_row``);
    diagonal fixed at 1.

    All points coincident makes the normalizer zero; the limit convention is
    an all-ones matrix, reported via a warning.
    """
    pts = _points_of(points_b, "points_b: expected (N, 3) points")
    n = len(pts)
    if n < 1:
        raise ContractError("need at least one point")
    _require_positive("lam", lam)
    if n == 1:
        return np.ones((1, 1))
    w = np.tanh(lam * compute_dro(pts, pts))
    off = ~np.eye(n, dtype=bool)
    peak = w[off].reshape(n, n - 1).max(axis=1) if per_row else w[off].max()
    if np.min(peak) <= 0.0:
        warnings.warn("all points coincident; contrastive weights degenerate to 1",
                      RuntimeWarning, stacklevel=2)
        return np.ones((n, n))
    w = w / (peak[:, None] if per_row else peak)
    np.fill_diagonal(w, 1.0)
    return w


def contrastive_loss(phi_a: np.ndarray, phi_b: np.ndarray, points_b: np.ndarray,
                     tau: float = 0.1, lam: float = 10.0) -> float:
    """Weighted InfoNCE over per-point features of the same cloud in two
    configurations; positives pair equal indices, cosine similarity, the
    log-sum-exp evaluated with max subtraction.

    Normalized by the number of points (the index the sum runs over), with
    negative-pair weights normalized by the global off-diagonal maximum; see
    :func:`contrastive_weights` for the per-row alternative."""
    a = np.asarray(phi_a, dtype=float)
    b = np.asarray(phi_b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ContractError(f"feature matrices must share shape (N, D), "
                            f"got {a.shape} and {b.shape}")
    _require_positive("tau", tau)
    pts = _points_of(points_b, "points_b: expected (N, 3) points")
    if len(pts) != len(a):
        raise ContractError("points_b length does not match feature rows")

    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise ContractError("zero-norm feature row; cosine similarity undefined")
    sim = (a / na[:, None]) @ (b / nb[:, None]).T
    logits = sim / tau

    w = contrastive_weights(pts, lam)
    peak = logits.max(axis=1, keepdims=True)
    denom = np.log((w * np.exp(logits - peak)).sum(axis=1)) + peak[:, 0]
    return float(np.mean(denom - np.diag(logits)))


def pose_loss(pose: tuple[np.ndarray, np.ndarray],
              pose_gt: tuple[np.ndarray, np.ndarray]) -> float:
    """Translation distance plus geodesic rotation angle between 6D poses."""
    rot, x = (np.asarray(p, dtype=float) for p in pose)
    rot_gt, x_gt = (np.asarray(p, dtype=float) for p in pose_gt)
    for r, t in ((rot, x), (rot_gt, x_gt)):
        if r.shape != (3, 3):
            raise ContractError(f"rotation must be 3x3, got {r.shape}")
        if t.shape != (3,):
            raise ContractError(f"translation must have shape (3,), got {t.shape}")
        for name, v in (("rotation", r), ("translation", t)):
            if not np.isfinite(v).all():  # a NaN rotation passes the test below
                raise ContractError(f"{name} contains non-finite values")
        if np.abs(r.T @ r - np.eye(3)).max() > 1e-6 or np.linalg.det(r) < 0.0:
            raise ContractError("rotation is not orthonormal within 1e-6")
    cos_angle = (np.trace(rot.T @ rot_gt) - 1.0) / 2.0
    angle = np.arccos(np.clip(cos_angle, -1.0, 1.0))
    return float(np.linalg.norm(x - x_gt) + angle)


def dro_l1_loss(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean absolute elementwise difference of two distance matrices."""
    a = np.asarray(pred, dtype=float)
    b = np.asarray(gt, dtype=float)
    if a.shape != b.shape or a.size == 0:
        raise ContractError(f"matrices must share a nonempty shape, got {a.shape} and {b.shape}")
    return float(np.abs(a - b).mean())


def _closest_point_distances(points: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Distance from each point to each triangle, (N, T).

    A point whose projection falls inside the triangle is at its plane
    distance; any other point is nearest to one of the three edges.
    """
    p = points[:, None, :]
    n = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    nn = np.linalg.norm(n, axis=1)
    inside = nn > 0.0
    edge = np.inf
    for k in range(3):
        e0 = corners[:, k]
        e = corners[:, (k + 1) % 3] - e0
        ep = p - e0
        ee = (e * e).sum(axis=1)
        # a zero-length edge counts as its endpoint
        t = np.clip((ep * e).sum(axis=2) / np.where(ee > 0.0, ee, 1.0), 0.0, 1.0)
        edge = np.minimum(edge, np.linalg.norm(ep - t[..., None] * e, axis=2))
        # on the inner side of the edge, (e x ep) . n = ep . (n x e) >= 0
        inside = inside & ((ep * np.cross(n, e)).sum(axis=2) >= 0.0)
    plane = np.abs(((p - corners[:, 0]) * n).sum(axis=2)) / np.where(nn > 0.0, nn, 1.0)
    return np.where(inside, plane, edge)


def _solid_angles(points: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Signed solid angle subtended by each triangle at each point, (N, T)."""
    a = corners[None, :, 0, :] - points[:, None, :]
    b = corners[None, :, 1, :] - points[:, None, :]
    c = corners[None, :, 2, :] - points[:, None, :]
    la = np.linalg.norm(a, axis=2)
    lb = np.linalg.norm(b, axis=2)
    lc = np.linalg.norm(c, axis=2)
    det = np.einsum("ntk,ntk->nt", a, np.cross(b, c))
    denom = (la * lb * lc + np.einsum("ntk,ntk->nt", a, b) * lc
             + np.einsum("ntk,ntk->nt", b, c) * la
             + np.einsum("ntk,ntk->nt", c, a) * lb)
    return 2.0 * np.arctan2(det, denom)


def _per_point(points, mesh: TriangleMesh, kernel) -> np.ndarray:
    """``kernel(chunk, corners)``, one value per point, over chunks of the
    points so the (points x triangles) arrays stay bounded."""
    pts = _points_of(points, "points: expected (N, 3) points")
    corners = mesh.corners()
    out = np.empty(len(pts))
    for i in range(0, len(pts), _POINT_CHUNK):
        out[i:i + _POINT_CHUNK] = kernel(pts[i:i + _POINT_CHUNK], corners)
    return out


def winding_numbers(points, mesh: TriangleMesh) -> np.ndarray:
    """Generalized winding number of each point: ~1 inside, ~0 outside."""
    return _per_point(points, mesh, lambda p, c: _solid_angles(p, c).sum(axis=1) / (4.0 * np.pi))


def signed_distances(points, mesh: TriangleMesh) -> np.ndarray:
    """Distance to the mesh surface, negative inside (winding number > 1/2)."""
    dist = _per_point(points, mesh, lambda p, c: _closest_point_distances(p, c).min(axis=1))
    return np.where(winding_numbers(points, mesh) > 0.5, -dist, dist)


def check_watertight(mesh: TriangleMesh) -> None:
    """Raise DataError unless winding numbers are integer-consistent on a
    deterministic probe set around the mesh."""
    if len(mesh.triangles) == 0:
        raise DataError("mesh has no triangles")
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    rng = substream(0, "watertight-probe")
    probes = lo - 0.25 * span + rng.random((_WATERTIGHT_PROBES, 3)) * (1.5 * span)
    probes = np.vstack([probes, hi + span])  # guaranteed-outside probe
    w = winding_numbers(probes, mesh)
    # ignore probes that sit on the surface itself
    corners = mesh.corners()
    dist = _closest_point_distances(probes, corners).min(axis=1)
    usable = dist > 1e-9 * float(span.max())
    drift = np.abs(w[usable] - np.round(w[usable]))
    if drift.size and drift.max() > _WATERTIGHT_TOL:
        raise DataError(f"mesh is not watertight: winding number drift "
                        f"{drift.max():.3g} exceeds {_WATERTIGHT_TOL}")


def penetration_loss(robot_cloud, object_mesh: TriangleMesh) -> float:
    """Magnitude of summed negative signed distances of robot points to the
    object surface: zero iff no point is strictly inside."""
    pts = _points_of(robot_cloud, "robot_cloud: expected (N, 3) points")
    check_watertight(object_mesh)
    sdf = signed_distances(pts, object_mesh)
    return float(abs(np.minimum(sdf, 0.0).sum()))
