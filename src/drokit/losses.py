"""Reference numeric implementations of the training-loss formulas.

These operate on plain arrays so external harnesses can validate their own
(e.g. autograd) implementations against them.  Everything here is pure and
deterministic.
"""

from __future__ import annotations

import warnings

import numpy as np

from .cloud import TriangleMesh
from .dro import _points_of, compute_dro
from .errors import ContractError, DataError
from .rng import substream

_POINT_CHUNK = 128  # bounds the (points x triangles) working arrays


def contrastive_weights(points_b: np.ndarray, lam: float,
                        per_row: bool = False) -> np.ndarray:
    """Negative-pair weights: tanh(lam * pairwise distance), normalized by the
    global off-diagonal maximum (or each row's maximum when ``per_row``);
    diagonal fixed at 1.

    All points coincident makes the normalizer zero; the limit convention is
    an all-ones matrix, reported via a warning.
    """
    pts = _points_of(points_b)
    n = len(pts)
    if n < 1:
        raise ContractError("need at least one point")
    if lam <= 0.0:
        raise ContractError("lambda must be positive")
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
    if tau <= 0.0:
        raise ContractError("tau must be positive")
    pts = _points_of(points_b)
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
    for r in (rot, rot_gt):
        if r.shape != (3, 3):
            raise ContractError(f"rotation must be 3x3, got {r.shape}")
        if np.abs(r.T @ r - np.eye(3)).max() > 1e-6 or np.linalg.det(r) < 0.0:
            raise ContractError("rotation is not orthonormal within 1e-6")
    cos_angle = (np.trace(rot.T @ rot_gt) - 1.0) / 2.0
    angle = np.arccos(np.clip(cos_angle, -1.0, 1.0))
    return float(np.linalg.norm(x - x_gt) + angle)


def dro_l1_loss(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean absolute elementwise difference of two distance matrices."""
    a = np.asarray(pred, dtype=float)
    b = np.asarray(gt, dtype=float)
    if a.shape != b.shape:
        raise ContractError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).mean())


def _closest_point_distances(points: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Distance from each point to each triangle, (N, T)."""
    a = corners[:, 0]
    ab = corners[:, 1] - a
    ac = corners[:, 2] - a
    p = points[:, None, :]

    ap = p - a
    d1 = (ab * ap).sum(axis=2)
    d2 = (ac * ap).sum(axis=2)
    bp = p - corners[:, 1]
    d3 = (ab * bp).sum(axis=2)
    d4 = (ac * bp).sum(axis=2)
    cp = p - corners[:, 2]
    d5 = (ab * cp).sum(axis=2)
    d6 = (ac * cp).sum(axis=2)

    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    def safe_div(num, den):
        return num / np.where(den == 0.0, 1.0, den)

    with np.errstate(invalid="ignore", divide="ignore"):
        v_ab = safe_div(d1, d1 - d3)[..., None]
        v_ac = safe_div(d2, d2 - d6)[..., None]
        v_bc = safe_div(d4 - d3, (d4 - d3) + (d5 - d6))[..., None]
        denom = safe_div(np.ones_like(va), va + vb + vc)
        v_face = (vb * denom)[..., None]
        w_face = (vc * denom)[..., None]

        # Ericson region tests, highest priority first
        conds = [
            (d1 <= 0.0) & (d2 <= 0.0),                      # vertex A
            (d3 >= 0.0) & (d4 <= d3),                       # vertex B
            (d6 >= 0.0) & (d5 <= d6),                       # vertex C
            (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0),        # edge AB
            (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0),        # edge AC
            (va <= 0.0) & (d4 >= d3) & (d5 >= d6),          # edge BC
        ]
        choices = [
            np.broadcast_to(a[None, :, :], (len(points),) + a.shape),
            np.broadcast_to(corners[None, :, 1, :], (len(points),) + a.shape),
            np.broadcast_to(corners[None, :, 2, :], (len(points),) + a.shape),
            a + v_ab * ab,
            a + v_ac * ac,
            corners[:, 1] + v_bc * (corners[:, 2] - corners[:, 1]),
        ]
        closest = a + v_face * ab + w_face * ac
        for cond, choice in zip(reversed(conds), reversed(choices)):
            closest = np.where(cond[..., None], choice, closest)
    return np.linalg.norm(p - closest, axis=2)


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


def winding_numbers(points, mesh: TriangleMesh) -> np.ndarray:
    """Generalized winding number of each point: ~1 inside, ~0 outside."""
    pts = _points_of(points)
    corners = mesh.corners()
    out = np.empty(len(pts))
    for i in range(0, len(pts), _POINT_CHUNK):
        chunk = pts[i:i + _POINT_CHUNK]
        out[i:i + _POINT_CHUNK] = _solid_angles(chunk, corners).sum(axis=1) / (4.0 * np.pi)
    return out


def signed_distances(points, mesh: TriangleMesh) -> np.ndarray:
    """Distance to the mesh surface, negative inside (winding number > 1/2)."""
    pts = _points_of(points)
    corners = mesh.corners()
    dist = np.empty(len(pts))
    for i in range(0, len(pts), _POINT_CHUNK):
        chunk = pts[i:i + _POINT_CHUNK]
        dist[i:i + _POINT_CHUNK] = _closest_point_distances(chunk, corners).min(axis=1)
    inside = winding_numbers(pts, mesh) > 0.5
    dist[inside] = -dist[inside]
    return dist


def check_watertight(mesh: TriangleMesh, n_probes: int = 32, tol: float = 1e-3) -> None:
    """Raise DataError unless winding numbers are integer-consistent on a
    deterministic probe set around the mesh."""
    if len(mesh.triangles) == 0:
        raise DataError("mesh has no triangles")
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    rng = substream(0, "watertight-probe")
    probes = lo - 0.25 * span + rng.random((n_probes, 3)) * (1.5 * span)
    probes = np.vstack([probes, hi + span])  # guaranteed-outside probe
    w = winding_numbers(probes, mesh)
    # ignore probes that sit on the surface itself
    corners = mesh.corners()
    dist = _closest_point_distances(probes, corners).min(axis=1)
    usable = dist > 1e-9 * float(span.max())
    drift = np.abs(w[usable] - np.round(w[usable]))
    if drift.size and drift.max() > tol:
        raise DataError(f"mesh is not watertight: winding number drift "
                        f"{drift.max():.3g} exceeds {tol}")


def penetration_loss(robot_cloud, object_mesh: TriangleMesh) -> float:
    """Magnitude of summed negative signed distances of robot points to the
    object surface: zero iff no point is strictly inside."""
    pts = _points_of(robot_cloud)
    check_watertight(object_mesh)
    sdf = signed_distances(pts, object_mesh)
    return float(abs(np.minimum(sdf, 0.0).sum()))
