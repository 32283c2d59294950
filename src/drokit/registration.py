"""Correspondence-known rigid registration of per-link point sets.

Each link pose is the least-squares rotation+translation between its canonical
and recovered points (Umeyama, 1991): centroid alignment, then Procrustes on the
cross-covariance SVD, reflection corrected.  One batched SVD solves every link,
``register_link`` is its one-link case, and rank-deficient links are flagged.
"""

from __future__ import annotations

import numpy as np

from .cloud import PointCloud
from .errors import ContractError, DegeneracyError
from .kinematics import LinkPoseSet

# second singular value below this fraction of the largest means the points
# span less than a plane: rotation about the point line is unobservable
_RANK_RTOL = 1e-9


def register_link(canonical_points: np.ndarray, predicted_points: np.ndarray,
                  name: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Rotation and translation minimizing sum ||predicted - (R c + x)||^2.

    Requires at least 3 non-collinear correspondences; index i must name the
    same material point in both arrays.
    """
    tag = f" for link '{name}'" if name else ""
    a, b = _checked(canonical_points, predicted_points, tag)
    rot, ca, cb, full_rank = _procrustes(a, b, np.array([len(a)]))
    if not full_rank[0]:
        raise DegeneracyError(f"registration{tag}: points are collinear or coincident "
                              "(rank-deficient cross-covariance)")
    return rot[0], cb[0] - rot[0] @ ca[0]


def register_all(canonical: dict[str, np.ndarray], recovered: PointCloud,
                 parents: dict[str, str | None] | None = None) -> LinkPoseSet:
    """Per-link registration of a labeled recovered cloud.

    ``parents`` maps each link to its parent link (None at the root); it is
    only consulted for the degenerate fallback, where a link with collinear
    canonical points inherits the rotation of its nearest ancestor resolved
    before it in ``canonical`` order and is flagged in ``fallback_links``.
    """
    recovered_by_link = recovered.by_link()
    if set(recovered_by_link) != set(canonical):
        missing = sorted(set(canonical) ^ set(recovered_by_link))
        raise ContractError(f"recovered labels do not match canonical links: {missing}")
    if not canonical:
        return LinkPoseSet({}, {})
    pairs = [_checked(pts, recovered_by_link[link], f" for link '{link}'")
             for link, pts in canonical.items()]
    a, b = map(np.vstack, zip(*pairs))
    rot, ca, cb, full_rank = _procrustes(a, b, np.array([len(p) for p, _ in pairs]))
    rotations: dict[str, np.ndarray] = {}
    for i, link in enumerate(canonical):
        if not full_rank[i]:
            rot[i] = _ancestor_rotation(link, parents, rotations)
        rotations[link] = rot[i]
    translations = dict(zip(canonical, cb - np.einsum("lij,lj->li", rot, ca)))
    fallback = frozenset(link for link, ok in zip(canonical, full_rank) if not ok)
    return LinkPoseSet(rotations, translations, fallback)


def _checked(canonical_points, predicted_points, tag: str) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(canonical_points, dtype=float)
    b = np.asarray(predicted_points, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != 3:
        raise ContractError(f"registration{tag}: point arrays must share shape (M, 3), "
                            f"got {a.shape} and {b.shape}")
    if len(a) < 3:
        raise ContractError(f"registration{tag}: need at least 3 points, got {len(a)}")
    return a, b


def _procrustes(a: np.ndarray, b: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rotations, centroids and full-rank flags of stacked segments (>= 1 point each)."""
    starts = np.cumsum(counts) - counts
    ca = np.add.reduceat(a, starts) / counts[:, None]
    cb = np.add.reduceat(b, starts) / counts[:, None]
    seg = np.repeat(np.arange(len(counts)), counts)
    h = np.add.reduceat((a - ca[seg])[:, :, None] * (b - cb[seg])[:, None, :], starts)
    u, s, vt = np.linalg.svd(h)
    # R = V U^T is a reflection where det(U V^T) < 0; negating V's last column fixes it
    vt[np.linalg.det(u @ vt) < 0.0, -1] *= -1.0
    full_rank = (s[:, 0] > 0.0) & (s[:, 1] > _RANK_RTOL * s[:, 0])
    return np.swapaxes(vt, 1, 2) @ np.swapaxes(u, 1, 2), ca, cb, full_rank


def _ancestor_rotation(link: str, parents, rotations: dict[str, np.ndarray]) -> np.ndarray:
    cur = parents.get(link) if parents is not None else None
    while cur is not None and cur not in rotations:
        cur = parents.get(cur)
    return np.eye(3) if cur is None else rotations[cur]


def registration_residual(canonical_points, predicted_points, rot, x) -> float:
    """Sum of squared correspondence errors under a candidate pose."""
    a = np.asarray(canonical_points, dtype=float)
    b = np.asarray(predicted_points, dtype=float)
    err = b - (a @ np.asarray(rot).T + np.asarray(x))
    return float((err * err).sum())
