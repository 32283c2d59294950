"""Correspondence-known rigid registration of per-link point sets.

Each link pose is the least-squares rotation+translation between its canonical
and recovered points (Umeyama, 1991): centroid alignment, then Procrustes on the
cross-covariance SVD, reflection corrected.  One kernel registers every link of
a cloud: the recovered points times the cloud's centred canonical points,
summed per link, give all centroids and cross-covariances, and one batched SVD
all rotations.  It reads segment tables that ``_cloud_segments`` builds from
the canonical points alone: a model with clouds keeps them in its recovery
plan, ``register_all`` builds them from its arguments per call, and
``register_link`` is the one-link case.  Rank-deficient links are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, _points_of
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
    segments = _cloud_segments({name: canonical_points}, None)
    poses = _register(segments, _checked(segments, 0, predicted_points))
    if poses.fallback_links:
        raise DegeneracyError(f"registration{_tag(name)}: points are collinear or "
                              "coincident (rank-deficient cross-covariance)")
    return poses.rotations[0], poses.translations[0]


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
        return LinkPoseSet((), np.zeros((0, 3, 3)), np.zeros((0, 3)))
    segments = _cloud_segments(canonical, parents)
    points = np.concatenate([_checked(segments, i, recovered_by_link[link])
                             for i, link in enumerate(segments.links)])
    return _register(segments, points)


def _tag(link) -> str:
    return f" for link '{link}'" if link else ""


def _checked(segments: _CloudSegments, i: int, predicted_points) -> np.ndarray:
    """The predicted points of ``segments``' link ``i`` as finite floats;
    they must have its canonical points' shape."""
    where = f"registration{_tag(segments.links[i])}"
    b = _points_of(predicted_points, f"{where}: predicted points must have shape (M, 3)",
                   f"{where}: predicted point cloud")
    shape = (int(segments.counts[i]), 3)
    if b.shape != shape:
        raise ContractError(f"{where}: point arrays must share shape (M, 3), "
                            f"got {shape} and {b.shape}")
    return b


@dataclass(frozen=True)
class _CloudSegments:
    """Registration tables of a canonical cloud stacked link by link.

    Link l owns rows ``starts[l]`` to ``starts[l] + counts[l]``.
    ``centroid`` is (L, 3), the links' canonical centroids ca, and
    ``centred`` is (3, N), every canonical point minus its link's centroid,
    transposed.  ``anchor[l]`` is the slot of the link whose rotation link l
    takes when its points are rank-deficient, -1 for the identity.  The
    arrays are read-only.
    """

    links: tuple[str, ...]
    starts: np.ndarray
    counts: np.ndarray
    centroid: np.ndarray
    centred: np.ndarray
    anchor: tuple[int, ...]


def _cloud_segments(canonical: dict, parents: dict | None) -> _CloudSegments:
    """Tables of ``canonical``'s links in dict order.

    A link with rank-deficient points inherits the rotation of its nearest
    ancestor in ``parents`` (link -> parent link, None at the root) that
    comes before it in that order, or the identity.
    """
    links = tuple(canonical)
    blocks = []
    for link in links:
        where = f"registration{_tag(link)}"
        a = _points_of(canonical[link], f"{where}: canonical points must have shape (M, 3)")
        if len(a) < 3:
            raise ContractError(f"{where}: need at least 3 points, got {len(a)}")
        blocks.append(a)
    counts = np.array([len(a) for a in blocks])
    starts = np.cumsum(counts) - counts
    points = np.concatenate(blocks)
    centroid = np.add.reduceat(points, starts) / counts[:, None]
    # no extra pass over the points: a non-finite one (or overflow) shows in its centroid
    bad = np.flatnonzero(~np.isfinite(centroid).all(axis=1))
    if len(bad):
        raise ContractError(f"registration{_tag(links[bad[0]])}: canonical point cloud "
                            "contains non-finite coordinates")
    centred = (points - np.repeat(centroid, counts, axis=0)).T.copy()
    for table in (starts, counts, centroid, centred):
        table.flags.writeable = False

    slot = {link: i for i, link in enumerate(links)}
    anchor = []
    for i, link in enumerate(links):
        cur = parents.get(link) if parents is not None else None
        steps = len(parents or ())  # a cyclic map ends the walk at the identity
        while cur is not None and slot.get(cur, i) >= i and steps:
            cur, steps = parents.get(cur), steps - 1
        anchor.append(slot[cur] if cur is not None and slot.get(cur, i) < i else -1)
    return _CloudSegments(links, starts, counts, centroid, centred, tuple(anchor))


def _register(segments: _CloudSegments, points: np.ndarray) -> LinkPoseSet:
    """Pose set of the links whose points are stacked in ``segments.links``
    order, its rows in that order.

    A rank-deficient link takes its anchor's rotation, or the identity, and
    is flagged in ``fallback_links``."""
    # per link, the sum of the points (measured from the first one, so the
    # products stay as small as the cloud wherever it lies) gives the
    # centroid, and the sums of their products with the centred canonical
    # coordinates give the cross-covariance sum (a - ca) p^T, since centred
    # points sum to zero
    origin = points[0]
    stacked = np.empty((4, 3, len(points)))
    np.subtract(points.T, origin[:, None], out=stacked[0])
    np.multiply(segments.centred[:, None, :], stacked[0], out=stacked[1:])
    sums = np.add.reduceat(stacked.reshape(12, -1), segments.starts, axis=1).T.reshape(-1, 4, 3)
    u, s, vt = np.linalg.svd(sums[:, 1:])
    # R = V U^T is a reflection where det(U V^T) < 0; negating V's last column fixes it
    vt[np.linalg.det(u @ vt) < 0.0, -1] *= -1.0
    full_rank = (s[:, 0] > 0.0) & (s[:, 1] > _RANK_RTOL * s[:, 0])
    rot = np.swapaxes(vt, 1, 2) @ np.swapaxes(u, 1, 2)
    for i in np.flatnonzero(~full_rank):  # anchors come first, so chains resolve in order
        anchor = segments.anchor[i]
        rot[i] = rot[anchor] if anchor >= 0 else np.eye(3)
    cb = sums[:, 0] / segments.counts[:, None] + origin
    trans = cb - (rot @ segments.centroid[:, :, None])[:, :, 0]
    links = segments.links
    return LinkPoseSet(links, rot, trans,
                       frozenset(links[i] for i in np.flatnonzero(~full_rank)))


def registration_residual(canonical_points, predicted_points, rot, x) -> float:
    """Sum of squared correspondence errors under a candidate pose."""
    a = _points_of(canonical_points, "canonical_points: expected (N, 3) points")
    b = _points_of(predicted_points, "predicted_points: expected (N, 3) points")
    if a.shape != b.shape:
        raise ContractError(f"point arrays must share shape (M, 3), got {a.shape} and {b.shape}")
    rot, x = np.asarray(rot, dtype=float), np.asarray(x, dtype=float)
    for name, value, shape in (("rot", rot, (3, 3)), ("x", x, (3,))):
        if value.shape != shape:
            raise ContractError(f"{name} must have shape {shape}, got {value.shape}")
        if not np.isfinite(value).all():
            raise ContractError(f"{name} contains non-finite values")
    err = b - (a @ rot.T + x)
    return float((err * err).sum())
