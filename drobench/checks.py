"""Output checks.  Each returns a list of problems; an empty list passes.

The references are the benchmark's own forward kinematics, distance matrices
and DROMX writer (see ``scene``), or properties any correct result must
have; none is a stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np

import scene

EXACT_TOL = 1e-12         # m, data path: matrices and posed points
MATRIX_TOL = 1e-3         # m, recovered grasp's distance matrix against the input
LINK_MAX_TOL = 5e-3       # m, largest link-origin error of a recovery
LINK_MEAN_TOL = 1e-3      # m, mean link-origin error of a recovery from the true wrist


def _worst(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def check_posed_cloud(hand, q, canonical, posed) -> list[str]:
    """cloud_fk output: placed where our FK puts it, and rigid per link."""
    problems = []
    err = _worst(posed.points, scene.pose_cloud(hand, q, canonical))
    if err > EXACT_TOL:
        problems.append(f"posed points differ from the reference FK by {err:.3e} m")
    by_link = posed.by_link()
    if list(by_link) != list(canonical):
        return problems + ["posed cloud links differ from the canonical links"]
    for link, pts in canonical.items():
        moved = by_link[link]
        err = _worst(scene.distances(moved, moved), scene.distances(pts, pts))
        if err > EXACT_TOL:
            problems.append(f"link {link} is not rigid: pairwise distances "
                            f"change by {err:.3e} m")
    return problems


def check_matrix(matrix, posed_points, obj_points) -> list[str]:
    """compute_dro output equals our distance matrix of the posed cloud."""
    want = scene.distances(posed_points, obj_points)
    if matrix.shape != want.shape:
        return [f"matrix shape {matrix.shape}, expected {want.shape}"]
    err = _worst(matrix, want)
    return [f"matrix differs from the reference distances by {err:.3e} m"] if err > EXACT_TOL else []


def check_dromx(matrix, blob, decoded) -> list[str]:
    """encode_dromx writes the documented layout; decoding it is bitwise lossless."""
    problems = []
    if blob != scene.dromx_bytes(matrix):
        problems.append("encoded DROMX bytes differ from the documented layout")
    if decoded.shape != matrix.shape or decoded.tobytes() != matrix.tobytes():
        problems.append("decode_dromx(encode_dromx(M)) is not bitwise M")
    return problems


def check_limits(hand, q) -> list[str]:
    """A recovered configuration lies within the hand's joint limits."""
    bad = np.flatnonzero((q < hand.lower) | (q > hand.upper))
    return [f"q[{i}] = {q[i]!r} outside [{hand.lower[i]}, {hand.upper[i]}]" for i in bad]


def link_errors(hand, q, q_true) -> np.ndarray:
    """Link-origin distances (m) between two configurations, tips included."""
    diff = scene.link_origins(hand, q) - scene.link_origins(hand, q_true)
    return np.sqrt((diff * diff).sum(axis=1))


def check_recovery(hand, q, q_true, canonical, obj_points, matrix,
                   mean_tol: float | None) -> list[str]:
    """A recovered grasp is the true grasp: link origins within 5 mm (and a
    mean within ``mean_tol`` when given), and its distance matrix within
    1 mm of the input."""
    errors = link_errors(hand, q, q_true)
    problems = []
    if errors.max() > LINK_MAX_TOL:
        problems.append(f"max link-origin error {errors.max():.3e} m > {LINK_MAX_TOL} m")
    if mean_tol is not None and errors.mean() > mean_tol:
        problems.append(f"mean link-origin error {errors.mean():.3e} m > {mean_tol} m")
    err = _worst(scene.distances(scene.pose_cloud(hand, q, canonical), obj_points), matrix)
    if err > MATRIX_TOL:
        problems.append(f"recovered grasp's distance matrix is off by {err:.3e} m")
    return problems
