import math

import numpy as np
import pytest

from drokit import (ContractError, DataError, TriangleMesh, contrastive_loss,
                    contrastive_weights, dro_l1_loss, penetration_loss,
                    pose_loss, signed_distances)
from drokit.kinematics import matrix_from_rpy
from drokit.losses import _closest_point_distances, check_watertight

from geometry import box_mesh, icosphere, random_rotation


# ---------------------------------------------------------------- oracles

def brute_weights(pts, lam):
    n = len(pts)
    w = np.ones((n, n))
    if n == 1:
        return w
    peak = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                peak = max(peak, math.tanh(lam * float(np.linalg.norm(pts[i] - pts[j]))))
    for i in range(n):
        for j in range(n):
            if i != j:
                w[i, j] = math.tanh(lam * float(np.linalg.norm(pts[i] - pts[j]))) / peak
    return w


def brute_contrastive(phi_a, phi_b, pts, tau, lam):
    n = len(phi_a)
    w = brute_weights(pts, lam)

    def cos(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    total = 0.0
    for i in range(n):
        num = math.exp(cos(phi_a[i], phi_b[i]) / tau)
        den = sum(w[i, j] * math.exp(cos(phi_a[i], phi_b[j]) / tau) for j in range(n))
        total += -math.log(num / den)
    return total / n


def point_segment_distance(p, a, b):
    ab = b - a
    t = float((p - a) @ ab) / float(ab @ ab)
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(p - (a + t * ab)))


def brute_point_triangle_distance(p, tri):
    """Independent formulation: plane projection when the barycentric foot is
    interior, otherwise the nearest edge segment."""
    a, b, c = tri
    n = np.cross(b - a, c - a)
    nn = float(n @ n)
    edge_d = min(point_segment_distance(p, a, b),
                 point_segment_distance(p, b, c),
                 point_segment_distance(p, c, a))
    if nn == 0.0:
        return edge_d
    dist_plane = float((p - a) @ n) / math.sqrt(nn)
    foot = p - dist_plane * n / math.sqrt(nn)
    # barycentric coordinates of the foot
    v0, v1, v2 = b - a, c - a, foot - a
    d00, d01, d11 = float(v0 @ v0), float(v0 @ v1), float(v1 @ v1)
    d20, d21 = float(v2 @ v0), float(v2 @ v1)
    den = d00 * d11 - d01 * d01
    v = (d11 * d20 - d01 * d21) / den
    u = (d00 * d21 - d01 * d20) / den
    if v >= 0.0 and u >= 0.0 and v + u <= 1.0:
        return abs(dist_plane)
    return edge_d


def brute_solid_angle(p, tri):
    a = tri[0] - p
    b = tri[1] - p
    c = tri[2] - p
    la, lb, lc = (float(np.linalg.norm(v)) for v in (a, b, c))
    det = float(a @ np.cross(b, c))
    den = (la * lb * lc + float(a @ b) * lc + float(b @ c) * la + float(c @ a) * lb)
    return 2.0 * math.atan2(det, den)


def brute_penetration(points, mesh):
    corners = mesh.corners()
    total = 0.0
    for p in points:
        d = min(brute_point_triangle_distance(p, tri) for tri in corners)
        winding = sum(brute_solid_angle(p, tri) for tri in corners) / (4.0 * math.pi)
        sdf = -d if winding > 0.5 else d
        total += min(sdf, 0.0)
    return abs(total)


# ---------------------------------------------------------------- weights

def test_single_point_weight():
    assert np.array_equal(contrastive_weights(np.zeros((1, 3)), lam=10.0), [[1.0]])


def test_saturated_distance_gives_unit_weight():
    pts = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    w = contrastive_weights(pts, lam=10.0)
    assert abs(w[0, 1] - 1.0) < 1e-12
    assert abs(w[1, 0] - 1.0) < 1e-12


def test_collinear_three_point_values():
    pts = np.array([[0.0, 0.0, 0.0], [0.05, 0.0, 0.0], [0.10, 0.0, 0.0]])
    w = contrastive_weights(pts, lam=10.0)
    near = math.tanh(0.5) / math.tanh(1.0)
    expected = np.array([[1.0, near, 1.0], [near, 1.0, near], [1.0, near, 1.0]])
    assert np.abs(w - expected).max() < 1e-12


def test_weight_symmetry_and_range():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pts = rng.normal(scale=0.05, size=(int(rng.integers(2, 30)), 3))
        w = contrastive_weights(pts, lam=10.0)
        assert np.array_equal(w, w.T)
        assert np.all(w > 0.0) and np.all(w <= 1.0)
        assert np.array_equal(np.diag(w), np.ones(len(pts)))
        assert w.max() == 1.0


def test_per_row_weight_normalization():
    rng = np.random.default_rng(11)
    pts = rng.normal(scale=0.02, size=(8, 3))
    w = contrastive_weights(pts, 10.0, per_row=True)
    off = ~np.eye(8, dtype=bool)
    for i in range(8):
        row = w[i][off[i]]
        assert abs(row.max() - 1.0) < 1e-12
    assert np.array_equal(np.diag(w), np.ones(8))


def test_coincident_points_warn_and_degenerate_to_ones():
    pts = np.zeros((4, 3))
    with pytest.warns(RuntimeWarning):
        w = contrastive_weights(pts, lam=10.0)
    assert np.array_equal(w, np.ones((4, 4)))


def test_weights_match_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pts = rng.normal(scale=0.1, size=(int(rng.integers(2, 12)), 3))
        assert np.abs(contrastive_weights(pts, 10.0) - brute_weights(pts, 10.0)).max() < 1e-9


# ---------------------------------------------------------------- contrastive loss

def test_single_pair_loss_is_zero():
    phi = np.random.default_rng(0).normal(size=(1, 8))
    assert contrastive_loss(phi, phi, np.zeros((1, 3))) == 0.0


def test_orthogonal_rows_closed_form():
    # identical orthogonal features; off-diagonal weight w from the geometry
    tau = 0.1
    phi = np.eye(2)
    pts = np.array([[0.0, 0.0, 0.0], [0.03, 0.0, 0.0]])
    w = math.tanh(10.0 * 0.03) / math.tanh(10.0 * 0.03)  # single pair -> 1.0
    expected = math.log(1.0 + w * math.exp(-1.0 / tau))
    value = contrastive_loss(phi, phi, pts, tau=tau)
    assert abs(value - expected) < 1e-12


def test_loss_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        d = int(rng.integers(2, 16))
        phi_a = rng.normal(size=(n, d))
        phi_b = rng.normal(size=(n, d))
        pts = rng.normal(scale=0.05, size=(n, 3))
        ours = contrastive_loss(phi_a, phi_b, pts)
        brute = brute_contrastive(phi_a, phi_b, pts, 0.1, 10.0)
        assert abs(ours - brute) < 1e-9


def test_loss_decreases_as_positive_similarity_rises():
    # a_i built so only the positive similarity changes with theta
    rng = np.random.default_rng(3)
    n, d = 4, 16
    basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
    phi_b = basis[:n]
    spare = basis[n:]
    pts = rng.normal(scale=0.05, size=(n, 3))
    losses = []
    for theta in (1.2, 0.9, 0.6, 0.3):
        phi_a = phi_b.copy()
        phi_a[0] = math.cos(theta) * phi_b[0] + math.sin(theta) * spare[0]
        losses.append(contrastive_loss(phi_a, phi_b, pts))
    assert all(l1 > l2 for l1, l2 in zip(losses, losses[1:]))


def test_loss_invariant_to_row_rescaling():
    rng = np.random.default_rng(4)
    phi_a = rng.normal(size=(6, 12))
    phi_b = rng.normal(size=(6, 12))
    pts = rng.normal(scale=0.05, size=(6, 3))
    base = contrastive_loss(phi_a, phi_b, pts)
    scaled = phi_a.copy()
    scaled[2] *= 37.5
    assert abs(contrastive_loss(scaled, phi_b, pts) - base) < 1e-9


def test_zero_norm_feature_row_rejected():
    phi = np.ones((3, 4))
    bad = phi.copy()
    bad[1] = 0.0
    with pytest.raises(ContractError):
        contrastive_loss(bad, phi, np.zeros((3, 3)) + np.arange(3)[:, None])
    # nor a temperature or weight scale that NaN or inf would carry into the loss
    for name in ("tau", "lam"):
        for value in (np.nan, np.inf):
            with pytest.raises(ContractError, match=name):
                contrastive_loss(phi, phi, np.arange(9.0).reshape(3, 3), **{name: value})


@pytest.mark.parametrize("phi_a, phi_b, points, message", [
    (np.zeros((0, 4)), np.zeros((0, 4)), np.zeros((0, 3)), "need at least one point"),
    (np.ones((3, 4)), np.ones((3, 5)), np.zeros((3, 3)), "feature matrices must share shape"),
    (np.ones(4), np.ones(4), np.zeros((1, 3)), "feature matrices must share shape"),
    (np.ones((3, 4)), np.ones((3, 4)), np.zeros((2, 3)), "points_b length does not match"),
], ids=["no-points", "feature-widths", "features-1d", "point-count"])
def test_contrastive_inputs_checked(phi_a, phi_b, points, message):
    with pytest.raises(ContractError, match=message):
        contrastive_loss(phi_a, phi_b, points)


# ---------------------------------------------------------------- pose loss

def test_pose_loss_identity():
    rot = matrix_from_rpy(0.2, -0.4, 0.9)
    x = np.array([0.1, 0.2, 0.3])
    assert pose_loss((rot, x), (rot, x)) == 0.0


def test_pose_loss_pi_rotation():
    rot_z_pi = matrix_from_rpy(0.0, 0.0, math.pi)
    x = np.zeros(3)
    assert abs(pose_loss((np.eye(3), x), (rot_z_pi, x)) - math.pi) < 1e-12


def test_pose_loss_translation_norm():
    x = np.array([3.0, 4.0, 0.0])
    assert abs(pose_loss((np.eye(3), x), (np.eye(3), np.zeros(3))) - 5.0) < 1e-12


def test_pose_loss_symmetric_and_bounded():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ra, rb = random_rotation(rng), random_rotation(rng)
        xa, xb = rng.normal(size=3), rng.normal(size=3)
        ab = pose_loss((ra, xa), (rb, xb))
        ba = pose_loss((rb, xb), (ra, xa))
        assert abs(ab - ba) < 1e-9
        rot_term = ab - np.linalg.norm(xa - xb)
        assert -1e-12 <= rot_term <= math.pi + 1e-12


def test_pose_loss_rejects_non_orthonormal():
    bad = np.eye(3)
    bad[0, 1] = 1e-3
    with pytest.raises(ContractError):
        pose_loss((bad, np.zeros(3)), (np.eye(3), np.zeros(3)))


@pytest.mark.parametrize("x", [np.zeros(2), np.zeros(4), np.zeros((1, 3))])
def test_pose_loss_rejects_translation_not_of_shape_3(x):
    with pytest.raises(ContractError, match="translation must have shape"):
        pose_loss((np.eye(3), x), (np.eye(3), np.zeros(3)))
    with pytest.raises(ContractError, match="translation must have shape"):
        pose_loss((np.eye(3), np.zeros(3)), (np.eye(3), x))


@pytest.mark.parametrize("rot", [np.eye(2), np.eye(4), np.ones(9)])
def test_pose_loss_rejects_rotation_not_3x3(rot):
    with pytest.raises(ContractError, match="rotation must be 3x3"):
        pose_loss((rot, np.zeros(3)), (np.eye(3), np.zeros(3)))
    with pytest.raises(ContractError, match="rotation must be 3x3"):
        pose_loss((np.eye(3), np.zeros(3)), (rot, np.zeros(3)))


# ---------------------------------------------------------------- penetration

def test_no_penetration_outside():
    mesh = icosphere(radius=0.5, subdivisions=2)
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(64, 3))
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) * 0.8
    assert penetration_loss(pts, mesh) == 0.0


def test_center_of_unit_sphere():
    mesh = icosphere(radius=1.0, subdivisions=3)
    value = penetration_loss(np.zeros((1, 3)), mesh)
    assert abs(value - 1.0) < 0.01


def test_matches_brute_force_sdf():
    mesh = icosphere(radius=0.3, subdivisions=1)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.5, 0.5, size=(40, 3))
    ours = penetration_loss(pts, mesh)
    brute = brute_penetration(pts, mesh)
    assert abs(ours - brute) < 1e-9
    sdf = signed_distances(pts, mesh)
    for p, s in zip(pts, sdf):
        d = min(brute_point_triangle_distance(p, tri) for tri in mesh.corners())
        w = sum(brute_solid_angle(p, tri) for tri in mesh.corners()) / (4 * math.pi)
        expected = -d if w > 0.5 else d
        assert abs(s - expected) < 1e-9


def _unit(v):
    return v / np.linalg.norm(v)


def region_points(tri):
    """Points in every vertex, edge and face region of ``tri``, on both sides
    of its plane, plus points exactly on its vertices and edges."""
    a, b, c = tri
    n = np.cross(b - a, c - a)
    if not n.any():  # collinear: offset along any normal of the line
        n = np.cross(b - a, [0.3, 0.5, 0.8])
    n = _unit(n)
    base = [a, b, c, (a + b + c) / 3.0, 0.6 * a + 0.3 * b + 0.1 * c]
    for k in range(3):
        v, u, w = tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3]
        out = np.cross(u - v, n)
        if out @ (w - v) > 0.0:
            out = -out
        base += [v + 0.25 * (u - v), 0.5 * (v + u),           # on the edge
                 0.5 * (v + u) + 0.4 * _unit(out),            # edge region
                 0.25 * v + 0.75 * u + 0.1 * _unit(out)]
        corner = -(_unit(u - v) + _unit(w - v))
        if corner.any():                                      # vertex region
            base += [v + 0.4 * _unit(corner), v + 0.05 * _unit(corner)]
    return [p + h * n for p in base for h in (0.0, 0.3, -0.3, 1e-9)]


def test_distance_in_every_triangle_region():
    rot = random_rotation(np.random.default_rng(12))
    shift = np.array([0.25, -0.5, 0.75])
    triangles = {
        "regular": np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                             [0.5, math.sqrt(3.0) / 2.0, 0.0]]) @ rot.T + shift,
        "obtuse": np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                            [-0.6, 0.3, 0.0]]) @ rot.T + shift,
        # dyadic coordinates keep the corners exactly on one line
        "collinear": np.array([[0.0, 0.0, 0.0], [0.5, 1.0, -1.0],
                               [1.25, 2.5, -2.5]]) + shift,
    }
    for name, tri in triangles.items():
        pts = np.array(region_points(tri))
        ours = _closest_point_distances(pts, tri[None])[:, 0]
        brute = np.array([brute_point_triangle_distance(p, tri) for p in pts])
        assert np.abs(ours - brute).max() < 1e-14, name


def test_non_watertight_mesh_rejected():
    mesh = box_mesh(0.2, 0.2, 0.2)
    holed = TriangleMesh(mesh.vertices, mesh.triangles[2:])  # drop one face
    with pytest.raises(DataError):
        penetration_loss(np.zeros((1, 3)), holed)


def test_zero_iff_no_point_strictly_inside():
    mesh = box_mesh(0.2, 0.2, 0.2)
    outside = np.array([[0.2, 0.0, 0.0], [0.0, 0.3, 0.0]])
    assert penetration_loss(outside, mesh) == 0.0
    inside = np.array([[0.05, 0.0, 0.0]])
    assert penetration_loss(inside, mesh) > 0.0


def test_check_watertight_rejects_empty_mesh():
    empty = TriangleMesh(np.eye(3), np.zeros((0, 3), dtype=int))
    with pytest.raises(DataError, match="mesh has no triangles"):
        check_watertight(empty)
    with pytest.raises(DataError, match="mesh has no triangles"):
        penetration_loss(np.zeros((1, 3)), empty)


# ---------------------------------------------------------------- L1

def test_l1_identity_zero():
    rng = np.random.default_rng(8)
    mat = rng.random((16, 16))
    assert dro_l1_loss(mat, mat) == 0.0


def test_l1_scalar_case():
    assert dro_l1_loss(np.array([[2.0]]), np.array([[5.0]])) == 3.0


def test_l1_matches_naive():
    rng = np.random.default_rng(9)
    a = rng.random((13, 7))
    b = rng.random((13, 7))
    naive = sum(abs(a[i, j] - b[i, j]) for i in range(13) for j in range(7)) / 91
    assert abs(dro_l1_loss(a, b) - naive) < 1e-12


def test_l1_shape_mismatch():
    with pytest.raises(ContractError):
        dro_l1_loss(np.zeros((2, 2)), np.zeros((2, 3)))
