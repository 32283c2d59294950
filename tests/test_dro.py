import numpy as np
import pytest

from drokit import (ContractError, DegeneracyError, PointCloud, compute_dro,
                    multilaterate_point, recover_cloud)
from drokit.dro import _ROW_CHUNK

from geometry import random_rotation


def naive_distance_matrix(robot, obj):
    out = np.empty((len(robot), len(obj)))
    for i in range(len(robot)):
        for j in range(len(obj)):
            out[i, j] = np.linalg.norm(robot[i] - obj[j])
    return out


def quartic_objective(p, refs, dists):
    return float((((np.linalg.norm(p - refs, axis=1) ** 2) - dists ** 2) ** 2).sum())


def gradient_descent_oracle(p0, refs, dists, iters=4000):
    """Independent solver for the squared-range objective: plain gradient
    descent with backtracking from the same linear init."""
    p = p0.copy()
    f = quartic_objective(p, refs, dists)
    step = 1.0
    for _ in range(iters):
        resid = (np.linalg.norm(p - refs, axis=1) ** 2) - dists ** 2
        grad = 4.0 * (resid[:, None] * (p - refs)).sum(axis=0)
        gnorm = np.linalg.norm(grad)
        if gnorm < 1e-14:
            break
        while step > 1e-18:
            p_try = p - step * grad
            f_try = quartic_objective(p_try, refs, dists)
            if f_try < f:
                break
            step *= 0.5
        else:
            break
        p, f = p_try, f_try
        step *= 2.0
    return p


def random_references(rng, n, scale=0.1, center=(0.0, 0.0, 0.0)):
    return center + rng.normal(scale=scale, size=(n, 3))


def direct_gauss_newton(dist, refs, steps=3):
    """Per-row reference solver: the closed-form linear start from lstsq, then
    Gauss-Newton on f_j = ||p - p_j||^2 - d_j^2 with explicit (N_O, 3)
    differences."""
    a = np.hstack([-2.0 * refs, np.ones((len(refs), 1))])
    out = np.empty((len(dist), 3))
    for r, d in enumerate(dist):
        p = np.linalg.lstsq(a, d ** 2 - (refs ** 2).sum(axis=1), rcond=None)[0][:3]
        for _ in range(steps):
            diff = p - refs
            f = (diff ** 2).sum(axis=1) - d ** 2
            p = p - np.linalg.solve(4.0 * diff.T @ diff, 2.0 * diff.T @ f)
        out[r] = p
    return out


# ---------------------------------------------------------------- compute_dro

def test_unit_distance():
    mat = compute_dro(np.array([[0.0, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]))
    assert mat.shape == (1, 1)
    assert mat[0, 0] == 1.0


def test_coincident_points_zero():
    pts = np.array([[0.3, -0.1, 0.2]])
    assert compute_dro(pts, pts)[0, 0] == 0.0


def test_matches_naive_double_loop():
    rng = np.random.default_rng(0)
    robot = rng.normal(size=(37, 3))
    obj = rng.normal(size=(29, 3))
    mat = compute_dro(robot, obj)
    assert np.abs(mat - naive_distance_matrix(robot, obj)).max() < 1e-12


def test_row_chunks_match_broadcast_bitwise():
    # chunking the robot rows never changes an entry, on either side of a
    # chunk boundary, with the scene away from the origin
    rng = np.random.default_rng(1)
    obj = rng.normal(scale=0.1, size=(96, 3)) + 10.0
    for n_r in (1, _ROW_CHUNK - 1, _ROW_CHUNK, _ROW_CHUNK + 1, 2 * _ROW_CHUNK + 7):
        robot = rng.normal(scale=0.1, size=(n_r, 3)) + 10.0
        diff = robot[:, None, :] - obj[None, :, :]
        assert np.array_equal(compute_dro(robot, obj), np.sqrt((diff * diff).sum(axis=2)))


def test_accepts_point_clouds_and_validates():
    cloud = PointCloud(np.zeros((2, 3)))
    assert compute_dro(cloud, cloud).shape == (2, 2)
    with pytest.raises(ContractError):
        compute_dro(np.zeros((0, 3)), np.zeros((2, 3)))


# ---------------------------------------------------------------- multilateration

def test_exact_recovery_from_512_references():
    rng = np.random.default_rng(2)
    refs = random_references(rng, 512)
    p = rng.normal(scale=0.2, size=3)
    d = np.linalg.norm(refs - p, axis=1)
    rec = multilaterate_point(d, refs)
    assert np.linalg.norm(rec - p) < 1e-9


def test_zero_distance_coincidence():
    rng = np.random.default_rng(3)
    refs = random_references(rng, 64)
    p = refs[10].copy()
    d = np.linalg.norm(refs - p, axis=1)
    assert d[10] == 0.0
    rec = multilaterate_point(d, refs)
    assert np.linalg.norm(rec - refs[10]) < 1e-9


def test_noisy_recovery_beats_tolerance_and_matches_descent_oracle():
    rng = np.random.default_rng(4)
    errors = []
    for trial in range(100):
        refs = random_references(rng, 512)
        p = rng.normal(scale=0.2, size=3)
        d = np.linalg.norm(refs - p, axis=1) + rng.normal(0.0, 1e-3, size=512)
        d = np.abs(d)
        rec = multilaterate_point(d, refs)
        errors.append(np.linalg.norm(rec - p))
        if trial < 5:
            oracle = gradient_descent_oracle(rec + rng.normal(0, 1e-4, 3), refs, d)
            assert np.linalg.norm(rec - oracle) < 1e-6
    assert np.mean(errors) < 5e-4


def test_coplanar_references_rejected():
    rng = np.random.default_rng(5)
    refs = random_references(rng, 32)
    refs[:, 2] = 0.0
    with pytest.raises(DegeneracyError):
        multilaterate_point(np.ones(32), refs)


def test_too_few_references_rejected():
    refs = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    with pytest.raises(DegeneracyError):
        multilaterate_point(np.ones(3), refs)


def test_distance_vector_shape_checked():
    rng = np.random.default_rng(6)
    refs = random_references(rng, 16)
    with pytest.raises(ContractError):
        multilaterate_point(np.ones(15), refs)
    with pytest.raises(ContractError):
        multilaterate_point(-np.ones(16), refs)


# ---------------------------------------------------------------- recover_cloud

def test_round_trip_exactness():
    rng = np.random.default_rng(7)
    robot = rng.normal(scale=0.2, size=(128, 3))
    obj = random_references(rng, 512)
    mat = compute_dro(robot, obj)
    rec = recover_cloud(mat, obj)
    per_point = np.linalg.norm(rec.points - robot, axis=1)
    assert per_point.max() < 1e-8


def test_single_row_equals_multilaterate_point():
    rng = np.random.default_rng(8)
    obj = random_references(rng, 64)
    p = rng.normal(scale=0.1, size=3)
    d = np.linalg.norm(obj - p, axis=1)
    single = recover_cloud(d[None, :], obj)
    direct = multilaterate_point(d, obj)
    assert np.array_equal(single.points[0], direct)


def test_recovery_equivariant_under_object_motion():
    rng = np.random.default_rng(9)
    robot = rng.normal(scale=0.2, size=(64, 3))
    obj = random_references(rng, 256)
    mat = compute_dro(robot, obj)

    rot = random_rotation(rng)
    shift = rng.normal(size=3)
    moved_obj = obj @ rot.T + shift
    rec = recover_cloud(mat, obj)
    rec_moved = recover_cloud(mat, moved_obj)
    expected = rec.points @ rot.T + shift
    assert np.abs(rec_moved.points - expected).max() < 1e-8


def test_labels_carried_through():
    rng = np.random.default_rng(10)
    robot = rng.normal(scale=0.2, size=(4, 3))
    obj = random_references(rng, 32)
    mat = compute_dro(robot, obj)
    rec = recover_cloud(mat, obj, labels=["a", "a", "b", "b"])
    assert rec.labels == ["a", "a", "b", "b"]


def test_recover_cloud_validates_shapes_and_values():
    rng = np.random.default_rng(11)
    obj = random_references(rng, 16)
    with pytest.raises(ContractError):
        recover_cloud(np.ones((2, 15)), obj)
    bad = np.ones((2, 16))
    bad[0, 0] = -1.0
    with pytest.raises(ContractError):
        recover_cloud(bad, obj)
    bad[0, 0] = np.nan
    with pytest.raises(ContractError):
        recover_cloud(bad, obj)


def test_distances_invariant_under_joint_rigid_motion():
    rng = np.random.default_rng(13)
    robot = rng.normal(scale=0.2, size=(32, 3))
    obj = random_references(rng, 64)
    rot = random_rotation(rng)
    shift = rng.normal(size=3)
    base = compute_dro(robot, obj)
    moved = compute_dro(robot @ rot.T + shift, obj @ rot.T + shift)
    assert np.abs(moved - base).max() < 1e-12


def test_noise_error_shrinks_with_more_references():
    # common random numbers across reference counts
    rng = np.random.default_rng(12)
    trials = 60
    counts = (8, 32, 128, 512)
    mean_err = {}
    shared = []
    for _ in range(trials):
        refs = random_references(rng, 512)
        p = rng.normal(scale=0.2, size=3)
        noise = rng.normal(0.0, 1e-3, size=512)
        shared.append((refs, p, noise))
    for n in counts:
        errs = []
        for refs, p, noise in shared:
            d = np.abs(np.linalg.norm(refs[:n] - p, axis=1) + noise[:n])
            rec = multilaterate_point(d, refs[:n])
            errs.append(np.linalg.norm(rec - p))
        mean_err[n] = np.mean(errs)
    assert mean_err[8] >= mean_err[32] >= mean_err[128] >= mean_err[512]


def test_recover_cloud_matches_direct_gauss_newton_512x512():
    rng = np.random.default_rng(14)
    robot = rng.normal(scale=0.2, size=(512, 3))
    obj = random_references(rng, 512)
    exact = compute_dro(robot, obj)
    noisy = np.abs(exact + rng.normal(0.0, 1e-3, size=exact.shape))
    for mat in (exact, noisy):
        rec = recover_cloud(mat, obj)
        assert np.abs(rec.points - direct_gauss_newton(mat, obj)).max() < 1e-12


def test_far_object_recovery_keeps_precision():
    # the scene sits 10 m from the origin; the refine must not lose digits
    rng = np.random.default_rng(15)
    offset = np.array([10.0, 0.0, 0.0])
    obj = random_references(rng, 512, scale=0.04, center=offset)
    robot = offset + rng.normal(scale=0.1, size=(256, 3))
    exact = compute_dro(robot, obj)
    assert np.abs(recover_cloud(exact, obj).points - robot).max() < 1e-9
    noisy = np.abs(exact + rng.normal(0.0, 1e-3, size=exact.shape))
    rec = recover_cloud(noisy, obj)
    assert np.abs(rec.points - direct_gauss_newton(noisy, obj)).max() < 1e-9


def test_recover_cloud_refines_until_converged():
    # grasp-like geometry with large range noise: Gauss-Newton converges
    # linearly here, and a fixed three steps stop short of the least-squares
    # point that thirty steps reach
    rng = np.random.default_rng(16)
    obj = random_references(rng, 512, scale=0.04)
    robot = rng.normal(scale=0.1, size=(256, 3))
    exact = compute_dro(robot, obj)
    for sigma in (1e-2, 2e-2):
        noisy = np.abs(exact + rng.normal(0.0, sigma, size=exact.shape))
        rec = recover_cloud(noisy, obj)
        assert np.abs(rec.points - direct_gauss_newton(noisy, obj, steps=30)).max() < 1e-9
