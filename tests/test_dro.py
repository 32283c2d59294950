import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import drokit.dro as dro_module
from drokit import (ContractError, DegeneracyError, PointCloud, cloud_fk, compute_dro,
                    dro_l1_loss, multilaterate_point, recover_cloud, recover_grasp,
                    registration_residual)
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


def broadcast_distances(robot, obj):
    diff = robot[:, None, :] - obj[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


@pytest.mark.parametrize("offset", [1e3, 1e6])
def test_far_scenes_match_broadcast_bitwise(offset):
    rng = np.random.default_rng(11)
    robot = rng.normal(scale=0.1, size=(2 * _ROW_CHUNK + 3, 3)) + offset
    obj = rng.normal(scale=0.1, size=(77, 3)) + offset
    assert np.array_equal(compute_dro(robot, obj), broadcast_distances(robot, obj))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("side", ["robot", "object"])
def test_non_finite_coordinates_match_broadcast(value, side):
    rng = np.random.default_rng(12)
    robot = rng.normal(size=(_ROW_CHUNK + 5, 3))
    obj = rng.normal(size=(40, 3))
    target = robot if side == "robot" else obj
    target[3, 0] = value
    target[-1, 2] = value
    target[7, 1] = -value
    with np.errstate(invalid="ignore"):
        got = compute_dro(robot, obj)
        want = broadcast_distances(robot, obj)
    assert np.array_equal(got, want, equal_nan=True)


def test_input_layouts_match_broadcast_and_stay_unmodified():
    rng = np.random.default_rng(13)
    base = rng.normal(size=(3 * _ROW_CHUNK, 6))
    read_only = base[:_ROW_CHUNK + 1, :3].copy()
    read_only.flags.writeable = False
    fortran = np.asfortranarray(base[:50, 3:])
    strided = base[::2, 1:4]
    for robot, obj in ((read_only, fortran), (strided, read_only), (fortran, strided)):
        before = (robot.copy(), obj.copy())
        want = broadcast_distances(robot, obj)
        assert np.array_equal(compute_dro(robot, obj), want)
        assert np.array_equal(robot, before[0]) and np.array_equal(obj, before[1])


def test_single_object_point_matches_broadcast():
    rng = np.random.default_rng(14)
    obj = rng.normal(size=(1, 3)) + 5.0
    for n_r in (1, _ROW_CHUNK - 1, _ROW_CHUNK + 1):
        robot = rng.normal(size=(n_r, 3)) + 5.0
        assert np.array_equal(compute_dro(robot, obj), broadcast_distances(robot, obj))


def test_self_distance_diagonal_is_positive_zero():
    rng = np.random.default_rng(15)
    pts = rng.normal(scale=0.1, size=(2 * _ROW_CHUNK + 9, 3)) + np.array([3.0, -4.0, 0.0])
    diag = np.diag(compute_dro(pts, pts))
    assert np.all(diag == 0.0) and not np.any(np.signbit(diag))


def test_temporaries_are_chunk_sized():
    # a whole-matrix temporary beside the output would exceed this bound
    rng = np.random.default_rng(16)
    robot = rng.normal(size=(512, 3))
    obj = rng.normal(size=(512, 3))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        mat = compute_dro(robot, obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mat.nbytes + 3 * _ROW_CHUNK * len(obj) * 8


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


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_references_end_in_the_divergence_check(value):
    rng = np.random.default_rng(29)
    refs = random_references(rng, 32)
    refs[4, 1] = value
    with pytest.raises(DegeneracyError, match="diverged"):
        recover_cloud(np.ones((2, 32)), refs)


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


@pytest.mark.parametrize("offset", [1e3, 1e5, 1e6])
def test_references_are_judged_wherever_the_object_sits(offset):
    # the references are judged on the centred system the solver solves, so a
    # small object far from the origin is accepted and its points recovered,
    # and a coplanar one is still rejected there
    rng = np.random.default_rng(27)
    shift = offset * random_rotation(rng)[0]
    obj = random_references(rng, 512, scale=0.04)
    robot = rng.normal(scale=0.1, size=(64, 3))
    exact = compute_dro(robot + shift, obj + shift)
    err = np.abs(recover_cloud(exact, obj + shift).points - (robot + shift)).max()
    assert err < max(1e-12, 1e-13 * offset)
    obj[:, 2] = 0.0
    with pytest.raises(DegeneracyError, match="degenerate"):
        recover_cloud(exact, obj + shift)


def test_tilted_coplanar_references_rejected():
    # a plane in no coordinate plane leaves rounding-sized spread off it;
    # the verdict must still see the zero singular value, which the
    # eigenvalues of M = o^T o, accurate only to eps * ||M||, would not
    rng = np.random.default_rng(28)
    for _ in range(20):
        refs = random_references(rng, 512, scale=0.04)
        refs[:, 2] = 0.0
        refs = refs @ random_rotation(rng).T + rng.normal(scale=0.3, size=3)
        with pytest.raises(DegeneracyError, match="degenerate"):
            recover_cloud(np.ones((2, 512)), refs)


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


@pytest.mark.parametrize("call, message", [
    (lambda: compute_dro(np.zeros((4, 2)), np.zeros((5, 3))), r"expected \(N, 3\) points"),
    (lambda: compute_dro(np.zeros((4, 3)), np.zeros(3)), r"expected \(N, 3\) points"),
    (lambda: recover_cloud(np.ones((2, 5)), np.zeros((5, 4))), r"expected \(N, 3\) points"),
    (lambda: recover_cloud(np.ones(5), np.zeros((5, 3))), "distance matrix must be 2-D"),
    (lambda: registration_residual(np.zeros((4, 2)), np.zeros((4, 3)), np.eye(3), np.zeros(3)),
     r"canonical_points: expected \(N, 3\) points, got \(4, 2\)"),
    (lambda: registration_residual(np.zeros((4, 3)), np.zeros((3, 3)), np.eye(3), np.zeros(3)),
     r"point arrays must share shape \(M, 3\), got \(4, 3\) and \(3, 3\)"),
    (lambda: registration_residual(np.zeros((4, 3)), np.zeros((4, 3)), np.eye(2), np.zeros(3)),
     r"rot must have shape \(3, 3\), got \(2, 2\)"),
    (lambda: registration_residual(np.zeros((4, 3)), np.zeros((4, 3)), np.eye(3), np.zeros(2)),
     r"x must have shape \(3,\), got \(2,\)"),
    (lambda: registration_residual(np.zeros((4, 3)), np.zeros((4, 3)), np.full((3, 3), np.nan),
                                   np.zeros(3)),
     "rot contains non-finite values"),
    (lambda: registration_residual(np.zeros((4, 3)), np.zeros((4, 3)), np.eye(3),
                                   [0.0, np.inf, 0.0]),
     "x contains non-finite values"),
    (lambda: dro_l1_loss(np.zeros((0, 4)), np.zeros((0, 4))),
     r"matrices must share a nonempty shape, got \(0, 4\) and \(0, 4\)"),
], ids=["compute-robot", "compute-object", "recover-object", "recover-1d-matrix",
        "residual-2-columns", "residual-lengths-differ", "residual-rot-2x2", "residual-x-2",
        "residual-rot-nan", "residual-x-inf", "l1-empty"])
def test_bad_point_or_matrix_shape_rejected(call, message):
    with pytest.raises(ContractError, match=message):
        call()


# ---------------------------------------------------------------- moment kernel

def test_validation_reports_non_finite_before_negative():
    rng = np.random.default_rng(17)
    obj = random_references(rng, 16)
    for bad_value in (np.inf, -np.inf, np.nan):
        bad = np.ones((3, 16))
        bad[1, 2] = bad_value
        bad[2, 5] = -1.0
        with pytest.raises(ContractError, match="non-finite"):
            recover_cloud(bad, obj)
    bad = np.ones((3, 16))
    bad[2, 5] = -1e-12
    with pytest.raises(ContractError, match="negative"):
        recover_cloud(bad, obj)


def test_validation_reports_bad_values_before_degenerate_references():
    # the values are checked in the moment pass, block by block, yet a bad
    # value anywhere is reported before the references are judged, and a
    # non-finite one before a negative one in an earlier block
    rng = np.random.default_rng(21)
    refs = random_references(rng, 32)
    refs[:, 2] = 0.0  # coplanar
    row = _ROW_CHUNK + 1
    for bad_value, message in ((np.nan, "non-finite"), (np.inf, "non-finite"),
                               (-1.0, "negative")):
        bad = np.ones((2 * _ROW_CHUNK + 3, 32))
        bad[row, 7] = bad_value
        with pytest.raises(ContractError, match=message):
            recover_cloud(bad, refs)
        with pytest.raises(ContractError, match=message):
            multilaterate_point(bad[row], refs)
    bad = np.ones((2 * _ROW_CHUNK + 3, 32))
    bad[0, 3] = -1.0
    bad[-1, 5] = np.nan
    with pytest.raises(ContractError, match="non-finite"):
        recover_cloud(bad, refs)
    with pytest.raises(DegeneracyError):
        recover_cloud(np.ones((2, 32)), refs)


def test_recover_cloud_of_empty_matrix_is_empty():
    rng = np.random.default_rng(18)
    obj = random_references(rng, 32)
    assert recover_cloud(np.zeros((0, 32)), obj).points.shape == (0, 3)


def test_moment_pass_matches_direct_gauss_newton_across_row_chunks():
    # the moment pass reads the matrix _ROW_CHUNK rows at a time; every row
    # on either side of a chunk boundary must come out as the per-row solver's
    rng = np.random.default_rng(19)
    obj = random_references(rng, 300)
    for n_r in (1, _ROW_CHUNK - 1, _ROW_CHUNK + 1, 2 * _ROW_CHUNK + 7):
        robot = rng.normal(scale=0.2, size=(n_r, 3))
        exact = compute_dro(robot, obj)
        noisy = np.abs(exact + rng.normal(0.0, 1e-3, size=exact.shape))
        for mat in (exact, noisy):
            rec = recover_cloud(mat, obj)
            assert np.abs(rec.points - direct_gauss_newton(mat, obj, steps=10)).max() < 1e-12


def test_far_object_noisy_recovery_converges():
    # 10 m from the origin with large range noise, the centred moments must
    # still reach the least-squares point of the uncentred per-row solver
    rng = np.random.default_rng(20)
    offset = np.array([0.0, 10.0, 0.0])
    obj = random_references(rng, 512, scale=0.04, center=offset)
    robot = offset + rng.normal(scale=0.1, size=(128, 3))
    noisy = np.abs(compute_dro(robot, obj) + rng.normal(0.0, 1e-2, size=(128, 512)))
    rec = recover_cloud(noisy, obj)
    assert np.abs(rec.points - direct_gauss_newton(noisy, obj, steps=30)).max() < 1e-9


@pytest.mark.parametrize("case", ["inf last block", "inf last block coplanar",
                                  "inf last block after negative", "1e200 everywhere",
                                  "1e200 row 0", "1e200 row 0 and inf last block"])
def test_single_check_pass_tells_inf_from_overflow(case):
    # NaN, -inf and negatives show in each block's min; a +inf entry shows
    # only in the row sums of squares, as finite entries that overflow do,
    # and the two must still end in different errors, without a warning
    rng = np.random.default_rng(26)
    refs = random_references(rng, 32)
    if "coplanar" in case:
        refs[:, 2] = 0.0
    mat = compute_dro(rng.normal(scale=0.2, size=(2 * _ROW_CHUNK + 3, 3)), refs)
    if "negative" in case:
        mat[0, 3] = -1.0
    if case == "1e200 everywhere":
        mat[:] = 1e200
    elif "1e200 row 0" in case:
        mat[0] = 1e200
    if "inf" in case:
        mat[-1, 7] = np.inf
    error, message = ((ContractError, "non-finite") if "inf" in case
                      else (DegeneracyError, "multilateration diverged at row 0"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            recover_cloud(mat, refs)
        row = -1 if "inf" in case else 0
        with pytest.raises(error, match=message):
            multilaterate_point(mat[row], refs)


# ---------------------------------------------------------------- object frame

def _noisy_matrix(rng, robot, obj):
    return np.abs(compute_dro(robot, obj) + rng.normal(0.0, 1e-3, size=(len(robot), len(obj))))


def test_object_frame_memo_does_not_depend_on_call_order():
    # the object's frame is kept from one call to the next; alternating two
    # objects, a degenerate one between them, and an object array changed in
    # place must all give what the same call gives in another order
    rng = np.random.default_rng(22)
    robot = rng.normal(scale=0.2, size=(_ROW_CHUNK + 5, 3))
    objs = [random_references(rng, 100) for _ in range(2)]
    mats = [_noisy_matrix(rng, robot, o) for o in objs]
    flat = objs[0].copy()
    flat[:, 2] = 0.0

    def recover(k):
        return recover_cloud(mats[k], objs[k]).points.tobytes()

    forward = [recover(k) for k in (0, 1, 0, 1)]
    backward = [recover(k) for k in (1, 0, 1, 0)]
    assert forward == backward[::-1] and forward[0] == forward[2] != forward[1]
    with pytest.raises(DegeneracyError):
        recover_cloud(mats[0], flat)
    assert recover(0) == forward[0]

    shared = objs[0].copy()
    assert recover_cloud(mats[0], shared).points.tobytes() == forward[0]
    shared[:] = objs[1]  # same array, new contents
    assert recover_cloud(mats[1], shared).points.tobytes() == forward[1]
    shared[:, 2] = 0.0
    with pytest.raises(DegeneracyError):
        recover_cloud(mats[1], shared)
    shared[:] = objs[0]
    assert recover_cloud(mats[0], shared).points.tobytes() == forward[0]
    assert multilaterate_point(mats[0][3], shared).tobytes() == \
        recover_cloud(mats[0][3:4], objs[0]).points[0].tobytes()


def test_recovery_does_not_depend_on_object_layout(three_finger):
    # the same object values as a C-ordered array and as the transpose of a
    # (3, N) array, each first after another object: whichever layout builds
    # the kept frame, every recovery must be the same to the bit
    model, _, object_cloud = three_finger
    rng = np.random.default_rng(25)
    c_obj = object_cloud.points
    f_obj = np.ascontiguousarray(c_obj.T).T
    assert f_obj.flags.f_contiguous and not f_obj.flags.c_contiguous
    q = np.clip(rng.uniform(-0.3, 0.3, model.n_dof), model.lower, model.upper)
    mat = _noisy_matrix(rng, cloud_fk(model, q, model.canonical_clouds).points, c_obj)
    other = random_references(rng, 100)
    other_mat = compute_dro(rng.normal(scale=0.2, size=(8, 3)), other)

    def recover(obj):
        grasp = recover_grasp(model, mat, obj)
        return (recover_cloud(mat, obj).points.tobytes(),
                multilaterate_point(mat[7], obj).tobytes(),
                grasp.q.tobytes(), grasp.recovered_cloud.points.tobytes())

    results = []
    for first, second in ((c_obj, f_obj), (f_obj, c_obj)):
        recover_cloud(other_mat, other)
        results += [recover(first), recover(second)]
    assert all(r == results[0] for r in results)


def test_reference_check_runs_once_per_object(monkeypatch):
    # the verdict is part of the object's frame, built once per distinct object
    calls = []
    frame = dro_module._ObjectFrame

    def counting(*fields):
        calls.append(fields)
        return frame(*fields)

    monkeypatch.setattr(dro_module, "_ObjectFrame", counting)
    rng = np.random.default_rng(23)
    obj = random_references(rng, 64)
    mat = compute_dro(rng.normal(scale=0.2, size=(8, 3)), obj)
    for _ in range(3):
        recover_cloud(mat, obj)
        recover_cloud(mat, PointCloud(obj))
        multilaterate_point(mat[0], obj)
    assert len(calls) == 1
    moved = obj + 1e-3
    recover_cloud(mat, moved)
    recover_cloud(mat, moved)
    assert len(calls) == 2


@pytest.mark.parametrize("workers", [2, 4])
def test_object_frame_memo_is_thread_safe(workers):
    # threads alternating two objects replace the kept frame under each
    # other, switching as often as the interpreter allows; every result must
    # still be the serial one
    rng = np.random.default_rng(24)
    robot = rng.normal(scale=0.2, size=(2 * _ROW_CHUNK, 3))
    objs = [random_references(rng, 256) for _ in range(2)]
    mats = [_noisy_matrix(rng, robot, o) for o in objs]
    serial = [recover_cloud(mats[k], objs[k]).points.tobytes() for k in (0, 1)]
    jobs = [k % 2 for k in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(recover_cloud, mats[k], objs[k]) for k in jobs]
            results = [f.result(timeout=60).points.tobytes() for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial[k] for k in jobs]
