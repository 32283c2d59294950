import numpy as np
import pytest

from drokit import (ContractError, DegeneracyError, PointCloud, SamplingConfig,
                    cloud_fk, forward_kinematics, load_model, register_all,
                    register_link, registration_residual, sample_link_clouds)

import hands
from geometry import random_rotation, random_rotations


def best_residual_over_rotations(canonical, predicted, rotations):
    """Oracle: best achievable residual over a rotation sweep, with the
    optimal translation for each candidate."""
    ac = canonical - canonical.mean(axis=0)
    bc = predicted - predicted.mean(axis=0)
    # residual(R) = ||bc||^2 + ||ac||^2 - 2 tr(R @ (ac^T bc per-rotation sum))
    h = ac.T @ bc
    traces = np.einsum("kij,ji->k", rotations, h)
    return float((bc * bc).sum() + (ac * ac).sum() - 2.0 * traces.max())


def test_identity_transform():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(20, 3))
    rot, x = register_link(pts, pts)
    assert np.allclose(rot, np.eye(3), atol=1e-12)
    assert np.allclose(x, 0.0, atol=1e-12)


def test_exact_transform_recovery():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(25, 3))
    rot_z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    shift = np.array([0.1, 0.0, 0.0])
    predicted = pts @ rot_z.T + shift
    rot, x = register_link(pts, predicted)
    assert np.abs(rot - rot_z).max() < 1e-10
    assert np.abs(x - shift).max() < 1e-10


def test_many_random_exact_recoveries():
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = int(rng.integers(3, 40))
        pts = rng.normal(size=(m, 3))
        rot_true = random_rotation(rng)
        shift = rng.normal(size=3)
        rot, x = register_link(pts, pts @ rot_true.T + shift)
        assert np.abs(rot - rot_true).max() < 1e-10
        assert np.abs(x - shift).max() < 1e-10


def test_noisy_result_beats_random_rotation_sweep():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(20, 3))
    rot_true = random_rotation(rng)
    shift = rng.normal(size=3)
    predicted = pts @ rot_true.T + shift + rng.normal(0.0, 1e-3, size=(20, 3))
    rot, x = register_link(pts, predicted)
    ours = registration_residual(pts, predicted, rot, x)
    sweep = best_residual_over_rotations(pts, predicted, random_rotations(rng, 10 ** 5))
    assert ours <= sweep + 1e-15


def test_rotation_always_proper_even_for_planar_points():
    rng = np.random.default_rng(4)
    for _ in range(50):
        pts = rng.normal(size=(12, 3))
        pts[:, 2] = 0.0  # coplanar canonical set exercises the reflection fix
        rot_true = random_rotation(rng)
        shift = rng.normal(size=3)
        rot, x = register_link(pts, pts @ rot_true.T + shift)
        assert abs(np.linalg.det(rot) - 1.0) < 1e-9
        assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-9
        assert registration_residual(pts, pts @ rot_true.T + shift, rot, x) < 1e-10 * len(pts)


def test_residual_invariant_under_consistent_permutation():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(15, 3))
    predicted = pts @ random_rotation(rng).T + rng.normal(size=3)
    predicted += rng.normal(0.0, 1e-2, size=predicted.shape)
    rot, x = register_link(pts, predicted)
    base = registration_residual(pts, predicted, rot, x)
    perm = rng.permutation(15)
    rot_p, x_p = register_link(pts[perm], predicted[perm])
    assert abs(registration_residual(pts[perm], predicted[perm], rot_p, x_p) - base) < 1e-9


def test_too_few_points():
    with pytest.raises(ContractError):
        register_link(np.zeros((2, 3)), np.zeros((2, 3)))


@pytest.mark.parametrize("canonical_nan", [False, True])
def test_register_link_refuses_non_finite_points_naming_the_link(canonical_nan):
    # either used to end in a bare LinAlgError from the SVD
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(6, 3))
    bad = pts.copy()
    bad[2, 1] = np.nan
    which = "canonical" if canonical_nan else "predicted"
    with pytest.raises(ContractError, match=f"link 'f0_seg1': {which} point cloud contains "
                                            "non-finite coordinates"):
        register_link(bad if canonical_nan else pts, pts if canonical_nan else bad,
                      name="f0_seg1")


def test_collinear_points_degenerate_and_named():
    line = np.outer(np.linspace(0, 1, 8), [1.0, 0.0, 0.0])
    with pytest.raises(DegeneracyError) as err:
        register_link(line, line + 0.1, name="f0_seg1")
    assert "f0_seg1" in str(err.value)


# ---------------------------------------------------------------- register_all

def _hand_setup(seed=1, builder=hands.three_finger_hand):
    urdf, meshes = builder()
    model = load_model(urdf)
    canonical = sample_link_clouds(model, meshes, SamplingConfig(seed=seed))
    return model, canonical


def per_link_oracle(canonical_points, predicted_points):
    """One link at a time: (a - ca)^T (b - cb), its SVD, then the det flip.
    Returns (rotation, translation, whether the flip was applied)."""
    a = np.asarray(canonical_points, dtype=float)
    b = np.asarray(predicted_points, dtype=float)
    ca, cb = a.mean(axis=0), b.mean(axis=0)
    u, _, vt = np.linalg.svd((a - ca).T @ (b - cb))
    v = vt.T.copy()
    flipped = np.linalg.det(v @ u.T) < 0.0
    if flipped:
        v[:, -1] = -v[:, -1]
    rot = v @ u.T
    return rot, cb - rot @ ca, flipped


def _random_q(model, rng):
    q = rng.uniform(model.lower, model.upper)
    q[:3] = rng.uniform(-0.3, 0.3, 3)
    return q


def _assert_matches_oracle(canonical, recovered):
    poses = register_all(canonical, recovered)
    flips = 0
    for link, pred in recovered.by_link().items():
        rot, x, flipped = per_link_oracle(canonical[link], pred)
        flips += flipped
        assert np.abs(poses.rotation(link) - rot).max() < 1e-12, link
        assert np.abs(poses.translation(link) - x).max() < 1e-12, link
    assert not poses.fallback_links
    return flips


@pytest.mark.parametrize("builder", [hands.three_finger_hand, hands.five_finger_hand])
@pytest.mark.parametrize("sigma", [0.0, 1e-3])
def test_register_all_matches_per_link_oracle(builder, sigma):
    model, canonical = _hand_setup(builder=builder)
    rng = np.random.default_rng(8)
    reversed_order = dict(reversed(list(canonical.items())))
    for _ in range(10):
        recovered = cloud_fk(model, _random_q(model, rng), canonical)
        noisy = PointCloud(recovered.points + rng.normal(0.0, sigma, recovered.points.shape),
                           recovered.labels)
        _assert_matches_oracle(canonical, noisy)
        _assert_matches_oracle(reversed_order, noisy)


@pytest.mark.parametrize("sigma", [0.0, 1e-3])
def test_register_all_matches_oracle_with_planar_links(sigma):
    """Planar canonical links often need the reflection fix; each link must
    get it from its own determinant, whatever the other links in the call."""
    model, canonical = _hand_setup(builder=hands.five_finger_hand)
    canonical = dict(canonical)
    for link in list(canonical)[::2]:
        pts = canonical[link].copy()
        pts[:, 2] = pts[:, 2].mean()
        canonical[link] = pts
    rng = np.random.default_rng(9)
    flips = 0
    for _ in range(10):
        recovered = cloud_fk(model, _random_q(model, rng), canonical)
        noisy = PointCloud(recovered.points + rng.normal(0.0, sigma, recovered.points.shape),
                           recovered.labels)
        flips += _assert_matches_oracle(canonical, noisy)
    assert flips > 0



@pytest.mark.parametrize("builder", [hands.three_finger_hand, hands.five_finger_hand])
def test_register_all_matches_per_link_oracle_far_from_origin(builder):
    """Registration sums products of centred canonical points with recovered
    points that are not centred per link; with the hand 5 m from the origin
    it must still match the centred per-link SVD."""
    model, canonical = _hand_setup(builder=builder)
    rng = np.random.default_rng(12)
    for _ in range(5):
        q = _random_q(model, rng)
        q[:3] = 5.0 * q[:3] / np.linalg.norm(q[:3])
        recovered = cloud_fk(model, q, canonical)
        assert np.linalg.norm(recovered.points, axis=1).min() > 4.5
        noisy = PointCloud(recovered.points + rng.normal(0.0, 1e-3, recovered.points.shape),
                           recovered.labels)
        _assert_matches_oracle(canonical, recovered)
        _assert_matches_oracle(canonical, noisy)


def test_register_all_recovers_fk_poses():
    model, canonical = _hand_setup()
    rng = np.random.default_rng(6)
    q = rng.uniform(model.lower, model.upper)
    q[:3] = rng.uniform(-0.3, 0.3, 3)
    recovered = cloud_fk(model, q, canonical)
    poses = register_all(canonical, recovered)
    fk = forward_kinematics(model, q)
    for link in canonical:
        assert np.abs(poses.translation(link) - fk.translation(link)).max() < 1e-8
        # rotation error as geodesic angle
        cos = (np.trace(poses.rotation(link).T @ fk.rotation(link)) - 1.0) / 2.0
        assert np.arccos(np.clip(cos, -1.0, 1.0)) < 1e-7
    assert not poses.fallback_links


def test_register_all_equivariant_under_rigid_motion():
    model, canonical = _hand_setup()
    q = np.zeros(model.n_dof)
    recovered = cloud_fk(model, q, canonical)
    rng = np.random.default_rng(7)
    rot_t = random_rotation(rng)
    shift = rng.normal(size=3)
    moved = PointCloud(recovered.points @ rot_t.T + shift, recovered.labels)
    base = register_all(canonical, recovered)
    out = register_all(canonical, moved)
    for link in canonical:
        assert np.abs(out.rotation(link) - rot_t @ base.rotation(link)).max() < 1e-9
        assert np.abs(out.translation(link)
                      - (rot_t @ base.translation(link) + shift)).max() < 1e-9


def test_collinear_link_falls_back_and_flags():
    model, canonical = _hand_setup()
    q = np.zeros(model.n_dof)
    canonical = dict(canonical)
    m = len(canonical["f1_seg2"])
    canonical["f1_seg2"] = np.outer(np.linspace(0.0, 0.03, m), [1.0, 0.0, 0.0])
    recovered = cloud_fk(model, q, canonical)
    parents = {link: model.parent_link(link) for link in model.links}
    poses = register_all(canonical, recovered, parents)
    assert poses.fallback_links == {"f1_seg2"}
    fk = forward_kinematics(model, q)
    # flagged link still gets the right translation; neighbors unaffected
    assert np.abs(poses.translation("f1_seg2") - fk.translation("f1_seg2")).max() < 1e-8
    assert np.abs(poses.rotation("f1_seg1") - fk.rotation("f1_seg1")).max() < 1e-8
    # fallback rotation comes from the registered parent
    assert np.abs(poses.rotation("f1_seg2") - poses.rotation("f1_seg1")).max() < 1e-12


def test_collinear_chain_inherits_grandparent_rotation():
    model, canonical = _hand_setup()
    canonical = dict(canonical)
    for link in ("f1_seg1", "f1_seg2"):
        m = len(canonical[link])
        canonical[link] = np.outer(np.linspace(0.0, 0.03, m), [1.0, 0.0, 0.0])
    rng = np.random.default_rng(10)
    q = _random_q(model, rng)
    recovered = cloud_fk(model, q, canonical)
    parents = {link: model.parent_link(link) for link in model.links}
    poses = register_all(canonical, recovered, parents)
    assert poses.fallback_links == {"f1_seg1", "f1_seg2"}
    assert parents["f1_seg1"] == "f1_seg0"
    grandparent = poses.rotation("f1_seg0")
    fk = forward_kinematics(model, q)
    assert np.abs(grandparent - fk.rotation("f1_seg0")).max() < 1e-8
    assert np.array_equal(poses.rotation("f1_seg1"), grandparent)
    assert np.array_equal(poses.rotation("f1_seg2"), grandparent)
    recovered_by_link = recovered.by_link()
    for link in ("f1_seg1", "f1_seg2"):
        # translation: the centroids under the inherited rotation
        x = recovered_by_link[link].mean(axis=0) - grandparent @ canonical[link].mean(axis=0)
        assert np.abs(poses.translation(link) - x).max() < 1e-12


def test_register_all_two_point_link_raises_not_falls_back():
    model, canonical = _hand_setup()
    canonical = dict(canonical)
    canonical["f2_seg1"] = canonical["f2_seg1"][:2]
    recovered = cloud_fk(model, np.zeros(model.n_dof), canonical)
    parents = {link: model.parent_link(link) for link in model.links}
    with pytest.raises(ContractError, match="f2_seg1"):
        register_all(canonical, recovered, parents)


def test_register_all_names_a_link_whose_points_differ_in_shape():
    # the recovered cloud drops one of f2_seg1's points
    model, canonical = _hand_setup()
    recovered = cloud_fk(model, np.zeros(model.n_dof), canonical)
    keep = np.arange(len(recovered)) != recovered.labels.index("f2_seg1")
    short = PointCloud(recovered.points[keep], [l for l, k in zip(recovered.labels, keep) if k])
    n = len(canonical["f2_seg1"])
    with pytest.raises(ContractError, match=rf"link 'f2_seg1': point arrays must share "
                                            rf"shape \(M, 3\), got \({n}, 3\) and \({n - 1}, 3\)"):
        register_all(canonical, short)


def test_register_all_of_nothing_is_an_empty_pose_set():
    poses = register_all({}, PointCloud(np.zeros((0, 3)), []))
    assert poses.links == ()
    assert poses.rotations.shape == (0, 3, 3) and poses.translations.shape == (0, 3)
    assert poses.fallback_links == frozenset()


def test_register_all_label_mismatch():
    model, canonical = _hand_setup()
    recovered = cloud_fk(model, np.zeros(model.n_dof), canonical)
    broken = dict(canonical)
    broken.pop("palm")
    with pytest.raises(ContractError):
        register_all(broken, recovered)


def test_pose_set_json_round_trip():
    model, canonical = _hand_setup()
    recovered = cloud_fk(model, np.zeros(model.n_dof), canonical)
    poses = register_all(canonical, recovered)
    from drokit import LinkPoseSet
    back = LinkPoseSet.from_json_dict(poses.to_json_dict())
    for link in canonical:
        assert np.allclose(back.rotation(link), poses.rotation(link))
        assert np.allclose(back.translation(link), poses.translation(link))


@pytest.mark.parametrize("points, message", [
    (np.zeros((0, 3)), "need at least 3 points, got 0"),
    (np.zeros((5, 2)), r"canonical points must have shape \(M, 3\), got \(5, 2\)"),
    (np.zeros(15), r"canonical points must have shape \(M, 3\), got \(15,\)"),
    (np.full((5, 3), np.nan), "canonical point cloud contains non-finite coordinates"),
    (np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, -np.inf]]),
     "canonical point cloud contains non-finite coordinates"),
], ids=["empty", "two-columns", "1d", "nan", "inf"])
def test_register_all_rejects_empty_or_malformed_canonical_cloud(points, message):
    model, canonical = _hand_setup()
    recovered = cloud_fk(model, np.zeros(model.n_dof), canonical)
    broken = dict(canonical)
    broken["f2_seg1"] = points
    with pytest.raises(ContractError, match=rf"link 'f2_seg1': {message}"):
        register_all(broken, recovered)
