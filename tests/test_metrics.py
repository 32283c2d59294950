import numpy as np
import pytest

from drokit import (ContractError, DataError, GraspRecord, controller_targets,
                    disturbance_forces, diversity, forward_kinematics,
                    in_limits, load_model, per_dimension_std,
                    read_grasp_records, write_grasp_records)

from drokit.kinematics import PRISMATIC

import hands


def record(q, robot="threefinger"):
    return GraspRecord(robot_id=robot, object_id="obj", q=np.asarray(q, dtype=float))


def mean_tip_distance(model, q, centroid):
    poses = forward_kinematics(model, q)
    return np.mean([np.linalg.norm(poses.translation(t) - centroid)
                    for t in model.tip_links])


# ---------------------------------------------------------------- diversity

def test_single_grasp_diversity_zero():
    assert diversity([record(np.zeros(9))]) == 0.0


def test_diversity_of_empty_configurations_rejected():
    # used to warn "Mean of empty slice" and return NaN
    with pytest.raises(ContractError, match="grasp list or its configurations are empty"):
        diversity([record(np.zeros(0)), record(np.zeros(0))])


def test_two_grasps_one_joint_epsilon():
    eps = 0.05
    n = 8
    qa = np.zeros(n)
    qb = np.zeros(n)
    qa[3] += eps
    qb[3] -= eps
    assert abs(diversity([record(qa), record(qb)]) - eps / n) < 1e-12


def test_diversity_matches_naive_oracle():
    rng = np.random.default_rng(0)
    grasps = [record(rng.normal(size=12)) for _ in range(25)]
    stack = np.array([g.q for g in grasps])
    naive = []
    for dim in range(12):
        col = stack[:, dim]
        naive.append(np.sqrt(((col - col.mean()) ** 2).mean()))
    assert abs(diversity(grasps) - np.mean(naive)) < 1e-12
    assert np.abs(per_dimension_std(grasps) - naive).max() < 1e-12


def test_diversity_permutation_invariant():
    rng = np.random.default_rng(1)
    grasps = [record(rng.normal(size=6)) for _ in range(10)]
    base = diversity(grasps)
    shuffled = [grasps[i] for i in rng.permutation(10)]
    assert diversity(shuffled) == base


def test_diversity_contract_errors():
    with pytest.raises(ContractError):
        diversity([])
    with pytest.raises(ContractError):
        diversity([record(np.zeros(3)), record(np.zeros(4))])


# ---------------------------------------------------------------- controller targets

def test_zero_delta_is_identity():
    urdf, _ = hands.three_finger_hand()
    model = load_model(urdf)
    q = 0.5 * (model.lower + model.upper)
    q_outer, q_inner = controller_targets(model, q, np.zeros(3), delta=0.0)
    assert np.array_equal(q_outer, q)
    assert np.array_equal(q_inner, q)


def test_signs_match_finite_difference_oracle():
    urdf, _ = hands.three_finger_hand()
    model = load_model(urdf)
    rng = np.random.default_rng(2)
    q = rng.uniform(model.lower * 0.5, model.upper * 0.5)
    q[:6] = 0.0
    centroid = np.array([0.12, 0.0, -0.03])
    delta = 0.05
    q_outer, q_inner = controller_targets(model, q, centroid, delta=delta)
    h = 1e-6
    for dof in range(6, model.n_dof):
        qp = q.copy(); qp[dof] += h
        qm = q.copy(); qm[dof] -= h
        # oracle: mean distance of descendant tips only, a tip descending
        # from the joint whose child link is on the tip's parent_link chain
        child = next(j.child_link for j in model.joints if model.dof_index.get(j.name) == dof)
        tips = [t for t in model.tip_links if child in _ancestors(model, t)]
        def mean_d(qq):
            poses = forward_kinematics(model, qq)
            return np.mean([np.linalg.norm(poses.translation(t) - centroid) for t in tips])
        deriv = (mean_d(qp) - mean_d(qm)) / (2 * h)
        sign = np.sign(deriv)
        assert q_outer[dof] == pytest.approx(np.clip(q[dof] + delta * sign,
                                                     model.lower[dof], model.upper[dof]))
        assert q_inner[dof] == pytest.approx(np.clip(q[dof] - delta * sign,
                                                     model.lower[dof], model.upper[dof]))


def _ancestors(model, link):
    """``link`` and every link on its parent_link chain up to the root."""
    chain = []
    while link is not None:
        chain.append(link)
        link = model.parent_link(link)
    return chain


def test_wrist_entries_untouched_and_in_limits():
    urdf, _ = hands.five_finger_hand()
    model = load_model(urdf)
    rng = np.random.default_rng(3)
    q = rng.uniform(model.lower, model.upper)
    q[:3] = rng.uniform(-0.4, 0.4, 3)
    q_outer, q_inner = controller_targets(model, q, np.array([0.1, 0.0, 0.0]))
    assert np.array_equal(q_outer[:6], q[:6])
    assert np.array_equal(q_inner[:6], q[:6])
    assert in_limits(model, q_outer)
    assert in_limits(model, q_inner)


def test_joint_at_limit_stays_clamped():
    urdf, _ = hands.three_finger_hand()
    model = load_model(urdf)
    q = np.zeros(model.n_dof)
    q[6:] = model.upper[6:]  # fully curled
    q_outer, q_inner = controller_targets(model, q, np.zeros(3), delta=0.2)
    assert in_limits(model, q_outer)
    assert in_limits(model, q_inner)
    assert (q_outer[6:] <= model.upper[6:]).all()


def test_inner_closer_than_outer_for_small_delta():
    urdf, _ = hands.three_finger_hand()
    model = load_model(urdf)
    q = 0.5 * (model.lower + model.upper)
    centroid = np.array([0.12, 0.0, -0.05])
    q_outer, q_inner = controller_targets(model, q, centroid, delta=0.01)
    assert mean_tip_distance(model, q_inner, centroid) < \
        mean_tip_distance(model, q_outer, centroid)


def test_out_of_limits_prediction_rejected():
    urdf, _ = hands.three_finger_hand()
    model = load_model(urdf)
    q = np.zeros(model.n_dof)
    q[6] = 99.0
    with pytest.raises(ContractError):
        controller_targets(model, q, np.zeros(3))


@pytest.mark.parametrize("entry, value, message", [
    (6, np.nan, "q_pred: configuration contains non-finite entries"),
    (6, 99.0, "q_pred violates joint limits"),
    (0, np.inf, "q_pred: configuration contains non-finite entries"),
])
def test_bad_prediction_rejected_naming_q_pred(entry, value, message):
    urdf, _ = hands.three_finger_hand()
    model = load_model(urdf)
    q = 0.5 * (model.lower + model.upper)
    q[entry] = value
    with pytest.raises(ContractError, match=message):
        controller_targets(model, q, np.zeros(3))


@pytest.mark.parametrize("centroid, delta, message", [
    (np.zeros(2), 0.1, "object centroid must be a 3-vector"),
    (np.zeros((1, 3)), 0.1, "object centroid must be a 3-vector"),
    (np.array([np.nan, 0.0, 0.0]), 0.1, "object centroid must be finite"),
    (np.array([0.0, np.inf, 0.0]), 0.1, "object centroid must be finite"),
    (np.zeros(3), -0.1, "delta must be nonnegative and finite"),
    (np.zeros(3), np.nan, "delta must be nonnegative and finite"),
    (np.zeros(3), np.inf, "delta must be nonnegative and finite"),
], ids=["centroid-2", "centroid-1x3", "centroid-nan", "centroid-inf", "delta-negative",
        "delta-nan", "delta-inf"])
def test_bad_centroid_or_delta_rejected_naming_it(centroid, delta, message):
    # a NaN delta used to fail as a non-finite configuration, and an infinite
    # one warned first; neither named delta
    urdf, _ = hands.three_finger_hand()
    model = load_model(urdf)
    q = 0.5 * (model.lower + model.upper)
    with pytest.raises(ContractError, match=message):
        controller_targets(model, q, centroid, delta=delta)


def reference_controller_targets(model, q, centroid, delta):
    """Per-joint reference built from forward kinematics and each JointSpec:
    the sign of d/dq of the summed distance from the joint's descendant tips
    to the centroid, with a tip on the centroid left out."""
    poses = forward_kinematics(model, q)
    chains = {}
    for tip in model.tip_links:
        chains[tip], link = set(), tip
        while link is not None:
            chains[tip].add(link)
            link = model.parent_link(link)
    q_outer, q_inner = q.copy(), q.copy()
    for joint in model.joints:
        dof = model.dof_index.get(joint.name, -1)
        if dof < 6:  # fixed joints and the wrist
            continue
        axis = poses.rotation(joint.child_link) @ joint.axis
        anchor = poses.translation(joint.child_link)
        deriv = 0.0
        for tip in model.tip_links:
            if joint.child_link not in chains[tip]:
                continue
            offset = poses.translation(tip) - centroid
            dist = np.linalg.norm(offset)
            if dist < 1e-12:
                continue
            if joint.kind == PRISMATIC:
                col = axis
            else:
                col = np.cross(axis, poses.translation(tip) - anchor)
            deriv += float(offset @ col) / dist
        q_outer[dof] += delta * np.sign(deriv)
        q_inner[dof] -= delta * np.sign(deriv)
    return (np.clip(q_outer, model.lower, model.upper),
            np.clip(q_inner, model.lower, model.upper))


def reference_cases():
    """(model, q, centroid) over both test hands and random serial chains."""
    rng = np.random.default_rng(11)
    hand_models = [load_model(hands.three_finger_hand()[0]),
                   load_model(hands.five_finger_hand()[0])]
    chains = [load_model(hands.random_chain_urdf(rng)) for _ in range(20)]
    for model, n in [(m, 40) for m in hand_models] + [(m, 5) for m in chains]:
        for _ in range(n):
            q = rng.uniform(model.lower, model.upper)
            q[:3] = rng.uniform(-0.3, 0.3, 3)
            yield model, q, rng.uniform(-0.3, 0.3, 3)


def test_controller_matches_reference_on_random_configurations():
    moved = 0
    prismatic = 0
    for model, q, centroid in reference_cases():
        for delta in (0.1, 0.0):
            q_outer, q_inner = controller_targets(model, q, centroid, delta=delta)
            ref_outer, ref_inner = reference_controller_targets(model, q, centroid, delta)
            assert np.array_equal(q_outer, ref_outer)
            assert np.array_equal(q_inner, ref_inner)
            moved += delta > 0.0 and not np.array_equal(q_outer, q)
        assert np.array_equal(q_outer, q)  # delta == 0 moves nothing
        prismatic += any(j.kind == PRISMATIC for j in model.joints)
    assert moved > 100
    assert prismatic > 0  # the chains reach the prismatic columns


def test_controller_matches_reference_with_centroid_on_a_tip():
    for model, q, _ in reference_cases():
        poses = forward_kinematics(model, q)
        for tip in model.tip_links:
            centroid = poses.translation(tip)
            q_outer, q_inner = controller_targets(model, q, centroid, delta=0.1)
            ref_outer, ref_inner = reference_controller_targets(model, q, centroid, 0.1)
            assert np.all(np.isfinite(q_outer))
            assert np.array_equal(q_outer, ref_outer)
            assert np.array_equal(q_inner, ref_inner)


# ---------------------------------------------------------------- forces

def test_disturbance_force_magnitudes():
    forces = disturbance_forces(1.0)
    assert forces.shape == (6, 3)
    assert np.allclose(np.linalg.norm(forces, axis=1), 0.5)
    assert np.allclose(disturbance_forces(2.0), 2.0 * forces)


def test_disturbance_forces_sum_to_zero():
    assert np.array_equal(disturbance_forces(3.7).sum(axis=0), np.zeros(3))


def test_disturbance_forces_axis_aligned():
    forces = disturbance_forces(1.0)
    expected_dirs = {(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)}
    dirs = {tuple(int(v) for v in f / 0.5) for f in forces}
    assert dirs == expected_dirs


def test_nonpositive_mass_rejected():
    with pytest.raises(ContractError):
        disturbance_forces(0.0)
    with pytest.raises(ContractError):
        disturbance_forces(-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ContractError, match="object_mass"):
            disturbance_forces(bad)


# ---------------------------------------------------------------- records

def test_grasp_record_jsonl_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    records = [
        GraspRecord("handA", "mug", rng.normal(size=15), "dataset", True),
        GraspRecord("handA", "mug", rng.normal(size=15), "recovered", None),
        GraspRecord("handB", "can", rng.normal(size=28), "manual", False),
    ]
    path = tmp_path / "grasps.jsonl"
    write_grasp_records(path, records)
    back = read_grasp_records(path)
    assert len(back) == 3
    for a, b in zip(records, back):
        assert a.robot_id == b.robot_id
        assert a.object_id == b.object_id
        assert a.provenance == b.provenance
        assert a.success == b.success
        assert np.array_equal(a.q, b.q)
    line = records[1].to_json_line()
    assert "success" not in line


def test_grasp_record_validates_provenance():
    with pytest.raises(ContractError):
        GraspRecord("r", "o", np.zeros(3), provenance="guessed")


@pytest.mark.parametrize("bad", [
    b'{"robot": "r", "object"',                     # not JSON
    b'{"robot": "r"}',                              # no object or q
    b'{"robot": "r", "object": "o", "q": ["a"]}',   # q not numbers
    b'{"robot": "r", "object": "o", "q": 5}',       # q not a vector
    b'[1, 2]',                                      # not an object
    b'\xff\xfe{}',                                  # not UTF-8
], ids=["not-json", "missing-keys", "q-not-numbers", "q-not-vector", "not-object",
        "not-utf8"])
def test_malformed_grasp_file_names_file_and_line(tmp_path, bad):
    path = tmp_path / "grasps.jsonl"
    path.write_bytes(record(np.zeros(3)).to_json_line().encode() + b"\n\n" + bad + b"\n")
    with pytest.raises(DataError) as err:
        read_grasp_records(path)
    assert f"{path} line 3" in str(err.value)
