import math
import re
from pathlib import Path

import numpy as np
import pytest

import drokit
from drokit import (ContractError, KinematicModel, StructureError, UrdfError,
                    clamp_to_limits, forward_kinematics, in_limits,
                    link_origin_jacobian, load_model, matrix_from_rpy,
                    model_summary, rpy_from_matrix)
from drokit.kinematics import PRISMATIC, VIRTUAL_PRISMATIC, _fk_arrays, _jacobians

import hands


def finite_difference_jacobian(model, q, link, h=1e-6):
    """Central-difference oracle for the link-origin Jacobian."""
    jac = np.zeros((3, model.n_dof))
    for i in range(model.n_dof):
        qp = q.copy()
        qp[i] += h
        qm = q.copy()
        qm[i] -= h
        fp = forward_kinematics(model, qp).translation(link)
        fm = forward_kinematics(model, qm).translation(link)
        jac[:, i] = (fp - fm) / (2.0 * h)
    return jac


def hand_composed_planar_pose(q_shoulder, q_elbow):
    """Independent 4x4 composition for the planar 2-link arm."""
    def rot_z(a):
        t = np.eye(4)
        t[0, 0] = t[1, 1] = math.cos(a)
        t[0, 1] = -math.sin(a)
        t[1, 0] = math.sin(a)
        return t

    def trans_x(d):
        t = np.eye(4)
        t[0, 3] = d
        return t

    return rot_z(q_shoulder) @ trans_x(1.0) @ rot_z(q_elbow)


def homogeneous_reference_fk(model, q):
    """World 4x4 transform per link, composed joint by joint from the public
    JointSpecs: parent, then origin, then a Rodrigues rotation
    I + sin(q) K + (1 - cos(q)) K^2 or a translation q * axis."""
    world = {}
    for link in model.links:
        joint = model.parent_joint(link)
        motion = np.eye(4)
        if joint.movable:
            value = q[model.dof_index[joint.name]]
            if joint.kind in (PRISMATIC, VIRTUAL_PRISMATIC):
                motion[:3, 3] = value * joint.axis
            else:
                x, y, z = joint.axis
                k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
                motion[:3, :3] += math.sin(value) * k + (1.0 - math.cos(value)) * k @ k
        parent = model.parent_link(link)
        base = np.eye(4) if parent is None else world[parent]
        world[link] = base @ joint.origin @ motion
    return world


# ---------------------------------------------------------------- load_model

def test_single_link_has_seven_dof():
    model = load_model(hands.single_link_urdf())
    assert model.n_dof == 7


def test_unclosed_tag_reports_line():
    bad = '<?xml version="1.0"?>\n<robot name="x">\n  <link name="a">\n</robot>'
    with pytest.raises(UrdfError) as err:
        load_model(bad)
    assert "line" in str(err.value)


def test_shadowhand_scale_dof_count():
    urdf, _ = hands.five_finger_hand()
    model = load_model(urdf)
    assert model.n_dof == 28


def test_wrist_dof_order_and_limits():
    model = load_model(hands.single_link_urdf())
    names = {v: k for k, v in model.dof_index.items()}
    assert [names[i] for i in range(6)] == [
        "virtual_wrist_x", "virtual_wrist_y", "virtual_wrist_z",
        "virtual_wrist_roll", "virtual_wrist_pitch", "virtual_wrist_yaw"]
    assert np.allclose(model.lower[:3], -10.0)
    assert np.allclose(model.upper[:3], 10.0)
    assert np.allclose(model.lower[3:6], -math.pi)
    assert np.allclose(model.upper[3:6], math.pi)


def test_unit_axes_on_movable_joints():
    urdf, _ = hands.five_finger_hand()
    model = load_model(urdf)
    for joint in model.joints:
        if joint.movable:
            assert abs(np.linalg.norm(joint.axis) - 1.0) < 1e-9


def test_tip_links_appended_at_leaves():
    urdf, _ = hands.three_finger_hand()
    model = load_model(urdf)
    assert sorted(model.tip_links) == ["f0_seg2_tip_ext", "f1_seg2_tip_ext",
                                       "f2_seg2_tip_ext"]
    poses = forward_kinematics(model, np.zeros(model.n_dof))
    tip = poses.translation("f0_seg2_tip_ext")
    seg = poses.translation("f0_seg2")
    assert np.allclose(tip - seg, [0.02, 0.0, 0.0])


def test_kinematic_loop_rejected():
    loop = """<robot name="loop">
      <link name="a"/><link name="b"/>
      <joint name="j1" type="fixed"><parent link="a"/><child link="b"/></joint>
      <joint name="j2" type="fixed"><parent link="b"/><child link="a"/></joint>
    </robot>"""
    with pytest.raises(StructureError):
        load_model(loop)


def test_missing_limit_rejected():
    urdf = """<robot name="x">
      <link name="a"/><link name="b"/>
      <joint name="j" type="revolute">
        <parent link="a"/><child link="b"/><axis xyz="0 0 1"/>
      </joint>
    </robot>"""
    with pytest.raises(StructureError):
        load_model(urdf)


_ONE_JOINT = """<robot name="x">
  <link name="a"/><link name="b"/>
  <joint name="j" type="revolute">
    <parent link="a"/><child link="b"/>
    <origin xyz="0 0 0.1" rpy="0 0 0"/><axis xyz="0 0 1"/><limit lower="-1" upper="1"/>
  </joint>
</robot>"""


@pytest.mark.parametrize("good, bad, message", [
    ('<link name="b"/>', "<link/>", "link element 2 has no 'name'"),
    ('<parent link="a"/>', "<parent/>", "joint 'j' parent has no 'link'"),
    ('<child link="b"/>', "<child/>", "joint 'j' child has no 'link'"),
    ('<axis xyz="0 0 1"/>', "<axis/>", "joint 'j' axis has no 'xyz'"),
    ('<axis xyz="0 0 1"/>', '<axis xyz="inf 0 0"/>', "joint 'j' axis 'xyz'"),
    ('<axis xyz="0 0 1"/>', '<axis xyz="0 1"/>', "joint 'j' axis 'xyz'"),
    ('<axis xyz="0 0 1"/>', '<axis xyz="0 z 1"/>', "joint 'j' axis 'xyz'"),
    ('lower="-1"', 'lower="nan"', "joint 'j' limit 'lower'"),
    ('upper="1"', 'upper="one"', "joint 'j' limit 'upper'"),
    ('upper="1"', "", "joint 'j' limit has no 'upper'"),
    ('xyz="0 0 0.1"', 'xyz="nan 0 0"', "joint 'j' origin 'xyz'"),
    ('rpy="0 0 0"', 'rpy="0 0"', "joint 'j' origin 'rpy'"),
], ids=["link-name", "parent-link", "child-link", "axis-missing", "axis-inf",
        "axis-short", "axis-text", "limit-nan", "limit-text", "limit-missing",
        "origin-nan", "origin-short"])
def test_malformed_urdf_attribute_names_element(good, bad, message):
    load_model(_ONE_JOINT)
    assert good in _ONE_JOINT
    with pytest.raises(UrdfError, match=re.escape(message)):
        load_model(_ONE_JOINT.replace(good, bad))


def test_two_roots_rejected():
    urdf = """<robot name="x">
      <link name="a"/><link name="b"/><link name="c"/>
      <joint name="j" type="fixed"><parent link="a"/><child link="b"/></joint>
    </robot>"""
    with pytest.raises(StructureError):
        load_model(urdf)


def test_configurable_tip_extension_length():
    model = load_model(hands.single_link_urdf(), virtual_tip_extension_length=0.05)
    joint = model.parent_joint(model.tip_links[0])
    assert np.allclose(joint.origin[:3, 3], [0.05, 0.0, 0.0])


def test_with_clouds_shares_tables_and_fk():
    model = load_model(hands.planar_two_link_arm())
    rng = np.random.default_rng(0)
    clouds = {link: rng.normal(size=(4, 3)) for link in reversed(model.links[-2:])}
    attached = model.with_clouds(clouds)
    assert attached.lower is model.lower and attached.upper is model.upper
    assert list(attached.canonical_clouds) == list(model.links[-2:])
    assert model.canonical_clouds is None
    q = rng.uniform(model.lower, model.upper)
    before, after = forward_kinematics(model, q), forward_kinematics(attached, q)
    for link in model.links:
        assert np.array_equal(before.rotation(link), after.rotation(link))
        assert np.array_equal(before.translation(link), after.translation(link))
    with pytest.raises(ContractError):
        model.with_clouds({"no_such_link": np.zeros((1, 3))})


def test_tables_built_once_across_load_and_with_clouds(monkeypatch):
    built = []
    build_tables = KinematicModel._build_tables

    def counting(self):
        built.append(self)
        build_tables(self)

    monkeypatch.setattr(KinematicModel, "_build_tables", counting)
    model = load_model(hands.planar_two_link_arm())
    model.with_clouds({model.links[-1]: np.zeros((2, 3))})
    assert len(built) == 1


# ---------------------------------------------------------------- forward kinematics

def test_zero_configuration_composes_fixed_origins_only():
    model = load_model(hands.planar_two_link_arm())
    poses = forward_kinematics(model, np.zeros(model.n_dof))
    assert np.allclose(poses.translation("upper"), [0.0, 0.0, 0.0])
    assert np.allclose(poses.translation("lower"), [1.0, 0.0, 0.0])
    assert np.allclose(poses.translation("lower_tip_ext"), [1.02, 0.0, 0.0])
    assert np.allclose(poses.rotation("lower"), np.eye(3))


def test_pure_wrist_translation_shifts_all_links():
    model = load_model(hands.planar_two_link_arm())
    base = forward_kinematics(model, np.zeros(model.n_dof))
    q = np.zeros(model.n_dof)
    q[0] = 1.0
    shifted = forward_kinematics(model, q)
    for link in model.links:
        assert np.allclose(shifted.translation(link) - base.translation(link),
                           [1.0, 0.0, 0.0])
        assert np.allclose(shifted.rotation(link), base.rotation(link))


def test_planar_arm_matches_hand_composed_transform():
    model = load_model(hands.planar_two_link_arm())
    q = np.zeros(model.n_dof)
    q[model.dof_index["shoulder"]] = math.pi / 2
    poses = forward_kinematics(model, q)
    expected = hand_composed_planar_pose(math.pi / 2, 0.0)
    assert np.allclose(poses.translation("lower"), expected[:3, 3], atol=1e-12)
    assert np.allclose(poses.rotation("lower"), expected[:3, :3], atol=1e-12)

    q[model.dof_index["elbow"]] = -math.pi / 3
    poses = forward_kinematics(model, q)
    expected = hand_composed_planar_pose(math.pi / 2, -math.pi / 3)
    assert np.allclose(poses.translation("lower"), expected[:3, 3], atol=1e-12)
    assert np.allclose(poses.rotation("lower"), expected[:3, :3], atol=1e-12)


def test_fk_matches_homogeneous_reference():
    """Both hands and 30 random chains: prismatic joints, oblique axes, rpy origins."""
    rng = np.random.default_rng(31)
    urdfs = [hands.three_finger_hand()[0], hands.five_finger_hand()[0]]
    urdfs += [hands.random_chain_urdf(rng) for _ in range(30)]
    kinds = set()
    for urdf in urdfs:
        model = load_model(urdf)
        kinds.update(j.kind for j in model.joints)
        for _ in range(5):
            q = rng.uniform(model.lower, model.upper)
            q[:3] = rng.uniform(-0.5, 0.5, 3)
            poses = forward_kinematics(model, q)
            expected = homogeneous_reference_fk(model, q)
            for link in model.links:
                assert np.abs(poses.transform(link) - expected[link]).max() < 1e-12
    assert {"revolute", "prismatic", "fixed"} <= kinds


def test_fk_dimension_mismatch():
    model = load_model(hands.single_link_urdf())
    with pytest.raises(ContractError):
        forward_kinematics(model, np.zeros(3))


def test_fk_deterministic_bitwise():
    urdf, _ = hands.three_finger_hand()
    model = load_model(urdf)
    rng = np.random.default_rng(11)
    q = rng.uniform(-0.5, 0.5, model.n_dof)
    a = forward_kinematics(model, q)
    b = forward_kinematics(model, q)
    for link in model.links:
        assert np.array_equal(a.translation(link), b.translation(link))
        assert np.array_equal(a.rotation(link), b.rotation(link))


def test_fk_arrays_are_fresh_per_call():
    # the line search keeps the last iterate's arrays while it evaluates the
    # next one, so a call must never write into an earlier call's result
    urdf, _ = hands.five_finger_hand()
    model = load_model(urdf)
    rng = np.random.default_rng(12)
    rot, trans = _fk_arrays(model, rng.uniform(model.lower, model.upper))
    kept_rot, kept_trans = rot.copy(), trans.copy()
    rot2, trans2 = _fk_arrays(model, rng.uniform(model.lower, model.upper))
    assert np.array_equal(rot, kept_rot) and np.array_equal(trans, kept_trans)
    assert not np.array_equal(trans2, trans)


def test_rotations_stay_orthonormal():
    urdf, _ = hands.five_finger_hand()
    model = load_model(urdf)
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = rng.uniform(model.lower, model.upper)
        poses = forward_kinematics(model, q)
        for link in model.links:
            rot = poses.rotation(link)
            assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-9
            assert abs(np.linalg.det(rot) - 1.0) < 1e-9


def test_wrist_equivariance():
    urdf, _ = hands.three_finger_hand()
    model = load_model(urdf)
    rng = np.random.default_rng(3)
    q = rng.uniform(model.lower, model.upper)
    q[:3] = rng.uniform(-0.5, 0.5, 3)
    base = forward_kinematics(model, q)

    rot_t = matrix_from_rpy(0.3, -0.5, 1.1)
    trans_t = np.array([0.2, -0.1, 0.4])
    wrist = np.eye(4)
    wrist[:3, :3] = matrix_from_rpy(*q[3:6])
    wrist[:3, 3] = q[:3]
    moved = np.eye(4)
    moved[:3, :3] = rot_t @ wrist[:3, :3]
    moved[:3, 3] = rot_t @ wrist[:3, 3] + trans_t

    q2 = q.copy()
    q2[:3] = moved[:3, 3]
    q2[3:6] = rpy_from_matrix(moved[:3, :3])
    transformed = forward_kinematics(model, q2)
    # the five intermediate wrist frames are partial compositions; the
    # property holds for every link from the URDF root on
    for link in model.links[5:]:
        assert np.allclose(transformed.translation(link),
                           rot_t @ base.translation(link) + trans_t, atol=1e-9)
        assert np.allclose(transformed.rotation(link),
                           rot_t @ base.rotation(link), atol=1e-9)


def test_rpy_matrix_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(50):
        rpy = rng.uniform(-math.pi, math.pi, 3)
        rpy[1] = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
        rot = matrix_from_rpy(*rpy)
        back = matrix_from_rpy(*rpy_from_matrix(rot))
        assert np.allclose(rot, back, atol=1e-12)


# ---------------------------------------------------------------- jacobian

def test_virtual_x_column_is_unit_x_everywhere():
    urdf, _ = hands.three_finger_hand()
    model = load_model(urdf)
    rng = np.random.default_rng(2)
    q = rng.uniform(model.lower, model.upper)
    q[:3] = 0.0
    for link in model.links:
        jac = link_origin_jacobian(model, q, link)
        assert np.allclose(jac[:, 0], [1.0, 0.0, 0.0], atol=1e-12)


def test_distal_joint_columns_are_zero():
    urdf, _ = hands.three_finger_hand()
    model = load_model(urdf)
    rng = np.random.default_rng(4)
    q = rng.uniform(model.lower, model.upper)
    jac = link_origin_jacobian(model, q, "f0_seg0")
    distal = [model.dof_index["f0_seg1_joint"], model.dof_index["f0_seg2_joint"],
              model.dof_index["f1_seg0_joint"]]
    for d in distal:
        assert np.allclose(jac[:, d], 0.0)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(42)
    urdf3, _ = hands.three_finger_hand()
    urdf5, _ = hands.five_finger_hand()
    models = [load_model(urdf3), load_model(urdf5),
              load_model(hands.planar_two_link_arm())]
    models += [load_model(hands.random_chain_urdf(rng)) for _ in range(5)]
    for model in models:
        for _ in range(3):
            q = rng.uniform(np.maximum(model.lower, -1.0), np.minimum(model.upper, 1.0))
            link = model.links[int(rng.integers(len(model.links)))]
            jac = link_origin_jacobian(model, q, link)
            fd = finite_difference_jacobian(model, q, link)
            scale = max(np.abs(fd).max(), 1.0)
            assert np.abs(jac - fd).max() / scale < 1e-5


def path_dofs(model, link):
    """DoFs of the movable joints from the world to ``link``, from the public tree."""
    dofs = set()
    while link is not None:
        joint = model.parent_joint(link)
        if joint.movable:
            dofs.add(model.dof_index[joint.name])
        link = model.parent_link(link)
    return dofs


def test_all_link_jacobians_match_finite_differences():
    """The call shape of solve_joints: every link at once from one FK."""
    rng = np.random.default_rng(43)
    urdfs = [hands.three_finger_hand()[0], hands.five_finger_hand()[0]]
    urdfs += [hands.random_chain_urdf(rng) for _ in range(20)]
    kinds = set()
    for urdf in urdfs:
        model = load_model(urdf)
        kinds.update(j.kind for j in model.joints)
        q = rng.uniform(np.maximum(model.lower, -1.0), np.minimum(model.upper, 1.0))
        jac = _jacobians(model, *_fk_arrays(model, q), np.arange(len(model.links)))
        assert jac.shape == (len(model.links), 3, model.n_dof)
        for k, link in enumerate(model.links):
            fd = finite_difference_jacobian(model, q, link)
            scale = max(np.abs(fd).max(), 1.0)
            assert np.abs(jac[k] - fd).max() / scale < 1e-5
            off_path = sorted(set(range(model.n_dof)) - path_dofs(model, link))
            assert (jac[k][:, off_path] == 0.0).all()
    assert PRISMATIC in kinds  # the chains reach the prismatic columns


def test_jacobian_unknown_link():
    model = load_model(hands.single_link_urdf())
    with pytest.raises(ContractError):
        link_origin_jacobian(model, np.zeros(model.n_dof), "nope")


# ---------------------------------------------------------------- clamping

def test_clamp_identity_on_feasible():
    urdf, _ = hands.three_finger_hand()
    model = load_model(urdf)
    q = 0.5 * (model.lower + model.upper)
    assert np.array_equal(clamp_to_limits(model, q), q)


def test_clamp_hits_bounds():
    model = load_model(hands.single_link_urdf())
    q = np.zeros(model.n_dof)
    q[6] = 5.0
    clamped = clamp_to_limits(model, q)
    assert clamped[6] == model.upper[6]
    assert in_limits(model, clamped)


def test_clamp_idempotent_on_random_vectors():
    urdf, _ = hands.five_finger_hand()
    model = load_model(urdf)
    rng = np.random.default_rng(9)
    for _ in range(20):
        q = rng.uniform(-20, 20, model.n_dof)
        once = clamp_to_limits(model, q)
        assert np.array_equal(clamp_to_limits(model, once), once)


# ---------------------------------------------------------------- summary

def test_model_summary_schema():
    import json
    urdf, _ = hands.three_finger_hand()
    model = load_model(urdf)
    summary = model_summary(model)
    assert set(summary) == {"links", "joints", "n_dof"}
    assert summary["n_dof"] == 15
    text = json.dumps(summary)
    parsed = json.loads(text)
    for joint in parsed["joints"]:
        assert set(joint) == {"name", "kind", "limits"}
        if joint["kind"] == "fixed":
            assert joint["limits"] is None


# ---------------------------------------------------------------- module boundary

def test_only_kinematics_reads_private_model_tables():
    """Other modules use KinematicModel's public names, never its private
    tables or methods, whatever the variable is called (``self._x`` is the
    module's own attribute and is allowed)."""
    model = load_model(hands.single_link_urdf())
    private = sorted(name for name in set(vars(model)) | set(dir(type(model)))
                     if name.startswith("_") and not name.startswith("__"))
    access = re.compile(r"(?<!\bself)\.(%s)\b" % "|".join(private))
    hits = []
    for path in sorted(Path(drokit.__file__).parent.glob("*.py")):
        if path.name == "kinematics.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if access.search(line):
                hits.append(f"{path.name}:{lineno}: {line.strip()}")
    assert private and not hits
