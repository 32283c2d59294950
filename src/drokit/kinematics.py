"""URDF parsing, virtual-joint augmentation, forward kinematics, Jacobians.

A loaded model is a floating-base kinematic tree.  Six virtual wrist joints
(three prismatic, three revolute) are inserted between an implicit world
frame and the URDF root link, so the base pose is optimized like any other
joint.  Configuration vector layout::

    q = [x, y, z, roll, pitch, yaw, actuated joints in URDF order...]

Wrist convention (load-bearing for stored grasp configurations): the wrist
transform is a translation by (x, y, z) followed by the rotation
``R = Rz(yaw) @ Ry(pitch) @ Rx(roll)`` — the standard URDF rpy convention.

Every leaf link of the source URDF additionally receives a fixed-offset
virtual extension link along the parent's local +x axis, so translation-only
link targets still constrain fingertip orientation.

Forward kinematics has one rule for every link: its world pose is its
parent's world pose, then its joint origin, then its joint motion, composed
as 4x4 transforms.  The motion of all links comes from one expression, a
rotation exp(theta K) by the revolute value theta and a shift d * axis by the
prismatic value d, with theta and d zero where they do not apply, so a fixed
joint moves by the identity.
"""

from __future__ import annotations

import copy
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, StructureError, UrdfError

REVOLUTE = "revolute"
PRISMATIC = "prismatic"
FIXED = "fixed"
VIRTUAL_PRISMATIC = "virtual_prismatic"
VIRTUAL_REVOLUTE = "virtual_revolute"

WORLD = "world"

VIRTUAL_TRANSLATION_LIMIT = 10.0  # meters, generous tabletop bound
VIRTUAL_ROTATION_LIMIT = math.pi

_PRISMATIC_KINDS = (PRISMATIC, VIRTUAL_PRISMATIC)
_REVOLUTE_KINDS = (REVOLUTE, VIRTUAL_REVOLUTE)

# K(a).ravel() = a @ _SKEW, where K v = a x v (row r of K is e_r x a)
_SKEW = np.cross(np.eye(3)[:, None, :], np.eye(3)[None, :, :]).transpose(1, 0, 2).reshape(3, 9)

_AXES = {"x": np.array([1.0, 0.0, 0.0]),
         "y": np.array([0.0, 1.0, 0.0]),
         "z": np.array([0.0, 0.0, 1.0])}


def matrix_from_rpy(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Rotation matrix Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def rpy_from_matrix(rot: np.ndarray) -> tuple[float, float, float]:
    """Inverse of :func:`matrix_from_rpy`; pitch taken in [-pi/2, pi/2]."""
    pitch = math.asin(max(-1.0, min(1.0, -rot[2, 0])))
    if abs(rot[2, 0]) < 1.0 - 1e-12:
        roll = math.atan2(rot[2, 1], rot[2, 2])
        yaw = math.atan2(rot[1, 0], rot[0, 0])
    else:
        # gimbal lock: fold yaw into roll
        roll = math.atan2(-rot[1, 2], rot[1, 1])
        yaw = 0.0
    return roll, pitch, yaw


@dataclass(frozen=True)
class JointSpec:
    """One edge of the kinematic tree.

    ``axis`` is a unit vector in the joint (child-link) frame; ``origin`` is
    the 4x4 transform from the parent link frame to the joint frame.  Fixed
    joints carry a zero axis and ``limits == (0.0, 0.0)``.
    """

    name: str
    kind: str
    axis: np.ndarray
    origin: np.ndarray
    limits: tuple[float, float]
    parent_link: str
    child_link: str

    @property
    def movable(self) -> bool:
        return self.kind != FIXED


@dataclass(frozen=True)
class LinkPoseSet:
    """World pose per link: rotation (3x3, proper) and translation (3,).

    ``fallback_links`` flags links whose rotation was not independently
    estimated (degenerate registration fallback); empty for FK output.
    """

    rotations: dict[str, np.ndarray]
    translations: dict[str, np.ndarray]
    fallback_links: frozenset[str] = frozenset()

    def __contains__(self, link: str) -> bool:
        return link in self.rotations

    @property
    def links(self) -> list[str]:
        return list(self.rotations)

    def rotation(self, link: str) -> np.ndarray:
        return self.rotations[link]

    def translation(self, link: str) -> np.ndarray:
        return self.translations[link]

    def transform(self, link: str) -> np.ndarray:
        t = np.eye(4)
        t[:3, :3] = self.rotations[link]
        t[:3, 3] = self.translations[link]
        return t

    def to_json_dict(self) -> dict:
        return {
            link: {"R": [float(v) for v in self.rotations[link].ravel()],
                   "x": [float(v) for v in self.translations[link]]}
            for link in self.rotations
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LinkPoseSet":
        rots = {k: np.array(v["R"], dtype=float).reshape(3, 3) for k, v in data.items()}
        trans = {k: np.array(v["x"], dtype=float) for k, v in data.items()}
        return cls(rots, trans)


class KinematicModel:
    """Immutable augmented kinematic tree.

    The underscored index tables are private to this module.  Other modules
    use ``links``, ``tip_links``, ``dof_index``, :meth:`parent_link`,
    :meth:`parent_joint`, ``_fk_arrays`` and ``_jacobians``.  ``_fk_arrays``
    composes every link's pose as 4x4 transforms and returns the rotations
    and translations as views of one (L, 4, 4) array made by that call,
    which callers must not write to.

    Attributes
    ----------
    links : tuple of str
        All link names in topological order (parents before children),
        beginning with the five intermediate virtual wrist links.
    joints : tuple of JointSpec
        All joints, including the six virtual wrist joints and the fixed
        tip-extension joints.
    dof_index : dict
        Movable joint name -> configuration index.  Indices 0..5 are the
        wrist (x, y, z, roll, pitch, yaw).
    n_dof : int
        6 + number of actuated URDF joints.
    lower, upper : ndarray (n_dof,)
        Joint limits.
    tip_links : tuple of str
        The appended virtual tip-extension links.
    canonical_clouds : dict or None
        Per-link canonical point arrays, attached via :meth:`with_clouds`.
    """

    def __init__(self, links, joints, dof_index, tip_links, canonical_clouds=None):
        self.links: tuple[str, ...] = tuple(links)
        self.joints: tuple[JointSpec, ...] = tuple(joints)
        self.dof_index: dict[str, int] = dict(dof_index)
        self.n_dof: int = len(self.dof_index)
        self.tip_links: tuple[str, ...] = tuple(tip_links)
        self.canonical_clouds = canonical_clouds
        self._build_tables()

    def _build_tables(self):
        by_child = {j.child_link: j for j in self.joints}
        if len(by_child) != len(self.joints):
            raise StructureError("a link has more than one parent joint")
        self._joint_by_child = by_child
        self._link_index = {name: i for i, name in enumerate(self.links)}

        lower = np.zeros(self.n_dof)
        upper = np.zeros(self.n_dof)
        self._dof_child = np.full(self.n_dof, -1, dtype=int)
        for j in self.joints:
            if not j.movable:
                continue
            d = self.dof_index[j.name]
            lower[d], upper[d] = j.limits
            self._dof_child[d] = self._link_index[j.child_link]
        self.lower = lower
        self.upper = upper
        self.lower.flags.writeable = False
        self.upper.flags.writeable = False

        # per-link parent index and local joint parameters, in `links` order
        n = len(self.links)
        self._parent = np.full(n, -1, dtype=int)
        origins = np.zeros((n, 4, 4))
        # 1.0 where the joint value is an angle / a shift: theta and d are the
        # value times these, so a fixed joint moves by neither
        self._revolute = np.zeros(n)
        self._prismatic = np.zeros(n)
        self._axis = np.zeros((n, 3))
        self._dof = np.full(n, -1, dtype=int)
        for i, name in enumerate(self.links):
            j = by_child.get(name)
            if j is None:
                raise StructureError(f"link '{name}' is not connected to the tree")
            if j.parent_link != WORLD:
                if j.parent_link not in self._link_index:
                    raise StructureError(f"joint '{j.name}' has unknown parent "
                                         f"'{j.parent_link}'")
                p = self._link_index[j.parent_link]
                if p >= i:
                    raise StructureError("links are not topologically ordered")
                self._parent[i] = p
            origins[i] = j.origin
            self._axis[i] = j.axis
            if j.kind in _REVOLUTE_KINDS:
                self._revolute[i] = 1.0
            elif j.kind in _PRISMATIC_KINDS:
                self._prismatic[i] = 1.0
            if j.movable:
                self._dof[i] = self.dof_index[j.name]

        # each link's local 4x4 pose (origin, then motion) is the sum of five
        # fixed terms weighted by (cos theta, sin theta, 1 - cos theta, d, 1):
        # R, R K and R a a^T as rotations, R a as a shift, and the origin's
        # own shift with the homogeneous 1 (R the origin rotation, K v = a x v)
        rot = origins[:, :3, :3]
        basis = np.zeros((n, 5, 4, 4))
        basis[:, 0, :3, :3] = rot
        basis[:, 1, :3, :3] = rot @ (self._axis @ _SKEW).reshape(n, 3, 3)
        basis[:, 2, :3, :3] = rot @ (self._axis[:, :, None] * self._axis[:, None, :])
        basis[:, 3, :3, 3] = (rot @ self._axis[:, :, None])[:, :, 0]
        basis[:, 4, :, 3] = origins[:, :, 3]
        self._local_basis = basis.reshape(n, 5, 16)
        # the (child, parent) pairs the FK link loop walks, roots left out
        self._child_parent = [(i, p) for i, p in enumerate(self._parent.tolist()) if p >= 0]
        # per-DoF Jacobian tables: the joint axis in its child frame, and
        # 1.0 / 0.0 masks for a revolute / prismatic DoF, shaped to scale it
        self._dof_axis = self._axis[self._dof_child][:, :, None]
        self._dof_revolute = self._revolute[self._dof_child][:, None, None]
        self._dof_prismatic = self._prismatic[self._dof_child][:, None, None]

        # dofs on the root->link path, as a boolean mask per link
        self._path_mask = np.zeros((n, self.n_dof), dtype=bool)
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                self._path_mask[i] = self._path_mask[p]
            if self._dof[i] >= 0:
                self._path_mask[i, self._dof[i]] = True

    def with_clouds(self, canonical_clouds: dict[str, np.ndarray]) -> "KinematicModel":
        """Copy sharing this model's tables, with canonical clouds attached in
        ``links`` order (the row order of ``cloud_fk``) whatever the dict's order."""
        for link in canonical_clouds:
            if link not in self._link_index:
                raise ContractError(f"cloud for unknown link '{link}'")
        model = copy.copy(self)
        model.canonical_clouds = {k: np.ascontiguousarray(canonical_clouds[k], dtype=float)
                                  for k in self.links if k in canonical_clouds}
        return model

    def parent_link(self, link: str) -> str | None:
        """Parent link name, or None when the parent is the world frame."""
        i = self._require_link(link)
        p = self._parent[i]
        return self.links[p] if p >= 0 else None

    def parent_joint(self, link: str) -> JointSpec:
        self._require_link(link)
        return self._joint_by_child[link]

    def _require_link(self, link: str) -> int:
        try:
            return self._link_index[link]
        except KeyError:
            raise ContractError(f"unknown link '{link}'") from None


def _text(el, key: str, what: str) -> str:
    """Required string attribute ``key`` of the element ``what`` names."""
    value = el.attrib.get(key)
    if value is None:
        raise UrdfError(f"{what} has no '{key}' attribute")
    return value


def _numbers(el, key: str, count: int, what: str, default=None) -> list[float]:
    """``count`` finite floats from attribute ``key``; ``default`` when it is
    absent, or UrdfError naming ``what`` and ``key`` when no default is given."""
    if key not in el.attrib and default is not None:
        return default
    raw = _text(el, key, what)
    try:
        values = [float(v) for v in raw.split()]
    except ValueError:
        values = []
    if len(values) != count or not all(math.isfinite(v) for v in values):
        raise UrdfError(f"{what} '{key}' must be {count} finite number(s), got {raw!r}")
    return values


def _parse_origin(elem, what: str) -> np.ndarray:
    xyz = rpy = [0.0, 0.0, 0.0]
    if elem is not None:
        xyz = _numbers(elem, "xyz", 3, what, xyz)
        rpy = _numbers(elem, "rpy", 3, what, rpy)
    t = np.eye(4)
    t[:3, :3] = matrix_from_rpy(*rpy)
    t[:3, 3] = xyz
    return t


def _translation(offset) -> np.ndarray:
    t = np.eye(4)
    t[:3, 3] = offset
    return t


def _virtual_wrist_joints(root_link: str) -> tuple[list[JointSpec], list[str], dict]:
    """Six wrist joints chained world -> root.

    Chain order is x, y, z, yaw, pitch, roll so the composed rotation is
    Rz(yaw) @ Ry(pitch) @ Rx(roll); configuration indices stay in
    (x, y, z, roll, pitch, yaw) order.
    """
    chain = [
        ("virtual_wrist_x", VIRTUAL_PRISMATIC, "x", 0),
        ("virtual_wrist_y", VIRTUAL_PRISMATIC, "y", 1),
        ("virtual_wrist_z", VIRTUAL_PRISMATIC, "z", 2),
        ("virtual_wrist_yaw", VIRTUAL_REVOLUTE, "z", 5),
        ("virtual_wrist_pitch", VIRTUAL_REVOLUTE, "y", 4),
        ("virtual_wrist_roll", VIRTUAL_REVOLUTE, "x", 3),
    ]
    joints = []
    inter_links = []
    dof_index = {}
    parent = WORLD
    for pos, (name, kind, axis, dof) in enumerate(chain):
        child = f"virtual_link_{name.rsplit('_', 1)[-1]}" if pos < 5 else root_link
        if pos < 5:
            inter_links.append(child)
        limit = (VIRTUAL_TRANSLATION_LIMIT if kind == VIRTUAL_PRISMATIC
                 else VIRTUAL_ROTATION_LIMIT)
        joints.append(JointSpec(name=name, kind=kind, axis=_AXES[axis].copy(),
                                origin=np.eye(4), limits=(-limit, limit),
                                parent_link=parent, child_link=child))
        dof_index[name] = dof
        parent = child
    return joints, inter_links, dof_index


def load_model(urdf_text: str, *, virtual_tip_extension_length: float = 0.02) -> KinematicModel:
    """Parse URDF XML text into an augmented kinematic model.

    Adds the six virtual wrist joints in front of the URDF root link and a
    fixed tip-extension link after every URDF leaf link, offset by
    ``virtual_tip_extension_length`` along the parent's local +x axis.

    Raises
    ------
    UrdfError
        Malformed XML, where the message includes the offending line number,
        or a missing, non-numeric or non-finite attribute, where it names the
        link or joint and the attribute.
    StructureError
        Kinematic loops, multiple roots, missing limits on movable joints,
        unsupported joint types.
    """
    try:
        root = ET.fromstring(urdf_text)
    except ET.ParseError as exc:
        line, col = exc.position
        raise UrdfError(f"URDF parse error at line {line}, column {col}: "
                        f"{exc.msg if hasattr(exc, 'msg') else exc}") from exc

    link_names = [_text(el, "name", f"link element {i + 1}")
                  for i, el in enumerate(root.findall("link"))]
    if len(set(link_names)) != len(link_names):
        raise StructureError("duplicate link names in URDF")
    if not link_names:
        raise StructureError("URDF defines no links")
    link_set = set(link_names)

    urdf_joints: list[JointSpec] = []
    for i, el in enumerate(root.findall("joint")):
        name = _text(el, "name", f"joint element {i + 1}")
        kind = _text(el, "type", f"joint '{name}'")
        parent_el = el.find("parent")
        child_el = el.find("child")
        if parent_el is None or child_el is None:
            raise StructureError(f"joint '{name}' missing parent or child")
        parent = _text(parent_el, "link", f"joint '{name}' parent")
        child = _text(child_el, "link", f"joint '{name}' child")
        for link in (parent, child):
            if link not in link_set:
                raise StructureError(f"joint '{name}' references unknown link '{link}'")
        origin = _parse_origin(el.find("origin"), f"joint '{name}' origin")

        if kind == "continuous":
            # no URDF limits by definition; treated as a full-turn revolute
            kind = REVOLUTE
            limits = (-math.pi, math.pi)
        elif kind in (REVOLUTE, PRISMATIC):
            limit_el = el.find("limit")
            if limit_el is None:
                raise StructureError(f"movable joint '{name}' has no limits")
            limits = tuple(_numbers(limit_el, key, 1, f"joint '{name}' limit")[0]
                           for key in ("lower", "upper"))
            if limits[0] > limits[1]:
                raise StructureError(f"joint '{name}' has lower limit above upper")
        elif kind == FIXED:
            limits = (0.0, 0.0)
        else:
            raise StructureError(f"unsupported joint type '{kind}' on '{name}'")

        if kind == FIXED:
            axis = np.zeros(3)
        else:
            axis_el = el.find("axis")
            axis = np.array([1.0, 0.0, 0.0] if axis_el is None
                            else _numbers(axis_el, "xyz", 3, f"joint '{name}' axis"))
            norm = np.linalg.norm(axis)
            if norm < 1e-12:
                raise StructureError(f"joint '{name}' has zero axis")
            axis = axis / norm

        urdf_joints.append(JointSpec(name=name, kind=kind, axis=axis, origin=origin,
                                     limits=limits, parent_link=parent, child_link=child))

    children_of: dict[str, list[JointSpec]] = {l: [] for l in link_names}
    child_links = set()
    for j in urdf_joints:
        children_of[j.parent_link].append(j)
        if j.child_link in child_links:
            raise StructureError(f"link '{j.child_link}' has two parent joints "
                                 "(kinematic loop)")
        child_links.add(j.child_link)

    roots = [l for l in link_names if l not in child_links]
    if len(roots) != 1:
        raise StructureError(f"expected a single root link, found {len(roots)}: {roots}")
    urdf_root = roots[0]

    # breadth-first order over the URDF tree, joints in document order
    ordered_links = []
    frontier = [urdf_root]
    while frontier:
        link = frontier.pop(0)
        ordered_links.append(link)
        frontier.extend(j.child_link for j in children_of[link])
    if len(ordered_links) != len(link_names):
        unreachable = sorted(link_set - set(ordered_links))
        raise StructureError(f"links not reachable from root '{urdf_root}': {unreachable}")

    wrist_joints, inter_links, dof_index = _virtual_wrist_joints(urdf_root)
    reserved = set(inter_links) | {WORLD}
    clash = reserved & link_set
    if clash:
        raise StructureError(f"URDF link names collide with virtual frames: {sorted(clash)}")

    next_dof = 6
    for j in urdf_joints:
        if j.movable:
            dof_index[j.name] = next_dof
            next_dof += 1

    leaves = [l for l in ordered_links if not children_of[l]]
    tip_joints = []
    tip_links = []
    for leaf in leaves:
        tip = f"{leaf}_tip_ext"
        if tip in link_set or tip in reserved:
            raise StructureError(f"virtual tip link name '{tip}' collides with URDF link")
        tip_joints.append(JointSpec(
            name=f"{leaf}_tip_ext_joint", kind=FIXED, axis=np.zeros(3),
            origin=_translation([virtual_tip_extension_length, 0.0, 0.0]),
            limits=(0.0, 0.0), parent_link=leaf, child_link=tip))
        tip_links.append(tip)

    all_links = inter_links + ordered_links + tip_links
    all_joints = wrist_joints + urdf_joints + tip_joints
    return KinematicModel(all_links, all_joints, dof_index, tip_links)


def as_config(model: KinematicModel, q) -> np.ndarray:
    """Validate and normalize a configuration vector."""
    q = np.asarray(q, dtype=float)
    if q.shape != (model.n_dof,):
        raise ContractError(f"configuration has shape {q.shape}, "
                            f"expected ({model.n_dof},)")
    if not np.all(np.isfinite(q)):
        raise ContractError("configuration contains non-finite entries")
    return q


def _fk_arrays(model: KinematicModel, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """World rotation (L,3,3) and translation (L,3) per link, in link order.

    Each link is its parent frame, then its joint origin, then its joint
    motion, composed as 4x4 homogeneous transforms (the product of
    exponentials, Murray, Li & Sastry 1994, ch. 2-3).  The motion is the
    rotation exp(theta K) = cos(theta) I + sin(theta) K
    + (1 - cos(theta)) a a^T and the shift d a along the unit axis a, so
    every link's local pose (origin, then motion) is its weights
    (cos, sin, 1 - cos, d, 1) times the model's per-link basis, all in one
    batched product.  The model keeps 1.0 / 0.0 revolute and prismatic masks
    per link, so theta and d are the joint value times a mask, and the list
    of (child, parent) pairs the link loop walks: one 4x4 product per link,
    on a list of local poses stacked once at the end.

    ``rot`` and ``trans`` are views of one (L,4,4) array made by each call,
    so a later call never changes them; callers must not write to them.
    """
    value = q[model._dof]  # fixed links (_dof = -1) read q's last entry; masked out next
    theta = value * model._revolute
    weights = np.empty((len(value), 1, 5))
    np.cos(theta, out=weights[:, 0, 0])
    np.sin(theta, out=weights[:, 0, 1])
    np.subtract(1.0, weights[:, 0, 0], out=weights[:, 0, 2])
    np.multiply(value, model._prismatic, out=weights[:, 0, 3])
    weights[:, 0, 4] = 1.0
    local = list((weights @ model._local_basis).reshape(-1, 4, 4))
    for i, p in model._child_parent:  # a root's world pose is its local pose
        local[i] = local[p].dot(local[i])  # ndarray.dot: less call overhead than @ at 4x4
    pose = np.array(local)
    return pose[:, :3, :3], pose[:, :3, 3]


def forward_kinematics(model: KinematicModel, q) -> LinkPoseSet:
    """World pose of every link at configuration q.

    Pure and deterministic: identical inputs give bitwise-identical poses.
    Each call's per-link arrays are views of one array made by that call.
    """
    q = as_config(model, q)
    rot, trans = _fk_arrays(model, q)
    return LinkPoseSet(dict(zip(model.links, rot)), dict(zip(model.links, trans)))


def _jacobians(model: KinematicModel, rot: np.ndarray, trans: np.ndarray,
               link_indices: np.ndarray) -> np.ndarray:
    """Stacked origin Jacobians (len(link_indices), 3, n_dof).

    A revolute DoF with world axis a anchored at p moves a point x by
    a x (x - p) = [K(a) | -a x p] [x | 1]^T, a prismatic one by
    [0 | a] [x | 1]^T.  The (3, 4) blocks of all DoFs form one
    (3 n_dof, 4) table, so every column of every link is one GEMM with the
    homogeneous positions; columns of DoFs off the root->link path are then
    zeroed.  The model keeps each DoF's axis in its child frame and 1.0 / 0.0
    revolute and prismatic masks, so the world axes are one batched product
    rot[child] @ axis and the anchors' cross products K(a) @ p another.
    """
    child = model._dof_child  # each joint's axis and anchor live in its child frame
    n = len(child)
    axis = rot[child] @ model._dof_axis  # world axes, (n, 3, 1)
    skew = ((axis * model._dof_revolute)[:, :, 0] @ _SKEW).reshape(n, 3, 3)  # zero when prismatic
    table = np.empty((3, n, 4))
    table[:, :, :3] = skew.transpose(1, 0, 2)
    table[:, :, 3] = (axis * model._dof_prismatic - skew @ trans[child][:, :, None])[:, :, 0].T
    points = np.ones((len(link_indices), 4))
    points[:, :3] = trans[link_indices]
    jac = (points @ table.reshape(3 * n, 4).T).reshape(-1, 3, n)
    jac *= model._path_mask[link_indices][:, None, :]
    return jac


def link_origin_jacobian(model: KinematicModel, q, link_id: str) -> np.ndarray:
    """Analytic 3 x n_dof Jacobian of a link origin translation.

    Columns of joints not on the root-to-link path are zero.
    """
    idx = model._require_link(link_id)
    q = as_config(model, q)
    rot, trans = _fk_arrays(model, q)
    return _jacobians(model, rot, trans, np.array([idx]))[0]


def clamp_to_limits(model: KinematicModel, q) -> np.ndarray:
    """Elementwise clamp of q into [lower, upper]; idempotent."""
    q = as_config(model, q)
    return np.clip(q, model.lower, model.upper)


def in_limits(model: KinematicModel, q, tol: float = 0.0) -> bool:
    q = as_config(model, q)
    return bool(np.all(q >= model.lower - tol) and np.all(q <= model.upper + tol))


def model_summary(model: KinematicModel) -> dict:
    """JSON-ready structural summary: links, joints with limits, n_dof."""
    joints = []
    for j in model.joints:
        joints.append({
            "name": j.name,
            "kind": j.kind,
            "limits": list(j.limits) if j.movable else None,
        })
    return {"links": list(model.links), "joints": joints, "n_dof": model.n_dof}
