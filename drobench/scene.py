"""Benchmark inputs: the two hands, the object, the grasps, and an FK of our own.

Everything the workloads feed to drokit is built here, so the workloads do
not move when the test suite's hands or drokit's random stream labels change.
The forward kinematics and the distance matrices in this file are written
from the hand description alone; the output checks use them as the
reference that drokit's results are compared against.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

TIP_LENGTH = 0.02         # virtual tip extension along the leaf link's +x
WRIST_RANGE = 0.3         # grasp wrist position is uniform in [-0.3, 0.3] m
OBJECT_RADIUS = 0.04      # icosphere radius, m
OBJECT_SUBDIVISIONS = 2   # 162 vertices, 320 faces
CLOUD_SEED = 7            # SamplingConfig seed for the canonical and object clouds

_AXES = {"x": "1 0 0", "y": "0 1 0", "z": "0 0 1"}

# outward-wound triangles of a box whose corners are numbered as in _box
_BOX_FACES = np.array([
    [0, 2, 1], [0, 3, 2], [4, 5, 6], [4, 6, 7], [0, 1, 5], [0, 5, 4],
    [2, 3, 7], [2, 7, 6], [1, 2, 6], [1, 6, 5], [3, 0, 4], [3, 4, 7],
], dtype=np.int64)


@dataclass(frozen=True)
class Joint:
    """A revolute joint; its origin has no rotation, its axis is x, y or z."""

    parent: str
    child: str
    xyz: tuple[float, float, float]
    axis: str
    lower: float
    upper: float


@dataclass(frozen=True)
class Hand:
    """Root link, joints in document order (parents first), one box per link.

    ``boxes`` maps a link to (size, center) in the link frame.
    """

    name: str
    root: str
    joints: tuple[Joint, ...]
    boxes: dict

    @property
    def n_dof(self) -> int:
        return 6 + len(self.joints)

    @property
    def lower(self) -> np.ndarray:
        return np.array([-10.0] * 3 + [-math.pi] * 3 + [j.lower for j in self.joints])

    @property
    def upper(self) -> np.ndarray:
        return np.array([10.0] * 3 + [math.pi] * 3 + [j.upper for j in self.joints])

    @property
    def leaves(self) -> list[str]:
        parents = {j.parent for j in self.joints}
        return [j.child for j in self.joints if j.child not in parents]

    def urdf(self) -> str:
        lines = ['<?xml version="1.0"?>', f'<robot name="{self.name}">',
                 f'  <link name="{self.root}"/>']
        for j in self.joints:
            x, y, z = j.xyz
            lines += [f'  <link name="{j.child}"/>',
                      f'  <joint name="{j.child}_joint" type="revolute">',
                      f'    <parent link="{j.parent}"/>',
                      f'    <child link="{j.child}"/>',
                      f'    <origin xyz="{x!r} {y!r} {z!r}" rpy="0 0 0"/>',
                      f'    <axis xyz="{_AXES[j.axis]}"/>',
                      f'    <limit lower="{j.lower!r}" upper="{j.upper!r}" '
                      'effort="10" velocity="1"/>',
                      '  </joint>']
        lines.append("</robot>")
        return "\n".join(lines)

    def meshes(self, mesh_type) -> dict:
        """One box mesh per link, built with drokit's ``TriangleMesh``."""
        return {link: mesh_type(_box(size, center), _BOX_FACES.copy())
                for link, (size, center) in self.boxes.items()}


def _box(size, center) -> np.ndarray:
    (sx, sy, sz), (cx, cy, cz) = size, center
    hx, hy, hz = sx / 2.0, sy / 2.0, sz / 2.0
    return np.array([
        [cx - hx, cy - hy, cz - hz], [cx + hx, cy - hy, cz - hz],
        [cx + hx, cy + hy, cz - hz], [cx - hx, cy + hy, cz - hz],
        [cx - hx, cy - hy, cz + hz], [cx + hx, cy - hy, cz + hz],
        [cx + hx, cy + hy, cz + hz], [cx - hx, cy + hy, cz + hz],
    ])


def three_finger_hand() -> Hand:
    """Palm and three fingers of three curl segments: 9 actuated, 15 DoF."""
    joints = []
    boxes = {"palm": ((0.06, 0.09, 0.02), (0.03, 0.0, 0.0))}
    for f, y0 in enumerate((-0.03, 0.0, 0.03)):
        parent, xyz = "palm", (0.06, y0, 0.0)
        for s in range(3):
            link = f"f{f}_seg{s}"
            joints.append(Joint(parent, link, xyz, "y", -0.35, 1.7))
            boxes[link] = ((0.035, 0.014, 0.012), (0.0175, 0.0, 0.0))
            parent, xyz = link, (0.035, 0.0, 0.0)
    return Hand("threefinger", "palm", tuple(joints), boxes)


def five_finger_hand() -> Hand:
    """Palm, four fingers (abduction + three curls) and a six-joint thumb:
    22 actuated, 28 DoF."""
    joints = []
    boxes = {"palm": ((0.09, 0.085, 0.025), (0.045, 0.0, 0.0))}
    for f, y0 in enumerate((-0.033, -0.011, 0.011, 0.033)):
        parent, xyz = "palm", (0.09, y0, 0.0)
        segs = [(f"f{f}_knuckle", "z", -0.5, 0.5)]
        segs += [(f"f{f}_seg{s}", "y", -0.35, 1.7) for s in range(1, 4)]
        for link, axis, lo, hi in segs:
            joints.append(Joint(parent, link, xyz, axis, lo, hi))
            boxes[link] = ((0.028, 0.015, 0.015), (0.014, 0.0, 0.0))
            parent, xyz = link, (0.028, 0.0, 0.0)
    thumb = [("z", -1.0, 1.0), ("y", -0.4, 1.4), ("x", -0.7, 0.7),
             ("y", -0.4, 1.5), ("z", -0.5, 0.5), ("y", -0.4, 1.6)]
    parent, xyz = "palm", (0.02, -0.0425, 0.0)
    for s, (axis, lo, hi) in enumerate(thumb):
        link = f"thumb_seg{s}"
        joints.append(Joint(parent, link, xyz, axis, lo, hi))
        boxes[link] = ((0.024, 0.016, 0.014), (0.012, 0.0, 0.0))
        parent, xyz = link, (0.024, 0.0, 0.0)
    return Hand("fivefinger", "palm", tuple(joints), boxes)


HANDS = (three_finger_hand(), five_finger_hand())


def icosphere(radius: float = OBJECT_RADIUS, subdivisions: int = OBJECT_SUBDIVISIONS):
    """Vertices and triangles of a subdivided icosahedron projected on a sphere."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [np.array(v, dtype=float) / math.sqrt(1.0 + phi * phi) for v in (
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1))]
    faces = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
             (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
             (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
             (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)]
    for _ in range(subdivisions):
        mid: dict[tuple[int, int], int] = {}

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in mid:
                v = verts[a] + verts[b]
                verts.append(v / np.linalg.norm(v))
                mid[key] = len(verts) - 1
            return mid[key]

        split = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            split += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = split
    return np.array(verts) * radius, np.array(faces, dtype=np.int64)


def grasp_rng(seed: int, stream: int) -> np.random.Generator:
    """The benchmark's own generator for one (seed, stream) pair."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


def random_grasp(hand: Hand, rng: np.random.Generator) -> np.ndarray:
    """Wrist within +-0.3 m, roll/pitch/yaw uniform, fingers uniform in limits."""
    q = np.empty(hand.n_dof)
    q[:3] = rng.uniform(-WRIST_RANGE, WRIST_RANGE, 3)
    q[3:6] = rng.uniform(-math.pi, math.pi, 3)
    q[6:] = rng.uniform(hand.lower[6:], hand.upper[6:])
    return q


def mid_range_init(hand: Hand, wrist) -> np.ndarray:
    """Solver start: the given wrist, every finger joint at mid-range."""
    q = 0.5 * (hand.lower + hand.upper)
    q[:6] = wrist
    return q


def _rot(axis: str, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    if axis == "x":
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    if axis == "y":
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def link_frames(hand: Hand, q) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """World (rotation, origin) of the root, every joint child and every tip.

    The wrist is a translation then Rz(yaw) Ry(pitch) Rx(roll); tips are
    named ``<leaf>:tip`` and sit TIP_LENGTH along the leaf's +x axis.
    """
    x, y, z, roll, pitch, yaw = q[:6]
    frames = {hand.root: (_rot("z", yaw) @ _rot("y", pitch) @ _rot("x", roll),
                          np.array([x, y, z], dtype=float))}
    for j, angle in zip(hand.joints, q[6:]):
        rot, org = frames[j.parent]
        frames[j.child] = (rot @ _rot(j.axis, angle), rot @ np.asarray(j.xyz) + org)
    for leaf in hand.leaves:
        rot, org = frames[leaf]
        frames[f"{leaf}:tip"] = (rot, rot @ np.array([TIP_LENGTH, 0.0, 0.0]) + org)
    return frames


def link_origins(hand: Hand, q) -> np.ndarray:
    """(links + tips, 3) origins in a fixed order, for link-origin errors."""
    return np.array([org for _, org in link_frames(hand, q).values()])


def pose_cloud(hand: Hand, q, canonical: dict[str, np.ndarray]) -> np.ndarray:
    """Canonical per-link points placed at q, stacked in ``canonical`` order."""
    frames = link_frames(hand, q)
    return np.vstack([pts @ frames[link][0].T + frames[link][1]
                      for link, pts in canonical.items()])


def distances(robot: np.ndarray, obj: np.ndarray, rows: int = 64) -> np.ndarray:
    """Robot-object distance matrix, summed per coordinate in row blocks so
    that no (rows, cols, 3) temporary is made."""
    out = np.empty((len(robot), len(obj)))
    for i0 in range(0, len(robot), rows):
        r = robot[i0:i0 + rows]
        sq = (r[:, 0, None] - obj[None, :, 0]) ** 2
        sq += (r[:, 1, None] - obj[None, :, 1]) ** 2
        sq += (r[:, 2, None] - obj[None, :, 2]) ** 2
        out[i0:i0 + rows] = np.sqrt(sq)
    return out


def dromx_bytes(matrix: np.ndarray) -> bytes:
    """DROMX version 1, f64: magic, u32 version, rows, cols, u8 dtype, payload."""
    rows, cols = matrix.shape
    head = b"DROMX\x00" + struct.pack("<IIIB", 1, rows, cols, 0)
    return head + np.ascontiguousarray(matrix, dtype="<f8").tobytes()
