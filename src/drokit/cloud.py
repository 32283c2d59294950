"""Point-cloud sampling and configuration mapping.

Canonical robot clouds are sampled once per (model, seed) and reused; every
stochastic routine here derives its randomness from named substreams of the
master seed (see :mod:`drokit.rng`), so equal seeds give bitwise-equal
outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import ContractError, DataError, _require_integer, _require_nonnegative
from .kinematics import KinematicModel, forward_kinematics
from .rng import substream

# Rigid registration needs at least 3 correspondences per link; reserving one
# more keeps the cross-covariance well-conditioned for thin links.
MIN_POINTS_PER_LINK = 4


def _points_of(points, problem: str, cloud: str | None = None) -> np.ndarray:
    """The (N, 3) float array of a PointCloud or array-like, else ContractError
    ``f"{problem}, got {shape}"``; given ``cloud``, its name, the coordinates
    must also be finite (without it only array metadata is read)."""
    pts = points.points if isinstance(points, PointCloud) else np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ContractError(f"{problem}, got {pts.shape}")
    if cloud is not None and not np.isfinite(pts).all():
        raise ContractError(f"{cloud} contains non-finite coordinates")
    return pts


@dataclass
class PointCloud:
    """N x 3 point array with optional per-point link labels.

    Labeled clouds keep label segments contiguous, ordered by model link
    order, so point index i refers to the same material point across
    configurations.
    """

    points: np.ndarray
    labels: list[str] | None = None

    def __post_init__(self):
        self.points = np.ascontiguousarray(
            _points_of(self.points, "points must be (N, 3)", "point cloud"))
        if self.labels is not None:
            self.labels = list(self.labels)
            if len(self.labels) != len(self.points):
                raise ContractError("labels length does not match point count")

    def __len__(self) -> int:
        return len(self.points)

    def segments(self) -> list[tuple[str, slice]]:
        """Contiguous (label, slice) runs in order of appearance."""
        if self.labels is None:
            raise ContractError("cloud has no labels")
        runs = []
        start = 0
        for label, group in groupby(self.labels):
            stop = start + len(list(group))
            runs.append((label, slice(start, stop)))
            start = stop
        seen = [label for label, _ in runs]
        if len(set(seen)) != len(seen):
            raise ContractError("label segments are not contiguous")
        return runs

    def by_link(self) -> dict[str, np.ndarray]:
        return {label: self.points[sl] for label, sl in self.segments()}


@dataclass
class TriangleMesh:
    """Triangle soup: vertices (V,3) and vertex-index triangles (T,3)."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(
            _points_of(self.vertices, "vertices must be (V, 3)", "vertices: mesh"))
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ContractError(f"triangles must be (T, 3), got {self.triangles.shape}")
        if len(self.triangles) and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.vertices)):
            raise ContractError("triangle indices out of vertex range")

    def corners(self) -> np.ndarray:
        """(T, 3, 3) corner coordinates."""
        return self.vertices[self.triangles]

    def areas(self) -> np.ndarray:
        c = self.corners()
        cross = np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])
        return 0.5 * np.linalg.norm(cross, axis=1)


@dataclass
class SamplingConfig:
    """Counts and noise parameters for robot/object cloud sampling."""

    n_per_link: int = 512
    n_total: int = 512
    n_object: int = 512
    object_noise_sigma: float = 0.002
    object_pool: int = 65536
    seed: int = 0

    def __post_init__(self):
        for name in ("n_per_link", "n_total", "n_object", "object_pool"):
            _require_integer(name, getattr(self, name), 1)
        _require_integer("seed", self.seed)
        _require_nonnegative("object_noise_sigma", self.object_noise_sigma)


def load_obj(text: str) -> TriangleMesh:
    """Parse OBJ text: vertices and triangular faces only.

    Zero-area faces are dropped at load time; faces with more than three
    vertices are rejected.
    """
    vertices = []
    faces = []
    face_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            if len(parts) < 4:
                raise DataError(f"OBJ line {lineno}: vertex needs 3 coordinates")
            try:
                vertex = [float(v) for v in parts[1:4]]
            except ValueError:
                vertex = [math.nan]
            if not all(math.isfinite(v) for v in vertex):
                raise DataError(f"OBJ line {lineno}: vertex coordinates must be "
                                f"finite numbers, got {parts[1:4]}")
            vertices.append(vertex)
        elif tag == "f":
            idx = parts[1:]
            if len(idx) != 3:
                raise DataError(f"OBJ line {lineno}: only triangular faces supported")
            face = []
            for token in idx:
                v = token.split("/")[0]
                try:
                    i = int(v)
                except ValueError:
                    raise DataError(f"OBJ line {lineno}: face index must be an "
                                    f"integer, got {v!r}") from None
                if i <= 0:
                    raise DataError(f"OBJ line {lineno}: indices must be positive")
                face.append(i - 1)
            faces.append(face)
            face_lines.append(lineno)
        # other tags (vn, vt, o, g, s, usemtl, mtllib) are ignored
    if not vertices:
        raise DataError("OBJ has no vertices")
    for lineno, face in zip(face_lines, faces):
        if max(face) >= len(vertices):
            raise DataError(f"OBJ line {lineno}: face index {max(face) + 1} exceeds "
                            f"the {len(vertices)} vertices")
    mesh = TriangleMesh(np.array(vertices), np.array(faces, dtype=np.int64).reshape(-1, 3))
    if len(mesh.triangles):
        areas = mesh.areas()
        scale = max(float(np.ptp(mesh.vertices)), 1.0)
        keep = areas > 1e-12 * scale * scale
        mesh = TriangleMesh(mesh.vertices, mesh.triangles[keep])
    return mesh


def save_obj(mesh: TriangleMesh, path) -> None:
    lines = ["# OBJ"]
    for v in mesh.vertices:
        lines.append(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    for t in mesh.triangles:
        lines.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _surface_points(mesh: TriangleMesh, draws: np.ndarray) -> np.ndarray:
    """Area-weighted surface points for (3, n) uniform draws: the rows pick
    the triangle, u and v.

    Each point depends on its own column only, so evaluating a subset of
    columns gives bitwise the same points as evaluating all of them.
    """
    if len(mesh.triangles) == 0:
        raise DataError("mesh has no triangles to sample")
    with np.errstate(over="ignore", invalid="ignore"):
        areas = mesh.areas()
        total = areas.sum()
    if not math.isfinite(total):
        raise DataError(f"mesh total surface area is not finite, got {total}")
    if total <= 0.0:
        raise DataError("mesh has zero total surface area")
    cdf = np.cumsum(areas) / total
    pick = np.searchsorted(cdf, draws[0], side="right")
    pick = np.minimum(pick, len(areas) - 1)
    flip = draws[1] + draws[2] > 1.0
    u = np.where(flip, 1.0 - draws[1], draws[1])
    v = np.where(flip, 1.0 - draws[2], draws[2])
    corners = mesh.vertices[mesh.triangles[pick]]
    return (corners[:, 0]
            + u[:, None] * (corners[:, 1] - corners[:, 0])
            + v[:, None] * (corners[:, 2] - corners[:, 0]))


def sample_mesh_surface(mesh: TriangleMesh, n: int, rng: np.random.Generator) -> np.ndarray:
    """Area-weighted uniform surface samples with barycentric jitter."""
    _require_integer("n", n, 0)
    return _surface_points(mesh, rng.random((3, n)))


def _greedy_fps(points: np.ndarray, k: int, initial: list[int]) -> list[int]:
    """Greedy max-min selection continuing from an initial index set.

    Each added index maximizes the minimum Euclidean distance to the chosen
    set; ties break to the lowest index.  Distances are
    ``sqrt((dx² + dy²) + dz²)`` with ``dx = point - pick``, the order
    ``np.linalg.norm`` sums in.  The sqrt stays: comparing squared distances
    could break a tie that only appears after rounding to a different index.

    The points are sorted once by x, and only a slab of the sorted copy is
    updated per pick.  When a pick's max-min distance is m, every point is
    already within m of the chosen set, and a point with ``|dx| >= m`` is
    at least m from the pick, so its minimum cannot change.  The slab's
    half-width is m widened by a relative margin (2⁻²⁰, far above the few
    roundings of a distance), by a few ulps of ``|x_pick| + m`` for the
    rounding of its bounds and of dx, and by an absolute floor (2⁻⁵⁰⁰, at
    which dx² is still a normal number); a point outside it computes a
    distance of at least m.  So every minimum, and so every pick, is
    bitwise that of a full update.

    ``argmax`` finds the first maximum in x order; if the maximum occurs
    again further on, the lowest input index among its occurrences is
    taken.  The initial indices update every point, keeping the minimum of
    the squared sums and rooting it once after them: a correctly rounded
    sqrt is monotone, so the root of a minimum is the minimum of the roots.
    """
    n = len(points)
    order = np.argsort(points[:, 0])
    pts = points.T.take(order, axis=1)
    xs = pts[0]
    dist = np.full(n, np.inf)
    diff = np.empty_like(pts)
    d = np.empty_like(dist)

    def update(pick, lo, hi, root=True):
        sq, dd = diff[:, lo:hi], d[lo:hi]
        np.subtract(pts[:, lo:hi], pick, out=sq)
        np.square(sq, out=sq)
        np.add(sq[0], sq[1], out=dd)
        np.add(dd, sq[2], out=dd)
        if root:
            np.sqrt(dd, out=dd)
        np.minimum(dist[lo:hi], dd, out=dist[lo:hi])

    chosen = list(initial)
    for i in chosen:
        update(points[i][:, None], 0, n, root=False)
    np.sqrt(dist, out=dist)
    while len(chosen) < k:
        j = int(dist.argmax())
        m = float(dist[j])
        rest = dist[j + 1:]
        if rest.size and rest[rest.argmax()] == m:
            tied = np.flatnonzero(dist == m)
            j = int(tied[np.argmin(order[tied])])
        chosen.append(int(order[j]))
        x = float(xs[j])
        half = m * (1.0 + 2.0 ** -20) + 4.0 * math.ulp(abs(x) + m) + 2.0 ** -500
        update(pts[:, j:j + 1], int(xs.searchsorted(x - half, side="left")),
               int(xs.searchsorted(x + half, side="right")))
    return chosen


def farthest_point_sampling(points: np.ndarray, k: int, seed: int) -> list[int]:
    """Indices of k farthest-point samples; the start index is drawn
    uniformly from the seeded ``fps`` stream.

    Each next index is the point farthest from those already chosen, the
    lowest index among equally far points.  Each pick updates only the
    points whose x lies within its distance of the pick's x (plus a
    rounding margin): no other point can come nearer to the chosen set, so
    the indices are bitwise those of updating every point at every pick."""
    points = _points_of(points, "points must be (N, 3)", "points: point cloud")
    n = len(points)
    _require_integer("k", k, 1)
    _require_integer("seed", seed)
    if k > n:
        raise ContractError(f"k={k} out of range [1, {n}]")
    start = int(substream(seed, "fps").integers(n))
    return _greedy_fps(points, k, [start])


def sample_link_clouds(model: KinematicModel, meshes: dict[str, TriangleMesh],
                       cfg: SamplingConfig) -> dict[str, np.ndarray]:
    """Canonical per-link clouds: per-link surface sampling, then global
    farthest-point downsampling to ``cfg.n_total``.

    Every geometric link keeps at least MIN_POINTS_PER_LINK points so that
    per-link rigid registration stays well-posed.  Output is keyed in model
    link order; points within a link keep their sampling order.
    """
    geo_links = [l for l in model.links if l in meshes]
    if not geo_links:
        raise DataError("no link has a mesh")
    unknown = set(meshes) - set(model.links)
    if unknown:
        raise ContractError(f"meshes given for unknown links: {sorted(unknown)}")
    if cfg.n_total > cfg.n_per_link * len(geo_links):
        raise ContractError("n_total exceeds n_per_link * number of geometric links")
    reserve = min(MIN_POINTS_PER_LINK, cfg.n_per_link)
    if cfg.n_total < reserve * len(geo_links):
        raise ContractError(f"n_total={cfg.n_total} cannot reserve {reserve} "
                            f"points for each of {len(geo_links)} links")

    blocks = []
    for link in geo_links:
        mesh = meshes[link]
        if len(mesh.triangles) == 0:
            raise DataError(f"link '{link}' has an empty mesh")
        pts = sample_mesh_surface(mesh, cfg.n_per_link, substream(cfg.seed, f"link:{link}"))
        blocks.append(pts)
    allpts = np.vstack(blocks)

    # reserve a local farthest-point core per link, then fill globally
    initial = []
    for bi, link in enumerate(geo_links):
        base = bi * cfg.n_per_link
        local = _greedy_fps(blocks[bi], reserve, [0])
        initial.extend(base + i for i in local)
    chosen = _greedy_fps(allpts, cfg.n_total, initial)

    keep = np.sort(np.array(chosen))
    out: dict[str, np.ndarray] = {}
    for bi, link in enumerate(geo_links):
        base = bi * cfg.n_per_link
        sel = keep[(keep >= base) & (keep < base + cfg.n_per_link)]
        out[link] = allpts[sel]
    return out


def cloud_fk(model: KinematicModel, q, canonical: dict[str, np.ndarray]) -> PointCloud:
    """Map canonical per-link clouds through the link poses at q.

    Point order is stable across configurations: index i always names the
    same canonical point of the same link.
    """
    if not canonical:
        raise ContractError("canonical clouds are empty")
    known = set(model.links)
    for link in canonical:
        if link not in known:
            raise ContractError(f"canonical cloud for unknown link '{link}'")
    poses = forward_kinematics(model, q)
    rot, trans = poses.rotations, poses.translations
    parts = []
    labels = []
    for i, link in enumerate(model.links):
        if link not in canonical:
            continue
        pts = _points_of(canonical[link], f"canonical cloud for link '{link}' must be (N, 3)")
        parts.append(pts @ rot[i].T + trans[i])
        labels.extend([link] * len(pts))
    return PointCloud(np.vstack(parts), labels)


def sample_object_cloud(mesh: TriangleMesh, cfg: SamplingConfig) -> PointCloud:
    """Object cloud: draw ``n_object`` points without replacement from an
    ``object_pool``-sized surface pool, then add isotropic Gaussian noise.

    The whole pool is drawn, so the rng stream is the same as sampling it,
    but only the kept draws are turned into points."""
    if cfg.n_object > cfg.object_pool:
        raise ContractError("n_object exceeds object_pool")
    rng = substream(cfg.seed, "object")
    draws = rng.random((3, cfg.object_pool))
    pick = rng.choice(cfg.object_pool, size=cfg.n_object, replace=False)
    pts = _surface_points(mesh, draws[:, pick])
    if cfg.object_noise_sigma > 0.0:
        pts = pts + rng.normal(0.0, cfg.object_noise_sigma, size=pts.shape)
    return PointCloud(pts)


def partial_cloud(points: np.ndarray, seed: int) -> np.ndarray:
    """Keep the half of the cloud facing a random view direction.

    A point is drawn uniformly on the unit sphere; ``r`` is the direction
    from it to the origin.  Points score by the dot product of ``r`` with
    their unit direction from the cloud centroid; the larger half survives.
    """
    points = _points_of(points, "points must be (N, 3)", "points: point cloud")
    n = len(points)
    if n == 0 or n % 2 != 0:
        raise ContractError(f"partial_cloud needs an even, nonzero point count, got {n}")
    _require_integer("seed", seed)
    rng = substream(seed, "partial")
    v = rng.normal(size=3)
    norm = np.linalg.norm(v)
    while norm < 1e-12:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
    r = -v / norm

    centroid = points.mean(axis=0)
    d = points - centroid
    lens = np.linalg.norm(d, axis=1)
    safe = lens > 1e-15
    dirs = np.zeros_like(d)
    dirs[safe] = d[safe] / lens[safe, None]
    scores = dirs @ r

    order = np.argsort(-scores, kind="stable")
    keep = np.sort(order[: n // 2])
    return points[keep]
