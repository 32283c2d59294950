import itertools

import numpy as np
import pytest

from drokit import (ContractError, DataError, PointCloud, SamplingConfig,
                    cloud_fk, farthest_point_sampling, forward_kinematics,
                    load_model, load_obj, partial_cloud, sample_link_clouds,
                    sample_mesh_surface, sample_object_cloud, save_obj,
                    signed_distances, TriangleMesh)
from drokit.cloud import MIN_POINTS_PER_LINK
from drokit.rng import substream

import hands
from geometry import box_mesh, icosphere


def reference_fps(points, k, start):
    """Direct greedy max-min reference, scalar loops."""
    chosen = [start]
    while len(chosen) < k:
        best_idx, best_dist = None, -1.0
        for i in range(len(points)):
            d = min(np.linalg.norm(points[i] - points[c]) for c in chosen)
            if d > best_dist:
                best_dist, best_idx = d, i
        chosen.append(best_idx)
    return chosen


def norm_fps(points, k, initial):
    """The same greedy recurrence, vectorised with np.linalg.norm."""
    chosen = list(initial)
    dist = np.full(len(points), np.inf)
    for i in chosen:
        dist = np.minimum(dist, np.linalg.norm(points - points[i], axis=1))
    while len(chosen) < k:
        chosen.append(int(np.argmax(dist)))
        dist = np.minimum(dist, np.linalg.norm(points - points[chosen[-1]], axis=1))
    return chosen


def norm_link_clouds(model, meshes, cfg):
    """sample_link_clouds rebuilt from public parts and norm_fps."""
    links = [l for l in model.links if l in meshes]
    n = cfg.n_per_link
    blocks = [sample_mesh_surface(meshes[l], n, substream(cfg.seed, f"link:{l}"))
              for l in links]
    reserve = min(MIN_POINTS_PER_LINK, n)
    initial = [bi * n + i for bi, block in enumerate(blocks)
               for i in norm_fps(block, reserve, [0])]
    allpts = np.vstack(blocks)
    keep = np.sort(norm_fps(allpts, cfg.n_total, initial))
    return {l: allpts[keep[(keep >= bi * n) & (keep < (bi + 1) * n)]]
            for bi, l in enumerate(links)}


# ---------------------------------------------------------------- PointCloud

def test_cloud_label_length_checked():
    with pytest.raises(ContractError):
        PointCloud(np.zeros((3, 3)), labels=["a", "b"])


def test_cloud_rejects_non_finite():
    pts = np.zeros((2, 3))
    pts[1, 1] = np.nan
    with pytest.raises(ContractError):
        PointCloud(pts)


def test_segments_require_contiguous_labels():
    cloud = PointCloud(np.zeros((3, 3)), labels=["a", "b", "a"])
    with pytest.raises(ContractError):
        cloud.segments()


def reference_segments(labels):
    """Label runs found by comparing each label with its run's first."""
    runs = []
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            runs.append((labels[start], slice(start, i)))
            start = i
    seen = [label for label, _ in runs]
    if len(set(seen)) != len(seen):
        raise ContractError("label segments are not contiguous")
    return runs


def test_segments_match_reference_runs():
    rng = np.random.default_rng(21)
    cases = [[], ["a"], ["a"] * 9, ["a", "b", "a"]]
    for _ in range(40):
        runs = rng.integers(1, 6, size=rng.integers(1, 8))
        names = rng.choice(["a", "b", "c", "d", "e"], size=len(runs))
        cases.append([str(n) for n, r in zip(names, runs) for _ in range(r)])
    for labels in cases:
        cloud = PointCloud(np.zeros((len(labels), 3)), labels=labels)
        try:
            want = reference_segments(labels)
        except ContractError as err:
            with pytest.raises(ContractError, match=str(err)):
                cloud.segments()
        else:
            assert cloud.segments() == want


def test_by_link_groups_points():
    pts = np.arange(12, dtype=float).reshape(4, 3)
    cloud = PointCloud(pts, labels=["a", "a", "b", "b"])
    groups = cloud.by_link()
    assert list(groups) == ["a", "b"]
    assert np.array_equal(groups["a"], pts[:2])


def _arm():
    return load_model(hands.planar_two_link_arm())


@pytest.mark.parametrize("make, message", [
    (lambda: PointCloud(np.zeros((4, 2))), r"points must be \(N, 3\), got \(4, 2\)"),
    (lambda: PointCloud(np.zeros(3)), r"points must be \(N, 3\), got \(3,\)"),
    (lambda: PointCloud(np.zeros((2, 3))).segments(), "cloud has no labels"),
    (lambda: TriangleMesh(np.zeros((3, 2)), [[0, 1, 2]]), r"vertices must be \(V, 3\)"),
    (lambda: TriangleMesh(np.zeros((3, 3)), [0, 1, 2]), r"triangles must be \(T, 3\)"),
    (lambda: TriangleMesh(np.zeros((3, 3)), [[0, 1, 3]]), "triangle indices out of vertex range"),
    (lambda: TriangleMesh(np.zeros((3, 3)), [[0, 1, -1]]), "triangle indices out of vertex range"),
    (lambda: TriangleMesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, np.nan, 0]]), [[0, 1, 2]]),
     "vertices: mesh contains non-finite coordinates"),
    (lambda: TriangleMesh(np.array([[0.0, 0, 0], [np.inf, 0, 0], [0, 1, 0]]), [[0, 1, 2]]),
     "vertices: mesh contains non-finite coordinates"),
    (lambda: farthest_point_sampling(np.zeros((5, 2)), 2, 0),
     r"points must be \(N, 3\), got \(5, 2\)"),
    (lambda: farthest_point_sampling(np.full((4, 3), np.nan), 2, 0),
     "points: point cloud contains non-finite coordinates"),
    (lambda: partial_cloud(np.zeros((4, 2)), 1), r"points must be \(N, 3\), got \(4, 2\)"),
    (lambda: partial_cloud(np.zeros((0, 3)), 1), "even, nonzero point count, got 0"),
    (lambda: partial_cloud(np.array([[0.0, 0, 0], [np.inf, 0, 0]]), 1),
     "points: point cloud contains non-finite coordinates"),
    (lambda: cloud_fk(_arm(), np.zeros(_arm().n_dof), {"lower": np.zeros((4, 2))}),
     r"canonical cloud for link 'lower' must be \(N, 3\), got \(4, 2\)"),
], ids=["points-2-columns", "points-1d", "no-labels", "vertices-2-columns", "triangles-1d",
        "index-past-end", "index-negative", "vertices-nan", "vertices-inf", "fps-2-columns",
        "fps-nan", "partial-2-columns", "partial-empty", "partial-inf", "cloud-fk-2-columns"])
def test_cloud_and_mesh_shapes_checked(make, message):
    with pytest.raises(ContractError, match=message):
        make()


# ---------------------------------------------------------------- OBJ

def test_obj_round_trip(tmp_path):
    mesh = box_mesh(0.1, 0.2, 0.3)
    path = tmp_path / "box.obj"
    save_obj(mesh, path)
    loaded = load_obj(path.read_text())
    assert np.array_equal(loaded.vertices, mesh.vertices)
    assert np.array_equal(loaded.triangles, mesh.triangles)


def test_obj_accepts_slash_indices_and_filters_degenerate():
    text = """v 0 0 0
v 1 0 0
v 0 1 0
vn 0 0 1
f 1//1 2//1 3//1
f 1//1 2//1 2//1
"""
    mesh = load_obj(text)
    assert len(mesh.triangles) == 1


def test_obj_rejects_quads():
    text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
    with pytest.raises(DataError):
        load_obj(text)
    # malformed numbers are data errors naming their line, not bare ValueErrors
    head = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
    for bad in ("v a b c", "f 1 2 x", "f 1 2 1.5", "f 1 2 /3", "f 1 2 9",
                "v nan 0 0", "v 0 inf 0", "v 0 0", "f 0 1 2", "f -1 1 2"):
        with pytest.raises(DataError, match="OBJ line 4"):
            load_obj(head + bad + "\n")


@pytest.mark.parametrize("text", ["", "# faces only\nf 1 2 3\n"], ids=["empty", "faces-only"])
def test_obj_without_vertices_rejected(text):
    with pytest.raises(DataError, match="OBJ has no vertices"):
        load_obj(text)


def test_zero_area_mesh_rejected():
    flat = TriangleMesh(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]]), [[0, 1, 2]])
    with pytest.raises(DataError, match="zero total surface area"):
        sample_mesh_surface(flat, 8, substream(0, "test"))


def test_overflowing_area_mesh_rejected():
    # the cross products of 1e200-sized edges overflow: the total area is
    # not finite, and no NaN cdf may turn into points
    huge = TriangleMesh(1e200 * np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]), [[0, 1, 2]])
    with pytest.raises(DataError, match="mesh total surface area is not finite"):
        sample_mesh_surface(huge, 8, substream(0, "test"))


@pytest.mark.parametrize("bad", [-1, 2.5, True])
def test_sample_mesh_surface_checks_n(bad):
    # -1 raised a bare ValueError and 2.5 a bare TypeError
    with pytest.raises(ContractError, match="n must be"):
        sample_mesh_surface(box_mesh(0.1, 0.2, 0.3), bad, substream(0, "test"))


# ---------------------------------------------------------------- FPS

def test_fps_all_indices_when_k_equals_n():
    pts = np.random.default_rng(0).random((16, 3))
    idx = farthest_point_sampling(pts, 16, seed=1)
    assert sorted(idx) == list(range(16))


def test_fps_k1_returns_seeded_start():
    pts = np.random.default_rng(0).random((16, 3))
    start = int(substream(5, "fps").integers(16))
    assert farthest_point_sampling(pts, 1, seed=5) == [start]


def test_fps_square_corners_beat_center():
    # unit square corners plus center; greedy 4 from a corner = the corners,
    # which also wins the brute-force max-min over all 4-subsets
    pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 0]],
                   dtype=float)
    seed = next(s for s in range(100)
                if int(substream(s, "fps").integers(5)) != 4)
    idx = farthest_point_sampling(pts, 4, seed=seed)
    assert sorted(idx) == [0, 1, 2, 3]

    def min_pair_dist(subset):
        return min(np.linalg.norm(pts[a] - pts[b])
                   for a, b in itertools.combinations(subset, 2))

    best = max(itertools.combinations(range(5), 4), key=min_pair_dist)
    assert sorted(best) == sorted(idx)


def test_fps_matches_reference_recurrence():
    rng = np.random.default_rng(33)
    pts = rng.random((40, 3))
    for seed in (0, 1, 2):
        start = int(substream(seed, "fps").integers(len(pts)))
        assert farthest_point_sampling(pts, 12, seed=seed) == \
            reference_fps(pts, 12, start)


def _assert_fps_matches_norm(pts, k):
    for seed in (0, 1, 2):
        start = int(substream(seed, "fps").integers(len(pts)))
        assert farthest_point_sampling(pts, k, seed=seed) == norm_fps(pts, k, [start])


def test_fps_matches_norm_recurrence_far_from_origin():
    # a scene 10 m out: the coordinate differences lose most of their
    # digits to cancellation before they are squared
    pts = np.random.default_rng(34).random((4000, 3)) + 10.0
    _assert_fps_matches_norm(pts, 512)


@pytest.mark.parametrize("spacing", [1.0, 0.1])
def test_fps_matches_norm_recurrence_on_grid(spacing):
    # spacing 1: exact distance ties everywhere, the lowest index must win
    # each one; spacing 0.1: true ties that rounding splits or merges, so
    # another summation order or squared distances pick other points
    grid = np.stack(np.meshgrid(*[np.arange(7.0)] * 3, indexing="ij"), -1)
    pts = spacing * grid.reshape(-1, 3)
    _assert_fps_matches_norm(pts, len(pts))


def test_fps_matches_norm_recurrence_on_one_x():
    # every point shares one x: each pick's slab is the whole cloud
    yz = np.random.default_rng(35).random((600, 2))
    pts = np.column_stack([np.full(600, 0.25), yz])
    _assert_fps_matches_norm(pts, 200)


def test_fps_matches_norm_recurrence_on_clusters_apart_in_x():
    # two clusters 5 m apart along x and 1 cm across: once each holds a
    # pick, a pick in one skips every point of the other
    rng = np.random.default_rng(36)
    pts = np.vstack([0.01 * rng.random((400, 3)), 0.01 * rng.random((400, 3)) + [5.0, 0, 0]])
    _assert_fps_matches_norm(pts, 300)


def test_fps_matches_norm_recurrence_on_ulp_spaced_line():
    # a line along x 10^3 m out, its points three ulps apart: each slab
    # bound x ± m lands on or beside a point, at the scale of its rounding
    x = 1e3 + 3 * np.spacing(1e3) * np.arange(300)
    pts = np.column_stack([x, np.zeros(300), np.zeros(300)])
    _assert_fps_matches_norm(pts, 300)


def test_fps_matches_norm_recurrence_on_repeated_points():
    # each point four times: exact ties at every pick, and a max-min of 0
    # once every distinct point is chosen
    pts = np.repeat(np.random.default_rng(37).random((100, 3)), 4, axis=0)
    _assert_fps_matches_norm(pts, len(pts))


@pytest.mark.parametrize("hand", ["three_finger_hand", "five_finger_hand"])
def test_link_clouds_match_norm_recurrence(hand):
    urdf, meshes = getattr(hands, hand)()
    model = load_model(urdf)
    cfg = SamplingConfig(seed=7)
    clouds = sample_link_clouds(model, meshes, cfg)
    expected = norm_link_clouds(model, meshes, cfg)
    assert list(clouds) == list(expected)
    for link in clouds:
        assert np.array_equal(clouds[link], expected[link])


def test_fps_k_out_of_range():
    pts = np.zeros((4, 3))
    with pytest.raises(ContractError):
        farthest_point_sampling(pts, 0, seed=0)
    with pytest.raises(ContractError):
        farthest_point_sampling(pts, 5, seed=0)
    # a float or bool k or seed used to be truncated quietly
    for bad in (2.5, True, np.nan):
        with pytest.raises(ContractError, match="k must be"):
            farthest_point_sampling(pts, bad, seed=0)
    for bad in (1.5, np.nan, None):
        with pytest.raises(ContractError, match="seed must be"):
            farthest_point_sampling(pts, 2, seed=bad)
    assert farthest_point_sampling(pts, np.int64(2), seed=-3) == \
        farthest_point_sampling(pts, 2, seed=-3)


# ---------------------------------------------------------------- link clouds

def test_single_link_all_points_on_surface():
    urdf = hands.single_link_urdf()
    model = load_model(urdf)
    mesh = box_mesh(0.05, 0.04, 0.03)
    cfg = SamplingConfig(n_per_link=512, n_total=512, seed=2)
    clouds = sample_link_clouds(model, {"rotor": mesh}, cfg)
    assert list(clouds) == ["rotor"]
    assert len(clouds["rotor"]) == 512
    dist = np.abs(signed_distances(clouds["rotor"], mesh))
    assert dist.max() < 1e-9


def test_two_identical_links_both_survive_fps():
    urdf, _ = hands.three_finger_hand()
    model = load_model(urdf)
    mesh = box_mesh(0.03, 0.02, 0.01)
    meshes = {"palm": mesh, "f0_seg0": box_mesh(0.03, 0.02, 0.01, center=(0.2, 0, 0))}
    cfg = SamplingConfig(n_per_link=256, n_total=128, seed=4)
    clouds = sample_link_clouds(model, meshes, cfg)
    assert len(clouds["palm"]) > 0
    assert len(clouds["f0_seg0"]) > 0
    assert len(clouds["palm"]) + len(clouds["f0_seg0"]) == 128


def test_link_clouds_deterministic():
    urdf, meshes = hands.three_finger_hand()
    model = load_model(urdf)
    cfg = SamplingConfig(seed=9)
    a = sample_link_clouds(model, meshes, cfg)
    b = sample_link_clouds(model, meshes, cfg)
    assert list(a) == list(b)
    for link in a:
        assert np.array_equal(a[link], b[link])


def test_link_clouds_reserve_minimum_for_registration():
    urdf, meshes = hands.five_finger_hand()
    model = load_model(urdf)
    clouds = sample_link_clouds(model, meshes, SamplingConfig(seed=1))
    assert sum(len(v) for v in clouds.values()) == 512
    assert min(len(v) for v in clouds.values()) >= 4


def test_n_total_bounded_by_available_samples():
    urdf = hands.single_link_urdf()
    model = load_model(urdf)
    mesh = box_mesh(0.05, 0.04, 0.03)
    with pytest.raises(ContractError):
        sample_link_clouds(model, {"rotor": mesh},
                           SamplingConfig(n_per_link=16, n_total=17, seed=0))


def test_empty_mesh_rejected():
    urdf = hands.single_link_urdf()
    model = load_model(urdf)
    empty = load_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
    with pytest.raises(DataError):
        sample_link_clouds(model, {"rotor": empty}, SamplingConfig(seed=0))


def test_surface_sampling_is_area_weighted():
    # two disjoint triangles, one 99x the area of the other
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                      [5, 0, 0], [5.1, 0, 0], [5, 0.2, 0]], dtype=float)
    tris = np.array([[0, 1, 2], [3, 4, 5]])
    from drokit import TriangleMesh
    mesh = TriangleMesh(verts, tris)
    pts = sample_mesh_surface(mesh, 4000, np.random.default_rng(0))
    near_small = (pts[:, 0] > 4.0).sum()
    # small triangle has 2% of the area
    assert 20 < near_small < 240


@pytest.mark.parametrize("meshes, cfg, error, message", [
    (lambda m: {}, SamplingConfig(), DataError, "no link has a mesh"),
    (lambda m: {**m, "ghost": box_mesh(0.02, 0.02, 0.02)}, SamplingConfig(), ContractError,
     r"meshes given for unknown links: \['ghost'\]"),
    (lambda m: m, SamplingConfig(n_per_link=16, n_total=8), ContractError,
     "n_total=8 cannot reserve 4 points for each of"),
], ids=["no-mesh", "unknown-link", "n-total-too-small"])
def test_sample_link_clouds_rejects_bad_meshes_or_counts(meshes, cfg, error, message):
    urdf, hand_meshes = hands.three_finger_hand()
    model = load_model(urdf)
    with pytest.raises(error, match=message):
        sample_link_clouds(model, meshes(hand_meshes), cfg)


# ---------------------------------------------------------------- cloud_fk

def test_cloud_fk_zero_configuration():
    urdf = hands.single_link_urdf()
    model = load_model(urdf)
    canonical = {"rotor": np.array([[0.01, 0.0, 0.0], [0.0, 0.02, 0.0]])}
    out = cloud_fk(model, np.zeros(model.n_dof), canonical)
    # rotor sits 0.1 above base via the joint origin
    assert np.allclose(out.points, canonical["rotor"] + [0.0, 0.0, 0.1])
    assert out.labels == ["rotor", "rotor"]


def test_cloud_fk_wrist_translation():
    urdf, meshes = hands.three_finger_hand()
    model = load_model(urdf)
    canonical = sample_link_clouds(model, meshes, SamplingConfig(n_per_link=16, n_total=64, seed=0))
    q0 = np.zeros(model.n_dof)
    qt = q0.copy()
    qt[:3] = [0.3, -0.2, 0.5]
    a = cloud_fk(model, q0, canonical)
    b = cloud_fk(model, qt, canonical)
    assert np.allclose(b.points - a.points, [0.3, -0.2, 0.5], atol=1e-12)


def test_cloud_fk_matches_per_point_pose_application():
    urdf, meshes = hands.three_finger_hand()
    model = load_model(urdf)
    canonical = sample_link_clouds(model, meshes, SamplingConfig(n_per_link=32, n_total=96, seed=1))
    rng = np.random.default_rng(8)
    q = rng.uniform(model.lower, model.upper)
    q[:3] = rng.uniform(-0.3, 0.3, 3)
    out = cloud_fk(model, q, canonical)
    poses = forward_kinematics(model, q)
    expected = []
    for link, sl in out.segments():
        rot = poses.rotation(link)
        trans = poses.translation(link)
        for p in canonical[link]:
            expected.append(rot @ p + trans)
    assert np.allclose(out.points, np.array(expected), atol=1e-12)


def test_cloud_fk_index_correspondence_across_configs():
    urdf, meshes = hands.three_finger_hand()
    model = load_model(urdf)
    canonical = sample_link_clouds(model, meshes, SamplingConfig(n_per_link=32, n_total=96, seed=1))
    rng = np.random.default_rng(12)
    qa = rng.uniform(model.lower, model.upper)
    qb = rng.uniform(model.lower, model.upper)
    a = cloud_fk(model, qa, canonical)
    b = cloud_fk(model, qb, canonical)
    assert a.labels == b.labels
    # intra-link pairwise distances are configuration-invariant
    for link, sl in a.segments():
        pa, pb = a.points[sl], b.points[sl]
        da = np.linalg.norm(pa[:, None] - pa[None, :], axis=2)
        db = np.linalg.norm(pb[:, None] - pb[None, :], axis=2)
        assert np.abs(da - db).max() < 1e-9


def test_cloud_fk_unknown_link():
    model = load_model(hands.single_link_urdf())
    with pytest.raises(ContractError):
        cloud_fk(model, np.zeros(model.n_dof), {"ghost": np.zeros((3, 3))})


def test_cloud_fk_empty_clouds_rejected():
    model = load_model(hands.single_link_urdf())
    with pytest.raises(ContractError, match="canonical clouds are empty"):
        cloud_fk(model, np.zeros(model.n_dof), {})


# ---------------------------------------------------------------- object cloud

def test_object_cloud_noiseless_on_surface():
    mesh = icosphere(radius=0.05)
    cfg = SamplingConfig(object_noise_sigma=0.0, seed=6)
    cloud = sample_object_cloud(mesh, cfg)
    assert len(cloud) == 512
    assert np.abs(signed_distances(cloud.points, mesh)).max() < 1e-9
    # zero is the only noise-free sigma: a negative or non-finite one is rejected
    for bad in (-0.5, np.nan, np.inf):
        with pytest.raises(ContractError, match="object_noise_sigma"):
            SamplingConfig(object_noise_sigma=bad)


def test_sampling_counts_and_seed_are_integers():
    # a float count or seed used to be rounded or truncated quietly, and a NaN
    # count failed inside NumPy; every one now names its field
    for name in ("n_per_link", "n_total", "n_object", "object_pool"):
        for bad in (100.5, np.nan, np.inf, 0, -3, True, "7"):
            with pytest.raises(ContractError, match=name):
                SamplingConfig(**{name: bad})
    for bad in (1.5, np.nan, False, None):
        with pytest.raises(ContractError, match="seed"):
            SamplingConfig(seed=bad)
    cfg = SamplingConfig(n_total=np.int64(96), object_pool=np.uint32(600), seed=-3)
    assert (cfg.n_total, cfg.object_pool, cfg.seed) == (96, 600, -3)


def test_object_cloud_noise_scale():
    mesh = icosphere(radius=0.05)
    cfg = SamplingConfig(object_noise_sigma=0.002, seed=6)
    cloud = sample_object_cloud(mesh, cfg)
    mean_dist = np.abs(signed_distances(cloud.points, mesh)).mean()
    assert 0.001 < mean_dist < 0.005


def test_object_cloud_deterministic():
    mesh = icosphere(radius=0.05)
    cfg = SamplingConfig(seed=21)
    a = sample_object_cloud(mesh, cfg)
    b = sample_object_cloud(mesh, cfg)
    assert np.array_equal(a.points, b.points)


@pytest.mark.parametrize("overrides", [
    dict(object_noise_sigma=0.002),
    dict(object_noise_sigma=0.0),
    dict(n_object=300, object_pool=300),
])
def test_object_cloud_equals_full_pool_construction(overrides):
    mesh = icosphere(radius=0.05)
    cfg = SamplingConfig(seed=13, **overrides)
    rng = substream(cfg.seed, "object")
    pool = sample_mesh_surface(mesh, cfg.object_pool, rng)
    pts = pool[rng.choice(cfg.object_pool, size=cfg.n_object, replace=False)]
    if cfg.object_noise_sigma > 0.0:
        pts = pts + rng.normal(0.0, cfg.object_noise_sigma, size=pts.shape)
    assert np.array_equal(sample_object_cloud(mesh, cfg).points, pts)


def test_object_cloud_pool_bound():
    mesh = icosphere(radius=0.05)
    with pytest.raises(ContractError):
        sample_object_cloud(mesh, SamplingConfig(n_object=100, object_pool=50, seed=0))


# ---------------------------------------------------------------- partial cloud

def _partial_direction(seed):
    rng = substream(seed, "partial")
    v = rng.normal(size=3)
    return -v / np.linalg.norm(v)


def test_partial_cloud_keeps_top_scores():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(64, 3))
    kept = partial_cloud(pts, seed=14)
    r = _partial_direction(14)
    centroid = pts.mean(axis=0)
    d = pts - centroid
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    scores = d @ r
    order = np.argsort(-scores, kind="stable")[:32]
    assert np.array_equal(kept, pts[np.sort(order)])
    # every kept score at or above every dropped score
    kept_scores = scores[np.sort(order)]
    dropped = np.delete(scores, np.sort(order))
    assert kept_scores.min() >= dropped.max() - 1e-12


def test_partial_cloud_hemisphere():
    # symmetric cloud on a sphere: retained points lie in the half-space
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(128, 3))
    pts = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    pts = np.vstack([pts, -pts])  # exactly symmetric, centroid at origin
    seed = 2
    kept = partial_cloud(pts, seed=seed)
    r = _partial_direction(seed)
    assert (kept @ r >= -1e-9).all()


def test_partial_cloud_point_at_centroid_scores_zero():
    # symmetric ring keeps the centroid at the first point exactly
    ring = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                     [0, 0, 1], [0, 0, -1], [0.0, 0.0, 0.0]], dtype=float)
    pts = np.vstack([np.zeros(3), ring])  # centroid = origin = points 0 and 7
    kept = partial_cloud(pts, seed=4)
    r = _partial_direction(4)
    # centroid-coincident points score 0; kept set = top half by score
    scores = np.zeros(len(pts))
    d = pts - pts.mean(axis=0)
    lens = np.linalg.norm(d, axis=1)
    nz = lens > 1e-15
    scores[nz] = (d[nz] / lens[nz, None]) @ r
    order = np.argsort(-scores, kind="stable")[: len(pts) // 2]
    assert np.array_equal(kept, pts[np.sort(order)])


def test_partial_cloud_deterministic_and_even_only():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(32, 3))
    assert np.array_equal(partial_cloud(pts, 7), partial_cloud(pts, 7))
    with pytest.raises(ContractError):
        partial_cloud(pts[:31], 7)
    # 1.5 used to act as seed 1, and NaN failed with a bare ValueError
    for bad in (1.5, np.nan, True):
        with pytest.raises(ContractError, match="seed must be"):
            partial_cloud(pts, bad)
