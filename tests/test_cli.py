import argparse
import hashlib
import json
import re

import numpy as np
import pytest

from drokit import (PointCloud, cloud_fk, forward_kinematics, load_model, read_dromx,
                    read_dropc, write_dromx, write_dropc)
from drokit.cli import build_parser, main

import hands
from geometry import box_mesh, icosphere
from drokit.cloud import save_obj

SMALL = ["--n-per-link", "64", "--n-total", "96", "--n-object", "48"]


@pytest.fixture()
def assets(tmp_path):
    urdf_text, meshes = hands.three_finger_hand()
    urdf, mesh_dir = hands.write_hand_assets(tmp_path, urdf_text, meshes)
    obj = tmp_path / "object.obj"
    save_obj(icosphere(radius=0.04), obj)
    return {"urdf": urdf, "mesh_dir": mesh_dir, "object": obj, "root": tmp_path}


def run(args):
    return main([str(a) for a in args])


def sample_into(assets, out, seed=5, with_object=True):
    args = ["--seed", seed, "--output", out, "sample",
            "--model", assets["urdf"], "--mesh-dir", assets["mesh_dir"], *SMALL]
    if with_object:
        args += ["--object", assets["object"]]
    code = run(args)
    assert code == 0
    return out / "robot_canonical.dropc", out / "object.dropc"


# ---------------------------------------------------------------- sample

def test_sample_single_link_default_count(tmp_path):
    urdf = tmp_path / "mono.urdf"
    urdf.write_text(hands.single_link_urdf())
    mesh_dir = tmp_path / "meshes"
    mesh_dir.mkdir()
    save_obj(box_mesh(0.05, 0.04, 0.03), mesh_dir / "rotor.obj")
    out = tmp_path / "out"
    code = run(["--output", out, "sample", "--model", urdf, "--mesh-dir", mesh_dir])
    assert code == 0
    cloud = read_dropc(out / "robot_canonical.dropc")
    assert len(cloud) == 512
    assert set(cloud.labels) == {"rotor"}
    assert (out / "sample_manifest.json").is_file()


def test_sample_rerun_bitwise_identical(assets):
    out_a = assets["root"] / "a"
    out_b = assets["root"] / "b"
    sample_into(assets, out_a)
    sample_into(assets, out_b)
    for name in ("robot_canonical.dropc", "object.dropc"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_sample_missing_object_names_path(assets, capsys):
    missing = assets["root"] / "ghost.obj"
    code = run(["--output", assets["root"] / "o", "sample", "--model", assets["urdf"],
                "--mesh-dir", assets["mesh_dir"], "--object", missing])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_sample_malformed_obj_exit_data(assets, capsys):
    bad = assets["root"] / "bad.obj"
    for line in ("f 1 2 x", "f 1 2 9", "v nan 0 0"):
        bad.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n" + line + "\n")
        code = run(["--output", assets["root"] / "o", "sample", "--model", assets["urdf"],
                    "--mesh-dir", assets["mesh_dir"], "--object", bad])
        assert code == 3
        assert "OBJ line 4" in capsys.readouterr().err


def test_sample_bad_urdf_exit_validation(assets, capsys):
    bad = assets["root"] / "bad.urdf"
    inf_axis = re.sub(r'<axis xyz="[^"]*"', '<axis xyz="inf 0 0"',
                      assets["urdf"].read_text(), count=1)
    for text, names in (("<robot name='x'><link name='a'></robot>", "line"),
                        (inf_axis, "axis 'xyz'")):
        bad.write_text(text)
        code = run(["--output", assets["root"] / "o", "sample", "--model", bad,
                    "--mesh-dir", assets["mesh_dir"]])
        assert code == 2
        assert names in capsys.readouterr().err



def test_sample_duplicate_joint_name_exit_validation(assets, capsys):
    bad = assets["root"] / "dup.urdf"
    text = assets["urdf"].read_text()
    first = re.search(r'<joint name="([^"]+)"', text).group(1)
    bad.write_text(re.sub(r'<joint name="[^"]+"', f'<joint name="{first}"', text, count=2))
    code = run(["--output", assets["root"] / "o", "sample", "--model", bad,
                "--mesh-dir", assets["mesh_dir"]])
    assert code == 2
    assert f"joint name '{first}'" in capsys.readouterr().err


def test_sample_model_unset_exit_validation(assets, capsys):
    assert run(["--output", assets["root"] / "o", "sample",
                "--mesh-dir", assets["mesh_dir"]]) == 2
    assert "model file not specified (flag or config)" in capsys.readouterr().err


@pytest.mark.parametrize("mesh_dir, code, message", [
    (None, 2, "mesh directory not specified"),
    ("ghost", 2, "mesh directory not found"),
    ("empty", 3, "no link meshes found in"),
], ids=["unset", "missing", "empty"])
def test_sample_mesh_dir_missing_or_empty(assets, capsys, mesh_dir, code, message):
    (assets["root"] / "empty").mkdir()
    flags = [] if mesh_dir is None else ["--mesh-dir", assets["root"] / mesh_dir]
    assert run(["--output", assets["root"] / "o", "sample", "--model", assets["urdf"],
                *flags]) == code
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------- compute-dro

def test_compute_dro_matches_naive_recompute(assets):
    out = assets["root"] / "out"
    robot, obj = sample_into(assets, out)
    model = load_model(assets["urdf"].read_text())
    rng = np.random.default_rng(0)
    q = 0.5 * (model.lower + model.upper)
    q[6:] += rng.uniform(-0.2, 0.2, model.n_dof - 6)
    grasps = assets["root"] / "grasps.jsonl"
    grasps.write_text(json.dumps({"robot": "h", "object": "o",
                                  "q": [float(v) for v in q],
                                  "provenance": "manual"}) + "\n")
    code = run(["--output", out, "compute-dro", robot, obj,
                "--model", assets["urdf"], "--grasp-file", grasps])
    assert code == 0
    matrix = read_dromx(out / "dro.dromx")

    robot_cloud = read_dropc(robot)
    object_cloud = read_dropc(obj)
    posed = cloud_fk(model, q, robot_cloud.by_link())
    naive = np.empty((len(posed.points), len(object_cloud.points)))
    for i, p in enumerate(posed.points):
        for j, o in enumerate(object_cloud.points):
            naive[i, j] = np.linalg.norm(p - o)
    assert np.abs(matrix - naive).max() < 1e-12


def test_compute_dro_file_size(assets):
    out = assets["root"] / "out"
    robot, obj = sample_into(assets, out)
    model = load_model(assets["urdf"].read_text())
    q = ",".join(str(float(v)) for v in 0.5 * (model.lower + model.upper))
    code = run(["--output", out, "compute-dro", robot, obj,
                "--model", assets["urdf"], "--q", q])
    assert code == 0
    n_r = len(read_dropc(robot))
    n_o = len(read_dropc(obj))
    size = (out / "dro.dromx").stat().st_size
    assert size == 6 + 1 + 4 + 4 + 4 + n_r * n_o * 8


def test_corrupt_cloud_exit_data(assets, capsys):
    out = assets["root"] / "out"
    robot, obj = sample_into(assets, out)
    data = robot.read_bytes()
    trailer_off = data.rindex(b"{")
    # truncated, and a label trailer that is JSON but not an object of names
    for corrupt, offset in ((data[:40], ""), (data[:trailer_off] + b"[1]", trailer_off)):
        bad = assets["root"] / "bad.dropc"
        bad.write_bytes(corrupt)
        code = run(["--output", out, "compute-dro", bad, obj,
                    "--model", assets["urdf"], "--q", "0"])
        assert code == 3
        assert f"byte offset {offset}" in capsys.readouterr().err


def test_malformed_grasp_file_exit_data(assets, capsys):
    out = assets["root"] / "out"
    robot, obj = sample_into(assets, out)
    grasps = assets["root"] / "grasps.jsonl"
    grasps.write_text('{"robot": "r"}\n')
    code = run(["--output", out, "compute-dro", robot, obj,
                "--model", assets["urdf"], "--grasp-file", grasps])
    assert code == 3
    assert f"{grasps} line 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags, code, message", [
    (["--q", "0,x"], 2, "could not parse configuration '0,x'"),
    (["--q", "0,0"], 2, "configuration has shape (2,)"),
    ([], 2, "provide --q or --grasp-file"),
    (["--grasp-file", "empty.jsonl"], 3, "no grasp records in"),
    (["--grasp-file", "one.jsonl", "--grasp-index", "1"], 2,
     "grasp index 1 out of range (have 1)"),
    (["--grasp-file", "one.jsonl", "--grasp-index", "-1"], 2, "grasp index -1 out of range"),
    (["--grasp-file", "short.jsonl"], 2, "configuration has shape (3,)"),
], ids=["q-unparsable", "q-short", "no-configuration", "grasp-file-empty",
        "grasp-index-past-end", "grasp-index-negative", "grasp-short"])
def test_compute_dro_bad_configuration_exit_code(assets, capsys, flags, code, message):
    out = assets["root"] / "out"
    robot, obj = sample_into(assets, out)
    (assets["root"] / "empty.jsonl").write_text("")
    for name, n in (("one.jsonl", 15), ("short.jsonl", 3)):
        (assets["root"] / name).write_text(json.dumps(
            {"robot": "h", "object": "o", "q": [0.0] * n}) + "\n")
    flags = [assets["root"] / f if f.endswith(".jsonl") else f for f in flags]
    assert run(["--output", out, "compute-dro", robot, obj, "--model", assets["urdf"],
                *flags]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compute-dro", "recover"])
def test_unlabeled_robot_cloud_exit_data(assets, capsys, command):
    out = assets["root"] / "out"
    robot, obj = sample_into(assets, out)
    unlabeled = out / "unlabeled.dropc"
    write_dropc(unlabeled, PointCloud(read_dropc(robot).points))
    if command == "compute-dro":
        args = ["compute-dro", unlabeled, obj, "--q", "0"]
    else:
        write_dromx(out / "m.dromx", np.ones((3, 3)))
        args = ["recover", out / "m.dromx", obj, "--robot-cloud", unlabeled]
    assert run(["--output", out, *args, "--model", assets["urdf"]]) == 3
    assert f"{unlabeled}: robot cloud must be labeled" in capsys.readouterr().err


# ---------------------------------------------------------------- recover

def _computed_assets(assets, q=None):
    out = assets["root"] / "out"
    robot, obj = sample_into(assets, out)
    model = load_model(assets["urdf"].read_text())
    if q is None:
        rng = np.random.default_rng(1)
        q = 0.5 * (model.lower + model.upper)
        q[6:] += rng.uniform(-0.3, 0.5, model.n_dof - 6)
    code = run(["--output", out, "compute-dro", robot, obj, "--model", assets["urdf"],
                "--q", ",".join(str(float(v)) for v in q)])
    assert code == 0
    return out, robot, obj, model, q


def test_recover_round_trip(assets):
    out, robot, obj, model, q = _computed_assets(assets)
    code = run(["--output", out, "recover", out / "dro.dromx", obj,
                "--model", assets["urdf"], "--robot-cloud", robot, "--emit-cloud"])
    assert code == 0
    result = json.loads((out / "recover_result.json").read_text())
    assert result["converged"]
    q_rec = np.array(result["q"])
    fa = forward_kinematics(model, q_rec)
    fb = forward_kinematics(model, q)
    canonical = read_dropc(robot).by_link()
    errs = [np.linalg.norm(fa.translation(l) - fb.translation(l)) for l in canonical]
    assert np.mean(errs) < 1e-3
    cloud = read_dropc(out / "recovered.dropc")
    assert cloud.labels is not None
    assert len(cloud) == len(read_dropc(robot))


def test_recover_from_given_q_init(assets):
    out, robot, obj, model, q = _computed_assets(assets)
    # start 0.01 off the grasp in every coordinate, not at the default start
    q_init = np.clip(q + 0.01, model.lower, model.upper)
    text = ",".join(repr(float(v)) for v in q_init)
    code = run(["--output", out, "recover", out / "dro.dromx", obj,
                "--model", assets["urdf"], "--robot-cloud", robot, "--q-init", text])
    assert code == 0
    manifest = json.loads((out / "recover_manifest.json").read_text())
    assert manifest["params"]["q_init"] == [float(v) for v in q_init]
    result = json.loads((out / "recover_result.json").read_text())
    fa = forward_kinematics(model, np.array(result["q"]))
    fb = forward_kinematics(model, q)
    errs = [np.linalg.norm(fa.translation(l) - fb.translation(l))
            for l in read_dropc(robot).by_link()]
    assert np.mean(errs) < 1e-3


def test_recover_without_q_init_reads_its_start_off_the_poses(assets):
    out, robot, obj, model, q = _computed_assets(assets)
    code = run(["--output", out, "recover", out / "dro.dromx", obj,
                "--model", assets["urdf"], "--robot-cloud", robot])
    assert code == 0
    assert json.loads((out / "recover_manifest.json").read_text())["params"]["q_init"] is None
    result = json.loads((out / "recover_result.json").read_text())
    assert result["iterations"] == 1 and result["reason"] == "residual"


def test_recover_manifest_hashes_result(assets):
    out, robot, obj, _, _ = _computed_assets(assets)
    code = run(["--output", out, "recover", out / "dro.dromx", obj,
                "--model", assets["urdf"], "--robot-cloud", robot])
    assert code == 0
    manifest = json.loads((out / "recover_manifest.json").read_text())
    result_path = out / "recover_result.json"
    digest = hashlib.sha256(result_path.read_bytes()).hexdigest()
    assert manifest["outputs"] == {
        "recover_result.json": {"path": str(result_path), "sha256": digest}}


def test_recover_shape_mismatch_fails_fast(assets, capsys):
    out, robot, obj, model, _ = _computed_assets(assets)
    small = out / "small.dromx"
    write_dromx(small, np.ones((4, 4)))
    code = run(["--output", out, "recover", small, obj,
                "--model", assets["urdf"], "--robot-cloud", robot])
    assert code == 2
    assert "does not match" in capsys.readouterr().err


def test_recover_column_mismatch_exit_validation(assets, capsys):
    # the rows match the robot cloud, the columns do not match the object cloud
    out, robot, obj, model, _ = _computed_assets(assets)
    matrix = read_dromx(out / "dro.dromx")
    narrow = out / "narrow.dromx"
    write_dromx(narrow, matrix[:, :-1])
    code = run(["--output", out, "recover", narrow, obj,
                "--model", assets["urdf"], "--robot-cloud", robot])
    assert code == 2
    n_obj = matrix.shape[1]
    assert (f"matrix has {n_obj - 1} columns but object cloud has {n_obj} points"
            in capsys.readouterr().err)


def test_recover_q_init_of_wrong_length_exit_validation(assets, capsys):
    out, robot, obj, model, _ = _computed_assets(assets)
    code = run(["--output", out, "recover", out / "dro.dromx", obj,
                "--model", assets["urdf"], "--robot-cloud", robot, "--q-init", "0,0,0"])
    assert code == 2
    assert "q_init: configuration has shape (3,)" in capsys.readouterr().err


def test_recover_robot_cloud_with_a_two_point_link_exit_validation(assets, capsys):
    out, robot, obj, _, _ = _computed_assets(assets)
    cloud = read_dropc(robot)
    link = cloud.labels[-1]  # the last segment, so dropping its tail keeps the rest in place
    keep = np.arange(cloud.labels.index(link) + 2)
    short = out / "short.dropc"
    write_dropc(short, PointCloud(cloud.points[keep], [cloud.labels[i] for i in keep]))
    code = run(["--output", out, "recover", out / "dro.dromx", obj,
                "--model", assets["urdf"], "--robot-cloud", short])
    assert code == 2
    assert f"link '{link}': need at least 3 points, got 2" in capsys.readouterr().err


def test_recover_coplanar_object_exit_data(assets, capsys):
    out, robot, obj, _, _ = _computed_assets(assets)
    flat = read_dropc(obj)
    flat.points[:, 2] = 0.0
    flat_path = out / "flat.dropc"
    write_dropc(flat_path, flat)
    code = run(["--output", out, "recover", out / "dro.dromx", flat_path,
                "--model", assets["urdf"], "--robot-cloud", robot])
    assert code == 3
    err = capsys.readouterr().err
    assert "multilateration" in err and "degenerate" in err


# ---------------------------------------------------------------- roundtrip / bench

def test_roundtrip_zero_trials(assets, capsys):
    code = run(["--output", assets["root"] / "rt0", "roundtrip", "--model", assets["urdf"],
                "--mesh-dir", assets["mesh_dir"],
                "--object", assets["object"], "--trials", "0"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"trials": 0}


def test_roundtrip_passes_and_is_deterministic(assets, capsys):
    args = ["--seed", "3", "--output", assets["root"] / "rt", "roundtrip",
            "--model", assets["urdf"],
            "--mesh-dir", assets["mesh_dir"], "--object", assets["object"],
            "--trials", "2", *SMALL]
    assert run(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["pass"] is True
    assert first["mean_link_error_m"] < 1e-3
    assert run(args) == 0
    second = json.loads(capsys.readouterr().out)
    for key in ("mean_link_error_m", "max_link_error_m", "mean_joint_error"):
        assert first[key] == second[key]


def test_roundtrip_reports_iterations_and_actuated_joint_error(assets, capsys):
    # the wrist is left out of mean_joint_error: a wrist drawn with |pitch| >
    # pi/2 comes back as the other rpy triple of the same rotation
    args = ["--seed", "3", "--output", assets["root"] / "rt5", "roundtrip",
            "--model", assets["urdf"], "--mesh-dir", assets["mesh_dir"],
            "--object", assets["object"], "--trials", "6", *SMALL]
    assert run(args) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["pass"] is True
    assert summary["iterations"] == {"median": 1.0, "max": 1}
    assert summary["mean_joint_error"] < 1e-9
    assert summary == json.loads((assets["root"] / "rt5" / "roundtrip_summary.json").read_text())


def test_roundtrip_tolerance_failure_exit_code(assets, capsys):
    code = run(["--seed", "3", "--output", assets["root"] / "rt4", "roundtrip",
                "--model", assets["urdf"], "--mesh-dir", assets["mesh_dir"],
                "--object", assets["object"], "--trials", "1", "--tol-mean", "1e-30",
                *SMALL])
    assert code == 4
    assert json.loads(capsys.readouterr().out)["pass"] is False


def test_roundtrip_threads_equivalent(assets, capsys, monkeypatch):
    args = ["--seed", "3", "--output", assets["root"] / "rt2", "roundtrip",
            "--model", assets["urdf"],
            "--mesh-dir", assets["mesh_dir"], "--object", assets["object"],
            "--trials", "3", *SMALL]
    assert run(args) == 0
    serial = json.loads(capsys.readouterr().out)
    monkeypatch.setenv("DRO_THREADS", "3")
    assert run(args) == 0
    threaded = json.loads(capsys.readouterr().out)
    assert serial["mean_link_error_m"] == threaded["mean_link_error_m"]
    assert serial["max_link_error_m"] == threaded["max_link_error_m"]


def test_bench_multilateration_time_monotone_in_object_size(assets, capsys):
    # multilateration cost grows with the object cloud; the sizes are large
    # enough that the one pass over the matrix, not fixed per-call costs,
    # sets the time, and medians of 15 runs keep a host stall from
    # reordering them
    medians = []
    for n_obj in (512, 2048, 8192):
        code = run(["--output", assets["root"] / "bench", "bench",
                    "--model", assets["urdf"], "--mesh-dir", assets["mesh_dir"],
                    "--object", assets["object"], "--runs", "15", "--warmup", "1",
                    "--n-object", n_obj])
        assert code == 0
        medians.append(json.loads(capsys.readouterr().out)["multilateration"]["median_s"])
    assert medians[0] <= medians[1] <= medians[2]


def test_bench_schema(assets, capsys):
    code = run(["--output", assets["root"] / "bench2", "bench",
                "--model", assets["urdf"], "--mesh-dir", assets["mesh_dir"],
                "--object", assets["object"], "--runs", "3", "--warmup", "1", *SMALL])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"multilateration", "registration", "optimization", "total"}
    for stage in report.values():
        assert set(stage) == {"median_s", "p95_s"}
        assert stage["median_s"] >= 0.0
        assert stage["p95_s"] >= stage["median_s"] - 1e-12


# ---------------------------------------------------------------- losses

def test_losses_dro_l1(tmp_path, capsys):
    rng = np.random.default_rng(2)
    a = rng.random((6, 7))
    b = rng.random((6, 7))
    pa, pb = tmp_path / "a.dromx", tmp_path / "b.dromx"
    write_dromx(pa, a)
    write_dromx(pb, b)
    assert run(["losses", "dro-l1", pa, pb]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["dro_l1"] - np.abs(a - b).mean()) < 1e-12


def test_losses_penetration(tmp_path, capsys):
    from drokit import PointCloud, write_dropc
    mesh_path = tmp_path / "sphere.obj"
    save_obj(icosphere(radius=0.5), mesh_path)
    cloud_path = tmp_path / "pts.dropc"
    write_dropc(cloud_path, PointCloud(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])))
    assert run(["losses", "penetration", cloud_path, mesh_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["penetration"] - 0.5) < 0.01


def test_losses_contrastive_and_pose(tmp_path, capsys):
    from drokit import PointCloud, write_dropc, contrastive_loss
    rng = np.random.default_rng(3)
    phi_a = rng.normal(size=(5, 8))
    phi_b = rng.normal(size=(5, 8))
    pts = rng.normal(scale=0.05, size=(5, 3))
    pa, pb, pc = tmp_path / "a.dromx", tmp_path / "b.dromx", tmp_path / "c.dropc"
    write_dromx(pa, phi_a)
    write_dromx(pb, phi_b)
    write_dropc(pc, PointCloud(pts))
    assert run(["losses", "contrastive", pa, pb, pc]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["contrastive"] - contrastive_loss(phi_a, phi_b, pts)) < 1e-12
    for flag in ("--tau", "--lam"):
        assert run(["losses", "contrastive", pa, pb, pc, flag, "nan"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag[2:]} must be")

    poses = {"a": {"R": list(np.eye(3).ravel()), "x": [0.0, 0.0, 0.0]}}
    gt = {"a": {"R": list(np.eye(3).ravel()), "x": [3.0, 4.0, 0.0]}}
    pp, pg = tmp_path / "p.json", tmp_path / "g.json"
    pp.write_text(json.dumps(poses))
    pg.write_text(json.dumps(gt))
    assert run(["losses", "pose", pp, pg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["pose"] - 5.0) < 1e-12


@pytest.mark.parametrize("doc", [
    [{"R": list(np.eye(3).ravel()), "x": [0.0, 0.0, 0.0]}],
    {"a": {"R": list(np.eye(3).ravel()), "x": [0.0, 0.0]}},
    {"a": {"R": list(np.eye(3).ravel()) * 2, "x": [0.0, 0.0, 0.0]}},
], ids=["list", "x-two-entries", "r-eighteen-entries"])
def test_losses_pose_malformed_file_exit_data(tmp_path, capsys, doc):
    good = {"a": {"R": list(np.eye(3).ravel()), "x": [0.0, 0.0, 0.0]}}
    pp, pg = tmp_path / "p.json", tmp_path / "g.json"
    pp.write_text(json.dumps(doc))
    pg.write_text(json.dumps(good))
    assert run(["losses", "pose", pp, pg]) == 3
    assert "not a valid pose file" in capsys.readouterr().err


@pytest.mark.parametrize("entry, name", [("R", "rotation"), ("x", "translation")])
def test_losses_pose_non_finite_file_exit_validation(tmp_path, capsys, entry, name):
    good = {"R": list(np.eye(3).ravel()), "x": [0.0, 0.0, 0.0]}
    bad = dict(good, **{entry: [float("nan")] + good[entry][1:]})
    pp, pg = tmp_path / "p.json", tmp_path / "g.json"
    pp.write_text(json.dumps({"a": bad}))
    pg.write_text(json.dumps({"a": good}))
    assert run(["losses", "pose", pp, pg]) == 2
    assert f"{name} contains non-finite values" in capsys.readouterr().err


def test_losses_pose_files_sharing_no_link_exit_data(tmp_path, capsys):
    pp, pg = tmp_path / "p.json", tmp_path / "g.json"
    for path, link in ((pp, "a"), (pg, "b")):
        path.write_text(json.dumps({link: {"R": list(np.eye(3).ravel()), "x": [0.0] * 3}}))
    assert run(["losses", "pose", pp, pg]) == 3
    assert "pose files share no links" in capsys.readouterr().err


def test_losses_wrong_file_count(tmp_path, capsys):
    assert run(["losses", "dro-l1", tmp_path / "x"]) == 2


# ---------------------------------------------------------------- config

def test_config_file_supplies_paths(assets, capsys):
    cfg = {"model_path": str(assets["urdf"]), "mesh_dir": str(assets["mesh_dir"]),
           "object_path": str(assets["object"]), "seed": 9,
           "output_dir": str(assets["root"] / "cfg_out"),
           "sampling": {"n_per_link": 64, "n_total": 96, "n_object": 48}}
    cfg_path = assets["root"] / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run(["--config", cfg_path, "sample"])  # everything from the config
    assert code == 0
    cloud = read_dropc(assets["root"] / "cfg_out" / "robot_canonical.dropc")
    assert len(cloud) == 96
    obj = read_dropc(assets["root"] / "cfg_out" / "object.dropc")
    assert len(obj) == 48


def test_explicit_flags_beat_config(assets, capsys):
    cfg = {"model_path": str(assets["urdf"]), "mesh_dir": str(assets["mesh_dir"]),
           "output_dir": str(assets["root"] / "cfg_out2"), "seed": 9}
    cfg_path = assets["root"] / "run2.json"
    cfg_path.write_text(json.dumps(cfg))
    override = assets["root"] / "flag_out"
    code = run(["--config", cfg_path, "--output", override, "sample", *SMALL])
    assert code == 0
    assert (override / "robot_canonical.dropc").is_file()
    assert not (assets["root"] / "cfg_out2").exists()


def test_explicit_sampling_flag_beats_config_block(assets, capsys):
    cfg_path = assets["root"] / "sampling.json"
    cfg_path.write_text(json.dumps({"sampling": {"n_object": 32, "n_total": 96}}))
    out = assets["root"] / "s_out"
    code = run(["--config", cfg_path, "--output", out, "sample",
                "--model", assets["urdf"], "--mesh-dir", assets["mesh_dir"],
                "--object", assets["object"], "--n-per-link", "64", "--n-object", "48"])
    assert code == 0
    assert len(read_dropc(out / "object.dropc")) == 48  # the flag
    assert len(read_dropc(out / "robot_canonical.dropc")) == 96  # the config


def test_explicit_solver_flag_beats_config_block(assets, capsys):
    out, robot, obj, model, _ = _computed_assets(assets)
    cfg_path = assets["root"] / "solve.json"
    cfg_path.write_text(json.dumps({"solve": {"max_iters": 1}}))
    # mid-range joints, wrist at zero: a start the solve needs more than one iteration from
    q_init = 0.5 * (model.lower + model.upper)
    args = ["--config", cfg_path, "--output", out, "recover", out / "dro.dromx", obj,
            "--model", assets["urdf"], "--robot-cloud", robot,
            "--q-init", ",".join(repr(float(v)) for v in q_init)]
    assert run(args) == 0
    assert json.loads((out / "recover_result.json").read_text())["iterations"] == 1
    assert run(args + ["--max-iters", "100"]) == 0
    assert json.loads((out / "recover_result.json").read_text())["iterations"] > 1


@pytest.mark.parametrize("cfg", [{"sampling": {"n_object": "x"}},
                                 {"solve": {"max_iters": "7"}},
                                 {"seed": "abc"}],
                         ids=["sampling", "solve", "seed"])
def test_config_value_of_wrong_type_rejected(assets, capsys, cfg):
    cfg_path = assets["root"] / "typed.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run(["--config", cfg_path, "--output", assets["root"] / "t_out", "bench",
                "--model", assets["urdf"], "--mesh-dir", assets["mesh_dir"],
                "--object", assets["object"], "--runs", "1", "--warmup", "0", *SMALL])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_malformed_thread_count_env_rejected(assets, capsys, monkeypatch):
    monkeypatch.setenv("DRO_THREADS", "abc")
    code = run(["--output", assets["root"] / "rt3", "roundtrip", "--model", assets["urdf"],
                "--mesh-dir", assets["mesh_dir"], "--object", assets["object"],
                "--trials", "1", *SMALL])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: DRO_THREADS")


def test_config_unknown_key_rejected(assets, capsys):
    cfg_path = assets["root"] / "bad.json"
    cfg_path.write_text(json.dumps({"sampling": {"bogus": 1}}))
    code = run(["--config", cfg_path, "sample", "--model", assets["urdf"],
                "--mesh-dir", assets["mesh_dir"]])
    assert code == 2


def test_config_unknown_top_level_key_rejected(assets, capsys):
    cfg_path = assets["root"] / "typo.json"
    cfg_path.write_text(json.dumps({"modle_path": str(assets["urdf"]), "sed": 3}))
    code = run(["--config", cfg_path, "sample", "--mesh-dir", assets["mesh_dir"]])
    assert code == 2
    assert "modle_path" in capsys.readouterr().err


@pytest.mark.parametrize("command, name", [
    (["roundtrip", "--trials", "-3"], "--trials"),
    (["bench", "--runs", "0"], "--runs"),
    (["bench", "--runs", "2", "--warmup", "-5"], "--warmup"),
    (["bench", "--runs", "1", "--damping", "nan"], "damping"),
    (["bench", "--runs", "1", "--step-bound", "nan"], "step_bound"),
    (["bench", "--runs", "1", "--tol-residual", "inf"], "tol_residual"),
    (["roundtrip", "--trials", "1", "--noise-sigma", "-0.5"], "object_noise_sigma"),
    (["roundtrip", "--trials", "1", "--tol-mean", "nan"], "--tol-mean"),
    (["roundtrip", "--trials", "1", "--tol-mean", "inf", "--tol-max", "inf"], "--tol-mean"),
    (["roundtrip", "--trials", "1", "--tol-mean", "-1"], "--tol-mean"),
    (["roundtrip", "--trials", "1", "--tol-max", "nan"], "--tol-max"),
], ids=["trials", "runs", "warmup", "damping", "step-bound", "tol-residual", "noise-sigma",
        "tol-mean-nan", "tol-inf", "tol-mean-negative", "tol-max-nan"])
def test_bad_count_or_parameter_exit_validation(assets, capsys, command, name):
    code = run(["--output", assets["root"] / "bad", command[0], "--model", assets["urdf"],
                "--mesh-dir", assets["mesh_dir"], "--object", assets["object"],
                *command[1:], *SMALL])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {name} must be")


def test_config_not_json_rejected(assets, capsys):
    cfg_path = assets["root"] / "broken.json"
    cfg_path.write_text('{"seed": 1,')
    code = run(["--config", cfg_path, "sample", "--model", assets["urdf"],
                "--mesh-dir", assets["mesh_dir"]])
    assert code == 2
    assert f"config {cfg_path} is not valid JSON" in capsys.readouterr().err


def test_config_int_for_float_field_read_as_float(assets, capsys):
    cfg_path = assets["root"] / "ints.json"
    cfg_path.write_text(json.dumps({"sampling": {"object_noise_sigma": 0}}))
    out = assets["root"] / "i_out"
    code = run(["--config", cfg_path, "--output", out, "sample", "--model", assets["urdf"],
                "--mesh-dir", assets["mesh_dir"], "--object", assets["object"], *SMALL])
    assert code == 0
    sigma = json.loads((out / "sample_manifest.json").read_text())["params"]["sampling"][
        "object_noise_sigma"]
    assert sigma == 0.0 and isinstance(sigma, float)


# every subcommand's flags: option strings (None for a positional), dest,
# type and default; the sampling and solver flags are the fields of
# SamplingConfig (but its seed) and SolveParams
SAMPLING_FLAGS = [("--n-per-link", "n_per_link", int, None),
                  ("--n-total", "n_total", int, None),
                  ("--n-object", "n_object", int, None),
                  ("--noise-sigma", "object_noise_sigma", float, None),
                  ("--object-pool", "object_pool", int, None)]
SOLVER_FLAGS = [("--step-bound", "step_bound", float, None),
                ("--max-iters", "max_iters", int, None),
                ("--tol-step", "tol_step", float, None),
                ("--tol-residual", "tol_residual", float, None),
                ("--damping", "damping", float, None)]
EMBODIMENT_FLAGS = [("--model", "model", None, None), ("--mesh-dir", "mesh_dir", None, None),
                    ("--object", "object", None, None)]
PARSER_TABLE = {
    None: [("--seed", "seed", int, None), ("--config", "config", str, None),
           ("--output", "output", str, None), ("--threads", "threads", int, None)],
    "sample": [*EMBODIMENT_FLAGS, *SAMPLING_FLAGS],
    "compute-dro": [(None, "robot_cloud", None, None), (None, "object_cloud", None, None),
                    ("--model", "model", None, None), ("--q", "q", None, None),
                    ("--grasp-file", "grasp_file", None, None),
                    ("--grasp-index", "grasp_index", int, 0),
                    ("--dtype", "dtype", None, "f64"), ("--out", "out", None, "dro.dromx")],
    "recover": [(None, "dro", None, None), (None, "object_cloud", None, None),
                ("--model", "model", None, None), ("--robot-cloud", "robot_cloud", None, None),
                ("--q-init", "q_init", None, None), ("--emit-cloud", "emit_cloud", None, False),
                *SOLVER_FLAGS],
    "roundtrip": [*EMBODIMENT_FLAGS, ("--trials", "trials", int, 50),
                  ("--tol-mean", "tol_mean", float, 1e-3), ("--tol-max", "tol_max", float, 5e-3),
                  *SAMPLING_FLAGS, *SOLVER_FLAGS],
    "bench": [*EMBODIMENT_FLAGS, ("--runs", "runs", int, 20), ("--warmup", "warmup", int, 3),
              *SAMPLING_FLAGS, *SOLVER_FLAGS],
    "losses": [(None, "kind", None, None), (None, "files", None, None),
               ("--tau", "tau", float, 0.1), ("--lam", "lam", float, 10.0)],
}


def _flag_rows(parser):
    return [(a.option_strings[0] if a.option_strings else None, a.dest, a.type, a.default)
            for a in parser._actions
            if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))]


def test_parser_flags_pinned():
    parser = build_parser()
    subcommands = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    assert _flag_rows(parser) == PARSER_TABLE[None]
    assert sorted(subcommands) == sorted(k for k in PARSER_TABLE if k is not None)
    for name, sub in subcommands.items():
        assert _flag_rows(sub) == PARSER_TABLE[name], name
