import hashlib
import json
import re

import numpy as np
import pytest

from drokit import (cloud_fk, forward_kinematics, load_model, read_dromx, read_dropc,
                    write_dromx, write_dropc)
from drokit.cli import main

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

    poses = {"a": {"R": list(np.eye(3).ravel()), "x": [0.0, 0.0, 0.0]}}
    gt = {"a": {"R": list(np.eye(3).ravel()), "x": [3.0, 4.0, 0.0]}}
    pp, pg = tmp_path / "p.json", tmp_path / "g.json"
    pp.write_text(json.dumps(poses))
    pg.write_text(json.dumps(gt))
    assert run(["losses", "pose", pp, pg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["pose"] - 5.0) < 1e-12


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
    out, robot, obj, _, _ = _computed_assets(assets)
    cfg_path = assets["root"] / "solve.json"
    cfg_path.write_text(json.dumps({"solve": {"max_iters": 1}}))
    args = ["--config", cfg_path, "--output", out, "recover", out / "dro.dromx", obj,
            "--model", assets["urdf"], "--robot-cloud", robot]
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
