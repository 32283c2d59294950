"""Command-line surface: sample, compute-dro, recover, roundtrip, bench,
losses.

Every command is deterministic under a fixed --seed.  sample, compute-dro
and recover write a manifest naming their inputs (with content hashes),
parameters, and outputs, enough to reproduce the run exactly; roundtrip and
bench write a summary JSON without one, and losses only prints its result.

Exit codes: 0 success, 2 validation error, 3 data/format error, 4 tolerance
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .cloud import (PointCloud, SamplingConfig, TriangleMesh, cloud_fk,
                    load_obj, sample_link_clouds, sample_object_cloud)
from .dro import compute_dro
from .errors import (ContractError, DataError, DegeneracyError, DroError,
                     FormatError, StageError, _require_integer, _require_positive)
from .formats import read_dromx, read_dropc, write_dromx, write_dropc
from .kinematics import KinematicModel, LinkPoseSet, forward_kinematics, load_model
from .losses import contrastive_loss, dro_l1_loss, penetration_loss, pose_loss
from .metrics import read_grasp_records
from .optimizer import SolveParams, recover_grasp
from .rng import substream

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DATA = 3
EXIT_TOLERANCE = 4

# wrist translation range for random grasp draws; tabletop scale keeps the
# multilateration geometry well-conditioned
TRIAL_WRIST_RANGE = 0.3

_DATA_ERRORS = (DataError, FormatError, DegeneracyError)


class ToleranceFailure(DroError):
    pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _require_file(path, what: str) -> Path:
    if path is None:
        raise ContractError(f"{what} not specified (flag or config)")
    p = Path(path)
    if not p.is_file():
        raise ContractError(f"{what} not found: {p}")
    return p


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _report(args, name: str, obj) -> None:
    """Print a command's summary and write it to the output directory."""
    print(json.dumps(obj, indent=2, sort_keys=True))
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / name, obj)


def _manifest(out_dir: Path, name: str, command: str, seed, inputs: dict,
              params: dict, outputs: list[Path]) -> None:
    doc = {
        "tool": {"name": "dro", "version": __version__},
        "command": command,
        "seed": seed,
        "inputs": {k: {"path": str(p), "sha256": _sha256(Path(p))}
                   for k, p in inputs.items()},
        "params": params,
        "outputs": {p.name: {"path": str(p), "sha256": _sha256(p)}
                    for p in outputs},
    }
    _write_json(out_dir / name, doc)


def _load_model_file(path) -> KinematicModel:
    p = _require_file(path, "model file")
    return load_model(p.read_text())


def _load_meshes(model: KinematicModel, mesh_dir) -> dict[str, TriangleMesh]:
    if mesh_dir is None:
        raise ContractError("mesh directory not specified (flag or config)")
    d = Path(mesh_dir)
    if not d.is_dir():
        raise ContractError(f"mesh directory not found: {d}")
    meshes = {}
    for link in model.links:
        f = d / f"{link}.obj"
        if f.is_file():
            meshes[link] = load_obj(f.read_text())
    if not meshes:
        raise DataError(f"no link meshes found in {d}")
    return meshes


def _robot_clouds(path: Path) -> dict[str, np.ndarray]:
    """The canonical per-link clouds of a labeled robot DROPC file."""
    cloud = read_dropc(path)
    if cloud.labels is None:
        raise DataError(f"{path}: robot cloud must be labeled")
    return cloud.by_link()


def _parse_q(text: str) -> np.ndarray:
    """A comma-separated configuration; the solver start or forward
    kinematics checks its length against the model."""
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ContractError(f"could not parse configuration '{text}': {exc}") from exc


def _resolve_q(args) -> np.ndarray:
    if args.q is not None:
        return _parse_q(args.q)
    if args.grasp_file is not None:
        records = read_grasp_records(_require_file(args.grasp_file, "grasp file"))
        if not records:
            raise DataError(f"no grasp records in {args.grasp_file}")
        idx = args.grasp_index
        if not 0 <= idx < len(records):
            raise ContractError(f"grasp index {idx} out of range (have {len(records)})")
        return records[idx].q
    raise ContractError("provide --q or --grasp-file")


def _fields(cls) -> dict[str, type]:
    """The fields of SamplingConfig or SolveParams that flags and config
    blocks set, with the types of their defaults; the seed comes from
    --seed."""
    return {f.name: type(f.default) for f in dataclasses.fields(cls) if f.name != "seed"}


def _params(args, cls, **fixed):
    """``cls`` built from the fields given on the command line or in the
    config file; the others keep their dataclass defaults."""
    given = {f: getattr(args, f) for f in _fields(cls) if getattr(args, f) is not None}
    return cls(**fixed, **given)


def _geometric_links(model: KinematicModel, canonical) -> list[str]:
    return [l for l in model.links if l in canonical or l in model.tip_links]


def _link_errors(model: KinematicModel, links: list[str], q_a, q_b) -> np.ndarray:
    pa = forward_kinematics(model, q_a)
    pb = forward_kinematics(model, q_b)
    return np.array([np.linalg.norm(pa.translation(l) - pb.translation(l))
                     for l in links])


# ---------------------------------------------------------------- commands

def cmd_sample(args) -> int:
    model = _load_model_file(args.model)
    meshes = _load_meshes(model, args.mesh_dir)
    cfg = _params(args, SamplingConfig, seed=args.seed)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)

    canonical = sample_link_clouds(model, meshes, cfg)
    labels = [l for l, pts in canonical.items() for _ in range(len(pts))]
    robot_cloud = PointCloud(np.vstack(list(canonical.values())), labels)
    robot_path = out_dir / "robot_canonical.dropc"
    write_dropc(robot_path, robot_cloud)
    outputs = [robot_path]

    inputs = {"model": args.model}
    counts = {"robot_points": len(robot_cloud),
              "links": {l: int(len(pts)) for l, pts in canonical.items()}}
    if args.object is not None:
        obj_path = _require_file(args.object, "object mesh")
        obj_cloud = sample_object_cloud(load_obj(obj_path.read_text()), cfg)
        object_out = out_dir / "object.dropc"
        write_dropc(object_out, obj_cloud)
        outputs.append(object_out)
        inputs["object"] = str(obj_path)
        counts["object_points"] = len(obj_cloud)

    _manifest(out_dir, "sample_manifest.json", "sample", args.seed, inputs,
              {"sampling": vars(cfg), "counts": counts}, outputs)
    print(json.dumps({"written": [str(p) for p in outputs]}))
    return EXIT_OK


def cmd_compute_dro(args) -> int:
    robot_path = _require_file(args.robot_cloud, "robot cloud")
    object_path = _require_file(args.object_cloud, "object cloud")
    model = _load_model_file(args.model)
    canonical = _robot_clouds(robot_path)
    object_cloud = read_dropc(object_path)
    q = _resolve_q(args)

    posed = cloud_fk(model, q, canonical)
    matrix = compute_dro(posed, object_cloud)

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / args.out
    write_dromx(out_path, matrix, dtype=args.dtype)
    inputs = {"robot_cloud": str(robot_path), "object_cloud": str(object_path),
              "model": args.model}
    if args.grasp_file is not None:
        inputs["grasp_file"] = str(args.grasp_file)
    _manifest(out_dir, "dro_manifest.json", "compute-dro", args.seed, inputs,
              {"q": [float(v) for v in q], "dtype": args.dtype},
              [out_path])
    print(json.dumps({"written": [str(out_path)], "shape": list(matrix.shape)}))
    return EXIT_OK


def cmd_recover(args) -> int:
    dro_path = _require_file(args.dro, "distance matrix")
    object_path = _require_file(args.object_cloud, "object cloud")
    robot_path = _require_file(args.robot_cloud, "robot cloud")
    model = _load_model_file(args.model).with_clouds(_robot_clouds(robot_path))
    object_cloud = read_dropc(object_path)
    matrix = read_dromx(dro_path)
    q_init = None if args.q_init is None else _parse_q(args.q_init)
    result = recover_grasp(model, matrix, object_cloud, q_init,
                           _params(args, SolveParams))

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / "recover_result.json"
    _write_json(result_path, result.to_json_dict())
    outputs = [result_path]
    if args.emit_cloud:
        cloud_path = out_dir / "recovered.dropc"
        write_dropc(cloud_path, result.recovered_cloud)
        outputs.append(cloud_path)
    _manifest(out_dir, "recover_manifest.json", "recover", args.seed,
              {"dro": str(dro_path), "object_cloud": str(object_path),
               "robot_cloud": str(robot_path), "model": args.model},
              {"q_init": None if q_init is None else [float(v) for v in q_init]},
              outputs)
    print(json.dumps(result.to_json_dict()))
    return EXIT_OK


def _prepare_embodiment(args):
    """Shared setup for roundtrip and bench: model with clouds + object cloud."""
    model = _load_model_file(args.model)
    meshes = _load_meshes(model, args.mesh_dir)
    obj_file = _require_file(args.object, "object mesh")
    cfg = _params(args, SamplingConfig, seed=args.seed)
    canonical = sample_link_clouds(model, meshes, cfg)
    model = model.with_clouds(canonical)
    object_cloud = sample_object_cloud(load_obj(obj_file.read_text()), cfg)
    return model, object_cloud


def _trial(model: KinematicModel, object_cloud: PointCloud, seed: int, label: str):
    """A random grasp from substream(seed, label): (q_true, its exact
    distance matrix)."""
    rng = substream(seed, label)
    q_true = np.empty(model.n_dof)
    q_true[:3] = rng.uniform(-TRIAL_WRIST_RANGE, TRIAL_WRIST_RANGE, 3)
    q_true[3:6] = rng.uniform(-np.pi, np.pi, 3)
    q_true[6:] = rng.uniform(model.lower[6:], model.upper[6:])
    matrix = compute_dro(cloud_fk(model, q_true, model.canonical_clouds), object_cloud)
    return q_true, matrix


def _run_trial(model: KinematicModel, object_cloud: PointCloud, seed: int,
               trial: int, params: SolveParams):
    """(link errors, mean actuated-joint error, stage times, iterations);
    the link errors judge the wrist, whose rotation has two rpy triples."""
    q_true, matrix = _trial(model, object_cloud, seed, f"trial:{trial}")
    result = recover_grasp(model, matrix, object_cloud, params=params)
    links = _geometric_links(model, model.canonical_clouds)
    errors = _link_errors(model, links, result.q, q_true)
    joint_err = float(np.abs(result.q[6:] - q_true[6:]).sum()) / max(model.n_dof - 6, 1)
    return errors, joint_err, result.elapsed, result.report.iterations


def cmd_roundtrip(args) -> int:
    _require_integer("--trials", args.trials, 0)
    _require_positive("--tol-mean", args.tol_mean)
    _require_positive("--tol-max", args.tol_max)
    out = {"trials": args.trials}
    if args.trials > 0:
        model, object_cloud = _prepare_embodiment(args)
        params = _params(args, SolveParams)

        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(
                lambda i: _run_trial(model, object_cloud, args.seed, i, params),
                range(args.trials)))

        all_errors = np.concatenate([r[0] for r in results])
        joint_errors = [r[1] for r in results]
        timings = {s: float(np.mean([r[2][s] for r in results])) for s in results[0][2]}
        iterations = [r[3] for r in results]
        out.update({
            "mean_link_error_m": float(all_errors.mean()),
            "max_link_error_m": float(all_errors.max()),
            "mean_joint_error": float(np.mean(joint_errors)),
            "iterations": {"median": float(statistics.median(iterations)),
                           "max": max(iterations)},
            "timings_mean_s": timings,
            "tolerances": {"mean_m": args.tol_mean, "max_m": args.tol_max},
        })
        out["pass"] = bool(out["mean_link_error_m"] < args.tol_mean
                           and out["max_link_error_m"] < args.tol_max)
    _report(args, "roundtrip_summary.json", out)
    if args.trials > 0 and not out["pass"]:
        raise ToleranceFailure(
            f"round-trip error {out['mean_link_error_m']:.2e} mean / "
            f"{out['max_link_error_m']:.2e} max exceeds tolerances")
    return EXIT_OK


def cmd_bench(args) -> int:
    _require_integer("--runs", args.runs, 1)
    _require_integer("--warmup", args.warmup, 0)
    model, object_cloud = _prepare_embodiment(args)
    params = _params(args, SolveParams)
    _, matrix = _trial(model, object_cloud, args.seed, "trial:bench")

    samples: dict[str, list[float]] = {}
    for run in range(args.warmup + args.runs):
        t0 = time.perf_counter()
        result = recover_grasp(model, matrix, object_cloud, params=params)
        total = time.perf_counter() - t0
        if run < args.warmup:
            continue
        for name, seconds in [*result.elapsed.items(), ("total", total)]:
            samples.setdefault(name, []).append(seconds)

    _report(args, "bench_timings.json", {
        name: {"median_s": float(statistics.median(vals)),
               "p95_s": float(np.percentile(vals, 95))}
        for name, vals in samples.items()
    })
    return EXIT_OK


def cmd_losses(args) -> int:
    kind = args.kind
    expected = _EXPECTED_FILES[kind]
    if len(args.files) != expected:
        raise ContractError(f"losses {kind} takes {expected} files, got {len(args.files)}")
    if kind == "dro-l1":
        pred = read_dromx(_require_file(args.files[0], "prediction matrix"))
        gt = read_dromx(_require_file(args.files[1], "ground-truth matrix"))
        out = {"dro_l1": dro_l1_loss(pred, gt)}
    elif kind == "contrastive":
        phi_a = read_dromx(_require_file(args.files[0], "feature matrix A"))
        phi_b = read_dromx(_require_file(args.files[1], "feature matrix B"))
        pts = read_dropc(_require_file(args.files[2], "point cloud"))
        out = {"contrastive": contrastive_loss(phi_a, phi_b, pts, tau=args.tau, lam=args.lam)}
    elif kind == "pose":
        def load_poses(path, what):
            f = _require_file(path, what)
            try:
                return LinkPoseSet.from_json_dict(json.loads(f.read_text()))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{f}: not a valid pose file: {exc}") from exc

        poses = load_poses(args.files[0], "pose file")
        gt = load_poses(args.files[1], "ground-truth pose file")
        common = [l for l in poses.links if l in gt]
        if not common:
            raise DataError("pose files share no links")
        values = [pose_loss((poses.rotation(l), poses.translation(l)),
                            (gt.rotation(l), gt.translation(l))) for l in common]
        out = {"pose": float(np.mean(values))}
    else:  # penetration
        cloud = read_dropc(_require_file(args.files[0], "point cloud"))
        mesh = load_obj(_require_file(args.files[1], "object mesh").read_text())
        out = {"penetration": penetration_loss(cloud, mesh)}
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------- argument plumbing

_EXPECTED_FILES = {"dro-l1": 2, "contrastive": 3, "pose": 2, "penetration": 2}


def _add_field_flags(p, *classes):
    """One flag per field of each class, named after it, except --noise-sigma
    for object_noise_sigma."""
    for cls in classes:
        for name, kind in _fields(cls).items():
            flag = ("--noise-sigma" if name == "object_noise_sigma"
                    else "--" + name.replace("_", "-"))
            p.add_argument(flag, type=kind, dest=name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dro",
        description="Distance-matrix grasp toolkit: sampling, ground-truth "
                    "matrices, and joint recovery.")
    parser.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON config file supplying defaults")
    parser.add_argument("--output", type=str, default=None,
                        help="output directory (default .)")
    parser.add_argument("--threads", type=int,
                        default=None, help="worker threads (env DRO_THREADS overrides)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sample", help="sample canonical robot and object clouds")
    p.add_argument("--model", default=None, help="URDF file")
    p.add_argument("--mesh-dir", default=None, help="directory of <link>.obj meshes")
    p.add_argument("--object", default=None, help="object OBJ file")
    _add_field_flags(p, SamplingConfig)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("compute-dro", help="ground-truth distance matrix at a grasp")
    p.add_argument("robot_cloud", help="canonical labeled DROPC file")
    p.add_argument("object_cloud", help="object DROPC file")
    p.add_argument("--model", default=None)
    p.add_argument("--q", default=None, help="comma-separated configuration")
    p.add_argument("--grasp-file", default=None, help="grasp-record JSONL file")
    p.add_argument("--grasp-index", type=int, default=0)
    p.add_argument("--dtype", choices=("f64", "f32"), default="f64")
    p.add_argument("--out", default="dro.dromx")
    p.set_defaults(func=cmd_compute_dro)

    p = sub.add_parser("recover", help="recover a grasp configuration from a matrix")
    p.add_argument("dro", help="DROMX file")
    p.add_argument("object_cloud", help="object DROPC file")
    p.add_argument("--model", default=None)
    p.add_argument("--robot-cloud", required=True, help="canonical labeled DROPC file")
    p.add_argument("--q-init", default=None,
                   help="comma-separated initial configuration (default: read off "
                        "the registered link poses)")
    p.add_argument("--emit-cloud", action="store_true",
                   help="also write the recovered labeled cloud")
    _add_field_flags(p, SolveParams)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("roundtrip", help="random grasps -> matrices -> recovery check")
    p.add_argument("--model", default=None)
    p.add_argument("--mesh-dir", default=None)
    p.add_argument("--object", default=None)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--tol-mean", type=float, default=1e-3)
    p.add_argument("--tol-max", type=float, default=5e-3)
    _add_field_flags(p, SamplingConfig, SolveParams)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("bench", help="stage timing of the recovery pipeline")
    p.add_argument("--model", default=None)
    p.add_argument("--mesh-dir", default=None)
    p.add_argument("--object", default=None)
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--warmup", type=int, default=3)
    _add_field_flags(p, SamplingConfig, SolveParams)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("losses", help="batch loss evaluation over files")
    p.add_argument("kind", choices=sorted(_EXPECTED_FILES))
    p.add_argument("files", nargs="+")
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--lam", type=float, default=10.0)
    p.set_defaults(func=cmd_losses)

    return parser


def _config_value(name: str, value, kind: type):
    """A config value checked against its expected type; ints pass as floats."""
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise ContractError(f"config {name} must be of type {kind.__name__}, "
                            f"got {value!r}")
    return value


def _apply_config(args) -> None:
    """Fill unset args from the JSON config file, validating keys and types."""
    if args.config is None:
        return
    cfg_path = _require_file(args.config, "config file")
    try:
        cfg = json.loads(cfg_path.read_text())
    except json.JSONDecodeError as exc:
        raise ContractError(f"config {cfg_path} is not valid JSON: {exc}") from exc
    cfg = _config_value(str(cfg_path), cfg, dict)
    mapping = {
        "model_path": ("model", str), "mesh_dir": ("mesh_dir", str),
        "object_path": ("object", str), "seed": ("seed", int),
        "output_dir": ("output", str),
    }
    for key in cfg:
        if key not in mapping and key not in ("sampling", "solve"):
            raise ContractError(f"config {key} is not a known key")
    for key, (attr, kind) in mapping.items():
        if key in cfg:
            value = _config_value(key, cfg[key], kind)
            if getattr(args, attr, None) is None:
                setattr(args, attr, value)
    for section, cls in (("sampling", SamplingConfig), ("solve", SolveParams)):
        fields = _fields(cls)
        block = _config_value(section, cfg.get(section, {}), dict)
        for key, value in block.items():
            if key not in fields:
                raise ContractError(f"config {section}.{key} is not a known field")
            value = _config_value(f"{section}.{key}", value, fields[key])
            if hasattr(args, key) and getattr(args, key) is None:
                setattr(args, key, value)


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, ToleranceFailure):
        return EXIT_TOLERANCE
    if isinstance(exc, StageError):
        exc = exc.cause
    return EXIT_DATA if isinstance(exc, _DATA_ERRORS) else EXIT_VALIDATION


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        if args.seed is None:
            args.seed = 0
        if args.output is None:
            args.output = "."
        env_threads = os.environ.get("DRO_THREADS")
        if env_threads is not None:
            try:
                args.threads = int(env_threads)
            except ValueError:
                raise ContractError(f"DRO_THREADS must be an integer, "
                                    f"got {env_threads!r}") from None
        elif args.threads is None:
            args.threads = 1
        _require_integer("--threads", args.threads, 1)
        return args.func(args)
    except (DroError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
