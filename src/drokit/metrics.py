"""Grasp bookkeeping: diversity statistics, controller targets, disturbance
forces, and the JSON-lines grasp record format."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError, _require_nonnegative, _require_positive
from .kinematics import KinematicModel, clamp_to_limits, _fk_arrays, _jacobians, _start

PROVENANCES = ("dataset", "recovered", "manual")


@dataclass
class GraspRecord:
    """One grasp: robot, object, full configuration, provenance."""

    robot_id: str
    object_id: str
    q: np.ndarray
    provenance: str = "dataset"
    success: bool | None = None

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        if self.q.ndim != 1:
            raise ContractError("grasp configuration must be a vector")
        if self.provenance not in PROVENANCES:
            raise ContractError(f"provenance must be one of {PROVENANCES}")

    def to_json_line(self) -> str:
        obj = {"robot": self.robot_id, "object": self.object_id,
               "q": [float(v) for v in self.q], "provenance": self.provenance}
        if self.success is not None:
            obj["success"] = bool(self.success)
        return json.dumps(obj, separators=(",", ":"))

    @classmethod
    def from_json_line(cls, line: str) -> "GraspRecord":
        obj = json.loads(line)
        return cls(robot_id=obj["robot"], object_id=obj["object"],
                   q=np.array(obj["q"], dtype=float),
                   provenance=obj.get("provenance", "dataset"),
                   success=obj.get("success"))


def write_grasp_records(path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(rec.to_json_line() + "\n")


def read_grasp_records(path) -> list[GraspRecord]:
    records = []
    with open(path, "rb") as fh:  # a line that is not UTF-8 fails as that line
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(GraspRecord.from_json_line(line.decode()))
            except KeyError as exc:
                raise DataError(f"{path} line {lineno}: grasp record lacks "
                                f"key {exc}") from exc
            except (ValueError, TypeError, ContractError) as exc:
                raise DataError(f"{path} line {lineno}: not a valid grasp "
                                f"record: {exc}") from exc
    return records


def per_dimension_std(grasps: list[GraspRecord]) -> np.ndarray:
    """Population standard deviation of each configuration dimension."""
    if not grasps or len(grasps[0].q) == 0:
        raise ContractError("grasp list or its configurations are empty")
    n = len(grasps[0].q)
    for g in grasps:
        if len(g.q) != n:
            raise ContractError("grasp configurations have unequal lengths")
    stack = np.array([g.q for g in grasps])
    return stack.std(axis=0, ddof=0)


def diversity(grasps: list[GraspRecord]) -> float:
    """Mean across dimensions of the per-dimension population standard
    deviation (the six wrist entries count as dimensions)."""
    return float(per_dimension_std(grasps).mean())


def controller_targets(model: KinematicModel, q_pred, object_centroid,
                       delta: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
    """Open/close target pair around a predicted grasp.

    For each actuated joint the sign of the derivative of the mean
    tip-to-centroid distance decides the opening direction; the outer target
    steps ``delta`` that way, the inner target the opposite way.  Wrist
    entries are untouched and both outputs are clamped to limits.
    """
    q = _start(model, q_pred, "q_pred")
    centroid = np.asarray(object_centroid, dtype=float)
    if centroid.shape != (3,):
        raise ContractError("object centroid must be a 3-vector")
    _require_nonnegative("delta", delta)

    rot, trans = _fk_arrays(model, q)
    tip_idx = np.array([model.links.index(t) for t in model.tip_links])
    offset = trans[tip_idx] - centroid
    dist = np.linalg.norm(offset, axis=1, keepdims=True)
    unit = np.divide(offset, dist, out=np.zeros_like(offset), where=dist >= 1e-12)
    # tips off a joint's path have zero columns, so they add nothing
    step = delta * np.sign(np.einsum("tk,tkn->n", unit, _jacobians(model, rot, trans, tip_idx)))
    step[:6] = 0.0
    return clamp_to_limits(model, q + step), clamp_to_limits(model, q - step)


def disturbance_forces(object_mass: float) -> np.ndarray:
    """Six axis-aligned test forces of magnitude 0.5 * mass (newtons)."""
    _require_positive("object_mass", object_mass)
    mag = 0.5 * object_mass
    return mag * np.array([
        [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
    ])
