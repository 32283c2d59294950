"""Joint recovery: damped Gauss-Newton on link-origin targets, and the full
distance-matrix -> grasp configuration pipeline.

The per-iteration subproblem minimizes the damped sum of squared linearized
link-origin errors subject to box feasibility (limits) and an infinity-norm
step bound, solved by an active-set clamp.  A backtracking line search on the
true objective (sum of unsquared link errors) keeps the residual trace
monotone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud
from .dro import recover_cloud
from .errors import (ContractError, DataError, StageError, _require_integer,
                     _require_nonnegative, _require_positive)
from .kinematics import (KinematicModel, LinkPoseSet, _fk_arrays, _jacobians,
                         _joint_start, _solve_targets, _start)
from .registration import _register

_LINESEARCH_SLOPE = 1e-4
_MIN_ALPHA = 2.0 ** -20
_IRLS_FLOOR = 1e-9  # link errors below this are treated as converged weights


@dataclass
class SolveParams:
    """Step bound, iteration budget, and convergence tolerances."""

    step_bound: float = 0.5
    max_iters: int = 100
    tol_step: float = 1e-4
    tol_residual: float = 1e-5
    damping: float = 1e-6

    def __post_init__(self):
        for name in ("step_bound", "tol_step", "tol_residual"):
            _require_positive(name, getattr(self, name))
        _require_nonnegative("damping", self.damping)
        _require_integer("max_iters", self.max_iters, 1)


@dataclass
class SolveReport:
    """Outcome of one joint solve; residuals are mean link-origin errors.

    ``reason`` names the test that stopped the solve: ``"residual"`` (mean
    error below ``tol_residual``), ``"step"`` (step below ``tol_step``),
    ``"line_search"`` (no step length passed the Armijo test) or
    ``"max_iters"``.  ``converged`` is True for the first two, so it means
    "stopped on a tolerance", not "fits": a step stop can sit in a wrong
    minimum with a large residual.
    """

    iterations: int
    final_residual: float
    converged: bool
    reason: str
    residual_trace: list[float] = field(default_factory=list)


@dataclass
class GraspResult:
    """Full pipeline output with per-stage wall times (seconds)."""

    q: np.ndarray
    link_poses: LinkPoseSet
    recovered_cloud: PointCloud
    report: SolveReport
    elapsed: dict[str, float]

    def to_json_dict(self) -> dict:
        return {
            "q": [float(v) for v in self.q],
            "residual": self.report.final_residual,
            "iterations": self.report.iterations,
            "converged": self.report.converged,
            "reason": self.report.reason,
            "residual_trace": [float(v) for v in self.report.residual_trace],
            "fallback_links": sorted(self.link_poses.fallback_links),
            "elapsed": dict(self.elapsed),
        }


def _bounded_damped_step(jac: np.ndarray, resid: np.ndarray, lb: np.ndarray,
                         ub: np.ndarray, damping: float) -> np.ndarray:
    """Minimize ||J d + r||^2 + damping ||d||^2 over the box [lb, ub].

    Active-set clamp: solve the damped normal equations, clamp offending
    coordinates to their bounds, re-solve the free block until the active
    set stabilizes.  When no coordinate leaves the box, the unconstrained
    damped solve is the answer as it stands.  A clamped coordinate is never
    released, so where coordinates interact the result is feasible and
    stationary on the free block but can miss the box minimum.
    """
    n = jac.shape[1]
    jtj = jac.T @ jac
    jtj.flat[::n + 1] += damping
    jtr = jac.T @ resid
    delta = np.linalg.solve(jtj, -jtr)
    clipped = np.clip(delta, lb, ub)
    free = clipped == delta
    if free.all():
        return delta
    delta = clipped
    while free.any():  # a round that does not stop clamps one more coordinate
        rows = jtj[free]
        delta[free] = np.linalg.solve(rows[:, free],
                                      -jtr[free] - rows[:, ~free] @ delta[~free])
        clipped = np.clip(delta, lb, ub)
        newly_active = free & (clipped != delta)
        delta = clipped
        if not newly_active.any():
            break
        free &= ~newly_active
    return delta


def solve_joints(model: KinematicModel, targets: dict[str, np.ndarray], q_init,
                 params: SolveParams | None = None) -> tuple[np.ndarray, SolveReport]:
    """Find in-limits joint values whose link origins match the targets.

    ``targets`` maps link names to world translations; the grasp pipeline
    supplies one per registered link plus the fixed-chain extensions
    (virtual tips).  Every iterate satisfies the joint limits and the
    per-iteration step bound.
    """
    if not targets:
        raise ContractError("targets are empty")
    q = _start(model, q_init, "q_init")

    idx = []
    goal = []
    for i, link in enumerate(model.links):  # deterministic model order
        if link in targets:
            idx.append(i)
            goal.append(np.asarray(targets[link], dtype=float))
            if goal[-1].shape != (3,):
                raise ContractError(f"target for link '{link}' has shape "
                                    f"{goal[-1].shape}, expected (3,)")
    if len(idx) != len(targets):
        unknown = sorted(set(targets) - set(model.links))
        raise ContractError(f"targets name unknown links: {unknown}")
    return _solve(model, np.array(idx), np.array(goal), q, params)


def _solve(model: KinematicModel, idx: np.ndarray, goal: np.ndarray, q: np.ndarray,
           params: SolveParams | None) -> tuple[np.ndarray, SolveReport]:
    """solve_joints on links ``idx`` (model order) with targets ``goal``
    (len(idx), 3), from a checked in-limits ``q`` it may return as is."""
    if params is None:
        params = SolveParams()
    if not np.all(np.isfinite(goal)):
        raise DataError("targets contain non-finite values")
    n_t = len(idx)

    def objective(rot, trans):
        err = trans[idx] - goal
        return err, np.sqrt((err * err).sum(axis=1))

    trace: list[float] = []
    reason = "max_iters"
    iterations = 0
    rot, trans = _fk_arrays(model, q)
    err, norms = objective(rot, trans)

    for it in range(1, params.max_iters + 1):
        iterations = it
        total = norms.sum()
        trace.append(total / n_t)
        if total / n_t < params.tol_residual:
            reason = "residual"
            break

        jac = _jacobians(model, rot, trans, idx).reshape(3 * n_t, model.n_dof)
        resid = err.ravel()
        lb = np.maximum(model.lower - q, -params.step_bound)
        ub = np.minimum(model.upper - q, params.step_bound)
        # IRLS weights turn the squared surrogate into a majorizer of the
        # sum-of-norms objective, so the step is a true descent direction
        # even when some links already sit on their targets
        scale = np.repeat(1.0 / np.sqrt(np.maximum(norms, _IRLS_FLOOR)), 3)
        delta = _bounded_damped_step(jac * scale[:, None], resid * scale,
                                     lb, ub, params.damping)
        if np.abs(delta).max() < params.tol_step:
            reason = "step"
            break

        # linearized decrease for the Armijo test on the true objective
        lin = resid + jac @ delta
        predicted = total - np.sqrt((lin.reshape(-1, 3) ** 2).sum(axis=1)).sum()

        alpha = 1.0
        accepted = False
        while alpha >= _MIN_ALPHA:
            q_try = np.clip(q + alpha * delta, model.lower, model.upper)
            rot_try, trans_try = _fk_arrays(model, q_try)
            err_try, norms_try = objective(rot_try, trans_try)
            gate = total - _LINESEARCH_SLOPE * alpha * max(predicted, 0.0)
            if norms_try.sum() <= gate:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            reason = "line_search"
            break
        q, rot, trans, err, norms = q_try, rot_try, trans_try, err_try, norms_try

    final_residual = norms.sum() / n_t
    report = SolveReport(iterations=iterations, final_residual=float(final_residual),
                         converged=reason in ("residual", "step"), reason=reason,
                         residual_trace=trace)
    return q, report


def link_targets_from_poses(model: KinematicModel, poses: LinkPoseSet) -> dict[str, np.ndarray]:
    """Per-link translation targets, extended through fixed joints, in model
    order, all from one product over the pose set's stacked arrays.

    Links without an estimated pose (virtual tip extensions and any other
    fixed-joint children) inherit a target composed from the nearest posed
    ancestor, which is what lets translation targets pin down fingertip
    orientation.
    """
    table = _solve_targets(model, poses.links)
    return dict(zip(table.links, table.goal(poses)))


def _stage(elapsed: dict[str, float], name: str, fn, *args):
    """fn(*args), its wall time stored as elapsed[name]; a failure is
    re-raised as StageError(name, exc)."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:
        raise StageError(name, exc) from exc
    elapsed[name] = time.perf_counter() - t0
    return out


def recover_grasp(model: KinematicModel, dro: np.ndarray, object_cloud,
                  q_init=None, params: SolveParams | None = None) -> GraspResult:
    """Distance matrix -> robot cloud -> link poses -> joint configuration.

    The stages are multilateration (recover_cloud), registration
    (register_all) and optimization (link_targets_from_poses then
    solve_joints), each timed into ``elapsed`` in that order; a failure
    carries the stage name.  They run the kernels of those public calls on
    the model's recovery plan, so the result is the hand-called chain's bit
    for bit.  ``q`` is inside the joint limits.

    Without ``q_init`` the solve starts, inside the optimization stage, from
    the configuration read off the registered poses: the root link's pose
    gives the wrist, and each joint between two registered links not in
    ``fallback_links`` the motion from its parent's frame to its child's;
    the others start mid-range.  On an exact matrix that start is the grasp.
    """
    plan = model.recovery_plan
    if plan is None:
        raise ContractError("model has no canonical clouds attached")
    q = None if q_init is None else _start(model, q_init, "q_init")
    dro = np.asarray(dro, dtype=float)
    if dro.ndim != 2 or dro.shape[0] != len(plan.labels):
        raise ContractError(f"distance matrix shape {dro.shape} does not match the "
                            f"{len(plan.labels)} canonical cloud points")

    elapsed: dict[str, float] = {}
    recovered = _stage(elapsed, "multilateration", recover_cloud, dro, object_cloud,
                       plan.labels)
    poses = _stage(elapsed, "registration", _register, plan.segments, recovered.points)
    q, report = _stage(elapsed, "optimization", _solve_planned,
                       model, plan.targets, poses, q, params)
    return GraspResult(q=q, link_poses=poses, recovered_cloud=recovered, report=report,
                       elapsed=elapsed)


def _solve_planned(model, targets, poses, q, params):
    if q is None:
        q = _joint_start(model, poses)
    return _solve(model, targets.index, targets.goal(poses), q, params)
