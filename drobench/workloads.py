"""The three workloads: their set-up, inputs, one operation, and its checks.

Each operation is run untraced (recover_grasp, or the data-path calls one
after another) and, in a traced run, also rebuilt from drokit's public parts
with a span around every call.  Inputs are made and outputs checked outside
the timed region.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import drokit
from drokit.formats import decode_dromx, encode_dromx

import checks
import scene

POOL_SEED = 1  # recovery grasps are drawn from this seed, not from --seed


def _plain(op, name, fn, *args, parent="op"):
    return fn(*args)


@dataclass
class Embodiment:
    hand: scene.Hand
    model: drokit.KinematicModel   # with canonical clouds attached
    labels: list[str]              # row labels, in canonical-cloud order
    parents: dict[str, str | None]


@dataclass
class Setup:
    embodiments: list[Embodiment]
    object_cloud: drokit.PointCloud


@dataclass
class Case:
    emb: Embodiment
    q_true: np.ndarray
    tag: str


def assets():
    """URDF text and box meshes of both hands, and the icosphere mesh."""
    urdfs = [hand.urdf() for hand in scene.HANDS]
    meshes = [hand.meshes(drokit.TriangleMesh) for hand in scene.HANDS]
    return urdfs, meshes, drokit.TriangleMesh(*scene.icosphere())


def set_up(assets, n_object: int, call=_plain, op: str = "setup") -> Setup:
    """load_model and sample_link_clouds for both hands, then the object cloud."""
    urdfs, meshes, object_mesh = assets
    cfg = drokit.SamplingConfig(n_object=n_object, seed=scene.CLOUD_SEED)
    embodiments = []
    for hand, urdf, hand_meshes in zip(scene.HANDS, urdfs, meshes):
        model = call(op, "kinematics.load_model", _load_model, urdf, parent=None)
        clouds = call(op, "cloud.sample_link_clouds", drokit.sample_link_clouds,
                      model, hand_meshes, cfg, parent=None)
        embodiments.append(Embodiment(hand, model.with_clouds(clouds), [], {}))
    obj = call(op, "cloud.sample_object_cloud", drokit.sample_object_cloud,
               object_mesh, cfg, parent=None)
    for emb in embodiments:
        emb.labels = [link for link, pts in emb.model.canonical_clouds.items()
                      for _ in range(len(pts))]
        emb.parents = {link: emb.model.parent_link(link) for link in emb.model.links}
    return Setup(embodiments, obj)


def _load_model(urdf):
    return drokit.load_model(urdf, virtual_tip_extension_length=scene.TIP_LENGTH)


def model_problems(emb: Embodiment) -> list[str]:
    """The loaded model is the hand the benchmark described: the same links
    and limits, and FK that agrees with the reference FK."""
    hand, model = emb.hand, emb.model
    if model.n_dof != hand.n_dof:
        return [f"{hand.name}: model has {model.n_dof} DoF, expected {hand.n_dof}"]
    problems = []
    if not (np.array_equal(model.lower, hand.lower) and np.array_equal(model.upper, hand.upper)):
        problems.append(f"{hand.name}: joint limits differ from the description")
    if set(model.canonical_clouds) != set(hand.boxes):
        problems.append(f"{hand.name}: canonical cloud links are not the described links")
    q = scene.random_grasp(hand, scene.grasp_rng(0, 0))
    fk = drokit.forward_kinematics(model, q)
    tips = {f"{model.parent_link(tip)}:tip": tip for tip in model.tip_links}
    for name, (rot, org) in scene.link_frames(hand, q).items():
        link = tips.get(name, name)
        if link not in fk:
            problems.append(f"{hand.name}: model has no link for {name}")
            continue
        err = max(float(np.abs(fk.rotation(link) - rot).max()),
                  float(np.abs(fk.translation(link) - org).max()))
        if err > checks.EXACT_TOL:
            problems.append(f"{hand.name}: FK of {link} differs from the reference by {err:.3e}")
    return problems


@dataclass
class Outcome:
    """What the checks need from one operation."""

    q: np.ndarray | None = None
    iterations: int | None = None
    fallback_links: int = 0
    stages: dict | None = None
    posed: drokit.PointCloud | None = None
    matrix: np.ndarray | None = None
    blob: bytes | None = None

    def same_as(self, other: "Outcome") -> bool:
        if self.q is not None:
            return self.q.tobytes() == other.q.tobytes()
        return (self.posed.points.tobytes() == other.posed.points.tobytes()
                and self.matrix.tobytes() == other.matrix.tobytes()
                and self.blob == other.blob)


class Recover:
    """Distance matrix -> recover_grasp over a fixed pool of grasps, both
    hands taking turns.

    The pool does not depend on --seed, so the grasps on which the solver
    settles in a wrong minimum are the same in every run; --seed sets the
    order in which each round visits the pool.
    """

    def __init__(self, name, n_object, pool_per_hand, decode, true_wrist, mean_tol):
        self.name = name
        self.n_object = n_object
        self.pool_per_hand = pool_per_hand
        self.decode = decode
        self.true_wrist = true_wrist
        self.mean_tol = mean_tol

    def prepare(self, case: Case, setup: Setup) -> dict:
        obj = setup.object_cloud.points
        posed = scene.pose_cloud(case.emb.hand, case.q_true, case.emb.model.canonical_clouds)
        matrix = scene.distances(posed, obj)
        wrist = case.q_true[:6] if self.true_wrist else np.zeros(6)
        return {"case": case, "obj": setup.object_cloud, "matrix": matrix,
                "blob": scene.dromx_bytes(matrix) if self.decode else None,
                "q_init": scene.mid_range_init(case.emb.hand, wrist)}

    def run(self, inp) -> tuple[float, Outcome]:
        model = inp["case"].emb.model
        t0 = time.perf_counter()
        matrix = decode_dromx(inp["blob"]) if self.decode else inp["matrix"]
        res = drokit.recover_grasp(model, matrix, inp["obj"], inp["q_init"])
        dt = time.perf_counter() - t0
        return dt, Outcome(q=res.q, iterations=res.report.iterations,
                           fallback_links=len(res.link_poses.fallback_links),
                           stages=dict(res.elapsed))

    def run_traced(self, tracer, op: str, inp) -> tuple[float, Outcome]:
        """recover_grasp rebuilt from its public stages, one span per call."""
        emb, call = inp["case"].emb, tracer.call
        t0 = time.perf_counter_ns()
        if self.decode:
            matrix = call(op, "formats.decode_dromx", decode_dromx, inp["blob"])
        else:
            matrix = inp["matrix"]
        cloud = call(op, "dro.recover_cloud", drokit.recover_cloud,
                     matrix, inp["obj"], emb.labels)
        poses = call(op, "registration.register_all", drokit.register_all,
                     emb.model.canonical_clouds, cloud, emb.parents)
        targets = call(op, "optimizer.link_targets_from_poses",
                       drokit.link_targets_from_poses, emb.model, poses)
        q, report = call(op, "optimizer.solve_joints", drokit.solve_joints,
                         emb.model, targets, inp["q_init"])
        q = call(op, "kinematics.clamp_to_limits", drokit.clamp_to_limits, emb.model, q)
        t1 = time.perf_counter_ns()
        tracer.record(op, "op", t0, t1)
        return (t1 - t0) * 1e-9, Outcome(q=q, iterations=report.iterations,
                                         fallback_links=len(poses.fallback_links))

    def check(self, inp, out: Outcome) -> tuple[list[str], list[str], float]:
        """(failures, broken guarantees, mean link-origin error in m)."""
        case = inp["case"]
        hand = case.emb.hand
        broken = checks.check_limits(hand, out.q)
        failures = checks.check_recovery(hand, out.q, case.q_true,
                                         case.emb.model.canonical_clouds,
                                         inp["obj"].points, inp["matrix"], self.mean_tol)
        return failures, broken, float(checks.link_errors(hand, out.q, case.q_true).mean())

    def tmp_mb(self, inp) -> dict[str, float]:
        """Computed size of recover_cloud's (rows, N_O, 3) float64 temporary."""
        rows, cols = inp["matrix"].shape
        return {"dro.recover_cloud_tmp_mb": rows * cols * 3 * 8 / 1e6}

    def pool(self, setup: Setup) -> list[list[Case]]:
        """pool_per_hand grasps per hand, the same whatever --seed is."""
        pool = []
        for h, emb in enumerate(setup.embodiments):
            rng = scene.grasp_rng(POOL_SEED, 40 + h)
            pool.append([Case(emb, scene.random_grasp(emb.hand, rng), f"{emb.hand.name}#{i}")
                         for i in range(self.pool_per_hand)])
        return pool

    def rounds(self, seed: int, setup: Setup):
        """Endless rounds; each visits the whole pool in a --seed order."""
        pool = self.pool(setup)
        order = scene.grasp_rng(seed, 30)
        while True:
            perms = [order.permutation(len(cases)) for cases in pool]
            yield [pool[h][perms[h][i]] for i in range(self.pool_per_hand)
                   for h in range(len(pool))]

    def warmup(self, setup: Setup) -> list[Case]:
        return [cases[0] for cases in self.pool(setup)]


class Datagen:
    """Grasp -> cloud_fk -> compute_dro -> encode_dromx, both hands taking turns."""

    name = "datagen"
    n_object = 512

    def prepare(self, case: Case, setup: Setup) -> dict:
        return {"case": case, "obj": setup.object_cloud}

    def run(self, inp) -> tuple[float, Outcome]:
        model = inp["case"].emb.model
        q = inp["case"].q_true
        t0 = time.perf_counter()
        posed = drokit.cloud_fk(model, q, model.canonical_clouds)
        matrix = drokit.compute_dro(posed, inp["obj"])
        blob = encode_dromx(matrix)
        return time.perf_counter() - t0, Outcome(posed=posed, matrix=matrix, blob=blob)

    def run_traced(self, tracer, op: str, inp) -> tuple[float, Outcome]:
        model, call = inp["case"].emb.model, tracer.call
        t0 = time.perf_counter_ns()
        posed = call(op, "cloud.cloud_fk", drokit.cloud_fk,
                     model, inp["case"].q_true, model.canonical_clouds)
        matrix = call(op, "dro.compute_dro", drokit.compute_dro, posed, inp["obj"])
        blob = call(op, "formats.encode_dromx", encode_dromx, matrix)
        t1 = time.perf_counter_ns()
        tracer.record(op, "op", t0, t1)
        return (t1 - t0) * 1e-9, Outcome(posed=posed, matrix=matrix, blob=blob)

    def check(self, inp, out: Outcome) -> tuple[list[str], list[str], float | None]:
        case = inp["case"]
        canonical = case.emb.model.canonical_clouds
        broken = checks.check_posed_cloud(case.emb.hand, case.q_true, canonical, out.posed)
        broken += checks.check_matrix(out.matrix, out.posed.points, inp["obj"].points)
        broken += checks.check_dromx(out.matrix, out.blob, decode_dromx(out.blob))
        return [], broken, None

    def tmp_mb(self, inp) -> dict[str, float]:
        """Computed size of compute_dro's largest (tile, tile, 3) float64
        temporary at its default block count of 4."""
        rows = sum(len(p) for p in inp["case"].emb.model.canonical_clouds.values())
        cols = len(inp["obj"])
        return {"dro.compute_dro_tmp_mb": -(-rows // 4) * -(-cols // 4) * 3 * 8 / 1e6}

    def rounds(self, seed: int, setup: Setup):
        """Endless rounds; each is one fresh grasp per hand, drawn from --seed."""
        rngs = [scene.grasp_rng(seed, 20 + h) for h in range(len(setup.embodiments))]
        count = 0
        while True:
            yield [Case(emb, scene.random_grasp(emb.hand, rng), f"{emb.hand.name}#{count}")
                   for emb, rng in zip(setup.embodiments, rngs)]
            count += 1

    def warmup(self, setup: Setup) -> list[Case]:
        return [Case(emb, scene.random_grasp(emb.hand, scene.grasp_rng(0, 90 + h)), "warmup")
                for h, emb in enumerate(setup.embodiments)]


# Pool sizes: recover-dense's operation costs about the same on every grasp,
# so a small pool keeps its rounds short; recover-blind's solver work varies
# from grasp to grasp, so it visits more of them.  Each round holds 2 x pool
# operations, and 0.9 x 2 x pool is kept away from a whole number, so that
# the p90 of whole rounds falls among the repeats of one grasp rather than
# on the step between two grasps.
WORKLOADS = {
    "recover-dense": lambda: Recover("recover-dense", 512, 13, decode=True,
                                     true_wrist=True, mean_tol=checks.LINK_MEAN_TOL),
    "recover-blind": lambda: Recover("recover-blind", 64, 48, decode=False,
                                     true_wrist=False, mean_tol=None),
    "datagen": Datagen,
}
