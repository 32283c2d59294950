"""Benchmark of drokit's matrix -> grasp recovery and matrix generation.

Run from the root of a checkout:

    python3 drobench/run.py --workload recover-dense --seed 1 --seconds 55 --trace 0

One closed-loop client in one process runs the named workload in whole
rounds until ``--seconds`` have passed and at least MIN_SAMPLES operations
are timed, checks every output, and prints one JSON line as the last line of
its output: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  A fuller record, and with ``--trace 1`` the spans, go to
drobench/results/.  drokit is imported from the checkout's own src/ only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 7   # set-ups per run; setup_s is their median
MIN_SAMPLES = 100   # timed operations per run, so 10 lie beyond the p90

# One BLAS thread: a single client on a small shared machine, and a fixed
# summation order, so recoveries repeat bitwise from run to run.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def _import_drokit():
    if not (SRC / "drokit" / "__init__.py").is_file():
        sys.exit(f"drobench: no drokit sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import drokit
    if Path(drokit.__file__).resolve().parent != (SRC / "drokit").resolve():
        sys.exit(f"drobench: imported drokit from {drokit.__file__}, not {SRC}")


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _run_pair(workload, tracer, op, inp, traced_first):
    """The untraced and the traced operation on one input, in either order."""
    if traced_first:
        traced = workload.run_traced(tracer, op, inp)
        return workload.run(inp), traced
    plain = workload.run(inp)
    return plain, workload.run_traced(tracer, op, inp)


def measure(workload, setup, seed: int, seconds: float, tracer=None) -> dict:
    """Whole rounds until ``seconds`` have passed and MIN_SAMPLES ops are timed.

    With a tracer, every input also runs traced, alternately before and
    after the untraced call; the two must give bitwise-equal outputs.
    """
    from spans import Tracer
    for case in workload.warmup(setup):
        inp = workload.prepare(case, setup)
        workload.run(inp)
        if tracer is not None:
            workload.run_traced(Tracer(), "warmup", inp)

    rec = {"latency": [], "traced": [], "failures": [], "broken": [], "per_hand": {},
           "iterations": [], "fallback_links": 0, "link_err": [], "stages": {},
           "tmp_mb": {}, "rounds": 0}
    start = time.perf_counter()
    for rnd in workload.rounds(seed, setup):
        for case in rnd:
            k = len(rec["latency"])
            inp = workload.prepare(case, setup)
            if tracer is None:
                dt, out = workload.run(inp)
            else:
                (dt, out), (dt_tr, out_tr) = _run_pair(workload, tracer, f"op{k}", inp, k % 2)
                rec["traced"].append(dt_tr)
                if not out.same_as(out_tr):
                    rec["broken"].append(f"{case.tag}: traced rebuild differs from the untraced call")
                if out_tr.iterations is not None:
                    rec["iterations"].append(out_tr.iterations)
                    rec["fallback_links"] += out_tr.fallback_links
                for name, mb in workload.tmp_mb(inp).items():
                    rec["tmp_mb"][name] = max(mb, rec["tmp_mb"].get(name, 0.0))
            rec["latency"].append(dt)

            failures, broken, link_err = workload.check(inp, out)
            hand = rec["per_hand"].setdefault(case.emb.hand.name, {"attempted": 0, "failed": 0})
            hand["attempted"] += 1
            if failures:
                hand["failed"] += 1
                rec["failures"].append({"case": case.tag, "problems": failures})
            elif link_err is not None:
                rec["link_err"].append(link_err)
            rec["broken"] += [f"{case.tag}: {p}" for p in broken]
            for stage, s in (out.stages or {}).items():
                rec["stages"][stage] = rec["stages"].get(stage, 0.0) + s
        rec["rounds"] += 1
        if time.perf_counter() - start >= seconds and len(rec["latency"]) >= MIN_SAMPLES:
            break
    rec["measured_s"] = time.perf_counter() - start
    return rec


def end_to_end(rec, setup_times) -> dict:
    """The median and the mean operation time are left out: the shared host
    runs this process at two speeds about 1.4x apart, in stretches of
    seconds, and both figures move with the share of the run spent at each.
    The p90 lies within the slower speed unless a run spends nearly all of
    its time at the faster one."""
    import numpy as np
    lat = rec["latency"]
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "latency_p90_ms": {"value": 1e3 * float(np.percentile(lat, 90)), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        * 1024 / 1e6, "unit": "MB"},
    }


# per-layer metric -> span name
SETUP_LAYERS = {
    "kinematics.load_model_ms": "kinematics.load_model",
    "cloud.sample_link_clouds_ms": "cloud.sample_link_clouds",
    "cloud.sample_object_cloud_ms": "cloud.sample_object_cloud",
}
OP_LAYERS = {
    "cloud.cloud_fk_ms": "cloud.cloud_fk",
    "dro.compute_dro_ms": "dro.compute_dro",
    "formats.encode_dromx_ms": "formats.encode_dromx",
    "formats.decode_dromx_ms": "formats.decode_dromx",
    "dro.recover_cloud_ms": "dro.recover_cloud",
    "registration.register_all_ms": "registration.register_all",
    "optimizer.link_targets_ms": "optimizer.link_targets_from_poses",
    "optimizer.solve_joints_ms": "optimizer.solve_joints",
}


def per_layer(rec, tracer) -> dict:
    """Every per-layer metric.  Set-up layers: the median over the run's
    set-ups of the time spent in the call for both hands.  Operation layers:
    self time per operation.  A layer the workload never calls reads 0."""
    setups = sorted({s[0] for s in tracer.spans if s[0].startswith("setup")})
    out = {}
    for metric, span in SETUP_LAYERS.items():
        per_setup = [sum(t1 - t0 for op, name, _, t0, t1 in tracer.spans
                         if op == setup and name == span) * 1e-6 for setup in setups]
        out[metric] = {"value": statistics.median(per_setup), "unit": "ms"}
    self_s = tracer.self_times()
    n_ops = len(rec["latency"])
    for metric, span in OP_LAYERS.items():
        out[metric] = {"value": 1e3 * self_s.get(span, 0.0) / n_ops, "unit": "ms"}
    for metric in ("dro.compute_dro_tmp_mb", "dro.recover_cloud_tmp_mb"):
        out[metric] = {"value": rec["tmp_mb"].get(metric, 0.0), "unit": "MB"}
    iters = rec["iterations"] or [0]
    out["registration.fallback_links"] = {"value": rec["fallback_links"] / n_ops,
                                          "unit": "count/op"}
    out["optimizer.iterations_p50"] = {"value": statistics.median(iters), "unit": "count"}
    out["optimizer.iterations_max"] = {"value": max(iters), "unit": "count"}
    err = statistics.median(rec["link_err"]) if rec["link_err"] else 0.0
    out["optimizer.link_err_um"] = {"value": 1e6 * err, "unit": "um"}
    out["trace.overhead_ms"] = {"value": 1e3 * (statistics.median(rec["traced"])
                                                - statistics.median(rec["latency"])),
                                "unit": "ms"}
    return out


def _cpu_ticks():
    """(steal, total) jiffies of the whole machine, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def machine(ticks0, ticks1) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
             "blas_threads": BLAS_THREADS}
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        facts["steal_share"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    return facts


def main(argv=None) -> int:
    _import_drokit()
    from spans import Tracer
    from workloads import WORKLOADS, assets, model_problems, set_up

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    hand_assets = assets()
    setup_times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if tracer is None:
            setup = set_up(hand_assets, workload.n_object)
        else:
            setup = set_up(hand_assets, workload.n_object, tracer.call, f"setup{i}")
        setup_times.append(time.perf_counter() - t0)
    broken = [p for emb in setup.embodiments for p in model_problems(emb)]

    ticks0 = _cpu_ticks()
    rec = measure(workload, setup, args.seed, args.seconds, tracer)
    ticks1 = _cpu_ticks()
    broken += rec["broken"]
    metrics = end_to_end(rec, setup_times) if tracer is None else per_layer(rec, tracer)
    result = {"correct": not broken, "attempted": len(rec["latency"]),
              "failed": len(rec["failures"]), "metrics": metrics}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    detail = {"args": vars(args), "result": result, "machine": machine(ticks0, ticks1),
              "rounds": rec["rounds"], "measured_s": rec["measured_s"],
              "per_hand": rec["per_hand"], "failures": rec["failures"],
              "broken": broken[:50],
              "stage_mean_ms": {k: 1e3 * v / len(rec["latency"])
                                for k, v in rec["stages"].items()},
              "setup_s": setup_times,
              "latency_ms": [round(1e3 * t, 4) for t in rec["latency"]]}
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        tracer.write(out_dir / f"{stem}-spans.jsonl")
    for problem in broken[:10]:
        print(f"drobench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
