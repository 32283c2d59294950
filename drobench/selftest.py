"""Self-test of the output checks: each passes a correct result and rejects
a corrupted one.

    python3 drobench/selftest.py

Exits 0 when every check behaves, 1 otherwise.  The corruptions are one
matrix entry moved by 1e-6 m, one DROMX payload byte flipped, and one
recovered joint (the wrist roll) moved by 0.05 rad.  It also lists, for
information, the joints whose 0.05 rad error the recovery tolerances cannot
see.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)

HEADER = 19  # DROMX magic (6) + version, rows, cols (3 x u32) + dtype (u8)
JOINT_ERROR = 0.05


def main() -> int:
    run._import_drokit()
    from drokit.formats import decode_dromx

    import checks
    from workloads import WORKLOADS, assets, set_up

    setup = set_up(assets(), 512)
    bad = []

    def expect(what, problems, rejected):
        ok = bool(problems) == rejected
        verdict = "rejects" if problems else "passes"
        print(f"[{'ok' if ok else 'FAIL'}] {what}: check {verdict}"
              + (f" ({problems[0]})" if problems else ""))
        if not ok:
            bad.append(what)

    datagen = WORKLOADS["datagen"]()
    for case in next(datagen.rounds(0, setup)):
        inp = datagen.prepare(case, setup)
        _, out = datagen.run(inp)
        tag = case.emb.hand.name
        expect(f"{tag} datagen output", datagen.check(inp, out)[1], False)

        matrix = out.matrix.copy()
        matrix[7, 11] += 1e-6
        expect(f"{tag} matrix entry moved by 1e-6 m",
               checks.check_matrix(matrix, out.posed.points, inp["obj"].points), True)

        blob = bytearray(out.blob)
        blob[HEADER + 100] ^= 0x01
        blob = bytes(blob)
        expect(f"{tag} DROMX payload byte flipped",
               checks.check_dromx(out.matrix, blob, decode_dromx(blob)), True)

    dense = WORKLOADS["recover-dense"]()
    for case in dense.warmup(setup):  # the first pool grasp of each hand
        inp = dense.prepare(case, setup)
        _, out = dense.run(inp)
        hand = case.emb.hand
        failures, broken, _ = dense.check(inp, out)
        expect(f"{hand.name} recovery", failures + broken, False)

        def moved(j):
            q = out.q.copy()
            q[j] += JOINT_ERROR if q[j] + JOINT_ERROR <= hand.upper[j] else -JOINT_ERROR
            return (checks.check_limits(hand, q)
                    + checks.check_recovery(hand, q, case.q_true,
                                            case.emb.model.canonical_clouds,
                                            inp["obj"].points, inp["matrix"],
                                            dense.mean_tol))

        expect(f"{hand.name} wrist roll moved by {JOINT_ERROR} rad", moved(3), True)
        unseen = [j for j in range(3, hand.n_dof) if not moved(j)]
        print(f"     {hand.name}: a {JOINT_ERROR} rad error goes unseen in q{unseen} "
              f"of the {hand.n_dof - 3} rotation joints")

    print("selftest:", "FAILED " + ", ".join(bad) if bad else "all checks behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
