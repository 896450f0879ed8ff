"""Self-test of the benchmark at small sizes, in well under a minute.

    python3 bench/selftest.py

1. Smoke: one untraced and one traced round of every workload at small sizes.
   Every verdict must pass the gate, every ``rotated`` fingerprint must equal
   its ``graded`` twin, and each layer must be idle on the workload that does
   not exercise it (no ``wick.*`` work on graded/rotated; no Gram, quotient or
   ``linalg`` work on wick).
2. The gate must pass an exact recording and fail a corrupted one.

Prints one PASS/FAIL line per check; the exit code is 1 if any check fails.
"""

from __future__ import annotations

import copy
import os
import sys

import run  # pins the BLAS threads before numpy loads
import gate
import workloads
from spans import Tracer

SEED = 7

#: Layers that must record no calls on a workload.
IDLE = {
    "graded": ("wick.normal_order", "wick.evaluation_blocks",
               "wick.parse_expression", "wick.format_expression"),
    "wick": ("fock.gram_matrix", "fock.quotient_sector", "fock.positivity_report",
             "linalg.hermitian_spectrum", "linalg.kernel_basis",
             "linalg.span_and_complement"),
}
IDLE["rotated"] = IDLE["graded"]
#: Layers that must record calls on a workload.
BUSY = {
    "graded": ("cli", "operators.load_system", "operators.validate_system",
               "fock.gram_matrix", "fock.quotient_sector", "fock.descended_operators",
               "linalg.kernel_basis", "linalg.span_and_complement"),
    "wick": ("cli", "wick.parse_expression", "wick.normal_order",
             "wick.evaluation_blocks", "fock.annihilation_matrix", "fock.creation_matrix"),
}
BUSY["rotated"] = BUSY["graded"]


def main() -> int:
    wf = run.import_wickforge()
    results: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        results.append((name, ok, detail))

    fingerprints, sessions_of = {}, {}
    for workload in workloads.WORKLOADS:
        workdir = os.path.join(run.WORK, f"selftest-{workload}")
        sessions = workloads.build(workload, SEED, workdir, smoke=True)
        _, _, fps, problems = run.run_round(wf, sessions, None)
        check(f"{workload} smoke verdicts", not problems, "; ".join(problems[:3]))
        fingerprints[workload], sessions_of[workload] = fps, sessions

        tracer = Tracer()
        tracer.install()
        try:
            _, _, _, problems = run.run_round(wf, sessions, None, tracer)
        finally:
            tracer.uninstall()
        totals = tracer.layer_totals()
        check(f"{workload} traced verdicts", not problems, "; ".join(problems[:3]))
        idle = [k for k in IDLE[workload] if totals[k][1]]
        busy = [k for k in BUSY[workload] if not totals[k][1]]
        check(f"{workload} layer activity", not idle and not busy,
              f"unexpected calls {idle}, missing calls {busy}")
        counters = tracer.counters
        if workload == "wick":
            ok = counters["fock.max_sector_dim"] == 0 and counters["linalg.decomp.cubic_work"] == 0
        else:
            ok = counters["wick.normal_order.terms_out"] == 0 and counters["fock.max_sector_dim"] > 0
        check(f"{workload} counters", ok, repr(counters))

    twin_diffs = [
        f"{s.name}: {msg}"
        for s, g_fps, r_fps in zip(sessions_of["graded"], fingerprints["graded"],
                                   fingerprints["rotated"])
        for g, r in zip(g_fps, r_fps)
        for msg in gate.compare(r, g)
    ]
    check("rotated equals graded twin", not twin_diffs, "; ".join(twin_diffs[:3]))

    corruptions = {
        "graded": (("kernel_dim", lambda fp: fp["kernel_dim"] + 1),
                   ("status", lambda fp: {**fp["status"], "star": "fail"})),
        "wick": (("normal_form_digest", lambda fp: fp["normal_form_digest"][::-1]),),
    }
    for workload, cases in corruptions.items():
        sessions, fps = sessions_of[workload], fingerprints[workload]
        recording = {s.name: f for s, f in zip(sessions, fps)}

        def mismatches(book):
            return [p for s, f in zip(sessions, fps) for p in gate.check_session(s, f, book)]

        exact = mismatches(recording)
        check(f"{workload} gate passes an exact recording", not exact, "; ".join(exact[:3]))
        for field, corrupt in cases:
            bad = copy.deepcopy(recording)
            target = next(fp for calls in bad.values() for fp in calls if field in fp)
            target[field] = corrupt(target)
            check(f"{workload} gate fails a corrupted {field}", bool(mismatches(bad)))

    failed = 0
    for name, ok, detail in results:
        failed += not ok
        print(f"selftest {name}: {'PASS' if ok else 'FAIL'}"
              + (f"  ({detail})" if detail and not ok else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
