"""wickforge benchmark: verdict sessions driven through the public CLI in-process.

    python3 bench/run.py --workload graded|rotated|wick --seed N --seconds S --trace 0|1

Run it from the repository root; it imports wickforge from ``src/`` and
writes its inputs and traces under ``.bench_work/``.  One closed-loop client
in one process calls ``wickforge.cli.main(argv)`` for each CLI call of each
session, clearing the Fock cache before every call so that each call does
the work of a fresh ``wickforge`` process.  A request is one session
(workloads.py); the session list is repeated in rounds until ``--seconds``
have passed and at least ``MIN_ROUNDS`` ran.  Every call's verdicts go
through the result gate (gate.py); a session with any wrong verdict counts
as failed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters that import wickforge and write the workload's operator
files), ``wall_s`` (median round time), ``request_s.p50`` (median over rounds
of the median session latency) and ``peak_rss_mb``.  ``--trace 1`` runs an
untraced round, then alternates traced and untraced rounds, and reports self
time and calls per traced function and round (spans.py), three work
counters and ``trace.overhead_frac``.  The last line of standard output is
the result as one JSON object; the line before it records the machine,
Python, numpy, BLAS, the BLAS thread count, the sample count and
``failed_frac``.  The exit code is 1 when any verdict is wrong.

``--record`` runs one round of ``graded`` or ``wick`` and stores its
fingerprints under ``expected/`` as the reference for that seed.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# String hashing is randomised per interpreter, and the dict-heavy normal
# ordering runs several percent faster or slower with the hash seed: fix it.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

# BLAS threads are fixed before numpy loads: 2, or fewer if fewer CPUs are usable.
BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from spans import COUNTERS, Tracer  # noqa: E402

SETUP_REPEATS = 11
MIN_ROUNDS = 3
SETUP_TIMEOUT_S = 60


def import_wickforge():
    """Import wickforge from this checkout's ``src/``; exit 2 if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "wickforge", "__init__.py")):
        print(f"error: no wickforge sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    module = importlib.import_module("wickforge")
    if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
        print(f"error: imported wickforge from {module.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    importlib.import_module("wickforge.cli")
    return module


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    uname = platform.uname()
    return {
        "machine": f"{uname.system} {uname.release} {uname.machine}",
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "python_hash_seed": os.environ["PYTHONHASHSEED"],
    }


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import wickforge and write the inputs."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def invoke(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def run_round(wf, sessions, recorded, tracer: Tracer | None = None, first_request: int = 0):
    """One pass over the sessions: (wall seconds, session latencies, fingerprints, problems)."""
    cli, fock = wf.cli, wf.fock
    latencies, all_fps, problems = [], [], []
    t_round = time.perf_counter()
    for idx, session in enumerate(sessions):
        if tracer is not None:
            tracer.request = first_request + idx
        outputs = []
        elapsed = 0.0
        for call in session.calls:
            fock.clear_cache()
            t0 = time.perf_counter()
            outputs.append(invoke(cli, call.argv))
            elapsed += time.perf_counter() - t0
        latencies.append(elapsed)
        fps = [gate.fingerprint(call.kind, rc, out)
               for call, (rc, out) in zip(session.calls, outputs)]
        all_fps.append(fps)
        problems.extend(gate.check_session(session, fps, recorded))
    fock.clear_cache()
    return time.perf_counter() - t_round, latencies, all_fps, problems


def record(wf, workload: str, seed: int, sessions) -> int:
    """Store one round's fingerprints as the reference for this seed."""
    if workload == "rotated":
        print("error: rotated is checked against the graded recording", file=sys.stderr)
        return 2
    _, _, fps, problems = run_round(wf, sessions, None)
    if problems:
        print("error: not recording, verdicts contradict theory:", *problems[:5],
              sep="\n  ", file=sys.stderr)
        return 1
    path = os.path.join(gate.EXPECTED_DIR, gate.recording_name(workload) + ".json")
    book = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            book = json.load(fh)
    book[str(seed)] = {s.name: f for s, f in zip(sessions, fps)}
    os.makedirs(gate.EXPECTED_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(book[k], sort_keys=True)}"
            for k in sorted(book, key=int)) + "\n}\n")
    print(f"recorded {len(sessions)} sessions of {workload} seed {seed} "
          f"in {os.path.relpath(path, ROOT)}")
    return 0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's fingerprints as the reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    wf = import_wickforge()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    if args.setup_only:
        workloads.build(args.workload, args.seed, workdir + "-setup")
        return 0

    sessions = workloads.build(args.workload, args.seed, workdir)
    if args.record:
        return record(wf, args.workload, args.seed, sessions)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    recorded = gate.load_recorded(args.workload, args.seed)

    # The first round of a process runs slower (one-time numpy/BLAS set-up,
    # heap growth); medians over at least MIN_ROUNDS rounds keep it out of
    # wall_s and request_s.p50, and trace.overhead_frac leaves it out.
    walls = {False: [], True: []}
    round_p50s, problems = [], []
    attempted = failed = 0
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and (len(walls[False]) + len(walls[True])) % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, lats, _, probs = run_round(
                wf, sessions, recorded, tracer if traced else None, attempted)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        if not traced:
            round_p50s.append(statistics.median(lats))
        attempted += len(sessions)
        failed += len({p.split(" ", 1)[0] for p in probs})
        problems.extend(probs)
        rounds = len(walls[False]) + len(walls[True])
        if time.perf_counter() - start >= args.seconds and rounds >= MIN_ROUNDS:
            break

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "sessions_per_round": len(sessions),
        "request_samples": len(sessions) * len(walls[False]),
        "failed_frac": failed / attempted,
        "recorded_reference": recorded is not None,
        "environment": environment(),
        "problems": problems[:10],
    }
    if args.trace:
        n_traced = len(walls[True])
        metrics = {}
        for layer, (self_s, calls) in tracer.layer_totals().items():
            metrics[f"{layer}.self_s"] = metric(self_s / n_traced, "s")
            metrics[f"{layer}.calls"] = metric(calls / n_traced, "count")
        for name in COUNTERS:
            value = tracer.counters[name]
            metrics[name] = metric(value if name == "fock.max_sector_dim"
                                   else value / n_traced, "count")
        metrics["trace.overhead_frac"] = metric(
            statistics.median(walls[True]) / statistics.median(walls[False][1:]) - 1, "ratio")
        os.makedirs(WORK, exist_ok=True)
        spans_path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json")
        tracer.dump(spans_path)
        summary["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(statistics.median(walls[False]), "s"),
            "request_s.p50": metric(statistics.median(round_p50s), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
