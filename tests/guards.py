"""Peak-memory and wall-time guards on large CLI calls.

Run from the repository root with ``python tests/guards.py``.  Each guarded
CLI call runs in its own interpreter, and its peak RSS and wall time are read
from ``os.wait4`` for that child alone; the wall time includes interpreter
start-up.  Every guard runs and prints one line, and the script exits 1 if any
fails.  pytest does not collect this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
import traceback
from math import comb
from pathlib import Path
from typing import NamedTuple

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from wickforge import BraidOperator, StatisticsSystem, dump_system, make_preset  # noqa: E402
from wickforge.operators import change_basis  # noqa: E402

_MAIN = "import sys; from wickforge.cli import main; sys.exit(main(sys.argv[1:]))"
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


class Call(NamedTuple):
    code: int
    out: str
    peak_mb: float
    wall_s: float

    def __str__(self) -> str:
        return f"exit {self.code}, peak RSS {self.peak_mb:.0f} MB, wall {self.wall_s:.2f} s"


def cli(*args: str) -> Call:
    """One CLI call in a new interpreter: its exit code, stdout, peak RSS and wall time."""
    with tempfile.TemporaryFile("w+") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _MAIN, *args], stdout=out,
                                stderr=subprocess.DEVNULL, env=_ENV)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return Call(proc.returncode, out.read(), usage.ru_maxrss / 1024, wall)


def quotient_dims(call: Call) -> list[int] | None:
    if call.code != 0:
        return None
    return [row["quotient_dim"] for row in json.loads(call.out)["sectors"]]


def gram_memory(tmp: str) -> tuple[bool, str]:
    """Sector 12 of N = 2 is built from per-block annihilation slices, in float64
    since the quon T is real, and its Gram keeps none of sector 12's slices: it
    peaks at about 90 MB.  Keeping them took it to 105 MB, and two dense
    2048 x 4096 levels, or complex slices and Gram blocks (190 MB), would lift
    the peak further above the bound."""
    call = cli("gram", "--preset", "quon", "--q", "0.5", "--dim", "2", "--sector", "12")
    return call.code == 0 and call.peak_mb < 110, str(call)


def real_arithmetic(tmp: str) -> tuple[bool, str]:
    """The slices and Gram blocks of a real weight form are float64: sector 13
    peaks at about 225 MB, and at 580 MB in complex arithmetic.  Sector 13's
    slices (83 MB) and the Hermitian check's and part's temporaries took it to
    295 MB."""
    call = cli("gram", "--preset", "quon", "--q", "0.5", "--dim", "2", "--sector", "13")
    return call.code == 0 and call.peak_mb < 260, str(call)


def gram_three_species(tmp: str) -> tuple[bool, str]:
    """Sector 9 of N = 3 (19683 words, largest block 1680 words) is built block
    by block with no slices of sector 9 kept, and each block is checked and
    diagonalized with one scratch array: it peaks at about 255 MB, and at
    376 MB with the slices and temporaries kept."""
    call = cli("gram", "--preset", "quon", "--q", "0.5", "--dim", "3", "--sector", "9")
    return call.code == 0 and call.peak_mb < 300, str(call)


def verify_memory(tmp: str) -> tuple[bool, str]:
    """normal-order --verify evaluates both sides per letter-content block; the
    dense evaluation of sectors 0..7 of N = 3 peaks at about 400 MB."""
    call = cli("normal-order", "a(1) c(2)", "--preset", "phase", "--phi", "0.7",
               "--dim", "3", "--verify", "--max-sector", "7")
    return call.code == 0 and call.peak_mb < 150, str(call)


def size_refusal(tmp: str) -> tuple[bool, str]:
    """Sector 16's own ideal generator stack, 15 * 12870^2 entries for its
    largest word block, is over the 2^24 entry cap.  The top sector is checked
    first, so the refusal comes before any smaller sector is computed; walking
    up from sector 0 takes about 30 s."""
    call = cli("quotient", "--preset", "boson", "--dim", "2", "--max-sector", "16")
    return call.code == 3 and call.wall_s < 5, str(call)


def quotient_top_sector(tmp: str) -> tuple[bool, str]:
    """quotient --max-sector m reads the ideal bases of sectors <= m only:
    creation preserves the ideal for every (T, B), so no sector m+1 is built;
    building it took the N = 2 call to about 400 MB.  The bases are held per
    word block, with no N^n x N^n array, so N = 3 runs to sector 8 (6561
    words, largest block 560 words), and the quotient dimension is the sum of
    the complement widths, so a zero ideal (B = id, where sector 8 keeps all
    6561 words) builds no 6561 x 6561 complement."""
    ok, notes = True, []
    for top in (7, 8):
        call = cli("quotient", "--preset", "boson", "--dim", "3", "--max-sector", str(top), "--json")
        match = quotient_dims(call) == [comb(n + 2, 2) for n in range(top + 1)]
        ok &= match
        notes.append(f"N = 3 to sector {top}: exit {call.code}, PBW dims {'match' if match else 'wrong'}")
    call = cli("quotient", "--preset", "boson", "--dim", "2", "--max-sector", "11")
    ok &= call.code == 0 and call.peak_mb < 200
    notes.append(f"N = 2 to sector 11: {call}")
    path = identity_braid_file(tmp)
    call = cli("quotient", "--file", path, "--max-sector", "8", "--json")
    match = quotient_dims(call) == [3**n for n in range(9)]
    ok &= match
    notes.append(f"B = id to sector 8: exit {call.code}, 3^n dims {'match' if match else 'wrong'}")
    call = cli("gram", "--file", path, "--sector", "8", "--quotient")
    ok &= call.code == 0 and call.peak_mb < 300
    notes.append(f"B = id gram sector 8 --quotient: {call}")
    return ok, "; ".join(notes)


def quotient_check_memory(tmp: str) -> tuple[bool, str]:
    """quotient only checks that annihilation preserves the ideal, from one
    residual per letter, and builds no descended map: for the boson T with
    B = id at N = 3, sector 8's map alone is 2187 x 6561 float64 (115 MB), and
    building it took this call to 195 MB; it now peaks at about 132 MB."""
    call = cli("quotient", "--file", identity_braid_file(tmp), "--max-sector", "8")
    return call.code == 0 and call.peak_mb < 170, str(call)


def weight_basis_size(tmp: str) -> tuple[bool, str]:
    """A Haar-rotated phase system at N = 17, the operator cap, goes through the
    torus solve of its weight basis: N^4 equations in N^2 unknowns per
    operator, formed a chunk of first indices at a time.  It peaks at about
    190 MB and takes about 8 s; one unchunked solve took 3.7 GB."""
    rng = np.random.default_rng(0)
    q, r = np.linalg.qr(rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17)))
    unitary = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    path = os.path.join(tmp, "rotated-phase-17.json")
    with open(path, "w") as fh:
        fh.write(dump_system(change_basis(make_preset("phase", 17, phi=0.7), unitary)))
    call = cli("gram", "--file", path, "--sector", "1")
    return call.code == 0 and call.peak_mb < 300, str(call)


def identity_braid_file(tmp: str) -> str:
    """The boson T at N = 3 with B = id, whose ideal is zero."""
    path = os.path.join(tmp, "identity-braid.json")
    if not os.path.exists(path):
        with open(path, "w") as fh:
            fh.write(dump_system(StatisticsSystem(cross=make_preset("boson", 3).cross,
                                                  braid=BraidOperator(np.eye(9)))))
    return path


GUARDS = (gram_memory, real_arithmetic, gram_three_species, verify_memory, size_refusal,
          quotient_top_sector, quotient_check_memory, weight_basis_size)


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for guard in GUARDS:
            try:
                ok, detail = guard(tmp)
            except Exception as exc:  # a crash fails this guard, not the others
                traceback.print_exc()
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            failed += not ok
            print(f"{'PASS' if ok else 'FAIL'} {guard.__name__}: {detail}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
