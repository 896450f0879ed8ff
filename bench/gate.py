"""Result gate: a fingerprint per CLI call, checked against known verdicts.

A fingerprint holds the exit code and the verdicts of one call: check
statuses for ``validate``; kernel dimension, ``min_eig`` and the definiteness
flags for ``gram``; quotient dimensions and well-definedness per sector for
``quotient``; the normal form and ``verify_residual <= eps`` for
``normal-order``.  Each call is checked against

* verdicts that follow from theory (``Call.expect``, see workloads.py), and
* fingerprints recorded at the commit that introduced the benchmark, stored
  per seed under ``expected/``.  A ``rotated`` call is checked against the
  recording of its ``graded`` twin.

``min_eig`` is compared to ``EPS``.  A normal form is fingerprinted by a
digest of its terms with coefficients rounded to ``DIGEST_STEP``, so a change
of summation order, which moves only the last digits, keeps the digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

from workloads import EPS

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")

#: Absolute rounding step of normal-form coefficients in the digest.
DIGEST_STEP = 1e-7


def fingerprint(kind: str, rc: int, stdout: str) -> dict:
    """Verdicts of one call from its exit code and its ``--json`` output."""
    fp: dict = {"rc": rc}
    try:
        _read_verdicts(kind, json.loads(stdout), fp)
    except (KeyError, TypeError, ValueError, IndexError):
        pass  # missing or malformed output: the absent fields fail the comparison
    return fp


def _read_verdicts(kind: str, out: dict, fp: dict) -> None:
    if kind == "validate":
        fp["passed"] = out["passed"]
        fp["status"] = {c["name"]: c["status"] for c in out["checks"]}
    elif kind == "gram":
        fp.update(dim=out["dim"], kernel_dim=out["kernel_dim"], min_eig=out["min_eig"],
                  hermitian=out["checks"]["gram_hermitian"],
                  psd=out["checks"]["positive_semidefinite"],
                  pd=out["checks"]["positive_definite"])
    elif kind == "quotient":
        fp["quotient_dims"] = [s["quotient_dim"] for s in out["sectors"]]
        fp["sector_well_defined"] = [s["well_defined"] for s in out["sectors"]]
        fp["well_defined"] = out["well_defined"]
    elif kind == "normal-order":
        residual = out["verify_residual"]
        fp["residual_ok"] = residual is not None and residual <= EPS
        fp["normal_form_digest"] = normal_form_digest(out["normal_form"])


def _coefficient(token: str) -> complex:
    if token.startswith("("):
        re_part, im_part = token[1:-1].split(",")
        return complex(float(re_part), float(im_part))
    return complex(float(token))


def parse_normal_form(text: str) -> dict[str, complex]:
    """Word -> coefficient map of a printed normal form, such as ``1 - 0.5 c(1) a(1)``.

    Terms are separated by `` + `` and `` - ``; a term is ``[coeff] factors`` or
    ``[coeff] 1``; a first term with a negative real coefficient starts with ``-``.
    """
    parts = re.split(r" ([+-]) ", text)
    signs = ["-" if parts[0].startswith("-") else "+"] + parts[1::2]
    bodies = [parts[0].removeprefix("-")] + parts[2::2]
    terms: dict[str, complex] = {}
    for sign, body in zip(signs, bodies):
        toks = body.split()
        factors = [t for t in toks if t[0] in "ca"]
        numbers = [t for t in toks if t[0] not in "ca"]
        if not factors:
            numbers = numbers[:-1]  # drop the unit factor "1"
        coeff = _coefficient(numbers[0]) if numbers else 1.0
        word = " ".join(factors)
        terms[word] = terms.get(word, 0) + (-coeff if sign == "-" else coeff)
    return terms


def normal_form_digest(text: str) -> str:
    """Digest of the terms whose coefficients round to nonzero multiples of DIGEST_STEP."""
    rows = []
    for word, coeff in parse_normal_form(text).items():
        re_q, im_q = round(coeff.real / DIGEST_STEP), round(coeff.imag / DIGEST_STEP)
        if re_q or im_q:
            rows.append(f"{word}:{re_q}:{im_q}")
    return hashlib.sha256("|".join(sorted(rows)).encode()).hexdigest()[:16]


def compare(fp: dict, expected: dict) -> list[str]:
    """Names and values of the fields of ``fp`` that differ from ``expected``."""
    bad = []
    for key, want in expected.items():
        got = fp.get(key)
        if key == "min_eig" and isinstance(got, float) and isinstance(want, float):
            ok = abs(got - want) <= EPS
        else:
            ok = got == want
        if not ok:
            bad.append(f"{key}: got {got!r}, want {want!r}")
    return bad


def recording_name(workload: str) -> str:
    """``rotated`` shares the recording of its ``graded`` twins."""
    return "graded" if workload == "rotated" else workload


def load_recorded(workload: str, seed: int) -> dict | None:
    """Recorded fingerprints ``{session name: [fingerprint per call]}``, if any."""
    path = os.path.join(EXPECTED_DIR, recording_name(workload) + ".json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(str(seed))


def check_session(session, fps: list[dict], recorded: dict | None) -> list[str]:
    """Every mismatch of one session's fingerprints, as readable strings."""
    problems = []
    rec_calls = recorded.get(session.name) if recorded is not None else None
    for idx, (call, fp) in enumerate(zip(session.calls, fps)):
        for msg in compare(fp, call.expect):
            problems.append(f"{session.name} {call.kind}: {msg}")
        if rec_calls is not None:
            for msg in compare(fp, rec_calls[idx]):
                problems.append(f"{session.name} {call.kind} (recorded): {msg}")
    return problems
