"""Cross and braid operators and the validation of their consistency laws.

A cross operator T maps ``E* (x) E -> E (x) E*`` and is stored as an N^2 x N^2
matrix with ``mat[(k,l), (i,j)] = T^{ij}_{kl}``: the column index is the
flattened input pair (i, j) for ``x^{*i} (x) x^j``, the row index the output
pair (k, l) for ``x^k (x) x^{*l}``.  A braid operator B maps ``E (x) E`` to
itself with the same storage rule, ``mat[(k,l), (i,j)] = B^{ij}_{kl}``.  Pair
indices are 1-based letters flattened row-major (see :mod:`wickforge.linalg`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from .errors import DimensionMismatch
from .linalg import as_matrix, dagger, eye, kron, max_abs, operator_norm, resolve_eps


def flip_matrix(n: int) -> np.ndarray:
    """The transposition on a two-fold tensor power: x^i (x) x^j -> x^j (x) x^i."""
    m = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            m[j * n + i, i * n + j] = 1.0
    return m


def _check_square_pair(mat: np.ndarray, what: str) -> int:
    rows, cols = mat.shape
    if rows != cols:
        raise ValueError(f"{what} matrix must be square, got shape {mat.shape}")
    n = round(rows**0.5)
    if n * n != rows or n < 1:
        raise ValueError(f"{what} matrix must be N^2 x N^2, got {rows} rows")
    return n


@dataclass(frozen=True, eq=False)
class CrossOperator:
    """The 4-index tensor ``T^{ij}_{kl}`` defining cross statistics."""

    mat: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.mat)
        _check_square_pair(m, "cross operator")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return round(self.mat.shape[0] ** 0.5)

    def tensor(self) -> np.ndarray:
        """4-d view ``t[k-1, l-1, i-1, j-1] = T^{ij}_{kl}``."""
        n = self.dim
        return self.mat.reshape(n, n, n, n)

    @classmethod
    def from_entries(cls, dim: int, entries) -> "CrossOperator":
        """Build from sparse ``(i, j, k, l, value)`` tuples, 1-based indices."""
        return cls(_mat_from_entries(dim, entries, "cross"))


@dataclass(frozen=True, eq=False)
class BraidOperator:
    """The 4-index tensor ``B^{ij}_{kl}`` for exchange statistics, acting on E (x) E."""

    mat: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.mat)
        _check_square_pair(m, "braid operator")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return round(self.mat.shape[0] ** 0.5)

    def tensor(self) -> np.ndarray:
        n = self.dim
        return self.mat.reshape(n, n, n, n)

    @classmethod
    def from_entries(cls, dim: int, entries) -> "BraidOperator":
        return cls(_mat_from_entries(dim, entries, "braid"))


@dataclass(frozen=True, eq=False)
class StatisticsSystem:
    """A cross operator plus an optional braid operator under one label."""

    cross: CrossOperator
    braid: BraidOperator | None = None
    label: str = ""

    def __post_init__(self):
        if self.braid is not None and self.braid.dim != self.cross.dim:
            raise DimensionMismatch(
                f"cross dim {self.cross.dim} != braid dim {self.braid.dim}"
            )

    @property
    def dim(self) -> int:
        return self.cross.dim

    @cached_property
    def content_key(self) -> str:
        """Hash of the operator content (label excluded); keys the sector caches."""
        payload = system_to_dict(self)
        payload.pop("label", None)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _mat_from_entries(dim: int, entries, what: str) -> np.ndarray:
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    t = np.zeros((dim, dim, dim, dim), dtype=complex)
    seen = set()
    for entry in entries:
        i, j, k, l, value = entry
        for idx in (i, j, k, l):
            if not 1 <= idx <= dim:
                raise ValueError(
                    f"{what} entry index {idx} out of range 1..{dim} in {entry!r}"
                )
        key = (i, j, k, l)
        if key in seen:
            raise ValueError(f"duplicate {what} entry for indices {key}")
        seen.add(key)
        t[k - 1, l - 1, i - 1, j - 1] = value
    return t.reshape(dim * dim, dim * dim)


def build_ttilde(cross: CrossOperator | np.ndarray) -> np.ndarray:
    """The companion operator on E (x) E: ``(Ttilde)^{ij}_{kl} = T^{ki}_{lj}``."""
    if isinstance(cross, CrossOperator):
        t4 = cross.tensor()
    else:
        c = CrossOperator(cross)
        t4 = c.tensor()
    n = t4.shape[0]
    # new[k,l,i,j] = T^{ki}_{lj} = t4[l,j,k,i]
    return t4.transpose(2, 0, 3, 1).reshape(n * n, n * n)


def is_graded(cross: CrossOperator) -> bool:
    """Whether annihilation preserves the grading of words by letter content.

    True when every nonzero ``T^{ij}_{kl}`` has ``{k, i} = {j, l}`` as
    multisets, that is ``(k, l) = (j, i)`` or ``i = j`` and ``k = l``.  Then
    ``a_i`` lowers the letter content by exactly ``e_i``, and every sector Gram
    matrix is block-diagonal over letter multisets.  Presets and twisted CCR
    are graded; a generic change of basis destroys the grading.
    """
    k, l, i, j = np.indices(cross.tensor().shape)
    allowed = ((k == j) & (l == i)) | ((i == j) & (k == l))
    return not np.any(cross.tensor()[~allowed])


def preserves_content(braid: BraidOperator) -> bool:
    """Whether B maps every two-letter word into words of the same letters.

    True when every nonzero ``B^{ij}_{kl}`` has ``{k, l} = {i, j}`` as
    multisets, that is ``(k, l) = (i, j)`` or ``(k, l) = (j, i)``.  Then every
    generator of the braid ideal stays within the letter content of the word
    it comes from, and each ideal slice is block-diagonal over letter
    multisets.  Every preset braid ``B = Ttilde`` qualifies.
    """
    k, l, i, j = np.indices(braid.tensor().shape)
    allowed = ((k == i) & (l == j)) | ((k == j) & (l == i))
    return not np.any(braid.tensor()[~allowed])


def check_star(cross: CrossOperator, eps: float | None = None) -> tuple[bool, float]:
    """Star condition ``T^{ij}_{kl} = conj(T^{ji}_{lk})``; returns (ok, residual)."""
    eps = resolve_eps(eps)
    t4 = cross.tensor()
    residual = max_abs(t4 - t4.transpose(1, 0, 3, 2).conj())
    return residual <= eps, residual


def check_braid(braid: BraidOperator, eps: float | None = None) -> tuple[bool, float]:
    """Braid relation B1 B2 B1 = B2 B1 B2 on the three-fold tensor power."""
    eps = resolve_eps(eps)
    residual = _braid_residual(braid.mat)
    return residual <= eps, residual


def check_yang_baxter(ttilde: np.ndarray, eps: float | None = None) -> tuple[bool, float]:
    """Yang-Baxter (braid form) for Ttilde on the three-fold tensor power."""
    eps = resolve_eps(eps)
    m = as_matrix(ttilde)
    _check_square_pair(m, "ttilde")
    residual = _braid_residual(m)
    return residual <= eps, residual


def _braid_residual(m: np.ndarray) -> float:
    n = round(m.shape[0] ** 0.5)
    ident = eye(n)
    m1 = kron(m, ident)
    m2 = kron(ident, m)
    return max_abs(m1 @ m2 @ m1 - m2 @ m1 @ m2)


def check_consistency(
    cross: CrossOperator, braid: BraidOperator, eps: float | None = None
) -> tuple[bool, tuple[float, float]]:
    """The two compatibility conditions tying T to B.

    r1 is the residual of ``B(1) T(2) T(1) = T(2) T(1) B(2)`` realized on the
    mixed space ``E* (x) E (x) E -> E (x) E (x) E*`` (all slots flattened with
    dimension N); r2 is the max entry of ``(id + Ttilde)(id - B)``.
    """
    eps = resolve_eps(eps)
    if cross.dim != braid.dim:
        raise DimensionMismatch(
            f"cross dim {cross.dim} != braid dim {braid.dim}"
        )
    n = cross.dim
    ident = eye(n)
    t1 = kron(cross.mat, ident)   # T on slots 1,2 of E*  (x) E (x) E
    t2 = kron(ident, cross.mat)   # T on slots 2,3 after the first cross
    b1 = kron(braid.mat, ident)   # B on slots 1,2 of E (x) E (x) E*
    b2 = kron(ident, braid.mat)   # B on slots 2,3 of E* (x) E (x) E
    r1 = max_abs(b1 @ t2 @ t1 - t2 @ t1 @ b2)
    p2 = eye(n * n) + build_ttilde(cross)
    r2 = max_abs(p2 @ (eye(n * n) - braid.mat))
    return (r1 <= eps and r2 <= eps), (r1, r2)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | warn | skipped
    residual: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "residual": self.residual,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ValidationReport:
    """Ordered pass/fail/warn results for every algebraic law of a system."""

    label: str
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def get(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def validate_system(system: StatisticsSystem, eps: float | None = None) -> ValidationReport:
    """Run every algebraic check on a system and collect the results.

    Braid-dependent checks are reported as "skipped" when no braid operator is
    present.  Cross invertibility and the norm bound on Ttilde are warnings,
    never failures: T = 0 is a legitimate system and norms above 1 only void
    the positivity criterion, not the algebra.
    """
    eps = resolve_eps(eps)
    checks: list[CheckResult] = []

    ok, res = check_star(system.cross, eps)
    checks.append(
        CheckResult("star", "pass" if ok else "fail", res,
                    "T^{ij}_{kl} = conj(T^{ji}_{lk})")
    )

    ttilde = build_ttilde(system.cross)
    herm_res = max_abs(ttilde - dagger(ttilde))
    checks.append(
        CheckResult("ttilde_hermitian", "pass" if herm_res <= eps else "fail",
                    herm_res, "Ttilde equals its conjugate transpose")
    )

    svals = np.linalg.svd(system.cross.mat, compute_uv=False)
    smin = float(svals[-1]) if svals.size else 0.0
    checks.append(
        CheckResult("cross_invertible", "pass" if smin > eps else "warn", smin,
                    "smallest singular value of T; zero is allowed (free statistics)")
    )

    norm = operator_norm(ttilde)
    checks.append(
        CheckResult("ttilde_norm", "pass" if norm <= 1.0 + eps else "warn", norm,
                    "positivity criterion needs ||Ttilde|| <= 1")
    )

    ok, res = check_yang_baxter(ttilde, eps)
    checks.append(CheckResult("yang_baxter", "pass" if ok else "fail", res,
                              "braid-form Yang-Baxter for Ttilde"))

    if system.braid is None:
        for name in ("braid_relation", "braid_invertible",
                     "consistency_mixed", "consistency_ideal"):
            checks.append(CheckResult(name, "skipped", 0.0, "no braid operator"))
    else:
        ok, res = check_braid(system.braid, eps)
        checks.append(CheckResult("braid_relation", "pass" if ok else "fail", res,
                                  "B1 B2 B1 = B2 B1 B2"))
        bsvals = np.linalg.svd(system.braid.mat, compute_uv=False)
        bsmin = float(bsvals[-1]) if bsvals.size else 0.0
        checks.append(
            CheckResult("braid_invertible", "pass" if bsmin > eps else "fail", bsmin,
                        "smallest singular value of B")
        )
        _, (r1, r2) = check_consistency(system.cross, system.braid, eps)
        checks.append(CheckResult("consistency_mixed", "pass" if r1 <= eps else "fail",
                                  r1, "B(1) T(2) T(1) = T(2) T(1) B(2)"))
        checks.append(CheckResult("consistency_ideal", "pass" if r2 <= eps else "fail",
                                  r2, "(id + Ttilde)(id - B) = 0"))

    return ValidationReport(label=system.label, checks=tuple(checks))


# ---------------------------------------------------------------------------
# Operator-file format (JSON)
# ---------------------------------------------------------------------------

def _entries_from_tensor(t4: np.ndarray) -> list[list]:
    """Nonzero tensor entries as sorted 1-based [i, j, k, l, re, im] rows."""
    n = t4.shape[0]
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    v = t4[k, l, i, j]
                    if v != 0:
                        rows.append([i + 1, j + 1, k + 1, l + 1, v.real, v.imag])
    return rows


def system_to_dict(system: StatisticsSystem) -> dict:
    """Serialize a system to the operator-file schema."""
    return {
        "dim": system.dim,
        "cross": _entries_from_tensor(system.cross.tensor()),
        "braid": None if system.braid is None
        else _entries_from_tensor(system.braid.tensor()),
        "label": system.label,
    }


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _entry_rows(rows, what: str) -> list[tuple]:
    """``(i, j, k, l, value)`` tuples from ``[i, j, k, l, re, im]`` rows."""
    if not isinstance(rows, list):
        raise ValueError(
            f"malformed operator file: {what!r} must be a list of "
            f"[i, j, k, l, re, im] rows, got {type(rows).__name__}"
        )
    entries = []
    for row in rows:
        malformed = ValueError(
            f"malformed operator file: {what} row {row!r} is not "
            f"[i, j, k, l, re, im] with integer indices and real numbers"
        )
        if not (isinstance(row, list) and len(row) == 6
                and all(_is_int(x) for x in row[:4])
                and all(_is_real(x) for x in row[4:])):
            raise malformed
        try:
            entries.append((*row[:4], complex(row[4], row[5])))
        except OverflowError:  # integers beyond the float range
            raise malformed from None
    return entries


def system_from_dict(data: dict) -> StatisticsSystem:
    """Parse the operator-file schema.

    Raises ``ValueError`` for anything that does not match it: a missing or
    non-integer ``dim``, entry lists that are not lists of six-number rows,
    non-integer indices, non-numeric coefficients, indices out of range and
    duplicate index quadruples.
    """
    if not isinstance(data, dict):
        raise ValueError("malformed operator file: top level must be a JSON object")
    for key in ("dim", "cross"):
        if key not in data:
            raise ValueError(f"malformed operator file: missing {key!r}")
    dim = data["dim"]
    if not _is_int(dim) or dim < 1:
        raise ValueError(
            f"malformed operator file: 'dim' must be a positive integer, got {dim!r}"
        )
    cross = CrossOperator.from_entries(dim, _entry_rows(data["cross"], "cross"))
    braid_rows = data.get("braid")
    braid = None
    if braid_rows is not None:
        braid = BraidOperator.from_entries(dim, _entry_rows(braid_rows, "braid"))
    return StatisticsSystem(cross=cross, braid=braid, label=str(data.get("label", "")))


def load_system(path) -> StatisticsSystem:
    with open(path, encoding="utf-8") as fh:
        return system_from_dict(json.load(fh))


def dump_system(system: StatisticsSystem) -> str:
    """Deterministic JSON text for a system (sorted keys, no trailing spaces)."""
    return json.dumps(system_to_dict(system), sort_keys=True, indent=2)
