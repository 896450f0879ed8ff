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

from .errors import DimensionMismatch, SizeLimit
from .linalg import as_matrix, dagger, eye, max_abs, operator_norm, resolve_eps

#: Relative size of rounding in the operator-level computations of
#: :func:`weight_basis`: singular values and dropped entries at or below
#: ``ROUNDING`` times the scale count as zero.
ROUNDING = 1e3 * np.finfo(float).eps

#: Hard ceiling on the N^4 entries of an operator tensor; exceeding it raises SizeLimit.
OPERATOR_CAP = 100_000


def check_operator_dim(dim: int) -> None:
    """The one size rule for operator tensors: N^4 entries at most :data:`OPERATOR_CAP`.

    Checked before any N^4 allocation: by presets, by operator files and by
    the operator classes.  It also bounds the N^4-row system that
    :func:`weight_basis` solves.
    """
    if dim**4 > OPERATOR_CAP:
        raise SizeLimit(
            f"operator tensor for N={dim} has {dim**4} entries, exceeding cap {OPERATOR_CAP}"
        )


def _check_square_pair(mat: np.ndarray, what: str) -> int:
    rows, cols = mat.shape
    if rows != cols:
        raise ValueError(f"{what} matrix must be square, got shape {mat.shape}")
    n = round(rows**0.5)
    if n * n != rows or n < 1:
        raise ValueError(f"{what} matrix must be N^2 x N^2, got {rows} rows")
    check_operator_dim(n)
    return n


@dataclass(frozen=True, eq=False)
class _PairOperator:
    """A 4-index tensor on E (x) E, held as its N^2 x N^2 matrix; ``_name`` names it in errors."""

    mat: np.ndarray
    _name = ""

    def __post_init__(self):
        m = as_matrix(np.asarray(self.mat, dtype=complex))
        _check_square_pair(m, f"{self._name} operator")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return round(self.mat.shape[0] ** 0.5)

    def tensor(self) -> np.ndarray:
        """4-d view ``t[k-1, l-1, i-1, j-1] = T^{ij}_{kl}`` (``B^{ij}_{kl}`` for a braid)."""
        n = self.dim
        return self.mat.reshape(n, n, n, n)

    @classmethod
    def from_entries(cls, dim: int, entries):
        """Build from sparse ``(i, j, k, l, value)`` tuples, 1-based indices."""
        return cls(_mat_from_entries(dim, entries, cls._name))


class CrossOperator(_PairOperator):
    """The 4-index tensor ``T^{ij}_{kl}`` defining cross statistics."""

    _name = "cross"


class BraidOperator(_PairOperator):
    """The 4-index tensor ``B^{ij}_{kl}`` for exchange statistics, acting on E (x) E."""

    _name = "braid"


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
        """Hash of the operator content (label excluded); keys the sector caches.

        The bytes of N, then of T's and B's matrices (a marker for no B),
        with ``+ 0.0`` so that a zero entry hashes alike whatever its sign.
        """
        digest = hashlib.sha256(str(self.dim).encode())
        for op in (self.cross, self.braid):
            digest.update(b"none" if op is None else (op.mat + 0.0).tobytes())
        return digest.hexdigest()


def _mat_from_entries(dim: int, entries, what: str) -> np.ndarray:
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    check_operator_dim(dim)
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


def _graded_pattern(n: int) -> np.ndarray:
    """Mask of the tensor entries ``[k, l, i, j]`` with ``{k, i} = {j, l}`` as multisets."""
    k, l, i, j = np.indices((n, n, n, n))
    return ((k == j) & (l == i)) | ((i == j) & (k == l))


def _content_pattern(n: int) -> np.ndarray:
    """Mask of the tensor entries ``[k, l, i, j]`` with ``{k, l} = {i, j}`` as multisets."""
    k, l, i, j = np.indices((n, n, n, n))
    return ((k == i) & (l == j)) | ((k == j) & (l == i))


def is_graded(cross: CrossOperator) -> bool:
    """Whether annihilation preserves the grading of words by letter content.

    True when every nonzero ``T^{ij}_{kl}`` has ``{k, i} = {j, l}`` as
    multisets, that is ``(k, l) = (j, i)`` or ``i = j`` and ``k = l``.  Then
    ``a_i`` lowers the letter content by exactly ``e_i``, and every sector Gram
    matrix is block-diagonal over letter multisets.  Presets and twisted CCR
    are graded; a generic change of basis destroys the grading, and
    :func:`weight_basis` finds a basis that restores it.
    """
    return not np.any(cross.tensor()[~_graded_pattern(cross.dim)])


def preserves_content(braid: BraidOperator) -> bool:
    """Whether B maps every two-letter word into words of the same letters.

    True when every nonzero ``B^{ij}_{kl}`` has ``{k, l} = {i, j}`` as
    multisets, that is ``(k, l) = (i, j)`` or ``(k, l) = (j, i)``.  Then every
    generator of the braid ideal stays within the letter content of the word
    it comes from, and each ideal slice is block-diagonal over letter
    multisets.  Every preset braid ``B = Ttilde`` qualifies.
    """
    return not np.any(braid.tensor()[~_content_pattern(braid.dim)])


def graded_part(system: StatisticsSystem) -> tuple[StatisticsSystem, float]:
    """The system with T cut to the graded pattern and B to the content pattern.

    Returns the cut system, for which :func:`is_graded` and
    :func:`preserves_content` hold, and the largest entry magnitude dropped.
    """
    n = system.dim
    cross = np.where(_graded_pattern(n), system.cross.tensor(), 0)
    dropped = max_abs(system.cross.tensor() - cross)
    braid = None
    if system.braid is not None:
        braid = np.where(_content_pattern(n), system.braid.tensor(), 0)
        dropped = max(dropped, max_abs(system.braid.tensor() - braid))
        braid = BraidOperator(braid.reshape(n * n, n * n))
    return StatisticsSystem(cross=CrossOperator(cross.reshape(n * n, n * n)),
                            braid=braid, label=system.label), dropped


def real_part(system: StatisticsSystem) -> tuple[StatisticsSystem, float]:
    """The system with the imaginary parts of T and B dropped, and the largest one dropped.

    The operators keep their complex storage; only the values lose their
    imaginary parts.
    """
    braid, dropped = None, max_abs(system.cross.mat.imag)
    if system.braid is not None:
        braid = BraidOperator(system.braid.mat.real)
        dropped = max(dropped, max_abs(system.braid.mat.imag))
    return StatisticsSystem(cross=CrossOperator(system.cross.mat.real), braid=braid,
                            label=system.label), dropped


#: Per tensor axis ``(k, l, i, j)``: -1 where the slot transforms by conj(u)
#: (E*, or the input of B), +1 where it transforms by u.
_CROSS_SLOTS = (-1, 1, -1, 1)
_BRAID_SLOTS = (-1, -1, 1, 1)


def change_basis(system: StatisticsSystem, w: np.ndarray) -> StatisticsSystem:
    """The same statistics in the basis ``x'_p = sum_j w[j, p] x^j``, for a unitary w.

    E* transforms by ``conj(w)``: T's slots ``(k, l, i, j)`` by
    ``(conj(w), w, conj(w), w)`` and B's by ``(conj(w), conj(w), w, w)``, so
    the matrices become ``K^T T K`` with ``K = conj(w) (x) w`` and ``conj(w
    (x) w)^T B (w (x) w)``.  Every law, Gram spectrum and quotient dimension
    is unchanged.
    """
    pair = np.kron(w, w)
    mixed = np.kron(w.conj(), w)
    braid = None
    if system.braid is not None:
        braid = BraidOperator(pair.conj().T @ system.braid.mat @ pair)
    return StatisticsSystem(cross=CrossOperator(mixed.T @ system.cross.mat @ mixed),
                            braid=braid, label=system.label)


def _hermitian_basis(n: int) -> np.ndarray:
    """The n x n Hermitian matrices, orthonormal under ``Re tr(a^* b)``, stacked."""
    basis = []
    for a in range(n):
        for b in range(a, n):
            for value in ((1.0,) if a == b else (2**-0.5, 1j * 2**-0.5)):
                mat = np.zeros((n, n), dtype=complex)
                mat[a, b] = value
                mat[b, a] = np.conj(value)
                basis.append(mat)
    return np.array(basis)


def _derivation_rows(t4: np.ndarray, acts, chunk: slice) -> np.ndarray:
    """Entries ``[m, s, :, :, :]``, s in ``chunk``, of the derivation of t4 by each X_m.

    ``acts[a][m]`` is the matrix that slot a of t4 is contracted against:
    ``-conj(X_m)`` for a slot that transforms by conj(u), ``+X_m`` for one that
    transforms by u.  One row per output entry whose first index is in the chunk.
    """
    head = t4[chunk]
    d = np.tensordot(acts[0][:, :, chunk], t4, axes=([1], [0]))
    d += np.tensordot(acts[1], head, axes=([1], [1])).transpose(0, 2, 1, 3, 4)
    d += np.tensordot(acts[2], head, axes=([1], [2])).transpose(0, 2, 3, 1, 4)
    d += np.tensordot(acts[3], head, axes=([1], [3])).transpose(0, 2, 3, 4, 1)
    return d.reshape(len(d), -1)


def symmetry_generators(system: StatisticsSystem) -> np.ndarray:
    """The Hermitian X that generate symmetries of T and B, as an orthonormal stack.

    X generates a symmetry when T and B are unchanged in the basis
    ``exp(i theta X)`` for every theta (see :func:`change_basis`), that is when
    their derivations by X vanish: ``-conj(X)`` on the slots that transform by
    ``conj(u)``, ``+X`` on the others.  These are real linear equations in the
    N^2 real coordinates of X, N^4 per operator; the result is a basis of
    their null space, orthonormal under ``Re tr(a^* b)``, shape ``(d, N, N)``.
    The identity is always in it; a graded system has every diagonal X.
    """
    n = system.dim
    herm = _hermitian_basis(n)
    ops = [(system.cross.tensor(), _CROSS_SLOTS)]
    if system.braid is not None:
        ops.append((system.braid.tensor(), _BRAID_SLOTS))
    # The equations arrive for as many first indices s at a time as keep the
    # N^2 x (s N^3) complex rows within _CHUNK_ENTRIES (all of them up to
    # N = 10), and only the triangular factor of their stack is kept: its
    # singular values and right singular vectors are those of the whole
    # stack, without holding N^4 x N^2 entries.
    width = max(1, _CHUNK_ENTRIES // n**5)
    tri = np.zeros((0, n * n))
    for t4, slots in ops:
        acts = [sign * (herm.conj() if sign < 0 else herm) for sign in slots]
        for start in range(0, n, width):
            rows = _derivation_rows(t4, acts, slice(start, start + width))
            tri = np.linalg.qr(np.vstack([tri, rows.real.T, rows.imag.T]), mode="r")
    sv, vh = np.linalg.svd(tri)[1:]
    null = vh[np.count_nonzero(sv > ROUNDING * max(1.0, sv[0])):]
    return np.einsum("dm,mab->dab", null, herm)


def weight_basis(system: StatisticsSystem) -> np.ndarray:
    """A unitary W whose columns are weight vectors of the torus that T and B preserve.

    X is the orthogonal projection of ``diag(1..N)`` onto the span of
    :func:`symmetry_generators`, and W holds its eigenvectors.  For a torus
    in general position the eigenvalues of X can crowd (two of them 1e-3
    apart), which leaves W mixed at well above rounding; so the projection
    is taken once more with ``diag(1..N)`` placed in that first basis, where
    the torus is almost diagonal and the eigenvalues come out near 1..N.
    The columns are ordered by the row of their largest entry, which is made
    real and positive.  Deterministic.  W grades the system when its
    symmetries form a torus of rank N with distinct weights; the caller
    checks that with :func:`graded_part` after :func:`change_basis`.
    """
    n = system.dim
    gens = symmetry_generators(system)
    target = np.diag(np.arange(1.0, n + 1))
    w = eye(n)
    for _ in range(2):
        placed = w @ target @ dagger(w)
        coords = np.einsum("dab,ab->d", gens.conj(), placed).real
        w = np.linalg.eigh(np.einsum("d,dab->ab", coords, gens))[1]
    peaks = np.argmax(np.abs(w), axis=0)
    w = w[:, np.argsort(peaks, kind="stable")]
    top = w[np.sort(peaks), np.arange(n)]
    return w * (top.conj() / np.abs(top))


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


#: Entries of one chunk of complex work arrays (16 MB): the columns of
#: :func:`_three_slot_residual` and the rows of :func:`symmetry_generators`.
_CHUNK_ENTRIES = 2**20


def _three_slot_residual(n: int, lhs, rhs) -> float:
    """Largest entry of ``L - R`` for two products of two-slot operators on E^(x)3.

    ``lhs`` and ``rhs`` list ``(t4, first)`` factors in the order they act:
    ``t4[k, l, i, j]`` maps slots ``(first, first + 1)`` from ``(i, j)`` to
    ``(k, l)``, which is ``t4 (x) 1`` for first 0 and ``1 (x) t4`` for first 1.
    The factors act by ``tensordot`` on chunks of columns of the N^3
    identity, so no N^3 x N^3 matrix is formed.
    """
    dim = n**3
    width = max(1, _CHUNK_ENTRIES // dim)
    worst = 0.0
    for start in range(0, dim, width):
        cols = np.arange(start, min(start + width, dim))
        basis = np.zeros((dim, cols.size), dtype=complex)
        basis[cols, cols - start] = 1.0
        sides = []
        for factors in (lhs, rhs):
            x = basis.reshape(n, n, n, -1)
            for t4, first in factors:
                x = np.tensordot(t4, x, axes=([2, 3], [first, first + 1]))
                x = np.moveaxis(x, (0, 1), (first, first + 1))
            sides.append(x)
        # np.maximum keeps a NaN (an overflowed product), which then fails the check.
        worst = float(np.maximum(worst, max_abs(sides[0] - sides[1])))
    return worst


def _braid_residual(m: np.ndarray) -> float:
    """Largest entry of ``M1 M2 M1 - M2 M1 M2`` with ``M1 = m (x) 1``, ``M2 = 1 (x) m``."""
    n = round(m.shape[0] ** 0.5)
    m4 = m.reshape(n, n, n, n)
    return _three_slot_residual(n, [(m4, 0), (m4, 1), (m4, 0)], [(m4, 1), (m4, 0), (m4, 1)])


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
    t4, b4 = cross.tensor(), braid.tensor()
    # T(1) on slots 1,2 of E* (x) E (x) E, then T(2) on slots 2,3; B(2) on
    # slots 2,3 of E* (x) E (x) E, B(1) on slots 1,2 of E (x) E (x) E*.
    r1 = _three_slot_residual(n, [(t4, 0), (t4, 1), (b4, 0)], [(b4, 1), (t4, 0), (t4, 1)])
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
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return type(value) in (float, int) or isinstance(value, Real) and not isinstance(value, bool)


def _entry_rows(rows, what: str) -> list[tuple]:
    """``(i, j, k, l, value)`` tuples from ``[i, j, k, l, re, im]`` rows."""
    if not isinstance(rows, list):
        raise ValueError(
            f"malformed operator file: {what!r} must be a list of "
            f"[i, j, k, l, re, im] rows, got {type(rows).__name__}"
        )
    entries = []
    for row in rows:
        if isinstance(row, list) and len(row) == 6:
            i, j, k, l, re, im = row
            if (_is_int(i) and _is_int(j) and _is_int(k) and _is_int(l)
                    and _is_real(re) and _is_real(im)):
                try:
                    entries.append((i, j, k, l, complex(re, im)))
                    continue
                except OverflowError:  # integers beyond the float range
                    pass
        raise ValueError(
            f"malformed operator file: {what} row {row!r} is not "
            f"[i, j, k, l, re, im] with integer indices and real numbers"
        )
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
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(
                "malformed operator file: JSON nesting too deep to parse") from None
    return system_from_dict(data)


def dump_system(system: StatisticsSystem) -> str:
    """Deterministic JSON text for a system (sorted keys, no trailing spaces)."""
    return json.dumps(system_to_dict(system), sort_keys=True, indent=2)
