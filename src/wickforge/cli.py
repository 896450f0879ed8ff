"""Command-line front end.

Subcommands: validate, gram, kernel, quotient, normal-order, catalog.  The
system under study comes either from an operator file (--file) or from a
preset (--preset, with --dim / --q / --phi).  Exit codes: 0 success, 1 failed
checks, 2 usage error, 3 sector size limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .catalog import PRESET_NAMES, make_preset
from .errors import (
    ExpressionSyntaxError,
    InvalidParams,
    NoBraid,
    NotHermitian,
    NotWellDefined,
    SizeLimit,
    SpeciesOutOfRange,
)
from .fock import (
    descended_operators,
    p2_kernel,
    quotient_sector,
    sector_report,
    sector_spectrum,
)
from .linalg import max_abs, resolve_eps
from .operators import StatisticsSystem, dump_system, load_system, validate_system
from .wick import evaluation_blocks, format_expression, normal_order, parse_expression


def _env_eps() -> float | None:
    raw = os.environ.get("WICKFORGE_EPS")
    if not raw:
        return None
    try:
        return resolve_eps(float(raw))
    except ValueError:
        raise InvalidParams(
            f"WICKFORGE_EPS must be a positive finite number, got {raw!r}") from None


def _sectors_upto(max_sector: int) -> range:
    if max_sector < 0:
        raise InvalidParams(f"--max-sector must be >= 0, got {max_sector}")
    return range(max_sector + 1)


def _parse_phi(text: str, dim: int):
    values = [float(v) for v in text.split(",") if v.strip() != ""]
    if len(values) == 1:
        return values[0]
    if len(values) == dim * dim:
        return np.array(values).reshape(dim, dim)
    raise InvalidParams(
        f"--phi needs one angle or {dim * dim} row-major entries, got {len(values)}"
    )


def _resolve_system(args) -> StatisticsSystem:
    if args.file is not None:
        return load_system(args.file)
    name = args.preset
    if name == "quon" and args.q is None:
        raise InvalidParams("preset quon requires --q")
    if name == "phase" and args.phi is None:
        raise InvalidParams("preset phase requires --phi")
    phi = _parse_phi(args.phi, args.dim) if args.phi is not None else None
    return make_preset(name, args.dim, q=args.q, phi=phi)


def _add_system_args(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", help="operator-file JSON path")
    group.add_argument("--preset", choices=PRESET_NAMES, help="built-in system")
    sub.add_argument("--dim", type=int, default=2, help="species count N (presets)")
    sub.add_argument("--q", type=float, default=None, help="quon deformation")
    sub.add_argument("--phi", default=None,
                     help="phase angles: one value or N*N row-major CSV")


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_validate(args) -> int:
    system = _resolve_system(args)
    report = validate_system(system, args.eps)
    lines = [f"system: {report.label}"]
    for check in report.checks:
        lines.append(
            f"{check.name:<20} {check.status:<8} {check.residual:.3e}  {check.detail}"
        )
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    _emit(report.to_dict(), args.json, lines)
    return 0 if report.passed else 1


def _cmd_gram(args) -> int:
    system = _resolve_system(args)
    eps = resolve_eps(args.eps)
    report = sector_report(system, args.sector, quotient=args.quotient, eps=eps)
    spectrum = [float(v) for v in
                sector_spectrum(system, args.sector, eps, quotient=args.quotient)]
    payload = dict(report)
    payload["label"] = system.label
    payload["spectrum"] = spectrum
    lines = [
        f"system: {system.label}  sector: {report['sector']}  dim: {report['dim']}"
        f"  quotient_dim: {report['quotient_dim']}",
        f"spectrum: {spectrum}",
        f"min_eig: {report['min_eig']}  kernel_dim: {report['kernel_dim']}",
        f"positive_semidefinite: {report['checks']['positive_semidefinite']}"
        f"  positive_definite: {report['checks']['positive_definite']}",
    ]
    _emit(payload, args.json, lines)
    return 0


def _cmd_kernel(args) -> int:
    system = _resolve_system(args)
    basis = p2_kernel(system, args.eps)
    vectors = [
        [[float(v.real), float(v.imag)] for v in basis[:, col]]
        for col in range(basis.shape[1])
    ]
    payload = {
        "label": system.label,
        "dim": system.dim,
        "kernel_dim": basis.shape[1],
        "basis": vectors,
    }
    lines = [
        f"system: {system.label}",
        f"kernel of id + Ttilde: dimension {basis.shape[1]}",
    ]
    for col, vec in enumerate(vectors):
        lines.append(f"v{col}: {vec}")
    _emit(payload, args.json, lines)
    return 0


def _cmd_quotient(args) -> int:
    system = _resolve_system(args)
    eps = resolve_eps(args.eps)
    sectors = []
    # The top sector first: an oversized range is refused before the smaller
    # sectors are computed.
    for n in reversed(_sectors_upto(args.max_sector)):
        well = True
        detail = ""
        for i in range(1, system.dim + 1):
            try:
                descended_operators(system, i, n, eps)
            except NotWellDefined as exc:
                well = False
                detail = str(exc)
                break
        sectors.append({
            "sector": n,
            "dim": system.dim**n,
            "quotient_dim": quotient_sector(system, n, eps).quotient.dim,
            "well_defined": well,
            "detail": detail,
        })
    sectors.reverse()
    all_ok = all(row["well_defined"] for row in sectors)
    payload = {"label": system.label, "sectors": sectors, "well_defined": all_ok}
    lines = [f"system: {system.label}"]
    for row in sectors:
        lines.append(
            f"sector {row['sector']}: dim {row['dim']}  quotient_dim "
            f"{row['quotient_dim']}  well_defined {row['well_defined']}"
            + (f"  ({row['detail']})" if row["detail"] else "")
        )
    lines.append(f"result: {'PASS' if all_ok else 'FAIL'}")
    _emit(payload, args.json, lines)
    return 0 if all_ok else 1


def _cmd_normal_order(args) -> int:
    system = _resolve_system(args)
    eps = resolve_eps(args.eps)
    sectors = _sectors_upto(args.max_sector)
    expr = parse_expression(args.expr, system.dim)
    nf = normal_order(expr, system)
    text = format_expression(nf)
    worst = None
    if args.verify:
        residuals = []
        for n in reversed(sectors):  # the top sector first, as in quotient
            lhs = evaluation_blocks(expr, system, n)
            rhs = evaluation_blocks(nf, system, n)
            for key in set(lhs) | set(rhs):
                left = lhs[key].pieces if key in lhs else {}
                right = rhs[key].pieces if key in rhs else {}
                # Entries outside the pieces are zero on both sides.
                for piece in set(left) | set(right):
                    residuals.append(max_abs(left.get(piece, 0) - right.get(piece, 0)))
        # np.max keeps a NaN residual, which then fails the check below.
        worst = float(np.max(residuals, initial=0.0))
    payload = {
        "label": system.label,
        "input": args.expr,
        "normal_form": text,
        "verify_residual": worst,
    }
    lines = [text]
    if worst is not None:
        lines.append(f"verify: max residual {worst:.3e} over sectors 0..{args.max_sector}")
    _emit(payload, args.json, lines)
    if worst is not None and not worst <= eps:
        return 1
    return 0


def _cmd_catalog(args) -> int:
    text = dump_system(_resolve_system(args))
    if args.emit == "-":
        print(text)
    else:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wickforge",
        description="Validate generalized-statistics operators and build their Fock sectors.",
    )
    parser.add_argument("--eps", type=float, default=None,
                        help="equality tolerance (default 1e-9 or $WICKFORGE_EPS)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run every algebraic law check")
    _add_system_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gram", help="Gram spectrum and positivity for one sector")
    _add_system_args(p)
    p.add_argument("--sector", type=int, required=True)
    p.add_argument("--quotient", action="store_true",
                   help="use the braid-quotient representatives")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("kernel", help="kernel of id + Ttilde on degree 2")
    _add_system_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("quotient", help="quotient dimensions and descended operators")
    _add_system_args(p)
    p.add_argument("--max-sector", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("normal-order", help="normal-order an operator expression")
    _add_system_args(p)
    p.add_argument("expr", help="expression text, e.g. 'a(1) c(1)'")
    p.add_argument("--verify", action="store_true",
                   help="compare with the input on Fock sectors")
    p.add_argument("--max-sector", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_normal_order)

    p = sub.add_parser("catalog", help="emit a preset as an operator file")
    p.add_argument("--preset", choices=PRESET_NAMES, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--phi", default=None)
    p.add_argument("--emit", nargs="?", const="-", default="-",
                   help="output path, or stdout by default")
    p.set_defaults(func=_cmd_catalog, file=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.eps = _env_eps() if args.eps is None else resolve_eps(args.eps)
        # An overflow shows as inf or NaN, which every verdict checks for, so
        # numpy's warnings about it would only repeat the verdict on stderr.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except SizeLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidParams, ExpressionSyntaxError, SpeciesOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoBraid, NotWellDefined, NotHermitian) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
