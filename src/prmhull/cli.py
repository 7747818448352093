"""Command-line surface: parameter queries, hull bases, EAQECC tables, and
verification sweeps with machine-readable output.

Subcommands:
  params  prm|rm             closed-form [n, k, wt] and duality info
  hull    euclid|hermitian|affine-hermitian
                             closed-form bases, optional oracle verification
  table   asym|herm|affine-herm
                             EAQECC parameter tables (json-lines or csv)
  verify  euclid|hermitian|affine|eaqecc|all
                             invariant sweeps; exit 0 iff exact checks pass

Output is json-lines by default (sorted keys, no timestamps: byte-stable
across runs); tables can be emitted as CSV with the asym column order
q,d1,d2,n,kappa,delta_x,delta_z,c plus a trailing provenance column.
Every emitted number carries a provenance tag (closed_form | oracle |
bound).  Exit codes: 0 pass, 1 verification mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import euclidean_hull as eh
from . import hermitian_hull as hh
from . import quantum as qt
from . import verify as vf
from .codes import DEFAULT_WEIGHT_CAP
from .fields import prime_power
from .polynomials import format_monomial, format_polynomial
from .prm import prm_dual_description, prm_params, rm_dual_degree, rm_params

DEFAULT_GOLDENS = Path("goldens")


def _emit(record: dict, stream=None) -> None:
    print(json.dumps(record, sort_keys=True), file=stream or sys.stdout)


def _parse_q_list(text: str) -> list[int]:
    try:
        qs = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad field-size list {text!r}") from exc
    if not qs:
        raise argparse.ArgumentTypeError("empty field-size list")
    return qs


def _parse_cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad message cap {text!r}") from exc
    if cap < 0:
        raise argparse.ArgumentTypeError(f"message cap must be >= 0; got {cap}")
    return cap


class _UsageError(Exception):
    """An argument list the parser refused; `main` reports it as a JSON record."""

    def __init__(self, prog: str, message: str):
        super().__init__(message)
        # a subparser's prog is "prmhull <command> ...", the top level's "prmhull"
        words = prog.split()
        self.command = words[1] if len(words) > 1 else None


class _Parser(argparse.ArgumentParser):
    """argparse that raises _UsageError where it would print usage and exit 2.

    Subparsers inherit the class.  `--help` still prints and exits 0.
    """

    def error(self, message: str):
        raise _UsageError(self.prog, message)


def _check_field_sizes(q: int | list[int]) -> None:
    """Refuse each --q that is not a prime power, before any field is built."""
    for size in q if isinstance(q, list) else [q]:
        prime_power(size)


# -- params -------------------------------------------------------------------


def cmd_params(args) -> int:
    q, m, d = args.q, args.m, args.d
    if args.family == "prm":
        p = prm_params(q, m, d)
        dual = prm_dual_description(q, m, d)
        dual_info = {
            "dual_degree": dual.dual_degree,
            "dual_extra_all_ones": dual.extra_all_ones,
        }
    else:
        p = rm_params(q, m, d)
        dual_info = {"dual_degree": rm_dual_degree(q, m, d)}
    record = {
        "command": "params",
        "family": args.family,
        "q": q,
        "m": m,
        "d": d,
        "n": p.n,
        "k": p.k,
        "wt": p.wt,
        **dual_info,
        "provenance": {"n": "closed_form", "k": "closed_form", "wt": "closed_form"},
    }
    _emit(record)
    return 0


# -- hull ---------------------------------------------------------------------


def cmd_hull_euclid(args) -> int:
    q, d1, d2 = args.q, args.d1, args.d2
    if args.extended_dual:
        if args.verify or args.intersection_only:
            raise ValueError("--extended-dual takes neither --verify nor --intersection-only")
        oracle = eh.extended_dual_hull_oracle(q, d1, d2)
        _emit(
            {
                "command": "hull-euclid",
                "q": q,
                "d1": d1,
                "d2": d2,
                "extended_dual": True,
                "dimension": oracle.k,
                "provenance": {"dimension": "oracle"},
            }
        )
        return 0
    report = eh.hull_report(q, d1, d2, allow_self_dual_degree=args.intersection_only)
    basis = report["basis"]
    record = {
        "command": "hull-euclid",
        "q": q,
        "d1": report["d1"],
        "d2": report["d2"],
        "congruent": report["congruent"],
        "hull_readable": report["hull_readable"],
        "dimension": report["dimension"],
        "hull_of": report["hull_of"],
        "basis": [format_polynomial(p) for p in basis.polynomials()],
        "provenance": {"dimension": "closed_form"},
    }
    if args.verify:
        chk = eh.verify_relative_hull(q, report["d1"], report["d2"])
        record["oracle_dim"] = chk.oracle_dim
        record["basis_spans"] = chk.basis_spans
        record["verified"] = chk.ok
        record["provenance"]["oracle_dim"] = "oracle"
        _emit(record)
        return 0 if chk.ok else 1
    _emit(record)
    return 0


def cmd_hull_hermitian(args) -> int:
    q, d = args.q, args.d
    basis = hh.hermitian_hull_basis(q, d)
    dim = hh.hermitian_hull_dim(q, d)
    record = {
        "command": "hull-hermitian",
        "q": q,
        "d": d,
        "mode": basis.mode,
        "u_size": len(basis.set_u),
        "v_size": len(basis.set_v),
        "w_size": len(basis.set_w),
        "dimension": dim.value,
        "exact": dim.exact,
        "u": [format_monomial(m) for m in basis.set_u],
        "v": [format_monomial(m) for m in basis.set_v],
        "w": [format_polynomial(p) for p in basis.set_w],
        "provenance": {"dimension": "closed_form" if dim.exact else "bound"},
    }
    if args.verify:
        chk = hh.verify_hermitian_hull(q, d)
        record["oracle_dim"] = chk.oracle_dim
        record["tight"] = chk.spans_or_bound_tight
        record["contained"] = chk.contained
        record["independent"] = chk.independent
        record["verified"] = chk.ok
        record["provenance"]["oracle_dim"] = "oracle"
        _emit(record)
        return 0 if chk.ok else 1
    _emit(record)
    return 0


def cmd_hull_affine_hermitian(args) -> int:
    q, d = args.q, args.d
    monos = hh.affine_hull_monomials(q, d, d)
    record = {
        "command": "hull-affine-hermitian",
        "q": q,
        "d": d,
        "dimension": len(monos),
        "formula_dimension": hh.affine_u_size(q, d).total,
        "self_orthogonal": d <= 2 * (q - 1) - 1,
        # the affine monomial x1^a1 x2^a2; position 0 of a monomial is x0
        "basis": [format_monomial((0,) + m) or "1" for m in monos],
        "provenance": {"dimension": "closed_form"},
    }
    if args.verify:
        oracle = hh.affine_hull_oracle(q, d, d)
        record["oracle_dim"] = oracle.k
        record["verified"] = oracle.k == len(monos) == record["formula_dimension"]
        record["provenance"]["oracle_dim"] = "oracle"
        _emit(record)
        return 0 if record["verified"] else 1
    _emit(record)
    return 0


# -- tables ---------------------------------------------------------------------


ASYM_COLUMNS = ["q", "d1", "d2", "n", "kappa", "delta_x", "delta_z", "c"]
HERM_COLUMNS = ["q", "d", "n", "kappa", "delta_lower_bound", "c"]


def _asym_rows(qs: list[int]) -> list[dict]:
    rows = []
    for q in qs:
        for d1, d2, p in qt.asym_table_rows(q):
            rows.append(
                {
                    "q": q,
                    "d1": d1,
                    "d2": d2,
                    "n": p.n,
                    "kappa": p.kappa,
                    "delta_x": p.delta_x,
                    "delta_z": p.delta_z,
                    "c": p.c,
                    "pure": p.pure,
                    "provenance": {
                        c: "closed_form" for c in ("n", "kappa", "delta_x", "delta_z", "c")
                    },
                }
            )
    return rows


def _herm_rows(qs: list[int], first_degree: int, params) -> list[dict]:
    """Rows of a Hermitian-construction table, degrees first_degree..q^2-2."""
    rows = []
    for q in qs:
        for d in range(first_degree, q * q - 1):
            p = params(q, d)
            c_source = "bound" if p.c_is_bound else "closed_form"
            rows.append(
                {
                    "q": q,
                    "d": d,
                    "n": p.n,
                    "kappa": p.kappa,
                    "delta_lower_bound": p.delta,
                    "c": p.c,
                    "provenance": {
                        "n": "closed_form",
                        "kappa": c_source,
                        "delta_lower_bound": "bound",
                        "c": c_source,
                    },
                }
            )
    return rows


def _csv_provenance(provenance: dict) -> str:
    """The CSV cell: "closed_form" when every value is, else the c and delta sources."""
    if set(provenance.values()) == {"closed_form"}:
        return "closed_form"
    return f"c:{provenance['c']};delta:{provenance['delta_lower_bound']}"


def cmd_table(args) -> int:
    if args.kind == "asym":
        rows, columns = _asym_rows(args.q), ASYM_COLUMNS
    elif args.kind == "herm":
        rows, columns = _herm_rows(args.q, 1, qt.herm_eaqecc_prm), HERM_COLUMNS
    else:  # affine-herm
        rows, columns = _herm_rows(args.q, 0, qt.herm_eaqecc_rm), HERM_COLUMNS

    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns + ["provenance"])
        for row in rows:
            writer.writerow([row[c] for c in columns] + [_csv_provenance(row["provenance"])])
        return 0
    for row in rows:
        _emit({"command": f"table-{args.kind}", **row})
    return 0


# -- verify ---------------------------------------------------------------------


def cmd_verify(args) -> int:
    scope = args.scope
    for flag, given in (("--herm", args.herm), ("--purity", args.purity)):
        if given and scope not in ("eaqecc", "all"):
            raise ValueError(f"{flag} acts only under the eaqecc and all scopes, not {scope}")
    if args.cap is not None and not args.purity:
        raise ValueError("--cap acts only with --purity")
    calls: list[vf.Call] = []  # (sweep, q, kwargs), in output order

    def run(sweep, qs, **kwargs):
        calls.extend((sweep, q, kwargs) for q in qs)

    # under scope "all" each sweep is clamped to its intended field range
    # (the Hermitian sweeps live over GF(q^2) and grow fast)
    if scope in ("euclid", "all"):
        run(vf.euclid_sweep, args.q or [3, 4, 5, 7, 8, 9])
    if scope in ("hermitian", "all"):
        qs = args.q or [2, 3, 4]
        run(vf.hermitian_sweep, [q for q in qs if q <= 4] if scope == "all" else qs)
    if scope in ("affine", "all"):
        qs = args.q or [2, 3]
        run(vf.affine_sweep, [q for q in qs if q <= 3] if scope == "all" else qs)
    if scope in ("eaqecc", "all"):
        qs = args.q or [4, 5, 9]
        run(vf.eaqecc_euclid_sweep, qs)
        calls.append(
            (vf.reference_table_check, qs, {"golden_path": Path(args.goldens) / "table1.csv"})
        )
        if args.herm:
            herm_qs = [q for q in qs if q <= 4]
            run(vf.eaqecc_herm_sweep, herm_qs)
            run(vf.herm_reference_warn, herm_qs)
        if args.purity:
            run(vf.purity_sweep, qs, cap=DEFAULT_WEIGHT_CAP if args.cap is None else args.cap)
    records = vf.run_sweeps(calls)

    for record in records:
        _emit(record)
    failures = sum(1 for r in records if r["status"] == "fail")
    summary = {
        "check": "summary",
        "scope": scope,
        "records": len(records),
        "failures": failures,
        "warnings": sum(1 for r in records if r["status"] == "warn"),
        "status": "fail" if failures else "pass",
    }
    _emit(summary)
    return 1 if failures else 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prmhull",
        description=(
            "Plane projective/affine Reed-Muller codes, their Euclidean and "
            "Hermitian hulls, and the derived EAQECC parameters."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="closed-form code parameters")
    p_params.add_argument("family", choices=["prm", "rm"])
    p_params.add_argument("--q", type=int, required=True)
    p_params.add_argument("--m", type=int, default=2)
    p_params.add_argument("--d", type=int, required=True)
    p_params.set_defaults(func=cmd_params)

    p_hull = sub.add_parser("hull", help="hull bases and dimensions")
    hull_sub = p_hull.add_subparsers(dest="kind", required=True)

    p_he = hull_sub.add_parser("euclid", help="PRM_d1 cap PRM_d2 over GF(q)")
    p_he.add_argument("--q", type=int, required=True)
    p_he.add_argument("--d1", type=int, required=True)
    p_he.add_argument("--d2", type=int, required=True)
    p_he.add_argument("--verify", action="store_true")
    p_he.add_argument(
        "--intersection-only",
        action="store_true",
        help="report the intersection even when a degree equals q-1",
    )
    p_he.add_argument(
        "--extended-dual",
        action="store_true",
        help=(
            "treat --d2 as the partner code degree and compute the oracle "
            "hull against its true (possibly extended, non-PRM) dual"
        ),
    )
    p_he.set_defaults(func=cmd_hull_euclid)

    p_hh = hull_sub.add_parser("hermitian", help="Hermitian hull over GF(q^2)")
    p_hh.add_argument("--q", type=int, required=True, help="base field size q")
    p_hh.add_argument("--d", type=int, required=True)
    p_hh.add_argument("--verify", action="store_true")
    p_hh.set_defaults(func=cmd_hull_hermitian)

    p_ha = hull_sub.add_parser(
        "affine-hermitian", help="Hermitian hull of RM_d over GF(q^2)"
    )
    p_ha.add_argument("--q", type=int, required=True, help="base field size q")
    p_ha.add_argument("--d", type=int, required=True)
    p_ha.add_argument("--verify", action="store_true")
    p_ha.set_defaults(func=cmd_hull_affine_hermitian)

    p_table = sub.add_parser("table", help="EAQECC parameter tables")
    p_table.add_argument("kind", choices=["asym", "herm", "affine-herm"])
    p_table.add_argument("--q", type=_parse_q_list, required=True)
    p_table.add_argument("--format", choices=["json", "csv"], default="json")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="invariant sweeps vs the oracle")
    p_verify.add_argument(
        "scope", choices=["euclid", "hermitian", "affine", "eaqecc", "all"]
    )
    p_verify.add_argument("--q", type=_parse_q_list, default=None)
    p_verify.add_argument("--herm", action="store_true")
    p_verify.add_argument("--purity", action="store_true")
    p_verify.add_argument("--cap", type=_parse_cap, default=None)
    p_verify.add_argument("--goldens", default=str(DEFAULT_GOLDENS))
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        _emit({"command": exc.command, "error": str(exc)}, stream=sys.stderr)
        return 2
    try:
        if args.q is not None:
            _check_field_sizes(args.q)
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        _emit({"command": args.command, "error": str(exc)}, stream=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
