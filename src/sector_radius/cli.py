"""Command line interface.

Subcommands: ``compute`` for radii, ranges, and sector data of a matrix
file; ``gen`` for seeded random matrix files; ``verify`` for the
randomized certified inequality suite; ``tighten`` for ratio scans;
``explain`` for the statement behind an identifier.  ``verify`` exits 0
exactly when no check certified a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .generator import (
    GenConfig,
    random_accretive_dissipative,
    random_ginibre,
    random_pd,
    random_sectorial,
    random_unitary,
)
from .harness import (
    DEFAULT_CONTEXT,
    DEFAULT_DIMS,
    DEFAULT_NORMS,
    InequalityId,
    all_ids,
    explain,
    run_suite,
    tightness_scan,
)
from .linalg import cartesian_decompose, pd_certificate, read_matrix, write_matrix
from .norms import parse_norm
from .radius import DEFAULT_REFINE_TOL, numerical_range_boundary, omega, omega_n
from .sectorial import rotation_to_sector, sector_index


def _parse_dims(text: str) -> list[int]:
    """Parse "2,3,4" or "2..6" or a mix like "2..4,6"."""
    dims: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_s, hi_s = part.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise argparse.ArgumentTypeError(f"bad range {part!r}")
            dims.extend(range(lo, hi + 1))
        else:
            dims.append(int(part))
    if not dims:
        raise argparse.ArgumentTypeError(f"no dimensions in {text!r}")
    return dims


def _parse_ids(text: str):
    if text.strip() == "all":
        return "all"
    ids = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            ids.append(InequalityId(part))
        except ValueError:
            known = ", ".join(i.value for i in all_ids())
            raise argparse.ArgumentTypeError(f"unknown id {part!r}; known ids: {known}")
    if not ids:
        raise argparse.ArgumentTypeError("empty id list")
    return ids


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _estimate_json(est) -> str:
    return json.dumps(
        {"value": est.value, "theta_star": est.theta_star, "cert_error": est.cert_error},
        indent=2,
        sort_keys=True,
    )


def _cmd_compute(args) -> int:
    X = read_matrix(args.input)
    if args.what == "omega":
        _emit(_estimate_json(omega(X, refine_tol=args.refine_tol)), args.output)
    elif args.what == "omega-n":
        spec = parse_norm(args.norm)
        _emit(_estimate_json(omega_n(spec, X, refine_tol=args.refine_tol)), args.output)
    elif args.what == "range":
        thetas, points = numerical_range_boundary(X, args.samples)
        lines = ["theta,re,im"]
        lines += [f"{t!r},{z.real!r},{z.imag!r}" for t, z in zip(thetas.tolist(), points.tolist())]
        _emit("\n".join(lines), args.output)
    elif args.what == "sector-index":
        _emit(_sector_json(X, sector_index(X)), args.output)
    elif args.what == "sector-rotation":
        _emit(_sector_json(X, rotation_to_sector(X)), args.output)
    return 0


def _sector_json(X, info) -> str:
    """Sector data of X, with whether ``pd_certificate`` certifies X itself
    accretive and lambda_min of Re(zX) = Re(z) Re X - Im(z) Im X at the
    witness z."""
    A, B = cartesian_decompose(X)
    z = info.rotation_z
    return json.dumps(
        {
            "accretive": bool(pd_certificate(A)[0]),
            "alpha": info.index_alpha,
            "z_re": z.real,
            "z_im": z.imag,
            "lambda_min_re": float(np.linalg.eigvalsh(z.real * A - z.imag * B)[0]),
        },
        indent=2,
        sort_keys=True,
    )


def _cmd_gen(args) -> int:
    cfg = GenConfig(args.n, args.seed, args.scale)
    if args.kind == "ginibre":
        X = random_ginibre(cfg)
    elif args.kind == "pd":
        X = random_pd(cfg)
    elif args.kind == "sectorial":
        X = random_sectorial(cfg, args.alpha)
    elif args.kind == "accretive-dissipative":
        X = random_accretive_dissipative(cfg)
    else:
        X = random_unitary(cfg)
    write_matrix(args.output, X)
    return 0


def _cmd_verify(args) -> int:
    context = replace(DEFAULT_CONTEXT, m_fold=args.m)
    norms = [parse_norm(t) for t in args.norms.split(",") if t.strip()]
    report = run_suite(
        args.ids,
        args.trials,
        args.dims,
        norms,
        args.seed,
        context=context,
    )
    if args.out:
        _emit(report.to_json(), args.out)
    for ineq_id, summary in report.per_id.items():
        v = summary.verdicts
        ratio = "-" if summary.max_ratio is None else f"{summary.max_ratio:.6f}"
        print(
            f"{ineq_id:>18}: {v['certified_pass']:4d} certified, {v['tolerance_pass']:3d} tolerance, "
            f"{v['certified_fail']:3d} fail, {v['inconclusive']:3d} inconclusive, "
            f"{v['inapplicable']:3d} inapplicable | max ratio {ratio}"
        )
    print(
        f"total certified_fail: {report.certified_fail_total} "
        f"({report.wall_time_s:.1f} s, {len(report.results)} checks)"
    )
    return 0 if report.ok else 1


def _cmd_tighten(args) -> int:
    report = tightness_scan(args.id, args.trials, args.seed)
    summary = report.per_id[args.id]
    if args.out:
        _emit(report.to_json(), args.out)
    ratio = "-" if summary.max_ratio is None else f"{summary.max_ratio:.9f}"
    print(f"{args.id}: max ratio {ratio} over {summary.trials} checks")
    return 0


def _cmd_explain(args) -> int:
    print(explain(args.id), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sector-radius",
        description="Numerical radius computations and certified inequality checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute radii, ranges, or sector data")
    p_compute.add_argument(
        "what",
        choices=["omega", "omega-n", "range", "sector-index", "sector-rotation"],
    )
    p_compute.add_argument("-i", "--input", required=True, help="matrix JSON file")
    p_compute.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p_compute.add_argument("--norm", default="op", help="norm spec: op|tr|fro|sp:<p>")
    p_compute.add_argument("--refine-tol", type=float, default=DEFAULT_REFINE_TOL)
    p_compute.add_argument("--samples", type=int, default=720)
    p_compute.set_defaults(func=_cmd_compute)

    p_gen = sub.add_parser("gen", help="generate a seeded random matrix file")
    p_gen.add_argument(
        "kind",
        choices=["ginibre", "pd", "sectorial", "accretive-dissipative", "unitary"],
    )
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--scale", type=float, default=1.0)
    p_gen.add_argument("--alpha", type=float, default=0.0, help="sector half-width (sectorial)")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_verify = sub.add_parser("verify", help="run the randomized certified suite")
    p_verify.add_argument("--ids", type=_parse_ids, default="all")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--dims", type=_parse_dims, default=list(DEFAULT_DIMS))
    p_verify.add_argument("--norms", default=",".join(n.label for n in DEFAULT_NORMS))
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--m", type=int, default=DEFAULT_CONTEXT.m_fold, help="inputs per m-fold id")
    p_verify.add_argument("--out", default=None, help="write the full JSON report here")
    p_verify.set_defaults(func=_cmd_verify)

    p_tighten = sub.add_parser("tighten", help="scan the maximum lhs/rhs ratio of one id")
    p_tighten.add_argument("--id", required=True)
    p_tighten.add_argument("--trials", type=int, default=1000)
    p_tighten.add_argument("--seed", type=int, default=0)
    p_tighten.add_argument("--out", default=None)
    p_tighten.set_defaults(func=_cmd_tighten)

    p_explain = sub.add_parser("explain", help="print the statement behind an id")
    p_explain.add_argument("--id", required=True)
    p_explain.set_defaults(func=_cmd_explain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
