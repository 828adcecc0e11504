"""Command line interface: check, stratify, apply, reconstruct, harness.

Exit codes follow sysexits conventions where they apply: 64 for malformed
arguments, 66 for unreadable or malformed input files (files whose
dimensions do not match among them), 70 for unexpected internal failures.
The check subcommand encodes its verdict as 0 (Coexistent), 1
(NotCoexistent) or 2 (Indeterminate).
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .coexistence import Verdict, decide, mn_to_efg
from .harness import SUITE_NAMES, HarnessConfig, run_all, trial_rng, write_report
from .hermitian import (
    CLASSIFY_TOL,
    DimensionMismatch,
    NotHermitian,
    SpectrumOutOfRange,
    as_effect,
    require_tolerance,
)
from .matrixio import (
    FileFormatError,
    dumps_document,
    matrix_document,
    read_document,
    read_matrix,
    write_document,
    write_matrix,
)
from .preservers import BlockCounterexampleSpec, document_preserver_spec, preserver_handle
from .reconstruction import FIT_TOL, reconstruct, verify_reconstruction
from .strata import classify, freedom_dimension

EX_USAGE = 64
EX_NOINPUT = 66
EX_SOFTWARE = 70

_VERDICT_CODES = {
    Verdict.COEXISTENT: 0,
    Verdict.NOT_COEXISTENT: 1,
    Verdict.INDETERMINATE: 2,
}


# The commands that read --tol; the others, check among them, reject it.
_TOL_COMMANDS = ("stratify", "reconstruct")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_effect(path):
    return as_effect(read_matrix(path))


def _tolerance(text: str) -> float:
    """Value of --tol: a finite number >= 0."""
    try:
        return require_tolerance(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text!r}") from None


def _cmd_check(args) -> int:
    a = _load_effect(args.a)
    b = _load_effect(args.b)
    res = decide(a, b)
    print(f"verdict: {res.verdict.value}")
    print(f"reason: {res.reason.value}")
    print(f"residual: {res.residual:.6g}")
    print(f"iterations: {res.iterations}")
    if args.cert:
        if res.witness is None:
            print("no witness available; certificate not written", file=sys.stderr)
        else:
            m, n = res.witness
            e, f, g = mn_to_efg(m, n, a, b)
            write_document(args.cert, {
                "a": matrix_document(a),
                "b": matrix_document(b),
                "m": matrix_document(m),
                "n": matrix_document(n),
                "e": matrix_document(e),
                "f": matrix_document(f),
                "g": matrix_document(g),
            })
            print(f"certificate written to {args.cert}")
    return _VERDICT_CODES[res.verdict]


def _cmd_stratify(args) -> int:
    e = _load_effect(args.a)
    p, q = classify(e, CLASSIFY_TOL if args.tol is None else args.tol)
    print(f"p: {p}")
    print(f"q: {q}")
    print(f"freedom_dimension: {freedom_dimension(e.dim, p, q)}")
    return 0


def _cmd_apply(args) -> int:
    doc = read_document(args.spec)
    if doc.get("map") != args.map:
        raise UsageError(
            f"spec file holds a {doc.get('map')!r} map, but --map is {args.map!r}")
    spec = document_preserver_spec(doc)
    a = _load_effect(args.a)
    image = preserver_handle(spec)(a)
    if args.out:
        write_matrix(args.out, image)
        print(f"image written to {args.out}")
    else:
        sys.stdout.write(dumps_document(matrix_document(image)))
    return 0


def _cmd_reconstruct(args) -> int:
    spec = document_preserver_spec(read_document(args.map_spec))
    if isinstance(spec, BlockCounterexampleSpec):
        raise UsageError("cannot reconstruct a cross-dimensional map")
    handle = preserver_handle(spec)
    tol = FIT_TOL if args.tol is None else args.tol
    try:
        result = reconstruct(handle, spec.dim, tol)
    except ValueError as exc:
        print(f"reconstruction failed: {exc}", file=sys.stderr)
        return 1
    # trial_rng takes any integer seed; default_rng rejects a negative one.
    rng = trial_rng(args.seed, "reconstruct", 0)
    gap = verify_reconstruction(handle, result, trials=20, seed=rng)
    if not gap <= tol:
        print(f"reconstruction failed: the fit misses the map by {gap:.3g}"
              f" on random effects (tolerance {tol:g})", file=sys.stderr)
        return 1
    print(f"antiunitary: {'true' if result.antiunitary else 'false'}")
    print(f"perp: {'true' if result.perp else 'false'}")
    print(f"residual: {result.residual:.6g}")
    print(f"verify_gap: {gap:.6g}")
    if args.out:
        write_matrix(args.out, result.unitary)
        print(f"unitary written to {args.out}")
    return 0


def _parse_csv(text: str, convert, what: str):
    try:
        return tuple(convert(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise UsageError(f"bad {what}: {exc}") from exc


def _cmd_harness(args) -> int:
    try:
        cfg = HarnessConfig(
            dims=_parse_csv(args.dims, int, "--dims"),
            trials_per_suite=args.trials,
            seed=args.seed,
            suites=_parse_csv(args.suites, str, "--suites") if args.suites else SUITE_NAMES,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = run_all(cfg)
    for section in report["suites"]:
        print(f"suite {section['name']}: {section['trials']} trials,"
              f" {section['passed']} passed, {section['failed']} failed,"
              f" {section['indeterminate']} indeterminate"
              f" (max residual {section['max_residual']:.3g},"
              f" {section['wall_time_s']:.2f} s)")
    totals = report["totals"]
    print(f"totals: {totals['passed']} passed, {totals['failed']} failed,"
          f" {totals['indeterminate']} indeterminate")
    if args.out:
        write_report(report, args.out)
        print(f"report written to {args.out}")
    return 0 if totals["failed"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="effectkit",
                     description="Coexistence of quantum effects: decision "
                                 "procedure, order-structure maps, symmetry "
                                 "reconstruction, property-test harness.")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for anything randomized")
    parser.add_argument("--tol", type=_tolerance, default=None,
                        help="classification (stratify) or fit (reconstruct) tolerance, "
                             "finite and >= 0 (default: the command's own)")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("check", help="decide whether two effects coexist")
    p.add_argument("a", help="matrix file for the first effect")
    p.add_argument("b", help="matrix file for the second effect")
    p.add_argument("--cert", metavar="PATH",
                   help="write the witness certificate document here")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("stratify", help="eigenvalue multiplicities at 1 and 0")
    p.add_argument("a", help="matrix file for the effect")
    p.set_defaults(handler=_cmd_stratify)

    p = sub.add_parser("apply", help="apply a preserver map to an effect")
    p.add_argument("--map", required=True,
                   choices=("standard", "trace-threshold", "block-cx", "ges"))
    p.add_argument("--spec", required=True, help="map spec document")
    p.add_argument("a", help="matrix file for the input effect")
    p.add_argument("--out", metavar="PATH", help="write the image here")
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("reconstruct",
                       help="fit a conjugation to a black-box preserver map")
    p.add_argument("--map-spec", required=True, dest="map_spec",
                   help="map spec document to treat as the black box")
    p.add_argument("--out", metavar="PATH", help="write the fitted unitary here")
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("harness", help="run the property-test campaigns")
    p.add_argument("--dims", default="2,3,4,5",
                   help="comma-separated dimensions (subset of 2..8)")
    p.add_argument("--trials", type=int, default=200, help="trials per suite")
    p.add_argument("--suites", default=None,
                   help=f"comma-separated subset of: {', '.join(SUITE_NAMES)}")
    p.add_argument("--out", metavar="PATH", help="write the report document here")
    p.set_defaults(handler=_cmd_harness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            raise UsageError("a subcommand is required (see --help)")
        if args.tol is not None and args.command not in _TOL_COMMANDS:
            raise UsageError(f"{args.command} takes no tolerance; --tol applies to "
                             f"{' and '.join(_TOL_COMMANDS)}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (OSError, FileFormatError, NotHermitian, SpectrumOutOfRange,
            DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_NOINPUT
    except Exception:
        traceback.print_exc()
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
