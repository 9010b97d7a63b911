"""Command-line entry point.

Verbs: ``verify <suite>`` runs a named check suite and writes a JSON
report; ``report merge`` combines report documents.  Exit codes: 0 all
checks passed, 1 at least one check failed, 2 usage or runtime error (a
grid too large for memory included).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .io import write_report_document, merge_report_documents
from .suites import SUITES, run_suite


def _positive(kind):
    """Argument type for a finite number above zero, of type ``kind``."""
    def parse(text):
        value = kind(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(
                f"must be a finite number above 0, got {text}")
        return value
    parse.__name__ = kind.__name__   # argparse's "invalid float value"
    return parse


@functools.cache      # parse_args keeps no state: one parser per process
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ellipticlab")
    sub = p.add_subparsers(dest="verb", required=True)

    v = sub.add_parser("verify", help="run a named check suite")
    v.add_argument("suite",
                   choices=sorted(SUITES) + ["full"])
    v.add_argument("--out", default=None, help="write the JSON report here")
    v.add_argument("--h", type=_positive(float), default=None,
                   help="grid spacing, for a suite that has one")
    v.add_argument("--n-samples", type=_positive(int), default=None,
                   help="walks per start, for a suite that draws walks")

    r = sub.add_parser("report", help="report utilities")
    rsub = r.add_subparsers(dest="action", required=True)
    m = rsub.add_parser("merge", help="merge report documents")
    m.add_argument("paths", nargs="+")
    m.add_argument("--out", required=True)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.verb == "verify":
            opts = {k: getattr(args, k) for k in ("h", "n_samples")
                    if getattr(args, k) is not None}
            reports = run_suite(args.suite, **opts)
            for rep in reports:
                c = rep.constants
                linear = sum(c.get("linear_iterations", []))    # GMRES's
                solver = (f" iterations={c['iterations']}"
                          + (f" linear_iterations={linear}" if linear else "")
                          + f" converged={c['converged']}"
                          if "converged" in c else "")
                print(f"[{rep.status.upper()}] {rep.name}: "
                      f"lhs={rep.lhs:.6g} rhs={rep.rhs:.6g} "
                      f"margin={rep.margin:.3g} tol={rep.tol:.3g}{solver}")
            if args.out:
                write_report_document(reports, args.out,
                                      meta={"suite": args.suite})
            return 0 if all(r.passed for r in reports) else 1
        doc = merge_report_documents(args.paths)   # report's one action
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, allow_nan=False)
        print(f"merged {len(args.paths)} documents -> {args.out}")
        return 0
    except (KeyError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
