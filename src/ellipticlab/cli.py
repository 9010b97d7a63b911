"""Command-line entry point.

Verbs: ``verify <suite>`` runs a named check suite and writes a JSON
report; ``generate <family>`` writes a closed-form field; ``plot-data
<kind>`` emits plain data series; ``report merge`` combines report
documents.  Exit codes: 0 all checks passed, 1 at least one check
failed, 2 usage or runtime error (a grid too large for memory
included).
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .io import write_field, write_report_document, merge_report_documents
from .suites import SUITES, run_suite, generate_field, plot_data


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


def _key_value(text):
    """Argument type for ``key=value``, as a ``(key, value)`` pair."""
    key, sep, value = text.partition("=")
    if not (key and sep):
        raise argparse.ArgumentTypeError(f"must be key=value, got {text!r}")
    return key, value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ellipticlab")
    sub = p.add_subparsers(dest="verb", required=True)

    v = sub.add_parser("verify", help="run a named check suite")
    v.add_argument("suite",
                   choices=sorted(SUITES) + ["full"])
    v.add_argument("--out", default=None, help="write the JSON report here")
    v.add_argument("--h", type=_positive(float), default=None,
                   help="grid spacing (not with full or coverings)")
    v.add_argument("--n-samples", type=_positive(int), default=None,
                   help="walks per start (probabilistic and full only)")

    g = sub.add_parser("generate", help="write a closed-form field")
    g.add_argument("family")
    g.add_argument("--out", required=True)
    g.add_argument("--h", type=_positive(float), default=1 / 64)
    g.add_argument("--dim", type=int, choices=(1, 2, 3), default=2)
    g.add_argument("--radius", type=_positive(float), default=1.1)
    g.add_argument("--binary", action="store_true")
    g.add_argument("--param", type=_key_value, action="append", default=[],
                   help="extra key=value passed to the family")

    d = sub.add_parser("plot-data", help="emit plain data series as JSON")
    d.add_argument("kind")
    d.add_argument("--out", default=None)
    d.add_argument("--h", type=_positive(float), default=None)

    r = sub.add_parser("report", help="report utilities")
    rsub = r.add_subparsers(dest="action", required=True)
    m = rsub.add_parser("merge", help="merge report documents")
    m.add_argument("paths", nargs="+")
    m.add_argument("--out", required=True)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.verb == "verify":
            # an option that the suite would ignore is an error
            if args.h is not None and args.suite in ("full", "coverings"):
                raise ValueError(
                    f"--h cannot be used with {args.suite}: each suite has "
                    f"its own spacing, a walk takes about h^-2 steps, and "
                    f"the coverings suite has no spacing")
            if args.n_samples is not None \
                    and args.suite not in ("probabilistic", "full"):
                raise ValueError(f"--n-samples cannot be used with "
                                 f"{args.suite}: only the probabilistic "
                                 f"suite draws walks")
            opts = {}
            if args.h is not None:
                opts["h"] = args.h
            if args.n_samples is not None:
                opts["n_samples"] = args.n_samples
            reports = run_suite(args.suite, opts)
            for rep in reports:
                c = rep.constants
                solver = (f" iterations={c['iterations']} converged="
                          f"{c['converged']}" if "converged" in c else "")
                print(f"[{rep.status.upper()}] {rep.name}: "
                      f"lhs={rep.lhs:.6g} rhs={rep.rhs:.6g} "
                      f"margin={rep.margin:.3g} tol={rep.tol:.3g}{solver}")
            if args.out:
                write_report_document(reports, args.out,
                                      meta={"suite": args.suite})
            return 0 if all(r.passed for r in reports) else 1
        if args.verb == "generate":
            kw = {}
            for k, v in args.param:
                try:
                    kw[k] = float(v)
                except ValueError:
                    kw[k] = v
            try:
                fld = generate_field(args.family, h=args.h, dim=args.dim,
                                     radius=args.radius, **kw)
            except TypeError as exc:
                raise ValueError(f"family {args.family!r} cannot use the "
                                 f"--param values {kw}: {exc}") from exc
            write_field(fld, args.out, binary=args.binary)
            print(f"wrote {args.out}")
            return 0
        if args.verb == "plot-data":
            opts = {"h": args.h} if args.h is not None else {}
            data = plot_data(args.kind, opts)
            text = json.dumps(data, indent=2)
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text)
            else:
                print(text)
            return 0
        if args.verb == "report" and args.action == "merge":
            doc = merge_report_documents(args.paths)
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=2)
            print(f"merged {len(args.paths)} documents -> {args.out}")
            return 0
        return 2
    except (KeyError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
