"""The committed verdict baseline of ``ellipticlab verify full``.

``tests/data/verify_full.json`` is the report document that
``verify full --out`` writes.  A change that moves one of its values on
purpose re-records it, and lists each value before and after in
CHANGES.md::

    PYTHONPATH=src python tests/verdict_baseline.py record
    python tests/verdict_baseline.py compare full.json
    python tests/verdict_baseline.py strict full.json coarse-*.json

``compare`` exits 1 and prints every moved value when ``full.json``
differs from the baseline.  Names, order, ``passed`` and ``status`` must
match exactly, as must integers and strings; floats may differ by
``REL`` relative.  ``strict`` exits 1 and names every file that is not
strict JSON: one that ``json.loads`` takes only for a bare ``NaN``,
``Infinity`` or ``-Infinity`` token, which strict JSON has no number for.
"""
from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "data" / "verify_full.json"
# small enough that no change of a verdict's numbers hides under it, and
# large enough for the float noise between Python and numpy versions
REL = 1e-9


def strict_loads(text: str):
    """``json.loads`` that raises ``ValueError`` on a bare ``NaN``,
    ``Infinity`` or ``-Infinity`` token."""
    def reject(token):
        raise ValueError(f"not strict JSON: bare {token}")
    return json.loads(text, parse_constant=reject)


def moved(expected, actual, path="") -> list[str]:
    """Every value of ``actual`` that differs from ``expected``, as
    ``"path: expected -> actual"`` lines; empty when they agree."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = [f"{path}.{k}: {'removed' if k in expected else 'added'}"
               for k in sorted(expected.keys() ^ actual.keys())]
        for k in expected:
            if k in actual:
                out += moved(expected[k], actual[k], f"{path}.{k}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: {len(expected)} items -> {len(actual)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in moved(e, a, f"{path}[{i}]")]
    kinds = {type(expected), type(actual)}
    if float in kinds and kinds <= {int, float}:
        same = math.isclose(expected, actual, rel_tol=REL, abs_tol=0.0) \
            or (math.isnan(expected) and math.isnan(actual))
    else:
        same = type(expected) is type(actual) and expected == actual
    return [] if same else [f"{path}: {expected!r} -> {actual!r}"]


def moved_verdicts(expected: dict, actual: dict) -> list[str]:
    """The moved values of two report documents, each path led by its
    check's name.  A change in the names or order of the checks is
    reported alone, as the names removed and added (counted with
    multiplicity) or as ``order changed``: the values of checks in other
    places do not pair."""
    names = [[c["name"] for c in d["checks"]] for d in (expected, actual)]
    if names[0] != names[1]:
        old, new = map(Counter, names)
        return [f"checks: removed {sorted((old - new).elements())}, "
                f"added {sorted((new - old).elements())}" if old != new
                else "checks: order changed"]
    rest = [{k: v for k, v in d.items() if k != "checks"}
            for d in (expected, actual)]
    return moved(*rest) + [
        m for i, (e, a) in enumerate(zip(expected["checks"], actual["checks"]))
        for m in moved(e, a, f"checks[{i}] {e['name']}")]


def main(argv) -> int:
    if argv[:1] == ["record"] and len(argv) == 1:
        from ellipticlab.cli import main as cli
        BASELINE.parent.mkdir(exist_ok=True)
        return cli(["verify", "full", "--out", str(BASELINE)])
    if argv[:1] == ["compare"] and len(argv) == 2:
        diffs = moved_verdicts(json.loads(BASELINE.read_text()),
                               json.loads(Path(argv[1]).read_text()))
        print("\n".join(diffs) or f"{argv[1]} matches {BASELINE.name}")
        return 1 if diffs else 0
    if argv[:1] == ["strict"] and len(argv) > 1:
        bad = []
        for path in argv[1:]:
            try:
                strict_loads(Path(path).read_text())
            except ValueError as exc:
                bad.append(f"{path}: {exc}")
        print("\n".join(bad) or "every file is strict JSON")
        return 1 if bad else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
