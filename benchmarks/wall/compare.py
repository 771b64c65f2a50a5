#!/usr/bin/env python3
"""Compare two sets of wall-benchmark result documents; the decision rules, once.

    python3 benchmarks/wall/compare.py PARENT CHANGE [--claim METRIC:WORKLOAD ...]
    python3 benchmarks/wall/compare.py --selfcheck A B
    python3 benchmarks/wall/compare.py --summary SET     # a BENCH_wall.json entry

PARENT and CHANGE are directories (or single files) of result documents
written by ``run.py --result``.  Runs of one workload pair up in file-name
order, so run parent and change interleaved and name the files alike.  One
row comes out per (metric, workload), with each side's median and quartiles.

Rules (``choosing-metrics`` section 8, stated here so later issues cite them):

* Documents whose fingerprints differ (host, versions, file system, workload
  parameters, smoke/trace mode, or the seed of a pair) are not compared.
* A *claimed* metric is a gain only if the change wins at least 9/10 of the
  pairs (ties count for neither side, at least ten pairs) and the medians
  differ by more than the parent's own inter-quartile distance.
* Any other host-time metric is ``worse`` only when its median worsens past
  its bound.  When the run-to-run spread of either side exceeds the bound it
  is ``unresolved``, not unchanged - unless every run of the change reads
  better than every run of the parent (``better``).
* Virtual-clock metrics and counts are exact: pairs must be equal.  A pure
  speed-up leaves them bit-identical; when they moved they are ``worse`` by
  any amount in the wrong direction and ``changed`` otherwise (their bound in
  ``BENCHMARK.json`` only covers the spread between different seeds).
* ``--selfcheck`` is for two sets of runs of one commit: every host metric
  within its bound, every virtual metric and count exactly equal.

Exit code 0: nothing worse, every claim met (selfcheck: all within bounds).
1: a regression, an unmet claim, or a selfcheck failure.  2: refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS_FOR_CLAIM = 10
WIN_SHARE = 0.9
SECTIONS = ("metrics", "per_layer")


class Refused(Exception):
    """The two sets must not be compared."""


def load(path: Path) -> dict[str, list[dict]]:
    """Result documents under *path*, grouped by workload, in file-name order."""
    files = [path] if path.is_file() else sorted(path.glob("*.json"))
    if not files:
        raise Refused(f"no result documents under {path}")
    grouped: dict[str, list[dict]] = {}
    for file in files:
        doc = json.loads(file.read_text())
        if not str(doc.get("schema", "")).startswith("riveter-wall/"):
            raise Refused(f"{file} is not a wall-benchmark result document")
        grouped.setdefault(doc["workload"], []).append(doc)
    return grouped


def fingerprint(doc: dict) -> dict:
    """Everything that must match before two documents' numbers may meet."""
    return {
        "schema": doc["schema"],
        "smoke": doc["smoke"],
        "trace": doc["trace"],
        **{f"host.{key}": value for key, value in doc["host"].items()},
        **{f"parameters.{key}": value for key, value in doc["parameters"].items()},
    }


def check_comparable(parent: dict[str, list[dict]], change: dict[str, list[dict]]) -> None:
    if set(parent) != set(change):
        raise Refused(f"workloads differ: {sorted(parent)} vs {sorted(change)}")
    for workload in parent:
        a_docs, b_docs = parent[workload], change[workload]
        if len(a_docs) != len(b_docs):
            raise Refused(f"{workload}: {len(a_docs)} parent run(s) vs {len(b_docs)} of the change")
        reference = fingerprint(a_docs[0])
        for doc in a_docs + b_docs:
            other = fingerprint(doc)
            differing = sorted(k for k in reference.keys() | other.keys()
                               if reference.get(k) != other.get(k))
            if differing:
                raise Refused(
                    f"{workload}: fingerprints differ in {differing}: "
                    + ", ".join(f"{k}={reference.get(k)!r} vs {other.get(k)!r}" for k in differing)
                )
        for a, b in zip(a_docs, b_docs):
            if a["seed"] != b["seed"]:
                raise Refused(f"{workload}: a pair mixes seeds {a['seed']} and {b['seed']}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a single run is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _better(entry: dict, a: float, b: float) -> bool:
    """Whether reading *b* is strictly better than reading *a*."""
    return b < a if entry["better"] == "lower" else b > a


def judge(entry: dict, a: list[float], b: list[float], claimed: bool, selfcheck: bool) -> str:
    """Verdict for one (metric, workload) from the paired runs *a* and *b*."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    bound = entry["bound"]
    sign = 1.0 if entry["better"] == "lower" else -1.0
    worse_by = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    if entry["kind"] == "v":
        if a == b:
            return "equal"
        if selfcheck:
            return "DIFFERS"
        return "worse" if worse_by > 0 else "changed"
    if bound is None:
        return "-"
    if selfcheck:
        return "within" if abs(worse_by) <= bound else "OUTSIDE"
    if claimed:
        if len(a) < MIN_PAIRS_FOR_CLAIM:
            return f"claim not met: {len(a)} pair(s), need {MIN_PAIRS_FOR_CLAIM}"
        wins = sum(1 for x, y in zip(a, b) if _better(entry, x, y))
        if wins < WIN_SHARE * len(a):
            return f"claim not met: {wins}/{len(a)} pairs won"
        if abs(b_med - a_med) <= a_q3 - a_q1:
            return "claim not met: gap within the parent's quartiles"
        return f"gain ({wins}/{len(a)} pairs)"
    spread = max((a_q3 - a_q1) / abs(a_med), (b_q3 - b_q1) / abs(b_med)) if a_med and b_med else 0.0
    if spread > bound:
        if all(_better(entry, x, y) for x in a for y in b):
            return "better"
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def compare(parent, change, claims: set[tuple[str, str]], selfcheck: bool) -> tuple[list[str], bool]:
    """Rows of the report and whether everything passed."""
    rows, passed = [], True
    header = (f"{'workload':18s} {'metric':34s} {'unit':9s} "
              f"{'parent median [q1, q3]':38s} {'change median [q1, q3]':38s} {'delta':>8s}  verdict")
    rows.append(header)
    seen_claims = set()
    for workload in sorted(parent):
        a_docs, b_docs = parent[workload], change[workload]
        for section in SECTIONS:
            names = [n for n in a_docs[0][section] if all(n in d[section] for d in a_docs + b_docs)]
            for name in names:
                entry = a_docs[0][section][name]
                a = [d[section][name]["value"] for d in a_docs]
                b = [d[section][name]["value"] for d in b_docs]
                claimed = (name, workload) in claims
                if claimed:
                    seen_claims.add((name, workload))
                verdict = judge(entry, a, b, claimed, selfcheck)
                a_q1, a_med, a_q3 = quartiles(a)
                b_q1, b_med, b_q3 = quartiles(b)
                delta = (b_med - a_med) / abs(a_med) if a_med else 0.0
                rows.append(
                    f"{workload:18s} {name:34s} {entry['unit']:9s} "
                    f"{a_med:12.6g} [{a_q1:10.5g}, {a_q3:10.5g}]  "
                    f"{b_med:12.6g} [{b_q1:10.5g}, {b_q3:10.5g}]  {delta:+8.2%}  {verdict}"
                )
                if verdict.split(":")[0] in ("worse", "claim not met", "OUTSIDE", "DIFFERS"):
                    passed = False
                if selfcheck and verdict == "unresolved":
                    passed = False
    for claim in sorted(claims - seen_claims):
        rows.append(f"claim {claim[0]}:{claim[1]} names no metric both sets report")
        passed = False
    return rows, passed


def summary(docs: dict[str, list[dict]]) -> dict:
    """One trajectory entry for ``BENCH_wall.json``: medians and quartiles of a set."""
    first = next(iter(docs.values()))[0]
    entry = {"git_rev": first["git_rev"], "host": first["host"], "workloads": {}}
    for workload, runs in sorted(docs.items()):
        readings = {}
        for section in SECTIONS:
            for name, meta in runs[0][section].items():
                q1, median, q3 = quartiles([d[section][name]["value"] for d in runs])
                readings[name] = {"median": median, "q1": q1, "q3": q3, "unit": meta["unit"]}
        entry["workloads"][workload] = {
            "runs": len(runs),
            "seeds": sorted({d["seed"] for d in runs}),
            "parameters": runs[0]["parameters"],
            "metrics": readings,
        }
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="result documents of the parent commit (or set A)")
    parser.add_argument("change", type=Path, nargs="?",
                        help="result documents of the change (or set B)")
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC:WORKLOAD",
                        help="a gain the change claims; judged by the 9/10-pairs rule")
    parser.add_argument("--selfcheck", action="store_true",
                        help="both sets are runs of one commit: apply the bounds to them")
    parser.add_argument("--summary", action="store_true",
                        help="print the medians and quartiles of one set as JSON")
    args = parser.parse_args(argv)
    if args.summary == (args.change is not None):
        parser.error("give two sets to compare, or one set with --summary")
    if args.summary:
        try:
            print(json.dumps(summary(load(args.parent)), indent=2, sort_keys=True))
        except Refused as refusal:
            print(f"refused: {refusal}", file=sys.stderr)
            return 2
        return 0
    claims = set()
    for claim in args.claim:
        metric, _, workload = claim.partition(":")
        if not metric or not workload:
            parser.error(f"--claim wants METRIC:WORKLOAD, got {claim!r}")
        claims.add((metric, workload))
    try:
        parent, change = load(args.parent), load(args.change)
        check_comparable(parent, change)
    except Refused as refusal:
        print(f"refused: {refusal}", file=sys.stderr)
        return 2
    rows, passed = compare(parent, change, claims, args.selfcheck)
    print("\n".join(rows))
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
