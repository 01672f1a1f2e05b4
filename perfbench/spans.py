"""Summarise a traced run's spans file.

    python3 perfbench/spans.py perfbench/results/WORKLOAD-seedN-trace1.spans.json [--request ID]

Prints, for each traced call, the number of calls, total time and self
time (duration minus the time its child spans cover), largest self time
first.  With --request, only the spans of that request are counted, and
the request's span tree is printed too.
"""

from __future__ import annotations

import argparse
import json

from tracing import END, ERROR, NAME, PARENT, REQUEST, START, child_time


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("spans_file")
    ap.add_argument("--request", type=int)
    args = ap.parse_args()
    with open(args.spans_file) as fh:
        spans = json.load(fh)["spans"]
    child = child_time(spans)
    rows: dict[str, list] = {}
    for i, s in enumerate(spans):
        if args.request is not None and s[REQUEST] != args.request:
            continue
        row = rows.setdefault(s[NAME], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s[END] - s[START]
        row[2] += s[END] - s[START] - child[i]
    print(f"{'call':44s} {'calls':>7s} {'total_ms':>11s} {'self_ms':>11s}")
    for name, (n, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:44s} {n:7d} {total * 1e3:11.3f} {own * 1e3:11.3f}")
    if args.request is not None:
        depth: dict[int, int] = {}
        for i, s in enumerate(spans):
            if s[REQUEST] != args.request:
                continue
            depth[i] = depth.get(s[PARENT], -1) + 1
            err = f"  raised {s[ERROR]}" if s[ERROR] else ""
            print(f"{'  ' * depth[i]}{s[NAME]} {(s[END] - s[START]) * 1e3:.3f} ms{err}")


if __name__ == "__main__":
    main()
