"""Compare two sets of benchmark results, refusing unlike run facts.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds ``result-trace0.json`` files written by ``run.py``
(searched recursively, e.g. copies of ``.perfbench/`` from two commits).
For every workload and end-to-end metric the medians and quartile spreads
of both sides are printed with the change's median relative to the base.
The comparison is refused, exit 2, when any result's run facts differ
from the others' in anything but the program's identity (see
``perfbench/facts.py``): a timing taken on other cores, other BLAS
threads or other library versions says nothing about the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> list:
    """Every untraced result under ``directory``."""
    return [json.loads(p.read_text())
            for p in sorted(directory.rglob("result-trace0.json"))]


def compare(base: list, change: list) -> list:
    """Rows ``(workload, metric, unit, base median, change median, ratio,
    base spread, change spread)``; raises ``FactsDiffer`` on unlike facts."""
    from perfbench.facts import check_comparable
    from perfbench.stats import quartile_spread

    results = base + change
    if not base or not change:
        raise ValueError("both sides need at least one result")
    for other in results[1:]:
        check_comparable(results[0]["facts"], other["facts"])
    values = defaultdict(lambda: ([], []))
    units = {}
    for side, group in ((0, base), (1, change)):
        for result in group:
            for name, metric in result["metrics"].items():
                values[(result["workload"], name)][side].append(metric["value"])
                units[name] = metric["unit"]
    rows = []
    for (workload, name), (b, c) in sorted(values.items()):
        if not b or not c:
            continue
        spread = lambda xs: quartile_spread(xs) if len(xs) > 1 else 0.0  # noqa: E731
        mb, mc = statistics.median(b), statistics.median(c)
        rows.append((workload, name, units[name], mb, mc,
                     mc / mb if mb else float("nan"), spread(b), spread(c)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT)]
    from perfbench.facts import FactsDiffer

    try:
        rows = compare(load(args.base), load(args.change))
    except FactsDiffer as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':<8} {'metric':<13} {'unit':<5} {'base':>12} "
          f"{'change':>12} {'ratio':>7} {'spread_b':>8} {'spread_c':>8}")
    for w, name, unit, mb, mc, ratio, sb, sc in rows:
        print(f"{w:<8} {name:<13} {unit:<5} {mb:>12.5g} {mc:>12.5g} "
              f"{ratio:>7.3f} {sb:>8.3f} {sc:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
