"""Print the per-layer metrics of two traced result files side by side.

    python3 bench/compare.py bench/results/BASE.json bench/results/NEW.json

Each row gives the metric, its unit, the base value, the new value and the
ratio new/base, so every ratio is shown with its base. Files written by
untraced runs are compared on their end-to-end metrics instead.
"""

import argparse
import json
import sys


def load_metrics(path: str) -> tuple[dict, dict]:
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    metrics = record.get("layers") or record["result"]["metrics"]
    return record, metrics


def ratio_text(base, new) -> str:
    if base == 0:
        return "-" if new == 0 else "new"
    return f"{new / base:.3f}"


def compare(base: dict, new: dict) -> list:
    """Rows (name, unit, base, new, ratio) over the union of both metric sets."""
    rows = []
    for name in sorted(set(base) | set(new)):
        b = base.get(name)
        n = new.get(name)
        unit = (b or n)["unit"]
        bv = None if b is None else b["value"]
        nv = None if n is None else n["value"]
        ratio = "missing" if bv is None or nv is None else ratio_text(bv, nv)
        rows.append((name, unit, bv, nv, ratio))
    return rows


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    base_record, base = load_metrics(args.base)
    new_record, new = load_metrics(args.new)
    for label, record in (("base", base_record), ("new", new_record)):
        print(f"{label}: {record['workload']} seed {record['seed']} trace {record['trace']}")
    if base_record["workload"] != new_record["workload"]:
        print("warning: the files come from different workloads", file=sys.stderr)
    rows = compare(base, new)
    width = max(len(r[0]) for r in rows)
    print(f"{'metric':{width}}  {'unit':14}  {'base':>12}  {'new':>12}  {'new/base':>8}")
    for name, unit, bv, nv, ratio in rows:
        print(f"{name:{width}}  {unit:14}  {_fmt(bv):>12}  {_fmt(nv):>12}  {ratio:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
