"""Compare two sets of hostbench results, workload by workload.

  python3 hostbench/run.py compare <parent> <change>

Each set is a directory of the records runs write with --out. Runs pair up
by (workload, trace, seed).
For every workload and metric the table gives both sides' median and
quartiles, the pairs the change won, the median gap as a share of the
parent's median (the base printed beside it), and a verdict:

  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither side) and the medians differ in its favour by more
              than the parent's interquartile range;
  worse       the same in the parent's favour, or the change's median is
              worse than the parent's by more than the metric's bound;
  unresolved  fewer than ten pairs, or the parent's own interquartile range
              is wider than the bound, unless every run of the change reads
              better than every run of the parent;
  no-change   otherwise.

Bounds come from the end_to_end list of the BENCHMARK.json at the root of
the checkout; a metric without one is judged by the pair rule alone.
"""

import glob
import json
import os
import statistics
import sys

WIN_SHARE = 0.9
MIN_PAIRS = 10
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")


def load_records(directory):
    """Records keyed by (workload, trace, seed) from a directory of records."""
    if not os.path.isdir(directory):
        raise ValueError(f"{directory}: not a directory")
    records = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".spans.json"):
            continue
        with open(path) as f:
            rec = json.load(f)
        if not isinstance(rec, dict) or "workload" not in rec:
            raise ValueError(f"{path}: not a hostbench record")
        records[(rec["workload"], rec["trace"], rec["seed"])] = rec
    if not records:
        raise ValueError(f"{directory}: no hostbench records")
    return records


def load_bounds(path):
    with open(path) as f:
        bench = json.load(f)
    return {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, pairs, better, bound):
    """Verdict of one (workload, metric) row; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    iqr = p3 - p1
    gain = sign * (cm - pm)  # > 0: the change is better
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    n = len(pairs)
    if n < MIN_PAIRS:
        return "unresolved", wins, n
    if wins >= WIN_SHARE * n and gain > iqr:
        return "improved", wins, n
    if losses >= WIN_SHARE * n and -gain > iqr:
        return "worse", wins, n
    if bound is not None and pm != 0:
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        if iqr / abs(pm) > bound and not all_better:
            return "unresolved", wins, n
        if -gain / abs(pm) > bound:
            return "worse", wins, n
    return "no-change", wins, n


def compare(parent_recs, change_recs, bounds):
    """Rows (workload, metric, unit, parent stats, change stats, wins, verdict)."""
    rows = []
    keys = sorted({(w, t) for (w, t, _) in parent_recs} &
                  {(w, t) for (w, t, _) in change_recs})
    for workload, trace in keys:
        p_runs = {s: r for (w, t, s), r in parent_recs.items() if (w, t) == (workload, trace)}
        c_runs = {s: r for (w, t, s), r in change_recs.items() if (w, t) == (workload, trace)}
        field = "per_layer" if trace else "metrics"
        names = list(next(iter(p_runs.values()))[field].keys())
        for name in names:
            meta = next(iter(p_runs.values()))[field][name]
            parent = [r[field][name]["value"] for r in p_runs.values() if name in r[field]]
            change = [r[field][name]["value"] for r in c_runs.values() if name in r[field]]
            if not parent or not change:
                continue
            pairs = [(p_runs[s][field][name]["value"], c_runs[s][field][name]["value"])
                     for s in sorted(set(p_runs) & set(c_runs))
                     if name in p_runs[s][field] and name in c_runs[s][field]]
            v, wins, n = verdict(parent, change, pairs, meta["better"],
                                 None if trace else bounds.get(name))
            rows.append({"workload": workload, "metric": name, "unit": meta["unit"],
                         "parent": quartiles(parent), "change": quartiles(change),
                         "wins": wins, "pairs": n, "verdict": v})
    return rows


def config_notes(parent_recs, change_recs):
    """Configuration fields that differ between the two sets."""
    notes = []
    for field in ("threads", "nproc", "simd_backend", "compiler", "build_type", "seconds"):
        p = {str(r["config"].get(field)) for r in parent_recs.values()}
        c = {str(r["config"].get(field)) for r in change_recs.values()}
        if p != c:
            notes.append(f"note: {field} differs: parent {sorted(p)}, change {sorted(c)}")
    return notes


def gap_text(row):
    pm, cm = row["parent"][1], row["change"][1]
    if pm == 0:
        return f"{cm - pm:+.4g} (base 0)"
    return f"{100.0 * (cm - pm) / pm:+.2f}% of {pm:.6g}"


def main(argv):
    if len(argv) != 2:
        print("usage: run.py compare <parent> <change>", file=sys.stderr)
        return 2
    try:
        parent, change = load_records(argv[0]), load_records(argv[1])
        bounds = load_bounds(BENCHMARK_JSON)
    except (OSError, ValueError, KeyError) as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2
    for note in config_notes(parent, change):
        print(note)
    print(f"{'workload':22} {'metric':30} {'unit':6} {'parent median [q1, q3]':36} "
          f"{'change median [q1, q3]':36} {'won':>6}  {'median gap (base)':26} verdict")
    for row in compare(parent, change, bounds):
        p, c = row["parent"], row["change"]
        side = "{:.6g} [{:.6g}, {:.6g}]"
        print(f"{row['workload']:22} {row['metric']:30} {row['unit']:6} "
              f"{side.format(p[1], p[0], p[2]):36} {side.format(c[1], c[0], c[2]):36} "
              f"{row['wins']:>2}/{row['pairs']:<3}  {gap_text(row):26} {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
