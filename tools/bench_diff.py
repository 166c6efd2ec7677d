#!/usr/bin/env python3
"""Compare two trees (or files) of BENCH_<name>.json artifacts.

Usage:
    tools/bench_diff.py OLD NEW [--tol REL] [--seed-strict]

OLD and NEW are directories holding BENCH_*.json files (e.g. two CI
bench-smoke artifact downloads) or two individual artifact files.

For every artifact name present in both trees the script checks
provenance first — schema_version must match, and config_fingerprint
must match (different fingerprints mean the benches measured different
configurations, so comparing their rows would be apples to oranges) —
and then reports per-cell relative deltas exceeding --tol (default 5%).
Artifacts present on only one side are listed. Exit status: 0 when
every common artifact is comparable and within tolerance, 1 otherwise.

Wall-clock columns vary run to run, so they never fail the diff. A bench
marks them in a "wall_clock" list beside its table's "columns" (a column
marked on either side counts); their deltas beyond --tol are printed as
notes. Column names are never guessed from a suffix: a simulated `*_s`
column is as deterministic as a counter and must reproduce.

Seeds are provenance, not configuration: a seed difference is reported
but only fails the diff under --seed-strict.

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import os
import sys


def load_tree(path, errors):
    """Maps artifact name -> parsed JSON for a directory or single file.

    Unreadable or malformed artifacts never raise: each one appends a
    per-file message to `errors` and is left out of the returned map.
    """
    out = {}
    if os.path.isfile(path):
        paths = [path]
    elif os.path.isdir(path):
        paths = [
            os.path.join(path, f)
            for f in sorted(os.listdir(path))
            if f.startswith("BENCH_") and f.endswith(".json")
        ]
        if not paths:
            errors.append(f"{path}: no BENCH_*.json artifacts found")
            return out
    else:
        errors.append(f"{path}: no such file or directory")
        return out
    for p in paths:
        try:
            with open(p, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except OSError as e:
            errors.append(f"{p}: unreadable ({e.strerror or e})")
            continue
        except json.JSONDecodeError as e:
            errors.append(f"{p}: malformed JSON (line {e.lineno} "
                          f"column {e.colno}: {e.msg})")
            continue
        if not isinstance(doc, dict):
            errors.append(f"{p}: expected a JSON object, got "
                          f"{type(doc).__name__}")
            continue
        out[os.path.basename(p)] = doc
    return out


def tables_of(doc):
    """Normalizes both artifact shapes to a list of
    (title, columns, rows, wall_clock columns)."""
    if "tables" in doc:
        return [(t.get("title", ""), t.get("columns", []), t.get("rows", []),
                 t.get("wall_clock", []))
                for t in doc["tables"]]
    return [("", doc.get("columns", []), doc.get("rows", []),
             doc.get("wall_clock", []))]


def rel_delta(a, b):
    """Relative delta for numeric cells; None when not comparable."""
    if a == b:
        return 0.0
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)) \
            or isinstance(a, bool) or isinstance(b, bool):
        return None
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def diff_artifact(name, old, new, tol, seed_strict, out):
    """Appends human-readable findings to `out`; returns True when clean."""
    ok = True
    sv_old = old.get("schema_version", 1)
    sv_new = new.get("schema_version", 1)
    if sv_old != sv_new:
        out.append(f"{name}: schema_version {sv_old} != {sv_new}; "
                   "not comparable")
        return False
    fp_old = old.get("config_fingerprint")
    fp_new = new.get("config_fingerprint")
    if fp_old != fp_new:
        out.append(f"{name}: config_fingerprint {fp_old} != {fp_new}; "
                   "the benches measured different configurations")
        return False
    seed_old = old.get("seed", 0)
    seed_new = new.get("seed", 0)
    if seed_old != seed_new:
        out.append(f"{name}: seed {seed_old} != {seed_new}"
                   + (" (failing: --seed-strict)" if seed_strict
                      else " (note: different RNG streams)"))
        if seed_strict:
            ok = False
    # Host facts are provenance, not configuration: differing values never
    # fail the diff, but they explain otherwise-alarming deltas (e.g. a
    # parallel speedup < 1 on a 1-core runner), so surface them.
    host_old = old.get("host", {})
    host_new = new.get("host", {})
    for key in sorted(set(host_old) | set(host_new)):
        a, b = host_old.get(key), host_new.get(key)
        if a != b:
            out.append(f"{name}: host {key} {a} != {b} (note: different "
                       "machines; machine-dependent columns may move)")

    old_tables = tables_of(old)
    new_tables = tables_of(new)
    if len(old_tables) != len(new_tables):
        out.append(f"{name}: table count {len(old_tables)} != "
                   f"{len(new_tables)}")
        return False
    for (title, cols_o, rows_o, wall_o), (_, cols_n, rows_n, wall_n) in zip(
            old_tables, new_tables):
        label = f"{name}" + (f"[{title}]" if title else "")
        wall_clock = set(wall_o) | set(wall_n)
        if cols_o != cols_n:
            out.append(f"{label}: column sets differ")
            ok = False
            continue
        if len(rows_o) != len(rows_n):
            out.append(f"{label}: row count {len(rows_o)} != {len(rows_n)}")
            ok = False
            continue
        for r, (row_o, row_n) in enumerate(zip(rows_o, rows_n)):
            for c, (a, b) in enumerate(zip(row_o, row_n)):
                col = cols_o[c] if c < len(cols_o) else f"col{c}"
                d = rel_delta(a, b)
                if d is None:
                    out.append(f"{label}: row {r} {col}: non-numeric "
                               f"cells {a!r} != {b!r}")
                    ok = False
                elif d > tol and col in wall_clock:
                    out.append(f"{label}: row {r} {col}: "
                               f"{a:.6g} -> {b:.6g} ({d * 100.0:.1f}%) "
                               "(note: wall clock, not gated)")
                elif d > tol:
                    out.append(f"{label}: row {r} {col}: "
                               f"{a:.6g} -> {b:.6g} ({d * 100.0:.1f}%)")
                    ok = False
    return ok


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="baseline tree or artifact file")
    ap.add_argument("new", help="candidate tree or artifact file")
    ap.add_argument("--tol", type=float, default=0.05,
                    help="relative per-cell tolerance (default 0.05)")
    ap.add_argument("--seed-strict", action="store_true",
                    help="fail when seeds differ")
    args = ap.parse_args(argv)

    findings = []
    old_tree = load_tree(args.old, findings)
    new_tree = load_tree(args.new, findings)
    clean = not findings
    for name in sorted(set(old_tree) - set(new_tree)):
        findings.append(f"{name}: only in {args.old}")
        clean = False
    for name in sorted(set(new_tree) - set(old_tree)):
        findings.append(f"{name}: only in {args.new}")
        clean = False
    common = sorted(set(old_tree) & set(new_tree))
    for name in common:
        try:
            comparable = diff_artifact(name, old_tree[name], new_tree[name],
                                       args.tol, args.seed_strict, findings)
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            findings.append(f"{name}: unexpected artifact shape "
                            f"({type(e).__name__}: {e})")
            comparable = False
        if not comparable:
            clean = False
    for line in findings:
        print(line)
    print(f"compared {len(common)} artifact(s): "
          + ("OK" if clean else "DIFFERENCES"))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
