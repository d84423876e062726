#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md: fill each {{TABLE:<title>}} placeholder of
EXPERIMENTS.tmpl.md with the one table of that exact title captured in
bench_output.txt. Rerun after `sbt -batch "bench/test" | tee bench_output.txt`.

Exits non-zero, writing nothing, when a placeholder has no captured table,
when a title is captured or placed twice, or when a captured table has no
placeholder.
"""
import re
import sys
from collections import Counter

BENCH = "bench_output.txt"
TMPL = "EXPERIMENTS.tmpl.md"
OUT = "EXPERIMENTS.md"
PLACEHOLDER = re.compile(r"\{\{TABLE:(.+)\}\}")


def load_tables(path):
    """(title, lines) for every '### ' table in the capture, in order. A table
    ends at its first line that is not a '|' row."""
    tables = []
    rows = None
    for line in open(path, encoding="utf-8", errors="replace"):
        line = line.rstrip("\n")
        if line.startswith("### "):
            rows = [line]
            tables.append((line[4:], rows))
        elif rows is not None and line.startswith("|"):
            rows.append(line)
        else:
            rows = None
    return tables


def main():
    captured = load_tables(BENCH)
    template = open(TMPL, encoding="utf-8").read().splitlines()
    placed = [m.group(1) for m in map(PLACEHOLDER.fullmatch, map(str.strip, template)) if m]
    tables = dict(captured)
    errors = [f"captured twice: {t}" for t, c in Counter(t for t, _ in captured).items() if c > 1]
    errors += [f"placed twice: {t}" for t, c in Counter(placed).items() if c > 1]
    errors += [f"missing table: {t}" for t in placed if t not in tables]
    errors += [f"unused table: {t}" for t in tables if t not in placed]
    if errors:
        sys.exit("\n".join(errors))
    out = []
    for line in template:
        m = PLACEHOLDER.fullmatch(line.strip())
        out.append("\n".join(tables[m.group(1)]) if m else line)
    open(OUT, "w", encoding="utf-8").write("\n".join(out) + "\n")
    print(f"wrote {OUT} with {len(placed)} tables")


if __name__ == "__main__":
    main()
