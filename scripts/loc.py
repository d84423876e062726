#!/usr/bin/env python3
"""Count the Scala lines of main + jobs and of test scope, per package.

    python3 scripts/loc.py                 # the working tree
    python3 scripts/loc.py --base HEAD~1   # also the base, and what moved

"Main + jobs" is every `.scala` file under `src/main/scala` and `jobs`,
"test scope" every one under `src/test/scala`; a line is a line of the file,
blank and comment lines included (what `wc -l` counts). A file's package is
its `package` clause.

With `--base REV` it reads REV's committed files as well and prints both
sides' counts, and it splits main + jobs' shrink into lines moved to test
scope and lines deleted. A line counts as moved when main + jobs lost it and
test scope gained it, compared as text with the indentation stripped, so the
moved figure is an upper bound (a `}` or a blank line that main lost matches
any that a test gained) and the deleted figure a lower bound.

Its tests: `python3 -m doctest scripts/loc.py`.
"""
import argparse
import subprocess
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCOPES = {"main+jobs": ("src/main/scala/", "jobs/"), "test": ("src/test/scala/",)}


def scope_of(path):
    """The scope of a repository path, or None for a file outside both.

    >>> scope_of("src/main/scala/repro/graph/Peeler.scala")
    'main+jobs'
    >>> scope_of("jobs/Jobs.scala")
    'main+jobs'
    >>> scope_of("src/test/scala/repro/Fixtures.scala")
    'test'
    >>> scope_of("icbench/src/main/scala/icbench/Main.scala") is None
    True
    >>> scope_of("src/main/scala/repro/core/.gitkeep") is None
    True
    """
    if not path.endswith(".scala"):
        return None
    for scope, prefixes in SCOPES.items():
        if path.startswith(prefixes):
            return scope
    return None


def package_of(text):
    """The file's package clause, or "(none)".

    >>> package_of("// header\\npackage repro.graph\\n\\nobject X\\n")
    'repro.graph'
    >>> package_of("object X\\n")
    '(none)'
    """
    for line in text.splitlines():
        if line.startswith("package "):
            return line.split()[1]
    return "(none)"


def count(files):
    """Lines per (scope, package) of `{path: text}`, and each scope's lines
    as a multiset of stripped text.

    >>> per, lines = count({"jobs/J.scala": "package a\\n\\nobject J {\\n}\\n",
    ...                     "src/test/scala/T.scala": "package a\\nclass T\\n",
    ...                     "README.md": "not counted\\n"})
    >>> sorted(per.items())
    [(('main+jobs', 'a'), 4), (('test', 'a'), 2)]
    >>> lines["main+jobs"]["}"], lines["main+jobs"][""]
    (1, 1)
    """
    per = Counter()
    lines = {scope: Counter() for scope in SCOPES}
    for path, text in files.items():
        scope = scope_of(path)
        if scope is None:
            continue
        rows = text.splitlines()
        per[scope, package_of(text)] += len(rows)
        lines[scope].update(row.strip() for row in rows)
    return per, lines


def moved(base_lines, head_lines):
    """Lines main + jobs lost that test scope gained, as text.

    Two lines moved to a test, one of them re-indented; a third was deleted,
    and a test line is new:

    >>> _, base = count({"jobs/J.scala": "def f = 1\\n  def g = 2\\nval x = 3\\n",
    ...                  "src/test/scala/T.scala": "test(a)\\n"})
    >>> _, head = count({"src/test/scala/T.scala": "test(a)\\ndef f = 1\\ndef g = 2\\ntest(b)\\n"})
    >>> moved(base, head)
    2
    """
    lost = base_lines["main+jobs"] - head_lines["main+jobs"]
    gained = head_lines["test"] - base_lines["test"]
    return sum((lost & gained).values())


def worktree_files():
    paths = [p for prefixes in SCOPES.values() for d in prefixes for p in (ROOT / d).rglob("*.scala")]
    return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}


def revision_files(rev):
    names = subprocess.run(["git", "-C", str(ROOT), "ls-tree", "-r", "--name-only", rev],
                           check=True, capture_output=True, text=True).stdout.split()
    return {name: subprocess.run(["git", "-C", str(ROOT), "show", f"{rev}:{name}"],
                                 check=True, capture_output=True, text=True).stdout
            for name in names if scope_of(name)}


def table(sides):
    """One row per package, one column per (side, scope), then the totals.

    >>> print(table({"now": Counter({("main+jobs", "a"): 5, ("test", "b"): 2})}))
    package            now main+jobs        now test
    a                              5               0
    b                              0               2
    total                          5               2
    """
    cols = [(side, scope) for side in sides for scope in SCOPES]
    packages = sorted({pkg for per in sides.values() for (_, pkg) in per})

    def row(name, cells):
        return name.ljust(16) + "".join(str(c).rjust(16) for c in cells)

    out = [row("package", [f"{side} {scope}" for side, scope in cols])]
    for pkg in packages:
        out.append(row(pkg, [sides[side][scope, pkg] for side, scope in cols]))
    out.append(row("total", [total(sides[side], scope) for side, scope in cols]))
    return "\n".join(out)


def total(per, scope):
    """All lines of `scope` in the per-package counts `per`."""
    return sum(v for (s, _), v in per.items() if s == scope)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="a git revision to compare the working tree with")
    args = ap.parse_args()
    head, head_lines = count(worktree_files())
    if args.base is None:
        print(table({"now": head}))
        return
    base, base_lines = count(revision_files(args.base))
    print(table({"base": base, "now": head}))
    shrink = total(base, "main+jobs") - total(head, "main+jobs")
    m = moved(base_lines, head_lines)
    print(f"main+jobs {total(base, 'main+jobs')} -> {total(head, 'main+jobs')} "
          f"(shrink {shrink}): moved to test scope <= {m}, deleted >= {shrink - m}")
    print(f"test {total(base, 'test')} -> {total(head, 'test')}")


if __name__ == "__main__":
    main()
