"""Build file of the icbench benchmark.

Compiles the program (``src/main/scala`` at the repository root) together with
the harness (``icbench/src/main/scala``) with the Scala compiler shipped in the
Spark distribution, so no build tool and no download is needed. Output goes to
``.bench_build/icbench`` in the checkout and is reused while the sources are
unchanged.

    python3 icbench/build.py          # build
    python3 icbench/build.py test     # build and run the harness's own tests
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_build" / "icbench"
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
HARNESS_SRC = BENCH_DIR / "src" / "main" / "scala"
TEST_SRC = BENCH_DIR / "src" / "test" / "scala"


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """The jars of the Spark distribution: $SPARK_HOME, else the first
    distribution with a spark-submit on the PATH."""
    homes = [os.environ.get("SPARK_HOME", "")] + [
        str(Path(d).resolve().parent) for d in os.environ.get("PATH", "").split(os.pathsep)
        if d and (Path(d) / "spark-submit").is_file()]
    for home in homes:
        if home and (Path(home) / "jars").is_dir():
            return Path(home) / "jars"
    raise BuildError("no Spark distribution found (set SPARK_HOME)")


def _jar(jars: Path, name: str) -> str:
    found = sorted(glob.glob(str(jars / f"{name}-2.13.*.jar")))
    if not found:
        raise BuildError(f"{name} 2.13 not found in {jars}")
    return found[-1]


def _sources(*dirs: Path) -> list:
    files = []
    for d in dirs:
        files += sorted(str(p) for p in d.rglob("*.scala"))
    return files


def _digest(files: list, jars: Path) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        h.update(Path(f).read_bytes())
    h.update("\n".join(sorted(os.listdir(jars))).encode())
    return h.hexdigest()[:16]


def _scalac(jars: Path, classpath: str, out: Path, files: list) -> None:
    compiler = os.pathsep.join(_jar(jars, n) for n in ("scala-compiler", "scala-library", "scala-reflect"))
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-cp", compiler, "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(tmp), "-classpath", classpath] + files
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError("scalac failed")
    prefix = out.name.rsplit("-", 1)[0] + "-"
    for old in out.parent.glob(prefix + "*"):
        if old != tmp:
            shutil.rmtree(old, ignore_errors=True)
    tmp.rename(out)


def build(with_tests: bool = False) -> str:
    """Compile if needed; return the runtime classpath."""
    if not PROGRAM_SRC.is_dir() or not any(PROGRAM_SRC.rglob("*.scala")):
        raise BuildError(f"program sources not found under {PROGRAM_SRC}")
    jars = spark_jars()
    main_files = _sources(PROGRAM_SRC, HARNESS_SRC)
    classes = OUT / f"classes-{_digest(main_files, jars)}"
    if not classes.is_dir():
        print(f"[icbench] compiling {len(main_files)} sources", file=sys.stderr)
        _scalac(jars, str(jars / "*"), classes, main_files)
    classpath = os.pathsep.join([str(classes), str(jars / "*")])
    if with_tests:
        test_files = _sources(TEST_SRC)
        test_classes = OUT / f"test-classes-{_digest(main_files + test_files, jars)}"
        if not test_classes.is_dir():
            _scalac(jars, classpath, test_classes, test_files)
        classpath = os.pathsep.join([str(test_classes), classpath])
    return classpath


def main() -> int:
    try:
        if sys.argv[1:] == ["test"]:
            cp = build(with_tests=True)
            tmp = OUT / "work" / "tmp"
            tmp.mkdir(parents=True, exist_ok=True)
            return subprocess.run(["java", f"-Djava.io.tmpdir={tmp}", "-cp", cp,
                                   "icbench.HarnessTests"]).returncode
        build()
        return 0
    except BuildError as e:
        print(f"[icbench] build failed: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
