"""Query benchmark for top-k influential community search.

    python3 icbench/run.py --workload local-pagerank --seed 1 --seconds 10 --trace 0

Builds the program from source (see build.py), then runs one workload of
``icbench/workloads.json``: the workload's forks (JVMs) one after the other,
then one JVM that combines their results. With ``--trace 0`` the last line of standard output
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced replay. Progress and details go to standard error.
"""

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

CONFIG = build.BENCH_DIR / "workloads.json"
WORK = build.OUT / "work"
TIMEOUT_S = 170

JVM_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandleAccessor=false"]


def main() -> int:
    # On SIGTERM, unwind so that the running JVM is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()

    try:
        workloads = json.loads(CONFIG.read_text())["workloads"]
        if args.workload not in workloads:
            print(f"[icbench] unknown workload {args.workload}", file=sys.stderr)
            return 2
        classpath = build.build()
    except (OSError, ValueError, build.BuildError) as e:
        print(f"[icbench] cannot run: {e}", file=sys.stderr)
        return 2

    wl = workloads[args.workload]
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    java = (["java", f"-Xms{wl['heap_mb']}m", f"-Xmx{wl['heap_mb']}m", "-Xss16m",
             "-XX:+UseParallelGC", f"-Djava.io.tmpdir={tmp}"] + JVM_OPENS
            + ["-cp", classpath, "icbench.Main", "--trace", args.trace])
    deadline = time.monotonic() + TIMEOUT_S

    def jvm(extra, capture):
        proc = subprocess.Popen(java + extra, cwd=build.ROOT, text=True,
                                stdout=subprocess.PIPE if capture else sys.stderr)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"[icbench] run exceeded {TIMEOUT_S} s", file=sys.stderr)
            return None, 3
        finally:
            if proc.poll() is None:  # timed out, or this script was told to stop
                proc.kill()
                proc.wait()
        return out, proc.returncode

    # The run's JVMs (forks), one after the other, then one that reports.
    outs = []
    for j in range(wl["forks"]):
        out = WORK / f"{args.workload}-fork{j}.json"
        out.unlink(missing_ok=True)
        _, rc = jvm(["--workload", args.workload, "--seed", str(args.seed), "--fork", str(j),
                     "--seconds", str(args.seconds), "--config", str(CONFIG),
                     "--work-dir", str(WORK), "--out", str(out)], capture=False)
        if rc != 0:
            print(f"[icbench] fork {j} exited with {rc}", file=sys.stderr)
            return rc or 1
        outs.append(str(out))
    report, rc = jvm(["--report", ",".join(outs)], capture=True)
    lines = (report or "").strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        print(f"[icbench] report exited with {rc}", file=sys.stderr)
        return rc or 1
    sys.stdout.write(report)
    return rc


if __name__ == "__main__":
    sys.exit(main())
