#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

    python3 perfbench/run.py --workload scalability --seed 1 --seconds 20 --trace 0

Every argument is handed to perfbench.exe (see README.md beside this
file). The build runs first, with its output on stderr, so the last line
on stdout is the benchmark's JSON result. The exit code is the
benchmark's: non-zero when the build fails, when a cell fails a check,
or when there is no source tree beside this directory to build.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    return code


def source_digest():
    """A digest of the simulator and benchmark sources, for checkouts
    that carry no git history."""
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "source-sha1-" + h.hexdigest()[:16]


def commit():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return source_digest()


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        return fail("no simulator sources to build (dune-project and lib/ "
                    "must sit beside perfbench/)")
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune is not on PATH")
    # Dune's shared cache lives outside the checkout; keep the build inside.
    build_env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run([dune, "build", "--root", ROOT, TARGET],
                               cwd=ROOT, env=build_env, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    if build.returncode != 0:
        return fail("build failed")
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    sys.stdout.flush()
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("benchmark run timed out")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
