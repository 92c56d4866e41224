#!/usr/bin/env python3
"""Build the spiral-smp benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload small-1d --seed 1 --seconds 10 --trace 0

The benchmark (perfbench/ocaml) is a dune project of its own.  It is
built in a private workspace under .bench_build/ that holds copies of
lib/ and bin/ next to it, so the repository's own `dune build` never
sees it.  The last line of standard output is the run's JSON result.
"""

import argparse
import filecmp
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("small-1d", "large-1d2d", "plan-churn")
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def copy_if_changed(s, d):
    if not os.path.exists(d) or not filecmp.cmp(s, d, shallow=False):
        shutil.copyfile(s, d)


def sync_tree(src, dst):
    """Mirror src into dst, rewriting only files whose content changed."""
    keep = set()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = [d for d in dirnames if not d.startswith((".", "_"))]
        rel = os.path.relpath(dirpath, src)
        os.makedirs(os.path.join(dst, rel), exist_ok=True)
        for f in filenames:
            s = os.path.join(dirpath, f)
            d = os.path.join(dst, rel, f)
            keep.add(os.path.normpath(d))
            copy_if_changed(s, d)
    for dirpath, dirnames, filenames in os.walk(dst):
        dirnames[:] = [d for d in dirnames if not d.startswith("_")]
        for f in filenames:
            p = os.path.normpath(os.path.join(dirpath, f))
            if p not in keep:
                os.remove(p)


def build(root, build_root):
    for need in ("lib", os.path.join("bin", "spiralgen.ml")):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the repository root: %s is missing" % need)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    ws = os.path.join(build_root, "ws")
    os.makedirs(ws, exist_ok=True)
    src = os.path.join(HERE, "ocaml")
    sources = set(os.listdir(src))
    for f in sources:
        copy_if_changed(os.path.join(src, f), os.path.join(ws, f))
    for f in os.listdir(ws):
        if f not in sources and os.path.isfile(os.path.join(ws, f)):
            os.remove(os.path.join(ws, f))
    sync_tree(os.path.join(root, "lib"), os.path.join(ws, "lib"))
    sync_tree(os.path.join(root, "bin"), os.path.join(ws, "bin"))
    cmd = ["dune", "build", "--root", ws, "--profile", "release", "--cache", "disabled",
           "./perfbench.exe", "./bin/spiralgen.exe"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build failed", 1)
    out = os.path.join(ws, "_build", "default")
    return os.path.join(out, "perfbench.exe"), os.path.join(out, "bin", "spiralgen.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="perturb the first output of every check site (self-test)")
    a = ap.parse_args()
    root = os.getcwd()
    build_root = os.path.join(".bench_build", "perfbench")
    exe, daemon = build(root, build_root)
    out = os.path.join(build_root, "run")
    os.makedirs(out, exist_ok=True)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed), "--seconds",
           str(a.seconds), "--trace", str(a.trace), "--spiralgen", daemon, "--out", out]
    if a.corrupt:
        cmd.append("--corrupt")
    sys.stdout.flush()
    child = subprocess.Popen(cmd)

    # pass a termination on, so the benchmark stops its daemon
    signal.signal(signal.SIGTERM, lambda signum, frame: child.terminate())
    sys.exit(child.wait())


if __name__ == "__main__":
    main()
