#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of the repository.  One workload runs in one process;
the last line of stdout is its JSON result.  "all" runs every workload
untraced and traced, each in a fresh process, and exits non-zero if any
check fails.  See perfbench/README.md.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ["paper-bulk", "fleet-uniform-64", "fleet-incast-64", "socket-loopback"]
SOURCES = ["bin", "lib", "perfbench", "dune-project", "dune-workspace"]


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    return 2


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def source_sha256():
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def provenance():
    commit = None
    if os.path.isdir(".git") and shutil.which("git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = r.stdout.strip() or None
    profile = "dev"
    if os.path.isfile("dune-workspace"):
        with open("dune-workspace") as f:
            m = re.search(r"^\(profile\s+(\w+)\)", f.read(), re.M)
            profile = m.group(1) if m else profile
    cpu = None
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.*)$", f.read(), re.M)
            cpu = m.group(1).strip() if m else None
    return {
        "commit": commit,
        "source_sha256": source_sha256(),
        "build_profile": profile,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def run_all(args):
    """Every workload, untraced then traced; non-zero exit on any failure."""
    ok = True
    for w in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [EXE, "--workload", w, "--trace", trace] + args
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(r.stdout)
            lines = r.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
                good = r.returncode == 0 and res["correct"] and res["failed"] == 0
            except (IndexError, ValueError, KeyError):
                good = False
            print("== %s trace %s: %s" % (w, trace, "ok" if good else "FAILED"), flush=True)
            ok = ok and good
    return 0 if ok else 1


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the root of the repository (no dune-project or lib/ here)")
    cmd = dune()
    if cmd is None:
        return fail("dune is not installed")
    # The shared dune cache lives outside the checkout; keep the build inside it.
    build = subprocess.run(cmd + ["build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
                           stdout=sys.stderr)
    if build.returncode != 0:
        return fail("build failed")
    # One CPU for the whole run (the socket server child inherits it): the
    # loopback client and server then hand off on one core instead of
    # through cross-CPU wakeups, whose cost swings widely on a shared
    # virtual machine.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    prov = provenance()
    prov["pinned_cpu"] = cpu
    print("provenance " + json.dumps(prov), flush=True)
    if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == ["all"]:
        i = argv.index("--workload")
        return run_all(argv[:i] + argv[i + 2:])
    os.execv(EXE, [EXE] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
