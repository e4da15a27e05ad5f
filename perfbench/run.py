#!/usr/bin/env python3
"""Build and run one perfbench workload from a checkout of the repository.

    python3 perfbench/run.py --workload table3-complete --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Builds the OCaml bench (perfbench/ocaml, a dune package of its own) and the
mmap CLI with dune from a staged copy of their sources under
$CARGO_TARGET_DIR (else .bench_build), runs the workload with the current
directory at the checkout root and relays its output. The last stdout line is the
result object; it is printed only when it carries exactly the metrics
BENCHMARK.json lists for the mode. Exits nonzero on a build failure, a
failed correctness check or a malformed result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["table3-complete", "s3-tree", "serve-open"]
WORKDIR = ".perfbench_run"  # relative: keeps the daemon's socket path short
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def source_files(top):
    """Relative paths of the regular files under top, build output skipped."""
    found = []
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if not d.startswith(("_", "."))]
        for name in filenames:
            found.append(os.path.relpath(os.path.join(dirpath, name), top))
    return found


def stage(dest):
    """Mirror the bench package (perfbench/ocaml) with lib/ and bin/ beside
    it into dest, rewriting only files whose bytes changed so that dune's
    incremental build survives between runs. None when a source is missing."""
    wanted = {}
    for src, sub in ((os.path.join(ROOT, "perfbench", "ocaml"), ""),
                     (os.path.join(ROOT, "lib"), "lib"),
                     (os.path.join(ROOT, "bin"), "bin")):
        if not os.path.isdir(src):
            log("missing source directory %s" % os.path.relpath(src, ROOT))
            return None
        for rel in source_files(src):
            wanted[os.path.join(sub, rel)] = os.path.join(src, rel)
    for rel in source_files(dest) if os.path.isdir(dest) else []:
        if rel not in wanted:
            os.remove(os.path.join(dest, rel))
    for rel, src in wanted.items():
        dst = os.path.join(dest, rel)
        with open(src, "rb") as f:
            data = f.read()
        if os.path.isfile(dst):
            with open(dst, "rb") as f:
                if f.read() == data:
                    continue
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        with open(dst, "wb") as f:
            f.write(data)
    return dest


def build():
    """Build the bench and the mmap CLI from a staged copy of the sources,
    outside the repository's own dune project."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    src = stage(os.path.join(target, "src"))
    if src is None:
        return None
    build_dir = os.path.join(target, "_build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", src, "--build-dir", build_dir,
           "./perfbench.exe", "./bin/mmap.exe"]
    try:
        done = subprocess.run(cmd, cwd=src, env=env, stdout=sys.stderr)
    except OSError as e:
        log("cannot run dune: %s" % e)
        return None
    if done.returncode != 0:
        log("build failed")
        return None
    return (os.path.join(build_dir, "default", "perfbench.exe"),
            os.path.join(build_dir, "default", "bin", "mmap.exe"))


def source_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def stop_group(pgid):
    """Kill whatever the run left in its process group and wait it out."""
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_one(exe, mmap, workload, args):
    cmd = [exe, workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mmap", mmap, "--workdir", WORKDIR,
           "--rev", source_rev()]
    shutil.rmtree(os.path.join(ROOT, WORKDIR), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, WORKDIR))
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s: timed out after %d s" % (workload, RUN_TIMEOUT_S))
        out = None
    finally:
        stop_group(proc.pid)
        proc.wait()
        shutil.rmtree(os.path.join(ROOT, WORKDIR), ignore_errors=True)
    if out is None:
        return None, 1
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("%s: no result line" % workload)
        return None, 1
    want = expected_metrics(args.trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        log("%s: result does not match BENCHMARK.json (missing %s, extra %s)" % (
            workload, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
        return None, 1
    return result, proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    built = build()
    if built is None:
        return 1
    exe, mmap = built
    if args.workload != "all":
        result, code = run_one(exe, mmap, args.workload, args)
        if result is not None:
            print(json.dumps(result))
        return code
    # all three in turn; the last line merges them, metrics keyed by workload
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in WORKLOADS:
        result, c = run_one(exe, mmap, w, args)
        if result is None:
            return 1
        print(json.dumps(result))
        code = code or c
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][w + "/" + k] = v
    print(json.dumps(merged))
    return code


if __name__ == "__main__":
    sys.exit(main())
