#!/usr/bin/env python3
"""End-to-end benchmark of the 3D-Flow legalizer.

    python3 e2ebench/run.py --workload oneshot_case4 --seed 1 --seconds 30 --trace 0

Run from the repository root. It builds the `e2ebench` package (into
$CARGO_TARGET_DIR, else e2ebench/target), prepares the workload's inputs
in a process of their own (cached per built binary and generator seed,
since the base placement depends on the legalizer being measured), runs
the measured process(es), and prints one JSON line last:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. See e2ebench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# workload -> (ICCAD-2022 case, measured subcommand)
WORKLOADS = {
    "oneshot_case4": ("case4", "oneshot"),
    "oneshot_case3": ("case3", "oneshot"),
    "eco_case4": ("case4", "eco"),
}

# A run must end within 180 s; the measured process gets what is left.
DEADLINE_S = 170


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build(target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        sys.exit("e2ebench: build failed")
    return os.path.join(target, "release", "e2ebench")


def binary_key(exe):
    h = hashlib.sha256()
    with open(exe, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def prepare(exe, target, case, gen_seed, need_base):
    """Inputs for one (binary, case, generator seed), made once."""
    seed_tag = "preset" if gen_seed is None else str(gen_seed)
    base_dir = os.path.join(target, "e2ebench-inputs", binary_key(exe))
    final = os.path.join(base_dir, f"{case}-{seed_tag}")
    files = ["case.txt", "gp.txt"] + (["base.txt"] if need_base else [])
    if all(os.path.exists(os.path.join(final, f)) for f in files):
        return final
    tmp = f"{final}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    cmd = [exe, "prep", "--case", case, "--dir", tmp, "--base", "1" if need_base else "0"]
    if gen_seed is not None:
        cmd += ["--gen-seed", str(gen_seed)]
    t0 = time.monotonic()
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        sys.exit("e2ebench: input preparation failed")
    log(f"prepared {case} in {time.monotonic() - t0:.1f} s")
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)
    return final


def run_worker(cmd, deadline):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.exit(f"e2ebench: {cmd[1]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_eco(exe, inputs, run_dir, args, deadline):
    # The socket path is relative: an absolute one can exceed the
    # 108-byte limit of unix socket addresses.
    socket = os.path.relpath(os.path.join(run_dir, "serve.sock"))
    paths = ["--dir", inputs, "--socket", socket,
             "--setup-out", os.path.join(run_dir, "setup.json")]
    server = subprocess.Popen([exe, "serve"] + paths, stdout=sys.stderr)
    try:
        return run_worker([exe, "eco"] + paths +
                          ["--seconds", str(args.seconds), "--trace", str(args.trace),
                           "--eco-seed", str(args.seed)], deadline)
    finally:
        # Stopped with a signal, not `shutdown`: the server can exit
        # before it has written its answer to `shutdown`.
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1,
                    help="ECO move-stream seed (default 1)")
    ap.add_argument("--gen-seed", type=int, default=None,
                    help="generator seed (default: the ICCAD-2022 preset's)")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    case, kind = WORKLOADS[args.workload]
    exe = build(target)
    deadline = max(deadline, time.monotonic() + DEADLINE_S)  # the first build may be long
    inputs = prepare(exe, target, case, args.gen_seed, need_base=(kind == "eco"))

    run_dir = os.path.join(target, "e2ebench-runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        if kind == "eco":
            out = run_eco(exe, inputs, run_dir, args, deadline)
        else:
            out = run_worker([exe, "oneshot", "--dir", inputs,
                              "--out", os.path.join(run_dir, "legal.txt"),
                              "--seconds", str(args.seconds), "--trace", str(args.trace)],
                             deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # Every declared metric is printed; a layer this workload does not
    # exercise reads 0. An end-to-end metric must have been measured: it
    # may be 0 or below (a dHPWL can be), but not missing or not finite.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = out["metrics"]
    metrics = {}
    for m in wanted:
        value = got.get(m["name"], {}).get("value")
        if value is None and args.trace:
            value = 0.0
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            sys.exit(f"e2ebench: metric {m['name']} is {value!r}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
