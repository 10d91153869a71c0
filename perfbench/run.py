"""Run one raycalib benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit_noisy --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; raycalib is imported from ``src/``
(nothing is installed or built).  Each workload runs in fresh worker
processes (``worker.py``) with BLAS pinned to one thread:

* ``--trace 0``: processes that only set up, then one (three on
  ``dataset_cli``) that sets up and runs the timed closed loop.  ``setup_s``
  is the median of all set-up times.  Prints every end-to-end metric by name
  and unit.
* ``--trace 1``: one process that runs every input untraced and then traced,
  records spans, and prints the per-layer metrics and per-span self times.
  Spans are written to ``perfbench/.state/``.

Both modes print a per-family breakdown.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``correct`` is false when any op failed the correctness gate.
Exit codes: 0 when the run completed, 1 when a worker crashed or overran,
2 when the checkout has no ``src/raycalib``, 3 when the determinism
self-check failed.  Only exit code 0 prints a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = BENCH / ".state"

# BENCHMARK.json lists fit_noisy and dataset_cli; ransac_outliers and the
# eucm_narrow defect reproducer are run by hand (see README.md)
WORKLOADS = ("fit_noisy", "ransac_outliers", "dataset_cli", "eucm_narrow")
# set-up is sampled at least SETUP_MIN times, and more often (up to
# SETUP_MAX) while the samples add up to less than SETUP_MIN_S: a cheap
# set-up is mostly import time, which is bimodal from one process to the
# next, so its median needs more samples to stay put
SETUP_MIN, SETUP_MAX, SETUP_MIN_S = 5, 11, 3.0
# dataset_cli's loop runs in this many processes, one after another, each for
# an equal share of --seconds (one pass each).  Its op time depends on the
# process (about 0.13 s in one and 0.18 s in the next on the reference
# machine), and a median over the ops of three processes moves less.  A
# fit_noisy sweep (28 fits, about 45 s) outlasts a whole run, so it stays in
# one process.
LOOP_PROCESSES = {"dataset_cli": 3}
DEADLINE_S = 170.0  # every worker of one run must finish within this



def fail(code: int, message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(code)


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    env = {"nproc": nproc, "python": platform.python_version(), "cpu": "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for level in (2, 3):
        for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            try:
                if int((idx / "level").read_text()) == level:
                    env[f"l{level}"] = (idx / "size").read_text().strip()
            except (OSError, ValueError):
                pass
    return env


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        RAYCALIB_THREADS=str(min(2, nproc)),
    )
    return env


def run_worker(role: str, args, env: dict, deadline: float, extra=(), seconds=None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds if seconds is None else seconds),
           "--trace", str(args.trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(1, f"{role} worker did not finish in time")
    if proc.returncode != 0:
        fail(proc.returncode if proc.returncode in (2, 3) else 1,
             f"{role} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def code_hash() -> str:
    h = hashlib.sha256()
    for p in sorted([*(SRC / "raycalib").glob("*.py"), *BENCH.glob("*.py")]):
        h.update(p.name.encode() + p.read_bytes())
    return h.hexdigest()[:16]


def determinism_check(args, out: dict) -> None:
    """Same seed and code must give the same inputs, counts and ae, bit for bit."""
    s = out["summary"]
    record = {
        "fingerprint": out["fingerprint"],
        "dataset_sha": out.get("dataset_sha"),
        "fit.gn_improving_iters": s["gn_improving_iters"],
        "fit.dropped_cells": s["dropped_cells"],
        "fit.ransac_inlier_ratio": None if s["ransac_inlier_ratio"] is None
        else float(s["ransac_inlier_ratio"]).hex(),
        "ae_deg_p50": float(s["ae_deg_p50"]).hex(),
    }
    path = STATE / "records" / f"{args.workload}-seed{args.seed}-{code_hash()}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        diff = sorted(k for k in record if record[k] != before.get(k))
        if diff:
            fail(3, f"determinism self-check failed: {diff} differ from {path.name}")
        print(f"# determinism: matches the earlier run with seed {args.seed} ({path.name})")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"# determinism: recorded {path.name}; a rerun with seed {args.seed} must match it")


def merge_loops(runs: list[dict]) -> dict:
    """One result from the loop processes of a run.  Each ran the same
    sweeps, so everything but the timings must agree exactly."""
    def exact(r):
        return {k: v for k, v in r["summary"].items() if k != "families"}, r["dataset_sha"]

    if any(exact(r) != exact(runs[0]) for r in runs):
        fail(3, "determinism self-check failed: the loop processes of one run disagree")
    out = dict(runs[0])
    for key in ("op_seconds", "op_pixels"):
        out[key] = [x for r in runs for x in r[key]]
    out["failed"] = sum(r["failed"] for r in runs)
    out["peak_rss_mib"] = max(r["peak_rss_mib"] for r in runs)
    if "loop_s" in out:
        out["loop_s"] = sum(r["loop_s"] for r in runs)
    return out


def op_tail(seconds: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten ops beyond it, and that percentile."""
    t = sorted(seconds)
    k = max(len(t) - 10, 1)  # ops at or below the reported value
    return t[k - 1], 100.0 * k / len(t)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "raycalib" / "__init__.py").is_file():
        fail(2, f"no raycalib sources under {SRC}; run from the root of a checkout")

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    env_info = environment()
    env = child_env(env_info["nproc"])
    print(f"# env: nproc={env_info['nproc']} cpu={env_info['cpu']!r} L2={env_info.get('l2')} "
          f"L3={env_info.get('l3')} python={env_info['python']} "
          f"OPENBLAS_NUM_THREADS=1 RAYCALIB_THREADS={env['RAYCALIB_THREADS']}")

    setups = []
    loops = 1 if args.trace else LOOP_PROCESSES.get(args.workload, 1)
    if not args.trace:
        while len(setups) + loops < SETUP_MAX and (
                len(setups) + loops < SETUP_MIN or sum(x["setup_s"] for x in setups) < SETUP_MIN_S):
            setups.append(run_worker("setup", args, env, deadline))
    trace_out = STATE / f"trace-{args.workload}-seed{args.seed}.json"
    if args.trace:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
    runs = [run_worker("run", args, env, deadline,
                       ("--trace-out", str(trace_out)) if args.trace else (),
                       args.seconds / loops) for _ in range(loops)]
    setups += runs
    out = merge_loops(runs)
    prints = {s["fingerprint"] for s in setups}
    if len(prints) != 1:
        fail(3, f"determinism self-check failed: {len(prints)} input fingerprints for one seed")
    print(f"# numpy={out['numpy']} workload={args.workload} seed={args.seed} "
          f"inputs sha256={out['fingerprint'][:16]} ({out['input_mb']:.1f} MB)")
    print(f"# working set (computed): GN arrays dg+dq+J of the largest op "
          f"{out['working_set_mb_computed']:.1f} MB, against L2 {env_info.get('l2')} "
          f"and L3 {env_info.get('l3')}")
    determinism_check(args, out)

    s = out["summary"]
    attempted, failed = len(out["op_seconds"]), out["failed"]
    for reason in s["failures"]:
        print(f"# FAILED op: {reason}")

    print("# per family: ops op_s_p50 ae_deg_p50 gn_improving_iters")
    for fam, row in s["families"].items():
        ae = "-" if row["ae_deg_p50"] is None else f"{row['ae_deg_p50']:.3e}"
        print(f"#   {fam:10s} {row['ops']:3d} {row['op_s_p50']:9.4f} {ae:>10s} "
              f"{row['gn_improving_iters']:3d}")
    if args.trace:
        metrics = {m["name"]: {"value": out["layer"][m["name"]], "unit": m["unit"]}
                   for m in listed["per_layer"]}
        print("# per-span self time (s): name calls total self")
        for name, row in sorted(out["self_times"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"#   {name:24s} {row['calls']:5d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
        for name, (value, unit) in out["specific"].items():
            print(f"{name:32s} {value!r} {unit}")
        for name, m in metrics.items():
            print(f"{name:32s} {m['value']!r} {m['unit']}")
        print(f"# spans written to {trace_out.relative_to(ROOT)}")
    else:
        tail, pct = op_tail(out["op_seconds"])
        values = {
            "setup_s": statistics.median(x["setup_s"] for x in setups),
            "op_s_p50": statistics.median(out["op_seconds"]),
            "op_s_tail": tail,
            "mpix_per_s": sum(out["op_pixels"]) / 1e6 / out["loop_s"],
            "peak_rss_mib": out["peak_rss_mib"],
            "ae_deg_p50": s["ae_deg_p50"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in listed["end_to_end"]}
        print(f"# setup_s samples: {[round(x['setup_s'], 4) for x in setups]}")
        for name, m in metrics.items():
            note = f"  (p{pct:.1f} of {attempted} ops)" if name == "op_s_tail" else ""
            print(f"{name:14s} {m['value']!r} {m['unit']}{note}")
        # fail_ratio is reported here and as failed/attempted in the result
        # line; it is 0 on a correct run, so it is no tracked metric
        print(f"{'fail_ratio':14s} {failed / attempted!r} ratio  ({failed}/{attempted} ops)")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
