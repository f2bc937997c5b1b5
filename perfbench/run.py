"""afm benchmark: end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).

Run from the root of an afm checkout:

    python3 perfbench/run.py --workload afm-k2 --seed 1 --seconds 30 --trace 0

Workloads: afm-k2, baseline, dump-features (see perfbench/README.md). Each
run sets up several times in fresh processes for ``setup_s``, then runs
operations in one more process for ``--seconds`` seconds. BLAS threads are
pinned to 1. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it are a
readable report with the environment and load average.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_BEFORE, SETUP_AFTER = 3, 3  # set-up-only processes around the run process
DEADLINE_S = 170.0         # whole run, set-up included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COMPUTED = ("tensor.matmul.flops", "tensor.matmul.selector_flop_share",
            "grouping.selector_bytes", "tensor.ops_per_step")


def metric_units(kind):
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def worker(args, phase, env, work, timeout, spans_out=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace if phase == "run" else 0),
           "--work", work]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {phase} process failed with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("afm-k2", "baseline", "dump-features"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "afm", "__init__.py")):
        print(f"perfbench: no src/afm under {root}; run from the root of an afm checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1",
               **{v: "1" for v in THREAD_VARS})
    work = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
    spans_out = None
    if args.trace:
        os.makedirs(os.path.join(root, ".perfbench_out"), exist_ok=True)
        spans_out = os.path.join(root, ".perfbench_out",
                                 f"spans-{args.workload}-seed{args.seed}.json.gz")

    load_before = os.getloadavg()
    try:
        # set-up samples before and after the run process, so that they
        # span the same stretch of machine load as the run
        setups = [worker(args, "setup", env, work, 60)["setup_s"]
                  for _ in range(SETUP_BEFORE)]
        res = worker(args, "run", env, work, DEADLINE_S - 20 - (time.monotonic() - start),
                     spans_out)
        setups += [worker(args, "setup", env, work, 60)["setup_s"]
                   for _ in range(SETUP_AFTER)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it
    load_after = os.getloadavg()
    setups.append(res["setup_s"])  # the run process's own set-up

    env_record = dict(res["env"], loadavg_before=load_before, loadavg_after=load_after)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(env_record, sort_keys=True))
    attempted, failed = res["attempted"], res["failed"]
    print(f"error_rate {failed / attempted:.6g} (failed/attempted = {failed}/{attempted})")
    for p in res["problems"]:
        print(f"check failed: {p}")

    if args.trace:
        if "layers" not in res:
            raise SystemExit("perfbench: no traced operation succeeded")
        metrics = {}
        for name, unit in metric_units("per_layer").items():
            value = res["layers"][name]
            tag = " (computed)" if name in COMPUTED else ""
            print(f"{name} {value:.9g} {unit}{tag}")
            metrics[name] = {"value": value, "unit": unit}
        print("self times inside training.train, by layer:")
        for row in res["self_check"]:
            parts = " ".join(f"{k}={v:.6f}" for k, v in row["layer_self_s"].items() if v)
            total = sum(row["layer_self_s"].values())
            print(f"  training.train.s={row['training.train.s']:.6f} = sum {total:.6f}: {parts}")
        print("spans of the last traced operation: name calls s self_s")
        for name, (calls, total, own) in sorted(res["span_table"].items()):
            print(f"  {name} {calls} {total:.6f} {own:.6f}")
        print(f"spans written to {os.path.relpath(spans_out, root)}")
    else:
        if not res["steps_per_s"] or res["test_acc"] is None:
            raise SystemExit("perfbench: too few successful operations for a result")
        # Run timings are medians divided by the run's median slowness, the
        # reference kernel's time over its nominal time (worker.reference_s).
        # This takes out how fast the shared machine ran during the run.
        # Set-up is mostly imports, which do not scale with the kernel, so
        # setup_s stays as measured.
        slow = statistics.median(res["slowness"])
        values = {
            "setup_s": (statistics.median(setups), setups),
            "steps_per_s": (statistics.median(res["steps_per_s"]) * slow, res["steps_per_s"]),
            "test_acc": (res["test_acc"], None),
            "dump_s": (statistics.median(res["dump_s"]) / slow, res["dump_s"]),
            "peak_rss_mb": (res["peak_rss_mb"], None),
        }
        metrics = {}
        for name, unit in metric_units("end_to_end").items():
            value, samples = values[name]
            detail = ""
            if samples:
                q1, q2, q3 = quartiles(samples)
                detail = (f"(as measured: n={len(samples)} q1={q1:.6g} median={q2:.6g}"
                          f" q3={q3:.6g})")
            print(f"{name} {value:.9g} {unit} {detail}".rstrip())
            metrics[name] = {"value": value, "unit": unit}
        q1, q2, q3 = quartiles(res["slowness"])
        print(f"slowness (reference kernel time / nominal) n={len(res['slowness'])} "
              f"q1={q1:.4g} median={q2:.4g} q3={q3:.4g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
