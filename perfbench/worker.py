"""One benchmark process: set-up, timed operations and output checks.

run.py starts this script in a fresh interpreter with BLAS threads pinned
to 1 and ``src`` on the import path. ``--phase setup`` only sets up and
reports the set-up time; ``--phase run`` sets up, runs operations for the
given number of seconds and prints one JSON line with the raw results.
"""

import time

T0 = time.perf_counter()  # set-up time includes importing numpy and afm

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys

# Every workload uses the default benchmark data and differs only in the
# training run and the dump that each operation performs.
DATA = dict(kind="blobs", classes=3, per_class_train=1000, per_class_test=250,
            d0=32, separation=4.0)
NOISE_MODEL, NOISE_RATE = "symmetric", 0.4
WORKLOADS = {
    # the paper's method: grouping, attention, mixing and the tape
    "afm-k2": dict(mode="afm", lam=0.75, epochs=40, interpolations=0, dumps=4),
    # the same loop with grouping and mixing bypassed
    "baseline": dict(mode="baseline", lam=0.0, epochs=40, interpolations=0, dumps=1),
    # one large forward-only group batch over the train split, CSV output
    "dump-features": dict(mode="afm", lam=0.75, epochs=2, interpolations=3000, dumps=1),
}
# ``dumps`` repeats the short dump of a training workload so that a run,
# which fits only a few 6-second afm trainings, still has enough dump_s
# samples. Each run cycles over INPUTS_PER_RUN inputs made from its seed;
# accuracy is the mean over them, so it does not depend on how many
# operations fit.
INPUTS_PER_RUN = 5


# Wall time of reference_s() on the machine the metrics are scaled to.
REFERENCE_S = 0.020


def reference_s():
    """Wall time of a fixed kernel that belongs to the benchmark, not to afm:
    small numpy calls dispatched from Python, float formatting and dict
    work, the same mix afm spends its time on. It runs before and after
    every timed call; run.py scales the run's timings by the median of
    reference_s() / REFERENCE_S, which takes out how fast the shared
    machine ran during the run. The garbage collector is off so that
    objects the program left behind do not slow the kernel."""
    import numpy as np
    a = np.linspace(-1.0, 1.0, 128 * 32).reshape(128, 32)
    w = np.linspace(-0.5, 0.5, 32 * 64).reshape(32, 64)
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        for _ in range(100):
            h = a @ w
            h = np.where(h > 0, h, 0.0)
            e = np.exp(h - h.max(axis=1, keepdims=True))
            e /= e.sum(axis=1, keepdims=True)
            ",".join(repr(float(v)) for v in e[0])
            sum({i: i * 0.5 for i in range(64)}.values())
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def sub_seed(seed: int, j: int) -> int:
    return 100 * seed + j


def load_afm(root):
    src = os.path.join(root, "src")
    import afm.checkpoint, afm.cli, afm.data, afm.grouping  # noqa: E401
    import afm.mixing, afm.model, afm.tensor, afm.training  # noqa: E401
    if not os.path.abspath(afm.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"afm imported from {afm.__file__}, not from {src}")
    return afm


def set_up(afm, seed, work):
    """Make the run's datasets and write each one as a dataset file."""
    datasets, paths = [], []
    for j in range(INPUTS_PER_RUN):
        s = sub_seed(seed, j)
        ds = afm.data.generate(DATA["kind"], DATA["classes"], DATA["per_class_train"],
                               DATA["per_class_test"], DATA["d0"], DATA["separation"], s)
        ds = afm.data.inject_noise(ds, NOISE_MODEL, NOISE_RATE, s)
        path = os.path.join(work, f"dataset{j}.bin")
        afm.data.save_dataset(path, ds)
        datasets.append(ds)
        paths.append(path)
    return datasets, paths


def check_csv(path, n_rows, k):
    """Row count and attention-weight simplex check of a dump-features CSV."""
    problems = []
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != n_rows:
        problems.append(f"CSV has {len(rows)} rows, expected {n_rows}")
    for i, row in enumerate(rows):
        if row["is_interpolation"] != "1":
            continue
        w = [float(v) for v in row["attention_weights"].split("|")]
        if len(w) != k or abs(sum(w) - 1.0) > 1e-9:
            problems.append(f"row {i}: attention weights {w} do not sum to 1")
            break
    return problems


def run_op(afm, spec, seed, j, datasets, paths, work):
    """One operation: train(), write the checkpoint, then afm dump-features.
    Returns the measurements and the list of failed output checks. The
    reference kernel runs before and after each timed call."""
    ds = datasets[j]
    cfg = afm.training.TrainConfig(mode=spec["mode"], lam=spec["lam"],
                                   epochs=spec["epochs"], seed=sub_seed(seed, j))
    refs = [reference_s()]
    t = time.perf_counter()
    state, log = afm.training.train(ds, cfg)
    train_s = time.perf_counter() - t
    refs.append(reference_s())

    ckpt = os.path.join(work, "checkpoint.bin")
    out = os.path.join(work, "features.csv")
    afm.training.save_state(ckpt, state)
    argv = ["dump-features", "--checkpoint", ckpt, "--dataset", paths[j],
            "--out", out, "--interpolations", str(spec["interpolations"]),
            "--seed", str(sub_seed(seed, j))]
    dump_s = []
    for _ in range(spec["dumps"]):
        t = time.perf_counter()
        rc = afm.cli.main(argv)
        dump_s.append(time.perf_counter() - t)
        refs.append(reference_s())
        if rc != 0:
            break

    loss = log.final("train_loss")
    acc = log.final("test_acc")
    batches = len(range(0, ds.n_train - cfg.k + 1, cfg.batch_size))
    problems, digest = [], None
    if not math.isfinite(loss):
        problems.append(f"final loss {loss} is not finite")
    if not 1.0 / ds.n_classes < acc <= 1.0:
        problems.append(f"test_acc {acc} not in (1/C, 1]")
    if state.step != cfg.epochs * batches:
        problems.append(f"{state.step} steps, expected {cfg.epochs * batches}")
    if rc != 0:
        problems.append(f"dump-features exited with {rc}")
    else:
        problems += check_csv(out, len(ds.clean_labels) + spec["interpolations"], cfg.k)
        with open(out, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
    return dict(steps=state.step, train_s=train_s, dump_s=dump_s, refs=refs,
                loss=loss, test_acc=acc, csv=digest), problems


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def layer_metrics(summaries, steps, overhead, setup):
    """Per-layer metrics: medians over the traced operations; counts from
    the first one (they repeat exactly for a fixed input)."""
    from tracer import LAYERS, PRIMITIVES

    def med(fn):
        return statistics.median(fn(s) for s in summaries)

    def span(name, i):
        return lambda s: s["spans"].get(name, (0, 0.0, 0.0))[i]

    first = summaries[0]
    out = {}

    def timed(name, calls=True):
        if calls:
            out[f"{name}.calls"] = span(name, 0)(first)
        out[f"{name}.s"] = med(span(name, 1))

    for p in PRIMITIVES:
        timed(f"tensor.{p}")
    timed("tensor.backward")
    counts = first["counts"]
    out["tensor.ops_per_step"] = first["prims_in_train"] / steps
    flops = counts.get("tensor.matmul.flops", 0)
    out["tensor.matmul.flops"] = flops
    out["tensor.matmul.selector_flop_share"] = (
        counts.get("selector_flops", 0) / flops if flops else 0.0)
    for name in ("model.extract_features", "model.classify", "model.inference_predict",
                 "grouping.sample_groups", "grouping.attend",
                 "grouping.member_selectors", "mixing.interpolate",
                 "training.compute_loss", "training.sgd_step",
                 "checkpoint.read_arrays", "checkpoint.write_arrays"):
        timed(name)
    for name in ("training.train", "data.load_dataset", "cli.dump_features"):
        timed(name, calls=False)
    for key in ("grouping.groups", "grouping.selector_bytes",
                "checkpoint.read_arrays.bytes", "checkpoint.write_arrays.bytes",
                "cli.csv_bytes"):
        out[key] = counts.get(key, 0)
    out["training.steps"] = steps
    out["data.generate.s"] = setup["spans"]["data.generate"][1]
    out["data.inject_noise.s"] = setup["spans"]["data.inject_noise"][1]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = med(lambda s: s["layer_self_s"][layer])
    out.update(overhead)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--phase", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()
    root = os.getcwd()
    spec = WORKLOADS[args.workload]
    os.makedirs(args.work, exist_ok=True)

    afm = load_afm(root)
    tracer = setup_summary = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(afm)
    datasets, paths = set_up(afm, args.seed, args.work)
    setup_s = time.perf_counter() - T0
    if tracer is not None:
        setup_summary = tracer.summary()
        left = tracer.uninstall()
        if left:
            raise SystemExit(f"attributes left wrapped after set-up: {left}")
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    ops, problems, first_of_input = [], [], {}
    attempted = failed = 0
    traced_ops, summaries, self_check = [], [], []
    deadline = time.perf_counter() + args.seconds
    j = 0
    # Untraced operations only, or (trace 1) pairs of an untraced and a
    # traced operation on the same input. A new operation (or pair) starts
    # while its expected length still fits; at least INPUTS_PER_RUN run.
    while True:
        for traced in ((False, True) if tracer else (False,)):
            attempted += 1
            if traced:
                tracer.reset()
                tracer.install(afm)
            t = time.perf_counter()
            try:
                op, bad = run_op(afm, spec, args.seed, j, datasets, paths, args.work)
            except Exception as exc:  # an operation that raises counts as failed
                op, bad = None, [f"{type(exc).__name__}: {exc}"]
            finally:
                if traced:
                    left = tracer.uninstall()
                    if left:
                        bad = bad + [f"attributes left wrapped: {left}"]
            op_s = time.perf_counter() - t
            if op is not None:
                ref = first_of_input.setdefault(j, op)
                same = all(op[key] == ref[key] for key in ("loss", "test_acc", "csv"))
                if not same:
                    bad.append(f"input {j}: result differs from its first run"
                               + (" (traced vs untraced)" if traced else ""))
                (traced_ops if traced else ops).append(op)
            if bad:
                failed += 1
                problems.extend(bad)
            elif traced:
                summary = tracer.summary()
                train_s, train_layers, prims = tracer.within("training.train")
                summary["prims_in_train"] = prims
                summaries.append(summary)
                self_check.append({"training.train.s": train_s,
                                   "layer_self_s": train_layers})
        j = (j + 1) % INPUTS_PER_RUN
        now = time.perf_counter()
        # a traced run reports no accuracy, so one pair is enough there
        enough = len(traced_ops) >= 1 if tracer else len(ops) >= INPUTS_PER_RUN
        if enough and now + op_s * (2 if tracer else 1) > deadline:
            break
        if failed and not ops:
            break
    if tracer is not None and args.spans_out:
        tracer.write(args.spans_out)

    result = {
        "attempted": attempted, "failed": failed, "problems": problems[:20],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steps_per_s": [op["steps"] / op["train_s"] for op in ops],
        "dump_s": [d for op in ops for d in op["dump_s"]],
        # how much slower than nominal the machine ran, once per reference run
        "slowness": [r / REFERENCE_S for op in ops for r in op["refs"]],
        # mean over the run's inputs of each input's (repeatable) accuracy
        "test_acc": (statistics.fmean(op["test_acc"] for op in first_of_input.values())
                     if len(first_of_input) == INPUTS_PER_RUN else None),
        "env": environment(),
    }
    if tracer is not None and summaries:
        untraced_sps = statistics.median(result["steps_per_s"])
        traced_sps = statistics.median(op["steps"] / op["train_s"] for op in traced_ops)
        traced_dump = statistics.median(d for op in traced_ops for d in op["dump_s"])
        overhead = {
            "trace.overhead": 1.0 - traced_sps / untraced_sps,
            "trace.dump_overhead": traced_dump / statistics.median(result["dump_s"]) - 1.0,
        }
        result["layers"] = layer_metrics(summaries, traced_ops[0]["steps"], overhead,
                                         setup_summary)
        result["self_check"] = self_check
        result["span_table"] = summaries[-1]["spans"]
    print(json.dumps(result))


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    main()
