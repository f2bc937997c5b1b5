"""Print bit digests of short training runs, to check that a refactor keeps
every float bit.

Each configuration trains 4 epochs at seed 0 on the default benchmark data
(blobs, C=3, d0=32, 1000/250 samples per class, symmetric noise 0.4), the
last on the same data with pairflip noise 0.4 instead. For
each it prints the first 16 hex digits of three sha256 digests: of the
final parameters' names (the model's, then the attention net's, each
name's UTF-8 bytes followed by a newline), of their values in that order
(the raw bytes of each), and of repr(log.rows). A change that renames a
parameter thus moves only the names digest. Then come the sha256 of the
CSV that `afm dump-features --interpolations 3000` writes from the afm K=2 run,
that of the checkpoint file `save_state` writes of that run, and that of
the raw bytes of that run's final optimizer velocity. Last
come the repr of the worst finite-difference errors of
`afm.verify.check_gradients()` and `afm.verify.check_step_loss()`, so a
change to how the gradient checks build their functions is compared bit
for bit as well.

Run from the repository root, on two checkouts, and compare the output:

    PYTHONPATH=src python scripts/bit_digests.py
"""

import hashlib
import os
import tempfile

from afm import cli, verify
from afm.data import save_dataset
from afm.training import TrainConfig, save_state, train

PAIRFLIP = "afm K=2, pairflip noise"
CONFIGS = {
    "afm K=2": {},
    "afm K=3": dict(k=3),
    "afm K=4": dict(k=4),
    "sum + none": dict(projections="none"),
    "concat + none, K=2": dict(interaction="concat", projections="none"),
    "concat + none, K=3": dict(interaction="concat", projections="none", k=3),
    "concat + distinct": dict(interaction="concat"),
    "concat + shared, K=3": dict(interaction="concat", projections="shared", k=3),
    "mul": dict(interaction="mul"),
    "unshared heads": dict(shared_classifiers=False),
    "intra_ratio=0.5": dict(intra_ratio=0.5),
    "baseline": dict(mode="baseline", lam=0.0),
    "standard-mixup": dict(mode="standard-mixup"),
    "manifold-mixup": dict(mode="manifold-mixup"),
    "sum + shared, K=2": dict(projections="shared"),
    "sum + shared, K=3": dict(projections="shared", k=3),
    "data_fraction=0.5": dict(data_fraction=0.5),
    PAIRFLIP: {},
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def main():
    spec = {key: default for key, (default, _) in cli.DATA_KEYS.items()}
    dataset = cli.build_dataset(spec)
    pairflip = cli.build_dataset({**spec, "noise_model": "pairflip"})
    width = max(map(len, CONFIGS))
    print(f"{'config':<{width}}  {'names':<16}  {'values':<16}  log.rows")
    with tempfile.TemporaryDirectory() as tmp:
        for name, overrides in CONFIGS.items():
            state, log = train(pairflip if name == PAIRFLIP else dataset,
                               TrainConfig(epochs=4, seed=0, **overrides))
            named = state.model.parameters() + (state.ga.parameters() if state.ga else [])
            names = b"".join(n.encode() + b"\n" for n, _ in named)
            values = b"".join(p.values.tobytes() for _, p in named)
            print(f"{name:<{width}}  {digest(names)}  {digest(values)}  "
                  f"{digest(repr(log.rows).encode())}")
            if name == "afm K=2":
                checkpoint = os.path.join(tmp, "checkpoint.bin")
                save_state(checkpoint, state)
                velocity = digest(state.optimizer.velocity.tobytes())
        data, out = os.path.join(tmp, "dataset.bin"), os.path.join(tmp, "features.csv")
        save_dataset(data, dataset)
        if cli.main(["dump-features", "--checkpoint", checkpoint, "--dataset", data,
                     "--out", out, "--interpolations", "3000"]):
            raise SystemExit("dump-features failed")
        with open(out, "rb") as f:
            print(f"dump-features, 3000 interpolations: {digest(f.read())}")
        with open(checkpoint, "rb") as f:
            print(f"checkpoint file, afm K=2: {digest(f.read())}")
    print(f"optimizer velocity, afm K=2: {velocity}")
    print(f"verify.check_gradients(): {verify.check_gradients()!r}")
    print(f"verify.check_step_loss(): {verify.check_step_loss()!r}")


if __name__ == "__main__":
    main()
