"""The command-line surface: train, sweep, noise-ratio, dump-features, verify.

Everything here calls the same entry point the `afm` console script uses,
writing its artifacts into a temporary directory.
"""

import tempfile
from pathlib import Path

from afm.cli import main

CONFIG = """\
mode = afm
lambda = 0.75
epochs = 10
hidden = 32,16
seed = 0
data_classes = 3
data_per_class_train = 200
data_per_class_test = 50
data_d0 = 16
noise_rate = 0.4
"""

# the sweep's worker processes import this script under the "spawn" start
# method (the default on macOS and Windows), so it runs only as a script
if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "run.cfg"
        cfg.write_text(CONFIG)

        print("== train ==")
        main(["train", "--config", str(cfg), "--out", str(tmp / "run")])
        print((tmp / "run" / "metrics.csv").read_text().splitlines()[-1])

        print("\n== sweep over lambda ==")
        main(["sweep", "--config", str(cfg), "--axis", "lambda",
              "--values", "0,0.5,0.75", "--seeds", "0,1",
              "--out", str(tmp / "sweep")])
        print((tmp / "sweep" / "summary.csv").read_text())

        print("== noise-ratio table ==")
        main(["noise-ratio", "--n-noisy", "200", "--n-total", "1000",
              "--values", "1,2,3,4", "--trials", "50000"])

        print("\n== dump-features (first lines) ==")
        main(["dump-features", "--checkpoint", str(tmp / "run" / "checkpoint.bin"),
              "--dataset", str(tmp / "run" / "dataset.bin"),
              "--out", str(tmp / "features.csv"), "--interpolations", "3"])
        for line in (tmp / "features.csv").read_text().splitlines()[:2]:
            print(line[:100], "...")

        print("\n== verify ==")
        main(["verify"])
