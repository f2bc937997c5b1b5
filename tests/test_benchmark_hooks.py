"""The benchmark's tracer wraps afm functions and methods by name; a rename
or a move of one of them makes its install fail."""

import importlib.util
import pathlib

import numpy as np

import afm.checkpoint, afm.cli, afm.data, afm.grouping  # noqa: E401
import afm.mixing, afm.model, afm.tensor, afm.training  # noqa: E401

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_cleanly():
    tracer = load_tracer().Tracer()
    original = vars(afm.model.Model)["extract_features"]
    try:
        tracer.install(afm)
        model = afm.model.Model([4, 3], 2, source=afm.model.glorot(np.random.default_rng(0)))
        model.inference_predict(np.zeros((2, 4)))
    finally:
        left = tracer.uninstall()
    assert left == []
    assert vars(afm.model.Model)["extract_features"] is original
    names = [span[0] for span in tracer.spans]
    assert names[:3] == ["model.inference_predict", "model.extract_features",
                         "model.classify"]


def test_tracer_sees_each_stage_of_a_training_step():
    """train() reaches the grouping, mixing, loss, backward and optimizer
    calls through the attributes the tracer wraps: each is recorded inside
    training.train once per step."""
    tracer = load_tracer().Tracer()
    ds = afm.data.inject_noise(afm.data.generate("blobs", 3, 40, 10, 8, 4.0, seed=0),
                               "symmetric", 0.4, seed=0)
    config = afm.training.TrainConfig(hidden=(8,), epochs=1, batch_size=32)
    try:
        tracer.install(afm)
        state, _ = afm.training.train(ds, config)
    finally:
        left = tracer.uninstall()
    assert left == []
    spans = tracer.spans
    root = [name for name, *_ in spans].index("training.train")

    def inside(i):
        while i > root:
            i = spans[i][3]
        return i == root

    names = [name for i, (name, *_) in enumerate(spans) if i > root and inside(i)]
    assert state.step == 4
    for name in ("grouping.sample_groups", "grouping.attend", "mixing.interpolate",
                 "training.compute_loss", "tensor.backward", "training.sgd_step"):
        assert names.count(name) == state.step, name
