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
        model = afm.model.Model([4, 3], 2, rng=np.random.default_rng(0))
        model.inference_predict(np.zeros((2, 4)))
    finally:
        left = tracer.uninstall()
    assert left == []
    assert vars(afm.model.Model)["extract_features"] is original
    names = [span[0] for span in tracer.spans]
    assert names[:3] == ["model.inference_predict", "model.extract_features",
                         "model.classify"]
