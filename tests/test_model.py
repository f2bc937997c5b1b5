"""Model tests: backbone features, paired heads, inference."""

import numpy as np
import pytest

from afm import tensor as T
from afm.errors import ShapeError
from afm.grouping import GAParams
from afm.model import Affine, Model, glorot
from afm.tensor import backward


def test_affine_shapes_and_init():
    rng = np.random.default_rng(0)
    layer = Affine("l", 8, 4, glorot(rng))
    out = layer(T.constant(np.random.default_rng(1).standard_normal((5, 8))))
    assert out.values.shape == (5, 4)
    # glorot uniform bound and zero bias
    bound = np.sqrt(6.0 / (8 + 4))
    w = dict(layer.parameters())["l.weight"].values
    assert np.abs(w).max() <= bound
    np.testing.assert_array_equal(dict(layer.parameters())["l.bias"].values, 0.0)


def test_affine_seed_reproducible():
    w1 = Affine("a", 6, 3, glorot(np.random.default_rng(7))).weight.values
    w2 = Affine("a", 6, 3, glorot(np.random.default_rng(7))).weight.values
    np.testing.assert_array_equal(w1, w2)


def test_source_gives_each_parameter_by_name_in_order():
    """Every layer asks its source for its parameters by checkpoint name,
    weight before bias, in the order parameters() lists them; a shared head
    or projection is asked for once."""
    for shared in (True, False):
        asked = []

        def source(name, shape):
            asked.append((name, shape))
            return T.parameter(np.zeros(shape))
        model = Model([5, 4, 3], 2, shared, source=source)
        ga = GAParams(3, 3, "concat", "shared", source=source)
        named = model.parameters() + ga.parameters()
        assert asked == [(name, p.values.shape) for name, p in named]
        assert [name for name, _ in named][:4] == [
            "backbone.0.weight", "backbone.0.bias", "backbone.1.weight", "backbone.1.bias"]
        assert [name for name, _ in ga.parameters()] == [
            "ga.proj_shared.weight", "ga.proj_shared.bias", "ga.att1.concat.weight",
            "ga.att1.concat.bias", "ga.att2.weight", "ga.att2.bias"]
        assert dict(asked)["ga.att1.concat.weight"] == (9, 3)


def test_backbone_feature_dim():
    model = Model([32, 64, 16], 3, source=glorot(np.random.default_rng(0)))
    assert model.input_dim == 32
    assert model.feature_dim == 16
    feats = model.extract_features(T.constant(np.zeros((3, 32))))
    assert feats.values.shape == (3, 16)


def test_backbone_relu_nonnegative_features():
    model = Model([8, 8, 8], 3, source=glorot(np.random.default_rng(0)))
    feats = model.extract_features(
        T.constant(np.random.default_rng(1).standard_normal((10, 8))))
    assert feats.values.min() >= 0.0


def test_backbone_wrong_input_dim():
    # the first layer's affine rejects the width; with no layers, the head's
    for widths, message in [([8, 4], r"affine: \(2, 5\) @ \(8, 4\)"),
                            ([6], r"affine: \(2, 5\) @ \(6, 3\) \+ \(1, 3\)")]:
        model = Model(widths, 3, source=glorot(np.random.default_rng(0)))
        with pytest.raises(ShapeError, match=message):
            model.inference_predict(np.zeros((2, 5)))


def test_identity_backbone_passthrough():
    # no layers: features are the inputs
    model = Model([6], 3, source=glorot(np.random.default_rng(0)))
    assert model.layers == []
    x = np.random.default_rng(2).standard_normal((4, 6))
    np.testing.assert_array_equal(model.extract_features(T.constant(x)).values, x)


def test_shared_classifiers_same_parameters():
    model = Model([8], 3, shared_classifiers=True, source=glorot(np.random.default_rng(0)))
    assert model.head2 is model.head1
    x = T.constant(np.random.default_rng(1).standard_normal((4, 8)))
    np.testing.assert_array_equal(model.classify(x, head=1).values,
                                  model.classify(x, head=2).values)
    names = [n for n, _ in model.parameters()]
    assert len(names) == len(set(names))  # shared head listed once
    assert names == ["classifier.head1.weight", "classifier.head1.bias"]


def test_independent_classifiers_differ():
    model = Model([8], 3, shared_classifiers=False, source=glorot(np.random.default_rng(0)))
    x = T.constant(np.random.default_rng(1).standard_normal((4, 8)))
    assert not np.array_equal(model.classify(x, head=1).values,
                              model.classify(x, head=2).values)
    assert [n for n, _ in model.parameters()][2:] == ["classifier.head2.weight",
                                                      "classifier.head2.bias"]


def test_classify_rejects_bad_head():
    model = Model([4], 2, source=glorot(np.random.default_rng(0)))
    with pytest.raises(ShapeError):
        model.classify(T.constant(np.zeros((1, 4))), head=3)


def test_classify_rejects_wrong_feature_width():
    model = Model([6, 4], 2, source=glorot(np.random.default_rng(0)))
    with pytest.raises(ShapeError, match=r"affine: \(1, 6\) @ \(4, 2\)"):
        model.classify(T.constant(np.zeros((1, 6))), head=1)


def test_inference_predict_matches_argmax():
    model = Model([10, 16], 3, source=glorot(np.random.default_rng(0)))
    x = np.random.default_rng(3).standard_normal((20, 10))
    preds = model.inference_predict(x)
    logits = model.classify(model.extract_features(T.constant(x)), head=2).values
    np.testing.assert_array_equal(preds, np.argmax(logits, axis=1))


def test_inference_tie_breaks_low_index():
    model = Model([4], 3, source=glorot(np.random.default_rng(0)))
    # identity backbone + untouched classifier on zero input: logits all zero
    preds = model.inference_predict(np.zeros((2, 4)))
    np.testing.assert_array_equal(preds, 0)


def test_model_parameters_flow_gradients():
    model = Model([5, 6], 2, source=glorot(np.random.default_rng(0)))
    x = T.constant(np.random.default_rng(1).standard_normal((3, 5)))
    loss = T.mean(model.classify(model.extract_features(x), head=1))
    backward(loss)
    grads = [p.grad for _, p in model.parameters() if p.grad is not None]
    assert grads  # at least head + last layer received gradient


def test_empty_batch():
    model = Model([4, 4], 2, source=glorot(np.random.default_rng(0)))
    feats = model.extract_features(T.constant(np.zeros((0, 4))))
    assert feats.values.shape[0] == 0
