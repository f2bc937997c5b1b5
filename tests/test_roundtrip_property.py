"""Every config the package accepts trains, saves, loads and dumps, or fails
with the package's own error."""

import math

import pytest
from hypothesis import event, given, settings, strategies as st

from afm import cli
from afm.data import NOISE_MODELS, generate, inject_noise, save_dataset
from afm.errors import MOST_ELEMENTS, AfmError, ConfigError
from afm.grouping import INTERACTIONS, PROJECTION_MODES
from afm.training import MODES, TrainConfig, load_state, save_state, train

# a size is tiny or past what any machine can map, since one in between
# would really be allocated and filled; so a fixed-ratio split of a huge m,
# round(intra_ratio * m) intra groups, is 0, m or also too large to map
HUGE = MOST_ELEMENTS // 8
# each field's values inside validate()'s bounds, edges included...
INSIDE = dict(
    lam=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    interaction=st.sampled_from(INTERACTIONS), projections=st.sampled_from(PROJECTION_MODES),
    shared_classifiers=st.booleans(), hidden=st.lists(st.integers(1, 4), max_size=2).map(tuple),
    epochs=st.integers(1, 2), lr=st.sampled_from([5e-324, 1e-3, 0.1, 1e300]),
    seed=st.integers(0, 3), mode=st.sampled_from(MODES),
    intra_ratio=st.one_of(st.none(), st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99)))
# ...and just outside them, for K = k
OUTSIDE = dict(
    lam=[-1e-9, 1.0 + 1e-9, math.nan], k=[1, 0], batch_size=lambda k: [k - 1],
    m=lambda k: [0, MOST_ELEMENTS // k + 1], interaction=["avg"], projections=["all"],
    hidden=[(0,), (4, -1)], epochs=[0], lr=[0.0, math.inf, math.nan], seed=[-1],
    mode=["dropout"], intra_ratio=[-1e-9, 1.0 + 1e-9, math.nan])


@st.composite
def configs(draw):
    """(config, whether one field is just outside validate()'s bounds)."""
    k = draw(st.integers(2, 6))
    fields = {name: draw(values) for name, values in INSIDE.items()}
    if fields["mode"] == "baseline":
        fields["lam"] = 0.0  # the only lambda baseline takes
    fields.update(k=k, batch_size=draw(st.integers(k, 10)), m=draw(st.one_of(
        st.none(), st.integers(1, 8), st.integers(HUGE, MOST_ELEMENTS // k))))
    outside = draw(st.one_of(st.none(), st.sampled_from(list(OUTSIDE))))
    if outside:
        values = OUTSIDE[outside]
        fields[outside] = draw(st.sampled_from(values(k) if callable(values) else values))
    return TrainConfig(**fields), outside is not None


@st.composite
def datasets(draw):
    """Tiny blobs under label noise; a class may hold fewer than K rows."""
    classes = draw(st.integers(2, 3))
    ds = generate("blobs", classes, draw(st.integers(1, 4)), draw(st.integers(1, 2)),
                  draw(st.integers(classes, 4)), draw(st.sampled_from([0.0, 4.0])),
                  draw(st.integers(0, 3)))
    return inject_noise(ds, draw(st.sampled_from(NOISE_MODELS)),
                        draw(st.sampled_from([0.0, 0.4, 1.0])), draw(st.integers(0, 3)))


@settings(max_examples=500, deadline=None)
@given(drawn=configs(), dataset=datasets(),
       interpolations=st.one_of(st.integers(0, 8), st.integers(HUGE, 4 * 10 ** 18)),
       dump_seed=st.integers(-1, 3))
def test_accepted_config_trains_saves_loads_and_dumps(tmp_path_factory, drawn, dataset,
                                                      interpolations, dump_seed):
    config, outside = drawn
    if outside:
        with pytest.raises(ConfigError):
            config.validate()
        return
    config.validate()
    tmp = tmp_path_factory.getbasetemp()
    checkpoint, data, out = tmp / "checkpoint.bin", tmp / "dataset.bin", tmp / "out.csv"
    try:
        state, _ = train(dataset, config)
        save_state(checkpoint, state)
        load_state(checkpoint)
    except (AfmError, MemoryError) as exc:  # main reports a MemoryError as exit 2
        event(f"train, save or load raised {type(exc).__name__}")
        return
    save_dataset(data, dataset)
    out.unlink(missing_ok=True)
    rc = cli.main(["dump-features", "--checkpoint", str(checkpoint), "--dataset", str(data),
                   "--out", str(out), "--interpolations", str(interpolations),
                   "--seed", str(dump_seed)])
    event(f"dump-features exit {rc}")
    assert rc in (0, 2, 3)
    if rc == 0:  # a header, each dataset row, then each interpolation
        assert len(out.read_text().splitlines()) == 1 + len(dataset.features) + interpolations
