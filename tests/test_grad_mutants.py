"""Mutation tests of the gradient checks: each mutant is one edit to the
backward of one primitive in afm.tensor, and the finite-difference checks
of afm.verify must catch it (DeMillo, Lipton and Sayward, "Hints on Test
Data Selection", IEEE Computer 1978)."""

import inspect
import types

import pytest

from afm import tensor as T, verify

# name -> (function, the text to replace, its replacement, the step-loss
# configurations that run the edited code). check_gradients must catch
# every mutant, and check_step_loss each one in every configuration that
# runs it. None marks a mutant no configuration's loss can show, with the
# reason.
MUTANTS = {
    # repeated members of a batch row get the last gradient, not the sum;
    # standard mixup gathers inputs, which take no gradient
    "scatter-rows-assigns": (
        "_scatter_rows",
        "return np.bincount(bins, weights=rows.ravel(), minlength=n * d).reshape(n, d)",
        "out = np.zeros(n * d)\n    out[bins] = rows.ravel()\n    return out.reshape(n, d)",
        lambda config: config.mode in ("afm", "manifold-mixup")),
    # the member and width axes swapped where the gradient is scattered;
    # standard mixup gathers inputs, which take no gradient
    "gather-rows-axes-swapped": (
        "gather_rows", "out.grad.reshape(m, -1, d)", "out.grad.reshape(m, d, -1).swapaxes(1, 2)",
        lambda config: config.mode in ("afm", "manifold-mixup")),
    "affine-bias-dropped": (
        "affine", "np.add.reduce(g, 0, keepdims=True)", "np.zeros_like(b.values)",
        lambda config: True),
    "affine-relu-mask-dropped": (
        "affine", "g = out.grad if mask is None else out.grad * mask", "g = out.grad",
        lambda config: True),
    # the mixup modes blend with constant weights
    "blend-rows-weights-dropped": (
        "blend_rows", 'np.einsum("mn,mkn->mk", out.grad, block)', "np.zeros_like(w.values)",
        lambda config: config.mode == "afm"),
    # soft labels sum to 1, up to normalize_rows' eps
    "kl-without-mass": (
        "kl_from_logits", "np.exp(log_p) * mass - tv", "np.exp(log_p) - tv", None),
    # the constant reaches each group's weights through blend_rows, and
    # normalize_rows cancels it, up to its eps
    "kl-targets-without-one": (
        "kl_from_logits", "log_t + carried - log_p", "log_t - log_p", None),
    # training gives each position its own bias tensor
    "group-affine-bias-assigned": (
        "group_affine", "b._accumulate(g_bias.copy())", "b.grad = g_bias.copy()", None),
    "group-affine-weights-first-block": (
        "group_affine", "g_stacked[j * d:(j + 1) * d]", "g_stacked[:d]",
        lambda config: _attends(config) and _sum_distinct(config)),
    "slice-last-columns-rolled": (
        "slice_last", "g[:, start:stop] = out.grad",
        "g[:, start:stop] = np.roll(out.grad, 1, axis=1)",
        lambda config: _attends(config) and not _sum_distinct(config)),
    "concat-last-members-reversed": (
        "concat_last", "for t, w in zip(tensors, widths):",
        "for t, w in zip(tensors[::-1], widths):",
        lambda config: _attends(config) and config.interaction == "concat"),
    "sigmoid-derivative-of-input": (
        "sigmoid", "out.grad * out_vals * (1.0 - out_vals)",
        "out.grad * a.values * (1.0 - a.values)", lambda config: _attends(config)),
    "normalize-rows-without-dot": (
        "normalize_rows", "(out.grad - dot) / denom", "out.grad / denom",
        lambda config: _attends(config)),
}


def _attends(config):
    return config.mode == "afm"


def _sum_distinct(config):
    """The one attention net that projects its members with group_affine."""
    return (config.interaction, config.projections) == ("sum", "distinct")


def mutant(name):
    """The primitive MUTANTS[name] edits, with its one occurrence of the
    text replaced. The edited source runs in a copy of afm.tensor's
    namespace; the function is then rebound to the module's own globals,
    so it reads the live _relu_trace that grad_check sets."""
    function, old, new, _ = MUTANTS[name]
    source = inspect.getsource(getattr(T, function))
    assert source.count(old) == 1, f"{name}: {old!r} not found once in {function}"
    namespace = dict(vars(T))
    exec(compile(source.replace(old, new), T.__file__, "exec"), namespace)
    edited = namespace[function]
    return types.FunctionType(edited.__code__, vars(T), function, edited.__defaults__,
                              edited.__closure__)


@pytest.fixture(scope="module")
def loss_cases():
    """The cases check_step_loss draws, LOSS_POINTS per configuration in
    LOSS_CONFIGS order, drawn on the true tape: under a mutant that zeroes
    a gradient, step_loss_case would redraw its point up to 100 times."""
    cases, step_loss_case = [], verify.step_loss_case

    def recording(config, rng):
        cases.append(step_loss_case(config, rng))
        return cases[-1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "step_loss_case", recording)
        assert verify.check_step_loss()[0] < 1e-5
    return cases


@pytest.mark.parametrize("name", MUTANTS)
def test_gradient_checks_catch_mutant(name, loss_cases, monkeypatch):
    function, _, _, runs = MUTANTS[name]
    monkeypatch.setattr(T, function, mutant(name))
    assert verify.check_gradients()[0] > 1e-5
    survived = []
    for i, config in enumerate(verify.LOSS_CONFIGS):
        if runs and runs(config):
            replay = iter(loss_cases[i * verify.LOSS_POINTS:(i + 1) * verify.LOSS_POINTS])
            monkeypatch.setattr(verify, "step_loss_case", lambda config, rng: next(replay))
            if verify.check_step_loss([config])[0] <= 1e-5:
                survived.append(config)
    assert survived == []
