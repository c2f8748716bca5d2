import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geolearn.models import (BatchNorm, GroupNorm, MFEntries, MFModel,
                             SoftmaxModel, TinyMLP, norm_backward,
                             norm_forward, stat_divergence)
from geolearn.numerics import grad_check
from geolearn.rng import seed_stream


# ---------------------------------------------------------------------------
# factorization


def _tiny_mf(reg=0.5):
    # 2x2 matrix, rank 1: params [a, b, c, d] mean L = [[a], [b]], R = [[c, d]]
    entries = MFEntries(row=np.array([0, 1]), col=np.array([0, 1]),
                        val=np.array([5.0, 6.0]))
    return MFModel(2, 2, 1, entries, reg=reg)


def test_mf_loss_and_grad_hand_oracle():
    # a=1 b=2 c=3 d=4: errors e0 = 5-3 = 2, e1 = 6-8 = -2
    # loss = 4 + 4 + 0.5*(1+4+9+16) = 23
    # da = -2*e0*c + 2*reg*a = -11    dc = -2*e0*a + 2*reg*c = -1
    # db = -2*e1*d + 2*reg*b = 18     dd = -2*e1*b + 2*reg*d = 12
    model = _tiny_mf()
    params = np.array([1.0, 2.0, 3.0, 4.0])
    loss, grad = model.loss_and_grad(params, np.array([0, 1]))
    assert loss == pytest.approx(23.0)
    np.testing.assert_allclose(grad, [-11.0, 18.0, -1.0, 12.0])


def test_mf_batch_restricts_gradient_support():
    model = _tiny_mf(reg=0.0)
    params = np.array([1.0, 2.0, 3.0, 4.0])
    _, grad = model.loss_and_grad(params, np.array([0]))
    # entry (0,0) touches only a and c
    assert grad[1] == 0.0 and grad[3] == 0.0
    assert grad[0] != 0.0 and grad[2] != 0.0


def test_mf_touched_oracle():
    model = _tiny_mf()
    np.testing.assert_array_equal(model.touched(np.array([0])), [0, 2])
    np.testing.assert_array_equal(model.touched(np.array([0, 1])),
                                  [0, 1, 2, 3])


def test_mf_rejects_out_of_range_batch():
    with pytest.raises(IndexError):
        _tiny_mf().loss_and_grad(np.zeros(4), np.array([2]))


# ---------------------------------------------------------------------------
# softmax


def test_softmax_single_sample_oracle():
    # W = I, b = 0, x = [1, 2], y = 0: loss = ln(1 + e)
    model = SoftmaxModel(2, 2)
    params = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    X = np.array([[1.0, 2.0]])
    y = np.array([0])
    loss, grad = model.loss_and_grad(params, (X, y))
    assert loss == pytest.approx(np.log(1.0 + np.e))
    p1 = np.e / (1.0 + np.e)           # probability of the wrong class
    np.testing.assert_allclose(
        grad, [-p1, -2 * p1, p1, 2 * p1, -p1, p1], rtol=1e-12)


def test_softmax_accuracy_and_predict():
    model = SoftmaxModel(2, 2)
    params = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])  # W = I
    X = np.array([[3.0, 1.0], [0.0, 2.0], [5.0, -1.0]])
    y = np.array([0, 1, 1])
    np.testing.assert_array_equal(model.predict(params, X), [0, 1, 0])
    assert model.accuracy(params, X, y) == pytest.approx(2.0 / 3.0)


def test_softmax_loss_invariant_to_logit_shift():
    # adding a constant to every class row of b leaves the loss unchanged
    model = SoftmaxModel(3, 4)
    rng = seed_stream(3, "test")
    params = model.init_params(rng)
    X = rng.normal(size=(6, 3))
    y = rng.integers(0, 4, size=6)
    shifted = params.copy()
    shifted[-4:] += 7.5
    assert model.objective(shifted, (X, y)) == pytest.approx(
        model.objective(params, (X, y)), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(features=st.integers(1, 6), classes=st.integers(2, 5),
       n=st.integers(1, 12), seed=st.integers(0, 2**16),
       scale=st.sampled_from((1e-3, 1.0, 50.0)))
def test_softmax_objective_is_the_training_loss_bit_for_bit(
        features, classes, n, seed, scale):
    model = SoftmaxModel(features, classes)
    rng = np.random.default_rng(seed)
    params = rng.normal(scale=scale, size=model.n_params)
    batch = (rng.normal(size=(n, features)), rng.integers(0, classes, size=n))
    loss = model.objective(params, batch)
    assert type(loss) is float
    assert loss == model.loss_and_grad(params, batch)[0]


# ---------------------------------------------------------------------------
# normalization layers


def test_batchnorm_running_stats_blend():
    layer = BatchNorm.create(2, rho=0.25)
    x = np.array([[1.0, 10.0], [3.0, 14.0]])   # mean [2, 12], var [1, 4]
    norm_forward(layer, x, "train")
    np.testing.assert_allclose(layer.running_mean, [0.5, 3.0])
    np.testing.assert_allclose(layer.running_var, [1.0, 1.75])
    # update_stats=False leaves them alone
    before = layer.running_mean.copy()
    norm_forward(layer, x, "train", update_stats=False)
    np.testing.assert_array_equal(layer.running_mean, before)


def test_batchnorm_train_output_is_standardized():
    layer = BatchNorm.create(3)
    rng = seed_stream(11, "test")
    x = rng.normal(2.0, 5.0, size=(64, 3))
    y, _ = norm_forward(layer, x, "train", update_stats=False)
    np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.std(axis=0), 1.0, atol=1e-3)


def test_batchnorm_eval_uses_running_stats():
    layer = BatchNorm.create(1)
    layer.running_mean = np.array([4.0])
    layer.running_var = np.array([9.0])
    y, _ = norm_forward(layer, np.array([[10.0], [4.0]]), "eval")
    np.testing.assert_allclose(y, [[2.0], [0.0]], atol=1e-5)


def test_batchnorm_train_requires_two_samples():
    with pytest.raises(ValueError):
        norm_forward(BatchNorm.create(2), np.ones((1, 2)), "train")


def test_groupnorm_is_per_sample():
    # permuting other samples cannot change a sample's output
    layer = GroupNorm.create(4, 2)
    rng = seed_stream(5, "test")
    x = rng.normal(size=(6, 4))
    y, _ = norm_forward(layer, x, "train")
    y_perm, _ = norm_forward(layer, x[::-1], "train")
    np.testing.assert_array_equal(y, y_perm[::-1])


@given(st.floats(-100.0, 100.0))
@settings(max_examples=25)
def test_groupnorm_shift_invariance(shift):
    # adding one constant to every channel of a group cancels in the mean
    layer = GroupNorm.create(4, 2)
    rng = seed_stream(7, "test")
    x = rng.normal(size=(3, 4))
    y0, _ = norm_forward(layer, x, "train")
    x2 = x.copy()
    x2[:, :2] += shift
    y1, _ = norm_forward(layer, x2, "train")
    np.testing.assert_allclose(y0, y1, atol=1e-7)


def test_norm_backward_rejects_stale_cache():
    layer_a = BatchNorm.create(2)
    layer_b = BatchNorm.create(2)
    _, cache = norm_forward(layer_a, np.ones((3, 2)) + np.eye(3, 2), "train")
    with pytest.raises(ValueError):
        norm_backward(layer_b, cache, np.zeros((3, 2)))


def test_stat_divergence_oracle():
    assert stat_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0)
    assert stat_divergence([2.0], [2.0]) == 0.0
    assert stat_divergence([1e-13], [-1e-13]) is None


# ---------------------------------------------------------------------------
# tiny MLP


def test_mlp_plain_forward_matches_manual():
    mlp = TinyMLP([2, 2, 2], norm="none")
    # W0 = [[1, 0], [0, 1]], b0 = [0, -1], W1 = [[1, 1], [0, 1]], b1 = [0, 0]
    params = np.array([1.0, 0.0, 0.0, 1.0, 0.0, -1.0,
                       1.0, 1.0, 0.0, 1.0, 0.0, 0.0])
    X = np.array([[2.0, 0.5]])
    h = np.maximum(X @ np.array([[1.0, 0.0], [0.0, 1.0]]) + [0.0, -1.0], 0.0)
    want = h @ np.array([[1.0, 1.0], [0.0, 1.0]])
    got, _, _, _ = mlp._forward(params, X, "train", update_stats=False)
    np.testing.assert_allclose(got, want)


def test_mlp_param_layout_and_init():
    mlp = TinyMLP([3, 4, 2], norm="batch")
    # W0 12 + b0 4 + gamma 4 + beta 4 + W1 8 + b1 2
    assert mlp.n_params == 34
    params = mlp.init_params(seed_stream(0, "test"))
    np.testing.assert_array_equal(params[mlp._slices["gamma"][0]], 1.0)
    np.testing.assert_array_equal(params[mlp._slices["beta"][0]], 0.0)


def test_mlp_clone_isolates_running_stats():
    mlp = TinyMLP([2, 4, 2], norm="batch")
    params = mlp.init_params(seed_stream(1, "test"))
    twin = mlp.clone()
    X = seed_stream(2, "test").normal(size=(8, 2))
    y = np.zeros(8, dtype=np.intp)
    mlp.loss_and_grad(params, (X, y), update_stats=True)
    assert not np.array_equal(mlp.bn_stats[0]["mean"],
                              twin.bn_stats[0]["mean"])


def test_mlp_eval_train_modes_differ_with_batchnorm():
    mlp = TinyMLP([2, 4, 2], norm="batch")
    params = mlp.init_params(seed_stream(4, "test"))
    X = seed_stream(5, "test").normal(3.0, 2.0, size=(16, 2))
    y = np.zeros(16, dtype=np.intp)
    train_loss = mlp.objective(params, (X, y), mode="train")
    eval_loss = mlp.objective(params, (X, y), mode="eval")
    assert train_loss != pytest.approx(eval_loss)


def test_mlp_group_size_must_divide_hidden():
    with pytest.raises(ValueError):
        TinyMLP([2, 5, 2], norm="group", group_size=2)


@pytest.mark.parametrize("norm", ["none", "batch", "group"])
def test_mlp_gradients_survive_central_differences(norm):
    mlp = TinyMLP([4, 4, 3], norm=norm, group_size=2)
    rng = seed_stream(100, "test", norm)
    params = mlp.init_params(rng)
    X = rng.normal(size=(8, 4))
    y = rng.integers(0, 3, size=8)
    assert grad_check(mlp, params, (X, y)) < 1e-4
