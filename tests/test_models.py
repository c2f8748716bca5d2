import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geolearn.data import gen_cluster_data
from geolearn.models import (RUNNING_RHO, BatchNorm, GroupNorm, MFEntries,
                             MFModel, SoftmaxModel, TinyMLP, _class_sum, _norm,
                             norm_backward, stat_divergence)
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


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6),
                       st.integers(1, 4)), data=st.data())
def test_mf_touched_is_strictly_increasing(shape, data):
    # the barrier gate reads touched as a sorted, unique read set
    rows, cols, rank = shape
    n = data.draw(st.integers(1, 12))
    cells = st.lists(st.integers(0, rows - 1), min_size=n, max_size=n)
    entries = MFEntries(
        row=np.array(data.draw(cells), dtype=np.intp),
        col=np.array(data.draw(st.lists(st.integers(0, cols - 1),
                                        min_size=n, max_size=n)),
                     dtype=np.intp),
        val=np.zeros(n))
    model = MFModel(rows, cols, rank, entries)
    batch = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=20)),
                     dtype=np.intp)
    touched = model.touched(batch)
    assert touched.dtype == np.intp
    assert np.all(touched[1:] > touched[:-1])
    # exactly the coordinates the batch's gradient may move
    rows_read = {int(r) for r in entries.row[batch]}
    cols_read = {int(c) for c in entries.col[batch]}
    assert touched.tolist() == sorted(
        [r * rank + k for r in rows_read for k in range(rank)]
        + [rows * rank + k * cols + c for k in range(rank) for c in cols_read])


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


# class counts for every branch of numpy's pairwise sum over a row: in order
# below 8, eight running sums and a tail up to 128, halves above 128
CLASSES = st.one_of(st.integers(1, 7), st.sampled_from((8, 10, 11, 16, 17)),
                    st.integers(8, 128), st.integers(129, 300))
# 1e300 overflows the logits to +-inf, and inf - inf makes NaN rows
SCALES = st.sampled_from((1e-3, 1.0, 50.0, 1e300))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # log(0) at scale 50
@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(("softmax", "none", "batch", "group")),
       features=st.integers(1, 6), classes=CLASSES,
       n=st.integers(1, 12), seed=st.integers(0, 2**16), scale=SCALES)
def test_softmax_objective_is_the_training_loss_bit_for_bit(
        kind, features, classes, n, seed, scale):
    # softmax regression, and the MLP under each norm in train mode
    if kind == "softmax":
        model = SoftmaxModel(features, classes)
    else:
        model = TinyMLP([features, 4, classes], norm=kind, group_size=2)
        n = max(n, 2)                 # batch norm trains on >= 2 samples
    rng = np.random.default_rng(seed)
    params = rng.normal(scale=scale, size=model.n_params)
    batch = (rng.normal(size=(n, features)), rng.integers(0, classes, size=n))
    loss = model.objective(params, batch)
    assert type(loss) is float
    assert _same_loss(loss, model.loss_and_grad(params, batch)[0])


# ---------------------------------------------------------------------------
# normalization layers: built as TinyMLP._norm_layer builds them, and run
# through _norm on an input the caller owns, with the cache kept


def _batch_norm(channels, rho=RUNNING_RHO):
    return BatchNorm(gamma=np.ones(channels), beta=np.zeros(channels),
                     running_mean=np.zeros(channels),
                     running_var=np.ones(channels), rho=rho)


def _group_norm(channels, group_size):
    return GroupNorm(gamma=np.ones(channels), beta=np.zeros(channels),
                     group_size=group_size)


def test_batchnorm_running_stats_blend():
    layer = _batch_norm(2, rho=0.25)
    x = np.array([[1.0, 10.0], [3.0, 14.0]])   # mean [2, 12], var [1, 4]
    _norm(layer, x.copy(), "train", True, keep=True)
    np.testing.assert_allclose(layer.running_mean, [0.5, 3.0])
    np.testing.assert_allclose(layer.running_var, [1.0, 1.75])
    # update_stats=False leaves them alone
    before = layer.running_mean.copy()
    _norm(layer, x.copy(), "train", False, keep=True)
    np.testing.assert_array_equal(layer.running_mean, before)


def test_batchnorm_train_output_is_standardized():
    layer = _batch_norm(3)
    rng = seed_stream(11, "test")
    x = rng.normal(2.0, 5.0, size=(64, 3))
    y, _ = _norm(layer, x, "train", False, keep=True)
    np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.std(axis=0), 1.0, atol=1e-3)


def test_batchnorm_eval_uses_running_stats():
    layer = _batch_norm(1)
    layer.running_mean = np.array([4.0])
    layer.running_var = np.array([9.0])
    y, _ = _norm(layer, np.array([[10.0], [4.0]]), "eval", True, keep=True)
    np.testing.assert_allclose(y, [[2.0], [0.0]], atol=1e-5)


def test_batchnorm_train_requires_two_samples():
    with pytest.raises(ValueError):
        _norm(_batch_norm(2), np.ones((1, 2)), "train", True, keep=True)


def test_groupnorm_is_per_sample():
    # permuting other samples cannot change a sample's output
    layer = _group_norm(4, 2)
    rng = seed_stream(5, "test")
    x = rng.normal(size=(6, 4))
    y, _ = _norm(layer, x.copy(), "train", True, keep=True)
    y_perm, _ = _norm(layer, x[::-1].copy(), "train", True, keep=True)
    np.testing.assert_array_equal(y, y_perm[::-1])


@given(st.floats(-100.0, 100.0))
@settings(max_examples=25)
def test_groupnorm_shift_invariance(shift):
    # adding one constant to every channel of a group cancels in the mean
    layer = _group_norm(4, 2)
    rng = seed_stream(7, "test")
    x = rng.normal(size=(3, 4))
    y0, _ = _norm(layer, x.copy(), "train", True, keep=True)
    x2 = x.copy()
    x2[:, :2] += shift
    y1, _ = _norm(layer, x2, "train", True, keep=True)
    np.testing.assert_allclose(y0, y1, atol=1e-7)


def test_norm_backward_rejects_stale_cache():
    layer_a = _batch_norm(2)
    layer_b = _batch_norm(2)
    _, cache = _norm(layer_a, np.ones((3, 2)) + np.eye(3, 2), "train", True,
                     keep=True)
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
    got = mlp._forward(params, X, "train", update_stats=False)
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


def test_batchnorm_objective_reads_no_running_stats():
    # why a harness row evaluates a weights array that replicas share once
    # for the objective, yet once per replica for the accuracy: the
    # training-mode objective normalizes by the batch, while eval-mode
    # accuracy normalizes by the running statistics each replica keeps
    mlp = TinyMLP([4, 8, 8, 3], norm="batch")
    rng = seed_stream(43, "test")
    params = mlp.init_params(rng)
    X = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, size=60)
    obj, acc = mlp.objective(params, (X, y)), mlp.accuracy(params, X, y)
    for s in mlp.bn_stats:
        s["mean"] = rng.normal(scale=0.1, size=s["mean"].size)
        s["var"] = rng.uniform(1e-4, 1e-3, size=s["var"].size)
    assert _bits(mlp.objective(params, (X, y))) == _bits(obj)
    assert mlp.accuracy(params, X, y) != acc


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


# ---------------------------------------------------------------------------
# bit-identity oracle: the plain numpy expressions the models once used,
# kept here as the reference their leaner arithmetic must match bit for bit


def _ref_norm_forward(layer, x, mode, update_stats=None):
    x = np.asarray(x, dtype=np.float64)
    if isinstance(layer, BatchNorm):
        if mode == "train":
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            if update_stats is None or update_stats:
                layer.running_mean = (1.0 - layer.rho) * layer.running_mean + layer.rho * mean
                layer.running_var = (1.0 - layer.rho) * layer.running_var + layer.rho * var
        else:
            mean = layer.running_mean
            var = layer.running_var
        inv_std = 1.0 / np.sqrt(var + layer.eps)
        xhat = (x - mean) * inv_std
        y = layer.gamma * xhat + layer.beta
        return y, (mode, x, xhat, inv_std)
    n, c = x.shape
    g = c // layer.group_size
    xg = x.reshape(n, g, layer.group_size)
    mean = xg.mean(axis=2, keepdims=True)
    var = xg.var(axis=2, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    xhat = ((xg - mean) * inv_std).reshape(n, c)
    y = layer.gamma * xhat + layer.beta
    return y, (mode, x, xhat, inv_std)


def _ref_norm_backward(layer, cache, dy):
    mode, x, cxhat, inv_std = cache
    dgamma = np.sum(dy * cxhat, axis=0)
    dbeta = np.sum(dy, axis=0)
    if isinstance(layer, BatchNorm):
        if mode == "eval":
            return dy * layer.gamma * inv_std, dgamma, dbeta
        n = x.shape[0]
        dxhat = dy * layer.gamma
        dx = (inv_std / n) * (
            n * dxhat
            - dxhat.sum(axis=0)
            - cxhat * np.sum(dxhat * cxhat, axis=0)
        )
        return dx, dgamma, dbeta
    n, c = x.shape
    gs = layer.group_size
    g = c // gs
    dxhat = (dy * layer.gamma).reshape(n, g, gs)
    xhat = cxhat.reshape(n, g, gs)
    dx = (inv_std / gs) * (
        gs * dxhat
        - dxhat.sum(axis=2, keepdims=True)
        - xhat * np.sum(dxhat * xhat, axis=2, keepdims=True)
    )
    return dx.reshape(n, c), dgamma, dbeta


def _ref_mlp_forward(mlp, params, X, mode, update_stats):
    h = np.asarray(X, dtype=np.float64)
    caches = []
    for li in range(mlp.n_hidden):
        W = params[mlp._slices["W"][li]].reshape(
            mlp.layer_sizes[li], mlp.layer_sizes[li + 1])
        b = params[mlp._slices["b"][li]]
        z = h @ W + b
        if mlp.norm != "none":
            layer = mlp._norm_layer(params, li)
            zn, ncache = _ref_norm_forward(layer, z, mode, update_stats)
            if update_stats and mlp.norm == "batch" and mode == "train":
                mlp.bn_stats[li]["mean"] = layer.running_mean
                mlp.bn_stats[li]["var"] = layer.running_var
        else:
            layer, ncache, zn = None, None, z
        caches.append((h, W, layer, ncache, zn))
        h = np.maximum(zn, 0.0)
    lo = mlp.n_hidden
    W = params[mlp._slices["W"][lo]].reshape(
        mlp.layer_sizes[lo], mlp.layer_sizes[lo + 1])
    b = params[mlp._slices["b"][lo]]
    return h @ W + b, h, W, caches


def _ref_ce(logits, y):
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(probs[np.arange(n), y])))
    dlogits = probs
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    return loss, dlogits


def _ref_mlp_loss_and_grad(mlp, params, batch, mode, update_stats):
    X, y = batch
    logits, h_last, W_out, caches = _ref_mlp_forward(
        mlp, params, X, mode, update_stats)
    loss, dlogits = _ref_ce(logits, y)
    grad = np.zeros_like(params)
    lo = mlp.n_hidden
    grad[mlp._slices["W"][lo]] = (h_last.T @ dlogits).ravel()
    grad[mlp._slices["b"][lo]] = dlogits.sum(axis=0)
    dh = dlogits @ W_out.T
    for li in range(mlp.n_hidden - 1, -1, -1):
        h_in, W, layer, ncache, zn = caches[li]
        dz = dh * (zn > 0.0)
        if mlp.norm != "none":
            dz, dgamma, dbeta = _ref_norm_backward(layer, ncache, dz)
            grad[mlp._slices["gamma"][li]] = dgamma
            grad[mlp._slices["beta"][li]] = dbeta
        grad[mlp._slices["W"][li]] = (h_in.T @ dz).ravel()
        grad[mlp._slices["b"][li]] = dz.sum(axis=0)
        dh = dz @ W.T
    return loss, grad


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _same_loss(a, b):
    """The same bits, or both NaN. numpy's maximum over a contiguous row
    may return a NaN of its own (a -NaN in the row gave a +NaN), while the
    class-by-class maximum returns the row's NaN, so the sign of a NaN loss
    is not kept; every other loss is, bit for bit."""
    return (math.isnan(a) and math.isnan(b)) or _bits(a) == _bits(b)


def _stats_bits(mlp):
    return [(_bits(s["mean"]), _bits(s["var"])) for s in mlp.bn_stats]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(norm=st.sampled_from(("none", "batch", "group")),
       mode=st.sampled_from(("train", "eval")), n=st.integers(2, 40),
       widths=st.lists(st.integers(1, 9), min_size=3, max_size=5),
       scale=st.sampled_from((1e-3, 1.0, 50.0)), seed=st.integers(0, 2**16))
def test_mlp_matches_the_plain_expressions_bit_for_bit(
        norm, mode, n, widths, scale, seed):
    # widths: input, hidden..., classes; group norm groups by the gcd of
    # the hidden widths, so group sizes from 1 to 9 all occur
    group_size = math.gcd(*widths[1:-1])
    mlp = TinyMLP(widths, norm=norm, group_size=group_size)
    rng = np.random.default_rng(seed)
    params = rng.normal(scale=scale, size=mlp.n_params)
    for s in mlp.bn_stats:
        s["mean"] = rng.normal(scale=scale, size=s["mean"].size)
        s["var"] = rng.uniform(0.1, 2.0, size=s["var"].size) * scale
    X = rng.normal(scale=scale, size=(n, widths[0]))
    y = rng.integers(0, widths[-1], size=n)
    ref = mlp.clone()

    want = _ref_ce(_ref_mlp_forward(ref, params, X, mode, False)[0], y)[0]
    assert _bits(mlp.objective(params, (X, y), mode=mode)) == _bits(want)
    want = np.argmax(_ref_mlp_forward(ref, params, X, mode, False)[0], axis=1)
    assert mlp.predict(params, X, mode=mode).tobytes() == want.tobytes()
    assert mlp.accuracy(params, X, y, mode=mode) == float(np.mean(want == y))
    assert _stats_bits(mlp) == _stats_bits(ref)

    want_loss, want_grad = _ref_mlp_loss_and_grad(
        ref, params, (X, y), mode, True)
    loss, grad = mlp.loss_and_grad(params, (X, y), mode=mode,
                                   update_stats=True)
    assert _bits(loss) == _bits(want_loss)
    assert grad.tobytes() == want_grad.tobytes()
    assert _stats_bits(mlp) == _stats_bits(ref)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(features=st.integers(1, 9), classes=CLASSES, n=st.integers(1, 40),
       scale=SCALES, seed=st.integers(0, 2**16))
def test_softmax_matches_the_plain_expressions_bit_for_bit(
        features, classes, n, scale, seed):
    model = SoftmaxModel(features, classes)
    rng = np.random.default_rng(seed)
    params = rng.normal(scale=scale, size=model.n_params)
    X = rng.normal(scale=scale, size=(n, features))
    y = rng.integers(0, classes, size=n)
    # params packs as [W.ravel(), b] with W classes x features
    W = params[:classes * features].reshape(classes, features)
    logits = X @ W.T + params[classes * features:]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    want_loss = float(-np.mean(np.log(probs[np.arange(n), y])))
    probs[np.arange(n), y] -= 1.0
    probs /= n
    want_grad = np.concatenate([(probs.T @ X).ravel(), probs.sum(axis=0)])
    assert _same_loss(model.objective(params, (X, y)), want_loss)
    loss, grad = model.loss_and_grad(params, (X, y))
    assert _bits(loss) == _bits(want_loss)
    assert grad.tobytes() == want_grad.tobytes()
    assert model.logits(params, X).tobytes() == logits.tobytes()
    want = np.argmax(logits, axis=1)
    assert model.predict(params, X).tobytes() == want.tobytes()
    assert model.accuracy(params, X, y) == float(np.mean(want == y))


@pytest.mark.parametrize("classes,features,per_class", [
    (10, 10, 200), (10, 10, 50),    # softmax-11dc: training and test set
    (4, 6, 40), (4, 6, 20),         # the goldens' softmax configs
    (7, 6, 40), (7, 6, 20),
])
def test_class_major_product_is_the_logits_product_bit_for_bit(
        classes, features, per_class):
    # the objective's W @ X.T at the row counts it runs at, which the
    # hypothesis test above (40 rows at most) does not reach
    data = gen_cluster_data(classes, features, per_class, 1.0, seed=7)
    X, y, split = data.X, data.y, classes * features
    model = SoftmaxModel(features, classes)
    for seed in range(3):
        rng = seed_stream(seed, "test", "product")
        for params in (model.init_params(rng),
                       rng.normal(scale=3.0, size=model.n_params)):
            W = params[:split].reshape(classes, features)
            assert (W @ X.T).tobytes() == (X @ W.T).T.copy().tobytes()
            want = _ref_ce(X @ W.T + params[split:], y)[0]
            assert _bits(model.objective(params, (X, y))) == _bits(want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # inf - inf
@settings(max_examples=150, deadline=None)
@given(classes=CLASSES, rows=st.integers(1, 30), seed=st.integers(0, 2**16))
def test_class_sum_is_numpys_row_sum_bit_for_bit(classes, rows, seed):
    # finite values over 32 decades, so the order of the additions shows in
    # the rounding, mixed with signed zeros, +-inf and NaN
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, classes)) * 10.0 ** rng.integers(
        -16, 16, size=(rows, classes))
    special = rng.random(size=x.shape) < 0.2
    x[special] = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan],
                            size=special.sum())
    if seed % 4 == 0:
        x[:, :] = -0.0             # numpy's 0.0 start makes these sums 0.0
    # the row-major reduction, as over a batch's scores (reducing the
    # transposed view of S instead would add the classes in order)
    got, want = _class_sum(x.T.copy()), np.add.reduce(x, axis=1)
    # which of two NaN operands an addition returns follows the operand
    # order of the compiled loop, so a NaN is compared as NaN, not by bits
    assert (np.isnan(got) == np.isnan(want)).all()
    nan = np.isnan(want)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("kind", ["batch", "group"])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_norm_layers_match_the_plain_expressions_bit_for_bit(kind, mode):
    rng = seed_stream(31, "test", kind, mode)
    x = rng.normal(3.0, 7.0, size=(13, 6))
    dy = rng.normal(size=(13, 6))

    def make():
        gamma, beta = np.linspace(0.5, 2.0, 6), np.linspace(-1.0, 1.0, 6)
        if kind == "batch":
            return BatchNorm(gamma=gamma, beta=beta,
                             running_mean=np.full(6, 2.5),
                             running_var=np.full(6, 30.0))
        return GroupNorm(gamma=gamma, beta=beta, group_size=3)

    layer, ref = make(), make()
    x_before, owned = x.tobytes(), x.copy()
    y, cache = _norm(layer, owned, mode, True, keep=True)
    want_y, want_cache = _ref_norm_forward(ref, x, mode)
    assert x.tobytes() == x_before
    assert cache.xhat is owned         # the owned input now holds xhat
    assert y.tobytes() == want_y.tobytes()
    for got, want in zip(norm_backward(layer, cache, dy),
                         _ref_norm_backward(ref, want_cache, dy)):
        assert got.tobytes() == want.tobytes()
    if kind == "batch":
        assert _bits(layer.running_mean) == _bits(ref.running_mean)
        assert _bits(layer.running_var) == _bits(ref.running_var)


# ---------------------------------------------------------------------------
# evaluation memory


@pytest.mark.parametrize("norm", ["none", "batch", "group"])
def test_mlp_evaluation_peak_memory_and_untouched_inputs(norm):
    # a 1,100-row evaluation, the size of a harness epoch evaluation; each
    # layer works in place, so at most 3 arrays of rows x width are alive
    rows, width = 1100, 64
    mlp = TinyMLP([32, width, width, 11], norm=norm)
    rng = seed_stream(23, "test", norm)
    params = mlp.init_params(rng)
    for s in mlp.bn_stats:
        s["mean"] = rng.normal(size=width)
        s["var"] = rng.uniform(0.5, 2.0, size=width)
    X = rng.normal(size=(rows, 32))
    y = rng.integers(0, 11, size=rows)
    limit = 3 * rows * width * 8
    for evaluate in (lambda: mlp.objective(params, (X, y)),
                     lambda: mlp.accuracy(params, X, y)):
        evaluate()
        tracemalloc.start()
        try:
            evaluate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit, (peak, limit)

    before = (params.tobytes(), X.tobytes(), _stats_bits(mlp))
    mlp.objective(params, (X, y))
    mlp.objective(params, (X, y), mode="eval")
    mlp.predict(params, X)
    assert (params.tobytes(), X.tobytes(), _stats_bits(mlp)) == before
    mlp.loss_and_grad(params, (X, y), update_stats=True)
    assert (params.tobytes(), X.tobytes()) == before[:2]


def test_softmax_evaluation_peak_memory_and_untouched_inputs():
    # the softmax-11dc training set: the objective holds one score array,
    # the class-major product, and a few arrays of rows at a time (the
    # column maxima, the true classes' index and probabilities, their logs)
    rows, classes = 2000, 10
    model = SoftmaxModel(10, classes)
    rng = seed_stream(29, "test")
    params = model.init_params(rng)
    X = rng.normal(size=(rows, 10))
    y = rng.integers(0, classes, size=rows)
    limit = rows * classes * 8 + 6 * rows * 8
    for evaluate in (lambda: model.objective(params, (X, y)),
                     lambda: model.accuracy(params, X, y)):
        evaluate()
        tracemalloc.start()
        try:
            evaluate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit, (peak, limit)

    before = (params.tobytes(), X.tobytes(), y.tobytes())
    model.objective(params, (X, y))
    model.accuracy(params, X, y)
    assert (params.tobytes(), X.tobytes(), y.tobytes()) == before


def test_softmax_training_step_peak_memory():
    # one loss_and_grad holds the gradient, which it writes in place, one
    # batch x classes score array and a few rows; a concatenated gradient
    # (+ the gradient's size) or a second score array would exceed it.
    # Many features and classes make both arrays large beside the rows.
    rows, features, classes = 200, 500, 50
    model = SoftmaxModel(features, classes)
    rng = seed_stream(37, "test")
    params = model.init_params(rng)
    X = rng.normal(size=(rows, features))
    y = rng.integers(0, classes, size=rows)
    limit = model.n_params * 8 + rows * classes * 8 + 2 * rows * 8
    model.loss_and_grad(params, (X, y))
    tracemalloc.start()
    try:
        model.loss_and_grad(params, (X, y))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit, (peak, limit)
