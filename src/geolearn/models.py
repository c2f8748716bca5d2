"""Desk-scale models: matrix factorization, softmax regression, and a tiny
MLP with optional batch or group normalization.

Every model exposes the same protocol over a flat float64 parameter vector:

    init_params(rng)              -> 1-D array
    objective(params, batch)      -> float, pure (no state mutation)
    loss_and_grad(params, batch, update_stats=False) -> (float, gradient)

so the synchronization machinery never needs to know what it is training.
update_stats only matters for models with running statistics (batch norm);
the stateless models accept and ignore it.

Gradients are hand-derived and are expected to pass the central-difference
oracle in numerics.grad_check below 1e-4. Means, sums and maxima call
np.add.reduce / np.maximum.reduce directly and divide by the count, the same
arithmetic as numpy's mean/var/sum wrappers without their per-call cost.
Evaluation works in place on arrays it owns, and the classifiers' objective
holds its scores class-major (classes x rows): each reduction over classes
is then a few calls over whole rows, not one call per short row, and its
sums add the classes in numpy's pairwise order. Every output is
bit-identical to the plain expressions, except that a NaN loss may carry
another sign bit: numpy's maximum over a contiguous row may return a NaN
of its own.
"""

from dataclasses import dataclass

import numpy as np

INIT_LO, INIT_HI = -0.05, 0.05


# ---------------------------------------------------------------------------
# matrix factorization


@dataclass
class MFEntries:
    """Sparse observed cells of a rows x cols matrix as parallel arrays."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray

    def __len__(self):
        return self.val.size


class MFModel:
    """Rank-r factorization X ~= L @ R fit by squared error.

    Parameters pack as [L.ravel(), R.ravel()] with L (rows x rank) and
    R (rank x cols). The loss over a batch of observed entries is

        sum_(i,j) (x_ij - L_i . R_j)^2 + reg * (|L_i|^2 + |R_j|^2)

    so gradients are nonzero only for rows/cols touched by the batch.
    """

    def __init__(self, rows, cols, rank, entries, reg=0.0):
        self.rows = rows
        self.cols = cols
        self.rank = rank
        self.entries = entries
        self.reg = float(reg)
        self.n_params = rows * rank + rank * cols

    def init_params(self, rng):
        return rng.uniform(INIT_LO, INIT_HI, self.n_params)

    def _unpack(self, params):
        split = self.rows * self.rank
        L = params[:split].reshape(self.rows, self.rank)
        R = params[split:].reshape(self.rank, self.cols)
        return L, R

    def _check_batch(self, batch):
        batch = np.asarray(batch, dtype=np.intp)
        if batch.size and (batch.min() < 0 or batch.max() >= len(self.entries)):
            raise IndexError(
                f"entry index out of range 0..{len(self.entries) - 1}"
            )
        return batch

    def objective(self, params, batch):
        return self.loss_and_grad(params, batch)[0]

    def loss_and_grad(self, params, batch, update_stats=False):
        batch = self._check_batch(batch)
        L, R = self._unpack(params)
        i = self.entries.row[batch]
        j = self.entries.col[batch]
        x = self.entries.val[batch]
        Li = L[i]                      # B x rank
        Rj = R[:, j].T                 # B x rank
        err = x - np.sum(Li * Rj, axis=1)
        loss = float(np.dot(err, err))
        dL = np.zeros_like(L)
        dR = np.zeros_like(R)
        scaled = -2.0 * err[:, None]
        np.add.at(dL, i, scaled * Rj)
        np.add.at(dR.T, j, scaled * Li)
        if self.reg:
            loss += self.reg * float(np.sum(Li * Li) + np.sum(Rj * Rj))
            np.add.at(dL, i, 2.0 * self.reg * Li)
            np.add.at(dR.T, j, 2.0 * self.reg * Rj)
        return loss, np.concatenate([dL.ravel(), dR.ravel()])

    def touched(self, batch):
        """Flat parameter indices read by a batch (for selective gating)."""
        batch = self._check_batch(batch)
        rows = np.unique(self.entries.row[batch])
        cols = np.unique(self.entries.col[batch])
        L_idx = (rows[:, None] * self.rank + np.arange(self.rank)).ravel()
        base = self.rows * self.rank
        R_idx = (base + np.arange(self.rank)[:, None] * self.cols + cols).ravel()
        return np.concatenate([L_idx, R_idx])

    def clone(self):
        return self


# ---------------------------------------------------------------------------
# softmax regression


def _xent_head(scores, y):
    """Mean cross-entropy of a batch's scores (batch x classes, C-contiguous,
    owned by the caller), which are overwritten with d(loss)/d(scores). The
    true classes' entries are read and written through one flat index array
    (so a label outside 0..classes-1 is not caught), and each rounds as in
    probs[arange(n), y] -= 1.0 and then probs /= n."""
    n, C = scores.shape
    scores -= np.maximum.reduce(scores, axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=1, keepdims=True)
    flat, true = scores.reshape(-1), np.arange(0, n * C, C) + y
    p = flat.take(true)
    loss = float(-(np.add.reduce(np.log(p)) / n))
    flat.put(true, p - 1.0)
    scores /= n
    return loss


def _class_sum(S):
    """Row sums of the scores x (rows x classes, C-contiguous) from their
    class-major copy S = x.T (owned and overwritten): np.add.reduce(x,
    axis=1) bit for bit, left in S[0].

    numpy's pairwise_sum adds fewer than 8 classes in order. Up to 128 it
    keeps eight running sums (classes i, i+8, ...), folds them as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and adds the classes past the last
    multiple of 8. Above 128 it splits at a multiple of 8 near the middle
    and adds the two halves' sums.
    """
    C = S.shape[0]
    if C > 128:
        half = C // 2 - (C // 2) % 8
        tot = _class_sum(S[:half])
        tot += _class_sum(S[half:])
    else:
        rest = 1
        if C >= 8:
            rest = C - C % 8
            for i in range(8, rest, 8):
                S[:8] += S[i:i + 8]
            for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6),
                         (0, 4)):
                S[a] += S[b]
        tot = S[0]
        for c in range(rest, C):
            tot += S[c]
    # numpy adds the sum to a 0.0 initial value, which only turns -0.0 into
    # 0.0: done to each half as well, it changes no final sum
    tot += 0.0
    return tot


def _xent_loss(S, y):
    """_xent_head's loss for class-major scores S (classes x rows, owned
    and overwritten), bit for bit.

    Only the true classes' probabilities are divided by their row sums: the
    same quotients as dividing every probability, at n divisions instead
    of n x classes.
    """
    n = S.shape[1]
    S -= np.maximum.reduce(S, axis=0)
    np.exp(S, out=S)
    p = S[y, np.arange(n)]
    p /= _class_sum(S)
    return float(-(np.add.reduce(np.log(p)) / n))


def _hit_rate(pred, y):
    """Share of predictions equal to their labels."""
    hits = pred == y
    return float(np.add.reduce(hits, dtype=np.float64) / hits.size)


class SoftmaxModel:
    """Linear classifier with mean cross-entropy loss.

    Parameters pack as [W.ravel(), b] with W (classes x features).
    """

    def __init__(self, features, classes):
        self.features = features
        self.classes = classes
        self.n_params = classes * features + classes

    def init_params(self, rng):
        return rng.uniform(INIT_LO, INIT_HI, self.n_params)

    def _unpack(self, params):
        split = self.classes * self.features
        W = params[:split].reshape(self.classes, self.features)
        b = params[split:]
        return W, b

    def logits(self, params, X):
        W, b = self._unpack(params)
        scores = X @ W.T
        scores += b
        return scores

    def objective(self, params, batch):
        # logits()'s scores, class-major: W @ X.T is (X @ W.T).T bit for bit
        X, y = batch
        W, b = self._unpack(params)
        S = W @ X.T
        S += b[:, None]
        return _xent_loss(S, y)

    def loss_and_grad(self, params, batch, update_stats=False):
        X, y = batch
        dscores = self.logits(params, X)
        loss, grad = _xent_head(dscores, y), np.empty(self.n_params)
        dW, db = self._unpack(grad)
        np.matmul(dscores.T, X, out=dW)
        np.add.reduce(dscores, axis=0, out=db)
        return loss, grad

    def predict(self, params, X):
        return self.logits(params, X).argmax(axis=1)

    def accuracy(self, params, X, y):
        return _hit_rate(self.predict(params, X), y)

    def touched(self, batch):
        """None: every batch reads the whole parameter vector."""
        return None

    def clone(self):
        return self


# ---------------------------------------------------------------------------
# normalization layers

EPS_NORM = 1e-5
RUNNING_RHO = 0.1


@dataclass
class BatchNorm:
    """Per-channel batch normalization with running eval statistics.

    Train mode normalizes by the current batch's mean/variance and folds the
    batch statistics into the running ones with weight rho:
        running = (1 - rho) * running + rho * batch.
    Eval mode normalizes by the running statistics.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    rho: float = RUNNING_RHO
    eps: float = EPS_NORM


@dataclass
class GroupNorm:
    """Normalization over groups of adjacent channels, per sample.

    The statistics never depend on the rest of the batch, which is the whole
    point: skewed minibatch composition cannot leak into the normalizer.
    """

    gamma: np.ndarray
    beta: np.ndarray
    group_size: int
    eps: float = EPS_NORM


@dataclass
class _NormCache:
    layer: object
    mode: str
    xhat: np.ndarray
    inv_std: np.ndarray


def _norm(layer, x, mode, update_stats, keep):
    """Run a normalization layer on a C-contiguous float64 x (batch x
    channels) that the caller owns; (y, cache), the cache for norm_backward
    or None.

    x is overwritten with xhat, and with y as well unless keep asks for the
    cache (then y is a new array). For BatchNorm in train mode the running
    statistics are updated unless update_stats is False. Train mode
    requires at least two samples for a meaningful batch variance."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    n, c = x.shape
    if isinstance(layer, BatchNorm):
        if mode == "train" and n < 2:
            raise ValueError("batch normalization needs batch size >= 2 in train mode")
        # statistics per channel, over the batch (eval: the running ones)
        xs, axis, count = x, 0, n
        running = mode == "eval"
        track = not running and (update_stats is None or update_stats)
    elif isinstance(layer, GroupNorm):
        if c % layer.group_size != 0:
            raise ValueError(
                f"channels {c} not divisible by group size {layer.group_size}"
            )
        # statistics per (sample, group), over the group's channels
        count = layer.group_size
        xs, axis = x.reshape(n, c // count, count), 2
        running = track = False
    else:
        raise TypeError(f"unknown normalization layer {type(layer).__name__}")
    if running:
        xs -= layer.running_mean
        var = layer.running_var
    else:
        # numpy's mean and var: sum / count of x, then of the squared
        # deviations from that mean, which are also xhat's numerator
        mean = np.add.reduce(xs, axis=axis, keepdims=True)
        mean /= count
        if track:
            layer.running_mean = ((1.0 - layer.rho) * layer.running_mean
                                  + layer.rho * mean[0])
        xs -= mean
        del mean          # batch x groups under group norm: free it first
        var = np.add.reduce(np.square(xs), axis=axis, keepdims=True)
        var /= count
        if track:
            layer.running_var = ((1.0 - layer.rho) * layer.running_var
                                 + layer.rho * var[0])
    inv_std = var + layer.eps
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xs *= inv_std
    y = np.multiply(x, layer.gamma, out=None if keep else x)
    y += layer.beta
    return y, _NormCache(layer, mode, x, inv_std) if keep else None


def norm_backward(layer, cache, dy):
    """Gradients (dx, dgamma, dbeta) for a cached _norm call."""
    if cache.layer is not layer or dy.shape != cache.xhat.shape:
        raise ValueError("stale or mismatched normalization cache")
    dy = np.asarray(dy, dtype=np.float64)
    dgamma = np.add.reduce(dy * cache.xhat, axis=0)
    dbeta = np.add.reduce(dy, axis=0)
    if isinstance(layer, BatchNorm):
        if cache.mode == "eval":
            dx = dy * layer.gamma * cache.inv_std
            return dx, dgamma, dbeta
        count = dy.shape[0]
        dxhat, xhat, axis = dy * layer.gamma, cache.xhat, 0
    else:
        # group norm: identical algebra per (sample, group) slab
        n, c = dy.shape
        count = layer.group_size
        dxhat = (dy * layer.gamma).reshape(n, c // count, count)
        xhat, axis = cache.xhat.reshape(dxhat.shape), 2
    dx = (cache.inv_std / count) * (
        count * dxhat
        - np.add.reduce(dxhat, axis=axis, keepdims=True)
        - xhat * np.add.reduce(dxhat * xhat, axis=axis, keepdims=True)
    )
    return dx.reshape(dy.shape), dgamma, dbeta


def stat_divergence(mu_a, mu_b):
    """Relative gap between two per-channel mean vectors.

    ||mu_a - mu_b|| / ||(mu_a + mu_b) / 2||, or None when the average is too
    close to zero for the ratio to mean anything (denominator below 1e-12).
    """
    mu_a = np.asarray(mu_a, dtype=np.float64)
    mu_b = np.asarray(mu_b, dtype=np.float64)
    denom = float(np.linalg.norm((mu_a + mu_b) / 2.0))
    if denom < 1e-12:
        return None
    return float(np.linalg.norm(mu_a - mu_b)) / denom


# ---------------------------------------------------------------------------
# tiny MLP


class TinyMLP:
    """Fully-connected ReLU network with optional per-hidden-layer norm.

    layer_sizes = [in, h1, ..., out]; norm is "none", "batch", or "group"
    and is applied to each hidden layer's pre-activation. Batch-norm running
    statistics live on the model instance (one per node after clone()), not
    in the parameter vector, mirroring how they travel in real systems.
    """

    def __init__(self, layer_sizes, norm="none", group_size=2):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if norm not in ("none", "batch", "group"):
            raise ValueError(f"unknown norm kind {norm!r}")
        self.layer_sizes = list(layer_sizes)
        self.norm = norm
        self.group_size = group_size
        self.n_hidden = len(layer_sizes) - 2
        if norm == "group":
            for h in layer_sizes[1:-1]:
                if h % group_size != 0:
                    raise ValueError(
                        f"hidden width {h} not divisible by group size {group_size}"
                    )
        self._slices = self._layout()
        self.n_params = self._slices["total"]
        # per hidden layer running stats, used only with batch norm
        self.bn_stats = [
            {"mean": np.zeros(h), "var": np.ones(h)}
            for h in layer_sizes[1:-1]
        ]

    def _layout(self):
        pos = 0
        slices = {"W": [], "b": [], "gamma": [], "beta": []}
        sizes = self.layer_sizes
        for li in range(len(sizes) - 1):
            n_in, n_out = sizes[li], sizes[li + 1]
            slices["W"].append(slice(pos, pos + n_in * n_out))
            pos += n_in * n_out
            slices["b"].append(slice(pos, pos + n_out))
            pos += n_out
            if self.norm != "none" and li < self.n_hidden:
                slices["gamma"].append(slice(pos, pos + n_out))
                pos += n_out
                slices["beta"].append(slice(pos, pos + n_out))
                pos += n_out
        slices["total"] = pos
        return slices

    def init_params(self, rng):
        params = rng.uniform(INIT_LO, INIT_HI, self.n_params)
        for li in range(self.n_hidden if self.norm != "none" else 0):
            params[self._slices["gamma"][li]] = 1.0
            params[self._slices["beta"][li]] = 0.0
        return params

    def _norm_layer(self, params, li):
        gamma = params[self._slices["gamma"][li]]
        beta = params[self._slices["beta"][li]]
        if self.norm == "batch":
            stats = self.bn_stats[li]
            return BatchNorm(
                gamma=gamma, beta=beta,
                running_mean=stats["mean"], running_var=stats["var"],
            )
        return GroupNorm(gamma=gamma, beta=beta, group_size=self.group_size)

    def _forward(self, params, X, mode, update_stats, caches=None):
        """Logits of X (batch x features).

        Given a caches list, appends one (input, W, norm cache or None,
        output) entry per layer for loss_and_grad's backward pass. Without
        one, each layer overwrites the one array it owns (matmul output, bias,
        norm, ReLU), so only the layer's input and output are alive.
        """
        h = np.asarray(X, dtype=np.float64)
        keep = caches is not None
        sizes = self.layer_sizes
        for li in range(self.n_hidden + 1):
            W = params[self._slices["W"][li]].reshape(sizes[li], sizes[li + 1])
            h_in = h if keep else None    # uncached, the last output dies here
            h = h @ W
            h += params[self._slices["b"][li]]
            if li == self.n_hidden:
                if keep:
                    caches.append((h_in, W, None, None))
                return h
            ncache = None
            if self.norm != "none":
                layer = self._norm_layer(params, li)
                h, ncache = _norm(layer, h, mode, update_stats, keep)
                if update_stats and self.norm == "batch" and mode == "train":
                    self.bn_stats[li]["mean"] = layer.running_mean
                    self.bn_stats[li]["var"] = layer.running_var
            np.maximum(h, 0.0, out=h)
            if keep:
                caches.append((h_in, W, ncache, h))

    def objective(self, params, batch, mode="train"):
        X, y = batch
        # a copy: W.T @ h.T is not (h @ W).T bit for bit; a view is slower
        return _xent_loss(self._forward(params, X, mode, False).T.copy(), y)

    def loss_and_grad(self, params, batch, mode="train", update_stats=False):
        X, y = batch
        caches = []
        dz = self._forward(params, X, mode, update_stats, caches)
        loss = _xent_head(dz, y)
        grad = np.empty_like(params)
        for li in range(self.n_hidden, -1, -1):
            h_in, W, ncache, a = caches[li]
            if li < self.n_hidden:
                dz *= a > 0.0          # a = max(x, 0) > 0 exactly where x > 0
                if ncache is not None:
                    dz, dgamma, dbeta = norm_backward(ncache.layer, ncache, dz)
                    grad[self._slices["gamma"][li]] = dgamma
                    grad[self._slices["beta"][li]] = dbeta
            np.matmul(h_in.T, dz, out=grad[self._slices["W"][li]].reshape(W.shape))
            grad[self._slices["b"][li]] = np.add.reduce(dz, axis=0)
            if li:
                dz = dz @ W.T
        return loss, grad

    def first_layer_preact(self, params, X):
        """Pre-normalization activations of the first hidden layer."""
        W = params[self._slices["W"][0]].reshape(
            self.layer_sizes[0], self.layer_sizes[1])
        b = params[self._slices["b"][0]]
        return np.asarray(X, dtype=np.float64) @ W + b

    def predict(self, params, X, mode="eval"):
        return self._forward(params, X, mode, False).argmax(axis=1)

    def accuracy(self, params, X, y, mode="eval"):
        return _hit_rate(self.predict(params, X, mode=mode), y)

    def touched(self, batch):
        """None: every batch reads the whole parameter vector."""
        return None

    def clone(self):
        """Copy with independent running statistics (weights stay external)."""
        twin = TinyMLP(self.layer_sizes, norm=self.norm,
                       group_size=self.group_size)
        twin.bn_stats = [
            {"mean": s["mean"].copy(), "var": s["var"].copy()}
            for s in self.bn_stats
        ]
        return twin
