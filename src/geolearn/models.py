"""Desk-scale models: matrix factorization, softmax regression, and a tiny
MLP with optional batch or group normalization.

Every model exposes the same protocol over a flat float64 parameter vector:

    init_params(rng)              -> 1-D array
    objective(params, batch)      -> float, pure (no state mutation)
    loss_and_grad(params, batch, update_stats=False) -> (float, gradient)

update_stats only matters for models with running statistics (batch norm);
the stateless models accept and ignore it.

so the synchronization machinery never needs to know what it is training.
Gradients are hand-derived and are expected to pass the central-difference
oracle in numerics.grad_check below 1e-4.
"""

from dataclasses import dataclass, field

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
        return X @ W.T + b

    def _forward(self, params, batch):
        """(class probabilities, mean cross-entropy loss) of a batch."""
        X, y = batch
        scores = self.logits(params, X)
        scores -= scores.max(axis=1, keepdims=True)
        exp = np.exp(scores)
        probs = exp / exp.sum(axis=1, keepdims=True)
        loss = float(-np.mean(np.log(probs[np.arange(X.shape[0]), y])))
        return probs, loss

    def objective(self, params, batch):
        return self._forward(params, batch)[1]

    def loss_and_grad(self, params, batch, update_stats=False):
        X, y = batch
        n = X.shape[0]
        probs, loss = self._forward(params, batch)
        dscores = probs
        dscores[np.arange(n), y] -= 1.0
        dscores /= n
        dW = dscores.T @ X
        db = dscores.sum(axis=0)
        return loss, np.concatenate([dW.ravel(), db])

    def predict(self, params, X):
        return np.argmax(self.logits(params, X), axis=1)

    def accuracy(self, params, X, y):
        return float(np.mean(self.predict(params, X) == y))

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

    @classmethod
    def create(cls, channels, rho=RUNNING_RHO, eps=EPS_NORM):
        return cls(
            gamma=np.ones(channels),
            beta=np.zeros(channels),
            running_mean=np.zeros(channels),
            running_var=np.ones(channels),
            rho=rho,
            eps=eps,
        )


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

    @classmethod
    def create(cls, channels, group_size, eps=EPS_NORM):
        if channels % group_size != 0:
            raise ValueError(
                f"channels {channels} not divisible by group size {group_size}"
            )
        return cls(
            gamma=np.ones(channels),
            beta=np.zeros(channels),
            group_size=group_size,
            eps=eps,
        )


@dataclass
class _NormCache:
    layer: object
    mode: str
    x: np.ndarray
    xhat: np.ndarray
    inv_std: np.ndarray


def norm_forward(layer, x, mode, update_stats=None):
    """Run a normalization layer on x (batch x channels).

    Returns (y, cache); the cache feeds norm_backward. For BatchNorm in train
    mode the running statistics are updated unless update_stats=False. Train
    mode requires at least two samples for a meaningful batch variance.
    """
    x = np.asarray(x, dtype=np.float64)
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if isinstance(layer, BatchNorm):
        if mode == "train":
            if x.shape[0] < 2:
                raise ValueError("batch normalization needs batch size >= 2 in train mode")
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
        return y, _NormCache(layer, mode, x, xhat, inv_std)
    if isinstance(layer, GroupNorm):
        n, c = x.shape
        if c % layer.group_size != 0:
            raise ValueError(
                f"channels {c} not divisible by group size {layer.group_size}"
            )
        g = c // layer.group_size
        xg = x.reshape(n, g, layer.group_size)
        mean = xg.mean(axis=2, keepdims=True)
        var = xg.var(axis=2, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + layer.eps)
        xhat = ((xg - mean) * inv_std).reshape(n, c)
        y = layer.gamma * xhat + layer.beta
        return y, _NormCache(layer, mode, x, xhat, inv_std)
    raise TypeError(f"unknown normalization layer {type(layer).__name__}")


def norm_backward(layer, cache, dy):
    """Gradients (dx, dgamma, dbeta) for a cached norm_forward call."""
    if cache.layer is not layer or dy.shape != cache.x.shape:
        raise ValueError("stale or mismatched normalization cache")
    dy = np.asarray(dy, dtype=np.float64)
    dgamma = np.sum(dy * cache.xhat, axis=0)
    dbeta = np.sum(dy, axis=0)
    if isinstance(layer, BatchNorm):
        if cache.mode == "eval":
            dx = dy * layer.gamma * cache.inv_std
            return dx, dgamma, dbeta
        n = cache.x.shape[0]
        dxhat = dy * layer.gamma
        dx = (cache.inv_std / n) * (
            n * dxhat
            - dxhat.sum(axis=0)
            - cache.xhat * np.sum(dxhat * cache.xhat, axis=0)
        )
        return dx, dgamma, dbeta
    # group norm: identical algebra per (sample, group) slab
    n, c = cache.x.shape
    gs = layer.group_size
    g = c // gs
    dxhat = (dy * layer.gamma).reshape(n, g, gs)
    xhat = cache.xhat.reshape(n, g, gs)
    dx = (cache.inv_std / gs) * (
        gs * dxhat
        - dxhat.sum(axis=2, keepdims=True)
        - xhat * np.sum(dxhat * xhat, axis=2, keepdims=True)
    )
    return dx.reshape(n, c), dgamma, dbeta


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

    def _forward(self, params, X, mode, update_stats):
        h = np.asarray(X, dtype=np.float64)
        caches = []
        for li in range(self.n_hidden):
            W = params[self._slices["W"][li]].reshape(
                self.layer_sizes[li], self.layer_sizes[li + 1])
            b = params[self._slices["b"][li]]
            z = h @ W + b
            if self.norm != "none":
                layer = self._norm_layer(params, li)
                zn, ncache = norm_forward(layer, z, mode, update_stats=update_stats)
                if update_stats and self.norm == "batch" and mode == "train":
                    self.bn_stats[li]["mean"] = layer.running_mean
                    self.bn_stats[li]["var"] = layer.running_var
            else:
                layer, ncache, zn = None, None, z
            a = np.maximum(zn, 0.0)
            caches.append((h, W, z, layer, ncache, zn))
            h = a
        lo = self.n_hidden
        W = params[self._slices["W"][lo]].reshape(
            self.layer_sizes[lo], self.layer_sizes[lo + 1])
        b = params[self._slices["b"][lo]]
        logits = h @ W + b
        return logits, h, W, caches

    def objective(self, params, batch, mode="train"):
        X, y = batch
        logits, _, _, _ = self._forward(params, X, mode, update_stats=False)
        return self._ce(logits, y)[0]

    @staticmethod
    def _ce(logits, y):
        n = logits.shape[0]
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        loss = float(-np.mean(np.log(probs[np.arange(n), y])))
        dlogits = probs
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        return loss, dlogits

    def loss_and_grad(self, params, batch, mode="train", update_stats=False):
        X, y = batch
        logits, h_last, W_out, caches = self._forward(
            params, X, mode, update_stats=update_stats)
        loss, dlogits = self._ce(logits, y)
        grad = np.zeros_like(params)
        lo = self.n_hidden
        grad[self._slices["W"][lo]] = (h_last.T @ dlogits).ravel()
        grad[self._slices["b"][lo]] = dlogits.sum(axis=0)
        dh = dlogits @ W_out.T
        for li in range(self.n_hidden - 1, -1, -1):
            h_in, W, z, layer, ncache, zn = caches[li]
            dzn = dh * (zn > 0.0)
            if self.norm != "none":
                dz, dgamma, dbeta = norm_backward(layer, ncache, dzn)
                grad[self._slices["gamma"][li]] = dgamma
                grad[self._slices["beta"][li]] = dbeta
            else:
                dz = dzn
            grad[self._slices["W"][li]] = (h_in.T @ dz).ravel()
            grad[self._slices["b"][li]] = dz.sum(axis=0)
            dh = dz @ W.T
        return loss, grad

    def first_layer_preact(self, params, X):
        """Pre-normalization activations of the first hidden layer."""
        W = params[self._slices["W"][0]].reshape(
            self.layer_sizes[0], self.layer_sizes[1])
        b = params[self._slices["b"][0]]
        return np.asarray(X, dtype=np.float64) @ W + b

    def predict(self, params, X, mode="eval"):
        logits, _, _, _ = self._forward(params, X, mode, update_stats=False)
        return np.argmax(logits, axis=1)

    def accuracy(self, params, X, y, mode="eval"):
        return float(np.mean(self.predict(params, X, mode=mode) == y))

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
