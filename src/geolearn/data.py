"""Synthetic datasets, label-skew partitioning, and minibatch streams.

Two generators cover the lab's needs: observed cells of a low-rank matrix
(for factorization) and Gaussian class clusters (for classifiers). The
partitioner reproduces label skew: a seeded alpha fraction of samples is
dealt by label ownership so each partition concentrates on its own slice of
the label space, and the remainder is dealt uniformly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .models import MFEntries
from .rng import seed_stream


@dataclass
class LabeledDataset:
    X: np.ndarray
    y: np.ndarray
    classes: int

    def __len__(self):
        return self.y.size


def gen_mf_data(rows, cols, rank, density, noise_sigma, seed):
    """Observed entries x_ij = (L* R*)_ij + noise of a rows x cols matrix
    of rank `rank`, at the requested density (checked), as MFEntries."""
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    n_cells = rows * cols
    count = int(round(density * n_cells))
    if count < 1:
        raise ValueError("density too low: no entries would be generated")
    rng = seed_stream(seed, "data", "mf")
    L = rng.normal(0.0, 1.0, (rows, rank)) / math.sqrt(rank)
    R = rng.normal(0.0, 1.0, (rank, cols))
    flat = rng.choice(n_cells, size=count, replace=False)
    flat.sort()
    row = (flat // cols).astype(np.intp)
    col = (flat % cols).astype(np.intp)
    clean = np.sum(L[row] * R[:, col].T, axis=1)
    val = (clean + rng.normal(0.0, noise_sigma, count) if noise_sigma > 0
           else clean)
    return MFEntries(row=row, col=col, val=val)


def gen_cluster_data(classes, features, per_class, spread, seed, tag="train"):
    """Balanced Gaussian blobs: class c is centered at a seeded random point.

    The centers depend only on (seed, classes, features) so train and test
    splits drawn with different tags share geometry but not noise.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    center_rng = seed_stream(seed, "data", "centers")
    centers = center_rng.normal(0.0, 1.0, (classes, features))
    noise_rng = seed_stream(seed, "data", "blobs", tag)
    X = np.repeat(centers, per_class, axis=0) + spread * noise_rng.normal(
        0.0, 1.0, (classes * per_class, features))
    y = np.repeat(np.arange(classes), per_class)
    return LabeledDataset(X=X, y=y, classes=classes)


def _label_owner(labels, classes, partitions):
    # contiguous label blocks; the first (classes % partitions) partitions own
    # one extra label each, so remainders land on the lowest-index partitions
    base, extra = divmod(classes, partitions)
    boundary = (base + 1) * extra
    rest = extra + (labels - boundary) // base if base else partitions - 1
    return np.where(labels < boundary, labels // (base + 1), rest)


def _deal_uniform(counts, m):
    """Owners of m samples dealt one at a time to the smallest partition,
    ties to the lowest index, on top of the sizes counts. Partition p's free
    slots sit at levels counts[p], counts[p] + 1, ...; the dealing takes
    them in (level, partition) order, up to the level that holds all m."""
    if m == 0:
        return np.empty(0, dtype=np.intp)
    k = counts.size
    s = np.sort(counts)
    below = np.arange(1, k + 1) * s - np.cumsum(s)    # slots below s[j]
    j = np.searchsorted(below, m) - 1
    free = np.maximum(s[j] - (below[j] - m) // (j + 1) - counts, 0)
    owner = np.repeat(np.arange(k), free)
    level = np.arange(owner.size) - np.repeat(np.cumsum(free) - free - counts, free)
    return np.sort(level * k + owner)[:m] % k


def partition_label_skew(dataset, partitions, alpha, seed):
    """Split sample indices into `partitions` lists with label skew alpha.

    A seeded alpha fraction of the samples is assigned by label ownership:
    partition k owns the k-th contiguous block of labels, with the first
    C mod K partitions owning one extra label. The remaining samples are
    dealt smallest-partition-first from a seeded shuffle, which keeps all
    partition sizes within +-K of N/K on balanced datasets whose class
    count divides evenly over the partitions (otherwise label ownership
    itself is lopsided and dominates the split).
    """
    k = partitions
    n = len(dataset)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= partitions <= {n}, got {k}")
    order = seed_stream(seed, "partition").permutation(n)
    n_skew = int(round(alpha * n))
    skewed, uniform = order[:n_skew], order[n_skew:]
    owner = np.empty(n, dtype=np.intp)
    owner[skewed] = _label_owner(dataset.y[skewed], dataset.classes, k)
    owner[uniform] = _deal_uniform(np.bincount(owner[skewed], minlength=k),
                                   uniform.size)
    # a stable sort of the owners lists each partition's indices ascending
    members = np.argsort(owner, kind="stable")
    return np.split(members, np.cumsum(np.bincount(owner, minlength=k))[:-1])


def partition_uniform(n, partitions, seed):
    """Random balanced split of range(n); used for factorization entries."""
    rng = seed_stream(seed, "partition")
    order = rng.permutation(n)
    return [np.sort(order[p::partitions]).astype(np.intp) for p in range(partitions)]


class MinibatchStream:
    """Without-replacement minibatches over a fixed index set.

    Each epoch is a fresh seeded permutation cut into ceil(N/B) consecutive
    batches (the last one may be short). peek() exposes the upcoming batch
    without consuming it so callers can gate on what it will read.
    """

    def __init__(self, indices, batch_size, rng):
        self.indices = np.asarray(indices, dtype=np.intp)
        if batch_size < 1 or batch_size > self.indices.size:
            raise ValueError(
                f"batch size must be in 1..{self.indices.size}, got {batch_size}")
        self.batch_size = batch_size
        self.rng = rng
        self.batches_per_epoch = math.ceil(self.indices.size / batch_size)
        self._order = None
        self._cursor = 0

    def _ensure_epoch(self):
        if self._order is None or self._cursor >= self.indices.size:
            self._order = self.rng.permutation(self.indices)
            self._cursor = 0

    def peek(self):
        self._ensure_epoch()
        return self._order[self._cursor:self._cursor + self.batch_size]

    def next_batch(self):
        batch = self.peek()
        self._cursor += self.batch_size
        return batch

