import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geolearn.data import (LabeledDataset, MinibatchStream, gen_cluster_data,
                           gen_mf_data, partition_label_skew,
                           partition_uniform)
from geolearn.rng import seed_stream


# ---------------------------------------------------------------------------
# generators


def test_gen_mf_data_shape_and_determinism():
    spec = dict(rows=10, cols=8, rank=2, density=0.5, noise_sigma=0.1, seed=3)
    entries = gen_mf_data(**spec)
    assert len(entries) == 40          # round(0.5 * 80)
    assert entries.row.max() < 10 and entries.col.max() < 8
    again = gen_mf_data(**spec)
    np.testing.assert_array_equal(entries.val, again.val)


def test_gen_mf_data_rejects_bad_density():
    with pytest.raises(ValueError):
        gen_mf_data(rows=4, cols=4, rank=1, density=0.0, noise_sigma=0.0,
                    seed=0)


def test_gen_cluster_data_tags_share_geometry():
    train = gen_cluster_data(3, 4, 20, 1.0, seed=9, tag="train")
    test = gen_cluster_data(3, 4, 5, 1.0, seed=9, tag="test")
    # same seeded centers: per-class means should agree far better than
    # the sample noise scale
    for c in range(3):
        mu_train = train.X[train.y == c].mean(axis=0)
        mu_test = test.X[test.y == c].mean(axis=0)
        assert np.linalg.norm(mu_train - mu_test) < 2.0
    # but the samples themselves are different draws
    assert not np.array_equal(train.X[:5], test.X[:5])


def test_gen_cluster_data_balanced_labels():
    data = gen_cluster_data(4, 2, 25, 0.5, seed=2)
    np.testing.assert_array_equal(np.bincount(data.y, minlength=4),
                                  [25, 25, 25, 25])
    # validate partitions these labels to check batch-norm minibatches
    np.testing.assert_array_equal(data.y, np.repeat(np.arange(4), 25))


# ---------------------------------------------------------------------------
# partitioning


def _cover_exactly_once(parts, n):
    merged = np.concatenate(parts)
    assert merged.size == n
    np.testing.assert_array_equal(np.sort(merged), np.arange(n))


def test_partition_uniform_covers_and_balances():
    parts = partition_uniform(100, 3, seed=0)
    _cover_exactly_once(parts, 100)
    sizes = sorted(p.size for p in parts)
    assert sizes == [33, 33, 34]


def test_partition_label_skew_alpha1_disjoint_labels():
    data = gen_cluster_data(6, 2, 30, 1.0, seed=4)
    parts = partition_label_skew(data, partitions=3, alpha=1.0, seed=4)
    _cover_exactly_once(parts, len(data))
    label_sets = [set(np.unique(data.y[p])) for p in parts]
    assert label_sets == [{0, 1}, {2, 3}, {4, 5}]


def test_partition_label_skew_alpha0_is_balanced():
    data = gen_cluster_data(4, 2, 25, 1.0, seed=8)
    parts = partition_label_skew(data, partitions=4, alpha=0.0, seed=8)
    _cover_exactly_once(parts, 100)
    assert all(p.size == 25 for p in parts)


def test_partition_label_skew_remainder_labels_to_low_partitions():
    # 5 labels over 2 partitions: partition 0 owns 3, partition 1 owns 2
    data = gen_cluster_data(5, 2, 10, 1.0, seed=6)
    parts = partition_label_skew(data, partitions=2, alpha=1.0, seed=6)
    assert set(np.unique(data.y[parts[0]])) == {0, 1, 2}
    assert set(np.unique(data.y[parts[1]])) == {3, 4}


@given(alpha=st.floats(0.0, 1.0), k=st.sampled_from([1, 2, 3, 6]),
       seed=st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_partition_label_skew_properties(alpha, k, seed):
    # the +-K size bound is promised for class counts divisible by K;
    # k always divides the 6 classes here
    data = gen_cluster_data(6, 2, 10, 1.0, seed=seed)
    parts = partition_label_skew(data, partitions=k, alpha=alpha, seed=seed)
    _cover_exactly_once(parts, 60)
    for p in parts:
        assert abs(p.size - 60 / k) <= k
    # indices sorted, as documented
    for p in parts:
        assert np.all(np.diff(p) > 0) or p.size <= 1


def _reference_label_skew(dataset, k, alpha, seed):
    """The per-sample dealing loop partition_label_skew replaces."""
    def label_owner(label, classes, partitions):
        base, extra = divmod(classes, partitions)
        boundary = (base + 1) * extra
        if label < boundary:
            return label // (base + 1)
        return extra + (label - boundary) // base if base else partitions - 1

    n = len(dataset)
    rng = seed_stream(seed, "partition")
    order = rng.permutation(n)
    n_skew = int(round(alpha * n))
    skewed, uniform = order[:n_skew], order[n_skew:]
    parts = [[] for _ in range(k)]
    skewed = skewed[np.argsort(dataset.y[skewed], kind="stable")]
    for idx in skewed:
        parts[label_owner(int(dataset.y[idx]), dataset.classes, k)].append(int(idx))
    for idx in uniform:
        target = min(range(k), key=lambda p: (len(parts[p]), p))
        parts[target].append(int(idx))
    return [np.array(sorted(p), dtype=np.intp) for p in parts]


@st.composite
def _skew_cases(draw):
    classes = draw(st.integers(1, 13))
    per_class = draw(st.integers(1, 30))
    # uneven splits: each class gets per_class plus its own extra
    extra = draw(st.lists(st.integers(0, 30), min_size=classes,
                          max_size=classes) | st.just([0] * classes))
    sizes = [per_class + e for e in extra]
    n = sum(sizes)
    k = draw(st.integers(1, min(n, 16)))      # up to 3 more than classes
    alpha = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return sizes, k, alpha, draw(st.integers(0, 2**32 - 1))


@given(_skew_cases())
@example(([10] * 5, 11, 0.5, 7))       # more partitions than classes
@example(([3, 40, 7], 3, 1.0, 1))      # n_skew = N
@example(([3, 40, 7], 3, 0.0, 1))      # n_skew = 0
@example(([200] * 10, 11, 0.5, 7))     # the softmax-11dc shape
@settings(max_examples=300, deadline=None)
def test_partition_label_skew_matches_reference_loop(case):
    sizes, k, alpha, seed = case
    y = np.repeat(np.arange(len(sizes)), sizes)
    data = LabeledDataset(X=np.zeros((y.size, 1)), y=y, classes=len(sizes))
    got = partition_label_skew(data, k, alpha, seed)
    want = _reference_label_skew(data, k, alpha, seed)
    assert len(got) == len(want) == k
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.intp
        np.testing.assert_array_equal(g, w)


def test_partition_label_skew_validates_inputs():
    data = gen_cluster_data(2, 2, 5, 1.0, seed=0)
    with pytest.raises(ValueError):
        partition_label_skew(data, partitions=2, alpha=1.5, seed=0)
    with pytest.raises(ValueError):
        partition_label_skew(data, partitions=11, alpha=0.5, seed=0)


# ---------------------------------------------------------------------------
# minibatch stream


def test_minibatch_stream_epoch_is_permutation():
    idx = np.arange(10, 20)
    stream = MinibatchStream(idx, 3, seed_stream(0, "test"))
    assert stream.batches_per_epoch == 4
    seen = np.concatenate([stream.next_batch() for _ in range(4)])
    np.testing.assert_array_equal(np.sort(seen), idx)
    assert seen.size == 10             # last batch short, nothing repeated


def test_minibatch_stream_peek_matches_next():
    stream = MinibatchStream(np.arange(7), 2, seed_stream(1, "test"))
    for _ in range(9):
        upcoming = stream.peek().copy()
        np.testing.assert_array_equal(stream.next_batch(), upcoming)


def test_minibatch_stream_seeded_determinism():
    a = MinibatchStream(np.arange(30), 4, seed_stream(2, "x"))
    b = MinibatchStream(np.arange(30), 4, seed_stream(2, "x"))
    for _ in range(12):
        np.testing.assert_array_equal(a.next_batch(), b.next_batch())


def test_minibatch_stream_rejects_bad_batch_size():
    with pytest.raises(ValueError):
        MinibatchStream(np.arange(4), 5, seed_stream(0, "t"))
    with pytest.raises(ValueError):
        MinibatchStream(np.arange(4), 0, seed_stream(0, "t"))
