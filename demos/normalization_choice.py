"""Why batch statistics and skewed partitions do not mix.

A batch-normalized layer standardizes activations with minibatch means and
variances. When each data center's minibatches come from its own label
slice, those statistics describe different distributions, so the nodes
normalize differently and the averaged model answers for neither. Group
normalization computes statistics within each sample, so the skew never
enters. First half: measure the divergence directly. Second half: train the
same network both ways.

Run: python3 demos/normalization_choice.py
"""

import numpy as np

from geolearn.data import MinibatchStream, gen_cluster_data, partition_label_skew
from geolearn.harness import config_from_dict, run_experiment
from geolearn.models import TinyMLP, stat_divergence
from geolearn.rng import seed_stream


def minibatch_mean_divergence(alpha, batches=100):
    """Mean divergence of first-layer preactivation channel means across
    two DCs' aligned minibatches."""
    data = gen_cluster_data(classes=4, features=8, per_class=200,
                            spread=1.0, seed=11)
    parts = partition_label_skew(data, 2, alpha, 11)
    model = TinyMLP([8, 16, 4], norm="batch")
    w0 = model.init_params(seed_stream(11, "model", "init"))
    streams = [MinibatchStream(p, 50, seed_stream(11, "s", str(i)))
               for i, p in enumerate(parts)]
    vals = []
    for _ in range(batches):
        means = [model.first_layer_preact(w0, data.X[s.next_batch()]).mean(axis=0)
                 for s in streams]
        vals.append(stat_divergence(means[0], means[1]))
    return float(np.mean(vals))


def mlp_cfg(norm, alpha):
    return config_from_dict({
        "name": f"{norm}-a{alpha}", "seed": 7,
        "model": {"kind": "mlp", "features": 10, "classes": 10,
                  "hidden": [16], "norm": norm, "group_size": 4},
        "data": {"per_class": 100, "spread": 1.0, "test_per_class": 50},
        "partition": {"nodes": 5, "alpha": alpha},
        "algorithm": {"kind": "bsp", "batch_size": 20, "epochs": 20,
                      "lr": {"eta0": 0.02}},
        "convergence": {"mode": "none"},
    })


def main():
    iid = minibatch_mean_divergence(0.0)
    skewed = minibatch_mean_divergence(1.0)
    print("batch-statistics divergence between two DCs (100 minibatches):")
    print("  skew 0: %.4f    skew 1: %.4f    ratio %.1fx"
          % (iid, skewed, skewed / iid))

    print("\ntraining a small MLP on five skewed DCs:")
    for norm in ("batch", "group"):
        a0 = run_experiment(mlp_cfg(norm, 0.0)).summary
        a1 = run_experiment(mlp_cfg(norm, 1.0)).summary
        print("  %-5s norm: iid %5.1f%%  skew %5.1f%%  (loss grew %+.2f)"
              % (norm, 100.0 * a0["final_accuracy"], 100.0 * a1["final_accuracy"],
                 a1["final_objective"] - a0["final_objective"]))


if __name__ == "__main__":
    main()
