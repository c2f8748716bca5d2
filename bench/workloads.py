"""The benchmark's three workloads, generated from a seed.

A workload is a list of experiments, each a geolearn config dict labelled by
the metric it feeds (``bsp`` feeds ``bsp_iter_us``). Every experiment uses
``convergence: none`` so it runs its whole budget, and every label appears in
every workload so that each workload reports the same end-to-end metrics.

Budgets (epochs) differ per algorithm because host cost per iteration does:
on the 77k-coordinate MLP one Gaia iteration costs ~80 BSP iterations. The
budgets are set so that one pass over a workload takes a few seconds on a
2-core x86 host, which leaves room for several passes per run.

The seed drives data generation, partitioning, model init and batch order.
Nothing else in a workload depends on it, so two seeds give inputs of the
same shape and size.
"""

LABELS = ("bsp", "ssp", "gaia", "fedavg", "dgc", "solo")

# 32 -> 256 -> 256 -> 11: 77,067 coordinates
MLP_WIDE = {"kind": "mlp", "features": 32, "classes": 11, "hidden": [256, 256]}
# 10 features x 10 classes + 10 biases: 110 coordinates
SOFTMAX_SMALL = {"kind": "softmax", "features": 10, "classes": 10}
# 32 -> 64 -> 64 -> 11 with batch norm: 7,243 coordinates
MLP_BN = {"kind": "mlp", "features": 32, "classes": 11, "hidden": [64, 64],
          "norm": "batch"}
# the five regions whose links in the packaged bandwidth table are slowest
SLOW_DCS = ("mumbai", "saopaulo", "sydney", "seoul", "singapore")


def _config(name, seed, model, data, nodes, alpha, kind, epochs, batch_size,
            scout=False, dcs=None):
    cfg = {
        "name": name,
        "seed": seed,
        "model": dict(model),
        "data": dict(data),
        "partition": {"nodes": nodes, "alpha": alpha},
        "algorithm": {"kind": kind, "epochs": epochs,
                      "batch_size": batch_size},
        "convergence": {"mode": "none"},
    }
    if scout:
        cfg["scout"] = {"enabled": True}
    if dcs:
        cfg["topology"] = {"dcs": list(dcs)}
    return cfg


def mlp_5dc(seed):
    """Coordinate-heavy: per-coordinate work dominates every algorithm.

    198 samples over 5 DCs gives 2 batches per node-epoch, so the budgets
    below are 2 x epochs iterations per node.
    """
    data = {"per_class": 18, "spread": 1.0, "test_per_class": 20}
    epochs = {"bsp": 10, "ssp": 10, "gaia": 2, "fedavg": 20, "dgc": 4}
    exps = [
        (kind, _config(f"mlp-5dc-{kind}", seed, MLP_WIDE, data, 5, 0.5, kind,
                       epochs[kind], 20))
        for kind in ("bsp", "ssp", "gaia", "fedavg", "dgc")
    ]
    exps.append(("solo", _config("mlp-5dc-solo", seed, MLP_WIDE, data, 1,
                                 0.5, "bsp", 10, 20)))
    return exps


def softmax_11dc(seed):
    """Message-heavy: 11 DCs, ~21 simulator events per iteration, 110 coords.

    2,000 samples over 11 DCs gives 10 batches per node-epoch.
    """
    data = {"per_class": 200, "spread": 1.0, "test_per_class": 50}
    epochs = {"bsp": 8, "ssp": 8, "gaia": 8, "fedavg": 16, "dgc": 8}
    exps = [
        (kind, _config(f"softmax-11dc-{kind}", seed, SOFTMAX_SMALL, data, 11,
                       0.5, kind, epochs[kind], 20))
        for kind in ("bsp", "ssp", "gaia", "fedavg", "dgc")
    ]
    exps.append(("solo", _config("softmax-11dc-solo", seed, SOFTMAX_SMALL,
                                 data, 1, 0.5, "bsp", 8, 20)))
    return exps


def scout_skew(seed):
    """Evaluation-heavy: SkewScout probes and BN-MLP evaluation at full skew.

    With alpha 1, 11 classes over 5 DCs leave node 0 with 3 classes (15
    batches per epoch) and the others with 2 (10 batches), so node 0's
    budget is half as large again as its peers'. Lockstep-style algorithms
    stall there (node 0 blocks once its peers stop); those runs count as
    failed and their per-iteration time covers the iterations they did.
    The scout has no knob for BSP and SSP, so those two and the solo run
    train the same model and data with the scout off.

    The DCs are the five with the slowest links in the packaged table. On
    the default five (virginia first) Gaia's selective barrier fires only
    on some flushes, and how often depends on the data: over seeds 101-110
    its barrier bytes ranged 1.3-5.1 MB and its time per iteration 2x. On
    these links it fires on nearly every flush, 12.8-14.5 MB.
    """
    data = {"per_class": 100, "spread": 1.0, "test_per_class": 50}
    epochs = {"bsp": 3, "ssp": 3, "gaia": 2, "fedavg": 3, "dgc": 3}
    exps = [
        (kind, _config(f"scout-skew-{kind}", seed, MLP_BN, data, 5, 1.0, kind,
                       epochs[kind], 20,
                       scout=kind in ("gaia", "fedavg", "dgc"), dcs=SLOW_DCS))
        for kind in ("bsp", "ssp", "gaia", "fedavg", "dgc")
    ]
    exps.append(("solo", _config("scout-skew-solo", seed, MLP_BN, data, 1,
                                 1.0, "bsp", 3, 20, dcs=SLOW_DCS[:1])))
    return exps


WORKLOADS = {
    "mlp-5dc": mlp_5dc,
    "softmax-11dc": softmax_11dc,
    "scout-skew": scout_skew,
}
