"""What the significance filter buys on a factorization workload.

Two data centers factor the same observed matrix. The dense baseline ships
every momentum update; the filtered run ships only coordinates whose
accumulated change clears a relative threshold, letting the residual ride
until it matters. The interesting part is how little objective the filter
gives up for the bytes it withholds.

Run: python3 demos/significance_filter.py
"""

from geolearn.harness import config_from_dict, run_experiment


def factorization_cfg(algo):
    raw = {
        "name": f"mf-{algo['kind']}",
        "seed": 5,
        "model": {"kind": "mf", "rows": 100, "cols": 80, "rank": 5},
        "data": {"kind": "mf", "density": 0.25, "noise_sigma": 0.05},
        "partition": {"nodes": 2},
        "algorithm": {"kind": "bsp", "batch_size": 50, "epochs": 60,
                      "momentum": 0.0, "lr": {"eta0": 0.05}},
        "convergence": {"mode": "none"},
    }
    raw["algorithm"].update(algo)
    return config_from_dict(raw)


def main():
    dense = run_experiment(factorization_cfg({"kind": "bsp"}))
    filtered = run_experiment(factorization_cfg(
        {"kind": "gaia", "t0": 0.01, "ds": 1}))

    d, f = dense.summary, filtered.summary
    print("dense lockstep   : objective %-8.4f update bytes %d"
          % (d["final_objective"], d["update_bytes"]))
    print("filtered (t0=1%%) : objective %-8.4f update bytes %d"
          % (f["final_objective"], f["update_bytes"]))
    gap = (f["final_objective"] - d["final_objective"]) / d["final_objective"]
    print("objective gap    : %.2f%%" % (100.0 * gap))
    print("update byte ratio: %.1fx fewer" % (d["update_bytes"] / f["update_bytes"]))

    # the filter's view of its own work: how many scored coordinates stayed home
    emitted = scored = 0
    for counts in (n.sig_counts for n in filtered.nodes):
        for e, s in counts.values():
            emitted += e
            scored += s
    print("sub-threshold    : %.1f%% of scored coordinates never left"
          % (100.0 * (1.0 - emitted / scored)))


if __name__ == "__main__":
    main()
