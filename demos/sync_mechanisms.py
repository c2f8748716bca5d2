"""Why the filter needs its gates: barriers and mirror clocks under asymmetry.

The WAN here is lopsided on purpose: east->west is ten times faster than
west->east, so west's updates pile up behind a thin pipe. With the selective
barrier and mirror clock disabled, east happily trains on stale state and
the run falls apart. With them enabled, east blocks the moment its view of
west is too old, and the same workload converges.

Run: python3 demos/sync_mechanisms.py
"""

from collections import Counter

from geolearn import wansim
from geolearn.harness import config_from_dict, run_experiment


def lopsided_topology():
    links = {
        ("east", "west"): wansim.LinkSpec("east", "west", 1.5e6, 0.001),
        ("west", "east"): wansim.LinkSpec("west", "east", 1.5e5, 0.001),
        ("east", "east"): wansim.LinkSpec("east", "east", 1e9, 0.0),
        ("west", "west"): wansim.LinkSpec("west", "west", 1e9, 0.0),
    }
    return wansim.Topology(
        dcs=["east", "west"], links=links,
        compute_s={"east": 0.001, "west": 0.001})


def gated_cfg(mechanisms_on):
    return config_from_dict({
        "name": "gates-on" if mechanisms_on else "gates-off",
        "seed": 9,
        "model": {"kind": "mf", "rows": 20, "cols": 20, "rank": 3},
        "data": {"kind": "mf", "density": 0.5, "noise_sigma": 0.05},
        "partition": {"nodes": 2},
        "algorithm": {"kind": "gaia", "batch_size": 10, "epochs": 20,
                      "lr": {"eta0": 0.008}, "t0": 1e-3, "ds": 1,
                      "barrier": mechanisms_on, "mirror": mechanisms_on},
        "convergence": {"mode": "none"},
        "output": {"trace": True},
    })


def main():
    off = run_experiment(gated_cfg(False), topology=lopsided_topology())
    on = run_experiment(gated_cfg(True), topology=lopsided_topology())

    print("gates off: objective %8.3f after %d epochs"
          % (off.summary["final_objective"], off.summary["epochs_done"]))
    print("gates on : objective %8.3f after %d epochs"
          % (on.summary["final_objective"], on.summary["epochs_done"]))

    decisions = Counter()
    for _now, _name, kind, _local, _known, _true, allow in on.sim.gate_trace:
        decisions[(kind, "allow" if allow else "block")] += 1
    print("\ngate decisions with mechanisms on:")
    for (kind, verdict), n in sorted(decisions.items()):
        print("  %-7s %-5s %5d" % (kind, verdict, n))
    print("\nbarrier control traffic: %d bytes (vs %d bytes of updates)"
          % (on.summary["barrier_bytes"], on.summary["update_bytes"]))


if __name__ == "__main__":
    main()
