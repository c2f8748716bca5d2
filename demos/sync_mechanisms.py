"""Why the filter needs its gates: barriers and mirror clocks under asymmetry.

The WAN here is lopsided on purpose: east->west is ten times faster than
west->east (12 against 1.2 Mb/s, in lopsided_bandwidth.csv next to this
file), so west's updates pile up behind a thin pipe. With the selective
barrier and mirror clock disabled, east happily trains on stale state and
the run falls apart. With them enabled, east blocks the moment its view of
west is too old, and the same workload converges.

Run: python3 demos/sync_mechanisms.py
"""

import os
from collections import Counter

from geolearn.harness import config_from_dict, run_experiment

HERE = os.path.dirname(os.path.abspath(__file__))


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
        "topology": {
            "bandwidth_file": os.path.join(HERE, "lopsided_bandwidth.csv"),
            "cost_file": os.path.join(HERE, "lopsided_costs.csv"),
            "latency_s": 0.001},
        "convergence": {"mode": "none"},
        "output": {"trace": True},
    })


def main():
    off = run_experiment(gated_cfg(False))
    on = run_experiment(gated_cfg(True))

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
