"""End-to-end acceptance checks.

Each test prints one PASS/FAIL verdict line for its criterion. Every
simulated run is produced by a zero-argument builder registered in _RERUNS,
so the final determinism test can replay each one from scratch and compare
the metrics CSV byte for byte.
"""

import math
import os

import numpy as np
import pytest

from geolearn import wansim
from geolearn.algos import warmup_sparsity
from geolearn.data import (MinibatchStream, gen_cluster_data,
                           partition_label_skew)
from geolearn.harness import (AlgoCfg, ConvergenceCfg, DataCfg,
                              ExperimentConfig, ModelCfg, OutputCfg,
                              PartitionCfg, ScoutCfgSection, TopoCfg,
                              metrics_csv_text, run_experiment)
from geolearn.models import (MFEntries, MFModel, SoftmaxModel, TinyMLP,
                             stat_divergence)
from geolearn.numerics import grad_check
from geolearn.rng import seed_stream
from geolearn.skewscout import GAIA_T0_GRID

# label -> (thunk returning metrics CSV text, text from the first execution)
_RERUNS = {}


def _register(label, thunk, result):
    _RERUNS[label] = (thunk, metrics_csv_text(result.rows))


def _verdict(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. dense-threshold ASP reproduces BSP bit for bit


def _c01_cfg(kind):
    algo = dict(kind="bsp") if kind == "bsp" else dict(
        kind="gaia", t0=1e-12, ds=0)
    return ExperimentConfig(
        name=f"c01-{kind}", seed=11,
        model=ModelCfg(kind="mf", rows=20, cols=20, rank=3),
        data=DataCfg(density=0.5, noise_sigma=0.05),
        partition=PartitionCfg(nodes=2, alpha=0.0),
        algorithm=AlgoCfg(batch_size=10, epochs=20, momentum=0.9,
                          lr={"eta0": 0.02}, **algo),
        convergence=ConvergenceCfg(mode="none"))


def _c01_run(kind, store=None):
    def on_nodes(nodes, sim):
        for node in nodes:
            frames = [] if store is None else store.setdefault(node.name, [])
            node.iter_hook = (
                lambda fr: lambda n, s: fr.append(n.w.copy()))(frames)
    return run_experiment(_c01_cfg(kind), on_nodes=on_nodes)


def test_01_bsp_equivalence():
    traj = {"bsp": {}, "gaia": {}}
    for kind in ("bsp", "gaia"):
        res = _c01_run(kind, traj[kind])
        _register(f"01/{kind}", (lambda k=kind: metrics_csv_text(
            _c01_run(k).rows)), res)
    names = sorted(traj["bsp"])
    assert names == sorted(traj["gaia"])
    identical = True
    for name in names:
        a, b = traj["bsp"][name], traj["gaia"][name]
        assert len(a) == len(b) == 200
        identical &= all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
    _verdict(1, identical,
             "ASP(T0=1e-12, DS=0) weight trajectory bit-identical to BSP "
             "over 200 iterations on both nodes")


# ---------------------------------------------------------------------------
# 2. 1% significance filter: most updates insignificant, large byte savings


def _c02_cfg(kind):
    algo = dict(kind="bsp") if kind == "bsp" else dict(
        kind="gaia", t0=0.01, ds=1)
    return ExperimentConfig(
        name=f"c02-{kind}", seed=5,
        model=ModelCfg(kind="mf", rows=100, cols=80, rank=5),
        data=DataCfg(density=0.25, noise_sigma=0.05),
        partition=PartitionCfg(nodes=2, alpha=0.0),
        algorithm=AlgoCfg(batch_size=50, epochs=60, momentum=0.0,
                          lr={"eta0": 0.05}, **algo),
        convergence=ConvergenceCfg(mode="none"))


def test_02_significance_savings():
    bsp = run_experiment(_c02_cfg("bsp"))
    gaia = run_experiment(_c02_cfg("gaia"))
    for kind, res in (("bsp", bsp), ("gaia", gaia)):
        _register(f"02/{kind}", (lambda k=kind: metrics_csv_text(
            run_experiment(_c02_cfg(k)).rows)), res)
    emitted = scored = 0
    for counts in (n.sig_counts for n in gaia.nodes):
        for epoch, (e, s) in counts.items():
            if epoch >= 2:
                emitted += e
                scored += s
    frac_below = 1.0 - emitted / scored
    gap = abs(gaia.summary["final_objective"] - bsp.summary["final_objective"])
    rel_gap = gap / bsp.summary["final_objective"]
    ratio = bsp.summary["update_bytes"] / gaia.summary["update_bytes"]
    ok = frac_below > 0.5 and rel_gap <= 0.02 and ratio >= 3.0
    _verdict(2, ok,
             f"sub-threshold fraction after epoch 2 = {frac_below:.3f} "
             f"(> 0.5), objective gap = {rel_gap * 100:.2f}% (<= 2%), "
             f"update-byte savings = {ratio:.2f}x (>= 3x)")


# ---------------------------------------------------------------------------
# 3. barriers + mirror clock keep an asymmetric WAN from running blind


# the sync_mechanisms demo's tables: east->west at 12 Mb/s, west->east at
# 1.2 Mb/s
_C03_DEMOS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "demos")


def _c03_cfg(mechanisms):
    return ExperimentConfig(
        name=f"c03-{'on' if mechanisms else 'off'}", seed=9,
        model=ModelCfg(kind="mf", rows=20, cols=20, rank=3),
        data=DataCfg(density=0.5, noise_sigma=0.05),
        partition=PartitionCfg(nodes=2, alpha=0.0),
        algorithm=AlgoCfg(kind="gaia", batch_size=10, epochs=20, momentum=0.9,
                          lr={"eta0": 0.008}, t0=1e-3, ds=1,
                          barrier=mechanisms, mirror=mechanisms),
        topology=TopoCfg(
            bandwidth_file=os.path.join(_C03_DEMOS, "lopsided_bandwidth.csv"),
            cost_file=os.path.join(_C03_DEMOS, "lopsided_costs.csv"),
            latency_s=0.001),
        convergence=ConvergenceCfg(mode="none"), output=OutputCfg(trace=True))


def _c03_run(mechanisms):
    return run_experiment(_c03_cfg(mechanisms))


def test_03_sync_mechanism_ablation():
    on = _c03_run(True)
    off = _c03_run(False)
    for tag, res in (("on", on), ("off", off)):
        _register(f"03/{tag}", (lambda m=(tag == "on"): metrics_csv_text(
            _c03_run(m).rows)), res)
    on_obj = on.summary["final_objective"]
    off_obj = off.summary["final_objective"]
    off_bad = off.summary["diverged"] or off_obj >= 1.10 * on_obj
    mirror_rows = [t for t in on.sim.gate_trace if t[2] == "mirror"]
    ds = 1
    gap_ok = all(t[3] - t[5] <= ds for t in mirror_rows if t[6])
    some_blocked = any(not t[6] for t in on.sim.gate_trace)
    ok = off_bad and gap_ok and some_blocked and len(mirror_rows) > 0
    _verdict(3, ok,
             f"unsynchronized objective {off_obj:.3f} vs synced {on_obj:.3f} "
             f"(>= 10% worse or diverged: {off_bad}); clock gap <= DS at all "
             f"{len(mirror_rows)} mirror gate decisions: {gap_ok}; at least "
             f"one blocked decision: {some_blocked}")


# ---------------------------------------------------------------------------
# 4. label skew hurts every communication-efficient algorithm, not BSP


_C04_ALGOS = {
    "bsp": dict(kind="bsp"),
    "fedavg": dict(kind="fedavg", iter_local=20),
    "gaia": dict(kind="gaia", t0=0.10, ds=4),
    "dgc": dict(kind="dgc", e_warm=1),
}


def _c04_cfg(algo, alpha):
    return ExperimentConfig(
        name=f"c04-{algo}-a{alpha}", seed=21,
        model=ModelCfg(kind="softmax", features=10, classes=10),
        data=DataCfg(per_class=100, spread=1.5,
                     test_per_class=40),
        partition=PartitionCfg(nodes=5, alpha=alpha),
        algorithm=AlgoCfg(batch_size=20, epochs=15, momentum=0.9,
                          lr={"eta0": 0.05}, **_C04_ALGOS[algo]),
        convergence=ConvergenceCfg(mode="none"))


def test_04_noniid_accuracy_loss():
    losses = {}
    for algo in _C04_ALGOS:
        accs = {}
        for alpha in (0.0, 1.0):
            res = run_experiment(_c04_cfg(algo, alpha))
            accs[alpha] = res.summary["final_accuracy"] * 100.0
            _register(f"04/{algo}-a{alpha}",
                      (lambda a=algo, al=alpha: metrics_csv_text(
                          run_experiment(_c04_cfg(a, al)).rows)), res)
        losses[algo] = accs[0.0] - accs[1.0]
    ok = (losses["bsp"] <= 2.0
          and all(losses[a] >= 5.0 for a in ("fedavg", "gaia", "dgc")))
    detail = ", ".join(f"{a} loss={losses[a]:.1f}pt" for a in losses)
    _verdict(4, ok, detail + " (BSP <= 2, others >= 5)")


# ---------------------------------------------------------------------------
# 5. FedAvg accuracy is nonincreasing in skew (1-point noise band)


_C05_ALPHAS = (0.2, 0.4, 0.6, 0.8, 1.0)
_C05_SEEDS = (101, 202, 303)


def _c05_cfg(alpha, seed):
    return ExperimentConfig(
        name=f"c05-a{alpha}-s{seed}", seed=seed,
        model=ModelCfg(kind="softmax", features=10, classes=10),
        data=DataCfg(per_class=100, spread=1.5,
                     test_per_class=40),
        partition=PartitionCfg(nodes=5, alpha=alpha),
        algorithm=AlgoCfg(kind="fedavg", batch_size=20, epochs=15,
                          momentum=0.9, lr={"eta0": 0.05}, iter_local=20),
        convergence=ConvergenceCfg(mode="none"))


def test_05_skew_monotonic_trend():
    medians = []
    for alpha in _C05_ALPHAS:
        accs = []
        for seed in _C05_SEEDS:
            res = run_experiment(_c05_cfg(alpha, seed))
            accs.append(res.summary["final_accuracy"] * 100.0)
            _register(f"05/a{alpha}-s{seed}",
                      (lambda a=alpha, s=seed: metrics_csv_text(
                          run_experiment(_c05_cfg(a, s)).rows)), res)
        medians.append(float(np.median(accs)))
    ok = all(medians[i + 1] <= medians[i] + 1.0
             for i in range(len(medians) - 1))
    _verdict(5, ok,
             "median accuracy over 3 seeds nonincreasing within 1pt: "
             + " -> ".join(f"{m:.1f}" for m in medians))


# ---------------------------------------------------------------------------
# 6. skew drives the first layer's minibatch means apart


def _c06_divergence(alpha, seed=11, features=8, classes=4, hidden=16,
                    per_class=200, spread=1.0, batch=50, n_batches=100):
    train = gen_cluster_data(classes, features, per_class, spread, seed)
    parts = partition_label_skew(train, 2, alpha, seed)
    model = TinyMLP([features, hidden, classes], norm="batch")
    w0 = model.init_params(seed_stream(seed, "model", "init"))
    streams = [
        MinibatchStream(parts[i], batch,
                        seed_stream(seed, "node", str(i), "batches"))
        for i in range(2)
    ]
    vals = []
    for _ in range(n_batches):
        mus = []
        for stream in streams:
            z = model.first_layer_preact(w0, train.X[stream.next_batch()])
            mus.append(z.mean(axis=0))
        d = stat_divergence(mus[0], mus[1])
        if d is not None:
            vals.append(d)
    return float(np.mean(vals))


def test_06_batchnorm_divergence():
    d_iid = _c06_divergence(0.0)
    d_skew = _c06_divergence(1.0)
    ratio = d_skew / d_iid
    _verdict(6, ratio >= 2.0,
             f"first-layer minibatch-mean divergence over 100 batches: "
             f"skew {d_skew:.3f} vs IID {d_iid:.3f} = {ratio:.2f}x (>= 2x)")


# ---------------------------------------------------------------------------
# 7. group norm shrugs off the skew that wrecks batch norm


def _c07_cfg(norm, alpha):
    return ExperimentConfig(
        name=f"c07-{norm}-a{alpha}", seed=7,
        model=ModelCfg(kind="mlp", features=10, classes=10, hidden=(16,),
                       norm=norm, group_size=4),
        data=DataCfg(per_class=100, spread=1.0,
                     test_per_class=40),
        partition=PartitionCfg(nodes=5, alpha=alpha),
        algorithm=AlgoCfg(kind="bsp", batch_size=20, epochs=20, momentum=0.9,
                          lr={"eta0": 0.02}),
        convergence=ConvergenceCfg(mode="none"))


def test_07_groupnorm_recovery():
    acc = {}
    for norm in ("group", "batch"):
        for alpha in (0.0, 1.0):
            res = run_experiment(_c07_cfg(norm, alpha))
            acc[(norm, alpha)] = res.summary["final_accuracy"] * 100.0
            _register(f"07/{norm}-a{alpha}",
                      (lambda n=norm, a=alpha: metrics_csv_text(
                          run_experiment(_c07_cfg(n, a)).rows)), res)
    gn_loss = acc[("group", 0.0)] - acc[("group", 1.0)]
    bn_loss = acc[("batch", 0.0)] - acc[("batch", 1.0)]
    ok = abs(gn_loss) <= 2.0 and bn_loss > gn_loss
    _verdict(7, ok,
             f"group norm skew loss {gn_loss:+.1f}pt (within 2), batch norm "
             f"skew loss {bn_loss:+.1f}pt (strictly larger)")


# ---------------------------------------------------------------------------
# 8. DGC emits exactly ceil((1-s)*M) coordinates and clears u,v there


def _c08_cfg(e_warm, epochs):
    return ExperimentConfig(
        name=f"c08-ew{e_warm}", seed=17,
        model=ModelCfg(kind="softmax", features=6, classes=3),
        data=DataCfg(per_class=40, spread=1.0,
                     test_per_class=20),
        partition=PartitionCfg(nodes=2, alpha=0.0),
        algorithm=AlgoCfg(kind="dgc", batch_size=10, epochs=epochs,
                          momentum=0.9, lr={"eta0": 0.05}, e_warm=e_warm),
        convergence=ConvergenceCfg(mode="none"))


def _c08_run(e_warm, epochs, problems=None, seen=None):
    def on_nodes(nodes, sim):
        for node in nodes:
            def hook(n, s, ew=e_warm):
                step = n.iters_done - 1
                epoch_1idx = step // n.batches_per_epoch + 1
                sparsity = warmup_sparsity(epoch_1idx, ew)
                want = math.ceil((1.0 - sparsity / 100.0) * n.v.size)
                idx, _ = n.last_emitted
                if problems is not None:
                    if idx.size != want:
                        problems.append(
                            f"{n.name} step {step}: emitted {idx.size}, "
                            f"expected {want}")
                    if not (np.all(n.v[idx] == 0.0)
                            and np.all(n.u[idx] == 0.0)):
                        problems.append(
                            f"{n.name} step {step}: u/v not cleared")
                if seen is not None:
                    seen.setdefault(epoch_1idx, set()).add(idx.size)
            node.iter_hook = hook
    return run_experiment(_c08_cfg(e_warm, epochs), on_nodes=on_nodes)


def test_08_dgc_mechanics():
    # M = 6*3 + 3 = 21 coordinates; the five warm-up rungs give counts
    # ceil(25% * 21) = 6, then 2, 1, 1, 1
    problems, details = [], []
    for e_warm, epochs in ((1, 7), (4, 18)):
        seen = {}
        res = _c08_run(e_warm, epochs, problems, seen)
        _register(f"08/ew{e_warm}",
                  (lambda ew=e_warm, ep=epochs: metrics_csv_text(
                      _c08_run(ew, ep).rows)), res)
        ladder = [sorted(seen[ep]) for ep in sorted(seen)]
        assert all(len(s) == 1 for s in ladder), "count varied inside an epoch"
        counts = [s[0] for s in ladder]
        expect = [
            math.ceil((1.0 - warmup_sparsity(ep, e_warm) / 100.0) * 21)
            for ep in sorted(seen)
        ]
        if counts != expect:
            problems.append(f"e_warm={e_warm}: ladder {counts} != {expect}")
        details.append(f"e_warm={e_warm} per-epoch counts {counts}")
    _verdict(8, not problems,
             "; ".join(details) + (f"; problems: {problems}" if problems
                                   else " (all flushes exact, u/v cleared)"))


# ---------------------------------------------------------------------------
# 9. FedAvg reduces to the exact arithmetic mean, round after round


def _c09_cfg():
    return ExperimentConfig(
        name="c09", seed=13,
        model=ModelCfg(kind="softmax", features=6, classes=3),
        data=DataCfg(per_class=50, spread=1.0,
                     test_per_class=20),
        partition=PartitionCfg(nodes=3, alpha=0.0),
        algorithm=AlgoCfg(kind="fedavg", batch_size=10, epochs=50,
                          momentum=0.9, lr={"eta0": 0.05}, iter_local=5),
        convergence=ConvergenceCfg(mode="none"))


def test_09_fedavg_exactness():
    inputs = []               # each round's input models, in member order
    means = []                # each round's mean

    def collect_rounds(nodes, sim):
        trigger = nodes[0]
        gather, hook = trigger._gather, trigger.round_hook

        def gathered(rnd, members):
            models = gather(rnd, members)
            if models is not None:
                inputs.append([w.copy() for w in models])
            return models

        def logged(node, sim_):
            means.append(node.w.copy())
            hook(node, sim_)

        trigger._gather = gathered
        trigger.round_hook = logged

    res = run_experiment(_c09_cfg(), on_nodes=collect_rounds)
    _register("09/run", (lambda: metrics_csv_text(
        run_experiment(_c09_cfg()).rows)), res)
    assert len(inputs) == len(means) == 50
    worst = 0.0
    for models, mean in zip(inputs, means):
        stack = np.stack(models)
        expect = np.mean(stack, axis=0)
        scale = max(float(np.max(np.abs(expect))), 1e-30)
        worst = max(worst, float(np.max(np.abs(mean - expect))) / scale)
    _verdict(9, worst <= 1e-12,
             f"50 rounds, worst relative deviation from the arithmetic "
             f"mean = {worst:.2e} (<= 1e-12)")


# ---------------------------------------------------------------------------
# 10. the cost ledger reproduces a hand-computed dollar total


def test_10_cost_ledger():
    dcs = ["virginia", "saopaulo"]
    _, bandwidth = wansim.default_bandwidth()
    latency = TopoCfg().latency_s
    sim = wansim.Simulator(dcs, {(a, b): (bandwidth[a, b], latency)
                                 for a in dcs for b in dcs if a != b})
    sim.send(wansim.Message(
        kind=wansim.KIND_UPDATE, src="virginia", dst="saopaulo",
        byte_split={wansim.KIND_UPDATE: 5_000_000_000}, payload=None,
        origin="virginia"))
    sim.send(wansim.Message(
        kind=wansim.KIND_UPDATE, src="saopaulo", dst="virginia",
        byte_split={wansim.KIND_UPDATE: 2_000_000_000}, payload=None,
        origin="saopaulo"))
    sim.run()
    rates = wansim.default_costs()
    total = wansim.account_cost(sim.ledger, rates,
                                {"virginia": 7200.0, "saopaulo": 5400.0})

    # hand total, following the ledger's documented summation order:
    # machine time in the order given, then egress by send order, then
    # ingress by delivery-completion order (the 2 GB reply lands first)
    hand = 0.0
    hand += 7200.0 * (0.86 / 3600.0)     # virginia machine
    hand += 5400.0 * (1.37 / 3600.0)     # sao paulo machine
    hand += 5.0 * 0.02                   # virginia egress, 5 GB at $0.02/GB
    hand += 2.0 * 0.16                   # sao paulo egress, 2 GB at $0.16/GB
    hand += 2.0 * 0.01                   # virginia ingress
    hand += 5.0 * 0.01                   # sao paulo ingress
    ok = total == hand and total == pytest.approx(4.265)
    _verdict(10, ok,
             f"ledger total ${total:.6f} == hand-computed ${hand:.6f} "
             f"(exact float equality)")


# ---------------------------------------------------------------------------
# 11. the scout settles on a looser threshold when skew is mild


def _c11_scout_cfg(alpha):
    return ExperimentConfig(
        name=f"c11-scout-a{alpha}", seed=7,
        model=ModelCfg(kind="softmax", features=10, classes=10),
        data=DataCfg(per_class=100, spread=1.0,
                     test_per_class=40),
        partition=PartitionCfg(nodes=5, alpha=alpha),
        algorithm=AlgoCfg(kind="gaia", batch_size=20, epochs=15, momentum=0.9,
                          lr={"eta0": 0.05}, t0=GAIA_T0_GRID[0], ds=1),
        scout=ScoutCfgSection(enabled=True, mtp=0, tuner="hill", start_idx=0),
        convergence=ConvergenceCfg(mode="none"))


def _c11_bsp_cfg():
    return ExperimentConfig(
        name="c11-bsp", seed=7,
        model=ModelCfg(kind="softmax", features=10, classes=10),
        data=DataCfg(per_class=100, spread=1.0,
                     test_per_class=40),
        partition=PartitionCfg(nodes=5, alpha=0.2),
        algorithm=AlgoCfg(kind="bsp", batch_size=20, epochs=15, momentum=0.9,
                          lr={"eta0": 0.05}),
        convergence=ConvergenceCfg(mode="none"))


def test_11_scout_adaptation():
    mild = run_experiment(_c11_scout_cfg(0.2))
    harsh = run_experiment(_c11_scout_cfg(1.0))
    bsp = run_experiment(_c11_bsp_cfg())
    _register("11/scout-a0.2", (lambda: metrics_csv_text(
        run_experiment(_c11_scout_cfg(0.2)).rows)), mild)
    _register("11/scout-a1.0", (lambda: metrics_csv_text(
        run_experiment(_c11_scout_cfg(1.0)).rows)), harsh)
    _register("11/bsp", (lambda: metrics_csv_text(
        run_experiment(_c11_bsp_cfg()).rows)), bsp)

    idx_mild = GAIA_T0_GRID.index(mild.summary["final_theta"])
    idx_harsh = GAIA_T0_GRID.index(harsh.summary["final_theta"])
    ratio = bsp.summary["total_bytes"] / mild.summary["total_bytes"]
    gap = abs(mild.summary["final_accuracy"]
              - bsp.summary["final_accuracy"]) * 100.0
    s = mild.summary
    kinds_sum = (s["update_bytes"] + s["barrier_bytes"] + s["clock_bytes"]
                 + s["travel_bytes"])
    cm = wansim.dense_update_bytes(s["model_coords"])
    decomposed = (s["total_bytes"] == kinds_sum
                  and s["travel_bytes"] == s["travels"] * cm)
    ok = idx_mild > idx_harsh and ratio >= 3.0 and gap <= 1.0 and decomposed
    _verdict(11, ok,
             f"final grid index {idx_mild} (alpha=0.2) > {idx_harsh} "
             f"(alpha=1.0); bytes vs BSP {ratio:.2f}x (>= 3x); accuracy gap "
             f"{gap:.2f}pt (<= 1); byte decomposition exact: {decomposed}")


# ---------------------------------------------------------------------------
# 12. every hand-written gradient survives central differences


def test_12_gradient_integrity():
    # Seeds where no coordinate has an exactly-zero gradient hit by central-
    # difference roundoff: under batch norm a first-layer bias shift is
    # cancelled by the batch mean, so its true gradient is 0.0; whenever the
    # two probe evaluations differ by one ulp the numeric side reads ~1e-11,
    # which the 1e-10 denominator floor turns into a spurious ~0.1 "error".
    worst = {}
    for s in range(10):
        seed = 100 + s
        rng = seed_stream(seed, "gradcheck")

        entries_rng = seed_stream(seed, "gradcheck", "mf")
        mf = MFModel(5, 4, 2, MFEntries(
            row=entries_rng.integers(0, 5, size=12),
            col=entries_rng.integers(0, 4, size=12),
            val=entries_rng.normal(size=12)), reg=0.1)
        batch = np.arange(12, dtype=np.intp)
        worst["mf"] = max(worst.get("mf", 0.0),
                          grad_check(mf, mf.init_params(rng), batch))

        X = rng.normal(size=(8, 5))
        y = rng.integers(0, 3, size=8)
        soft = SoftmaxModel(5, 3)
        worst["softmax"] = max(worst.get("softmax", 0.0),
                               grad_check(soft, soft.init_params(rng), (X, y)))

        for norm in ("batch", "group"):
            mlp = TinyMLP([5, 6, 3], norm=norm, group_size=2)
            worst[norm] = max(worst.get(norm, 0.0),
                              grad_check(mlp, mlp.init_params(rng), (X, y)))
    ok = all(v < 1e-4 for v in worst.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _verdict(12, ok, f"max relative gradient error over 10 seeds: {detail}")


# ---------------------------------------------------------------------------
# 13. every run above replays byte-identically


def test_13_determinism():
    expected = {"01", "02", "03", "04", "05", "07", "08", "09", "11"}
    covered = {label.split("/")[0] for label in _RERUNS}
    assert covered == expected, f"missing reruns for {expected - covered}"
    mismatched = [
        label for label, (thunk, first) in _RERUNS.items() if thunk() != first
    ]
    _verdict(13, not mismatched,
             f"{len(_RERUNS)} runs replayed with byte-identical metrics CSVs"
             + (f"; mismatches: {mismatched}" if mismatched else ""))
