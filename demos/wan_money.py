"""Following the dollars through the WAN simulator's ledger.

The packaged tables price two regions the way public clouds do: an hourly
machine rate, an egress rate per GB sent, an ingress rate per GB received.
This walks one exchange by hand - a 5 GB push south, a 2 GB reply north,
two machines burning time - and shows the ledger agreeing with the
arithmetic to the last digit.

Run: python3 demos/wan_money.py
"""

from geolearn import wansim
from geolearn.harness import TopoCfg


def main():
    costs = wansim.default_costs()
    print("region      machine $/hr   send $/GB   recv $/GB")
    for name, r in costs.items():
        print("%-12s %10.2f %11.2f %11.2f"
              % (name, r.machine_usd_per_hr, r.send_usd_per_gb,
                 r.recv_usd_per_gb))

    # the packaged bandwidth table and a run's default latency
    dcs = ["virginia", "saopaulo"]
    _, bandwidth = wansim.default_bandwidth()
    latency = TopoCfg().latency_s
    sim = wansim.Simulator(dcs, {(a, b): (bandwidth[a, b], latency)
                                 for a in dcs for b in dcs if a != b})
    link = sim.channels["virginia", "saopaulo"]
    print("\nvirginia->saopaulo: %.1f Mb/s, %.0f ms latency"
          % (link.bandwidth / 125_000.0, 1000 * link.latency))

    sim.send(wansim.Message(
        kind=wansim.KIND_UPDATE, src="virginia", dst="saopaulo",
        byte_split={wansim.KIND_UPDATE: int(5 * wansim.GB)}))
    sim.send(wansim.Message(
        kind=wansim.KIND_UPDATE, src="saopaulo", dst="virginia",
        byte_split={wansim.KIND_UPDATE: int(2 * wansim.GB)}))
    sim.run()
    machine_seconds = {"virginia": 7200.0,    # 2 machine-hours
                       "saopaulo": 5400.0}    # 1.5 machine-hours

    va, sp = costs["virginia"], costs["saopaulo"]
    hand = (7200.0 * va.machine_usd_per_hr / 3600.0
            + 5400.0 * sp.machine_usd_per_hr / 3600.0
            + 5.0 * va.send_usd_per_gb + 2.0 * sp.send_usd_per_gb
            + 2.0 * va.recv_usd_per_gb + 5.0 * sp.recv_usd_per_gb)
    total = wansim.account_cost(sim.ledger, costs, machine_seconds)

    print("\nby hand:")
    print("  machine  2.0 h x $%.2f + 1.5 h x $%.2f = $%.4f"
          % (va.machine_usd_per_hr, sp.machine_usd_per_hr,
             2.0 * va.machine_usd_per_hr + 1.5 * sp.machine_usd_per_hr))
    print("  egress   5 GB x $%.2f + 2 GB x $%.2f = $%.4f"
          % (va.send_usd_per_gb, sp.send_usd_per_gb,
             5.0 * va.send_usd_per_gb + 2.0 * sp.send_usd_per_gb))
    print("  ingress  2 GB x $%.2f + 5 GB x $%.2f = $%.4f"
          % (va.recv_usd_per_gb, sp.recv_usd_per_gb,
             2.0 * va.recv_usd_per_gb + 5.0 * sp.recv_usd_per_gb))
    print("  total    $%.4f" % hand)
    print("ledger:    $%.4f   (exact match: %s)"
          % (total, total == hand))
    print("delivered everything it sent: %s" % sim.ledger.conservation_ok())


if __name__ == "__main__":
    main()
