"""Deterministic discrete-event simulator for traffic between data centers.

Links are single-server queues: a message offered to a busy link waits, a
control-class message (barriers, clocks) is always dequeued before any
queued data-class message, and nothing preempts a transmission already in
flight. Delivery time for a message that starts service at s is
s + bytes/bandwidth + latency. A broadcast is offered once, with the hops
Simulator.hops builds once per source, and each link delivers to its node.

Determinism: the event queue is a heap keyed by (time, insertion sequence),
so ties resolve in insertion order and identical runs replay identically.
A message that starts service reserves two sequence numbers: one for the
link becoming free at the end of its transmission, the next for its
delivery. The delivery is always scheduled; the free event is scheduled,
under its reserved key, only when a message waits behind this one (queued
at service start, or offered later while the link is still busy). Without
a waiting message the free event would find an empty queue, so it is
skipped, and the next send starts service at once. Every scheduled event
keeps the key it would have had if all free events were scheduled, so
events are processed in the same order either way.

Cost accounting: machine time is billed per data center at an hourly rate;
traffic is billed per GB (1 GB = 1e9 bytes) at the sending region's egress
rate plus the receiving region's ingress rate. The ledger holds what that
needs and no more: each link's bytes sent and bytes delivered (one add per
copy at each end), the links in first-send and first-delivery order (the
order account_cost sums in), and the run's bytes sent by kind (booked once
per send, for all its hops). Bytes by kind per link are not kept.
"""

import csv
import functools
import heapq
import math
from collections import deque
from dataclasses import dataclass, field, replace
from importlib import resources
from types import MappingProxyType

# wire-format byte accounting (documented constants, not tunables)
SPARSE_ENTRY_BYTES = 12      # 4-byte index + 8-byte value
DENSE_VALUE_BYTES = 8
BARRIER_HEADER_BYTES = 16
BARRIER_INDEX_BYTES = 4
CLOCK_BYTES = 24

CONTROL, DATA = "control", "data"
GB = 1e9
MBPS = 125_000.0             # bytes/second in one Mb/s, the bandwidth CSV unit
COMPUTE_S = 0.001            # a DC's default seconds per minibatch

KIND_UPDATE = "update"
KIND_BARRIER = "barrier"
KIND_CLOCK = "clock"
KIND_TRAVEL = "travel"
BYTE_KINDS = (KIND_UPDATE, KIND_BARRIER, KIND_CLOCK, KIND_TRAVEL)

_PRIORITY = {KIND_BARRIER: CONTROL, KIND_CLOCK: CONTROL,
             KIND_UPDATE: DATA, KIND_TRAVEL: DATA}


def sparse_update_bytes(n_entries):
    return SPARSE_ENTRY_BYTES * n_entries


def dense_update_bytes(n_coords):
    return DENSE_VALUE_BYTES * n_coords


def barrier_bytes(n_indexes):
    return BARRIER_HEADER_BYTES + BARRIER_INDEX_BYTES * n_indexes


def split_nbytes(byte_split):
    """Total bytes of a byte split, after checking every kind in it."""
    for kind in byte_split:
        if kind not in BYTE_KINDS:
            raise ValueError(f"unknown byte kind {kind!r}")
    return sum(byte_split.values())


@dataclass(slots=True)
class Message:
    """One message on one link, or a broadcast (dst None) on each hop it is
    sent with (see Simulator.send); a broadcast's receivers share it.

    byte_split is fixed once the message is built: nbytes, its total, is
    computed at construction (a forwarded copy passes it, skipping the check).
    """

    kind: str                 # primary kind, decides the priority class
    src: str
    dst: str
    byte_split: dict          # kind -> bytes, covers piggybacked payloads
    payload: object = None    # the kind's one fixed record (algos._NodeBase)
    origin: str = None        # original producer (survives hub forwarding)
    forward: bool = False     # receiver should re-broadcast within its group
    nbytes: int = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _PRIORITY:
            raise ValueError(f"unknown message kind {self.kind!r}")
        if self.origin is None:
            self.origin = self.src
        if self.nbytes is None:
            self.nbytes = split_nbytes(self.byte_split)


@dataclass
class LinkSpec:
    src: str
    dst: str
    bandwidth: float          # bytes / second
    latency: float            # seconds

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive on {self.src}->{self.dst}")
        if self.latency < 0:
            raise ValueError(f"negative latency on {self.src}->{self.dst}")


class _Channel:
    """Runtime queue state of one directed link.

    busy_until and free_seq form the key of the link's free event (see the
    module docstring); free_scheduled says whether that event is on the
    heap. in_flight holds the messages whose delivery is scheduled, oldest
    first: deliveries on one link land in service order, because latency is
    constant, busy_until never decreases and ties resolve by sequence.
    sent_bytes and delivered_bytes are this link's byte totals, None until
    its first send and first delivery, when the ledger lists the link.
    node is the receiver, found at the first delivery; while its DC has
    none, what arrives is metered, then dropped.
    """

    __slots__ = ("key", "node", "bandwidth", "latency", "control", "data",
                 "in_flight", "busy_until", "free_seq", "free_scheduled",
                 "sent_bytes", "delivered_bytes")

    def __init__(self, spec):
        self.key = (spec.src, spec.dst)
        self.node = None
        self.bandwidth = spec.bandwidth
        self.latency = spec.latency
        self.control = deque()
        self.data = deque()
        self.in_flight = deque()
        self.busy_until = -math.inf       # never busy yet
        self.free_seq = -1
        self.free_scheduled = False
        self.sent_bytes = None
        self.delivered_bytes = None

    def pop_next(self):
        if self.control:
            return self.control.popleft()
        return self.data.popleft()


@dataclass
class Topology:
    """Named data centers and directed link specs; prices live only in the
    cost table (see account_cost)."""

    dcs: list
    links: dict                      # (src, dst) -> LinkSpec

    def link(self, src, dst):
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link configured from {src} to {dst}")


class CostLedger:
    """Byte bookkeeping for one simulation: the links (channels, which carry
    their byte totals) in first-send and in first-delivery order, and the
    bytes sent by kind."""

    def __init__(self):
        self.sent = []          # channels, in first-send order
        self.delivered = []     # channels, in first-delivery order
        self.kind_bytes = dict.fromkeys(BYTE_KINDS, 0)

    def sent_bytes(self, kind=None):
        return self.kind_bytes[kind] if kind else sum(self.kind_bytes.values())

    def conservation_ok(self):
        """True when every link has delivered exactly what it sent and holds
        no message, queued or in flight."""
        return all(ch.delivered_bytes == ch.sent_bytes
                   and not (ch.in_flight or ch.control or ch.data)
                   for ch in self.sent)


@dataclass(frozen=True)
class CostRates:
    region: str
    machine_usd_per_hr: float
    send_usd_per_gb: float
    recv_usd_per_gb: float


def account_cost(ledger, rates, machine_seconds):
    """Dollar total: the {dc: seconds} machine time plus the ledger's per-GB
    egress and ingress.

    Summation order is fixed (machine time in machine_seconds' order, then
    egress by link in first-send order, then ingress by link in
    first-delivery order) so the result is reproducible to the last bit.
    """
    total = 0.0
    for dc, seconds in machine_seconds.items():
        total += seconds * (rates[dc].machine_usd_per_hr / 3600.0)
    for channel in ledger.sent:
        gb = channel.sent_bytes / GB
        total += gb * rates[channel.key[0]].send_usd_per_gb
    for channel in ledger.delivered:
        gb = channel.delivered_bytes / GB
        total += gb * rates[channel.key[1]].recv_usd_per_gb
    return total


# ---------------------------------------------------------------------------
# the simulator


_DELIVER, _FREE, _WAKE = "deliver", "free", "wake"


class Simulator:
    """Event loop owning simulated time, channels, and the cost ledger; a
    broadcast is one send with its hops().

    Routing: groups partition the DCs (by default one group of every DC),
    and hubs maps a (from_group, to_group) index pair to the member of
    to_group that receives on behalf of its group. The config check
    (harness) guarantees each DC one group and each pair a hub inside its
    to_group. A broadcast reaches the origin's group directly and each
    other group through its hub, flagged to forward, which re-sends to its
    group but itself and the origin: every DC receives exactly one copy.

    trace turns on the gate trace: every gate check of a Gaia-family node
    appends a row (time, node, gate, local clock, known value, true minimum
    peer clock, allow) to gate_trace. It changes no decision: the nodes
    check the same gates at the same times either way. Without it
    gate_trace stays empty and no node reads another node's state.
    """

    def __init__(self, topology, groups=(), hubs=None, trace=False):
        self.topology = topology
        self.groups = groups or (topology.dcs,)
        self._group_of = {dc: gi for gi, group in enumerate(self.groups)
                          for dc in group}
        self.hubs = hubs or {}
        self.trace = trace
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self._event_seq = -1      # sequence of the event being processed
        self.nodes = {}
        self.channels = {
            key: _Channel(spec) for key, spec in topology.links.items()
        }
        self._hops = {}           # (src, origin) -> [(channel, needs_forward)]
        self.ledger = CostLedger()
        self.gate_trace = []

    def register(self, name, node):
        self.nodes[name] = node

    def wake_at(self, time, name):
        if time < self.now:
            raise ValueError(f"cannot schedule into the past ({time} < {self.now})")
        heapq.heappush(self._heap, (time, self._seq, _WAKE, name))
        self._seq += 1

    def _channel(self, src, dst):
        self.topology.link(src, dst)          # a missing link raises here
        return self.channels[(src, dst)]

    def hops(self, src, origin):
        """(channel, needs_forward) of each copy src sends of origin's
        broadcast, built once per pair: src's group but src and origin,
        then, from the origin, the hub of every other group."""
        key = (src, origin)
        hops = self._hops.get(key)
        if hops is None:
            gi = self._group_of[src]
            pairs = [(d, False) for d in self.groups[gi]
                     if d != src and d != origin]
            if src == origin:
                pairs += [(self.hubs[gi, gj], True)
                          for gj in range(len(self.groups)) if gj != gi]
            hops = self._hops[key] = [(self._channel(src, d), fw)
                                      for d, fw in pairs]
        return hops

    def send(self, msg, hops=None):
        """Offer msg to its link, or to each of hops (as from hops()) in the
        same loop; service starts as soon as possible. The hops share msg,
        and those whose needs_forward is not msg.forward share one copy."""
        if hops is None:
            hops = ((self._channel(msg.src, msg.dst), msg.forward),)
        ledger = self.ledger
        kind_bytes, n = ledger.kind_bytes, len(hops)
        for kind, nbytes in msg.byte_split.items():
            kind_bytes[kind] += nbytes * n
        nbytes = msg.nbytes
        flag, flipped = msg.forward, None
        control = _PRIORITY[msg.kind] == CONTROL
        now, event_seq, seq = self.now, self._event_seq, self._seq
        heap, push = self._heap, heapq.heappush
        for channel, forward in hops:
            copy = msg
            if forward != flag:     # a hub forward: one copy, flag flipped
                if flipped is None:
                    flipped = replace(msg, forward=forward)
                copy = flipped
            sent = channel.sent_bytes
            if sent is None:
                ledger.sent.append(channel)
                sent = 0
            channel.sent_bytes = sent + nbytes
            # busy while the link's free event still lies ahead of this one
            busy_until = channel.busy_until
            if busy_until < now or (busy_until == now and
                                    channel.free_seq < event_seq):
                # an idle link has nothing queued, so service starts now
                # and no free event follows it (as in _start_service)
                busy_until = now + nbytes / channel.bandwidth
                channel.busy_until = busy_until
                channel.free_seq = seq
                channel.in_flight.append(copy)
                push(heap, (busy_until + channel.latency, seq + 1,
                            _DELIVER, channel))
                seq += 2
                continue
            (channel.control if control else channel.data).append(copy)
            if not channel.free_scheduled:
                channel.free_scheduled = True
                push(heap, (busy_until, channel.free_seq, _FREE, channel))
        self._seq = seq

    def _start_service(self, channel, msg):
        # the link's free event: msg, the next one queued, starts now (send
        # starts service on an idle link itself)
        busy_until = self.now + msg.nbytes / channel.bandwidth
        seq = self._seq
        self._seq = seq + 2
        channel.busy_until = busy_until
        channel.free_seq = seq
        channel.in_flight.append(msg)
        heapq.heappush(self._heap, (busy_until + channel.latency, seq + 1,
                                    _DELIVER, channel))
        channel.free_scheduled = bool(channel.control or channel.data)
        if channel.free_scheduled:
            heapq.heappush(self._heap, (busy_until, seq, _FREE, channel))

    def run(self):
        """Process events in (time, sequence) order until the queue drains;
        returns the number processed.

        Free events that were never scheduled (no message waited for the
        link) are not events and are not counted.
        """
        heap = self._heap
        nodes = self.nodes
        delivered_links = self.ledger.delivered
        pop = heapq.heappop
        count = 0
        while heap:
            time, seq, kind, data = pop(heap)
            self.now = time
            self._event_seq = seq
            count += 1
            if kind is _DELIVER:
                msg = data.in_flight.popleft()
                delivered = data.delivered_bytes
                if delivered is None:
                    delivered_links.append(data)
                    delivered = 0
                data.delivered_bytes = delivered + msg.nbytes
                node = data.node
                if node is None:
                    node = data.node = nodes.get(data.key[1])
                if node is not None:
                    node.on_message(self, msg)
            elif kind is _WAKE:
                node = nodes.get(data)
                if node is not None:
                    node.on_wake(self)
            else:
                self._start_service(data, data.pop_next())
        return count


# ---------------------------------------------------------------------------
# external file formats


def load_bandwidth_csv(fh):
    """Read a bandwidth matrix CSV (row/col headers are DC names, cells Mb/s)
    from the open text file fh.

    Returns (dc_names, matrix) with matrix[i][j] in bytes/second from DC i to
    DC j. Empty or zero diagonal cells are ignored.
    """
    rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("bandwidth table is empty")
    header = [h.strip() for h in rows[0][1:]]
    names, matrix = [], {}
    for row in rows[1:]:
        if not row or not row[0].strip():
            continue
        src = row[0].strip()
        names.append(src)
        for dst, cell in zip(header, row[1:]):
            cell = cell.strip()
            if src == dst or not cell:
                continue
            mbps = float(cell)
            if mbps <= 0:
                raise ValueError(f"non-positive bandwidth {src}->{dst}")
            matrix[(src, dst)] = mbps * MBPS
    if names != header:
        raise ValueError("bandwidth matrix row and column headers differ")
    return names, matrix


def load_cost_csv(fh):
    """Read per-region cost rates from an open CSV file: {region: CostRates}."""
    reader = csv.DictReader(fh)
    needed = {"region", "machine_rate_usd_per_hr", "send_usd_per_gb", "recv_usd_per_gb"}
    if set(reader.fieldnames or ()) != needed:
        raise ValueError(f"cost model header must be {sorted(needed)}")
    rates = {}
    for row in reader:
        rates[row["region"]] = CostRates(
            region=row["region"],
            machine_usd_per_hr=float(row["machine_rate_usd_per_hr"]),
            send_usd_per_gb=float(row["send_usd_per_gb"]),
            recv_usd_per_gb=float(row["recv_usd_per_gb"]),
        )
    return rates


@functools.cache
def default_bandwidth():
    """(names tuple, read-only matrix) of the packaged table, parsed once."""
    with resources.files("geolearn").joinpath("data_files/wan_bandwidth.csv").open() as fh:
        names, matrix = load_bandwidth_csv(fh)
    return tuple(names), MappingProxyType(matrix)


@functools.cache
def default_costs():
    """The packaged cost table, parsed once: read-only {region: CostRates}."""
    with resources.files("geolearn").joinpath("data_files/region_costs.csv").open() as fh:
        return MappingProxyType(load_cost_csv(fh))


def build_topology(dc_names, bandwidth=None, latency_s=0.05):
    """Assemble a Topology for the named DCs from a bandwidth matrix.

    Links join each ordered pair of distinct DCs; no node sends to its own.
    bandwidth defaults to the packaged table. latency_s is one latency for
    every WAN link. Prices stay in the cost table.
    """
    if bandwidth is None:
        names, matrix = default_bandwidth()
    else:
        names, matrix = bandwidth
    missing = [dc for dc in dc_names if dc not in names]
    if missing:
        raise ValueError(f"data centers missing from bandwidth matrix: {missing}")
    links = {}
    for src in dc_names:
        for dst in dc_names:
            if src == dst:
                continue
            links[(src, dst)] = LinkSpec(
                src=src, dst=dst,
                bandwidth=matrix[(src, dst)],
                latency=latency_s,
            )
    return Topology(dcs=list(dc_names), links=links)
