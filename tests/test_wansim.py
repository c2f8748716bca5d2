import heapq
import io
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from geolearn.wansim import (_PRIORITY, BYTE_KINDS, CLOCK_BYTES, CONTROL,
                             DATA, CostRates, GB,
                             KIND_BARRIER, KIND_CLOCK, KIND_TRAVEL,
                             KIND_UPDATE, LinkSpec, Message,
                             Simulator, Topology, account_cost,
                             barrier_bytes, build_topology,
                             default_bandwidth, default_costs,
                             dense_update_bytes, load_bandwidth_csv,
                             load_cost_csv, sparse_update_bytes,
                             split_nbytes)


# ---------------------------------------------------------------------------
# wire-format byte accounting


def test_byte_constants_oracle():
    # sparse entry carries a 4-byte index plus an 8-byte value
    assert sparse_update_bytes(3) == 36
    assert sparse_update_bytes(0) == 0
    assert dense_update_bytes(5) == 40
    # barrier: 16-byte header plus 4 bytes per advertised index
    assert barrier_bytes(0) == 16
    assert barrier_bytes(4) == 32
    assert CLOCK_BYTES == 24


def test_message_defaults_and_validation():
    msg = Message(kind=KIND_UPDATE, src="a", dst="b",
                  byte_split={KIND_UPDATE: 80, KIND_BARRIER: 20})
    assert msg.origin == "a"
    assert msg.nbytes == 100
    # the kind decides the priority class: barriers and clocks are control
    assert {kind: _PRIORITY[kind] for kind in BYTE_KINDS} == {
        KIND_UPDATE: DATA, KIND_BARRIER: CONTROL, KIND_CLOCK: CONTROL,
        KIND_TRAVEL: DATA}
    with pytest.raises(ValueError):
        Message(kind=KIND_UPDATE, src="a", dst="b", byte_split={"gossip": 8})


def test_split_nbytes_checks_once_for_every_copy():
    split = {KIND_UPDATE: 80, KIND_CLOCK: 24}
    assert split_nbytes(split) == 104
    with pytest.raises(ValueError, match="unknown byte kind 'gossip'"):
        split_nbytes({"gossip": 8})
    # a copy built with the checked total carries it as is
    copy = Message(KIND_UPDATE, "a", "b", split, None, "a", False,
                   split_nbytes(split))
    assert copy.nbytes == 104
    assert copy == Message(kind=KIND_UPDATE, src="a", dst="b",
                           byte_split=split)
    with pytest.raises(ValueError, match="unknown message kind"):
        Message("gossip", "a", "b", split, nbytes=104)


def test_linkspec_validation():
    with pytest.raises(ValueError):
        LinkSpec(src="a", dst="b", bandwidth=0.0, latency=0.1)
    with pytest.raises(ValueError):
        LinkSpec(src="a", dst="b", bandwidth=1.0, latency=-0.1)


# ---------------------------------------------------------------------------
# the event loop


class _Recorder:
    def __init__(self):
        self.inbox = []
        self.wakes = []

    def on_message(self, sim, msg):
        self.inbox.append((sim.now, msg.payload))

    def on_wake(self, sim):
        self.wakes.append(sim.now)


def _one_link_sim(bandwidth=100.0, latency=0.5):
    topo = Topology(dcs=["a", "b"],
                    links={("a", "b"): LinkSpec("a", "b", bandwidth, latency)})
    sim = Simulator(topo)
    sink = _Recorder()
    sim.register("b", sink)
    return sim, sink


def _update(payload, nbytes):
    return Message(kind=KIND_UPDATE, src="a", dst="b",
                   byte_split={KIND_UPDATE: nbytes}, payload=payload)


def test_delivery_time_oracle():
    # 200 B at 100 B/s: service 0..2, plus 0.5 s latency -> lands at 2.5
    sim, sink = _one_link_sim()
    sim.send(_update("m", 200))
    sim.run()
    assert sink.inbox == [(2.5, "m")]


def test_queued_message_waits_for_the_link():
    sim, sink = _one_link_sim()
    sim.send(_update("first", 200))
    sim.send(_update("second", 100))
    sim.run()
    # second starts when the link frees at t=2, lands at 2 + 1 + 0.5
    assert sink.inbox == [(2.5, "first"), (3.5, "second")]


def test_control_class_jumps_the_data_queue():
    sim, sink = _one_link_sim()
    sim.send(_update("d1", 200))           # in flight immediately
    sim.send(_update("d2", 100))           # queued behind it
    sim.send(Message(kind=KIND_CLOCK, src="a", dst="b",
                     byte_split={KIND_CLOCK: CLOCK_BYTES}, payload="c1"))
    sim.run()
    # the clock overtakes d2 but never preempts d1 mid-flight
    assert [p for _, p in sink.inbox] == ["d1", "c1", "d2"]
    times = [t for t, _ in sink.inbox]
    assert times == sorted(times)


def test_fifo_within_a_priority_class():
    sim, sink = _one_link_sim()
    for tag in ("u1", "u2", "u3"):
        sim.send(_update(tag, 100))
    sim.run()
    assert [p for _, p in sink.inbox] == ["u1", "u2", "u3"]
    assert [t for t, _ in sink.inbox] == [1.5, 2.5, 3.5]


def test_send_requires_a_configured_link():
    sim, _ = _one_link_sim()
    with pytest.raises(KeyError):
        sim.send(Message(kind=KIND_UPDATE, src="b", dst="a",
                         byte_split={KIND_UPDATE: 8}))
    with pytest.raises(KeyError):
        sim.topology.link("b", "a")


def test_wake_and_past_scheduling():
    sim, sink = _one_link_sim()
    sim.wake_at(1.25, "b")
    sim.run()
    assert sink.wakes == [1.25]
    assert sim.now == 1.25
    with pytest.raises(ValueError):
        sim.wake_at(1.0, "b")


def test_run_counts_events_until_the_heap_drains():
    sim, sink = _one_link_sim()
    sim.wake_at(1.0, "b")
    sim.wake_at(2.0, "b")
    assert len(sim._heap) == 2
    assert sim.run() == 2
    assert sim._heap == []
    assert sink.wakes == [1.0, 2.0]


def _one_link_pair(messages, bandwidth=100.0, latency=0.5):
    """_one_link_sim and the oracle on its topology, each sent messages and
    run: (simulator, its sink, oracle)."""
    sim, sink = _one_link_sim(bandwidth, latency)
    oracle = _EagerSimulator(sim.topology)
    oracle.nodes["b"] = _Recorder()
    for msg in messages:
        sim.send(msg)
        oracle.send(msg)
    sim.run()
    oracle.run()
    return sim, sink, oracle


def test_ledger_conservation_tracks_in_flight_bytes():
    sim, _ = _one_link_sim()
    sim.send(_update("m", 300))
    # booked as sent immediately, delivered only once it lands
    assert sim.ledger.sent_bytes() == 300
    assert not sim.ledger.conservation_ok()
    sim.run()
    link = sim.channels["a", "b"]
    assert (link.sent_bytes, link.delivered_bytes) == (300, 300)
    assert sim.ledger.sent == sim.ledger.delivered == [link]
    assert sim.ledger.conservation_ok()
    _, _, oracle = _one_link_pair([_update("m", 300)])
    _assert_ledger_sums_the_rows(sim, oracle)


def test_conservation_waits_for_a_queued_message():
    sim, sink = _one_link_sim()
    sim.send(_update("first", 0))
    sim.run()
    # zero-byte messages: the byte totals agree while one is in flight and
    # one still waits for a free event that has not run
    sim.send(_update("second", 0))
    sim.send(_update("third", 0))
    link = sim.channels["a", "b"]
    assert link.sent_bytes == link.delivered_bytes == 0
    assert link.free_scheduled and len(link.data) == 1
    assert not sim.ledger.conservation_ok()
    sim.run()
    assert sim.ledger.conservation_ok()
    assert [p for _, p in sink.inbox] == ["first", "second", "third"]


def test_ledger_splits_bytes_by_kind():
    split = {KIND_UPDATE: 80, KIND_BARRIER: 20}
    sim, _, oracle = _one_link_pair(
        [Message(kind=KIND_UPDATE, src="a", dst="b", byte_split=split)])
    assert oracle.sent == oracle.delivered == {("a", "b"): {
        KIND_UPDATE: 80, KIND_BARRIER: 20, KIND_CLOCK: 0, KIND_TRAVEL: 0}}
    _assert_ledger_sums_the_rows(sim, oracle)
    assert sim.ledger.sent_bytes(KIND_UPDATE) == 80
    assert sim.ledger.sent_bytes(KIND_BARRIER) == 20
    assert sim.ledger.sent_bytes() == 100
    assert sim.channels["a", "b"].delivered_bytes == 100


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(0, 10_000), min_size=1, max_size=12))
def test_conservation_holds_for_any_traffic_mix(sizes):
    messages = []
    for i, nbytes in enumerate(sizes):
        kind = KIND_CLOCK if i % 3 == 0 else KIND_UPDATE
        messages.append(Message(kind=kind, src="a", dst="b",
                                byte_split={kind: nbytes}, payload=i))
    sim, sink, oracle = _one_link_pair(messages, bandwidth=1000.0,
                                       latency=0.01)
    assert sim.ledger.conservation_ok()
    _assert_ledger_sums_the_rows(sim, oracle)
    assert sim.channels["a", "b"].delivered_bytes == sum(sizes)
    assert len(sink.inbox) == len(sizes)


def test_free_event_is_scheduled_only_behind_a_waiting_message():
    sim, sink = _one_link_sim()
    sim.send(_update("first", 200))
    assert len(sim._heap) == 1         # the delivery; nothing waits
    sim.send(_update("second", 100))
    assert len(sim._heap) == 2         # now the link's free event too
    # free, then first; nothing waits behind second, so no second free
    assert sim.run() == 3
    assert sink.inbox == [(2.5, "first"), (3.5, "second")]


# ---------------------------------------------------------------------------
# oracle: the event loop that schedules every free event


def _book(rows, key, msg):
    row = rows.setdefault(key, dict.fromkeys(BYTE_KINDS, 0))
    for kind, nbytes in msg.byte_split.items():
        row[kind] += nbytes


class _EagerSimulator:
    """Reference loop: every service start schedules the link's free event,
    which runs even when no message waits.

    Its ledger is sent and delivered, per-link per-kind rows ((src, dst) ->
    {kind: bytes}) in first-send and first-delivery order. hops() routes as
    Simulator.hops does, as (src, dst) pairs, and send() books and queues
    a copy of the message on each hop.
    """

    def __init__(self, topology, groups=(), hubs=None):
        self.now, self._heap, self._seq, self.nodes = 0.0, [], 0, {}
        self.channels = {key: [spec, deque(), deque(), 0.0, None]
                         for key, spec in topology.links.items()}
        self.sent, self.delivered = {}, {}
        self._router = Simulator(topology, groups, hubs)

    def _push(self, time, kind, data):
        heapq.heappush(self._heap, (time, self._seq, kind, data))
        self._seq += 1

    def wake_at(self, time, name):
        self._push(time, "wake", name)

    def hops(self, src, origin):
        return [(ch.key, fw) for ch, fw in self._router.hops(src, origin)]

    def send(self, msg, hops=None):
        if hops is None:
            hops = [((msg.src, msg.dst), msg.forward)]
        for key, forward in hops:
            copy = replace(msg, forward=forward)
            _book(self.sent, key, copy)
            channel = self.channels[key]
            control = _PRIORITY[copy.kind] == CONTROL
            channel[1 if control else 2].append((key, copy))
            if channel[4] is None:
                self._start_service(channel)

    def _start_service(self, channel):
        spec, control, data, busy_until, _ = channel
        if not control and not data:
            return
        key, msg = control.popleft() if control else data.popleft()
        channel[3] = max(self.now, busy_until) + msg.nbytes / spec.bandwidth
        channel[4] = msg
        self._push(channel[3], "free", channel)
        self._push(channel[3] + spec.latency, "deliver", (key, msg))

    def run(self):
        while self._heap:
            self.now, _, kind, data = heapq.heappop(self._heap)
            if kind == "free":
                data[4] = None
                self._start_service(data)
            elif kind == "deliver":
                key, msg = data
                _book(self.delivered, key, msg)
                node = self.nodes.get(key[1])
                if node is not None:
                    node.on_message(self, msg)
            else:
                self.nodes[data].on_wake(self)


def _assert_ledger_sums_the_rows(sim, oracle):
    """sim's per-link totals are the oracle's rows summed, link for link in
    the oracle's order, and its per-kind totals the rows' column sums."""
    ledger = sim.ledger
    assert [(ch.key, ch.sent_bytes) for ch in ledger.sent] == [
        (key, sum(row.values())) for key, row in oracle.sent.items()]
    assert [(ch.key, ch.delivered_bytes) for ch in ledger.delivered] == [
        (key, sum(row.values())) for key, row in oracle.delivered.items()]
    assert {kind: ledger.sent_bytes(kind) for kind in BYTE_KINDS} == {
        kind: sum(row[kind] for row in oracle.sent.values())
        for kind in BYTE_KINDS}
    assert ledger.sent_bytes() == sum(
        sum(row.values()) for row in oracle.sent.values())


def _row_cost(oracle, machine_seconds, rates):
    """account_cost summed over the oracle's per-kind rows, in its order:
    machine time, then each link's egress, then each link's ingress."""
    total = 0.0
    for dc, seconds in machine_seconds.items():
        total += seconds * (rates[dc].machine_usd_per_hr / 3600.0)
    for (src, _), row in oracle.sent.items():
        gb = sum(row.values()) / GB
        total += gb * rates[src].send_usd_per_gb
    for (_, dst), row in oracle.delivered.items():
        gb = sum(row.values()) / GB
        total += gb * rates[dst].recv_usd_per_gb
    return total


_DCS = ("a", "b", "c")


def _lab_topology():
    # bandwidths and latencies are binary fractions, so events often tie
    # exactly; a->b has no latency, so a delivery can tie a free event
    links = {}
    for i, src in enumerate(_DCS):
        for j, dst in enumerate(_DCS):
            latency = 0.0 if (src, dst) == ("a", "b") else 0.25 * ((i + j) % 3)
            links[(src, dst)] = LinkSpec(src, dst, 100.0 * (1 + i % 2),
                                         latency)
    return Topology(dcs=list(_DCS), links=links)


class _Script:
    """Node behaviour shared by the nodes of one simulator: a delivery of
    message i makes its receiver send replies[i]; the n-th wake of a node
    makes it send that wake's specs. Every send gets the next message id."""

    def __init__(self, replies, wakes):
        self.replies = replies
        self.wakes = {dc: deque(specs for _, who, specs in wakes if who == dc)
                      for dc in _DCS}
        self.next_id = 0
        self.log = []

    def emit(self, sim, src, specs):
        for dst, kind, nbytes, clock in specs:
            split = {kind: nbytes}
            if clock:
                split[KIND_CLOCK] = split.get(KIND_CLOCK, 0) + CLOCK_BYTES
            sim.send(Message(kind, src, dst, split, self.next_id))
            self.next_id += 1


class _ScriptedNode:
    def __init__(self, name, script):
        self.name, self.script = name, script

    def on_message(self, sim, msg):
        self.script.log.append((sim.now, self.name, msg.payload))
        if msg.payload < len(self.script.replies):
            self.script.emit(sim, self.name, self.script.replies[msg.payload])

    def on_wake(self, sim):
        self.script.log.append((sim.now, self.name, "wake"))
        self.script.emit(sim, self.name, self.script.wakes[self.name].popleft())


_spec = st.tuples(st.sampled_from(_DCS),
                  st.sampled_from((KIND_UPDATE, KIND_CLOCK, KIND_BARRIER,
                                   KIND_TRAVEL)),
                  st.sampled_from((0, 0, 25, 50, 100, 200)),
                  st.booleans())
_specs = st.lists(_spec, max_size=3)


@settings(max_examples=150, deadline=None)
@given(initial=st.lists(st.tuples(st.sampled_from(_DCS), _specs),
                        max_size=4),
       wakes=st.lists(st.tuples(st.sampled_from((0.0, 0.5, 1.0, 1.25)),
                                st.sampled_from(_DCS), _specs), max_size=5),
       replies=st.lists(_specs, max_size=25))
# a link freed by a zero-byte message takes a send from a later event at
# the same instant at once, ahead of the sends that follow it
@example(initial=[("a", [("a", KIND_UPDATE, 0, False)])], wakes=[],
         replies=[[("a", KIND_UPDATE, 0, False), ("b", KIND_UPDATE, 0, False)]])
def test_event_loop_matches_the_eager_free_event_oracle(initial, wakes,
                                                        replies):
    wakes = sorted(wakes, key=lambda w: w[0])    # stable: ties keep order
    runs = []
    for make in (Simulator, _EagerSimulator):
        sim = make(_lab_topology())
        script = _Script(replies, wakes)
        for dc in _DCS:
            sim.nodes[dc] = _ScriptedNode(dc, script)
        for time, dc, _ in wakes:
            sim.wake_at(time, dc)
        for src, specs in initial:
            script.emit(sim, src, specs)
        sim.run()
        # the same sequence numbers were handed out, too
        runs.append((sim, script.log, sim._seq))
    assert runs[0][1:] == runs[1][1:]
    _assert_ledger_sums_the_rows(runs[0][0], runs[1][0])


# ---------------------------------------------------------------------------
# cost accounting


def test_account_cost_hand_oracle():
    topo = Topology(dcs=["east", "west"], links={
        ("east", "west"): LinkSpec("east", "west", 1e9, 0.0)})
    sim = Simulator(topo)
    sim.send(Message(kind=KIND_UPDATE, src="east", dst="west",
                     byte_split={KIND_UPDATE: int(2 * GB)}))
    sim.run()
    ledger = sim.ledger
    machine_seconds = {"east": 7200.0}                # 2 machine-hours
    rates = {"east": CostRates("east", 1.0, 0.05, 0.0),
             "west": CostRates("west", 0.5, 0.0, 0.02)}
    # 2.0 machine + 2 GB * 0.05 egress + 2 GB * 0.02 ingress, in ledger order
    hand = 7200.0 * (1.0 / 3600.0) + 2.0 * 0.05 + 2.0 * 0.02
    assert account_cost(ledger, rates, machine_seconds) == hand
    assert account_cost(ledger, rates, machine_seconds) == pytest.approx(2.14)


# ---------------------------------------------------------------------------
# overlay routing


def _mesh(dcs):
    return Topology(dcs=dcs, links={(a, b): LinkSpec(a, b, 100.0, 0.25)
                                    for a in dcs for b in dcs if a != b})


def _keys(hops):
    return [(channel.key[1], forward) for channel, forward in hops]


def test_broadcast_without_plan_is_direct():
    # without groups a broadcast goes straight to every other DC, unflagged
    sim = Simulator(_mesh(["a", "b", "c"]))
    assert _keys(sim.hops("a", "a")) == [("b", False), ("c", False)]
    assert _keys(sim.hops("b", "b")) == [("a", False), ("c", False)]


def test_broadcast_and_forward_hops_oracle():
    dcs = ["a", "b", "c", "d"]
    sim = Simulator(_mesh(dcs), groups=(("a", "b"), ("c", "d")),
                    hubs={(0, 1): "c", (1, 0): "a"})
    # in-group peer direct, one flagged copy to the remote group's hub
    assert _keys(sim.hops("a", "a")) == [("b", False), ("c", True)]
    assert _keys(sim.hops("d", "d")) == [("c", False), ("a", True)]
    # a hub forwards to its group but itself and the origin
    assert _keys(sim.hops("c", "a")) == [("d", False)]
    assert _keys(sim.hops("a", "d")) == [("b", False)]


@st.composite
def _overlays(draw):
    """DC names and random overlay groups and hubs over them, or no groups
    (()) and no hubs (None)."""
    n = draw(st.integers(2, 6))
    dcs = [f"dc{i}" for i in range(n)]
    if draw(st.booleans()):
        return dcs, (), None
    order = draw(st.permutations(dcs))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), unique=True,
                                max_size=n - 1)))
    groups = [list(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    hubs = {(gi, gj): draw(st.sampled_from(groups[gj]))
            for gi in range(len(groups)) for gj in range(len(groups))
            if gi != gj}
    return dcs, groups, hubs


@settings(max_examples=100, deadline=None)
@given(overlay=_overlays())
def test_overlay_reaches_every_dc_exactly_once(overlay):
    dcs, groups, hubs = overlay
    sim = Simulator(_mesh(dcs), groups, hubs)
    group_of = {dc: gi for gi, group in enumerate(groups or [dcs])
                for dc in group}
    for src in dcs:
        hops = sim.hops(src, src)
        assert sim.hops(src, src) is hops           # built once
        reached = []
        for channel, forward in hops:
            dst = channel.key[1]
            reached.append(dst)
            # only the copy to another group's hub is flagged to forward
            assert forward == (group_of[dst] != group_of[src])
            if forward:
                assert dst == hubs[group_of[src], group_of[dst]]
                fwd = sim.hops(dst, src)
                assert sim.hops(dst, src) is fwd
                assert all(ch.key[0] == dst and not fw for ch, fw in fwd)
                reached += [ch.key[1] for ch, _ in fwd]
        # the origin's own group first, then one hub per other group
        assert [fw for _, fw in hops] == sorted(fw for _, fw in hops)
        assert sorted(reached) == sorted(set(dcs) - {src})


class _HopLog:
    """Logs (receiver, origin, forward) of every delivery; forwards nothing."""

    def __init__(self, name, log):
        self.name, self.log = name, log

    def on_message(self, sim, msg):
        self.log.append((self.name, msg.origin, msg.forward))


@settings(max_examples=100, deadline=None)
@given(overlay=_overlays(),
       split=st.dictionaries(st.sampled_from(BYTE_KINDS),
                             st.integers(0, 300), min_size=1))
def test_a_broadcast_is_sent_once_on_each_of_its_hops(overlay, split):
    dcs, groups, hubs = overlay
    sim = Simulator(_mesh(dcs), groups, hubs)
    oracle = _EagerSimulator(_mesh(dcs), groups, hubs)
    log, oracle_log = [], []
    for dc in dcs[1:]:           # dcs[0] has no node: its copies are dropped
        sim.register(dc, _HopLog(dc, log))
        oracle.nodes[dc] = _HopLog(dc, oracle_log)
    expected_log, expected_rows = [], {}
    for src in dcs:
        hops = sim.hops(src, src)
        # one broadcast: one copy per first hop, flagged as the hop says
        sim.send(Message(next(iter(split)), src, None, split), hops)
        oracle.send(Message(next(iter(split)), src, None, split),
                    oracle.hops(src, src))
        expected_log += [(ch.key[1], src, fw) for ch, fw in hops
                         if ch.key[1] != dcs[0]]
        expected_rows.update({ch.key: {k: split.get(k, 0) for k in BYTE_KINDS}
                              for ch, _ in hops})
    assert sim.run() == len(expected_rows)
    oracle.run()
    assert sorted(log) == sorted(expected_log) == sorted(oracle_log)
    # both sides of the oracle hold each first hop's split once, every
    # kind, and the ledger holds their sums
    assert oracle.sent == oracle.delivered == expected_rows
    _assert_ledger_sums_the_rows(sim, oracle)


def _uneven_mesh(dcs):
    # bandwidths and latencies vary by link, so links deliver in an order
    # other than the one they were first sent on
    return Topology(dcs=dcs, links={
        (a, b): LinkSpec(a, b, 100.0 * (1 + (i + 2 * j) % 3),
                         0.25 * ((i + j) % 2))
        for i, a in enumerate(dcs) for j, b in enumerate(dcs) if a != b})


class _Relay:
    """Sends, at each wake, the next of its (dst, split) messages (dst None:
    a broadcast), and re-broadcasts within its group, as a hub does, each
    copy that arrives flagged to forward."""

    def __init__(self, name, sends):
        self.name, self.sends = name, deque(sends)

    def on_message(self, sim, msg):
        if msg.forward:
            sim.send(Message(msg.kind, self.name, None, msg.byte_split,
                             msg.payload, msg.origin, nbytes=msg.nbytes),
                     sim.hops(self.name, msg.origin))

    def on_wake(self, sim):
        dst, split = self.sends.popleft()
        msg = Message(next(iter(split)), self.name, dst, split)
        sim.send(msg, None if dst else sim.hops(self.name, self.name))


# prices with full mantissas, so that a change in summation order shows
_price = st.integers(0, 2 ** 20).map(lambda k: k / 3 ** 12)


@settings(max_examples=100, deadline=None)
@given(overlay=_overlays(), data=st.data())
def test_account_cost_is_the_per_kind_rows_sum_bit_for_bit(overlay, data):
    dcs, groups, hubs = overlay
    dc = st.sampled_from(dcs)
    sends = sorted(data.draw(st.lists(st.tuples(
        st.sampled_from((0.0, 0.5, 1.0)), dc, st.none() | dc,
        st.dictionaries(st.sampled_from(BYTE_KINDS),
                        st.integers(0, 10 ** 9), min_size=1)),
        max_size=12)), key=lambda s: s[0])    # stable: ties keep order
    rates = {name: CostRates(name, data.draw(_price), data.draw(_price),
                             data.draw(_price)) for name in dcs}
    runs = []
    for make in (Simulator, _EagerSimulator):
        sim = make(_uneven_mesh(dcs), groups, hubs)
        for name in dcs:
            sim.nodes[name] = _Relay(name, [
                (None if dst == src else dst, split)
                for _, src, dst, split in sends if src == name])
        for time, src, _, _ in sends:
            sim.wake_at(time, src)
        sim.run()
        runs.append(sim)
    sim, oracle = runs
    _assert_ledger_sums_the_rows(sim, oracle)
    assert sim.ledger.conservation_ok()
    machine_seconds = {name: sim.now for name in dcs}
    assert account_cost(sim.ledger, rates, machine_seconds).hex() == _row_cost(
        oracle, machine_seconds, rates).hex()


def test_a_message_to_a_dc_without_a_node_is_metered_then_dropped():
    sim, sink = _one_link_sim()
    del sim.nodes["b"]
    sim.send(_update("lost", 100))
    assert sim.run() == 1
    link = sim.channels["a", "b"]
    assert sim.ledger.sent == sim.ledger.delivered == [link]
    assert (link.sent_bytes, link.delivered_bytes) == (100, 100)
    assert sim.ledger.sent_bytes(KIND_UPDATE) == 100
    assert sink.inbox == []
    # the oracle meters and drops the same copy
    oracle = _EagerSimulator(sim.topology)
    oracle.send(_update("lost", 100))
    oracle.run()
    _assert_ledger_sums_the_rows(sim, oracle)
    # a node registered later receives what follows
    sim.register("b", sink)
    sim.send(_update("kept", 100))
    sim.run()
    assert sink.inbox == [(3.0, "kept")]
    assert (link.sent_bytes, link.delivered_bytes) == (200, 200)


# ---------------------------------------------------------------------------
# external file formats


def test_bandwidth_csv_round_trip():
    text = ",east,west\neast,,100\nwest,50,\n"
    names, matrix = load_bandwidth_csv(io.StringIO(text))
    assert names == ["east", "west"]
    # cells are Mb/s: 1 Mb/s = 125000 B/s
    assert matrix[("east", "west")] == 100 * 125_000.0
    assert matrix[("west", "east")] == 50 * 125_000.0
    assert ("east", "east") not in matrix


def test_bandwidth_csv_rejects_bad_inputs():
    with pytest.raises(ValueError):
        load_bandwidth_csv(io.StringIO(",east,west\neast,,0\nwest,50,\n"))
    with pytest.raises(ValueError):
        load_bandwidth_csv(io.StringIO(",east,west\nwest,,100\neast,50,\n"))


def test_cost_csv_rejects_wrong_header():
    with pytest.raises(ValueError):
        load_cost_csv(io.StringIO("region,machine_rate_usd_per_hr,send_usd_per_gb\nx,1,1\n"))


def test_packaged_tables_frozen_values():
    rates = default_costs()
    assert rates["virginia"].machine_usd_per_hr == 0.86
    assert rates["virginia"].send_usd_per_gb == 0.02
    assert rates["virginia"].recv_usd_per_gb == 0.01
    assert rates["saopaulo"].machine_usd_per_hr == 1.37
    assert rates["saopaulo"].send_usd_per_gb == 0.16
    names, matrix = default_bandwidth()
    assert "virginia" in names and "saopaulo" in names
    assert matrix[("virginia", "saopaulo")] == 140 * 125_000.0
    assert matrix[("saopaulo", "virginia")] == 140 * 125_000.0


def test_build_topology_wiring():
    topo = build_topology(["virginia", "saopaulo"])
    wan = topo.link("virginia", "saopaulo")
    assert wan.bandwidth == 140 * 125_000.0
    assert wan.latency == 0.05
    # no node sends to its own DC, so no DC links to itself
    assert sorted(topo.links) == [("saopaulo", "virginia"),
                                  ("virginia", "saopaulo")]


def test_build_topology_rejects_unknown_dc():
    with pytest.raises(ValueError):
        build_topology(["virginia", "atlantis"])
