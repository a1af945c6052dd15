"""Cycle-level flit simulator for off-chip topologies.

Models the survey's gem5/garnet methodology at desk scale, with one model:
pipelined routers (5-cycle default), links of one latency (10 cycles by
default), single-flit packets, Bernoulli injection, and per input port a
bounded pool of ``vcs_per_port`` virtual channels of ``vc_depth`` packets
each. Hosts are routers too, so server-centric topologies forward through
hosts with the same pipeline. Each source queues its packets in one
unbounded injection queue.

All per-port and per-channel state lives in plain lists indexed by port or
channel id, built once before the first cycle; a link port's VC queues are
made when a packet first opens them.

Switch allocation is separable and round-robin like garnet's: each input port
puts forward at most one VC head per cycle, each output port grants at most
one packet per cycle, and a packet departs only when the downstream input
port's pool has space (ejection at the destination is never blocked). A
head whose next-hop pool is full is dropped and re-enters its source queue
after a link-latency backoff. ``SimStats.dropped`` counts every drop;
``dropped_at_source`` counts those of heads still at their source port.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Optional

from .graph import Topology, TopologyError, check_count, check_number
from .routing import resolve_routing_mode, route_provider
from .traffic import PatternKind, TrafficPattern, pattern_destination

_SCAN_LIMIT = 8  # VC heads considered per input port per cycle


@dataclass(frozen=True)
class SimConfig:
    injection_rate: float
    sim_cycles: int = 10_000
    warmup_cycles: Optional[int] = None  # default: 10% of sim_cycles
    vcs_per_port: int = 100
    router_pipeline: int = 5
    link_latency: int = 10
    vc_depth: int = 4  # packets per VC
    pattern: TrafficPattern = field(default_factory=TrafficPattern.uniform)
    seed: int = 0

    def resolved_warmup(self) -> int:
        if self.warmup_cycles is not None:
            return self.warmup_cycles
        return self.sim_cycles // 10

    def check(self) -> None:
        # router_pipeline >= 1: an injected head is due that many cycles
        # later; at 0 it would be due in a ready phase that has already run,
        # and never leave
        for name in ("sim_cycles", "vcs_per_port", "vc_depth", "router_pipeline", "link_latency"):
            check_count(name, getattr(self, name))
        if self.warmup_cycles is not None:
            check_count("warmup_cycles", self.warmup_cycles, 0)
        check_count("seed", self.seed, None)
        check_number("injection_rate", self.injection_rate)
        if not 0 < self.injection_rate <= 1:
            raise TopologyError("injection_rate must be in (0, 1]")
        if not self.resolved_warmup() < self.sim_cycles:
            raise TopologyError("need 0 <= warmup_cycles < sim_cycles")


@dataclass
class SimStats:
    topology: str
    pattern: str
    routing_mode: str
    injection_rate: float
    sim_cycles: int
    warmup_cycles: int
    active_hosts: int
    packets_generated: int
    packets_due_window: int  # generated packets whose zero-load arrival falls in the window
    packets_injected: int
    packets_received: int
    dropped: int
    dropped_at_source: int  # of ``dropped``, heads still at their source port
    retransmitted: int  # of ``dropped``, those back in their source queue by the end
    in_flight: int  # at the end, packets on a link or in a link port's VCs
    awaiting_retransmit: int  # at the end, dropped packets still waiting out their backoff
    source_queued: int
    reception_rate: float
    avg_packet_latency: float
    per_link_utilization: dict[int, float]
    saturated: bool


class _Packet:
    __slots__ = ("src", "dst", "path", "hop", "gen_t", "base_t", "injected")

    def __init__(self, src: int, dst: int, path: list[int], gen_t: int):
        self.src = src
        self.dst = dst
        self.path = path
        self.hop = 0
        self.gen_t = gen_t  # original generation time, kept across retransmits
        self.base_t = gen_t  # arrival time at current queue (pipeline basis)
        self.injected = False


class _Port:
    """Input-port VCs and ``pool``, the packets they hold or have reserved.

    A link port has vcs_per_port VCs sharing a pool of vcs_per_port *
    vc_depth packets; an injection port has one VC whose pool is never
    checked, so a source queue is unbounded.

    ``vcs[i]`` is VC i's queue. It is made when the VC is first opened, and
    VCs first open in id order: VC i reaches the front of ``open_vcs`` only
    after VCs 0..i-1 have each been there, so ``vcs`` grows by appends.
    """

    __slots__ = ("vcs", "pool", "ready", "open_vcs", "is_open")

    def __init__(self, vcs: int):
        self.vcs: list[deque] = []
        self.pool = 0
        self.ready = deque()  # vc indices whose head is ready for allocation
        self.open_vcs = deque(range(vcs))
        self.is_open = bytearray([1]) * vcs


def _active_hosts_and_bits(
    topology: Topology, pattern: TrafficPattern
) -> tuple[list[int], int, int]:
    """Indices (into ``topology.hosts``) of the hosts that send under the
    pattern, the traffic size N, and bit width. Patterns map host indices,
    not node ids, so hosts need not be nodes 0..H-1.

    Bit patterns on a non-power-of-two host count run over the largest
    power-of-two host subset (lowest host indices). A host that a
    deterministic pattern maps to itself (a palindrome under bit reverse) or
    to nothing (outside a permutation map) never sends, so it is not active.
    """
    hosts = topology.hosts
    H = len(hosts)
    if H < 2:
        raise TopologyError("simulation needs at least two hosts")
    kind = pattern.kind
    if kind is PatternKind.UNIFORM_RANDOM:
        return list(range(H)), H, 0
    n, bits = H, 0
    if kind in (PatternKind.BIT_COMPLEMENT, PatternKind.BIT_REVERSE):
        bits = H.bit_length() - 1
        n = 1 << bits
    if kind is PatternKind.PERMUTATION and not pattern.mapping:
        raise TopologyError("permutation pattern maps no hosts")
    active = [i for i in range(n) if pattern_destination(pattern, i, n, bits=bits) not in (None, i)]
    if not active:
        raise TopologyError(f"no host sends under the {kind.value} pattern")
    return active, n, bits


def run_simulation(
    topology: Topology, routing_mode: str = "auto", config: SimConfig = None
) -> SimStats:
    """Run one seeded simulation and collect post-warmup statistics.

    Deterministic for fixed (topology, routing_mode, config): identical runs
    produce identical stats.
    """
    if config is None:
        raise TopologyError("run_simulation needs a SimConfig")
    config.check()
    num_nodes = topology.num_nodes
    num_links = len(topology.links)
    num_ports = 2 * num_links + num_nodes
    # directed channel c: 2*i = a->b, 2*i+1 = b->a for link i. Input port
    # 2*links + v is node v's injection port.
    out_chan: list[dict[int, int]] = [dict() for _ in range(num_nodes)]
    in_ports: list[list[int]] = [[2 * num_links + v] for v in range(num_nodes)]  # SA-II ordering
    for i, link in enumerate(topology.links):
        # every channel takes config.link_latency cycles; refuse links that say otherwise
        if link.latency != config.link_latency:
            raise TopologyError(
                f"link {i} has latency {link.latency}, but the simulator gives "
                f"every link config.link_latency={config.link_latency}"
            )
        # a channel is found by its end nodes, so a second link between them would carry nothing
        if link.b in out_chan[link.a]:
            raise TopologyError(
                f"link {i} duplicates link {out_chan[link.a][link.b] // 2} between nodes "
                f"{link.a} and {link.b}; the simulator needs one link per node pair"
            )
        out_chan[link.a][link.b] = 2 * i
        out_chan[link.b][link.a] = 2 * i + 1
        in_ports[link.b].append(2 * i)
        in_ports[link.a].append(2 * i + 1)
    routing_mode = resolve_routing_mode(topology, routing_mode)
    provider = route_provider(topology, routing_mode)
    rng = random.Random(config.seed)
    pattern = config.pattern
    hosts = topology.hosts
    active, traffic_n, bits = _active_hosts_and_bits(topology, pattern)
    warmup = config.resolved_warmup()
    sim_cycles = config.sim_cycles
    pipeline = config.router_pipeline
    link_latency = config.link_latency
    vc_depth = config.vc_depth
    pool_capacity = config.vcs_per_port * vc_depth
    rate = config.injection_rate
    hop_cycles = pipeline + link_latency  # zero-load cycles per hop

    local_index = [0] * num_ports
    port_owner = [0] * num_ports
    for v in range(num_nodes):
        for idx, port in enumerate(in_ports[v]):
            local_index[port] = idx
            port_owner[port] = v

    ports = [_Port(config.vcs_per_port) for _ in range(2 * num_links)]
    for _ in range(num_nodes):
        ports.append(_Port(1))
        ports[-1].vcs.append(deque())  # the source queue

    arrivals: dict[int, list] = {}
    ready_events: dict[int, list] = {}
    requeues: dict[int, list] = {}
    armed: dict[int, bool] = {}  # ports whose ``ready`` is non-empty, in arming order
    rr_out = [0] * (2 * num_links)

    stats_generated = 0
    stats_due_window = 0
    stats_injected_unique = 0
    stats_received = 0
    stats_received_window = 0
    stats_dropped = 0
    stats_dropped_at_source = 0
    latency_sum = 0
    departures = [0] * (2 * num_links)

    def schedule_ready(port_id: int, vc: int, when: int) -> None:
        ready_events.setdefault(when, []).append((port_id, vc))

    def enqueue_source(pkt: _Packet, now: int) -> None:
        port_id = 2 * num_links + pkt.src
        port = ports[port_id]
        pkt.base_t = now
        pkt.hop = 0
        port.pool += 1
        q = port.vcs[0]
        q.append(pkt)
        if len(q) == 1:
            schedule_ready(port_id, 0, now + pipeline)

    def pop_head(port_id: int, port: _Port, vc: int, now: int) -> _Packet:
        """Take the head off VC ``vc``: free its pool slot, reopen the VC,
        schedule the next head, and disarm the port if nothing is ready."""
        q = port.vcs[vc]
        pkt = q.popleft()
        port.pool -= 1
        if not port.is_open[vc]:
            port.is_open[vc] = 1
            port.open_vcs.append(vc)
        if q:
            schedule_ready(port_id, vc, max(now + 1, q[0].base_t + pipeline))
        if not port.ready:
            del armed[port_id]
        return pkt

    def place_arrival(pkt: _Packet, port_id: int, now: int) -> None:
        port = ports[port_id]  # pool slot was reserved at departure
        vcs = port.vcs
        while True:
            vc = port.open_vcs[0]
            if vc == len(vcs):  # first opening of this VC
                vcs.append(deque())
            q = vcs[vc]
            if len(q) < vc_depth:
                break
            port.open_vcs.popleft()
            port.is_open[vc] = 0
        pkt.base_t = now
        q.append(pkt)
        if len(q) == 1:
            schedule_ready(port_id, vc, now + pipeline)

    for t in range(sim_cycles):
        # deliver link arrivals
        for pkt, node, port_id in arrivals.pop(t, ()):
            if node == pkt.dst:
                stats_received += 1
                if t >= warmup:
                    stats_received_window += 1
                    latency_sum += t - pkt.gen_t
            else:
                place_arrival(pkt, port_id, t)
        # retransmit backoff expiry
        for pkt in requeues.pop(t, ()):
            pkt.path = provider(pkt.src, pkt.dst, rng)
            enqueue_source(pkt, t)
        # heads become eligible for allocation
        for port_id, vc in ready_events.pop(t, ()):
            ports[port_id].ready.append(vc)
            armed[port_id] = True
        # injection
        for i in active:
            if rng.random() >= rate:
                continue
            h = hosts[i]
            dst = hosts[pattern_destination(pattern, i, traffic_n, bits=bits, rng=rng)]
            stats_generated += 1
            pkt = _Packet(h, dst, provider(h, dst, rng), t)
            if warmup <= t + (len(pkt.path) - 1) * hop_cycles < sim_cycles:
                stats_due_window += 1
            enqueue_source(pkt, t)
        # switch allocation, phase A: one creditable VC head per input port.
        # An armed port has a ready VC (a ready event arms it, and pop_head
        # disarms it when ``ready`` empties), so a scan that requests nothing
        # found the front VC blocked.
        requests: dict[int, list] = {}
        for port_id in list(armed):
            port = ports[port_id]
            node = port_owner[port_id]
            for vc in islice(port.ready, _SCAN_LIMIT):
                pkt = port.vcs[vc][0]
                nxt = pkt.path[pkt.hop + 1]
                chan = out_chan[node][nxt]
                if nxt == pkt.dst or ports[chan].pool < pool_capacity:
                    requests.setdefault(chan, []).append((port_id, vc))
                    break
            else:
                # head-of-line packet's next hop is full: drop and retransmit
                pkt = pop_head(port_id, port, port.ready.popleft(), t)
                stats_dropped += 1
                if pkt.hop == 0:
                    stats_dropped_at_source += 1
                requeues.setdefault(t + link_latency, []).append(pkt)
        # switch allocation, phase B: one grant per output port
        for chan, cands in requests.items():
            if len(cands) == 1:
                winner = cands[0]
            else:
                upstream = port_owner[cands[0][0]]
                n_local = len(in_ports[upstream])
                pointer = rr_out[chan]
                winner = min(
                    cands,
                    key=lambda c: (local_index[c[0]] - pointer) % n_local,
                )
                rr_out[chan] = local_index[winner[0]] + 1
            port_id, vc = winner
            port = ports[port_id]
            port.ready.remove(vc)  # winner sits near the ring front
            pkt = pop_head(port_id, port, vc, t)
            if not pkt.injected:
                pkt.injected = True
                stats_injected_unique += 1
            pkt.hop += 1
            nxt = pkt.path[pkt.hop]
            if nxt != pkt.dst:
                ports[chan].pool += 1
            if t >= warmup:
                departures[chan] += 1
            arrivals.setdefault(t + link_latency, []).append((pkt, nxt, chan))

    measured = sim_cycles - warmup
    reception_rate = stats_received_window / len(active) / measured
    source_queued = sum(len(ports[2 * num_links + hosts[i]].vcs[0]) for i in active)
    in_flight = sum(len(q) for port in ports[: 2 * num_links] for q in port.vcs)
    in_flight += sum(map(len, arrivals.values()))
    awaiting_retransmit = sum(map(len, requeues.values()))
    util: dict[int, float] = {}
    for i in range(num_links):
        fwd = departures[2 * i]
        rev = departures[2 * i + 1]
        if fwd or rev:
            util[i] = max(fwd, rev) / measured
    return SimStats(
        topology=topology.name(),
        pattern=pattern.kind.value,
        routing_mode=routing_mode,
        injection_rate=rate,
        sim_cycles=sim_cycles,
        warmup_cycles=warmup,
        active_hosts=len(active),
        packets_generated=stats_generated,
        packets_due_window=stats_due_window,
        packets_injected=stats_injected_unique,
        packets_received=stats_received,
        dropped=stats_dropped,
        dropped_at_source=stats_dropped_at_source,
        retransmitted=stats_dropped - awaiting_retransmit,
        in_flight=in_flight,
        awaiting_retransmit=awaiting_retransmit,
        source_queued=source_queued,
        reception_rate=reception_rate,
        avg_packet_latency=(latency_sum / stats_received_window)
        if stats_received_window
        else 0.0,
        per_link_utilization=util,
        # against packets_due_window, the packets drawn that an idle network
        # would deliver in the window, not the nominal rate: neither Bernoulli
        # sampling noise nor a warmup shorter than the path latency then reads
        # as saturation
        saturated=stats_received_window < 0.95 * stats_due_window,
    )


def sweep_injection(
    topology: Topology,
    routing_mode: str,
    rates: list[float],
    config: SimConfig,
) -> list[tuple[float, SimStats]]:
    """Independent seeded simulations per rate, each with ``config`` (its
    pattern included) but for the rate and seed; each point's ``saturated``
    flag marks reception in the measurement window falling under 95% of the
    packets that an idle network would have delivered in it.
    """
    if not rates:
        raise TopologyError("rates list is empty")
    if any(b <= a for a, b in zip(rates, rates[1:])):
        raise TopologyError("rates must be strictly increasing")
    check_count("seed", config.seed, None)  # True would derive int seeds 7919 + i
    curve = []
    for idx, rate in enumerate(rates):
        point_config = replace(config, injection_rate=rate, seed=config.seed * 7919 + idx)
        curve.append((rate, run_simulation(topology, routing_mode, point_config)))
    return curve

