"""Oracles for dcnbench outputs: closed forms, networkx cross-checks and
invariants. None of them snapshots a number the package printed before, so
a change that corrects a wrong value does not fail them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import statistics

import networkx as nx

from harness import CheckError


def sha(obj) -> str:
    """Short stable hash of a JSON-able object (route lists, tables)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expect(ok: bool, check: str, detail: str = "") -> None:
    if not ok:
        raise CheckError(check, detail)


# ---------------------------------------------------------------------------
# Closed forms


def fat_tree_counts(k: int) -> dict:
    hosts = k**3 // 4
    half = k // 2
    same_edge = half - 1
    same_pod = (half - 1) * half
    other_pods = hosts - k * k // 4
    return {
        "hosts": hosts,
        "switches": 5 * k * k // 4,
        "diameter": 6,
        "avg_path": (2 * same_edge + 4 * same_pod + 6 * other_pods) / (hosts - 1),
    }


def bcube_counts(n: int, k: int) -> dict:
    hosts = n ** (k + 1)
    # hosts differ in Hamming-distance-many digits; each digit costs 2 links
    return {
        "hosts": hosts,
        "switches": (k + 1) * n**k,
        "diameter": 2 * (k + 1),
        "avg_path": 2 * (k + 1) * (n - 1) * n**k / (hosts - 1),
    }


def dcell_counts(n: int, level: int) -> dict:
    t = n
    for _ in range(level):
        t = t * (t + 1)
    # divide-and-conquer routes: 2 links at level 0, 2*r(l-1) + 1 above
    return {"hosts": t, "switches": t // n, "route_bound": 3 * 2**level - 1}


def jellyfish_counts(switches: int, ports: int, r: int) -> dict:
    return {"hosts": switches * (ports - r), "switches": switches}


def check_counts(topology, expected: dict) -> None:
    expect(topology.num_hosts == expected["hosts"], "host_count",
           f"{topology.num_hosts} != {expected['hosts']}")
    expect(topology.num_switches == expected["switches"], "switch_count",
           f"{topology.num_switches} != {expected['switches']}")


# ---------------------------------------------------------------------------
# Shortest paths by networkx


def nx_graph(topology) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(topology.num_nodes))
    graph.add_edges_from((link.a, link.b) for link in topology.links)
    return graph


class ShortestPaths:
    """networkx BFS over one topology; host distance rows are cached."""

    def __init__(self, topology):
        self.topology = topology
        self.graph = nx_graph(topology)
        self._host_rows: dict[int, bytes] = {}

    def row(self, source: int) -> dict[int, int]:
        """Hop counts from ``source`` to every node."""
        return nx.single_source_shortest_path_length(self.graph, source)

    def host_distances(self, source: int) -> bytes:
        """Hop counts from ``source`` to every host, indexed by host id."""
        if source not in self._host_rows:
            row = self.row(source)
            self._host_rows[source] = bytes(row[h] for h in self.topology.hosts)
        return self._host_rows[source]

    def host_rows(self, sources: list[int]) -> list[list[int]]:
        """Distances from each source to every other host."""
        hosts = self.topology.hosts
        return [[d for h, d in zip(hosts, self.host_distances(s)) if h != s] for s in sources]


def check_diameter_sampled(value: int, rows: list[list[int]]) -> None:
    """Every sampled host eccentricity bounds the diameter from below, and
    twice the smallest one bounds it from above (triangle inequality)."""
    eccs = [max(r) for r in rows]
    expect(max(eccs) <= value <= 2 * min(eccs), "diameter_bounds",
           f"{value} outside [{max(eccs)}, {2 * min(eccs)}]")


def check_avg_sampled(value: float, rows: list[list[int]], population: int) -> None:
    """The all-pairs mean must lie within 4 standard errors of the mean over
    the sampled source hosts (finite-population corrected)."""
    means = [sum(r) / len(r) for r in rows]
    n = len(means)
    centre = sum(means) / n
    spread = statistics.stdev(means)
    fpc = math.sqrt(max(0.0, (population - n) / max(1, population - 1)))
    tolerance = 4 * spread / math.sqrt(n) * fpc + 1e-9
    expect(abs(value - centre) <= tolerance, "avg_path_sample",
           f"{value:.6f} vs sample {centre:.6f} +- {tolerance:.6f}")


def check_ecmp_columns(topology, tables, paths: ShortestPaths, destinations: list[int]) -> None:
    """For each sampled destination, every node's next hops are exactly its
    neighbours one hop closer to it."""
    neighbors = [[nb for nb, _ in adj] for adj in topology.adjacency]
    for dst in destinations:
        dist = paths.row(dst)
        for v in range(topology.num_nodes):
            if v == dst:
                continue
            want = tuple(sorted(nb for nb in neighbors[v] if dist[nb] == dist[v] - 1))
            got = tables[v].get(dst)
            expect(got is not None and tuple(sorted(got)) == want, "ecmp_next_hops",
                   f"node {v} -> {dst}: {got} != {want}")


# ---------------------------------------------------------------------------
# Bisection


def bisection_brute_force(topology) -> float:
    """Minimum balanced host-bipartition cut by networkx max-flow over every
    partition (small host counts only)."""
    g = nx.DiGraph()
    for link in topology.links:
        g.add_edge(link.a, link.b, capacity=link.capacity)
        g.add_edge(link.b, link.a, capacity=link.capacity)
    hosts = topology.hosts
    best = math.inf
    for combo in itertools.combinations(hosts[1:], len(hosts) // 2 - 1):
        side_a = set(combo) | {hosts[0]}
        trial = g.copy()
        for h in hosts:
            if h in side_a:
                trial.add_edge("s", h)
            else:
                trial.add_edge(h, "t")
        best = min(best, nx.maximum_flow_value(trial, "s", "t"))
    return best


def host_access_capacity(topology) -> list[float]:
    """Summed capacity of the links at each host, in host order."""
    cap = {h: 0.0 for h in topology.hosts}
    for link in topology.links:
        for end in (link.a, link.b):
            if end in cap:
                cap[end] += link.capacity
    return [cap[h] for h in topology.hosts]


# ---------------------------------------------------------------------------
# Traffic


def expected_destination(kind: str, src: int, n: int, bits: int):
    """Destination of a deterministic pattern, from its definition."""
    if kind == "complement":
        return (~src) & ((1 << bits) - 1)
    if kind == "reverse":
        return int(format(src, f"0{bits}b")[::-1], 2) if bits else src
    if kind == "tornado":
        return (src + (n - 1) // 2) % n
    return None


def active_hosts(hosts: list[int], kind: str) -> tuple[list[int], int, int]:
    """Senders, traffic size and bit width, as the simulator picks them: bit
    patterns run over the largest power-of-two host subset."""
    if kind in ("complement", "reverse"):
        bits = len(hosts).bit_length() - 1
        return hosts[: 1 << bits], 1 << bits, bits
    return hosts, len(hosts), 0


def sample(seq, count: int, seed: int) -> list:
    return sorted(random.Random(seed).sample(list(seq), min(count, len(seq))))
