"""Constructors for the surveyed data-center topologies.

All builders are pure functions of their parameters (and seed, for the
randomized ones), assign node ids hosts-first in a canonical order, and
record their own name as ``builder_params["builder"]``. What the name
implies is said once, here and in the routers, not copied into each node or
topology: :data:`TAXONOMY` maps it to the survey's classification of the
design, and ``dcnbench.routing.SPECIALIZED_MODES`` to the routing that
computes routes from its parameters and node numbering.

The recursive server-centric topologies share one construction step, the
complete join of :func:`_join_complete`: over sub-units 0..g, sub-unit i's
(j-1)-th member links to sub-unit j's i-th member for every i < j. DCell
joins its sub-cells with it at every level; HCN and BCN join their modules
at every level, and BCN its units in the second dimension; MDCube joins the
containers of each row and of each column through designated switches.
"""

from __future__ import annotations

import os
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import (
    Address,
    Link,
    Node,
    NodeKind,
    Topology,
    TopologyError,
    check_count,
    check_number,
)

DEFAULT_SIZE_CAP = 100_000


class SizeCapError(TopologyError):
    """Requested topology exceeds the configured node cap."""


def size_cap() -> int:
    raw = os.environ.get("DCNBENCH_SIZE_CAP", str(DEFAULT_SIZE_CAP))
    try:
        return int(raw)
    except ValueError:
        raise SizeCapError(f"DCNBENCH_SIZE_CAP must be an integer, got {raw!r}") from None


def _check_cap(num_nodes: int, what: str) -> None:
    cap = size_cap()
    if num_nodes > cap:
        raise SizeCapError(
            f"{what} needs more nodes than the cap of {cap} "
            f"(override with DCNBENCH_SIZE_CAP)"
        )


def _capped_power(base: int, exp: int, what: str) -> int:
    """``base ** exp``, a lower bound on the node count of ``what``, checked against
    the cap before it is formed: a base >= 2 passes it within cap.bit_length() factors."""
    _check_cap(base ** min(exp, size_cap().bit_length()), what)
    return base**exp


def _flat_nodes(num_hosts: int, host_radix: int, num_switches: int, switch_radix: int) -> list[Node]:
    """Hosts then switches, all with flat addresses: one shared record per
    kind, since a record holds no id and cannot be assigned."""
    host, switch = Node(NodeKind.HOST, host_radix), Node(NodeKind.SWITCH, switch_radix)
    return [host] * num_hosts + [switch] * num_switches


@dataclass(frozen=True)
class TaxonomyRecord:
    """Classification of a design along the survey's design axes."""

    build_approach: str  # "random" | "deterministic"
    centricity: str  # "server-centric" | "switch-centric"
    directness: str  # "direct" | "indirect"
    symmetric: bool
    extensible: bool
    deployment: str  # "modular" | "non-modular"
    blocking: str  # "non-blocking" | "blocking"
    tiers: str  # "flat" | "fixed(<n>)" | "n-tier"


FAT_TREE_TAXONOMY = TaxonomyRecord(
    build_approach="deterministic",
    centricity="switch-centric",
    directness="indirect",
    symmetric=True,
    extensible=False,
    deployment="non-modular",
    blocking="non-blocking",
    tiers="fixed(3)",
)

DCELL_TAXONOMY = TaxonomyRecord(
    build_approach="deterministic",
    centricity="server-centric",
    directness="direct",
    symmetric=False,
    extensible=False,
    deployment="non-modular",
    blocking="blocking",
    tiers="n-tier",
)

BCUBE_TAXONOMY = TaxonomyRecord(
    build_approach="deterministic",
    centricity="server-centric",
    directness="direct",
    symmetric=True,
    extensible=False,
    deployment="modular",
    blocking="blocking",
    tiers="n-tier",
)

JELLYFISH_TAXONOMY = TaxonomyRecord(
    build_approach="random",
    centricity="switch-centric",
    directness="direct",
    symmetric=False,
    extensible=True,
    deployment="non-modular",
    blocking="blocking",
    tiers="flat",
)

SCAFIDA_TAXONOMY = TaxonomyRecord(
    build_approach="random",
    centricity="server-centric",
    directness="direct",
    symmetric=False,
    extensible=True,
    deployment="non-modular",
    blocking="blocking",
    tiers="flat",
)

HCN_TAXONOMY = TaxonomyRecord(
    build_approach="deterministic",
    centricity="server-centric",
    directness="direct",
    symmetric=True,
    extensible=True,
    deployment="non-modular",
    blocking="blocking",
    tiers="n-tier",
)

# builder name -> the survey's classification of that design; F10 and the
# Facebook fabric are fat trees, MDCube is built of BCubes, BCN extends HCN
TAXONOMY = {
    "fat_tree": FAT_TREE_TAXONOMY,
    "f10": FAT_TREE_TAXONOMY,
    "facebook_fabric": FAT_TREE_TAXONOMY,
    "dcell": DCELL_TAXONOMY,
    "bcube": BCUBE_TAXONOMY,
    "mdcube": BCUBE_TAXONOMY,
    "jellyfish": JELLYFISH_TAXONOMY,
    "scafida": SCAFIDA_TAXONOMY,
    "hcn": HCN_TAXONOMY,
    "bcn": HCN_TAXONOMY,
}


# ---------------------------------------------------------------------------
# Fat-tree family


def _fat_tree_family(
    builder: str, k: int, hosts_per_edge: Optional[int], core_stripe_of_agg
) -> Topology:
    """Fat-tree nodes and links (``hosts_per_edge`` defaults to k/2), with the
    aggregation-to-core wiring given by ``core_stripe_of_agg(pod, agg)``."""
    half = k // 2
    if hosts_per_edge is None:
        hosts_per_edge = half
    check_count("hosts_per_edge", hosts_per_edge)
    num_hosts = k * half * hosts_per_edge
    _check_cap(num_hosts + k * k + half * half, f"{builder}(k={k})")
    edge_base = num_hosts
    agg_base = edge_base + k * half
    core_base = agg_base + k * half
    switch_radix = max(k, hosts_per_edge + half)
    nodes = []
    for p in range(k):
        for e in range(half):
            for h in range(hosts_per_edge):
                nodes.append(Node(NodeKind.HOST, 1, Address((0, p, e, h))))
    for layer in (1, 2):  # edge, then aggregation
        for p in range(k):
            for i in range(half):
                nodes.append(Node(NodeKind.SWITCH, switch_radix, Address((layer, p, i, 0))))
    for c in range(half * half):
        nodes.append(Node(NodeKind.SWITCH, switch_radix, Address((3, k, c // half, c % half))))
    links = []
    for p in range(k):
        for e in range(half):
            edge = edge_base + p * half + e
            for h in range(hosts_per_edge):
                host = (p * half + e) * hosts_per_edge + h
                links.append(Link(host, edge))
            for a in range(half):
                links.append(Link(edge, agg_base + p * half + a))
        for a in range(half):
            agg = agg_base + p * half + a
            for core in core_stripe_of_agg(p, a):
                links.append(Link(agg, core_base + core))
    return Topology(
        nodes,
        links,
        builder_params={"builder": builder, "k": k, "hosts_per_edge": hosts_per_edge},
    )


def build_fat_tree(k: int, hosts_per_edge: Optional[int] = None) -> Topology:
    """k-ary fat tree: k pods of k/2 edge + k/2 aggregation switches,
    (k/2)^2 core switches, and k/2 hosts per edge switch (k^3/4 total).

    ``hosts_per_edge`` overrides the per-edge host count (e.g. 1 replicates
    the survey's 8-host evaluation setup) without touching the switch fabric.
    """
    check_count("k", k, 2)
    if k % 2 != 0:
        raise TopologyError(f"fat tree requires even k, got {k}")
    half = k // 2

    def stripe(p: int, a: int) -> range:
        return range(a * half, (a + 1) * half)

    return _fat_tree_family("fat_tree", k, hosts_per_edge, stripe)


def build_f10(k: int, hosts_per_edge: Optional[int] = None) -> Topology:
    """AB fat tree: identical node counts to the fat tree, but pods alternate
    between two aggregation-to-core wirings (type A: block striping, type B:
    strided striping) so a core can reach a pod through a second aggregation
    switch in two extra hops when one fails.
    """
    check_count("k", k, 4)
    if k % 2 != 0:
        raise TopologyError(f"F10 requires even k, got {k}")
    half = k // 2

    def stripe(p: int, a: int) -> range:
        if p % 2 == 0:  # type A
            return range(a * half, (a + 1) * half)
        return range(a, half * half, half)  # type B

    return _fat_tree_family("f10", k, hosts_per_edge, stripe)


def build_facebook_fabric(
    edge_switches: int = 48,
    agg_switches: int = 4,
    hosts_per_edge: int = 1,
    planes: int = 1,
    host_link_capacity: float = 1.0,
    fabric_link_capacity: float = 4.0,
) -> Topology:
    """Scaled Facebook fabric: every edge switch links to every aggregation
    switch in each plane. Fabric links default to 4x the host link capacity,
    modeling 40G uplinks over 10G host downlinks.
    """
    check_count("edge_switches", edge_switches)
    check_count("agg_switches", agg_switches)
    check_count("hosts_per_edge", hosts_per_edge, 0)
    check_count("planes", planes)
    for name, capacity in (("host_link_capacity", host_link_capacity),
                           ("fabric_link_capacity", fabric_link_capacity)):
        check_number(name, capacity)
        if not 0 < capacity < float("inf"):  # NaN fails every comparison
            raise TopologyError(f"{name} must be a finite number > 0, got {capacity}")
    num_hosts = edge_switches * hosts_per_edge
    num_switches = edge_switches + planes * agg_switches
    _check_cap(num_hosts + num_switches, "facebook_fabric")
    nodes = []
    for e in range(edge_switches):
        for h in range(hosts_per_edge):
            nodes.append(Node(NodeKind.HOST, 1, Address((0, 0, e, h))))
    edge_base = num_hosts
    edge_radix = hosts_per_edge + planes * agg_switches
    for e in range(edge_switches):
        nodes.append(Node(NodeKind.SWITCH, edge_radix, Address((1, 0, e, 0))))
    agg_base = edge_base + edge_switches
    for pl in range(planes):
        for a in range(agg_switches):
            nodes.append(Node(NodeKind.SWITCH, edge_switches, Address((2, pl, a, 0))))
    links = []
    for e in range(edge_switches):
        edge = edge_base + e
        for h in range(hosts_per_edge):
            links.append(Link(e * hosts_per_edge + h, edge, host_link_capacity))
        for pl in range(planes):
            for a in range(agg_switches):
                links.append(
                    Link(edge, agg_base + pl * agg_switches + a, fabric_link_capacity)
                )
    return Topology(
        nodes,
        links,
        builder_params={
            "builder": "facebook_fabric",
            "edge_switches": edge_switches,
            "agg_switches": agg_switches,
            "hosts_per_edge": hosts_per_edge,
            "planes": planes,
            "host_link_capacity": host_link_capacity,
            "fabric_link_capacity": fabric_link_capacity,
        },
    )


# ---------------------------------------------------------------------------
# Complete join of sub-units (DCell, HCN, BCN, MDCube)


def _join_complete(groups: Sequence[Sequence[int]]) -> list[Link]:
    """One link per pair of sub-units i < j, from sub-unit i's (j-1)-th
    member to sub-unit j's i-th member, in (i, j) order. Each sub-unit needs
    at least ``len(groups) - 1`` members."""
    return [
        Link(groups[i][j - 1], groups[j][i])
        for i in range(len(groups))
        for j in range(i + 1, len(groups))
    ]


# ---------------------------------------------------------------------------
# DCell


def _dcell_t_list(n: int, level: int, limit: float = float("inf")) -> list[int]:
    """Host counts t_0..t_level of DCell(n, level): t_0 = n, t_l = t_{l-1}*(t_{l-1}+1).
    The list ends early at the first count above ``limit``."""
    check_count("n", n, 2)
    check_count("level", level, 0)
    ts = [n]
    while len(ts) <= level and ts[-1] <= limit:
        ts.append(ts[-1] * (ts[-1] + 1))
    return ts


def dcell_host_count(n: int, level: int) -> int:
    """Host count t_level of DCell(n, level)."""
    return _dcell_t_list(n, level)[-1]


def build_dcell(n: int, level: int) -> Topology:
    """Recursive DCell: DCell_0 is n hosts on one switch; DCell_l is
    (t_{l-1}+1) copies of DCell_{l-1} pairwise joined by one host-to-host
    link each (sub-cell i's (j-1)-th host to sub-cell j's i-th host).
    """
    ts = _dcell_t_list(n, level, size_cap())  # ends early only past the cap
    num_hosts = ts[-1]
    num_switches = num_hosts // n
    _check_cap(num_hosts + num_switches, f"dcell(n={n}, level={level})")

    def digits_of(uid: int) -> tuple[int, ...]:
        ds = []
        rest = uid
        for m in range(level, 0, -1):
            ds.append(rest // ts[m - 1])
            rest %= ts[m - 1]
        ds.append(rest)
        return tuple(ds)

    nodes = []
    for uid in range(num_hosts):
        nodes.append(Node(NodeKind.HOST, level + 1, Address(digits_of(uid))))
    for c in range(num_switches):
        prefix = digits_of(c * n)[:-1]
        nodes.append(Node(NodeKind.SWITCH, n, Address(prefix + (n,))))
    links = []
    for uid in range(num_hosts):
        links.append(Link(uid, num_hosts + uid // n))
    for m in range(1, level + 1):
        sub = ts[m - 1]
        cell_size = ts[m]
        for base in range(0, num_hosts, cell_size):
            links += _join_complete(
                [range(start, start + sub) for start in range(base, base + cell_size, sub)]
            )
    return Topology(
        nodes, links, builder_params={"builder": "dcell", "n": n, "level": level, "t": ts}
    )


# ---------------------------------------------------------------------------
# BCube and MDCube


def _base_digits(x: int, n: int, count: int) -> tuple[int, ...]:
    """The ``count`` lowest base-n digits of x, most significant first."""
    digits = []
    for _ in range(count):
        digits.append(x % n)
        x //= n
    digits.reverse()
    return tuple(digits)


def _bcube_links(n: int, k: int) -> list[Link]:
    """Links of one BCube(n, k), hosts-first: the n^(k+1) hosts are ids
    0.., then the level-0 switches, the level-1 switches and so on."""
    num_hosts = n ** (k + 1)
    per_level = n**k
    links = []
    for i in range(k + 1):
        stride = n**i
        for m in range(per_level):
            # expand m's digits around position i to enumerate attached hosts
            high, low = divmod(m, stride)
            base_uid = high * stride * n + low
            switch = num_hosts + i * per_level + m
            for d in range(n):
                links.append(Link(base_uid + d * stride, switch))
    return links


def build_bcube(n: int, k: int) -> Topology:
    """BCube(n, k): n^(k+1) hosts addressed by k+1 base-n digits; the level-i
    switch for each digit combination joins the n hosts differing only in
    digit i. (k+1)*n^k switches total.
    """
    check_count("n", n, 2)
    check_count("k", k, 0)
    what = f"bcube(n={n}, k={k})"
    num_hosts = _capped_power(n, k + 1, what)
    _check_cap(num_hosts + (k + 1) * n**k, what)
    nodes = []
    for uid in range(num_hosts):
        nodes.append(Node(NodeKind.HOST, k + 1, Address(_base_digits(uid, n, k + 1))))
    for i in range(k + 1):
        for m in range(n**k):
            nodes.append(Node(NodeKind.SWITCH, n, Address((i,) + _base_digits(m, n, k))))
    return Topology(nodes, _bcube_links(n, k), builder_params={"builder": "bcube", "n": n, "k": k})


def build_mdcube(rows: int, cols: int, n: int, k: int) -> Topology:
    """MDCube: a rows x cols grid of BCube(n, k) containers, with containers
    in the same row (and same column) pairwise joined by one link between
    designated switches, forming a complete graph per dimension.
    """
    check_count("rows", rows)
    check_count("cols", cols)
    check_count("n", n, 2)
    check_count("k", k, 0)
    per_hosts = _capped_power(n, k + 1, "mdcube")
    per_switches = (k + 1) * n**k
    containers = rows * cols
    inter_per_container = (rows - 1) + (cols - 1)
    if inter_per_container > per_switches:
        raise TopologyError(
            f"container has {per_switches} switches but needs "
            f"{inter_per_container} inter-container ports"
        )
    _check_cap(containers * (per_hosts + per_switches), "mdcube")
    blinks = _bcube_links(n, k)
    host_total = containers * per_hosts
    nodes = _flat_nodes(host_total, k + 1, containers * per_switches, n + 1)
    links = []
    for q in range(containers):
        hbase = q * per_hosts
        sbase = host_total + q * per_switches
        for link in blinks:  # BCube links run host to switch
            links.append(Link(hbase + link.a, sbase + (link.b - per_hosts)))

    # a container's first cols-1 switches join its row, the next rows-1 its column
    first_switch = [host_total + q * per_switches for q in range(containers)]
    for r in range(rows):
        links += _join_complete(
            [range(first_switch[q], first_switch[q] + cols - 1)
             for q in range(r * cols, (r + 1) * cols)]
        )
    for c in range(cols):
        links += _join_complete(
            [range(first_switch[q] + cols - 1, first_switch[q] + inter_per_container)
             for q in range(c, containers, cols)]
        )
    return Topology(
        nodes,
        links,
        builder_params={
            "builder": "mdcube", "rows": rows, "cols": cols, "n": n, "k": k,
        },
    )


# ---------------------------------------------------------------------------
# Jellyfish


def _random_regular_switch_graph(
    num_switches: int, r: int, rng: random.Random, max_repairs: int
) -> list[tuple[int, int]]:
    """Random r-regular graph on switch indices via stub pairing, repaired
    with the rewiring move (remove (y,z), add two links) when pairing stalls.

    ``urn`` holds one entry per free stub, sorted by switch. It is built
    once; each link that uses a stub of ``u`` deletes that stub at
    ``bisect_left(urn, u)``, so the urn stays sorted and equals the list a
    rebuild from per-switch free counts would give: every draw, every
    repair and the rng state afterwards match that rebuild's. A
    deletion is one C-level ``memmove``, so pairing costs O(links) Python
    steps where a rebuild per link would cost O(links x stubs).
    """
    urn = [s for s in range(num_switches) for _ in range(r)]
    adjacent: list[set[int]] = [set() for _ in range(num_switches)]
    edges: list[tuple[int, int]] = []
    repairs = 0
    while urn:
        # try random pairings
        for _ in range(20 * len(urn) + 20):
            u = urn[rng.randrange(len(urn))]
            v = urn[rng.randrange(len(urn))]
            if u != v and v not in adjacent[u]:
                new_links = ((u, v),)
                break
        else:
            # pairing stalled: rewire an existing link through a free-port switch
            if repairs >= max_repairs:
                raise TopologyError(
                    f"jellyfish pairing stalled after {repairs} repairs "
                    f"(num_switches={num_switches}, r={r})"
                )
            repairs += 1
            # take two distinct stubs (same switch only if it holds both)
            i = rng.randrange(len(urn))
            j = rng.randrange(len(urn) - 1)
            if j >= i:
                j += 1
            u, v = urn[i], urn[j]
            candidates = [
                (i, y, z)
                for i, (y, z) in enumerate(edges)
                if y not in adjacent[u] and z not in adjacent[v]
                and y not in (u, v) and z not in (u, v)
            ]
            if not candidates:
                raise TopologyError("jellyfish repair found no removable link")
            i, y, z = candidates[rng.randrange(len(candidates))]
            edges.pop(i)
            adjacent[y].discard(z)
            adjacent[z].discard(y)
            # y and z swap one neighbor for another; only u and v consume stubs
            new_links = ((u, y), (v, z))
        for a, b in new_links:
            edges.append((a, b))
            adjacent[a].add(b)
            adjacent[b].add(a)
        del urn[bisect_left(urn, u)]
        del urn[bisect_left(urn, v)]
    return edges


def _join_components(
    edges: list[tuple[int, int]], num_switches: int, rng: random.Random
) -> None:
    """Join the components of a simple switch graph with every degree >= 2
    into one, in place, keeping every degree.

    Each round grows a search tree over switch 0's component and swaps two
    links. A random link (a, b) of that component that is not in the tree
    closes a cycle, so the component stays connected without it; it and a
    random link (c, d) of another component become (a, c) and (b, d). Each
    part of the other component left without (c, d) holds c or d, so the
    two components become one; a and c (b and d) were in different
    components, so no link repeats. Degree >= 2 gives the component more
    links than its tree has, so (a, b) exists.
    """
    while True:
        adjacent: list[list[int]] = [[] for _ in range(num_switches)]
        for u, v in edges:
            adjacent[u].append(v)
            adjacent[v].append(u)
        parent = [-1] * num_switches  # -1: not reached from switch 0
        parent[0] = 0
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adjacent[v]:
                if parent[w] < 0:
                    parent[w] = v
                    stack.append(w)
        outside = [i for i, (c, _) in enumerate(edges) if parent[c] < 0]
        if not outside:
            return
        on_cycle = [
            i for i, (a, b) in enumerate(edges)
            if parent[a] >= 0 and parent[a] != b and parent[b] != a
        ]
        i, j = on_cycle[rng.randrange(len(on_cycle))], outside[rng.randrange(len(outside))]
        (a, b), (c, d) = edges[i], edges[j]
        edges[i], edges[j] = (a, c), (b, d)


def _jellyfish_topology(
    switch_edges: list[tuple[int, int]],
    num_switches: int,
    ports: int,
    r: int,
    params: dict,
) -> Topology:
    hosts_per_switch = ports - r
    num_hosts = num_switches * hosts_per_switch
    nodes = _flat_nodes(num_hosts, 1, num_switches, ports)
    links = []
    for s in range(num_switches):
        for h in range(hosts_per_switch):
            links.append(Link(s * hosts_per_switch + h, num_hosts + s))
    for u, v in switch_edges:
        links.append(Link(num_hosts + u, num_hosts + v))
    return Topology(nodes, links, builder_params=params)


def build_jellyfish(num_switches: int, ports: int, r: int, seed: int = 0) -> Topology:
    """Jellyfish: a random r-regular graph over switches, with the remaining
    ports - r ports of each switch attached to hosts. Deterministic per seed.

    A pairing that stalls is drawn again, up to 8 times; one that comes out
    disconnected is joined into one component (see :func:`_join_components`).
    The stub pairing draws from one sorted urn of free stubs that shrinks
    link by link (see :func:`_random_regular_switch_graph`).
    """
    check_count("num_switches", num_switches, 2)
    check_count("ports", ports, 2)
    check_count("r", r)  # r = 0 gives a disconnected switch cloud
    check_count("seed", seed, None)
    if r >= ports:
        raise TopologyError(f"need r < ports, got r={r}, ports={ports}")
    if r == 1 and num_switches > 2:
        raise TopologyError(f"r = 1 pairs switches off, so {num_switches} switches cannot connect")
    if num_switches < r + 1:
        raise TopologyError(f"r-regular graph needs at least r+1={r + 1} switches")
    if num_switches * r % 2 != 0:
        raise TopologyError("num_switches * r must be even for an r-regular graph")
    _check_cap(num_switches * (1 + ports - r), "jellyfish")
    rng = random.Random(seed)
    params = {"builder": "jellyfish", "num_switches": num_switches,
              "ports": ports, "r": r, "seed": seed}
    for attempt in range(8):
        try:
            edges = _random_regular_switch_graph(
                num_switches, r, rng, max_repairs=10 * num_switches + 50
            )
        except TopologyError:  # only its two stall checks raise
            continue
        _join_components(edges, num_switches, rng)
        return _jellyfish_topology(edges, num_switches, ports, r, params)
    raise TopologyError("jellyfish pairing stalled 8 times")


def expand_jellyfish(topology: Topology, seed: int = 0) -> Topology:
    """Add one switch to a jellyfish topology by repeatedly removing a random
    switch link (x, y) and adding (x, new) and (y, new), preserving existing
    switch degrees. The new switch has the topology's own ``ports`` and
    ``r``, read from its ``builder_params``, and ``ports - r`` hosts.

    With odd r the splits leave the new switch at r - 1 switch links. A
    switch with fewer than r switch links, left so by an earlier expansion,
    is kept out of the splits, and the new switch links to the first of
    them: after an even number of expansions no switch port is idle, after
    an odd number one is.
    """
    check_count("seed", seed, None)
    params = dict(topology.builder_params)
    if params.get("builder") != "jellyfish":
        raise TopologyError("expand_jellyfish requires a jellyfish-built topology")
    ports, r, num_switches = params["ports"], params["r"], params["num_switches"]
    if r < 2:
        raise TopologyError("expansion requires r >= 2")
    _check_cap((num_switches + 1) * (1 + ports - r), "expand_jellyfish")
    rng = random.Random(seed)
    num_hosts = topology.num_hosts
    switch_edges = [  # in switch indices
        (link.a - num_hosts, link.b - num_hosts)
        for link in topology.links
        if link.a >= num_hosts and link.b >= num_hosts
    ]
    links_of = [0] * num_switches
    for u, v in switch_edges:
        links_of[u] += 1
        links_of[v] += 1
    spare = [s for s in range(num_switches) if links_of[s] < r]
    new_switch = num_switches
    excluded = set(spare)  # and the new switch's neighbours, so no link repeats
    for _ in range(r // 2):
        candidates = [
            i for i, (u, v) in enumerate(switch_edges)
            if u not in excluded and v not in excluded
        ]
        if not candidates:
            raise TopologyError("no removable link available for expansion")
        i = candidates[rng.randrange(len(candidates))]
        u, v = switch_edges.pop(i)
        switch_edges.append((u, new_switch))
        switch_edges.append((v, new_switch))
        excluded.update((u, v))
    if r % 2 and spare:
        switch_edges.append((spare[0], new_switch))
    params["num_switches"] = num_switches + 1
    params["expanded"] = params.get("expanded", 0) + 1
    return _jellyfish_topology(switch_edges, num_switches + 1, ports, r, params)


# ---------------------------------------------------------------------------
# Scafida


def build_scafida(
    num_switches: int,
    num_hosts: int,
    max_degree: int,
    seed: int = 0,
    switch_links: int = 2,
    host_links: int = 4,
) -> Topology:
    """Scale-free-style growth: nodes arrive one at a time and attach their
    links to existing switches chosen preferentially by degree (endpoint urn),
    skipping switches already at ``max_degree``. Switches arrive first with
    ``switch_links`` attachments each, then multi-homed hosts with up to
    ``host_links`` uplinks to distinct switches. A host leaves one free
    switch port for each host after it, so every host gets an uplink; raises
    :class:`TopologyError` when the switches have fewer free ports than
    there are hosts. Deterministic per seed.
    """
    check_count("num_switches", num_switches)
    check_count("num_hosts", num_hosts, 0)
    check_count("max_degree", max_degree, 2)
    check_count("switch_links", switch_links)
    check_count("host_links", host_links)
    check_count("seed", seed, None)
    _check_cap(num_switches + num_hosts, "scafida")
    rng = random.Random(seed)
    host_cap = min(host_links, max_degree)
    # internal switch keys 0..S-1, host keys S..S+H-1; len(neighbor[x]) is x's degree
    neighbor: list[set[int]] = [set() for _ in range(num_switches + num_hosts)]
    urn: list[int] = []  # one switch entry per attached link endpoint
    edges: list[tuple[int, int]] = []

    def attach(node: int, want: int, cap_self: int) -> int:
        made = 0
        for _ in range(want):
            if len(neighbor[node]) >= cap_self:
                break
            target = -1
            for _ in range(4 * len(urn) + 8):
                if not urn:
                    break
                t = urn[rng.randrange(len(urn))]
                if t != node and len(neighbor[t]) < max_degree and t not in neighbor[node]:
                    target = t
                    break
            if target < 0:
                eligible = [
                    s for s in range(min(node, num_switches))
                    if len(neighbor[s]) < max_degree and s not in neighbor[node] and s != node
                ]
                if not eligible:
                    break
                target = eligible[rng.randrange(len(eligible))]
            edges.append((target, node))
            neighbor[node].add(target)
            neighbor[target].add(node)
            urn.append(target)
            made += 1
        return made

    for s in range(1, num_switches):
        made = attach(s, min(switch_links, s), max_degree)
        if made == 0:
            raise TopologyError(
                f"switch {s} could not attach: connectivity unattainable under "
                f"max_degree={max_degree}"
            )
    # free switch ports; host h leaves one for each host after it, so an
    # early host's multi-homing cannot strand a late one
    free = num_switches * max_degree - 2 * len(edges)
    if free < num_hosts:
        raise TopologyError(
            f"{num_hosts} hosts need a switch port each, but {free} are free "
            f"under max_degree={max_degree}"
        )
    for h in range(num_hosts):
        cap = min(host_cap, free - (num_hosts - 1 - h))
        free -= attach(num_switches + h, cap, cap)
    nodes = _flat_nodes(num_hosts, host_cap, num_switches, max_degree)

    def to_id(key: int) -> int:
        return num_hosts + key if key < num_switches else key - num_switches

    links = [Link(to_id(a), to_id(b)) for a, b in edges]
    return Topology(
        nodes,
        links,
        builder_params={
            "builder": "scafida", "num_switches": num_switches,
            "num_hosts": num_hosts, "max_degree": max_degree, "seed": seed,
            "switch_links": switch_links, "host_links": host_links,
        },
    )


# ---------------------------------------------------------------------------
# HCN and BCN


def _hcn_links(groups: list[list[int]], fanout: int) -> tuple[list[Link], list[int]]:
    """Pairwise-interconnect free host ports HCN-style, ``fanout`` modules
    to a module of the next level, until one module is left.

    ``groups`` holds the ordered free-port host lists of the level-0 modules.
    Returns the host-to-host links and the free ports left at the top level.
    With ``fanout ** h`` groups that is h levels; one group (BCN with alpha
    = 1, where a level would join no modules) takes none.
    """
    links = []
    modules = groups
    while len(modules) > 1:
        next_modules = []
        for base in range(0, len(modules), fanout):
            chunk = modules[base : base + fanout]
            links += _join_complete(chunk)
            next_modules.append([sub[fanout - 1] for sub in chunk])
        modules = next_modules
    return links, modules[0]


def build_hcn(n: int, h: int) -> Topology:
    """HCN(n, h): n^h groups of n dual-port hosts on an n-port switch,
    recursively interconnected through the hosts' second ports; n ports
    remain free at the top for further extension.
    """
    check_count("n", n, 2)
    check_count("h", h, 0)
    what = f"hcn(n={n}, h={h})"
    num_hosts = _capped_power(n, h + 1, what)
    num_groups = n**h
    _check_cap(num_hosts + num_groups, what)
    nodes = _flat_nodes(num_hosts, 2, num_groups, n)
    links = [Link(i, num_hosts + i // n) for i in range(num_hosts)]
    groups = [[g * n + p for p in range(n)] for g in range(num_groups)]
    host_links, free_ports = _hcn_links(groups, n)
    links += host_links
    return Topology(
        nodes, links, builder_params={"builder": "hcn", "n": n, "h": h, "free_ports": free_ports}
    )


def build_bcn(alpha: int, beta: int, h: int) -> Topology:
    """BCN(alpha, beta, h): units recurse HCN-style over the alpha master
    servers per group; the alpha^h * beta slave servers of each unit then form
    a complete graph over alpha^h * beta + 1 units in the second dimension.
    """
    check_count("alpha", alpha)
    check_count("beta", beta, 0)
    check_count("h", h, 0)
    n = alpha + beta
    what = f"bcn(alpha={alpha}, beta={beta}, h={h})"
    groups_per_unit = _capped_power(alpha, h, what)
    hosts_per_unit = groups_per_unit * n
    slaves_per_unit = groups_per_unit * beta
    units = slaves_per_unit + 1
    num_hosts = units * hosts_per_unit
    num_switches = units * groups_per_unit
    _check_cap(num_hosts + num_switches, what)
    nodes = _flat_nodes(num_hosts, 2, num_switches, n)
    links = []
    slave_lists = []
    for u in range(units):
        hbase = u * hosts_per_unit
        sbase = num_hosts + u * groups_per_unit
        slaves = []
        master_groups = []
        for g in range(groups_per_unit):
            gbase = hbase + g * n
            for p in range(n):
                links.append(Link(gbase + p, sbase + g))
            master_groups.append([gbase + p for p in range(alpha)])
            slaves.extend(gbase + alpha + q for q in range(beta))
        master_links, _ = _hcn_links(master_groups, alpha)
        links += master_links
        slave_lists.append(slaves)
    links += _join_complete(slave_lists)
    return Topology(
        nodes,
        links,
        builder_params={
            "builder": "bcn", "alpha": alpha, "beta": beta, "h": h, "units": units,
        },
    )


# ---------------------------------------------------------------------------
# Presets

PRESETS = {
    "fat-tree-k4": lambda seed=0: build_fat_tree(4),
    "fat-tree-k4-paper": lambda seed=0: build_fat_tree(4, hosts_per_edge=1),
    "dcell-n4-l1": lambda seed=0: build_dcell(4, 1),
    "dcell-n6-l1": lambda seed=0: build_dcell(6, 1),
    "bcube-n4-k1": lambda seed=0: build_bcube(4, 1),
    "facebook-scaled": lambda seed=0: build_facebook_fabric(48, 4, 1, 1),
    "f10-k4": lambda seed=0: build_f10(4),
    "jellyfish-s10-p4-r3": lambda seed=0: build_jellyfish(10, 4, 3, seed),
}


def build_preset(name: str, seed: int = 0) -> Topology:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise TopologyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    check_count("seed", seed, None)  # also for the presets that take no seed
    return factory(seed)
