"""Route computation: generic ECMP over shortest paths plus the specialized
per-topology algorithms (fat-tree up/down, DCell divide-and-conquer, BCube
digit correction, F10 failure detours). Hop counts are link counts; routes
are node-id sequences from source host to destination host.

Every routing mode is one router factory of one shape,
``(topology) -> (src, dst, rng) -> Route``: :func:`ecmp_router`,
:func:`fat_tree_router`, :func:`dcell_router` and :func:`bcube_router`. A
factory checks its topology and computes once what a lookup reads. ECMP
builds next hops per host twin class for each node of the twin quotient, a
twin sharing its class's first member's, and :func:`compute_ecmp_tables`
serves them as per-node tables too; its callable only indexes those. A
specialized factory accepts only a topology whose builder
:data:`SPECIALIZED_MODES` maps to its mode and reads that builder's
parameters; its callable does integer arithmetic on node ids.
:func:`route_provider` picks the factory. Every lookup raises
:class:`TopologyError`, after an O(1) test, when ``src == dst`` or an
endpoint is not a host.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from typing import Callable, Iterator, Optional, Sequence

from .graph import (
    NodeKind,
    Topology,
    TopologyError,
    check_node_ids,
    host_twin_quotient,
    multi_source_bfs,
)

Route = list[int]
Router = Callable[[int, int, random.Random], Route]

# compared per node or endpoint: a module global reads faster than
# ``NodeKind.HOST``, a class attribute of the Enum, on Python 3.10 and 3.11
_HOST = NodeKind.HOST
_SWITCH = NodeKind.SWITCH

# builder name -> the specialized mode that routes by its parameters and node
# numbering; each of those modes accepts only a topology its builder maps to it
SPECIALIZED_MODES = {
    "fat_tree": "fat-tree",
    "f10": "fat-tree",
    "facebook_fabric": "fat-tree",
    "dcell": "dcell",
    "bcube": "bcube",
}


def _specialized_params(topology: Topology, mode: str) -> dict:
    """The topology's builder parameters, if its builder routes by ``mode``."""
    params = topology.builder_params
    if SPECIALIZED_MODES.get(params.get("builder")) != mode:
        raise TopologyError(f"{mode} routing requires a {mode} topology")
    return params


def check_route(topology: Topology, route: Sequence[int]) -> None:
    """Assert the route is adjacent-consecutive, loop-free, host-terminated
    and made of node ids ``0..num_nodes-1`` (a negative id would wrap)."""
    if len(route) < 2:
        raise TopologyError(f"route too short: {route}")
    if min(route) < 0 or max(route) >= topology.num_nodes:
        raise TopologyError(f"route leaves node ids 0..{topology.num_nodes - 1}: {route}")
    if len(set(route)) != len(route):
        raise TopologyError(f"route repeats a node: {route}")
    for end in (route[0], route[-1]):
        if topology.nodes[end].kind is not _HOST:
            raise TopologyError(f"route endpoint {end} is not a host")
    for u, v in zip(route, route[1:]):
        if v not in topology.neighbors[u]:
            raise TopologyError(f"route step {u}->{v} is not a link")


# ---------------------------------------------------------------------------
# ECMP


def _ecmp_rows(topology: Topology) -> tuple[dict[int, tuple[int, int]], list[list[tuple]]]:
    """The one ECMP build: ``class_of`` maps each host to its twin class
    ``c`` and the class's first member, its representative, and
    ``rows[v][c]`` is ``v``'s sorted next-hop tuple towards that
    representative; the representative's own slot holds the class's
    neighbours.

    One :func:`multi_source_bfs` sweep starts from the representatives, on
    the twin quotient (:func:`host_twin_quotient`: every other twin is
    blocked). A neighbour ``nb`` of a node ``v`` the sweep keeps is a next
    hop towards class ``c`` when ``v`` gains bit ``c`` at level ``d`` and
    ``nb`` at ``d - 1``. A blocked twin ``nb`` of class ``k`` takes its
    representative's mask with bit ``k`` cleared: it is 2 from that
    representative and as far as the representative from every other, so
    twins that forward traffic stay next hops. Splitting the full class
    mask by these per-neighbour masks, in ascending neighbour order with
    link multiplicity, gives the node's few distinct tuples: the largest
    group fills the row and each other overwrites its slots from the top
    bit down (no ``mask & -mask`` temporaries). A twin shares its
    representative's row object, which is its own row too. A disconnected
    topology raises :class:`TopologyError`.
    """
    classes, twins = host_twin_quotient(topology)
    reps = [members[0] for _, members in classes]
    num_nodes = topology.num_nodes
    neighbours = topology.neighbors
    closer: dict[int, dict[int, int]] = {v: {} for v in range(num_nodes) if v not in twins}
    swept = 0
    # the bits each node last gained: not zeroed between levels, since a bit
    # nb gained before level d - 1 is never one its neighbour v gains at d
    was = [0] * num_nodes
    for gained in multi_source_bfs(topology, reps, twins):
        for v, bits in gained.items():
            swept += bits.bit_count()
            masks = closer[v]
            for nb in neighbours[v]:
                step = bits & was[nb]
                if step:
                    masks[nb] = masks.get(nb, 0) | step
        for v, bits in gained.items():
            was[v] = bits
    if swept != len(closer) * len(classes):  # each kept node gains each bit at most once
        raise TopologyError("topology is disconnected")
    for t, k in twins.items():
        for v in neighbours[t]:  # each also a neighbour of reps[k]
            masks = closer.get(v)
            if masks is not None:  # None: v is a twin too, and copies its row
                masks[t] = masks[reps[k]] & ~(1 << k)
    rows: list = [None] * num_nodes
    for v, masks in closer.items():
        groups = [((1 << len(classes)) - 1, ())]
        for nb in neighbours[v]:
            step = masks.get(nb)
            if step:
                split = []
                for mask, hops in groups:
                    inside = mask & step
                    if inside:
                        split.append((inside, hops + (nb,)))
                        if inside != mask:
                            split.append((mask ^ inside, hops))
                    else:
                        split.append((mask, hops))
                groups = split
        groups.sort(key=lambda group: group[0].bit_count())
        row = [groups.pop()[1]] * len(classes)
        for mask, hops in groups:
            while mask:
                top = mask.bit_length() - 1
                row[top] = hops
                mask ^= 1 << top
        rows[v] = row
    for c, (nbrs, members) in enumerate(classes):
        rows[members[0]][c] = nbrs
    for t, k in twins.items():
        rows[t] = rows[reps[k]]
    class_of = {  # one (class, representative) tuple shared by the class's members
        h: entry
        for c, (_, members) in enumerate(classes)
        for entry in [(c, members[0])]
        for h in members
    }
    return class_of, rows


class _EcmpTable(Mapping):
    """One node's read-only ECMP table over its class row: destination host
    (in host order, the node itself left out) -> sorted tuple of equal-cost
    next hops, with link multiplicity.

    ``m[dst]`` is the row's slot for ``dst``'s class. Towards a twin other
    than the representative ``rep``, a slot ``(rep,) * k`` reads
    ``(dst,) * k``: only ``rep`` is at distance 0 from the class, and twins
    share their neighbours with link multiplicity (the representative rule).
    """

    def __init__(self, node: int, row: list, hosts: tuple[int, ...], class_of: dict):
        self._node, self._row, self._hosts, self._class_of = node, row, hosts, class_of

    def __getitem__(self, dst: int) -> tuple[int, ...]:
        if dst == self._node:
            raise KeyError(dst)
        c, rep = self._class_of[dst]
        hops = self._row[c]
        return (dst,) * len(hops) if dst != rep and hops[0] == rep else hops

    def __iter__(self) -> Iterator[int]:
        return (h for h in self._hosts if h != self._node)

    def __len__(self) -> int:
        return len(self._hosts) - (self._node in self._class_of)


def compute_ecmp_tables(topology: Topology) -> list[Mapping[int, tuple[int, ...]]]:
    """Per node, a read-only map destination host -> sorted tuple of
    equal-cost next hops: a view over the node's :func:`_ecmp_rows` row, so
    memory grows with twin classes and the nodes of the twin quotient, not
    with hosts."""
    class_of, rows = _ecmp_rows(topology)
    return [_EcmpTable(v, row, topology.hosts, class_of) for v, row in enumerate(rows)]


def ecmp_router(topology: Topology) -> Router:
    """Shortest paths sampled hop by hop: each node steps to one of its
    sorted equal-cost next hops towards ``dst``, uniformly at random.

    A lookup reads ``rows[cur][class of dst]`` (:func:`_ecmp_rows`) and
    steps onto ``dst`` where the walk reaches its class's representative
    (the rule of :class:`_EcmpTable`), so routes and ``rng.randrange(n)``
    draws (``n > 1`` only) are those of a :func:`compute_ecmp_tables` walk.
    """
    class_of, rows = _ecmp_rows(topology)

    def route(src: int, dst: int, rng: random.Random) -> Route:
        if src == dst:
            raise TopologyError("src and dst must differ")
        if src not in class_of or dst not in class_of:
            raise TopologyError(f"{dst if src in class_of else src} is not a host")
        c, rep = class_of[dst]
        path = [src]
        cur = src
        while cur != dst:
            hops = rows[cur][c]
            cur = hops[rng.randrange(len(hops))] if len(hops) > 1 else hops[0]
            if cur == rep:
                cur = dst
            path.append(cur)
        return path

    return route


# ---------------------------------------------------------------------------
# Fat-tree family


def fat_tree_router(topology: Topology) -> Router:
    """Up/down routing for the fat-tree family (fat tree, F10, Facebook
    fabric): ascend choosing uniformly among the uplinks, stop at the lowest
    common level, then descend along the single possible path.

    Index arithmetic on the builder's parameters and numbering: hosts, then
    edge switches, then each pod's aggregation switches, then the cores.
    Host ``h`` sits on edge switch ``num_hosts + h // hosts_per_edge``. A
    fat-tree or F10 pod has k/2 edge and k/2 aggregation switches, and
    aggregation switch ``a`` of a fat-tree pod or of an F10 type-A (even)
    pod links to cores ``a * k/2 + j``; of an F10 type-B (odd) pod, to cores
    ``a + j * k/2``. A Facebook fabric is one pod whose edges all link to
    every aggregation switch after them.
    A lookup draws ``rng.randrange(n)`` once per choice, ``n == 1``
    included: the aggregation switch, then on an inter-pod route the core
    ``j``. Hosts are nodes ``0..num_hosts-1``. Raises :class:`TopologyError`
    if another builder made the topology (:data:`SPECIALIZED_MODES`).
    """
    params = _specialized_params(topology, "fat-tree")
    per_edge = params["hosts_per_edge"]
    num_hosts = topology.num_hosts
    if params["builder"] == "facebook_fabric":
        pod_edges = num_edges = params["edge_switches"]
        pod_aggs = topology.num_nodes - num_hosts - num_edges
    else:
        pod_edges = pod_aggs = params["k"] // 2
        num_edges = params["k"] * pod_edges
    pod_hosts = pod_edges * per_edge
    agg_base = num_hosts + num_edges
    core_base = agg_base + num_edges
    f10 = params["builder"] == "f10"

    def route(src: int, dst: int, rng: random.Random) -> Route:
        if src == dst:
            raise TopologyError("src and dst must differ")
        if not (0 <= src < num_hosts and 0 <= dst < num_hosts):
            raise TopologyError(f"{dst if 0 <= src < num_hosts else src} is not a host")
        edge_src = num_hosts + src // per_edge
        edge_dst = num_hosts + dst // per_edge
        if edge_src == edge_dst:
            return [src, edge_src, dst]
        pod_src = src // pod_hosts
        pod_dst = dst // pod_hosts
        a = rng.randrange(pod_aggs)
        agg = agg_base + pod_src * pod_aggs + a
        if pod_src == pod_dst:
            return [src, edge_src, agg, edge_dst, dst]
        j = rng.randrange(pod_aggs)
        core = a + j * pod_aggs if f10 and pod_src % 2 else a * pod_aggs + j
        a_down = core % pod_aggs if f10 and pod_dst % 2 else core // pod_aggs
        agg_down = agg_base + pod_dst * pod_aggs + a_down
        return [src, edge_src, agg, core_base + core, agg_down, edge_dst, dst]

    return route


# ---------------------------------------------------------------------------
# DCell and BCube


def dcell_router(topology: Topology) -> Router:
    """Divide-and-conquer DCell routing: descend to the level where src and
    dst diverge, cross the single inter-sub-cell link there, and recurse on
    both halves. Intra-cell segments go through the cell switch.

    Reads ``n``, the sub-cell sizes ``t``, the level and the host count once;
    a lookup makes no ``rng`` call. Hosts are nodes ``0..num_hosts-1``.
    """
    params = _specialized_params(topology, "dcell")
    n = params["n"]
    ts = params["t"]
    top = params["level"]
    num_hosts = topology.num_hosts

    def rec(u: int, v: int, level: int, base: int) -> Route:
        if u == v:
            return [u]
        if level == 0:
            return [u, num_hosts + u // n, v]
        sub = ts[level - 1]
        i = (u - base) // sub
        j = (v - base) // sub
        if i == j:
            return rec(u, v, level - 1, base + i * sub)
        if i < j:
            gw_u = base + i * sub + (j - 1)
            gw_v = base + j * sub + i
        else:
            gw_u = base + i * sub + j
            gw_v = base + j * sub + (i - 1)
        left = rec(u, gw_u, level - 1, base + i * sub)
        right = rec(gw_v, v, level - 1, base + j * sub)
        return left + right

    def route(src: int, dst: int, rng: random.Random) -> Route:
        if src == dst:
            raise TopologyError("src and dst must differ")
        if not (0 <= src < num_hosts and 0 <= dst < num_hosts):
            raise TopologyError(f"{dst if 0 <= src < num_hosts else src} is not a host")
        return rec(src, dst, top, 0)

    return route


def bcube_router(topology: Topology) -> Router:
    """Correct one differing address digit per step through the level-i
    switch, from the highest level down; total links are exactly twice the
    address hamming distance.

    Per level, from ``k`` down to 0, the digit stride ``n**i`` and the id of
    the level's first switch are computed once; a lookup makes no ``rng``
    call. Hosts are nodes ``0..num_hosts-1``.
    """
    params = _specialized_params(topology, "bcube")
    n, k = params["n"], params["k"]
    num_hosts = topology.num_hosts
    levels = [(n**i, num_hosts + i * n**k) for i in range(k, -1, -1)]

    def route(src: int, dst: int, rng: random.Random) -> Route:
        if src == dst:
            raise TopologyError("src and dst must differ")
        if not (0 <= src < num_hosts and 0 <= dst < num_hosts):
            raise TopologyError(f"{dst if 0 <= src < num_hosts else src} is not a host")
        path = [src]
        cur = src
        for stride, first_switch in levels:
            want = dst // stride % n
            have = cur // stride % n
            if have == want:
                continue
            high, low = divmod(cur, stride * n)
            path.append(first_switch + high * stride + low % stride)
            cur += (want - have) * stride
            path.append(cur)
        return path

    return route


# ---------------------------------------------------------------------------
# Failure detours (F10 and fat tree)


def shortest_route_avoiding(
    topology: Topology,
    src: int,
    dst: int,
    forbidden: set[int],
    rng: Optional[random.Random] = None,
) -> Optional[Route]:
    """BFS shortest path from src to dst that avoids ``forbidden`` nodes,
    with uniform random tie-breaks when an rng is given.

    A :func:`multi_source_bfs` sweep from ``dst`` with ``forbidden`` blocked
    runs to the level that reaches ``src``; the walk from ``src`` steps to
    one of each node's sorted neighbours (once per link) one level closer.

    Returns None when no such path exists or an endpoint is forbidden, and
    ``[src]`` when ``src == dst``. Unlike the routers, it accepts any node
    ids, switches included, but raises :class:`TopologyError` for an id
    outside ``0..num_nodes-1``.
    """
    check_node_ids(topology, (src, dst, *forbidden))
    if src in forbidden or dst in forbidden:
        return None
    dist = [-1] * topology.num_nodes
    for d, gained in enumerate(multi_source_bfs(topology, (dst,), forbidden)):
        for v in gained:
            dist[v] = d
        if src in gained:
            break
    else:
        return None
    route = [src]
    cur = src
    while cur != dst:
        options = [nb for nb in topology.neighbors[cur] if dist[nb] == dist[cur] - 1]
        cur = options[rng.randrange(len(options))] if rng and len(options) > 1 else options[0]
        route.append(cur)
    return route


def _strip_loops(route: Route) -> Route:
    out: list[int] = []
    for v in route:
        if v in out:
            del out[out.index(v) + 1 :]
        else:
            out.append(v)
    return out


def f10_reroute(
    topology: Topology,
    src: int,
    dst: int,
    failed: int,
    rng: Optional[random.Random] = None,
) -> Route:
    """Route from src to dst when ``failed`` lies on the chosen path: follow a
    shortest path toward the failure, then detour from the node immediately
    before it. Models a parent locally steering around a failed child, which
    is where the F10 wiring pays off over the standard fat tree.

    Raises :class:`TopologyError`, like every router, when ``src == dst`` or
    an endpoint is not a host id in ``0..num_nodes-1``, and when ``failed``
    is not a switch id in that range.
    """
    nodes = topology.nodes
    if src == dst:
        raise TopologyError("src and dst must differ")
    for h in (src, dst):
        if not (0 <= h < len(nodes) and nodes[h].kind is _HOST):
            raise TopologyError(f"{h} is not a host")
    if not (0 <= failed < len(nodes) and nodes[failed].kind is _SWITCH):
        raise TopologyError(f"failed node {failed} is not a switch")
    rng = rng or random.Random(0)
    prefix = shortest_route_avoiding(topology, src, failed, set(), rng)
    if prefix is None or len(prefix) < 2:
        raise TopologyError("failed switch unreachable from src")
    detour_point = prefix[-2]
    detour = shortest_route_avoiding(topology, detour_point, dst, {failed}, rng)
    if detour is None:
        raise TopologyError("no route avoiding failure")
    return _strip_loops(prefix[:-1] + detour[1:])


# ---------------------------------------------------------------------------
# Mode dispatch


def resolve_routing_mode(topology: Topology, mode: str = "auto") -> str:
    if mode == "auto":
        return SPECIALIZED_MODES.get(topology.builder_params.get("builder"), "ecmp")
    return mode


ROUTERS: dict[str, Callable[[Topology], Router]] = {
    "ecmp": ecmp_router,
    "fat-tree": fat_tree_router,
    "dcell": dcell_router,
    "bcube": bcube_router,
}


def route_provider(topology: Topology, mode: str = "auto") -> Router:
    """Return a ``(src, dst, rng) -> Route`` function for the given mode.

    Modes: "auto" (specialized when the builder has one, else ECMP), and
    the keys of :data:`ROUTERS`: "ecmp", "fat-tree", "dcell", "bcube". The
    mode's factory runs here, once per topology: it builds what a lookup
    reads, and a topology the mode cannot route raises
    :class:`TopologyError` here rather than at the first lookup. A
    specialized mode routes only a topology whose builder
    :data:`SPECIALIZED_MODES` maps to it, read from ``builder_params``: the
    same nodes and links without them (an imported fat tree, say) route by
    "ecmp" only.
    "ecmp" builds its class rows over the twin quotient, and "fat-tree",
    "dcell" and "bcube" only read their builder parameters.
    """
    mode = resolve_routing_mode(topology, mode)
    factory = ROUTERS.get(mode)
    if factory is None:
        raise TopologyError(f"unknown routing mode {mode!r}")
    return factory(topology)
