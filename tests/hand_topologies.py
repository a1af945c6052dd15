"""Hand-built topologies for the twin-class edge cases that no builder makes.

Twin hosts are hosts with the same sorted ``(neighbour, capacity)`` list
(:func:`dcnbench.graph.host_twin_classes`, the one twin rule); path
metrics and ECMP tables sweep from one source per twin class, and exact
bisection enumerates per-class host counts, so these cases pin down where
those shortcuts could go wrong. ``isolated_switch`` is not about twins:
a node no host reaches; nor is ``broom``, a node with hundreds of distinct
next-hop tuples.

:func:`bfs_distances` is the plain single-source BFS that the tests use as
their reference for every shortest-path computation in the package, and
:func:`per_end_adjacency` the reference for ``Topology.adjacency``, whose
link ends are shared objects.
"""

from dcnbench.graph import Link, Node, NodeKind, Topology


def bfs_distances(topology, source):
    """Hop distances (in links) from ``source`` to every node; -1 if unreachable."""
    dist = [-1] * topology.num_nodes
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for nb, _ in topology.adjacency[v]:
                if dist[nb] < 0:
                    dist[nb] = dist[v] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


def per_end_adjacency(topology):
    """``topology.adjacency`` built with a new ``(neighbour, capacity)`` tuple
    per link end, each end keyed by its neighbour, its capacity's type and
    the capacity's repr: so 1 and 1.0 differ and two NaNs are equal."""
    adj = [[] for _ in topology.nodes]
    for a, b, capacity, _ in topology.links:
        adj[a].append((b, capacity))
        adj[b].append((a, capacity))
    return end_values(adj)


def end_values(adjacency):
    """Each end of ``adjacency`` as ``(neighbour, capacity type, capacity repr)``."""
    return [[(nb, type(cap), repr(cap)) for nb, cap in row] for row in adjacency]


def _topology(num_hosts, num_switches, pairs):
    nodes = [Node(NodeKind.HOST, 8)] * num_hosts
    nodes += [Node(NodeKind.SWITCH, 16)] * num_switches
    return Topology(nodes, [Link(a, b) for a, b in pairs])


def duplicate_host_links():
    """Hosts 0 and 1 reach switch 4 over two parallel links each; hosts 2
    and 3 share switch 5, which has two parallel links to switch 4."""
    return _topology(4, 2, [(0, 4), (0, 4), (1, 4), (1, 4), (2, 5), (3, 5), (4, 5), (5, 4)])


def multihomed_twins():
    """Hosts 0-2 are multi-homed to switches 8 and 9; host 3 is single-homed
    to 8; hosts 5 and 6 hang off host 4 only (server-centric style); host 7
    has a self-loop."""
    return _topology(8, 3, [
        (0, 8), (0, 9), (1, 9), (1, 8), (2, 8), (2, 9),
        (3, 8), (8, 10), (9, 10), (4, 10), (5, 4), (4, 6), (7, 7), (7, 10),
    ])


def self_loop_pair():
    """Hosts 0 and 1 each carry a self-loop and share two parallel links, so
    their sorted neighbour lists are equal although they are adjacent."""
    return _topology(3, 1, [(0, 0), (1, 1), (0, 1), (1, 0), (0, 3), (1, 3), (2, 3)])


def capacity_twins():
    """Hosts 0-3 share switch 4 over links of capacity 3, 2, 2 and 3: one
    neighbour list, but two twin classes, {0, 3} and {1, 2}. The bisection
    is 4 (hosts 0 and 3 against 1 and 2); treating all four as one class
    gives 5."""
    nodes = [Node(NodeKind.HOST, 8)] * 4 + [Node(NodeKind.SWITCH, 16)]
    return Topology(nodes, [Link(h, 4, cap) for h, cap in enumerate((3.0, 2.0, 2.0, 3.0))])


def twins_of_twins():
    """Hosts 0 and 1 share hosts 2 and 3 and switch 4; hosts 2 and 3 share
    hosts 0 and 1. Each class's twin (1 and 3) is linked to the other
    class's twin, so the twin quotient drops both ends of link 1-3."""
    return _topology(4, 1, [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (1, 4)])


def isolated_twins():
    """Hosts 0 and 1 have no links (twins with no neighbours); hosts 2 and
    3 share switch 4."""
    return _topology(4, 1, [(2, 4), (3, 4)])


def linkless_twins():
    """Hosts 0 and 1 and nothing else: a twin class with no neighbours.
    The twin quotient keeps only host 0, which alone looks connected."""
    return _topology(2, 0, [])


def isolated_switch():
    """Hosts 0-2 share switch 3 and host 2 also reaches switch 4; switch 5
    has no links."""
    return _topology(3, 3, [(0, 3), (1, 3), (2, 3), (2, 4)])


def broom(leaves=300):
    """One root switch and ``leaves`` leaf switches, one host on each leaf:
    ``leaves`` twin classes, and at the root as many next-hop groups, each
    one leaf wide, so its class mask is wider than any machine word."""
    root = 2 * leaves
    return _topology(leaves, leaves + 1, [
        *((h, leaves + h) for h in range(leaves)),
        *((leaves + h, root) for h in range(leaves)),
    ])


HAND_BUILT = {
    "duplicate_host_links": duplicate_host_links,
    "multihomed_twins": multihomed_twins,
    "self_loop_pair": self_loop_pair,
    "capacity_twins": capacity_twins,
}
