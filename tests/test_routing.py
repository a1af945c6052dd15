import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from dcnbench.graph import (
    Link,
    Node,
    NodeKind,
    Topology,
    TopologyError,
    export_edge_list,
    host_twin_quotient,
    import_edge_list,
    multi_source_bfs,
)
from dcnbench.builders import (
    PRESETS,
    build_bcube,
    build_dcell,
    build_f10,
    build_facebook_fabric,
    build_fat_tree,
    build_jellyfish,
    build_preset,
)
from dcnbench.flitsim import SimConfig, run_simulation
from dcnbench.metrics import avg_host_path
from dcnbench.routing import (
    bcube_router,
    check_route,
    compute_ecmp_tables,
    dcell_router,
    ecmp_router,
    f10_reroute,
    fat_tree_router,
    route_provider,
    shortest_route_avoiding,
)

from hand_topologies import (
    HAND_BUILT,
    bfs_distances,
    broom,
    isolated_twins,
    linkless_twins,
    twins_of_twins,
)


def line_topology():
    nodes = [Node(NodeKind.HOST, 1), Node(NodeKind.HOST, 1),
             Node(NodeKind.SWITCH, 2)]
    return Topology(nodes, [Link(0, 2), Link(1, 2)])


# --- ECMP tables ------------------------------------------------------------


def reference_ecmp_tables(topology):
    """One BFS per destination host, then a sorted scan of every node's
    neighbours: the definition the twin-class tables must reproduce."""
    tables = [dict() for _ in range(topology.num_nodes)]
    for dst in topology.hosts:
        dist = bfs_distances(topology, dst)
        if min(dist) < 0:
            raise TopologyError("topology is disconnected")
        for v in range(topology.num_nodes):
            if v == dst:
                continue
            tables[v][dst] = tuple(
                sorted(nb for nb, _ in topology.adjacency[v] if dist[nb] == dist[v] - 1)
            )
    return tables


def assert_same_tables(topology, got, want):
    assert got == want
    assert [list(t) for t in got] == [list(t) for t in want]  # key order too
    assert [len(t) for t in got] == [len(t) for t in want]
    for v, table in enumerate(got):  # a switch, the node itself, an id past the end
        for absent in (*topology.switches[:1], v, topology.num_nodes):
            assert table.get(absent) is None


ECMP_CASES = {name: (lambda name=name: build_preset(name)) for name in PRESETS}
ECMP_CASES.update(HAND_BUILT)
ECMP_CASES.update({
    # more twin classes than one machine word holds bits: 156 and 81
    "dcell-n3-l2": lambda: build_dcell(3, 2),
    "bcube-n3-k3": lambda: build_bcube(3, 3),
    "fat-tree-k6": lambda: build_fat_tree(6),
    "f10-k6": lambda: build_f10(6),
    "fat-tree-k4-h3": lambda: build_fat_tree(4, hosts_per_edge=3),  # twin classes of 3
    "facebook-8-2-3-2": lambda: build_facebook_fabric(8, 2, 3, 2),
    "twins_of_twins": twins_of_twins,  # the quotient drops both ends of a link
    "broom-300": broom,  # 300 next-hop groups at the root, filled slot by slot
})
for seed in range(5):  # random wiring splits nodes into many next-hop groups
    ECMP_CASES[f"jellyfish-s40-p6-r4-seed{seed}"] = lambda seed=seed: build_jellyfish(40, 6, 4, seed=seed)


@pytest.mark.parametrize("name", sorted(ECMP_CASES))
def test_ecmp_tables_match_reference(name):
    topo = ECMP_CASES[name]()
    assert_same_tables(topo, compute_ecmp_tables(topo), reference_ecmp_tables(topo))


@pytest.mark.parametrize("build", [lambda: build_fat_tree(4), *HAND_BUILT.values()])
def test_ecmp_tables_share_no_dict(build):
    # each node's view leaves out the node's own key, so no two nodes share one
    topo = build()
    tables = compute_ecmp_tables(topo)
    assert len({id(t) for t in tables}) == topo.num_nodes


def test_ecmp_tables_repeat_parallel_links():
    tables = compute_ecmp_tables(HAND_BUILT["duplicate_host_links"]())
    assert tables[4][0] == (0, 0)
    assert tables[1][0] == (4, 4)
    assert tables[4][2] == (5, 5)


def test_ecmp_tables_reject_disconnected():
    with pytest.raises(TopologyError):
        compute_ecmp_tables(isolated_twins())
    lone_switch = line_topology().nodes + (Node(NodeKind.SWITCH, 2),)
    with pytest.raises(TopologyError):
        compute_ecmp_tables(Topology(lone_switch, line_topology().links))


@pytest.mark.parametrize(
    "call",
    [compute_ecmp_tables, lambda topo: route_provider(topo, "ecmp"), avg_host_path],
    ids=["tables", "router", "avg-path"],
)
def test_linkless_twins_are_disconnected(call):
    # the twin quotient keeps host 0 alone, which the sweep alone would
    # count as connected
    with pytest.raises(TopologyError, match="disconnected"):
        call(linkless_twins())


def test_ecmp_tables_without_hosts_are_empty():
    # with no destination there is nothing to reach, connected or not
    switches = [Node(NodeKind.SWITCH, 2), Node(NodeKind.SWITCH, 2)]
    assert compute_ecmp_tables(Topology(switches, [])) == [{}, {}]


def test_ecmp_line_single_next_hops():
    tables = compute_ecmp_tables(line_topology())
    assert tables[0][1] == (2,)
    assert tables[2][1] == (1,)
    assert tables[2][0] == (0,)


def test_ecmp_fat_tree_edge_has_two_uplinks():
    topo = build_fat_tree(4)
    tables = compute_ecmp_tables(topo)
    edge0 = topo.neighbors[0][0]
    other_pod_host = 15
    hops = tables[edge0][other_pod_host]
    assert len(hops) == 2
    layers = {topo.nodes[h].address.digits[0] for h in hops}
    assert layers == {2}  # both aggregation switches


def test_ecmp_walk_terminates_everywhere():
    topo = build_fat_tree(4)
    tables = compute_ecmp_tables(topo)
    rng = random.Random(5)
    for dst in (0, 7, 15):
        for start in range(topo.num_nodes):
            if start == dst:
                continue
            cur, steps = start, 0
            while cur != dst:
                cur = tables[cur][dst][0]
                steps += 1
                assert steps <= topo.num_nodes
    route = ecmp_router(topo)(0, 15, rng)
    check_route(topo, route)


@pytest.mark.parametrize(
    "route, problem",
    [
        ([0], "too short"),
        ([0, 16, 0], "repeats a node"),
        ([0, 16, 20], "not a host"),
        ([0, 16, 2], "not a link"),
        ([-36, 16, 1], "leaves node ids"),  # -36 would wrap to host 0
        ([0, 16, 36, 1], "leaves node ids"),
    ],
)
def test_check_route_rejects_bad_routes(route, problem):
    topo = build_fat_tree(4)
    check_route(topo, [0, 16, 1])
    with pytest.raises(TopologyError, match=problem):
        check_route(topo, route)


# --- fat-tree routing --------------------------------------------------------


def reference_fat_tree_route(topology, src, dst, rng):
    """Each lookup rescans the adjacency and reads layers off the addresses:
    the definition the index-arithmetic router must reproduce, rng draws
    included."""

    def layer(v):
        return topology.nodes[v].address.digits[0]

    if src == dst:
        raise TopologyError("src and dst must differ")
    nodes = topology.nodes
    for h in (src, dst):
        if nodes[h].kind is not NodeKind.HOST:
            raise TopologyError(f"{h} is not a host")
    edge_src = topology.neighbors[src][0]
    edge_dst = topology.neighbors[dst][0]
    if edge_src == edge_dst:
        return [src, edge_src, dst]
    up_src = [nb for nb in topology.neighbors[edge_src] if layer(nb) == 2]
    common = sorted(set(up_src) & {nb for nb in topology.neighbors[edge_dst] if layer(nb) == 2})
    if common:
        agg = common[rng.randrange(len(common))]
        return [src, edge_src, agg, edge_dst, dst]
    agg = sorted(up_src)[rng.randrange(len(up_src))]
    cores = sorted(nb for nb in topology.neighbors[agg] if layer(nb) == 3)
    core = cores[rng.randrange(len(cores))]
    dst_pod = nodes[dst].address.digits[1]
    down_aggs = [
        nb for nb in topology.neighbors[core]
        if layer(nb) == 2 and nodes[nb].address.digits[1] == dst_pod
    ]
    if len(down_aggs) != 1:
        raise TopologyError("core switch has no unique link into the destination pod")
    agg_down = down_aggs[0]
    if edge_dst not in topology.neighbors[agg_down]:
        raise TopologyError("descending path broken: aggregation not linked to edge")
    return [src, edge_src, agg, core, agg_down, edge_dst, dst]


# name -> (builder, sampled pairs or None for every ordered host pair)
FAT_TREE_FAMILY = {
    "fat-tree-k2": (lambda: build_fat_tree(2), None),  # one uplink, one core: randrange(1)
    "fat-tree-k4": (lambda: build_preset("fat-tree-k4"), None),
    "fat-tree-k4-paper": (lambda: build_preset("fat-tree-k4-paper"), None),
    "f10-k4": (lambda: build_preset("f10-k4"), None),
    "facebook-scaled": (lambda: build_preset("facebook-scaled"), None),
    "fat-tree-k8": (lambda: build_fat_tree(8), 5000),
    "fat-tree-k16": (lambda: build_fat_tree(16), 5000),
    "f10-k8": (lambda: build_f10(8), 5000),
    "fat-tree-k4-h3": (lambda: build_fat_tree(4, hosts_per_edge=3), None),
    "f10-k6": (lambda: build_f10(6), None),  # odd k/2
    "facebook-6-3-2-2": (lambda: build_facebook_fabric(6, 3, 2, 2), None),  # two planes
    "facebook-4-1-3-1": (lambda: build_facebook_fabric(4, 1, 3, 1), None),  # randrange(1)
}


@pytest.mark.parametrize("name", sorted(FAT_TREE_FAMILY))
def test_fat_tree_router_matches_reference(name):
    build, samples = FAT_TREE_FAMILY[name]
    topo = build()
    route = fat_tree_router(topo)
    hosts = topo.hosts
    if samples is None:
        pairs = list(itertools.permutations(hosts, 2))
    else:
        pick = random.Random(name)
        pairs = [tuple(pick.sample(hosts, 2)) for _ in range(samples)]
    reference = lambda src, dst, rng: reference_fat_tree_route(topo, src, dst, rng)
    ours, theirs = random.Random(11), random.Random(11)
    for src, dst in pairs:
        assert route(src, dst, ours) == reference(src, dst, theirs)
    assert ours.random() == theirs.random()  # same draws, randrange(1) included


class ScriptedRng:
    """Answers ``randrange`` from a script of choices (0 past its end) and
    records the range of every call."""

    def __init__(self, script):
        self.script = script
        self.ranges = []

    def randrange(self, n):
        i = len(self.ranges)
        self.ranges.append(n)
        return self.script[i] if i < len(self.script) else 0


def router_distribution(route, src, dst):
    """Exact route probabilities: every branch of every randrange call."""
    dist = Counter()
    scripts = [()]
    while scripts:
        script = scripts.pop()
        rng = ScriptedRng(script)
        path = tuple(route(src, dst, rng))
        if len(rng.ranges) > len(script):
            scripts.extend(script + (c,) for c in range(rng.ranges[len(script)]))
            continue
        p = Fraction(1)
        for n in rng.ranges:
            p /= n
        dist[path] += p
    return dist


def ecmp_distribution(tables, src, dst):
    """Exact route probabilities of a walk uniform over each node's next
    hops (parallel links count once each)."""
    dist = Counter()
    walks = [((src,), Fraction(1))]
    while walks:
        path, p = walks.pop()
        if path[-1] == dst:
            dist[path] += p
            continue
        hops = tables[path[-1]][dst]
        walks.extend((path + (nb,), p / len(hops)) for nb in hops)
    return dist


ECMP_SPLIT_CASES = {
    "fat-tree-k2": lambda: build_fat_tree(2),
    "fat-tree-k4": lambda: build_preset("fat-tree-k4"),
    "fat-tree-k4-paper": lambda: build_preset("fat-tree-k4-paper"),
    "f10-k4": lambda: build_preset("f10-k4"),
    "facebook-scaled": lambda: build_preset("facebook-scaled"),
    "fat-tree-k6": lambda: build_fat_tree(6),
    "f10-k6": lambda: build_f10(6),
    "facebook-6-3-2-2": lambda: build_facebook_fabric(6, 3, 2, 2),
}


@pytest.mark.parametrize("name", sorted(ECMP_SPLIT_CASES))
def test_fat_tree_router_equals_ecmp_split(name):
    topo = ECMP_SPLIT_CASES[name]()
    route = fat_tree_router(topo)
    tables = compute_ecmp_tables(topo)
    for src, dst in itertools.permutations(topo.hosts, 2):
        got = router_distribution(route, src, dst)
        assert sum(got.values()) == 1
        assert got == ecmp_distribution(tables, src, dst)


def reference_ecmp_route(tables, src, dst, rng):
    """The ECMP lookup as a walk of :func:`compute_ecmp_tables`: the router
    must return the same routes with the same ``randrange`` calls."""
    path = [src]
    cur = src
    while cur != dst:
        hops = tables[cur][dst]
        cur = hops[rng.randrange(len(hops))] if len(hops) > 1 else hops[0]
        path.append(cur)
    return path


@pytest.mark.parametrize("name", sorted(ECMP_CASES))
def test_ecmp_router_walks_the_tables(name):
    # the router reads per-class rows and steps onto dst at its class's
    # representative; a twin patch it missed would change a distribution
    topo = ECMP_CASES[name]()
    route = ecmp_router(topo)
    tables = compute_ecmp_tables(topo)
    pairs = list(itertools.permutations(topo.hosts, 2))
    if len(pairs) > 3000:
        pairs = random.Random(17).sample(pairs, 3000)
    for src, dst in pairs:
        assert router_distribution(route, src, dst) == ecmp_distribution(tables, src, dst)
    ours, theirs = random.Random(23), random.Random(23)
    for src, dst in pairs:
        assert route(src, dst, ours) == reference_ecmp_route(tables, src, dst, theirs)
    assert ours.random() == theirs.random()  # same draws, none where n == 1


def test_ecmp_router_memory_is_per_class():
    # one dict entry per (node, host) held 56 MB here, and one row per node
    # about 2.5 MB; with rows only for the nodes of the twin quotient (448 of
    # 1,344) the router and the table views peak at about 1.3 and 1.0 MB
    topo = build_fat_tree(16)
    for build in (lambda: route_provider(topo, "ecmp"), lambda: compute_ecmp_tables(topo)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.9e6


def test_fat_tree_same_edge_length_two():
    topo = build_fat_tree(4)
    route = fat_tree_router(topo)(0, 1, random.Random(1))
    assert len(route) - 1 == 2
    check_route(topo, route)


def test_fat_tree_same_pod_length_four_no_core():
    topo = build_fat_tree(4)
    router = fat_tree_router(topo)
    for seed in range(20):
        route = router(0, 2, random.Random(seed))
        assert len(route) - 1 == 4
        assert all(topo.nodes[v].address.digits[0] != 3 for v in route)
        check_route(topo, route)


def test_fat_tree_inter_pod_length_six_and_core_coverage():
    topo = build_fat_tree(4)
    router = fat_tree_router(topo)
    cores_seen = set()
    rng = random.Random(0)
    for _ in range(1000):
        route = router(0, 15, rng)
        assert len(route) - 1 == 6
        cores_seen.add(route[3])
    core_ids = {v for v, n in enumerate(topo.nodes)
                if n.kind is NodeKind.SWITCH and n.address.digits[0] == 3}
    assert cores_seen == core_ids


def test_fat_tree_down_segment_unique():
    topo = build_fat_tree(4)
    router = fat_tree_router(topo)
    suffixes = set()
    for seed in range(100, 200):
        route = router(0, 15, random.Random(seed))
        core = route[3]
        suffixes.add((core, tuple(route[route.index(core):])))
    per_core = {}
    for core, suffix in suffixes:
        per_core.setdefault(core, set()).add(suffix)
    for core, suf in per_core.items():
        assert len(suf) == 1


def test_fat_tree_route_rejects_same_host():
    with pytest.raises(TopologyError, match="must differ"):
        fat_tree_router(build_fat_tree(4))(3, 3, random.Random(0))


@pytest.mark.parametrize("src,dst", [(0, 20), (20, 0), (0, 35)])
def test_fat_tree_route_rejects_non_host(src, dst):
    topo = build_fat_tree(4)
    assert topo.nodes[20].kind is NodeKind.SWITCH
    with pytest.raises(TopologyError, match="is not a host"):
        fat_tree_router(topo)(src, dst, random.Random(0))


def test_fat_tree_route_works_on_f10():
    topo = build_f10(4)
    route = fat_tree_router(topo)(0, 15, random.Random(2))
    assert len(route) - 1 == 6
    check_route(topo, route)


# --- DCell routing -----------------------------------------------------------


def test_dcell_same_cell():
    topo = build_dcell(4, 1)
    route = dcell_router(topo)(0, 1, random.Random(0))
    assert len(route) - 1 == 2
    check_route(topo, route)


def test_dcell_direct_intercell_link():
    topo = build_dcell(4, 1)
    # cell 0 host 0 (uid 0) and cell 1 host 0 (uid 4) are directly linked
    route = dcell_router(topo)(0, 4, random.Random(0))
    assert route == [0, 4]
    check_route(topo, route)


def host_hops(topology, route):
    hosts = [v for v in route if topology.nodes[v].kind is NodeKind.HOST]
    return len(hosts) - 1


@pytest.mark.parametrize("n,level", [(4, 1), (2, 2)])
def test_dcell_route_sweep(n, level):
    topo = build_dcell(n, level)
    router = dcell_router(topo)
    bound = 2 ** (level + 1) - 1
    for src, dst in itertools.combinations(topo.hosts, 2):
        route = router(src, dst, random.Random(0))
        check_route(topo, route)
        dist = bfs_distances(topo, src)[dst]
        assert len(route) - 1 >= dist
        assert host_hops(topo, route) <= bound


# --- BCube routing -----------------------------------------------------------


def test_bcube_single_digit():
    topo = build_bcube(4, 1)
    route = bcube_router(topo)(0, 1, random.Random(0))  # digits differ only in position 0
    assert len(route) - 1 == 2
    check_route(topo, route)


def test_bcube_two_digit_route():
    topo = build_bcube(4, 1)
    route = bcube_router(topo)(0, 15, random.Random(0))  # (0,0) -> (3,3), hamming 2
    assert len(route) - 1 == 4
    switches = [v for v in route if topo.nodes[v].kind is NodeKind.SWITCH]
    assert len(switches) == 2
    check_route(topo, route)


def hamming(a, b, n, k):
    d = 0
    for _ in range(k + 1):
        if a % n != b % n:
            d += 1
        a //= n
        b //= n
    return d


@pytest.mark.parametrize("n,k", [(2, 2), (4, 1)])
def test_bcube_route_links_equal_twice_hamming(n, k):
    topo = build_bcube(n, k)
    router = bcube_router(topo)
    for src, dst in itertools.combinations(topo.hosts, 2):
        route = router(src, dst, random.Random(0))
        check_route(topo, route)
        assert len(route) - 1 == 2 * hamming(src, dst, n, k)
        dist = bfs_distances(topo, src)[dst]
        assert len(route) - 1 >= dist


# --- F10 reroute -------------------------------------------------------------


def test_f10_reroute_failed_core_same_length():
    topo = build_f10(4)
    rng = random.Random(4)
    route = fat_tree_router(topo)(0, 15, rng)
    core = route[3]
    detour = f10_reroute(topo, 0, 15, core, random.Random(1))
    assert core not in detour
    assert len(detour) - 1 == 6
    check_route(topo, detour)


def failed_down_agg(topo, src, dst, rng):
    route = fat_tree_router(topo)(src, dst, rng)
    return route[4]  # aggregation switch on the down path


def test_f10_reroute_failed_down_agg_plus_two():
    topo = build_f10(4)
    failed = failed_down_agg(topo, 0, 15, random.Random(7))
    detour = f10_reroute(topo, 0, 15, failed, random.Random(3))
    assert failed not in detour
    assert len(detour) - 1 <= 6 + 2
    check_route(topo, detour)


def test_fat_tree_same_failure_plus_four():
    topo = build_fat_tree(4)
    failed = failed_down_agg(topo, 0, 15, random.Random(7))
    detour = f10_reroute(topo, 0, 15, failed, random.Random(3))
    assert failed not in detour
    assert len(detour) - 1 >= 6 + 4
    check_route(topo, detour)


def test_reroute_errors_when_no_alternative():
    nodes = [Node(NodeKind.HOST, 1), Node(NodeKind.HOST, 1),
             Node(NodeKind.SWITCH, 2)]
    topo = Topology(nodes, [Link(0, 2), Link(1, 2)])
    with pytest.raises(TopologyError):
        f10_reroute(topo, 0, 1, 2)


@pytest.mark.parametrize("src, dst, failed, message", [
    (0, 15, -1, "^failed node -1 is not a switch"),  # used to wrap to switch 35
    (0, 15, 36, "^failed node 36 is not a switch"),  # used to raise IndexError
    (0, 0, 25, "must differ"),  # used to return [0]
    (0, 16, 25, "^16 is not a host"),  # a switch; used to return [0, 16]
])
def test_f10_reroute_rejects_bad_ids(src, dst, failed, message):
    topo = build_f10(4)
    with pytest.raises(TopologyError, match=message):
        f10_reroute(topo, src, dst, failed, random.Random(0))


def test_shortest_route_avoiding_none_when_blocked():
    topo = line_topology()
    assert shortest_route_avoiding(topo, 0, 1, {2}) is None


def test_shortest_route_avoiding_same_endpoint():
    topo = build_f10(4)
    assert shortest_route_avoiding(topo, 0, 0, set()) == [0]
    assert shortest_route_avoiding(topo, 20, 20, {25}) == [20]
    assert shortest_route_avoiding(topo, 0, 0, {0}) is None


@pytest.mark.parametrize("src, dst, forbidden, bad", [
    (-1, 15, set(), -1),  # used to return [-1, 31, 23, 15]
    (0, -1, set(), -1),
    (0, 36, set(), 36),  # used to raise a bare IndexError
    (0, 15, {-1}, -1),  # used to block node 35
    (0, 15, {20, 99}, 99),
])
def test_shortest_route_avoiding_rejects_bad_ids(src, dst, forbidden, bad):
    topo = build_f10(4)  # 36 nodes
    with pytest.raises(TopologyError, match=f"^node id {bad} is outside 0..35$"):
        shortest_route_avoiding(topo, src, dst, forbidden, random.Random(0))


@pytest.mark.parametrize("source, blocked, bad", [
    (-1, (), -1),  # used to sweep from node 35
    (36, (), 36),  # used to raise a bare IndexError
    (0, [-1], -1),
    (0, iter([5, 99]), 99),
])
def test_multi_source_bfs_rejects_bad_ids(source, blocked, bad):
    topo = build_f10(4)
    with pytest.raises(TopologyError, match=f"^node id {bad} is outside 0..35$"):
        next(multi_source_bfs(topo, [source], blocked))


def reference_route_avoiding(topology, src, dst, forbidden, rng=None):
    """A BFS from dst that skips forbidden nodes, then a walk that rescans
    each node's sorted neighbours one hop closer: the definition the
    sweep-based walk must reproduce, rng draws included."""
    if src in forbidden or dst in forbidden:
        return None
    dist = [-1] * topology.num_nodes
    dist[dst] = 0
    frontier = [dst]
    while frontier:
        nxt = []
        for v in frontier:
            for nb, _ in topology.adjacency[v]:
                if nb in forbidden or dist[nb] >= 0:
                    continue
                dist[nb] = dist[v] + 1
                nxt.append(nb)
        frontier = nxt
    if dist[src] < 0:
        return None
    route = [src]
    cur = src
    while cur != dst:
        options = sorted(
            nb for nb, _ in topology.adjacency[cur]
            if nb not in forbidden and dist[nb] == dist[cur] - 1
        )
        cur = options[rng.randrange(len(options))] if rng and len(options) > 1 else options[0]
        route.append(cur)
    return route


AVOIDING_CASES = {"f10-k4": lambda: build_f10(4), "fat-tree-k4": lambda: build_fat_tree(4)}
AVOIDING_CASES.update(HAND_BUILT)


@pytest.mark.parametrize("name", sorted(AVOIDING_CASES))
def test_shortest_route_avoiding_matches_reference(name):
    topo = AVOIDING_CASES[name]()
    pick = random.Random(name)
    nodes = range(topo.num_nodes)
    for trial in range(150):
        src, dst = pick.sample(nodes, 2)
        forbidden = set(pick.sample(nodes, pick.randrange(topo.num_nodes // 3 + 1)))
        if trial % 3 == 0:
            forbidden -= {src, dst}
        want = reference_route_avoiding(topo, src, dst, forbidden)
        assert shortest_route_avoiding(topo, src, dst, forbidden) == want
        ours, theirs = random.Random(trial), random.Random(trial)
        want = reference_route_avoiding(topo, src, dst, forbidden, theirs)
        assert shortest_route_avoiding(topo, src, dst, forbidden, ours) == want
        assert ours.random() == theirs.random()  # same number of draws


@pytest.mark.parametrize("name", sorted(AVOIDING_CASES))
def test_multi_source_bfs_skips_blocked_nodes(name):
    topo = AVOIDING_CASES[name]()
    pick = random.Random(name)
    for _ in range(20):
        source = pick.randrange(topo.num_nodes)
        blocked = set(pick.sample(range(topo.num_nodes), topo.num_nodes // 4)) - {source}
        levels = list(multi_source_bfs(topo, [source], blocked))
        dist = [-1] * topo.num_nodes
        for d, gained in enumerate(levels):
            for v in gained:
                assert v not in blocked
                dist[v] = d
        without = Topology(topo.nodes, [
            link for link in topo.links if link.a not in blocked and link.b not in blocked
        ])
        assert dist == bfs_distances(without, source)
        assert list(multi_source_bfs(topo, [source], ())) == list(multi_source_bfs(topo, [source]))


def dict_multi_source_bfs(topology, sources, blocked=()):
    """The sweep with a fresh dict per level, the reference for each level's
    key order: its nodes in the order they were first pushed."""
    seen = [0] * topology.num_nodes
    frontier = {}
    for i, s in enumerate(sources):
        frontier[s] = seen[s] = seen[s] | 1 << i
    for v in blocked:
        seen[v] = -1
    while frontier:
        yield frontier
        reached = {}
        for v, bits in frontier.items():
            for nb in topology.neighbors[v]:
                reached[nb] = reached.get(nb, 0) | bits
        frontier = {}
        for v, bits in reached.items():
            bits &= ~seen[v]
            if bits:
                seen[v] |= bits
                frontier[v] = bits


@pytest.mark.parametrize("name", sorted(ECMP_CASES))
def test_multi_source_bfs_keeps_first_push_order(name):
    # the consumers read levels in mapping order, and the ECMP rows and
    # reroutes are pinned by seeded digests: key order must not move
    topo = ECMP_CASES[name]()
    classes, twins = host_twin_quotient(topo)
    reps = [members[0] for _, members in classes]
    pick = random.Random(name)
    singles = [(s,) for s in pick.sample(range(topo.num_nodes), min(8, topo.num_nodes))]
    for sources in (reps, *singles):
        for blocked in ((), tuple(twins)):
            got = [list(level.items()) for level in multi_source_bfs(topo, sources, blocked)]
            want = [list(level.items()) for level in dict_multi_source_bfs(topo, sources, blocked)]
            assert got == want


# --- provider dispatch -------------------------------------------------------


def test_route_provider_auto_dispatch():
    rng = random.Random(0)
    ft = route_provider(build_fat_tree(4))(0, 15, rng)
    assert len(ft) - 1 == 6
    dc = route_provider(build_dcell(4, 1))(0, 4, rng)
    assert dc == [0, 4]
    bc = route_provider(build_bcube(2, 1))(0, 3, rng)
    assert len(bc) - 1 == 4


def bare(topology):
    return Topology(topology.nodes, topology.links)


@pytest.mark.parametrize("build,mode", [
    (lambda: build_dcell(4, 1), "fat-tree"),
    (lambda: build_bcube(2, 1), "fat-tree"),
    (lambda: import_edge_list(export_edge_list(build_fat_tree(4))), "fat-tree"),
    (lambda: build_fat_tree(4), "dcell"),
    (lambda: build_bcube(2, 1), "dcell"),
    (lambda: build_fat_tree(4), "bcube"),
    (lambda: build_dcell(4, 1), "bcube"),
    # the builder's own nodes and links, without its builder params
    (lambda: bare(build_fat_tree(4)), "fat-tree"),
    (lambda: bare(build_dcell(4, 1)), "dcell"),
    (lambda: bare(build_bcube(2, 1)), "bcube"),
])
def test_route_provider_rejects_foreign_topology_when_built(build, mode):
    topo = build()
    with pytest.raises(TopologyError, match="requires a"):
        route_provider(topo, mode)
    if mode == "fat-tree":
        config = SimConfig(injection_rate=0.5, sim_cycles=100)
        with pytest.raises(TopologyError, match="requires a"):
            run_simulation(topo, mode, config)


# mode -> (topology, one of its switches)
ENDPOINT_CASES = {
    "fat-tree": (lambda: build_fat_tree(4), 20),
    "dcell": (lambda: build_dcell(4, 1), 21),
    "bcube": (lambda: build_bcube(4, 1), 17),
    "ecmp": (lambda: build_fat_tree(4), 20),
}


@pytest.mark.parametrize("mode", list(ENDPOINT_CASES))
def test_every_router_checks_its_endpoints(mode):
    # a switch endpoint used to give a route ending at another host (BCube),
    # a route repeating a node (DCell) or a bare KeyError (ECMP); a negative
    # id gave a fat-tree route from the host it wraps to, and num_nodes an
    # IndexError
    build, switch = ENDPOINT_CASES[mode]
    topo = build()
    assert topo.nodes[switch].kind is NodeKind.SWITCH
    router = route_provider(topo, mode)
    host = topo.hosts[0]
    for bad in (switch, -topo.num_nodes, -1, topo.num_nodes):
        for src, dst in [(host, bad), (bad, host)]:
            with pytest.raises(TopologyError, match=f"^{bad} is not a host"):
                router(src, dst, random.Random(0))
    with pytest.raises(TopologyError, match="must differ"):
        router(host, host, random.Random(0))


def test_route_provider_ecmp_mode():
    topo = build_dcell(4, 1)
    provider = route_provider(topo, "ecmp")
    route = provider(0, 19, random.Random(2))
    check_route(topo, route)
    assert len(route) - 1 == bfs_distances(topo, 0)[19]

