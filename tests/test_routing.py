import itertools
import random

import pytest

from dcnbench.graph import (
    Link,
    Node,
    NodeKind,
    Topology,
    TopologyError,
    bfs_distances,
    bfs_predecessors,
)
from dcnbench.builders import PRESETS, build_bcube, build_dcell, build_f10, build_fat_tree, build_preset
from dcnbench.routing import (
    bcube_route,
    check_route,
    compute_ecmp_tables,
    dcell_route,
    ecmp_select,
    ecmp_walk_hashed,
    ecmp_walk_random,
    f10_reroute,
    fat_tree_route,
    route_provider,
    shortest_route_avoiding,
)

from hand_topologies import HAND_BUILT, isolated_twins


def line_topology():
    nodes = [Node(0, NodeKind.HOST, 1), Node(1, NodeKind.HOST, 1),
             Node(2, NodeKind.SWITCH, 2)]
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


def assert_same_tables(got, want):
    assert got == want
    assert [list(t) for t in got] == [list(t) for t in want]  # key order too


ECMP_CASES = {name: (lambda name=name: build_preset(name)) for name in PRESETS}
ECMP_CASES.update(HAND_BUILT)


@pytest.mark.parametrize("name", sorted(ECMP_CASES))
def test_ecmp_tables_match_reference(name):
    topo = ECMP_CASES[name]()
    assert_same_tables(compute_ecmp_tables(topo), reference_ecmp_tables(topo))


def test_ecmp_tables_repeat_parallel_links():
    tables = compute_ecmp_tables(HAND_BUILT["duplicate_host_links"]())
    assert tables[4][0] == (0, 0)
    assert tables[1][0] == (4, 4)
    assert tables[4][2] == (5, 5)


def test_ecmp_tables_reject_disconnected():
    with pytest.raises(TopologyError):
        compute_ecmp_tables(isolated_twins())
    lone_switch = line_topology().nodes + (Node(3, NodeKind.SWITCH, 2),)
    with pytest.raises(TopologyError):
        compute_ecmp_tables(Topology(lone_switch, line_topology().links))


def test_ecmp_line_single_next_hops():
    tables = compute_ecmp_tables(line_topology())
    assert tables[0][1] == (2,)
    assert tables[2][1] == (1,)
    assert tables[2][0] == (0,)


def test_ecmp_fat_tree_edge_has_two_uplinks():
    topo = build_fat_tree(4)
    tables = compute_ecmp_tables(topo)
    edge0 = topo.neighbors(0)[0]
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
    route = ecmp_walk_random(tables, 0, 15, rng)
    check_route(topo, route)


def test_ecmp_select_basics():
    assert ecmp_select([7], 123) == 7
    assert ecmp_select([3, 9], 42) == ecmp_select([9, 3], 42)


def test_ecmp_select_uniform():
    picks = [ecmp_select([1, 2], fid) for fid in range(10_000)]
    share = picks.count(1) / len(picks)
    assert 0.45 <= share <= 0.55


# --- fat-tree routing --------------------------------------------------------


def test_fat_tree_same_edge_length_two():
    topo = build_fat_tree(4)
    route = fat_tree_route(topo, 0, 1, random.Random(1))
    assert len(route) - 1 == 2
    check_route(topo, route)


def test_fat_tree_same_pod_length_four_no_core():
    topo = build_fat_tree(4)
    for seed in range(20):
        route = fat_tree_route(topo, 0, 2, random.Random(seed))
        assert len(route) - 1 == 4
        assert all(topo.nodes[v].address.digits[0] != 3 for v in route)
        check_route(topo, route)


def test_fat_tree_inter_pod_length_six_and_core_coverage():
    topo = build_fat_tree(4)
    cores_seen = set()
    rng = random.Random(0)
    for _ in range(1000):
        route = fat_tree_route(topo, 0, 15, rng)
        assert len(route) - 1 == 6
        cores_seen.add(route[3])
    core_ids = {n.id for n in topo.nodes
                if n.kind is NodeKind.SWITCH and n.address.digits[0] == 3}
    assert cores_seen == core_ids


def test_fat_tree_down_segment_unique():
    topo = build_fat_tree(4)
    suffixes = set()
    for seed in range(100, 200):
        route = fat_tree_route(topo, 0, 15, random.Random(seed))
        core = route[3]
        suffixes.add((core, tuple(route[route.index(core):])))
    per_core = {}
    for core, suffix in suffixes:
        per_core.setdefault(core, set()).add(suffix)
    for core, suf in per_core.items():
        assert len(suf) == 1


def test_fat_tree_route_rejects_same_host():
    with pytest.raises(TopologyError):
        fat_tree_route(build_fat_tree(4), 3, 3)


def test_fat_tree_route_works_on_f10():
    topo = build_f10(4)
    route = fat_tree_route(topo, 0, 15, random.Random(2))
    assert len(route) - 1 == 6
    check_route(topo, route)


# --- DCell routing -----------------------------------------------------------


def test_dcell_same_cell():
    topo = build_dcell(4, 1)
    route = dcell_route(topo, 0, 1)
    assert len(route) - 1 == 2
    check_route(topo, route)


def test_dcell_direct_intercell_link():
    topo = build_dcell(4, 1)
    # cell 0 host 0 (uid 0) and cell 1 host 0 (uid 4) are directly linked
    route = dcell_route(topo, 0, 4)
    assert route == [0, 4]
    check_route(topo, route)


def host_hops(topology, route):
    hosts = [v for v in route if topology.nodes[v].kind is NodeKind.HOST]
    return len(hosts) - 1


@pytest.mark.parametrize("n,level", [(4, 1), (2, 2)])
def test_dcell_route_sweep(n, level):
    topo = build_dcell(n, level)
    bound = 2 ** (level + 1) - 1
    for src, dst in itertools.combinations(topo.hosts, 2):
        route = dcell_route(topo, src, dst)
        check_route(topo, route)
        dist = bfs_distances(topo, src)[dst]
        assert len(route) - 1 >= dist
        assert host_hops(topo, route) <= bound


# --- BCube routing -----------------------------------------------------------


def test_bcube_single_digit():
    topo = build_bcube(4, 1)
    route = bcube_route(topo, 0, 1)  # digits differ only in position 0
    assert len(route) - 1 == 2
    check_route(topo, route)


def test_bcube_two_digit_route():
    topo = build_bcube(4, 1)
    route = bcube_route(topo, 0, 15)  # (0,0) -> (3,3), hamming 2
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
    for src, dst in itertools.combinations(topo.hosts, 2):
        route = bcube_route(topo, src, dst)
        check_route(topo, route)
        assert len(route) - 1 == 2 * hamming(src, dst, n, k)
        dist = bfs_distances(topo, src)[dst]
        assert len(route) - 1 >= dist


# --- F10 reroute -------------------------------------------------------------


def test_f10_reroute_failed_core_same_length():
    topo = build_f10(4)
    rng = random.Random(4)
    route = fat_tree_route(topo, 0, 15, rng)
    core = route[3]
    detour = f10_reroute(topo, 0, 15, core, random.Random(1))
    assert core not in detour
    assert len(detour) - 1 == 6
    check_route(topo, detour)


def failed_down_agg(topo, src, dst, rng):
    route = fat_tree_route(topo, src, dst, rng)
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
    nodes = [Node(0, NodeKind.HOST, 1), Node(1, NodeKind.HOST, 1),
             Node(2, NodeKind.SWITCH, 2)]
    topo = Topology(nodes, [Link(0, 2), Link(1, 2)])
    with pytest.raises(TopologyError):
        f10_reroute(topo, 0, 1, 2)


def test_shortest_route_avoiding_none_when_blocked():
    topo = line_topology()
    assert shortest_route_avoiding(topo, 0, 1, {2}) is None


def reference_route_avoiding(topology, src, dst, forbidden, rng=None):
    """A BFS from dst that skips forbidden nodes, then a walk that rescans
    each node's sorted neighbours one hop closer: the definition the
    predecessor walk must reproduce, rng draws included."""
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
def test_bfs_predecessors_skips_blocked_nodes(name):
    topo = AVOIDING_CASES[name]()
    pick = random.Random(name)
    for _ in range(20):
        source = pick.randrange(topo.num_nodes)
        blocked = set(pick.sample(range(topo.num_nodes), topo.num_nodes // 4)) - {source}
        dist, preds = bfs_predecessors(topo, source, blocked)
        for v in blocked:
            assert dist[v] == -1 and preds[v] == ()
            assert all(v not in p for p in preds)
        assert bfs_predecessors(topo, source, ()) == bfs_predecessors(topo, source)


# --- provider dispatch -------------------------------------------------------


def test_route_provider_auto_dispatch():
    rng = random.Random(0)
    ft = route_provider(build_fat_tree(4))(0, 15, rng)
    assert len(ft) - 1 == 6
    dc = route_provider(build_dcell(4, 1))(0, 4, rng)
    assert dc == [0, 4]
    bc = route_provider(build_bcube(2, 1))(0, 3, rng)
    assert len(bc) - 1 == 4


def test_route_provider_ecmp_mode():
    topo = build_dcell(4, 1)
    provider = route_provider(topo, "ecmp")
    route = provider(0, 19, random.Random(2))
    check_route(topo, route)
    assert len(route) - 1 == bfs_distances(topo, 0)[19]


def test_ecmp_walk_hashed_deterministic():
    topo = build_fat_tree(4)
    tables = compute_ecmp_tables(topo)
    a = ecmp_walk_hashed(tables, 0, 15, flow_id=99)
    b = ecmp_walk_hashed(tables, 0, 15, flow_id=99)
    assert a == b
    check_route(topo, a)
