import collections
import dataclasses
import itertools
import math
import random

import pytest

from dcnbench.graph import (
    Link,
    Node,
    NodeKind,
    Topology,
    TopologyError,
    host_twin_classes,
    import_edge_list,
)
from dcnbench.builders import (
    PRESETS,
    build_bcube,
    build_dcell,
    build_facebook_fabric,
    build_fat_tree,
    build_jellyfish,
    build_mdcube,
    build_preset,
    build_scafida,
)
from dcnbench import metrics
from dcnbench.metrics import (
    INF,
    MaxFlow,
    SurvivalStats,
    _partition_cut_solver,
    avg_host_path,
    bisection_bandwidth_exact,
    bisection_bandwidth_heuristic,
    compute_metrics,
    failure_experiment,
    host_diameter,
    host_path_stats,
    oversubscription_ratio,
    surviving_host_pairs,
)

from hand_topologies import (
    HAND_BUILT,
    bfs_distances,
    isolated_switch,
    isolated_twins,
    twins_of_twins,
)


def star(num_hosts, capacity=1.0):
    nodes = [Node(NodeKind.HOST, 1)] * num_hosts
    nodes.append(Node(NodeKind.SWITCH, num_hosts))
    return Topology(nodes, [Link(i, num_hosts, capacity) for i in range(num_hosts)])


def dumbbell(hosts_per_side):
    """Two switches joined by one unit link, hosts_per_side hosts each."""
    total = 2 * hosts_per_side
    nodes = [Node(NodeKind.HOST, 1)] * total
    nodes += [Node(NodeKind.SWITCH, 16), Node(NodeKind.SWITCH, 16)]
    links = [Link(i, total) for i in range(hosts_per_side)]
    links += [Link(hosts_per_side + i, total + 1) for i in range(hosts_per_side)]
    links.append(Link(total, total + 1))
    return Topology(nodes, links)


# --- path metrics ---------------------------------------------------------


def test_star_diameter():
    assert host_diameter(star(2)) == 2


def test_fat_tree_diameter_bfs():
    assert host_diameter(build_fat_tree(4)) == 6
    assert host_diameter(build_fat_tree(2)) == 6


def test_dcell_diameter_bound():
    assert host_diameter(build_dcell(4, 1)) <= 5


def test_star_avg_path():
    assert avg_host_path(star(5)) == 2.0
    assert avg_host_path(star(2)) == 2.0


def test_jellyfish_beats_fat_tree_avg_path():
    # matched host counts: 16 jellyfish hosts vs fat tree's 16
    jelly = build_jellyfish(16, 4, 3, seed=1)
    assert jelly.num_hosts == 16
    assert avg_host_path(jelly) < avg_host_path(build_fat_tree(4))


def test_diameter_errors():
    nodes = [Node(NodeKind.HOST, 1), Node(NodeKind.HOST, 1)]
    disconnected = Topology(nodes, [])
    with pytest.raises(TopologyError):
        host_diameter(disconnected)


@pytest.mark.parametrize("metric", [host_diameter, avg_host_path, host_path_stats])
def test_path_metrics_reject_isolated_twins(metric):
    with pytest.raises(TopologyError):
        metric(isolated_twins())


def reference_path_stats(topology):
    """One BFS per host; diameter and mean over unordered host pairs."""
    hosts = topology.hosts
    rows = [bfs_distances(topology, h) for h in hosts]
    pairs = [row[other] for i, row in enumerate(rows) for other in hosts[i + 1:]]
    if min(pairs) < 0:
        raise TopologyError("topology is disconnected")
    return max(pairs), sum(pairs) / len(pairs)


PATH_CASES = {name: (lambda name=name: build_preset(name)) for name in PRESETS}
PATH_CASES.update(HAND_BUILT)
PATH_CASES.update(
    dcell_n2_l2=lambda: build_dcell(2, 2),
    bcube_n3_k2=lambda: build_bcube(3, 2),
    scafida=lambda: build_scafida(30, 40, 12, seed=5),
    dcell_n3_l2=lambda: build_dcell(3, 2),  # 156 twin classes: bitsets past one word
    bcube_n3_k3=lambda: build_bcube(3, 3),  # 81 twin classes
    isolated_switch=isolated_switch,  # unreachable switch, connected hosts
    fat_tree_k4_h3=lambda: build_fat_tree(4, hosts_per_edge=3),  # twin classes of 3
    facebook_8_2_3_2=lambda: build_facebook_fabric(8, 2, 3, 2),
    twins_of_twins=twins_of_twins,  # the quotient drops both ends of a link
)


@pytest.mark.parametrize("name", sorted(PATH_CASES))
def test_path_stats_match_reference(name):
    topo = PATH_CASES[name]()
    diameter, avg = reference_path_stats(topo)
    assert host_path_stats(topo) == (diameter, avg)  # bit-identical mean
    assert host_diameter(topo) == diameter
    assert avg_host_path(topo) == avg


# --- bisection ------------------------------------------------------------


def test_bisection_two_hosts():
    assert bisection_bandwidth_exact(star(2)) == pytest.approx(1.0)


def test_bisection_dumbbell():
    assert bisection_bandwidth_exact(dumbbell(2)) == pytest.approx(1.0)


def test_bisection_fat_tree_exact():
    assert bisection_bandwidth_exact(build_fat_tree(4)) == pytest.approx(8.0)


def test_bisection_guard():
    with pytest.raises(TopologyError):
        bisection_bandwidth_exact(build_dcell(4, 1))  # 20 hosts


def test_heuristic_recovers_dumbbell():
    assert bisection_bandwidth_heuristic(dumbbell(3), restarts=4, seed=0) == pytest.approx(1.0)


def test_heuristic_matches_exact_fat_tree():
    assert bisection_bandwidth_heuristic(build_fat_tree(4), restarts=8, seed=0) == pytest.approx(8.0)


@pytest.mark.parametrize("seed", range(4))
def test_heuristic_upper_bounds_exact(seed):
    topo = build_jellyfish(8, 4, 3, seed=seed)  # 8 hosts
    exact = bisection_bandwidth_exact(topo)
    heuristic = bisection_bandwidth_heuristic(topo, restarts=8, seed=seed)
    assert heuristic >= exact - 1e-9


def reference_max_flow(arcs, s, t):
    """Max-flow from ``s`` to ``t`` over directed ``(u, v, capacity)`` arcs,
    one BFS augmenting path at a time on a residual map: the tests' own
    solver, sharing nothing with ``metrics.MaxFlow``."""
    residual = collections.defaultdict(dict)
    for u, v, cap in arcs:
        residual[u][v] = residual[u].get(v, 0.0) + cap
        residual[v].setdefault(u, 0.0)
    flow = 0.0
    while True:
        parent = {s: None}
        queue = collections.deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v, cap in residual[u].items():
                if cap > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return flow
        path = []
        v = t
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        flow += push


def reference_cut(topology, side_a):
    """Max-flow between the hosts in ``side_a`` and the other hosts."""
    arcs = [(link.a, link.b, link.capacity) for link in topology.links]
    arcs += [(link.b, link.a, link.capacity) for link in topology.links]
    arcs += [("s", h, INF) if h in side_a else (h, "t", INF) for h in topology.hosts]
    return reference_max_flow(arcs, "s", "t")


def reference_bisection(topology):
    """The cut of every balanced host subset, with no twin classes and no
    pruning: the definition the branch and bound must reproduce."""
    hosts = topology.hosts
    if len(hosts) % 2 == 0:
        rest = itertools.combinations(hosts[1:], len(hosts) // 2 - 1)
        combos = ({hosts[0], *combo} for combo in rest)
    else:
        combos = (set(combo) for combo in itertools.combinations(hosts, len(hosts) // 2))
    return min(reference_cut(topology, side_a) for side_a in combos)


# most preset builders ignore the seed: run the reference once per topology
_reference_cuts = {}


def cached_reference_bisection(topology):
    key = (tuple(topology.hosts), topology.links)
    if key not in _reference_cuts:
        _reference_cuts[key] = reference_bisection(topology)
    return _reference_cuts[key]


def odd_dumbbell():
    """Hosts 0 and 1 on switch 5, hosts 2-4 on switch 6, one unit link between."""
    nodes = [Node(NodeKind.HOST, 1)] * 5
    nodes += [Node(NodeKind.SWITCH, 8), Node(NodeKind.SWITCH, 8)]
    links = [Link(0, 5), Link(1, 5), Link(2, 6), Link(3, 6), Link(4, 6), Link(5, 6)]
    return Topology(nodes, links)


def unswappable_switches():
    """Switches 5 and 6 hold two unit-linked hosts each, and hosts 0 and 2
    also reach switches 7 and 8, which are linked; host 4 hangs off 7 too.
    5 and 6 agree on degree, host count and capacities, but 7 and 8 differ
    in degree, so no automorphism swaps 5 and 6."""
    nodes = [Node(NodeKind.HOST, 2)] * 5
    nodes += [Node(NodeKind.SWITCH, 4)] * 4
    pairs = [(0, 5), (1, 5), (2, 6), (3, 6), (0, 7), (2, 8), (7, 8), (4, 7)]
    return Topology(nodes, [Link(a, b) for a, b in pairs])


BISECTION_CASES = {
    f"{name}@{seed}": (lambda name=name, seed=seed: build_preset(name, seed), seed)
    for name in PRESETS
    for seed in range(5)
    if build_preset(name, seed).num_hosts <= 16
}
BISECTION_CASES.update((name, (build, 0)) for name, build in HAND_BUILT.items())
BISECTION_CASES.update(
    isolated_twins=(isolated_twins, 0),  # bisection 0
    odd_dumbbell=(odd_dumbbell, 0),
    star5=(lambda: star(5), 0),
    unswappable_switches=(unswappable_switches, 0),
    bcube_n2_k3=(lambda: build_bcube(2, 3), 0),  # no switch swap
    mdcube_2x2_n2_k1=(lambda: build_mdcube(2, 2, 2, 1), 0),
    dcell_n3_l1=(lambda: build_dcell(3, 1), 0),
)
# random graphs with few twins, where the branch and bound cuts at different depths
BISECTION_CASES.update(
    (f"jellyfish-s{s}-p4-r{r}@{seed}", (lambda s=s, r=r, seed=seed: build_jellyfish(s, 4, r, seed), seed))
    for s, r in ((8, 2), (10, 3))
    for seed in range(10)
)


@pytest.mark.parametrize("name", sorted(BISECTION_CASES))
def test_bisection_exact_and_heuristic_match_reference(name):
    build, seed = BISECTION_CASES[name]
    topo = build()
    exact = bisection_bandwidth_exact(topo)
    assert exact == cached_reference_bisection(topo)
    assert bisection_bandwidth_heuristic(topo, restarts=8, seed=seed) == exact


@pytest.mark.parametrize("name", sorted(BISECTION_CASES))
def test_switch_swaps_keep_every_cut(name):
    # the search skips a count vector for its image, so images must cut alike
    topo = BISECTION_CASES[name][0]()
    classes = [members for _, members in host_twin_classes(topo)]
    pick = random.Random(name)
    for pairs in metrics._switch_swaps(topo, classes):
        assert list(pairs) == sorted(pairs) and all(a < b for a, b in pairs)
        image = {}
        for a, b in pairs:
            assert len(classes[a]) == len(classes[b])
            image.update(zip(classes[a], classes[b]))
            image.update(zip(classes[b], classes[a]))
        for _ in range(20):
            side_a = {h for h in topo.hosts if pick.randrange(2)}
            image_a = {image.get(h, h) for h in side_a}
            assert reference_cut(topo, side_a) == reference_cut(topo, image_a)


@pytest.mark.parametrize(
    "name, build, kept",
    [
        ("fat-tree-k4", lambda: build_fat_tree(4), 4),  # the edge pair of each pod
        ("bcube-n4-k1", lambda: build_bcube(4, 1), 12),  # any two switches of one level
        ("jellyfish-s10-p4-r3", lambda: build_preset("jellyfish-s10-p4-r3"), 0),
        ("bcube-n2-k3", lambda: build_bcube(2, 3), 0),
        ("unswappable_switches", unswappable_switches, 0),
    ],
)
def test_switch_swaps_kept(name, build, kept):
    topo = build()
    classes = [members for _, members in host_twin_classes(topo)]
    assert len(metrics._switch_swaps(topo, classes)) == kept


@pytest.mark.parametrize(
    "name, unpruned_calls, factor",
    [("fat-tree-k4", 1573, 2), ("f10-k4", 1573, 2), ("bcube-n4-k1", 2205, 5)],
)
def test_switch_swaps_cut_max_flow_calls(monkeypatch, name, unpruned_calls, factor):
    # unpruned_calls: what the search makes with the complement rule alone
    calls = 0
    max_flow = MaxFlow.max_flow

    def counted(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return max_flow(self, *args, **kwargs)

    monkeypatch.setattr(MaxFlow, "max_flow", counted)
    assert bisection_bandwidth_exact(build_preset(name)) == 8.0
    assert calls <= unpruned_calls / factor


# (exact value, max-flow calls) per case. A change that prunes more of the
# search lowers the calls; it updates this table and says why.
EXACT_SEARCH_PINS = {
    "bcube-n4-k1@0": (8.0, 229),
    "bcube-n4-k1@1": (8.0, 229),
    "bcube-n4-k1@2": (8.0, 229),
    "bcube-n4-k1@3": (8.0, 229),
    "bcube-n4-k1@4": (8.0, 229),
    "bcube_n2_k3": (8.0, 209),
    "capacity_twins": (4.0, 4),
    "dcell_n3_l1": (3.0, 95),
    "duplicate_host_links": (2.0, 3),
    "f10-k4@0": (8.0, 508),
    "f10-k4@1": (8.0, 508),
    "f10-k4@2": (8.0, 508),
    "f10-k4@3": (8.0, 508),
    "f10-k4@4": (8.0, 508),
    "fat-tree-k4-paper@0": (4.0, 68),
    "fat-tree-k4-paper@1": (4.0, 68),
    "fat-tree-k4-paper@2": (4.0, 68),
    "fat-tree-k4-paper@3": (4.0, 68),
    "fat-tree-k4-paper@4": (4.0, 68),
    "fat-tree-k4@0": (8.0, 508),
    "fat-tree-k4@1": (8.0, 508),
    "fat-tree-k4@2": (8.0, 508),
    "fat-tree-k4@3": (8.0, 508),
    "fat-tree-k4@4": (8.0, 508),
    "isolated_twins": (0.0, 3),
    "jellyfish-s10-p4-r3@0": (5.0, 461),
    "jellyfish-s10-p4-r3@1": (5.0, 461),
    "jellyfish-s10-p4-r3@2": (3.0, 393),
    "jellyfish-s10-p4-r3@3": (5.0, 461),
    "jellyfish-s10-p4-r3@4": (3.0, 250),
    "jellyfish-s10-p4-r3@5": (5.0, 461),
    "jellyfish-s10-p4-r3@6": (3.0, 135),
    "jellyfish-s10-p4-r3@7": (5.0, 461),
    "jellyfish-s10-p4-r3@8": (5.0, 461),
    "jellyfish-s10-p4-r3@9": (5.0, 461),
    "jellyfish-s8-p4-r2@0": (2.0, 49),
    "jellyfish-s8-p4-r2@1": (2.0, 190),
    "jellyfish-s8-p4-r2@2": (2.0, 68),
    "jellyfish-s8-p4-r2@3": (2.0, 124),
    "jellyfish-s8-p4-r2@4": (2.0, 40),
    "jellyfish-s8-p4-r2@5": (2.0, 85),
    "jellyfish-s8-p4-r2@6": (2.0, 136),
    "jellyfish-s8-p4-r2@7": (2.0, 74),
    "jellyfish-s8-p4-r2@8": (2.0, 68),
    "jellyfish-s8-p4-r2@9": (2.0, 67),
    "mdcube_2x2_n2_k1": (2.0, 23),
    "multihomed_twins": (2.0, 10),
    "odd_dumbbell": (1.0, 6),
    "self_loop_pair": (1.0, 6),
    "star5": (2.0, 1),
    "unswappable_switches": (1.0, 14),
}


def test_exact_search_pins_cover_every_case():
    assert sorted(EXACT_SEARCH_PINS) == sorted(BISECTION_CASES)


@pytest.mark.parametrize("name", sorted(EXACT_SEARCH_PINS))
def test_exact_search_value_and_max_flow_calls(monkeypatch, name):
    calls = 0
    max_flow = MaxFlow.max_flow

    def counted(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return max_flow(self, *args, **kwargs)

    monkeypatch.setattr(MaxFlow, "max_flow", counted)
    value = bisection_bandwidth_exact(BISECTION_CASES[name][0]())
    assert (value, calls) == EXACT_SEARCH_PINS[name]


RESUME_CASES = {name: build for name, (build, seed) in BISECTION_CASES.items() if seed == 0}
RESUME_CASES["isolated_switch"] = isolated_switch


@pytest.mark.parametrize("name", sorted(RESUME_CASES))
def test_max_flow_resumes_after_opening_arcs(name):
    # the branch and bound opens host arcs a class at a time and resumes the flow
    topo = RESUME_CASES[name]()
    n = topo.num_nodes
    pick = random.Random(name)
    for _ in range(5):
        order = pick.sample(topo.hosts, len(topo.hosts))
        sides = {h: pick.randrange(2) for h in order}
        solver, arcs = _partition_cut_solver(topo)
        total = 0.0
        while order:
            chunk = pick.randint(1, 3)
            for h in order[:chunk]:
                solver.cap[arcs[h][sides[h]]] = INF
            del order[:chunk]
            total += solver.max_flow(n, n + 1)
        fresh, fresh_arcs = _partition_cut_solver(topo)
        for h, side in sides.items():
            fresh.cap[fresh_arcs[h][side]] = INF
        side_a = {h for h, side in sides.items() if side}
        assert total == fresh.max_flow(n, n + 1) == reference_cut(topo, side_a)


@pytest.mark.parametrize("capacity", [1e-12, 1e-13])
def test_tiny_capacities_still_connect(capacity):
    # an absolute residual threshold of 1e-12 read these links as absent,
    # so both bisections gave 0 and compute_metrics raised
    topo = star(2, capacity)
    assert bisection_bandwidth_exact(topo) == capacity
    assert bisection_bandwidth_heuristic(topo) == capacity
    report = compute_metrics(topo)
    assert report.bisection_bandwidth == capacity
    assert report.oversubscription == 1.0


@pytest.mark.parametrize("capacities", [(INF, 1.0), (INF, INF)], ids=["one", "both"])
def test_infinite_capacity_fails_every_bisection(capacities):
    # one infinite link once gave oversubscription inf, and two made
    # compute_metrics blame a bisection that the caller never supplied
    nodes = [Node(NodeKind.HOST, 1), Node(NodeKind.HOST, 1), Node(NodeKind.SWITCH, 2)]
    topo = Topology(nodes, [Link(h, 2, capacity) for h, capacity in enumerate(capacities)])
    for call in (bisection_bandwidth_exact, bisection_bandwidth_heuristic, compute_metrics):
        with pytest.raises(TopologyError, match=r"^link 0 \(0-2\) has infinite capacity$"):
            call(topo)


@pytest.mark.parametrize("capacities", [(INF, 1.0), (1.0, INF)], ids=["first", "second"])
def test_supplied_bisection_still_rejects_infinite_host_link(capacities):
    # a supplied bisection skips the cut solver and its check; the access
    # sum once came out inf here, and so did the ratio
    nodes = [Node(NodeKind.HOST, 1), Node(NodeKind.HOST, 1), Node(NodeKind.SWITCH, 2)]
    topo = Topology(nodes, [Link(h, 2, capacity) for h, capacity in enumerate(capacities)])
    bad = capacities.index(INF)
    with pytest.raises(TopologyError, match=rf"^link {bad} \({bad}-2\) has infinite capacity$"):
        oversubscription_ratio(topo, bisection=1.0)


@pytest.mark.parametrize("name", ["dcell-n4-l1", "dcell-n6-l1", "facebook-scaled"])
def test_heuristic_scales_with_capacities(name):
    # a power-of-two scale keeps every sum exact, so refinement and max-flow
    # make the same moves at 2**-45 as at 1 when their thresholds scale too
    topo = build_preset(name)
    scale = 2.0**-45
    tiny = Topology(topo.nodes, [link._replace(capacity=link.capacity * scale) for link in topo.links])
    assert bisection_bandwidth_heuristic(tiny) == bisection_bandwidth_heuristic(topo) * scale


def test_heuristic_closes_jellyfish_gap():
    # moving one host at a time stops at a cut of 75 here
    topo = build_jellyfish(50, 8, 5, 0)
    assert bisection_bandwidth_heuristic(topo, restarts=1, seed=0) <= 40


@pytest.mark.parametrize("restarts", [0, -1, 2.5, True])
def test_heuristic_rejects_bad_restarts(monkeypatch, restarts):
    def no_solver(topology):
        raise AssertionError("solver built before restarts was checked")

    monkeypatch.setattr(metrics, "_partition_cut_solver", no_solver)
    with pytest.raises(TopologyError, match="restarts"):
        bisection_bandwidth_heuristic(build_fat_tree(4), restarts=restarts)


# --- over-subscription ----------------------------------------------------


def test_oversubscription_fat_tree_nonblocking():
    for k in (2, 4):
        assert oversubscription_ratio(build_fat_tree(k)) == pytest.approx(1.0, abs=1e-9)


def test_oversubscription_star():
    assert oversubscription_ratio(star(2)) == pytest.approx(1.0)


def test_oversubscription_dumbbell():
    # 4 unit host links / 2 = 2 over a bisection of 1
    assert oversubscription_ratio(dumbbell(2)) == pytest.approx(2.0)


@pytest.mark.parametrize("bisection", [-1.0, math.nan, math.inf])
def test_oversubscription_rejects_bad_bisection(bisection):
    # these once gave -8.0, NaN and 0.0
    with pytest.raises(TopologyError, match="finite number > 0"):
        oversubscription_ratio(build_fat_tree(4), bisection=bisection)


def test_oversubscription_rejects_zero_bisection():
    with pytest.raises(TopologyError, match="bisection bandwidth is 0"):
        oversubscription_ratio(isolated_twins())
    with pytest.raises(TopologyError, match="bisection bandwidth is 0"):
        oversubscription_ratio(star(2), bisection=0.0)


# --- disjoint paths -------------------------------------------------------


def vertex_disjoint_paths(topology, a, b):
    """Maximum number of internally vertex-disjoint a-b paths (Menger): a
    unit-capacity max-flow on the node-split graph, where ``2 * v`` enters
    node ``v`` and ``2 * v + 1`` leaves it. The oracle of the two-path count
    of ``surviving_host_pairs``."""
    assert a != b
    arcs = [(2 * v, 2 * v + 1, INF if v in (a, b) else 1.0) for v in range(topology.num_nodes)]
    for link in topology.links:
        arcs += [(2 * link.a + 1, 2 * link.b, 1.0), (2 * link.b + 1, 2 * link.a, 1.0)]
    return int(reference_max_flow(arcs, 2 * a + 1, 2 * b))


def test_vdp_shared_switch():
    assert vertex_disjoint_paths(star(2), 0, 1) == 1


def test_vdp_two_switch_disjoint_paths():
    nodes = [Node(NodeKind.HOST, 2), Node(NodeKind.HOST, 2),
             Node(NodeKind.SWITCH, 2), Node(NodeKind.SWITCH, 2)]
    links = [Link(0, 2), Link(0, 3), Link(1, 2), Link(1, 3)]
    topo = Topology(nodes, links)
    assert vertex_disjoint_paths(topo, 0, 1) == 2


def test_vdp_fat_tree_edge_switches():
    topo = build_fat_tree(4)
    # hosts have a single access link, so host-level vdp is 1
    assert vertex_disjoint_paths(topo, 0, 15) == 1
    # between edge switches of different pods the two uplinks limit vdp to 2
    edges = [v for v, n in enumerate(topo.nodes)
             if n.kind is NodeKind.SWITCH and n.address.digits[0] == 1]
    assert vertex_disjoint_paths(topo, edges[0], edges[-1]) == 2


def test_vdp_symmetry_and_degree_bound():
    topo = build_scafida(10, 10, 16, seed=3)
    hosts = topo.hosts
    for a, b in itertools.islice(itertools.combinations(hosts, 2), 20):
        ab = vertex_disjoint_paths(topo, a, b)
        assert ab == vertex_disjoint_paths(topo, b, a)
        assert ab <= min(topo.degree(a), topo.degree(b))


def alive_subgraph(topology, alive):
    """The subgraph the ``alive`` nodes induce, node ids unchanged: dead
    nodes stay as isolated nodes, so no path can pass through them."""
    links = [link for link in topology.links if alive[link.a] and alive[link.b]]
    return Topology(topology.nodes, links)


TWO_PATH_CASES = {
    "scafida": lambda: build_scafida(8, 8, 12, seed=9),
    "dcell-n3-l1": lambda: build_dcell(3, 1),
    "bcube-n3-k1": lambda: build_bcube(3, 1),
    **HAND_BUILT,
}


def test_block_predicate_matches_maxflow():
    # random alive masks that also kill hosts: a dead host is in no pair
    for name, make in sorted(TWO_PATH_CASES.items()):
        topo = make()
        pick = random.Random(name)
        for trial in range(6):
            dead = 0.4 * trial / 5
            alive = [pick.random() >= dead for _ in range(topo.num_nodes)]
            sub = alive_subgraph(topo, alive)
            flow_count = sum(
                1
                for a, b in itertools.combinations([h for h in topo.hosts if alive[h]], 2)
                if vertex_disjoint_paths(sub, a, b) >= 2
            )
            assert surviving_host_pairs(topo, alive)[1] == flow_count, (name, alive)


# --- failure experiment ----------------------------------------------------


def test_failure_zero_fraction_is_baseline():
    topo = build_scafida(12, 12, 12, seed=4)
    alive = [True] * topo.num_nodes
    pairs = topo.num_hosts * (topo.num_hosts - 1) // 2
    baseline = surviving_host_pairs(topo, alive)[1] / pairs
    stats = failure_experiment(topo, 0.0, trials=3, seed=1)
    assert stats.mean_two_path_fraction == pytest.approx(baseline)
    assert stats.mean_connected_fraction == pytest.approx(1.0)


def test_failure_killing_only_switch_disconnects_all():
    topo = star(3)
    alive = [True, True, True, False]
    assert surviving_host_pairs(topo, alive) == (0, 0)


def reference_connected_host_pairs(topology, alive):
    """A DFS over alive nodes that counts hosts per component: the
    definition the component count must reproduce."""
    host_set = set(topology.hosts)
    seen = [False] * topology.num_nodes
    total = 0
    for start in range(topology.num_nodes):
        if seen[start] or not alive[start]:
            continue
        stack = [start]
        seen[start] = True
        hosts_here = 0
        while stack:
            v = stack.pop()
            if v in host_set:
                hosts_here += 1
            for nb, _ in topology.adjacency[v]:
                if alive[nb] and not seen[nb]:
                    seen[nb] = True
                    stack.append(nb)
        total += hosts_here * (hosts_here - 1) // 2
    return total


CONNECTED_CASES = {name: (lambda name=name: build_preset(name)) for name in PRESETS}
CONNECTED_CASES.update(HAND_BUILT)
CONNECTED_CASES["isolated_twins"] = isolated_twins


@pytest.mark.parametrize("name", sorted(CONNECTED_CASES))
def test_connected_host_pairs_matches_reference(name):
    topo = CONNECTED_CASES[name]()
    pick = random.Random(name)
    for _ in range(40):
        dead = pick.random()
        alive = [pick.random() >= dead for _ in range(topo.num_nodes)]
        assert surviving_host_pairs(topo, alive)[0] == reference_connected_host_pairs(topo, alive)


def test_failure_experiment_deterministic():
    topo = build_scafida(15, 20, 10, seed=5)
    a = failure_experiment(topo, 0.2, trials=5, seed=7)
    b = failure_experiment(topo, 0.2, trials=5, seed=7)
    assert a == b


# failure_experiment(preset, 0.3, trials=5, seed=2): switches failed per
# trial, two-path fraction and connected fraction, pinned
FAILURE_GOLDEN = {
    "fat-tree-k4": (6, 0.0, 0.41500000000000004),
    "dcell-n4-l1": (1, 0.3473684210526316, 1.0),
    "bcube-n4-k1": (2, 0.2866666666666667, 0.9),
    "jellyfish-s10-p4-r3": (3, 0.0, 0.4666666666666667),
}


@pytest.mark.parametrize("name", sorted(FAILURE_GOLDEN))
def test_failure_experiment_golden(name):
    stats = failure_experiment(build_preset(name), 0.3, trials=5, seed=2)
    assert stats == SurvivalStats(0.3, 5, *FAILURE_GOLDEN[name])


def test_failure_experiment_needs_a_trial():
    with pytest.raises(TopologyError, match="trial"):
        failure_experiment(build_fat_tree(4), 0.1, trials=0)


@pytest.mark.parametrize("trials", [1.5, True, "2"])
def test_failure_experiment_rejects_non_integer_trials(trials):
    # range() raised a bare TypeError for 1.5, and True ran as one trial
    with pytest.raises(TopologyError, match="trials"):
        failure_experiment(build_fat_tree(4), 0.1, trials=trials)


def test_failure_experiment_needs_two_hosts():
    one_host = import_edge_list("node 0 host 1 -\nnode 1 switch 4 -\nlink 0 1 1 10\n")
    with pytest.raises(TopologyError, match="two hosts"):
        failure_experiment(one_host, 0.0, trials=1)


# --- report ----------------------------------------------------------------


def test_metrics_report_asdict():
    report = dataclasses.asdict(compute_metrics(build_fat_tree(2)))
    assert report["topology"] == "fat_tree"
    assert (report["hosts"], report["switches"], report["host_diameter"]) == (2, 5, 6)
    assert report["method"] == "exact"


@pytest.mark.parametrize("restarts", [0, 1.5, True])
@pytest.mark.parametrize("k", [4, 6])  # exact at 16 hosts, heuristic at 54
def test_compute_metrics_rejects_bad_restarts(k, restarts):
    with pytest.raises(TopologyError, match="restarts"):
        compute_metrics(build_fat_tree(k), restarts=restarts)


def test_metrics_report_heuristic_flag():
    report = compute_metrics(build_dcell(4, 1), restarts=4)
    assert report.method == "heuristic"
    assert report.bisection_bandwidth > 0
