import hashlib
import math
import random

import pytest

from dcnbench.graph import Link, Node, NodeKind, Topology, export_edge_list, validate
from dcnbench.builders import (
    SizeCapError,
    _join_components,
    _random_regular_switch_graph,
    build_bcn,
    build_bcube,
    build_dcell,
    build_f10,
    build_facebook_fabric,
    build_fat_tree,
    build_hcn,
    build_jellyfish,
    build_mdcube,
    build_preset,
    build_scafida,
    dcell_host_count,
    expand_jellyfish,
    size_cap,
)
from dcnbench.graph import TopologyError

from hand_topologies import end_values, per_end_adjacency


def layer_switches(topo, layer):
    """Ids of the fat-tree switches in ``layer``: 1 edge, 2 aggregation, 3 core."""
    return [
        v for v, n in enumerate(topo.nodes)
        if n.kind is NodeKind.SWITCH and n.address.digits[0] == layer
    ]


# --- fat tree -----------------------------------------------------------


def test_fat_tree_k4_layer_counts():
    topo = build_fat_tree(4)
    assert len(layer_switches(topo, 3)) == 4
    assert len(layer_switches(topo, 2)) == 8
    assert len(layer_switches(topo, 1)) == 8
    assert topo.num_hosts == 16


def test_fat_tree_k2_counts():
    topo = build_fat_tree(2)
    assert len(layer_switches(topo, 3)) == 1
    assert len(layer_switches(topo, 2)) == 2
    assert len(layer_switches(topo, 1)) == 2
    assert topo.num_hosts == 2


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_fat_tree_closed_forms(k):
    topo = build_fat_tree(k)
    assert topo.num_hosts == k**3 // 4
    assert topo.num_switches == 5 * k * k // 4
    assert validate(topo) == []
    for sid in topo.switches:
        assert topo.degree(sid) == k


def test_fat_tree_rejects_bad_k():
    with pytest.raises(TopologyError):
        build_fat_tree(3)
    with pytest.raises(TopologyError):
        build_fat_tree(0)


@pytest.mark.parametrize("builder", [build_fat_tree, build_f10])
def test_fat_tree_family_rejects_hostless_edges(builder):
    for hosts_per_edge in (0, -1):
        with pytest.raises(TopologyError):
            builder(4, hosts_per_edge=hosts_per_edge)


def test_fat_tree_hosts_per_edge_override():
    topo = build_fat_tree(4, hosts_per_edge=1)
    assert topo.num_hosts == 8
    assert topo.num_switches == 20
    assert validate(topo) == []


# --- facebook fabric ----------------------------------------------------


def test_facebook_paper_scale():
    topo = build_facebook_fabric(48, 4, 1, 1)
    assert topo.num_switches == 52
    assert topo.num_hosts == 48
    assert validate(topo) == []


def test_facebook_small_complete_bipartite():
    topo = build_facebook_fabric(2, 2, 1, 1)
    assert topo.num_hosts == 2
    edges = set(layer_switches(topo, 1))
    aggs = set(layer_switches(topo, 2))
    fabric = {(l.a, l.b) for l in topo.links if l.a in edges and l.b in aggs}
    assert len(fabric) == 4


def test_facebook_capacity_ratio():
    topo = build_facebook_fabric(2, 2, 1, 1)
    host_caps = {l.capacity for l in topo.links if l.a < topo.num_hosts}
    fabric_caps = {l.capacity for l in topo.links if l.a >= topo.num_hosts}
    assert host_caps == {1.0}
    assert fabric_caps == {4.0}
    assert max(fabric_caps) / max(host_caps) == 4.0


def test_facebook_planes_replicate_aggregation():
    topo = build_facebook_fabric(2, 2, 1, planes=2)
    assert topo.num_switches == 2 + 4
    assert validate(topo) == []


# --- dcell --------------------------------------------------------------


def test_dcell_host_counts():
    assert dcell_host_count(4, 1) == 20
    assert dcell_host_count(6, 1) == 42
    assert dcell_host_count(6, 3) == 3_263_442
    assert dcell_host_count(5, 0) == 5


def test_dcell_n4_l1_counts():
    topo = build_dcell(4, 1)
    assert topo.num_hosts == 20
    assert topo.num_switches == 5
    assert validate(topo) == []


def test_dcell_n6_l1_counts():
    topo = build_dcell(6, 1)
    assert topo.num_hosts == 42
    assert topo.num_switches == 7
    assert validate(topo) == []


def test_dcell_level2_structure():
    topo = build_dcell(2, 2)
    assert topo.num_hosts == dcell_host_count(2, 2) == 42
    assert topo.num_switches == 21
    assert validate(topo) == []
    # every host: one switch link plus one link per level
    for hid in topo.hosts:
        assert topo.degree(hid) == 3


def test_dcell_intercell_rule():
    topo = build_dcell(4, 1)
    # sub-cell 0's host 0 links to sub-cell 1's host 0 (uids 0 and 4)
    pairs = {(l.a, l.b) for l in topo.links}
    assert (0, 4) in pairs


def test_dcell_size_cap():
    with pytest.raises(SizeCapError):
        build_dcell(6, 3)


# --- bcube --------------------------------------------------------------


def test_bcube_8_3_hosts():
    topo = build_bcube(8, 3)
    assert topo.num_hosts == 4096
    assert topo.num_switches == 4 * 512


def test_bcube_4_1_counts():
    topo = build_bcube(4, 1)
    assert topo.num_hosts == 16
    assert topo.num_switches == 8
    levels = {n.address.digits[0] for n in topo.nodes if n.kind is NodeKind.SWITCH}
    assert levels == {0, 1}
    assert validate(topo) == []


def test_bcube_base_case():
    topo = build_bcube(2, 0)
    assert topo.num_hosts == 2
    assert topo.num_switches == 1
    assert validate(topo) == []


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 1), (4, 1)])
def test_bcube_closed_forms(n, k):
    topo = build_bcube(n, k)
    assert topo.num_hosts == n ** (k + 1)
    assert topo.num_switches == (k + 1) * n**k
    assert validate(topo) == []
    for hid in topo.hosts:
        assert topo.degree(hid) == k + 1


# --- mdcube -------------------------------------------------------------


def test_mdcube_3x3_containers():
    topo = build_mdcube(3, 3, 2, 1)
    # 9 containers of BCube(2,1): 4 hosts and 4 switches each
    assert topo.num_hosts == 9 * 4
    assert topo.num_switches == 9 * 4
    assert validate(topo) == []


def count_intercontainer_links(topo, per_hosts, per_switches, containers):
    host_total = containers * per_hosts

    def container_of(nid):
        if nid < host_total:
            return nid // per_hosts
        return (nid - host_total) // per_switches

    return sum(1 for l in topo.links if container_of(l.a) != container_of(l.b))


def test_mdcube_1x2_single_link():
    topo = build_mdcube(1, 2, 2, 1)
    assert count_intercontainer_links(topo, 4, 4, 2) == 1


def test_mdcube_1x3_complete_graph():
    topo = build_mdcube(1, 3, 2, 1)
    assert count_intercontainer_links(topo, 4, 4, 3) == 3
    assert validate(topo) == []


# --- jellyfish ----------------------------------------------------------


def test_jellyfish_counts_and_regularity():
    topo = build_jellyfish(10, 4, 3, seed=7)
    assert topo.num_hosts == 10
    assert topo.num_switches == 10
    switch_links = [
        l for l in topo.links if l.a >= topo.num_hosts and l.b >= topo.num_hosts
    ]
    assert len(switch_links) == 15  # 10 * 3 / 2
    for sid in topo.switches:
        assert topo.degree(sid) == 4  # 3 switch links + 1 host
    assert validate(topo) == []


def test_jellyfish_rejects_infeasible():
    with pytest.raises(TopologyError):
        build_jellyfish(2, 4, 0)
    with pytest.raises(TopologyError):
        build_jellyfish(3, 4, 3)
    with pytest.raises(TopologyError):
        build_jellyfish(5, 4, 3)  # odd stub total
    with pytest.raises(TopologyError, match="r = 1"):
        build_jellyfish(4, 2, 1)  # a perfect matching: two separate links


def test_jellyfish_deterministic():
    a = export_edge_list(build_jellyfish(12, 6, 3, seed=3))
    b = export_edge_list(build_jellyfish(12, 6, 3, seed=3))
    assert a == b
    c = export_edge_list(build_jellyfish(12, 6, 3, seed=4))
    assert c != a


@pytest.mark.parametrize("num_switches, ports, r, seed", [(6, 5, 4, 1), (6, 5, 4, 2), (8, 7, 6, 6)])
def test_jellyfish_rerolls_a_stalled_pairing(num_switches, ports, r, seed):
    # the seed's first pairing stalls, which used to fail the whole build
    max_repairs = 10 * num_switches + 50
    with pytest.raises(TopologyError, match="jellyfish"):
        _random_regular_switch_graph(num_switches, r, random.Random(seed), max_repairs)
    topo = build_jellyfish(num_switches, ports, r, seed)
    assert validate(topo) == []
    for sid in topo.switches:
        assert sum(topo.nodes[nb].kind is NodeKind.SWITCH for nb, _ in topo.adjacency[sid]) == r


@pytest.mark.parametrize(
    "num_switches, ports, r, seed",
    [(22, 4, 2, 5), (29, 4, 2, 3)] + [(80, 4, 2, seed) for seed in range(30)],
)
def test_jellyfish_r2_is_one_cycle(num_switches, ports, r, seed):
    # a random 2-regular pairing is a union of cycles; the builder joins them
    topo = build_jellyfish(num_switches, ports, r, seed)
    assert validate(topo) == []  # connected among its checks
    for sid in topo.switches:
        assert sum(topo.nodes[nb].kind is NodeKind.SWITCH for nb, _ in topo.adjacency[sid]) == 2


@pytest.mark.parametrize("seed", range(20))
def test_join_components_keeps_degrees(seed):
    # two triangles joined by a bridge, a 4-clique and a triangle
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
    edges += [(u, v) for u in range(6, 10) for v in range(u + 1, 10)]
    edges += [(10, 11), (11, 12), (12, 10)]
    degrees = sorted(x for edge in edges for x in edge)
    _join_components(edges, 13, random.Random(seed))
    assert sorted(x for edge in edges for x in edge) == degrees
    nodes = [Node(NodeKind.SWITCH, 3)] * 13
    # no self-loop, no repeated link, connected
    assert validate(Topology(nodes, [Link(u, v) for u, v in edges])) == []


def reference_regular_switch_graph(num_switches, r, rng, max_repairs):
    """Stub pairing that rebuilds the urn from per-switch free counts before
    every link: the definition the single sorted urn must reproduce, rng
    draws included. Returns the edges and the number of repairs taken."""
    free = [r] * num_switches
    adjacent = [set() for _ in range(num_switches)]
    edges = []
    repairs = 0
    while True:
        urn = [s for s in range(num_switches) for _ in range(free[s])]
        if not urn:
            return edges, repairs
        paired = False
        for _ in range(20 * len(urn) + 20):
            u = urn[rng.randrange(len(urn))]
            v = urn[rng.randrange(len(urn))]
            if u != v and v not in adjacent[u]:
                edges.append((u, v))
                adjacent[u].add(v)
                adjacent[v].add(u)
                free[u] -= 1
                free[v] -= 1
                paired = True
                break
        if paired:
            continue
        if repairs >= max_repairs:
            raise TopologyError(
                f"jellyfish pairing stalled after {repairs} repairs "
                f"(num_switches={num_switches}, r={r})"
            )
        repairs += 1
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
        for a, b in ((u, y), (v, z)):
            edges.append((a, b))
            adjacent[a].add(b)
            adjacent[b].add(a)
        free[u] -= 1
        free[v] -= 1


def test_stub_pairing_matches_reference():
    repaired = set()
    for num_switches in range(4, 51):
        for r in range(2, min(7, num_switches - 1) + 1):
            if num_switches * r % 2:
                continue
            for seed in range(10):
                ours, theirs = random.Random(seed), random.Random(seed)
                max_repairs = 10 * num_switches + 50
                try:
                    want, repairs = reference_regular_switch_graph(
                        num_switches, r, theirs, max_repairs
                    )
                except TopologyError as error:  # (6, 4, 1), (6, 4, 2), (8, 6, 6)
                    want, repairs = str(error), 0
                try:
                    got = _random_regular_switch_graph(num_switches, r, ours, max_repairs)
                except TopologyError as error:
                    got = str(error)
                case = (num_switches, r, seed)
                assert got == want, case
                assert ours.getstate() == theirs.getstate(), case
                if repairs:
                    repaired.add(case)
    # the repair branch must be exercised, not just the plain pairing
    assert {(10, 3, s) for s in (1, 3, 7, 9)} <= repaired
    assert {(6, 3, s) for s in (2, 5, 6, 8)} <= repaired
    assert len(repaired) >= 10


def test_expand_jellyfish_preserves_degrees():
    topo = build_jellyfish(10, 4, 3, seed=1)
    bigger = expand_jellyfish(topo, seed=2)
    assert bigger.num_switches == 11
    hosts = bigger.num_hosts
    new_switch = hosts + 10
    sw_degrees = {
        sid: sum(
            1
            for nb in bigger.neighbors[sid]
            if nb >= hosts
        )
        for sid in bigger.switches
    }
    for sid in bigger.switches:
        if sid != new_switch:
            assert sw_degrees[sid] == 3
    assert sw_degrees[new_switch] >= 2
    assert validate(bigger) == []


@pytest.mark.parametrize(
    "num_switches, ports, r, seed", [(4, 4, 3, 0), (10, 4, 3, 1), (12, 6, 3, 3), (16, 8, 5, 2)]
)
def test_expand_jellyfish_odd_r_strands_at_most_one_port(num_switches, ports, r, seed):
    # the splits give a new switch r - 1 links; the next one takes the idle
    # port, where each expansion used to strand one more
    topo = build_jellyfish(num_switches, ports, r, seed)
    for expansion in range(1, 7):
        topo = expand_jellyfish(topo, seed=seed + expansion)
        assert validate(topo) == []
        idle = sum(topo.nodes[v].radix - topo.degree(v) for v in topo.switches)
        assert idle == expansion % 2
    assert len(topo.links) == len(build_jellyfish(num_switches + 6, ports, r, seed).links)


def test_expand_jellyfish_deterministic():
    topo = build_jellyfish(10, 4, 3, seed=1)
    a = export_edge_list(expand_jellyfish(topo, seed=9))
    b = export_edge_list(expand_jellyfish(topo, seed=9))
    assert a == b


def test_expand_triangle_becomes_four_cycle():
    topo = build_jellyfish(3, 3, 2, seed=0)
    bigger = expand_jellyfish(topo, seed=0)
    hosts = bigger.num_hosts
    assert hosts == 4
    new = hosts + 3
    sw_pairs = {
        (min(l.a, l.b), max(l.a, l.b))
        for l in bigger.links
        if l.a >= hosts and l.b >= hosts
    }
    # one triangle edge (x, y) is replaced by x-new-y, leaving a 4-cycle
    assert len(sw_pairs) == 4
    assert sum(1 for pair in sw_pairs if new in pair) == 2
    for sid in bigger.switches:
        assert sum(1 for pair in sw_pairs if sid in pair) == 2
    assert validate(bigger) == []


# --- scafida ------------------------------------------------------------


def test_scafida_degree_cap():
    topo = build_scafida(50, 0, 5, seed=11)
    assert max(topo.degree(v) for v in range(topo.num_nodes)) <= 5
    assert validate(topo) == []


def test_scafida_star():
    topo = build_scafida(1, 2, 4, seed=0)
    assert topo.num_hosts == 2
    assert topo.num_switches == 1
    assert all({l.a, l.b} & {2} for l in topo.links)
    assert validate(topo) == []


def test_scafida_deterministic():
    a = export_edge_list(build_scafida(30, 40, 12, seed=5))
    b = export_edge_list(build_scafida(30, 40, 12, seed=5))
    assert a == b


def test_scafida_rejects_port_exhaustion():
    # 5 switches at cap 4 cannot host 20 host uplinks
    with pytest.raises(TopologyError):
        build_scafida(5, 20, 4, seed=0)


@pytest.mark.parametrize("seed", range(-20, 20))
def test_scafida_strands_no_late_host(seed):
    # 6 free switch ports for 4 hosts of up to 4 uplinks each: the first
    # hosts used to take them all, and host 2 could not attach at any seed
    topo = build_scafida(4, 4, 4, seed=seed)
    assert validate(topo) == []
    assert all(topo.degree(h) >= 1 for h in topo.hosts)


def test_scafida_connected_and_valid():
    topo = build_scafida(40, 80, 16, seed=2)
    assert validate(topo) == []


# --- hcn / bcn ----------------------------------------------------------


def test_hcn_base_case():
    topo = build_hcn(4, 0)
    assert topo.num_hosts == 4
    assert topo.num_switches == 1
    assert len(topo.builder_params["free_ports"]) == 4
    assert validate(topo) == []


@pytest.mark.parametrize("n,h", [(2, 1), (2, 2), (3, 1), (4, 2)])
def test_hcn_host_count(n, h):
    topo = build_hcn(n, h)
    assert topo.num_hosts == n ** (h + 1)
    assert topo.num_switches == n**h
    assert len(topo.builder_params["free_ports"]) == n
    assert validate(topo) == []
    for hid in topo.hosts:
        assert topo.degree(hid) <= 2


def test_bcn_slave_formula():
    topo = build_bcn(3, 1, 1)
    # alpha^h * beta = 3 slaves per unit, hence 4 units of 12 hosts
    assert topo.builder_params["units"] == 4
    assert topo.num_hosts == 48
    assert topo.num_switches == 4 * 3
    assert validate(topo) == []


@pytest.mark.parametrize("beta", [1, 2])
def test_bcn_alpha1_does_not_grow_with_h(beta):
    # with alpha = 1 a unit has one group, so no level joins anything
    base = build_bcn(1, beta, 1)
    for h in (7, 10**5):
        topo = build_bcn(1, beta, h)
        assert (topo.nodes, topo.links) == (base.nodes, base.links)


def test_bcn_level0():
    topo = build_bcn(2, 2, 0)
    # beta=2 slaves per unit -> 3 units of 4 hosts
    assert topo.builder_params["units"] == 3
    assert topo.num_hosts == 12
    assert validate(topo) == []


# --- f10 ----------------------------------------------------------------


def test_f10_counts_match_fat_tree():
    ft, f10 = build_fat_tree(4), build_f10(4)
    assert f10.num_hosts == ft.num_hosts == 16
    assert f10.num_switches == ft.num_switches == 20
    assert validate(f10) == []


def test_f10_type_a_b_wiring_differs():
    topo = build_f10(4)
    aggs = {topo.nodes[v].address.digits[1:3]: v for v in layer_switches(topo, 2)}
    core_base = min(layer_switches(topo, 3))
    cores_of = {
        key: sorted(
            nb - core_base for nb in topo.neighbors[aid]
            if topo.nodes[nb].address.digits[0] == 3
        )
        for key, aid in aggs.items()
    }
    # type A (even pods) uses block striping, type B (odd pods) strided striping
    assert cores_of[(0, 0)] == [0, 1]
    assert cores_of[(0, 1)] == [2, 3]
    assert cores_of[(1, 0)] == [0, 2]
    assert cores_of[(1, 1)] == [1, 3]
    # the two wirings differ at every aggregation index
    assert cores_of[(0, 0)] != cores_of[(1, 0)]
    assert cores_of[(0, 1)] != cores_of[(1, 1)]
    for sid in topo.switches:
        assert topo.degree(sid) == 4


def test_f10_rejects_small_k():
    with pytest.raises(TopologyError):
        build_f10(2)


# --- taxonomy and presets ------------------------------------------------


def test_taxonomy_table_rows():
    assert build_fat_tree(4).taxonomy.blocking == "non-blocking"
    assert build_fat_tree(4).taxonomy.centricity == "switch-centric"
    assert build_fat_tree(4).taxonomy.directness == "indirect"
    assert build_fat_tree(4).taxonomy.tiers == "fixed(3)"
    dcell = build_dcell(4, 1).taxonomy
    assert dcell.blocking == "blocking"
    assert dcell.centricity == "server-centric"
    assert not dcell.symmetric
    assert dcell.tiers == "n-tier"
    bcube = build_bcube(2, 1).taxonomy
    assert bcube.deployment == "modular"
    assert bcube.symmetric
    jelly = build_jellyfish(10, 4, 3).taxonomy
    assert jelly.build_approach == "random"
    assert jelly.extensible
    assert jelly.tiers == "flat"
    scafida = build_scafida(6, 6, 8).taxonomy
    assert scafida.build_approach == "random"
    assert scafida.centricity == "server-centric"


def test_presets_resolve_and_validate():
    for name in ("fat-tree-k4", "dcell-n4-l1", "bcube-n4-k1", "f10-k4",
                 "jellyfish-s10-p4-r3", "facebook-scaled"):
        topo = build_preset(name, seed=1)
        assert validate(topo) == []


def test_unknown_preset():
    with pytest.raises(TopologyError) as err:
        build_preset("nosuch")
    assert "fat-tree-k4" in str(err.value)


@pytest.mark.parametrize(
    "builder, args",
    [
        (build_dcell, (0, 1)),
        (build_dcell, (4, -1)),
        (build_dcell, (-2, 1)),
        (build_dcell, (1, 1)),
        (dcell_host_count, (1, 1)),
        (build_mdcube, (2, 2, 1, 1)),  # BCube(1, 1) containers
        (build_mdcube, (2, 2, 4, -1)),
        (build_scafida, (4, -3, 4)),
        (expand_jellyfish, (build_jellyfish(2, 2, 1),)),  # r = 1 cannot split a link
    ],
)
def test_bad_parameters_rejected(builder, args):
    with pytest.raises(TopologyError):
        builder(*args)


@pytest.mark.parametrize(
    "builder, args, kwargs, name",
    [
        (build_scafida, (4, 4, 4), {"switch_links": 0}, "switch_links"),
        (build_scafida, (4, 4, 4), {"host_links": 0}, "host_links"),
        (build_facebook_fabric, (4, 2), {"host_link_capacity": 0}, "host_link_capacity"),
        (build_facebook_fabric, (4, 2), {"fabric_link_capacity": math.nan}, "fabric_link_capacity"),
        (build_facebook_fabric, (4, 2), {"hosts_per_edge": -1}, "hosts_per_edge"),
        # an infinite capacity once built and validated clean
        (build_facebook_fabric, (4, 2, 1, 1), {"host_link_capacity": math.inf},
         "host_link_capacity"),
        (build_facebook_fabric, (4, 2, 1, 1), {"fabric_link_capacity": math.inf},
         "fabric_link_capacity"),
    ],
)
def test_bad_parameter_is_named(builder, args, kwargs, name):
    with pytest.raises(TopologyError, match=name):
        builder(*args, **kwargs)


@pytest.mark.parametrize(
    "builder, args, kwargs, name",
    [
        (build_fat_tree, (4.0,), {}, "k"),
        (build_fat_tree, (4,), {"hosts_per_edge": 1.0}, "hosts_per_edge"),
        (build_f10, (4.0,), {}, "k"),
        (build_dcell, (4, 1.0), {}, "level"),
        (build_dcell, (4, True), {}, "level"),  # True once built DCell(4, 1)
        (dcell_host_count, (4.0, 1), {}, "n"),
        (build_bcube, (4, 1.0), {}, "k"),
        (build_bcube, (4, True), {}, "k"),
        (build_jellyfish, (10, 4, 3.0), {}, "r"),
        (build_hcn, (4, 1.0), {}, "h"),
        (build_bcn, (2, 2, 1.0), {}, "h"),
        (build_mdcube, (2, 2, 2, 1.0), {}, "k"),
        (build_mdcube, (2.0, 2, 2, 1), {}, "rows"),
        (build_scafida, (10.0, 8, 4), {}, "num_switches"),
        (build_facebook_fabric, (8,), {"hosts_per_edge": 1.5}, "hosts_per_edge"),
    ],
)
def test_size_parameter_must_be_an_int(builder, args, kwargs, name):
    # a float once raised a bare TypeError from range()
    with pytest.raises(TopologyError, match=f"^{name} must be an integer"):
        builder(*args, **kwargs)


# --- pinned output -------------------------------------------------------


def builder_digest(topo):
    """First 16 hex digits of the sha256 of everything a builder returns: each
    node's kind, radix and address in position order, the links in order as
    plain tuples, the sorted builder_params and the taxonomy. Record field
    names stay out, so the digest pins values, not the record type."""
    nodes = [
        (n.kind.value, n.radix, n.address.digits, n.address.scheme.value) for n in topo.nodes
    ]
    links = [tuple(link) for link in topo.links]
    record = (nodes, links, sorted(topo.builder_params.items()), topo.taxonomy)
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def jellyfish_expanded(num_switches, ports, r, seed, *expansion_seeds):
    topo = build_jellyfish(num_switches, ports, r, seed)
    for expansion_seed in expansion_seeds:
        topo = expand_jellyfish(topo, seed=expansion_seed)
    return topo


# (builder, args, digest). Link order is pinned because the simulator's
# round-robin arbitration follows it.
GOLDEN = [
    (build_fat_tree, (2,), "43bb0679eca435bb"),
    (build_fat_tree, (4,), "3674ac24c928b9cd"),
    (build_fat_tree, (4, 1), "b19252b4f9b0f381"),
    (build_fat_tree, (4, 3), "34318c3319f92b7f"),
    (build_fat_tree, (6,), "8625374775feda14"),
    (build_fat_tree, (6, 2), "b355d7bac4ab052d"),
    (build_fat_tree, (8, 1), "1c761f7b27c0ee65"),
    (build_f10, (4,), "65e03aa0c1806083"),
    (build_f10, (4, 1), "c23d1b0287aaecd1"),
    (build_f10, (6,), "b1a9e1c4e0f76496"),
    (build_f10, (6, 2), "7e0b4dd2133aad34"),
    (build_f10, (8,), "a1fd4d9378db6724"),
    (build_f10, (8, 1), "0a30574404f579bd"),
    (build_facebook_fabric, (2, 2, 1, 1), "903182a4344de526"),
    (build_facebook_fabric, (3, 2, 2, 1), "4be588533017baf6"),
    (build_facebook_fabric, (2, 2, 1, 2), "11183df861955b65"),
    (build_facebook_fabric, (48, 4, 1, 1), "2d0eca9684884ec5"),
    (build_facebook_fabric, (3, 2, 1, 2, 2.0, 8.0), "ac694c2336378d7a"),
    (build_facebook_fabric, (5, 3, 3, 3), "bc5953e5dfe9e4c4"),
    (build_dcell, (2, 0), "1df9d337f7f116e6"),
    (build_dcell, (3, 0), "ff82d2735e70b9f4"),
    (build_dcell, (2, 1), "5d6ec4766f452a92"),
    (build_dcell, (3, 1), "5b08707848a8b57c"),
    (build_dcell, (4, 1), "eaa196d2af3847aa"),
    (build_dcell, (6, 1), "3ea1f739ed8a8866"),
    (build_dcell, (2, 2), "fca182af09b5b0e0"),
    (build_dcell, (3, 2), "b62a77b3081f713b"),
    (build_dcell, (2, 3), "23a034d6f1e77217"),
    (build_bcube, (2, 0), "5b221b185f0f9dbb"),
    (build_bcube, (3, 0), "804de689d18e17cc"),
    (build_bcube, (2, 1), "c4729d3f67178a94"),
    (build_bcube, (3, 1), "606c9c0e6df47b13"),
    (build_bcube, (4, 1), "db9d3d86311024ba"),
    (build_bcube, (2, 2), "44736326bce2e138"),
    (build_bcube, (3, 2), "766410945b9f0522"),
    (build_bcube, (2, 3), "db4771b4cc2095aa"),
    (build_bcube, (4, 2), "ae285b2dc1848101"),
    (build_mdcube, (1, 1, 2, 1), "2f8fad2ec9a171fe"),
    (build_mdcube, (1, 2, 2, 1), "e7649cff730afe1d"),
    (build_mdcube, (2, 1, 2, 1), "3626d8cc92277ae5"),
    (build_mdcube, (1, 3, 2, 1), "9ea12fc276a28e48"),
    (build_mdcube, (2, 2, 2, 1), "a8132234652fc7bd"),
    (build_mdcube, (2, 3, 2, 1), "0fa37b82a4c38435"),
    (build_mdcube, (3, 3, 2, 1), "ce3383a559cb7815"),
    (build_mdcube, (1, 5, 2, 1), "c315f3569ba2b019"),
    (build_mdcube, (3, 4, 3, 1), "48d84e066e95c19c"),
    (build_mdcube, (2, 3, 2, 2), "f7cf21ead212721d"),
    (build_mdcube, (4, 4, 2, 2), "3c29f587b1373f6e"),
    (build_mdcube, (1, 2, 2, 0), "58888a0e38dc80d8"),
    (build_mdcube, (2, 1, 2, 0), "04ecf53f9f266aca"),
    (build_mdcube, (2, 2, 4, 1), "40c236b30c6d1098"),
    (build_jellyfish, (10, 4, 3, 0), "1db0a1170ded910e"),
    (build_jellyfish, (10, 4, 3, 1), "562779fffe9805d0"),
    (build_jellyfish, (12, 6, 3, 3), "8e50c9346503c6d0"),
    (build_jellyfish, (8, 5, 4, 0), "837998632915faf1"),
    (build_jellyfish, (6, 3, 2, 1), "0b8c628b823e7c92"),
    (build_jellyfish, (16, 8, 5, 2), "6ddfc422a53f9df1"),
    (build_jellyfish, (20, 6, 4, 7), "4a141d99d0aeaa61"),
    # the instances perfbench builds
    (build_jellyfish, (200, 12, 8, 1), "8a31f3429c4da816"),
    (build_jellyfish, (200, 12, 8, 2), "58c96af7886e6d06"),
    (build_jellyfish, (200, 12, 8, 3), "40cdc6ed4a97b134"),
    (build_jellyfish, (50, 8, 5, 0), "6ff7fd07154ee235"),
    (jellyfish_expanded, (10, 4, 3, 1, 2), "00a40b6acf07f104"),
    (jellyfish_expanded, (10, 4, 3, 1, 2, 9), "acb5111073c3a521"),
    (jellyfish_expanded, (6, 3, 2, 1, 0, 1), "fb85aa7a738e84e2"),
    (jellyfish_expanded, (8, 5, 4, 0, 1, 2), "10ece7e2c577c29d"),
    (jellyfish_expanded, (12, 6, 3, 3, 4, 5), "ce8246fe56e15b2f"),
    (jellyfish_expanded, (16, 8, 5, 2, 3, 3), "d5947bf02a7ebefa"),
    (build_scafida, (1, 2, 4), "fc6caadf41367605"),
    (build_scafida, (5, 0, 3), "834e15d9330aa9a8"),
    (build_scafida, (6, 6, 8), "dc38168573f5d5b6"),
    (build_scafida, (30, 40, 12), "80682ed5a2393ae0"),
    (build_scafida, (40, 80, 16), "7023583586015ec6"),
    (build_scafida, (50, 0, 5), "15e5c1fb205650e0"),
    (build_scafida, (12, 10, 10, 4, 1, 3), "04a5d6f841b13d05"),
    (build_hcn, (2, 0), "e5215118b26817e4"),
    (build_hcn, (4, 0), "6746e2477a240cfd"),
    (build_hcn, (2, 1), "c6de9e26aa5f0786"),
    (build_hcn, (2, 2), "62ec2dd23c0c1f51"),
    (build_hcn, (2, 3), "6e32001a6807dbb6"),
    (build_hcn, (3, 1), "3ddae7f2f7caecee"),
    (build_hcn, (3, 2), "3c239daa153322b8"),
    (build_hcn, (4, 1), "790bb6d7f61facbc"),
    (build_hcn, (4, 2), "448c83157dc17559"),
    (build_bcn, (1, 1, 0), "406ec4d7cb942a7f"),
    (build_bcn, (1, 2, 1), "173121bc1fb09963"),
    (build_bcn, (1, 1, 2), "e7631194da815422"),
    (build_bcn, (2, 0, 1), "1885590483186033"),
    (build_bcn, (2, 2, 0), "bc47e3f1412e6010"),
    (build_bcn, (2, 1, 1), "e0cc8ea4b154eae4"),
    (build_bcn, (2, 2, 2), "e31d4c737975a75f"),
    (build_bcn, (3, 1, 1), "2eb04fa20db886ee"),
    (build_bcn, (3, 2, 1), "0e0651b0932bb96f"),
    (build_bcn, (4, 1, 1), "057f6d75d09f98d8"),
    (build_bcn, (4, 1, 2), "793d25ee5c297f04"),
    (build_bcn, (2, 3, 3), "56aba4900af19941"),
]


@pytest.mark.parametrize(
    "builder, args, digest", GOLDEN, ids=[f"{b.__name__}{a}" for b, a, _ in GOLDEN]
)
def test_builder_output_is_pinned(builder, args, digest):
    topo = builder(*args)
    assert validate(topo) == []
    assert builder_digest(topo) == digest


@pytest.mark.parametrize(
    "builder, args", [(b, a) for b, a, _ in GOLDEN], ids=[f"{b.__name__}{a}" for b, a, _ in GOLDEN]
)
def test_builder_adjacency_matches_a_tuple_per_end(builder, args):
    # the shared link ends hold the values, order and capacity types that
    # one new tuple per end held
    topo = builder(*args)
    assert end_values(topo.adjacency) == per_end_adjacency(topo)


# --- size cap -----------------------------------------------------------


def test_f10_size_cap(monkeypatch):
    monkeypatch.setenv("DCNBENCH_SIZE_CAP", "35")  # f10(4) has 36 nodes
    with pytest.raises(SizeCapError):
        build_f10(4)


@pytest.mark.parametrize("raw", ["abc", "1e5", ""])
def test_bad_size_cap_names_the_variable(monkeypatch, raw):
    monkeypatch.setenv("DCNBENCH_SIZE_CAP", raw)
    with pytest.raises(SizeCapError, match=f"DCNBENCH_SIZE_CAP must be an integer, got '{raw}'"):
        build_fat_tree(4)


@pytest.mark.parametrize(
    "builder, args, call",
    [
        (build_dcell, (2, 14), "dcell(n=2, level=14)"),
        (build_bcube, (2, 15000), "bcube(n=2, k=15000)"),
        (build_hcn, (2, 15000), "hcn(n=2, h=15000)"),
        (build_mdcube, (1, 1, 2, 15000), "mdcube"),
    ],
)
def test_size_cap_before_huge_counts(builder, args, call):
    # the node counts have thousands of digits: the cap must fire before any
    # is formed, and the message names the call and the cap, not the count
    with pytest.raises(SizeCapError) as err:
        builder(*args)
    assert str(err.value).startswith(f"{call} needs more nodes than the cap of {size_cap()} ")


def test_expand_jellyfish_size_cap(monkeypatch):
    topo = build_jellyfish(10, 4, 3, seed=1)  # 20 nodes; one more switch adds 2
    monkeypatch.setenv("DCNBENCH_SIZE_CAP", "21")
    with pytest.raises(SizeCapError):
        expand_jellyfish(topo)


def test_scafida_size_cap_before_growth(monkeypatch):
    # these parameters exhaust switch ports mid-growth; the cap must fire first
    monkeypatch.setenv("DCNBENCH_SIZE_CAP", "24")
    with pytest.raises(SizeCapError):
        build_scafida(5, 20, 4, seed=0)
