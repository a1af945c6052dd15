import hashlib
import math
import random

import pytest

from dcnbench.graph import (
    Link,
    Node,
    NodeKind,
    Topology,
    export_edge_list,
    import_edge_list,
    validate,
)
from dcnbench.builders import (
    TAXONOMY,
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
    fat_tree = TAXONOMY[build_fat_tree(4).name()]
    assert fat_tree.blocking == "non-blocking"
    assert fat_tree.centricity == "switch-centric"
    assert fat_tree.directness == "indirect"
    assert fat_tree.tiers == "fixed(3)"
    dcell = TAXONOMY[build_dcell(4, 1).name()]
    assert dcell.blocking == "blocking"
    assert dcell.centricity == "server-centric"
    assert not dcell.symmetric
    assert dcell.tiers == "n-tier"
    bcube = TAXONOMY[build_bcube(2, 1).name()]
    assert bcube.deployment == "modular"
    assert bcube.symmetric
    jelly = TAXONOMY[build_jellyfish(10, 4, 3).name()]
    assert jelly.build_approach == "random"
    assert jelly.extensible
    assert jelly.tiers == "flat"
    scafida = TAXONOMY[build_scafida(6, 6, 8).name()]
    assert scafida.build_approach == "random"
    assert scafida.centricity == "server-centric"
    # one record per builder name, and for no other name
    assert set(TAXONOMY) == {builder(*args).name() for builder, args, _ in GOLDEN}


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
    node's kind, radix and address digits in position order, the links in
    order as plain tuples, the sorted builder_params and the taxonomy of the
    builder's name. Record field names stay out, so the digest pins values,
    not the record type."""
    nodes = [(n.kind.value, n.radix, n.address.digits) for n in topo.nodes]
    links = [tuple(link) for link in topo.links]
    record = (nodes, links, sorted(topo.builder_params.items()), TAXONOMY[topo.name()])
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def jellyfish_expanded(num_switches, ports, r, seed, *expansion_seeds):
    topo = build_jellyfish(num_switches, ports, r, seed)
    for expansion_seed in expansion_seeds:
        topo = expand_jellyfish(topo, seed=expansion_seed)
    return topo


# (builder, args, digest). Link order is pinned because the simulator's
# round-robin arbitration follows it.
GOLDEN = [
    (build_fat_tree, (2,), "ffe4207599590acc"),
    (build_fat_tree, (4,), "bfbeb472c69e314a"),
    (build_fat_tree, (4, 1), "7eaf04a71002c19f"),
    (build_fat_tree, (4, 3), "ad500e2c7386ae39"),
    (build_fat_tree, (6,), "e2c0daa97c3d79be"),
    (build_fat_tree, (6, 2), "56b9006d6b023261"),
    (build_fat_tree, (8, 1), "53594e4319903f20"),
    (build_f10, (4,), "fb95a719f0df053d"),
    (build_f10, (4, 1), "cc8b4163269e423f"),
    (build_f10, (6,), "d2051bdcabf54848"),
    (build_f10, (6, 2), "ea5575b150165d26"),
    (build_f10, (8,), "f19af48ae1707ef7"),
    (build_f10, (8, 1), "3fbedc9876fb6d28"),
    (build_facebook_fabric, (2, 2, 1, 1), "89dc355f8b40419a"),
    (build_facebook_fabric, (3, 2, 2, 1), "39f10819e5bd1c15"),
    (build_facebook_fabric, (2, 2, 1, 2), "b2b8e299fcc7f7f3"),
    (build_facebook_fabric, (48, 4, 1, 1), "7a520e84c3e00f94"),
    (build_facebook_fabric, (3, 2, 1, 2, 2.0, 8.0), "28bd928a2a5174fc"),
    (build_facebook_fabric, (5, 3, 3, 3), "16a24cf4f0193953"),
    (build_dcell, (2, 0), "5a4de9d2ab86ccd5"),
    (build_dcell, (3, 0), "ed6ade969c12bbc8"),
    (build_dcell, (2, 1), "14e414480a83fbf9"),
    (build_dcell, (3, 1), "771cbe80e85abb52"),
    (build_dcell, (4, 1), "1062ada1f54f5fce"),
    (build_dcell, (6, 1), "eb23a77151ed7e1a"),
    (build_dcell, (2, 2), "fb1fb218e1b4d1d8"),
    (build_dcell, (3, 2), "75d6080c9dfc23c0"),
    (build_dcell, (2, 3), "e66a550070acfdde"),
    (build_bcube, (2, 0), "b22b17e802b5729a"),
    (build_bcube, (3, 0), "f07721d8ea3a2e96"),
    (build_bcube, (2, 1), "adf2f01aacd0a722"),
    (build_bcube, (3, 1), "4e80960f1046562a"),
    (build_bcube, (4, 1), "cfbad1b6772db901"),
    (build_bcube, (2, 2), "8f8c5436cb63b61f"),
    (build_bcube, (3, 2), "14e4b54b01180248"),
    (build_bcube, (2, 3), "e76c0490872a230f"),
    (build_bcube, (4, 2), "8fe266d7b7a91845"),
    (build_mdcube, (1, 1, 2, 1), "2fd794d3aaca12c9"),
    (build_mdcube, (1, 2, 2, 1), "1a64adde62ff5962"),
    (build_mdcube, (2, 1, 2, 1), "e2fb2ac7508ff9f1"),
    (build_mdcube, (1, 3, 2, 1), "d1089b37c966456e"),
    (build_mdcube, (2, 2, 2, 1), "fcd235d34eea71fe"),
    (build_mdcube, (2, 3, 2, 1), "36cfcac4bf54b3c1"),
    (build_mdcube, (3, 3, 2, 1), "6dc3a979c528a532"),
    (build_mdcube, (1, 5, 2, 1), "31c12d6bc78efb66"),
    (build_mdcube, (3, 4, 3, 1), "57559dc68a2f7e3a"),
    (build_mdcube, (2, 3, 2, 2), "90e2a25ac37ff5dd"),
    (build_mdcube, (4, 4, 2, 2), "6d289fb9adbf1699"),
    (build_mdcube, (1, 2, 2, 0), "9236417871888b19"),
    (build_mdcube, (2, 1, 2, 0), "e576625215bc2040"),
    (build_mdcube, (2, 2, 4, 1), "30cc08eab620e53c"),
    (build_jellyfish, (10, 4, 3, 0), "9a8f97046b4b6e92"),
    (build_jellyfish, (10, 4, 3, 1), "2322172613b0e1c3"),
    (build_jellyfish, (12, 6, 3, 3), "69dcb9b7aef4b9f2"),
    (build_jellyfish, (8, 5, 4, 0), "d3d5602778dda110"),
    (build_jellyfish, (6, 3, 2, 1), "bb6e92f889f9218b"),
    (build_jellyfish, (16, 8, 5, 2), "da36fddde58d5730"),
    (build_jellyfish, (20, 6, 4, 7), "f4bf7431bad2269a"),
    # the instances perfbench builds
    (build_jellyfish, (200, 12, 8, 1), "88d8784929c893ed"),
    (build_jellyfish, (200, 12, 8, 2), "19dc4ffebf044ab8"),
    (build_jellyfish, (200, 12, 8, 3), "12f75d2658e5cad8"),
    (build_jellyfish, (50, 8, 5, 0), "bd038a420b7e96d6"),
    (jellyfish_expanded, (10, 4, 3, 1, 2), "1d9227b2e7d3ef0f"),
    (jellyfish_expanded, (10, 4, 3, 1, 2, 9), "9b2aa7fcfc9de0ff"),
    (jellyfish_expanded, (6, 3, 2, 1, 0, 1), "a16cbbfc1e167623"),
    (jellyfish_expanded, (8, 5, 4, 0, 1, 2), "6fd0b430ebc6916c"),
    (jellyfish_expanded, (12, 6, 3, 3, 4, 5), "3584a7bc2eda5c49"),
    (jellyfish_expanded, (16, 8, 5, 2, 3, 3), "6227229e0be29137"),
    (build_scafida, (1, 2, 4), "9c4aec09fb5c31be"),
    (build_scafida, (5, 0, 3), "1ff3f5f7dc31b658"),
    (build_scafida, (6, 6, 8), "9da712bb304b1917"),
    (build_scafida, (30, 40, 12), "3a18aed0a805f4e7"),
    (build_scafida, (40, 80, 16), "142b5b6716bd2edd"),
    (build_scafida, (50, 0, 5), "23f646f64bc4e953"),
    (build_scafida, (12, 10, 10, 4, 1, 3), "91f6b178539e9f96"),
    (build_hcn, (2, 0), "b14acc3751c53401"),
    (build_hcn, (4, 0), "78a0576d9cc9ebd7"),
    (build_hcn, (2, 1), "02d18112f9fcc833"),
    (build_hcn, (2, 2), "15693461ce284c1d"),
    (build_hcn, (2, 3), "eb46e5f417f19ef2"),
    (build_hcn, (3, 1), "17287e0ccb7aa594"),
    (build_hcn, (3, 2), "20b78dfba8effa80"),
    (build_hcn, (4, 1), "200dd88bdbcb05a3"),
    (build_hcn, (4, 2), "4b28479e9c528cbe"),
    (build_bcn, (1, 1, 0), "58152547161e1582"),
    (build_bcn, (1, 2, 1), "f073736214cceebf"),
    (build_bcn, (1, 1, 2), "c0fccf91e0407b1b"),
    (build_bcn, (2, 0, 1), "6d8736e0baca5509"),
    (build_bcn, (2, 2, 0), "b283733e1e2e5acf"),
    (build_bcn, (2, 1, 1), "f4c6a29e64f9358d"),
    (build_bcn, (2, 2, 2), "8e92a03a3f2777d7"),
    (build_bcn, (3, 1, 1), "01cd92e77d00f542"),
    (build_bcn, (3, 2, 1), "b8b35602760fe15f"),
    (build_bcn, (4, 1, 1), "a583e402c2f30e8e"),
    (build_bcn, (4, 1, 2), "4828ea5a4aacdf1b"),
    (build_bcn, (2, 3, 3), "1edac546fb919c6a"),
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


@pytest.mark.parametrize(
    "builder, args", [(b, a) for b, a, _ in GOLDEN], ids=[f"{b.__name__}{a}" for b, a, _ in GOLDEN]
)
def test_builder_output_round_trips(builder, args):
    # every node field and link field is in the edge-list text
    topo = builder(*args)
    again = import_edge_list(export_edge_list(topo))
    assert again.nodes == topo.nodes
    assert again.links == topo.links


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
