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


def switch_labels(topo, prefix):
    return [n for n in topo.nodes if n.kind is NodeKind.SWITCH and n.label.startswith(prefix)]


# --- fat tree -----------------------------------------------------------


def test_fat_tree_k4_layer_counts():
    topo = build_fat_tree(4)
    assert len(switch_labels(topo, "core")) == 4
    assert len(switch_labels(topo, "agg")) == 8
    assert len(switch_labels(topo, "edge")) == 8
    assert topo.num_hosts == 16


def test_fat_tree_k2_counts():
    topo = build_fat_tree(2)
    assert len(switch_labels(topo, "core")) == 1
    assert len(switch_labels(topo, "agg")) == 2
    assert len(switch_labels(topo, "edge")) == 2
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
    edges = {n.id for n in topo.nodes if n.label.startswith("edge")}
    aggs = {n.id for n in topo.nodes if n.label.startswith("agg")}
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
    nodes = [Node(i, NodeKind.SWITCH, 3) for i in range(13)]
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
    aggs = {
        n.address.digits[1:3]: n.id
        for n in topo.nodes
        if n.kind is NodeKind.SWITCH and n.address.digits[0] == 2
    }
    core_base = min(
        n.id for n in topo.nodes
        if n.kind is NodeKind.SWITCH and n.address.digits[0] == 3
    )
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
    """First 16 hex digits of the sha256 of everything a builder returns:
    nodes (labels and addresses included), links in order, builder_params
    and taxonomy."""
    record = (topo.nodes, topo.links, sorted(topo.builder_params.items()), topo.taxonomy)
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def jellyfish_expanded(num_switches, ports, r, seed, *expansion_seeds):
    topo = build_jellyfish(num_switches, ports, r, seed)
    for expansion_seed in expansion_seeds:
        topo = expand_jellyfish(topo, seed=expansion_seed)
    return topo


# (builder, args, digest). Link order is pinned because the simulator's
# round-robin arbitration follows it.
GOLDEN = [
    (build_fat_tree, (2,), "a5bc53da1c1a0af2"),
    (build_fat_tree, (4,), "18b308326c563ce9"),
    (build_fat_tree, (4, 1), "4e435ccf42f96e64"),
    (build_fat_tree, (4, 3), "20449af39a29fad3"),
    (build_fat_tree, (6,), "64dbbd83425b47db"),
    (build_fat_tree, (6, 2), "5762470c3fed96c6"),
    (build_fat_tree, (8, 1), "e8543b7f52861020"),
    (build_f10, (4,), "33c7693e4e18ae79"),
    (build_f10, (4, 1), "a795b5a9f7baf8cf"),
    (build_f10, (6,), "162304f5ed85096a"),
    (build_f10, (6, 2), "5f9289a552f6049e"),
    (build_f10, (8,), "b3d8c50b3cf966f1"),
    (build_f10, (8, 1), "ee31bf1ae9659e84"),
    (build_facebook_fabric, (2, 2, 1, 1), "7ddce04d39ef68fc"),
    (build_facebook_fabric, (3, 2, 2, 1), "c91b0c3d4ed88e01"),
    (build_facebook_fabric, (2, 2, 1, 2), "022d7aea584e34ca"),
    (build_facebook_fabric, (48, 4, 1, 1), "7f4e61c48746f585"),
    (build_facebook_fabric, (3, 2, 1, 2, 2.0, 8.0), "233635631dc2123e"),
    (build_facebook_fabric, (5, 3, 3, 3), "052b4bebd79d0402"),
    (build_dcell, (2, 0), "fb4593bd4d9e6aad"),
    (build_dcell, (3, 0), "d2cf23af71f31eb6"),
    (build_dcell, (2, 1), "6d270633605102f0"),
    (build_dcell, (3, 1), "7cbc10f58b980d7b"),
    (build_dcell, (4, 1), "467e77bb0d048c51"),
    (build_dcell, (6, 1), "7e9767672af630d4"),
    (build_dcell, (2, 2), "a843d42257d45862"),
    (build_dcell, (3, 2), "ca4d8fcbcdbc40c6"),
    (build_dcell, (2, 3), "228afdf6390fce82"),
    (build_bcube, (2, 0), "5806ff09cc129873"),
    (build_bcube, (3, 0), "851433bf93b26bee"),
    (build_bcube, (2, 1), "9e2a685dbae4fd03"),
    (build_bcube, (3, 1), "305bf6c2ea7abf2a"),
    (build_bcube, (4, 1), "794fe16e517f7a2e"),
    (build_bcube, (2, 2), "a32457b335e21c1c"),
    (build_bcube, (3, 2), "f977397a3ba563ae"),
    (build_bcube, (2, 3), "5bdc1b9eec4d6e6b"),
    (build_bcube, (4, 2), "e4fe41f0c4101459"),
    (build_mdcube, (1, 1, 2, 1), "4c703d32917eda6c"),
    (build_mdcube, (1, 2, 2, 1), "420d0c0e0eb71ed6"),
    (build_mdcube, (2, 1, 2, 1), "7887efc2c4013a30"),
    (build_mdcube, (1, 3, 2, 1), "180150036385ce2c"),
    (build_mdcube, (2, 2, 2, 1), "18ffeb2672d444ee"),
    (build_mdcube, (2, 3, 2, 1), "d489e8f2a5d99df9"),
    (build_mdcube, (3, 3, 2, 1), "50d7a20e9cf9a0c2"),
    (build_mdcube, (1, 5, 2, 1), "cf1334f9fadb54e9"),
    (build_mdcube, (3, 4, 3, 1), "453511758d685869"),
    (build_mdcube, (2, 3, 2, 2), "ead65ead8042e055"),
    (build_mdcube, (4, 4, 2, 2), "4f5a0f2a36e7a865"),
    (build_mdcube, (1, 2, 2, 0), "1f848f63c503385c"),
    (build_mdcube, (2, 1, 2, 0), "6cccf7b0208b915e"),
    (build_mdcube, (2, 2, 4, 1), "3c4561b2cfb54625"),
    (build_jellyfish, (10, 4, 3, 0), "0ccc8d6c2789c194"),
    (build_jellyfish, (10, 4, 3, 1), "0530f8ca53a9276c"),
    (build_jellyfish, (12, 6, 3, 3), "f9a36e5929a1a371"),
    (build_jellyfish, (8, 5, 4, 0), "7e36eb0b1739de84"),
    (build_jellyfish, (6, 3, 2, 1), "d989861958de27d5"),
    (build_jellyfish, (16, 8, 5, 2), "d36078f8c2e8a345"),
    (build_jellyfish, (20, 6, 4, 7), "dee2979967dc9ec5"),
    # the instances perfbench builds
    (build_jellyfish, (200, 12, 8, 1), "18c37a40ec936d9b"),
    (build_jellyfish, (200, 12, 8, 2), "63fb73a457ba1eb3"),
    (build_jellyfish, (200, 12, 8, 3), "050ac2ef4f68b5d4"),
    (build_jellyfish, (50, 8, 5, 0), "601c40cc6f315514"),
    (jellyfish_expanded, (10, 4, 3, 1, 2), "3f9b27d4d935cf44"),
    (jellyfish_expanded, (10, 4, 3, 1, 2, 9), "786082ef5168e8a6"),
    (jellyfish_expanded, (6, 3, 2, 1, 0, 1), "18a1fc4be75d7ec7"),
    (jellyfish_expanded, (8, 5, 4, 0, 1, 2), "b240c0dba8385583"),
    (jellyfish_expanded, (12, 6, 3, 3, 4, 5), "53a0c95e53a21dc2"),
    (jellyfish_expanded, (16, 8, 5, 2, 3, 3), "6955be22b672b0a6"),
    (build_scafida, (1, 2, 4), "11d5c4f78fa5350d"),
    (build_scafida, (5, 0, 3), "26724826ac3882e4"),
    (build_scafida, (6, 6, 8), "5e750a6a3135e17d"),
    (build_scafida, (30, 40, 12), "8cdecf88d45bf12d"),
    (build_scafida, (40, 80, 16), "803bb59bf0b86054"),
    (build_scafida, (50, 0, 5), "5e7d46b558e251a7"),
    (build_scafida, (12, 10, 10, 4, 1, 3), "e0c095de88d0114a"),
    (build_hcn, (2, 0), "6515ac4b6869e58c"),
    (build_hcn, (4, 0), "e1af4d7049d80233"),
    (build_hcn, (2, 1), "5068975782dd7e46"),
    (build_hcn, (2, 2), "bab65d0c03da9fec"),
    (build_hcn, (2, 3), "902d1c61dc9a2a77"),
    (build_hcn, (3, 1), "0254b673e44a396d"),
    (build_hcn, (3, 2), "1e4e4500e4741927"),
    (build_hcn, (4, 1), "a584374a91e1adec"),
    (build_hcn, (4, 2), "a44d199d2b7143e1"),
    (build_bcn, (1, 1, 0), "4c4508748e062f7c"),
    (build_bcn, (1, 2, 1), "81c1a122de410f21"),
    (build_bcn, (1, 1, 2), "3b890ac9eb81291b"),
    (build_bcn, (2, 0, 1), "a1d4e4ee86c50224"),
    (build_bcn, (2, 2, 0), "4dc0aa3590ebc79a"),
    (build_bcn, (2, 1, 1), "77f66876a223dea6"),
    (build_bcn, (2, 2, 2), "e00fdeb891f4dfaf"),
    (build_bcn, (3, 1, 1), "a36319423fb2a637"),
    (build_bcn, (3, 2, 1), "6e3d15a22c016f8a"),
    (build_bcn, (4, 1, 1), "a0375323017354d9"),
    (build_bcn, (4, 1, 2), "e84f09be6441497f"),
    (build_bcn, (2, 3, 3), "4c6f6f8e44d7ff5e"),
]


@pytest.mark.parametrize(
    "builder, args, digest", GOLDEN, ids=[f"{b.__name__}{a}" for b, a, _ in GOLDEN]
)
def test_builder_output_is_pinned(builder, args, digest):
    topo = builder(*args)
    assert validate(topo) == []
    assert builder_digest(topo) == digest


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
