import pytest

from dcnbench.graph import NodeKind, export_edge_list, validate
from dcnbench.builders import (
    SizeCapError,
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


def test_jellyfish_deterministic():
    a = export_edge_list(build_jellyfish(12, 6, 3, seed=3))
    b = export_edge_list(build_jellyfish(12, 6, 3, seed=3))
    assert a == b
    c = export_edge_list(build_jellyfish(12, 6, 3, seed=4))
    assert c != a


def test_expand_jellyfish_preserves_degrees():
    topo = build_jellyfish(10, 4, 3, seed=1)
    bigger = expand_jellyfish(topo, 4, 3, seed=2)
    assert bigger.num_switches == 11
    hosts = bigger.num_hosts
    new_switch = hosts + 10
    sw_degrees = {
        sid: sum(
            1
            for nb in bigger.neighbors(sid)
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
    a = export_edge_list(expand_jellyfish(topo, 4, 3, seed=9))
    b = export_edge_list(expand_jellyfish(topo, 4, 3, seed=9))
    assert a == b


def test_expand_two_switch_graph_becomes_path():
    topo = build_jellyfish(2, 2, 1, seed=0)
    bigger = expand_jellyfish(topo, 3, 2, seed=0)
    hosts = bigger.num_hosts
    old_a, old_b, new = hosts, hosts + 1, hosts + 2
    sw_pairs = {
        (min(l.a, l.b), max(l.a, l.b))
        for l in bigger.links
        if l.a >= hosts and l.b >= hosts
    }
    assert sw_pairs == {(old_a, new), (old_b, new)}


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
            nb - core_base for nb in topo.neighbors(aid)
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
    ],
)
def test_bad_parameters_rejected(builder, args):
    with pytest.raises(TopologyError):
        builder(*args)


# --- size cap -----------------------------------------------------------


def test_f10_size_cap(monkeypatch):
    monkeypatch.setenv("DCNBENCH_SIZE_CAP", "35")  # f10(4) has 36 nodes
    with pytest.raises(SizeCapError):
        build_f10(4)


def test_expand_jellyfish_size_cap(monkeypatch):
    topo = build_jellyfish(10, 4, 3, seed=1)  # 20 nodes; one more switch adds 2
    monkeypatch.setenv("DCNBENCH_SIZE_CAP", "21")
    with pytest.raises(SizeCapError):
        expand_jellyfish(topo, 4, 3)


def test_scafida_size_cap_before_growth(monkeypatch):
    # these parameters exhaust switch ports mid-growth; the cap must fire first
    monkeypatch.setenv("DCNBENCH_SIZE_CAP", "24")
    with pytest.raises(SizeCapError):
        build_scafida(5, 20, 4, seed=0)
