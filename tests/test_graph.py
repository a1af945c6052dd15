import math
import random
import re
import struct

import pytest

from dcnbench.graph import (
    Address,
    EdgeListParseError,
    Link,
    Node,
    NodeKind,
    Topology,
    TopologyError,
    ValidationError,
    component_count,
    export_edge_list,
    host_twin_classes,
    host_twin_quotient,
    import_edge_list,
    multi_source_bfs,
    validate,
)
from dcnbench.builders import (
    PRESETS,
    build_bcn,
    build_bcube,
    build_dcell,
    build_facebook_fabric,
    build_fat_tree,
    build_hcn,
    build_jellyfish,
    build_mdcube,
    build_preset,
    build_scafida,
)
from dcnbench.routing import resolve_routing_mode, route_provider

from hand_topologies import (
    HAND_BUILT,
    bfs_distances,
    duplicate_host_links,
    end_values,
    isolated_switch,
    isolated_twins,
    linkless_twins,
    per_end_adjacency,
    twins_of_twins,
)


def star(num_hosts, capacity=1.0):
    nodes = [Node(NodeKind.HOST, 1)] * num_hosts
    nodes.append(Node(NodeKind.SWITCH, num_hosts))
    links = [Link(i, num_hosts, capacity) for i in range(num_hosts)]
    return Topology(nodes, links)


RECORDS = [
    Address((1, 2)),
    Node(NodeKind.HOST, 1, Address((1, 2))),
    Link(0, 1, 2.0, 3),
]


@pytest.mark.parametrize(
    "record, field",
    [(r, f) for r in RECORDS for f in r._fields],
    ids=[f"{type(r).__name__}.{f}" for r in RECORDS for f in r._fields],
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_record_defaults():
    link = Link(0, 1)
    assert link.capacity == 1.0 and link.latency == 10
    node = Node(NodeKind.SWITCH, 4)
    assert node.address == Address() and node.address.digits == ()
    assert Node._fields == ("kind", "radix", "address")
    assert Address._fields == ("digits",)


def test_fat_tree_k4_validates_clean():
    topo = build_fat_tree(4)
    assert topo.num_nodes == 36
    assert validate(topo) == []


def test_single_switch_one_host_clean():
    assert validate(star(1)) == []


def test_radix_exceeded_reported():
    nodes = [
        Node(NodeKind.HOST, 2),
        Node(NodeKind.SWITCH, 4),
        Node(NodeKind.SWITCH, 4),
        Node(NodeKind.SWITCH, 4),
    ]
    links = [Link(0, 1), Link(0, 2), Link(0, 3)]
    report = validate(Topology(nodes, links))
    assert any("radix exceeded" in v for v in report)


def test_self_loop_and_duplicate_reported():
    nodes = [Node(NodeKind.SWITCH, 4), Node(NodeKind.SWITCH, 4)]
    report = validate(Topology(nodes, [Link(0, 1), Link(1, 0), Link(0, 0)]))
    assert any("duplicate link" in v for v in report)
    assert any("self-loop" in v for v in report)


@pytest.mark.parametrize("capacities, report", [
    ((float("inf"), 1.0), ["infinite capacity on link 0"]),
    ((float("inf"), float("inf")), ["infinite capacity on link 0", "infinite capacity on link 1"]),
    ((float("-inf"), 1.0), ["non-positive capacity on link 0"]),
], ids=["one-infinite", "both-infinite", "minus-infinite"])
def test_infinite_capacity_reported(capacities, report):
    nodes = [Node(NodeKind.HOST, 1), Node(NodeKind.HOST, 1), Node(NodeKind.SWITCH, 2)]
    links = [Link(h, 2, capacity) for h, capacity in enumerate(capacities)]
    assert validate(Topology(nodes, links)) == report


@pytest.mark.parametrize("links, report", [
    # the edge-list text of either reads back changed or not at all
    ([Link(0, 1, True), Link(2, 1, 1.0, 2.5)],
     ["capacity True on link 0 is not a number", "latency 2.5 on link 1 is not an integer"]),
    ([Link(0, 1, True, True), Link(2, 1)],
     ["capacity True on link 0 is not a number", "latency True on link 0 is not an integer"]),
    ([Link(0, 1, "2"), Link(2, 1, 1.0, 10.0)],
     ["capacity '2' on link 0 is not a number", "latency 10.0 on link 1 is not an integer"]),
    ([Link(0, 1, None), Link(2, 1, 1.0, None)],
     ["capacity None on link 0 is not a number", "latency None on link 1 is not an integer"]),
    # an int capacity no float holds: the export raises OverflowError, or
    # the text reads back as 2**53
    ([Link(0, 1, 10**400), Link(2, 1)], ["int capacity on link 0 has no exact float"]),
    ([Link(0, 1), Link(2, 1, 2**53 + 1)], ["int capacity on link 1 has no exact float"]),
    # an int capacity is a number, and reads back as the equal float
    ([Link(0, 1, 2), Link(2, 1, 0.5, 1)], []),
    ([Link(0, 1, 2**53), Link(2, 1, 2**1023)], []),
], ids=["bool-capacity-float-latency", "bool-both", "str-capacity-float-latency", "none",
        "int-capacity-overflows-float", "int-capacity-rounds-in-float", "valid",
        "valid-large-int-capacity"])
def test_link_fields_the_edge_list_cannot_carry_reported(links, report):
    nodes = [Node(NodeKind.HOST, 1), Node(NodeKind.SWITCH, 2), Node(NodeKind.HOST, 1)]
    topo = Topology(nodes, links)
    assert validate(topo) == report
    if not report:
        again = import_edge_list(export_edge_list(topo))
        assert again.links == topo.links


def test_address_lengths_must_agree():
    topo = build_bcube(2, 1)
    assert validate(topo) == []
    nodes = list(topo.nodes)
    nodes[3] = nodes[3]._replace(address=Address((1, 0, 1)))
    assert validate(Topology(nodes, topo.links)) == [
        "address length inconsistency: node 3 has 3 digits, expected 2"
    ]
    nodes[0] = nodes[0]._replace(address=Address((1, 0, 1)))
    assert validate(Topology(nodes, topo.links)) == [
        f"address length inconsistency: node {v} has 2 digits, expected 3"
        for v in range(1, topo.num_nodes) if v != 3
    ]
    # a flat address has no digits to compare
    nodes = [node._replace(address=Address()) if v % 2 else node for v, node in enumerate(nodes)]
    assert validate(Topology(nodes, topo.links)) == [
        f"address length inconsistency: node {v} has 2 digits, expected 3"
        for v in range(2, topo.num_nodes, 2)
    ]


@pytest.mark.parametrize("first, second, expected", [("0,1", "0,1,2", 2), ("0,1,2", "0,1", 3)])
def test_import_rejects_addresses_of_different_lengths(first, second, expected):
    text = (f"node 0 host 1 {first}\nnode 1 switch 2 -\nnode 2 host 1 {second}\n"
            "link 0 1 1 10\nlink 2 1 1 10\n")
    with pytest.raises(ValidationError) as err:
        import_edge_list(text)
    assert err.value.violations == [
        f"address length inconsistency: node 2 has {5 - expected} digits, expected {expected}"
    ]


def test_disconnected_reported():
    nodes = [Node(NodeKind.SWITCH, 4), Node(NodeKind.SWITCH, 4)]
    report = validate(Topology(nodes, []))
    assert any("disconnected" in v for v in report)


@pytest.mark.parametrize("topology, count", [
    (star(3), 1),
    (isolated_switch(), 2),  # switch 5 has no links
    (isolated_twins(), 3),  # hosts 0 and 1 have no links
], ids=["star", "isolated-switch", "isolated-twins"])
def test_component_count(topology, count):
    assert component_count(topology) == count
    disconnected = [v for v in validate(topology) if v.startswith("disconnected")]
    assert disconnected == ([f"disconnected: {count} components"] if count > 1 else [])


@pytest.mark.parametrize("stray", [Link(1, 9), Link(-1, 2)])
def test_link_endpoint_outside_node_ids_rejected(stray):
    # kept in ``links`` but left out of the adjacency, such a link would pass
    # validate and make later metrics and simulations index past the end
    nodes = [Node(NodeKind.HOST, 1), Node(NodeKind.HOST, 2), Node(NodeKind.SWITCH, 2)]
    with pytest.raises(TopologyError, match=f"link 2 \\({stray.a}-{stray.b}\\)"):
        Topology(nodes, [Link(0, 2), Link(1, 2), stray])


@pytest.mark.parametrize("stray", [Link(0, True), Link(1.0, 2), Link(0, "2")],
                         ids=["bool", "float", "str"])
def test_link_endpoint_must_be_an_int(stray):
    # True once passed as node 1 and was exported as "True"; 1.0 and "2"
    # raised a bare TypeError
    nodes = [Node(NodeKind.HOST, 1), Node(NodeKind.HOST, 2), Node(NodeKind.SWITCH, 2)]
    message = f"link 2 ({stray.a!r}-{stray.b!r}) has an endpoint that is not an integer"
    with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
        Topology(nodes, [Link(0, 2), Link(1, 2), stray])


@pytest.mark.parametrize("radix", [True, 2.0, "2", None], ids=["bool", "float", "str", "none"])
def test_node_radix_must_be_an_int(radix):
    # the count rule of graph.check_count: a bool is not a count
    nodes = [Node(NodeKind.HOST, 1), Node(NodeKind.HOST, radix), Node(NodeKind.SWITCH, 2)]
    message = f"node 1 has radix {radix!r}; a radix is an integer"
    with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
        Topology(nodes, [Link(0, 2), Link(1, 2)])


@pytest.mark.parametrize("stray", [
    Node(0, NodeKind.HOST, 1),  # written as (id, kind, radix): its kind is 0
    Node("host", 1),
    Node(None, 2),
], ids=["id-first", "kind-value", "no-kind"])
def test_node_kind_must_be_a_node_kind(stray):
    # a node of any other kind would drop out of both hosts and switches
    nodes = [Node(NodeKind.HOST, 1), stray, Node(NodeKind.SWITCH, 2)]
    with pytest.raises(TopologyError, match=f"^node 1 has kind {stray.kind!r}; a Node is "):
        Topology(nodes, [Link(0, 2), Link(1, 2)])


def test_export_star_line_counts():
    text = export_edge_list(star(2))
    lines = text.splitlines()
    assert len([l for l in lines if l.startswith("node")]) == 3
    assert len([l for l in lines if l.startswith("link")]) == 2
    assert lines[0] == "node 0 host 1 -"
    assert lines[-1] == "link 1 2 1 10"


def test_export_fat_tree_k2_line_counts():
    text = export_edge_list(build_fat_tree(2))
    lines = text.splitlines()
    # 5 switches (2 edge + 2 agg + 1 core) and 2 hosts
    assert len([l for l in lines if l.startswith("node")]) == 7
    assert len([l for l in lines if l.startswith("link")]) == 6


# every preset, and one call of each builder that no preset uses
ROUND_TRIP_CASES = {
    **{name: lambda name=name: build_preset(name) for name in PRESETS},
    "jellyfish": lambda: build_jellyfish(12, 6, 3, seed=3),
    "scafida": lambda: build_scafida(12, 10, 10, seed=4),
    "hcn": lambda: build_hcn(3, 1),
    "bcn": lambda: build_bcn(2, 1, 1),
    "mdcube": lambda: build_mdcube(2, 2, 2, 1),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_CASES))
def test_round_trip_keeps_structure(name):
    topo = ROUND_TRIP_CASES[name]()
    text = export_edge_list(topo)
    again = import_edge_list(text)
    assert export_edge_list(again) == text
    assert again.nodes == topo.nodes  # kind, radix and address digits per position
    assert again.links == topo.links  # endpoints, capacity and latency, in order
    # what the format does not carry: the builder, and what its name implies
    assert again.builder_params == {"builder": "imported"}


def random_float(rng):
    # any pattern with the sign bit clear: subnormals, NaN and infinity included
    return struct.unpack("<d", rng.getrandbits(63).to_bytes(8, "little"))[0]


def random_int(rng):
    # up to 63 significant bits, some shifted past 2**1024
    return rng.getrandbits(rng.randrange(1, 64)) << rng.randrange(rng.choice((1, 1000)))


def test_round_trip_keeps_every_link_validate_passes():
    rng = random.Random(18)
    edge_cases = [1, 1.0, 5e-324, 1.7976931348623157e308, 2**53]
    passed = []
    for trial in range(400):
        capacities = [edge_cases[trial % 5]] + [
            rng.choice((random_float, random_int))(rng) for _ in range(2)
        ]
        latencies = [rng.choice((rng.randrange(20), rng.getrandbits(80))) for _ in range(3)]
        nodes = [Node(NodeKind.HOST, 1)] * 3 + [Node(NodeKind.SWITCH, 3)]
        links = [Link(h, 3, c, l) for h, (c, l) in enumerate(zip(capacities, latencies))]
        topo = Topology(nodes, links)
        if validate(topo) == []:
            assert import_edge_list(export_edge_list(topo)).links == topo.links
            passed.extend(capacities)
    assert 50 < len(passed) < 1200  # the draw hits both sides of validate
    for capacity in edge_cases:
        assert any(type(c) is type(capacity) and c == capacity for c in passed)


def test_round_trip_loses_the_fat_tree_router():
    again = import_edge_list(export_edge_list(build_fat_tree(4)))
    assert resolve_routing_mode(again, "auto") == "ecmp"
    with pytest.raises(TopologyError):
        route_provider(again, "fat-tree")


def test_round_trip_preserves_capacity_format():
    topo = star(2, capacity=0.5)
    text = export_edge_list(topo)
    assert "0.5" in text
    assert export_edge_list(import_edge_list(text)) == text


@pytest.mark.parametrize(
    "capacity, written",
    [(1 / 3, "0.3333333333333333"), (1e-7, "1e-07"), (2.5, "2.5"), (1e20, "1e+20"), (3.0, "3")],
)
def test_round_trip_keeps_every_capacity(capacity, written):
    # six fixed decimals wrote 1/3 as 0.333333 and 1e-7 as 0, which
    # import_edge_list then rejected as a non-positive capacity
    text = export_edge_list(star(2, capacity=capacity))
    assert f"link 0 2 {written} 10" in text.splitlines()
    assert import_edge_list(text).links[0].capacity == capacity
    assert export_edge_list(import_edge_list(text)) == text


def test_import_minimal_file():
    text = "node 0 host 1 -\nnode 1 switch 4 -\nlink 0 1 1 10\n"
    topo = import_edge_list(text)
    assert topo.num_nodes == 2
    assert topo.num_hosts == 1
    assert topo.name() == "imported"


def test_import_malformed_line_number():
    text = "node 0 host 1 -\nnode 1 switch oops -\n"
    with pytest.raises(EdgeListParseError) as err:
        import_edge_list(text)
    assert err.value.line_no == 2


def test_import_duplicate_link_is_violation():
    text = "node 0 host 1 -\nnode 1 switch 4 -\nlink 0 1 1 10\nlink 0 1 1 10\n"
    with pytest.raises(ValidationError) as err:
        import_edge_list(text)
    assert any("duplicate link" in v for v in err.value.violations)


def test_import_rejects_nan_capacity():
    # NaN fails every comparison, so "capacity <= 0" let it through
    text = export_edge_list(star(2)).replace("link 0 2 1 10", "link 0 2 nan 10")
    with pytest.raises(ValidationError) as err:
        import_edge_list(text)
    assert err.value.violations == ["non-positive capacity on link 0"]


def test_import_rejects_infinite_capacity():
    # an infinite capacity once passed, and oversubscription then read inf
    text = export_edge_list(star(2)).replace("link 0 2 1 10", "link 0 2 inf 10")
    with pytest.raises(ValidationError) as err:
        import_edge_list(text)
    assert err.value.violations == ["infinite capacity on link 0"]


def test_import_unknown_keyword():
    with pytest.raises(EdgeListParseError):
        import_edge_list("wat 0 0 0 0\n")


# two nodes behind a comment, a blank and a whitespace-only line: the record
# under test is line 6
IMPORT_HEAD = "# two nodes\n\nnode 0 host 1 -\n   \nnode 1 switch 4 -\n"


@pytest.mark.parametrize("record, message", [
    ("node 2 switch 4", "expected 5 fields, got 4"),
    ("node 2 switch 4 - extra", "expected 5 fields, got 6"),
    ("link 0 1 1", "expected 5 fields, got 4"),
    ("node x switch 4 -", "invalid literal for int() with base 10: 'x'"),
    ("node 3 switch 4 -", "node id 3 out of order (expected 2)"),
    ("node 2 oops 4 -", "'oops' is not a valid NodeKind"),
    ("node 2 switch four -", "invalid literal for int() with base 10: 'four'"),
    ("node 2 switch 4 1,a", "bad address digits '1,a'"),
    # the id is read before the kind, the kind before the radix
    ("node x oops four -", "invalid literal for int() with base 10: 'x'"),
    ("node 2 oops four -", "'oops' is not a valid NodeKind"),
    ("link 0 2 1 10", "link endpoint out of range: 0-2"),
    ("link -1 1 1 10", "link endpoint out of range: -1-1"),
    ("link 0 1 fast 10", "could not convert string to float: 'fast'"),
    ("link 0 1 1 1.5", "invalid literal for int() with base 10: '1.5'"),
    ("wat 0 0 0 0", "unknown record 'wat'"),
])
def test_import_error_names_the_line_and_the_fault(record, message):
    with pytest.raises(EdgeListParseError) as err:
        import_edge_list(IMPORT_HEAD + record + "\n")
    assert err.value.line_no == 6
    assert str(err.value) == f"line 6: {message}"


def test_import_skips_blank_and_comment_lines():
    topo = import_edge_list(IMPORT_HEAD + "  # a link\nlink 0 1 1 10\n\n")
    assert export_edge_list(topo) == "node 0 host 1 -\nnode 1 switch 4 -\nlink 0 1 1 10\n"


# the head above, then a link whose capacity and latency text the records
# under test repeat (line 7)
CACHED_HEAD = IMPORT_HEAD + "link 0 1 1 10\n"


@pytest.mark.parametrize("record, message", [
    ("link 0 2 1 10", "link endpoint out of range: 0-2"),
    ("link 0 x 1 10", "invalid literal for int() with base 10: 'x'"),
    ("link 0 1 1 10 1", "expected 5 fields, got 6"),
    # node lines that repeat an earlier record's text
    ("node 1 switch 4 -", "node id 1 out of order (expected 2)"),
    ("node 0 host 1 -", "node id 0 out of order (expected 2)"),
    ("node x host 1 -", "invalid literal for int() with base 10: 'x'"),
])
def test_import_error_after_a_repeated_record(record, message):
    with pytest.raises(EdgeListParseError) as err:
        import_edge_list(CACHED_HEAD + record + "\n")
    assert err.value.line_no == 7
    assert str(err.value) == f"line 7: {message}"


@pytest.mark.parametrize("skipped", ["\t# tab-indented", "   #", "#node 2 oops", " \t "],
                         ids=["tab-comment", "bare-comment", "commented-record", "whitespace"])
def test_import_skips_indented_comments_and_whitespace(skipped):
    topo = import_edge_list(CACHED_HEAD + skipped + "\n")
    assert export_edge_list(topo) == export_edge_list(import_edge_list(CACHED_HEAD))
    with pytest.raises(EdgeListParseError, match="^line 8: unknown record 'wat'$"):
        import_edge_list(CACHED_HEAD + skipped + "\nwat\n")


# --- multi-source BFS --------------------------------------------------------


def line(num_nodes):
    nodes = [Node(NodeKind.SWITCH, 2)] * num_nodes
    return Topology(nodes, [Link(i, i + 1) for i in range(num_nodes - 1)])


def sweep_distances(topology, sources, blocked=()):
    """Per-source distance rows read off the sweep's levels; -1 if never reached."""
    rows = [[-1] * topology.num_nodes for _ in sources]
    for d, gained in enumerate(multi_source_bfs(topology, sources, blocked)):
        assert gained  # the sweep stops after the last level that gains a bit
        for v, bits in gained.items():
            assert bits
            for i, row in enumerate(rows):
                if bits >> i & 1:
                    assert row[v] == -1  # each node gains each bit once
                    row[v] = d
    return rows


@pytest.mark.parametrize("topology, sources", [
    (line(6), [0, 5, 2]),
    (line(6), [3, 3]),
    (duplicate_host_links(), list(range(6))),
    (isolated_twins(), [0, 2, 4]),
    (build_dcell(3, 2), list(range(156))),  # more bits than one machine word
], ids=["line", "line-repeated-source", "parallel-links", "disconnected", "dcell-n3-l2"])
def test_multi_source_bfs_levels_match_single_source(topology, sources):
    expected = [bfs_distances(topology, s) for s in sources]
    assert sweep_distances(topology, sources) == expected


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_neighbors_table_is_sorted_adjacency(name):
    topo = HAND_BUILT[name]()
    assert topo.neighbors == tuple(
        tuple(sorted(nb for nb, _ in entries)) for entries in topo.adjacency
    )


def mixed_capacities():
    """Host links of int 1, float 1.0 and two NaNs, and parallel switch
    links whose capacity object changes from one link to the next."""
    nodes = [Node(NodeKind.HOST, 1)] * 5 + [Node(NodeKind.SWITCH, 8)] * 2
    capacities = [1, 1.0, math.nan, float("nan"), 1]
    links = [Link(h, 5, capacity) for h, capacity in enumerate(capacities)]
    links += [Link(5, 6, 1.0), Link(6, 5, 1), Link(5, 6, math.nan)]
    return Topology(nodes, links)


ADJACENCY_CASES = {
    **HAND_BUILT,
    "mixed_capacities": mixed_capacities,
    "facebook-two-capacities": lambda: build_facebook_fabric(3, 2, 2, 2, 2.0, 8.0),
}


@pytest.mark.parametrize("name", sorted(ADJACENCY_CASES))
def test_adjacency_lists_other_end_and_capacity_per_link_end(name):
    # a self-loop gives its node two entries, parallel links one each; a
    # shared end keeps its link's capacity value and type
    topo = ADJACENCY_CASES[name]()
    assert end_values(topo.adjacency) == per_end_adjacency(topo)


def test_fat_tree_shares_link_ends():
    # one (node, capacity) end per node, where every end was once its own tuple
    topo = build_fat_tree(4)
    ends = [end for row in topo.adjacency for end in row]
    assert len(ends) == 96
    assert len({id(end) for end in ends}) <= 36


def test_round_trip_shares_records_and_capacities():
    topo = import_edge_list(export_edge_list(build_jellyfish(20, 6, 3, seed=1)))
    assert len({id(node) for node in topo.nodes}) == 2  # one host record, one switch record
    assert len({id(link.capacity) for link in topo.links}) == 1
    assert len({id(end) for row in topo.adjacency for end in row}) <= topo.num_nodes


QUOTIENT_CASES = {
    **HAND_BUILT,
    "fat-tree-k4-h3": lambda: build_fat_tree(4, hosts_per_edge=3),
    "facebook-8-2-3-2": lambda: build_facebook_fabric(8, 2, 3, 2),
    "jellyfish-s20-p6-r4": lambda: build_jellyfish(20, 6, 4, seed=3),
    "dcell-n3-l1": lambda: build_dcell(3, 1),
    "isolated_switch": isolated_switch,
    "twins_of_twins": twins_of_twins,
}


@pytest.mark.parametrize("name", sorted(QUOTIENT_CASES))
def test_twin_quotient_keeps_every_distance(name):
    # blocking every twin but the first leaves the distances between the
    # nodes kept as they are; a twin is its representative's distance from
    # every node but the other members of its class, which are 2 away
    topo = QUOTIENT_CASES[name]()
    classes, twins = host_twin_quotient(topo)
    assert classes == host_twin_classes(topo)
    assert twins == {h: c for c, (_, members) in enumerate(classes) for h in members[1:]}
    kept = [v for v in range(topo.num_nodes) if v not in twins]
    for s, row in zip(kept, sweep_distances(topo, kept, twins)):
        full = bfs_distances(topo, s)
        assert [row[v] for v in kept] == [full[v] for v in kept]
    for c, (_, members) in enumerate(classes):
        expected = [2 if v in members else d for v, d in enumerate(bfs_distances(topo, members[0]))]
        for t in members[1:]:
            assert bfs_distances(topo, t) == expected[:t] + [0] + expected[t + 1:]


def test_twin_quotient_drops_seven_of_eight_fat_tree_hosts():
    topo = build_fat_tree(16)
    classes, twins = host_twin_quotient(topo)
    assert (len(classes), len(twins)) == (128, 896)


@pytest.mark.parametrize("build", [linkless_twins, isolated_twins])
def test_twin_quotient_rejects_twins_without_links(build):
    # the quotient keeps one of them, which alone would look connected
    with pytest.raises(TopologyError, match="hosts 0 and 1 have no links"):
        host_twin_quotient(build())


def test_build_does_not_make_the_neighbors_table():
    # the table is built on first use, so builders and callers that read only
    # adjacency (component_count, validate) never pay for it
    topo = build_jellyfish(200, 12, 8, 1)
    assert "neighbors" not in topo.__dict__
    assert len(topo.neighbors) == topo.num_nodes
    assert "neighbors" in topo.__dict__


def test_multi_source_bfs_line_levels():
    assert list(multi_source_bfs(line(4), [0, 3])) == [
        {0: 0b01, 3: 0b10},
        {1: 0b01, 2: 0b10},
        {2: 0b01, 1: 0b10},
        {3: 0b01, 0: 0b10},
    ]
