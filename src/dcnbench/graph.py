"""Core topology model: nodes, capacitated links, adjacency, and edge-list I/O.

Every builder, metric, router, and simulator in this package works on the
immutable :class:`Topology` defined here. Node ids are their positions in
``nodes``, ``0..num_nodes-1``. The builders number hosts first, and the
DCell and BCube routers rely on their builder's layout, but a
:class:`Topology` does not require it: traffic patterns and bisection
splits work on indices into :attr:`Topology.hosts`.
Every shortest-path question goes through one search,
:func:`multi_source_bfs`, over the sorted ``neighbors`` table, and every
shortcut over interchangeable hosts through one twin rule,
:func:`host_twin_classes`. The all-hosts sweeps run on its quotient,
:func:`host_twin_quotient`, which keeps one host per twin class: on fat
tree k=16 that drops 7 of every 8 hosts.

The records :class:`Address`, :class:`Node` and :class:`Link` are named
tuples. Their fields are read by name and cannot be assigned. A named tuple
takes less than half the time and memory of a frozen dataclass with the same
fields. Like any tuple, a record also compares equal to a plain tuple of the
same values, unpacks, and sorts field by field. A node record holds its
kind, radix and address only: its id is its position, so nodes that differ
in nothing else, such as the flat-addressed hosts of a Jellyfish, share one
record. An address holds its digits only. What they mean, like the survey's
classification of the design, is a fact about the builder, which
``builder_params["builder"]`` names: the routers read it, and
:data:`dcnbench.builders.TAXONOMY` maps it to the design's taxonomy record.

A value that repeats is built once and shared, as no tuple can be changed:
the ``(neighbour, capacity)`` ends of :attr:`Topology.adjacency` (one per
node and capacity object, where each link end was once its own tuple: 1,344
instead of 6,144 on fat tree k=16), and the flat node records, capacities
and latencies that :func:`import_edge_list` reads. A shared object holds
the values a new one would, so equality, order and output are unchanged;
only ``is`` tells them apart.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

DEFAULT_CAPACITY = 1.0
DEFAULT_LATENCY = 10  # cycles, off-chip link propagation


class NodeKind(Enum):
    HOST = "host"
    SWITCH = "switch"


# read per record: on Python 3.10 and 3.11 a module global reads faster than
# ``NodeKind.HOST``, a class attribute of the Enum, and a dict lookup takes
# a fraction of the microsecond that the call ``NodeKind("host")`` does
_HOST = NodeKind.HOST
_SWITCH = NodeKind.SWITCH
_NODE_KINDS = {kind.value: kind for kind in NodeKind}


class Address(NamedTuple):
    """Topology-specific coordinate vector, e.g. BCube digits or pod/position;
    empty for a flat address."""

    digits: tuple[int, ...] = ()


class Node(NamedTuple):
    """A host or switch. Its id is its position in :attr:`Topology.nodes`,
    which the record does not hold."""

    kind: NodeKind
    radix: int
    address: Address = Address()


class Link(NamedTuple):
    """Undirected duplex link, simulated as two independent simplex channels."""

    a: int
    b: int
    capacity: float = DEFAULT_CAPACITY
    latency: int = DEFAULT_LATENCY


class TopologyError(Exception):
    """Raised when a topology cannot be built or parsed."""


class EdgeListParseError(TopologyError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class ValidationError(TopologyError):
    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


class Topology:
    """Immutable graph of hosts and switches with capacitated links.

    ``nodes`` and ``links`` are tuples of the named-tuple records
    :class:`Node` and :class:`Link`. ``adjacency[v]`` lists one ``(neighbor,
    capacity)`` pair per end of a link at ``v``, in link order, so a
    self-loop appears twice and parallel links once each; it is the one
    capacitated adjacency that metrics read. The pairs are shared: the end
    ``(b, capacity)`` built for one link to ``b`` serves each later link to
    ``b`` whose capacity is the same object (``is``, so ``1`` and ``1.0``
    stay apart, as do two NaNs), and holds the values a new pair would. A
    node's id is its position in ``nodes``. A node whose ``kind`` is not a
    :class:`NodeKind`, such as one built in an order other than ``(kind,
    radix, address)``, or whose radix is not an ``int``, and a link whose
    endpoint is not an ``int`` node id (a ``bool`` is not one), raise
    :class:`TopologyError`.
    Construction is single-threaded; once built, a topology is safe to
    share read-only across concurrent analyses.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        links: Sequence[Link],
        builder_params: Optional[dict] = None,
    ):
        self.nodes: tuple[Node, ...] = tuple(nodes)
        for v, (kind, radix, _) in enumerate(self.nodes):
            if kind is not _HOST and kind is not _SWITCH:
                raise TopologyError(
                    f"node {v} has kind {kind!r}; a Node is (kind, radix, address)"
                )
            if type(radix) is not int:
                raise TopologyError(f"node {v} has radix {radix!r}; a radix is an integer")
        self.links: tuple[Link, ...] = tuple(links)
        self.builder_params: dict = dict(builder_params or {})
        n = len(self.nodes)
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        # per node v, the last end (v, capacity) built; the next link to v
        # with the very same capacity object reuses it
        ends: list = [None] * n
        for idx, (a, b, capacity, _) in enumerate(self.links):
            if not (type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n):
                if type(a) is not int or type(b) is not int:
                    raise TopologyError(
                        f"link {idx} ({a!r}-{b!r}) has an endpoint that is not an integer"
                    )
                raise TopologyError(
                    f"link {idx} ({a}-{b}) has an endpoint outside node ids 0..{n - 1}"
                )
            end = ends[b]
            if end is None or end[1] is not capacity:
                end = ends[b] = (b, capacity)
            adj[a].append(end)
            end = ends[a]
            if end is None or end[1] is not capacity:
                end = ends[a] = (a, capacity)
            adj[b].append(end)
        self.adjacency: tuple[tuple[tuple[int, float], ...], ...] = tuple(
            tuple(entries) for entries in adj
        )

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @cached_property
    def hosts(self) -> tuple[int, ...]:
        return tuple(v for v, n in enumerate(self.nodes) if n.kind is _HOST)

    @cached_property
    def switches(self) -> tuple[int, ...]:
        return tuple(v for v, n in enumerate(self.nodes) if n.kind is _SWITCH)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per node, its neighbour ids in ascending order, one per link as in
        ``adjacency`` (parallel links and self-loops repeat). Built on first
        use: builders and the fat-tree router read only ``adjacency``."""
        return tuple(tuple(sorted(nb for nb, _ in entries)) for entries in self.adjacency)

    @property
    def num_hosts(self) -> int:
        return len(self.hosts)

    @property
    def num_switches(self) -> int:
        return len(self.switches)

    def degree(self, node_id: int) -> int:
        return len(self.adjacency[node_id])

    def name(self) -> str:
        return self.builder_params.get("builder", "custom")

    def __repr__(self) -> str:
        return (
            f"Topology({self.name()}: {self.num_hosts} hosts, "
            f"{self.num_switches} switches, {len(self.links)} links)"
        )


def component_count(topology: Topology) -> int:
    """Number of connected components; a node with no links is one."""
    seen = [False] * topology.num_nodes
    count = 0
    for start in range(topology.num_nodes):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            for nb, _ in topology.adjacency[v]:
                if not seen[nb]:
                    seen[nb] = True
                    stack.append(nb)
    return count


def _float_holds(value: int) -> bool:
    """Whether ``float(value)`` equals ``value`` (int-float ``==`` is exact)."""
    try:
        return float(value) == value
    except OverflowError:
        return False


def validate(topology: Topology) -> list[str]:
    """Check structural invariants, returning a list of violations.

    Violations are data, not failures: an empty list means the topology is
    well-formed. Checks: radix exceeded, duplicate links, self loops,
    capacities that are not an ``int`` or ``float`` (a ``bool`` is not one),
    not finite and positive, or an ``int`` that no ``float`` holds exactly,
    latencies that are not exactly an ``int`` or below one cycle,
    disconnected components, and address length: every non-empty address
    has as many digits as the first. The type checks turn away link fields
    that the edge-list text does not carry back: a latency of ``2.5`` fails
    to import, a capacity of ``True`` comes back as ``1.0``, one of
    ``2**53 + 1`` as ``2**53``, and one of ``10**400`` fails to export.
    """
    violations = []
    adjacency = topology.adjacency
    for v, node in enumerate(topology.nodes):
        deg = len(adjacency[v])
        if deg > node.radix:
            violations.append(f"radix exceeded: node {v} has degree {deg} > radix {node.radix}")
    n = topology.num_nodes
    seen_pairs = set()  # a * n + b for each link a-b with a < b
    for idx, (a, b, capacity, latency) in enumerate(topology.links):
        if a == b:
            violations.append(f"self-loop: link {idx} on node {a}")
            continue
        if a > b:
            a, b = b, a
        pair = a * n + b
        if pair in seen_pairs:
            violations.append(f"duplicate link: {a}-{b} (link {idx})")
        seen_pairs.add(pair)
        if isinstance(capacity, bool) or not isinstance(capacity, (int, float)):
            violations.append(f"capacity {capacity!r} on link {idx} is not a number")
        elif not capacity > 0:  # NaN fails every comparison
            violations.append(f"non-positive capacity on link {idx}")
        elif capacity == math.inf:
            violations.append(f"infinite capacity on link {idx}")
        elif isinstance(capacity, int) and not _float_holds(capacity):
            violations.append(f"int capacity on link {idx} has no exact float")
        if type(latency) is not int:
            violations.append(f"latency {latency!r} on link {idx} is not an integer")
        elif latency < 1:
            violations.append(f"latency < 1 on link {idx}")
    count = component_count(topology)
    if count > 1:
        violations.append(f"disconnected: {count} components")
    width = 0  # digits of the first non-empty address
    for v, node in enumerate(topology.nodes):
        digits = node.address.digits
        if not digits:
            continue
        if not width:
            width = len(digits)
        elif len(digits) != width:
            violations.append(
                f"address length inconsistency: node {v} has {len(digits)} digits, "
                f"expected {width}"
            )
    return violations


def _format_capacity(value: float) -> str:
    # the shortest text float() reads back exactly, "1" rather than "1.0"
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def export_edge_list(topology: Topology) -> str:
    """Serialize to the line-oriented edge-list format.

    One ``node <id> <kind> <radix> <address-digits>`` line per node in id
    (position) order, then one ``link <a> <b> <capacity> <latency>`` line
    per link in insertion order.

    :func:`import_edge_list` reads back node order, kind, radix and address
    digits, and link order, endpoints, capacity and latency, so exporting
    the imported topology gives the same text, and a topology that
    :func:`validate` passes comes back with equal ``nodes`` and ``links`` (an
    ``int`` capacity comes back as the ``float`` equal to it).
    The builder parameters are dropped, and with the builder's name go what
    it implies: the taxonomy, which :data:`dcnbench.builders.TAXONOMY` reads
    by name, and the specialized router. A re-imported fat tree therefore
    routes by ECMP under ``"auto"``, and the ``"fat-tree"`` router rejects
    it.
    """
    lines = []
    for v, node in enumerate(topology.nodes):
        digits = ",".join(str(d) for d in node.address.digits) or "-"
        lines.append(f"node {v} {node.kind.value} {node.radix} {digits}")
    for link in topology.links:
        lines.append(
            f"link {link.a} {link.b} {_format_capacity(link.capacity)} {link.latency}"
        )
    return "\n".join(lines) + "\n"


def import_edge_list(text: str) -> Topology:
    """Parse the edge-list format back into a topology.

    The result's builder is ``"imported"``, which names no design: it has
    no taxonomy and routes by ECMP under ``"auto"``. Node lines give ids 0,
    1, 2, ... in order, as a node's id is its position. Node lines with
    equal kind, radix and flat (``-``) address text share one record, and
    link lines with equal capacity and latency text share one float and one
    int, so their adjacency ends are shared too. A coordinate address is
    parsed per line: it rarely repeats, and caching fat tree k=48's 30,528
    of them raised the round trip's peak RSS from 78 to 85 MB. Raises
    :class:`EdgeListParseError` with the offending line number on malformed
    input and :class:`ValidationError` if the parsed topology violates
    structural invariants (e.g. duplicate links or addresses of different
    lengths).
    """
    nodes: list[Node] = []
    links: list[Link] = []
    records: dict[tuple[str, str, str], Node] = {}  # (kind, radix, "-") text -> flat record
    tails: dict[tuple[str, str], tuple[float, int]] = {}  # (capacity, latency) text -> values
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "node":
            if len(parts) != 5:
                raise EdgeListParseError(line_no, f"expected 5 fields, got {len(parts)}")
            try:
                node_id = int(parts[1])
            except ValueError as exc:
                raise EdgeListParseError(line_no, str(exc)) from exc
            key = (parts[2], parts[3], parts[4])
            node = records.get(key)
            if node is None:
                try:
                    kind = _NODE_KINDS[parts[2]]
                    radix = int(parts[3])
                except ValueError as exc:
                    raise EdgeListParseError(line_no, str(exc)) from exc
                except KeyError:
                    raise EdgeListParseError(
                        line_no, f"{parts[2]!r} is not a valid NodeKind"
                    ) from None
                if parts[4] == "-":
                    digits: tuple[int, ...] = ()
                else:
                    try:
                        digits = tuple(map(int, parts[4].split(",")))
                    except ValueError as exc:
                        raise EdgeListParseError(
                            line_no, f"bad address digits {parts[4]!r}"
                        ) from exc
                node = Node(kind, radix, Address(digits))
                if not digits:
                    records[key] = node
            if node_id != len(nodes):
                raise EdgeListParseError(
                    line_no, f"node id {node_id} out of order (expected {len(nodes)})"
                )
            nodes.append(node)
        elif parts[0] == "link":
            if len(parts) != 5:
                raise EdgeListParseError(line_no, f"expected 5 fields, got {len(parts)}")
            try:
                a, b = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise EdgeListParseError(line_no, str(exc)) from exc
            key = (parts[3], parts[4])
            tail = tails.get(key)
            if tail is None:
                try:
                    tail = tails[key] = (float(parts[3]), int(parts[4]))
                except ValueError as exc:
                    raise EdgeListParseError(line_no, str(exc)) from exc
            if not (0 <= a < len(nodes)) or not (0 <= b < len(nodes)):
                raise EdgeListParseError(line_no, f"link endpoint out of range: {a}-{b}")
            capacity, latency = tail
            links.append(Link(a, b, capacity, latency))
        else:
            raise EdgeListParseError(line_no, f"unknown record {parts[0]!r}")
    topology = Topology(nodes, links, builder_params={"builder": "imported"})
    violations = validate(topology)
    if violations:
        raise ValidationError(violations)
    return topology


def check_node_ids(topology: Topology, ids: Iterable[int]) -> None:
    """Raise :class:`TopologyError` naming the first of ``ids`` outside
    ``0..num_nodes-1``; a negative id would otherwise wrap to a real node."""
    num_nodes = topology.num_nodes
    for v in ids:
        if not 0 <= v < num_nodes:
            raise TopologyError(f"node id {v} is outside 0..{num_nodes - 1}")


def check_count(name: str, value: object, minimum: Optional[int] = 1) -> None:
    """Raise :class:`TopologyError` naming ``name`` unless ``value`` is an
    ``int`` of at least ``minimum``; a ``bool`` is not a count. With
    ``minimum=None`` any ``int`` passes: the rule for a seed, which
    ``random.Random`` would otherwise take from the operating system when
    it is ``None``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TopologyError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise TopologyError(f"{name} must be >= {minimum}, got {value!r}")


def check_number(name: str, value: object) -> None:
    """Raise :class:`TopologyError` naming ``name`` unless ``value`` is an
    ``int`` or a ``float``; a ``bool`` is not a number. The caller tests the
    interval."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TopologyError(f"{name} must be a number, got {value!r}")


def multi_source_bfs(
    topology: Topology, sources: Sequence[int], blocked: Iterable[int] = ()
) -> Iterator[dict[int, int]]:
    """Breadth-first search from every node of ``sources`` at once, one level
    at a time (Then et al., "The More the Merrier", PVLDB 2014).

    Bit ``i`` of a Python ``int`` stands for ``sources[i]``. The ``d``-th
    mapping yielded (counting from 0) holds each node that gained bits at
    level ``d``, mapped to those bits: the sources at distance exactly ``d``
    from it. Level 0 is the sources themselves. A node with no path to a
    source never gains its bit, and the sweep ends after the last level
    that gained anything. Nodes in ``blocked`` start with every bit seen, so
    the sweep runs on the graph without them (a blocked source still starts
    its own bit). An id outside ``0..num_nodes-1`` raises at the first level.

    Each level ORs every frontier node's bits into its neighbours' entries
    of one ``reached`` list, allocated once per sweep, and notes the nodes
    it touches in first-push order; reading the next frontier off them
    zeroes each entry again, and each mapping lists its nodes in that
    order. So the cost is (levels) x (adjacency entries) big-int operations
    on ``len(sources) / 64`` machine words each, with no dict probed per
    neighbour visit, where one BFS per source costs ``len(sources)`` x
    (adjacency entries) Python steps.

    Three consumers share the sweep. :func:`dcnbench.metrics.host_path_stats`
    and the one ECMP build (``dcnbench.routing._ecmp_rows``, which both
    :func:`dcnbench.routing.ecmp_router` and
    :func:`dcnbench.routing.compute_ecmp_tables` read) start it from one host
    per twin class with the other twins blocked (:func:`host_twin_quotient`),
    and read the pair sum and next-hop masks off its levels;
    :func:`dcnbench.routing.shortest_route_avoiding` runs it from one
    destination with the forbidden nodes blocked.
    """
    blocked = tuple(blocked)
    check_node_ids(topology, (*sources, *blocked))
    neighbors = topology.neighbors
    seen = [0] * topology.num_nodes
    reached = [0] * topology.num_nodes  # zero between levels
    frontier: dict[int, int] = {}
    for i, s in enumerate(sources):
        frontier[s] = seen[s] = seen[s] | 1 << i
    for v in blocked:
        seen[v] = -1  # every bit, in two's complement
    while frontier:
        yield frontier
        touched = []
        for v, bits in frontier.items():
            for nb in neighbors[v]:
                if reached[nb]:
                    reached[nb] |= bits
                else:  # frontier bits are never 0
                    reached[nb] = bits
                    touched.append(nb)
        frontier = {}
        for v in touched:
            bits = reached[v] & ~seen[v]
            reached[v] = 0
            if bits:
                seen[v] |= bits
                frontier[v] = bits


def host_twin_classes(topology: Topology) -> list[tuple[tuple[int, ...], list[int]]]:
    """Hosts grouped by their sorted ``(neighbour, capacity)`` list (with
    link multiplicity), as ``(neighbours, members)`` pairs in order of first
    member, ``neighbours`` being the members' shared :attr:`Topology.neighbors`.

    Twins are at distance 2 from each other (when they have neighbours) and
    at the same distance from every other node, so one BFS serves the whole
    class, and the all-hosts sweeps leave every twin but the first out
    (:func:`host_twin_quotient`). A host linked to itself is never a twin:
    its neighbour list holds itself, so the argument above fails. Two
    members of one class are thus never adjacent, and swapping them maps
    the capacitated graph onto itself, so exact bisection counts hosts per
    class instead of choosing them.
    """
    classes: dict = {}
    for h in topology.hosts:
        nbrs = topology.neighbors[h]
        key = h if h in nbrs else tuple(sorted(topology.adjacency[h]))
        classes.setdefault(key, (nbrs, []))[1].append(h)
    return list(classes.values())


def host_twin_quotient(
    topology: Topology,
) -> tuple[list[tuple[tuple[int, ...], list[int]]], dict[int, int]]:
    """:func:`host_twin_classes`, and each twin that is not its class's
    first member (the representative) mapped to its class index: the nodes
    a sweep from the representatives passes to :func:`multi_source_bfs` as
    ``blocked``, so it runs on the quotient graph that keeps one host per
    class.

    Leaving those twins out changes no distance among the nodes kept: a
    representative has the same neighbour list, with multiplicity, as every
    twin it stands for, so a shortest path through a twin can run through
    the representative instead. A twin's distances are then its
    representative's, except 2 to the other members of its class, and its
    next hops are its representative's. A class of two or more members with
    no neighbours raises :class:`TopologyError`, since its members reach no
    one; the quotient keeps only one of them, and would pass as connected.
    """
    classes = host_twin_classes(topology)
    twins = {}
    for c, (nbrs, members) in enumerate(classes):
        if len(members) > 1 and not nbrs:
            raise TopologyError(
                f"topology is disconnected: hosts {members[0]} and {members[1]} have no links"
            )
        for h in members[1:]:
            twins[h] = c
    return classes, twins
