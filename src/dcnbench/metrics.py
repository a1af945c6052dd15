"""Structural analytics: path lengths, bisection bandwidth, over-subscription,
disjoint paths, and switch-failure experiments.

Host diameter and average host path come from one multi-source BFS sweep
that carries one bit per host twin class, not from one BFS per host or per
class: the sweep's cost grows with the number of levels, not of sources. It
runs on the twin quotient, which keeps one host per class, so on fat tree
k=16 it visits 128 of the 1,024 hosts.

Bisection bandwidth follows the survey's definition: the minimum, over
balanced host bipartitions, of the capacity that must be cut to separate the
two host sets; each partition's cut is a max-flow between its two host sets.

- Exact (guarded by host count): hosts whose ``(neighbour, capacity)`` lists
  are equal can be swapped without changing any cut, so a branch and bound
  fixes how many hosts of each such class sit on side A rather than which
  ones. All branches share one residual network: fixing a class opens arcs
  and only adds capacity, so a branch resumes its parent's max-flow, and it
  is cut once that flow, a lower bound on every partition below it, reaches
  the best cut found. Before the search, swaps of two switches with their
  hosts that map the capacitated graph onto itself are found and checked
  link by link; a count vector that such a swap maps to a lexicographically
  smaller one has the same cut as that one, so the search skips it.
- Heuristic: Fiduccia-Mattheyses refinement moving whole nodes (switches
  freely, hosts within one of balance) from seeded random starts, each
  result evaluated by max-flow. Every value it reports is the cut of a real
  balanced host partition, so it is an upper bound: it can only overstate
  the bisection bandwidth, never understate it.

Switch failures: each trial of :func:`failure_experiment` removes a seeded
random sample of switches (hosts never fail) and counts, among all host
pairs, those still connected and those that still have two internally
vertex-disjoint paths, which no single further failure can cut. Both counts
come from one depth-first search per trial, :func:`surviving_host_pairs`.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass

from .graph import (
    Topology,
    TopologyError,
    check_count,
    check_number,
    host_twin_classes,
    host_twin_quotient,
    multi_source_bfs,
)

INF = float("inf")
EXACT_BISECTION_MAX_HOSTS = 16  # largest host count the exact search accepts


@dataclass
class MetricsReport:
    topology: str
    hosts: int
    switches: int
    host_diameter: int
    avg_host_path: float
    bisection_bandwidth: float
    oversubscription: float
    method: str  # "exact" | "heuristic"


class MaxFlow:
    """Shortest augmenting paths (Edmonds-Karp) with float capacities.

    :meth:`max_flow` augments the flow the network already carries and
    returns only what it adds. Raising capacities between calls, such as
    opening a closed arc, keeps that flow feasible, so a call after them
    resumes rather than restarts: the calls sum to one max-flow from
    scratch on the final network.

    A residual arc counts as closed at or below :attr:`tolerance`, a fixed
    share of the smallest positive finite capacity given to
    :meth:`add_edge`, so the same network at any capacity scale gives the
    same flow scaled.
    """

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[float] = []
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.smallest = INF  # smallest positive finite capacity given

    @property
    def tolerance(self) -> float:
        return 1e-12 * (self.smallest if self.smallest < INF else 1.0)

    def add_edge(self, u: int, v: int, cap: float, cap_rev: float = 0.0) -> int:
        for c in (cap, cap_rev):
            if 0 < c < self.smallest:
                self.smallest = c
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(cap_rev)
        return idx

    def max_flow(self, s: int, t: int, limit: float = INF) -> float:
        """Flow added from ``s`` to ``t``, at most ``limit``."""
        to, cap, head = self.to, self.cap, self.head
        flow = 0.0
        eps = self.tolerance
        while flow < limit - eps:
            via = [-1] * self.n  # the arc a BFS first reached each node by
            via[s] = -2
            queue = [s]
            for v in queue:  # the loop also visits what it appends
                for idx in head[v]:
                    w = to[idx]
                    if via[w] == -1 and cap[idx] > eps:
                        via[w] = idx
                        queue.append(w)
                if via[t] != -1:
                    break
            else:
                return flow
            push = limit - flow
            v = t
            while v != s:
                push = min(push, cap[via[v]])
                v = to[via[v] ^ 1]
            v = t
            while v != s:
                cap[via[v]] -= push
                cap[via[v] ^ 1] += push
                v = to[via[v] ^ 1]
            flow += push
        return flow


# ---------------------------------------------------------------------------
# Path metrics


def host_path_stats(topology: Topology) -> tuple[int, float]:
    """Host diameter and mean host-pair shortest-path length, in links.

    One :func:`multi_source_bfs` sweep runs on the twin quotient
    (:func:`host_twin_quotient`): it starts from the representative of every
    host twin class, with the other twins blocked. A twin's distances to
    hosts of other classes are its representative's, so source bit ``i``
    stands for the ``s`` members of class ``i``, and a representative that
    gains a set of bits at level ``d`` adds ``d`` times its own class size
    times their summed class sizes to the total over ordered host pairs. The
    ``s * (s - 1)`` ordered pairs inside a class are 2 apart. The mean is
    that exact integer sum divided by the pair count, which equals the
    unordered-pair mean bit for bit. The diameter is the last level at which
    a representative gains a bit, and at least 2 when some class has two
    members.
    """
    hosts = topology.hosts
    if len(hosts) < 2:
        raise TopologyError("path metrics need at least two hosts")
    classes, twins = host_twin_quotient(topology)
    masks: dict[int, int] = {}  # class size -> bits of the classes of that size
    weight = [0] * topology.num_nodes  # per representative, its class size
    total = 0
    for i, (_, members) in enumerate(classes):
        size = len(members)
        masks[size] = masks.get(size, 0) | 1 << i
        weight[members[0]] = size
        total += 2 * size * (size - 1)  # the ordered pairs inside the class
    size_masks = list(masks.items())
    worst = 2 if twins else 0
    pairs = 0  # ordered (host, host) pairs reached, counted through class sizes
    reps = [members[0] for _, members in classes]
    for d, gained in enumerate(multi_source_bfs(topology, reps, twins)):
        level_pairs = 0
        for v, bits in gained.items():
            w = weight[v]
            if w:
                reached = 0
                for size, mask in size_masks:
                    reached += size * (bits & mask).bit_count()
                level_pairs += w * reached
        if level_pairs:
            worst = max(worst, d)
            pairs += level_pairs
            total += d * level_pairs
    if pairs != len(hosts) * len(hosts):
        raise TopologyError("topology is disconnected")
    return worst, total / (len(hosts) * (len(hosts) - 1))


def host_diameter(topology: Topology) -> int:
    """Max over host pairs of the shortest path length in links."""
    return host_path_stats(topology)[0]


def avg_host_path(topology: Topology) -> float:
    """Mean shortest-path length over unordered host pairs."""
    return host_path_stats(topology)[1]


# ---------------------------------------------------------------------------
# Bisection bandwidth


def _check_finite(idx: int, a: int, b: int, capacity: float) -> None:
    """Raise :class:`TopologyError` if link ``idx`` (``a``-``b``) has
    infinite capacity: no cut could cross it."""
    if capacity == INF:
        raise TopologyError(f"link {idx} ({a}-{b}) has infinite capacity")


def _partition_cut_solver(topology: Topology) -> tuple[MaxFlow, dict[int, tuple[int, int]]]:
    """The links as a max-flow network from a source ``n`` to a sink
    ``n + 1`` (``n`` nodes), and per host its two closed arcs, indexed by
    side: opening ``arcs[h][1]`` from the source puts host ``h`` on side A,
    opening ``arcs[h][0]`` to the sink puts it on side B. A link of
    infinite capacity raises :class:`TopologyError`: no cut could cross it.
    """
    n = topology.num_nodes
    solver = MaxFlow(n + 2)
    for idx, (a, b, capacity, _) in enumerate(topology.links):
        _check_finite(idx, a, b, capacity)
        solver.add_edge(a, b, capacity, capacity)
    arcs = {h: (solver.add_edge(h, n + 1, 0.0), solver.add_edge(n, h, 0.0)) for h in topology.hosts}
    return solver, arcs


def _switch_swaps(
    topology: Topology, classes: list[list[int]]
) -> list[tuple[tuple[int, int], ...]]:
    """Class permutations induced by verified switch-swap automorphisms,
    each as its pairs ``(a, g[a])`` with ``a < g[a]``, in order of ``a``.

    A swap exchanges two switches and pairs their hosts in order of each
    host's other attachments, then id. Only switches with one key are
    tried: their non-host neighbours with capacities, and per host the
    capacities of its links to the switch and its other ``(neighbour,
    capacity)`` attachments, so switches whose hosts hang off different
    nodes are never compared. A swap is kept when every link at a node it
    moves maps onto a link of equal capacity; it is then an automorphism of
    the capacitated graph, so it maps each twin class onto a class of equal
    size. Swaps that move no host, and repeats of one class permutation,
    are dropped.
    """
    adjacency = topology.adjacency
    attachments = {h: tuple(sorted(adjacency[h])) for h in topology.hosts}
    by_key: dict = {}
    for w in topology.switches:
        fabric = []
        attached: dict[int, tuple] = {}
        for nb, cap in adjacency[w]:
            if nb not in attachments:
                fabric.append((nb, cap))
            elif nb not in attached:
                own = attachments[nb]
                lo, hi = bisect_left(own, (w,)), bisect_left(own, (w + 1,))
                attached[nb] = (tuple([cap for _, cap in own[lo:hi]]), own[:lo] + own[hi:])
        key = (tuple(sorted(fabric)), tuple(sorted(attached.values())))
        by_key.setdefault(key, []).append((w, attached))
    class_of = {h: c for c, members in enumerate(classes) for h in members}
    kept: dict[tuple, None] = {}
    for group in by_key.values():
        if len(group) < 2:
            continue
        hosts_of = {w: sorted(attached, key=lambda h: (attached[h], h)) for w, attached in group}
        for u, v in itertools.combinations(hosts_of, 2):
            sigma = {u: v, v: u}
            for a, b in zip(hosts_of[u], hosts_of[v]):
                sigma[a], sigma[b] = b, a
            if len(sigma) != 2 + 2 * len(hosts_of[u]):
                continue  # a host of both switches
            if any(
                sorted((sigma.get(nb, nb), cap) for nb, cap in adjacency[x]) != sorted(adjacency[y])
                for x, y in sigma.items()
            ):
                continue
            pairs = []
            for c, members in enumerate(classes):
                image = class_of[sigma.get(members[0], members[0])]
                if c < image:
                    pairs.append((c, image))
            if pairs:
                kept[tuple(pairs)] = None
    return list(kept)


def bisection_bandwidth_exact(topology: Topology) -> float:
    """Minimum cut capacity over all balanced host bipartitions, by branch
    and bound. Guarded by :data:`EXACT_BISECTION_MAX_HOSTS` since the
    partition count is combinatorial.

    Hosts of one twin class (equal ``(neighbour, capacity)`` lists, see
    :func:`host_twin_classes`) are interchangeable, so a partition's cut
    depends only on how many hosts of each class it puts on side A. The
    search fixes those counts one class per level, depth first, each count
    in a range that can still fill side A; with an even host count a count
    vector and its complement are the same partition, and only the
    lexicographically smaller of the two is searched.

    Symmetry cuts the leaves further. :func:`_switch_swaps` finds swaps of
    two switches, with their hosts paired, that map every link onto a link
    of equal capacity; each permutes the twin classes and so maps a count
    vector to another with the same cut. The search drops a vector as soon as
    some such permutation maps its fixed prefix to a lexicographically
    smaller one (lex-leader constraints, Crawford et al., KR 1996). After
    each count is fixed, it walks every permutation's pairs ``(a, b)`` in
    order: a pair with ``b`` not yet fixed, or with fewer hosts of ``a`` on
    side A than of ``b``, ends the walk, and a pair with more drops the count.
    The test keeps no state between levels.
    The result stays exact: every vector in an orbit of the swaps and the
    complement has the same cut, and the lexicographically smallest vector
    of the orbit meets every such constraint and the complement rule. On
    fat-tree k=4 and F10 k=4 this leaves 508 of 1,573 max-flow calls, on
    BCube(4, 1) 229 of 2,205. It does not help where no switch swap exists,
    as on Jellyfish, BCube(2, 3) and HCN, nor does it find swaps of whole
    fat-tree pods.

    Every level works on one residual network, with the fixed hosts' source
    or sink arcs open. Fixing a class only opens arcs, so a branch resumes
    its parent's flow. That flow separates the hosts fixed so far, which
    bounds the cut of every partition below the branch from below (Delling
    et al., *Math. Programming* 2015): the branch is cut once its flow
    reaches the best cut found, and at a leaf the flow is the partition's
    cut.
    """
    H = topology.num_hosts
    if H < 2:
        raise TopologyError("bisection needs at least two hosts")
    if H > EXACT_BISECTION_MAX_HOSTS:
        raise TopologyError(
            f"{H} hosts exceeds the exact guard of {EXACT_BISECTION_MAX_HOSTS}; "
            "use bisection_bandwidth_heuristic"
        )
    solver, arcs = _partition_cut_solver(topology)
    s, t = topology.num_nodes, topology.num_nodes + 1
    classes = [members for _, members in host_twin_classes(topology)]
    room = list(itertools.accumulate(len(m) for m in reversed(classes)))[::-1] + [0]
    swaps = _switch_swaps(topology, classes)
    counts = [0] * len(classes)
    best = INF

    def lex_leader(i: int) -> bool:
        # no swap maps counts[:i+1] to a lexicographically smaller vector
        for pairs in swaps:
            for a, b in pairs:
                if b > i or counts[a] < counts[b]:
                    break
                if counts[a] > counts[b]:
                    return False
        return True

    def search(i: int, left: int, tied: bool, flow: float) -> None:
        # classes[:i] are fixed, with ``left`` hosts still due on side A;
        # tied: counts[:i] equals its complement, so counts[i] may not exceed its own
        nonlocal best
        if i == len(classes):
            best = flow
            return
        members = classes[i]
        n = len(members)
        fixed = list(solver.cap)
        for c in range(max(0, left - room[i + 1]), min(n, left, n // 2 if tied else n) + 1):
            counts[i] = c
            if lex_leader(i):
                solver.cap[:] = fixed
                for j, h in enumerate(members):
                    solver.cap[arcs[h][j < c]] = INF
                total = flow + solver.max_flow(s, t, best - flow)
                if total < best:
                    search(i + 1, left - c, tied and 2 * c == n, total)

    search(0, H // 2, H % 2 == 0, 0.0)
    return best


def _fm_refine(
    weighted: list[list[tuple[int, float]]],
    is_host: list[bool],
    side: list[int],
    target: int,
    eps: float,
) -> None:
    """Fiduccia-Mattheyses passes over the node partition ``side`` (1 on
    side A, which holds exactly ``target`` hosts), in place, until a pass
    gains nothing.

    A pass moves every node at most once, always the movable node of
    highest gain (cut capacity removed by the move), and among equal gains
    the one whose gain changed last: the LIFO order that Hagen, Huang and
    Kahng (1997) found to refine best. Switches move freely; a host moves
    only while side A's host count stays within one of ``target``. Each move
    updates its unlocked neighbours' gains, and the pass then rolls back to
    its best prefix whose host count is exactly ``target``. A prefix must
    gain more than ``eps`` to count as better.
    """
    n = len(side)
    stamp = itertools.count()

    def heap_of(v: int) -> int:  # 0: switches, 1: hosts on B, 2: hosts on A
        return 1 + side[v] if is_host[v] else 0

    while True:
        count = target  # a pass starts, and rolls back to, a balanced partition
        gain = [0.0] * n
        for v in range(n):
            for nb, cap in weighted[v]:
                gain[v] += cap if side[nb] != side[v] else -cap
        heaps: list[list[tuple[float, int, int]]] = [[], [], []]  # lazy, of (-gain, -stamp, node)
        for v in range(n):
            heaps[heap_of(v)].append((-gain[v], -next(stamp), v))
        for heap in heaps:
            heapq.heapify(heap)
        locked = [False] * n
        moves: list[int] = []
        total = best = 0.0
        best_len = 0
        while True:
            movable = [heaps[0]]
            if count <= target:
                movable.append(heaps[1])
            if count >= target:
                movable.append(heaps[2])
            pick = None
            for heap in movable:
                while heap and (locked[heap[0][2]] or -heap[0][0] != gain[heap[0][2]]):
                    heapq.heappop(heap)
                if heap and (pick is None or heap[0] < pick[0]):
                    pick = heap
            if pick is None:
                break
            v = heapq.heappop(pick)[2]
            locked[v] = True
            moves.append(v)
            total += gain[v]
            side[v] ^= 1
            if is_host[v]:
                count += 1 if side[v] else -1
            for nb, cap in weighted[v]:
                if not locked[nb]:
                    gain[nb] += -2 * cap if side[nb] == side[v] else 2 * cap
                    heapq.heappush(heaps[heap_of(nb)], (-gain[nb], -next(stamp), nb))
            if count == target and total > best + eps:
                best, best_len = total, len(moves)
        for v in moves[best_len:]:
            side[v] ^= 1
        if best_len == 0:
            return


def bisection_bandwidth_heuristic(
    topology: Topology, restarts: int = 8, seed: int = 0
) -> float:
    """Smallest balanced-partition cut found by Fiduccia-Mattheyses
    refinement of whole nodes, an upper bound on the exact bisection
    bandwidth: it can only be too high, never too low.

    Each restart samples half the hosts for side A (seeded by ``seed`` and
    the restart index), puts each switch on the side that holds more of its
    host-link capacity, and refines that node partition with
    :func:`_fm_refine`, keeping side A's host count at ``H // 2``. The
    refined host partition is then evaluated once by max-flow, which places
    the switches optimally, so the value is at most the refined node cut and
    is still the cut of a real balanced host partition.
    """
    hosts = topology.hosts
    H = len(hosts)
    if H < 2:
        raise TopologyError("bisection needs at least two hosts")
    check_count("restarts", restarts)
    check_count("seed", seed, None)
    solver, arcs = _partition_cut_solver(topology)
    closed = list(solver.cap)
    n = topology.num_nodes
    weighted = [[(nb, cap) for nb, cap in topology.adjacency[v] if nb != v] for v in range(n)]
    is_host = [False] * n
    for h in hosts:
        is_host[h] = True
    best = INF
    for restart in range(restarts):
        rng = random.Random(seed * 100_003 + restart)
        side = [0] * n
        for h in rng.sample(hosts, H // 2):
            side[h] = 1
        for v in topology.switches:
            host_cap = [0.0, 0.0]
            for nb, cap in weighted[v]:
                if is_host[nb]:
                    host_cap[side[nb]] += cap
            side[v] = 1 if host_cap[1] > host_cap[0] else 0
        _fm_refine(weighted, is_host, side, H // 2, solver.tolerance)
        solver.cap[:] = closed
        for h in hosts:
            solver.cap[arcs[h][side[h]]] = INF
        value = solver.max_flow(n, n + 1, limit=best)
        if value < best:
            best = value
    return best


def _bisection(topology: Topology, restarts: int = 8, seed: int = 0) -> tuple[float, str]:
    """Bisection bandwidth and the method that found it: "exact" up to
    :data:`EXACT_BISECTION_MAX_HOSTS` hosts, "heuristic" (an upper bound)
    beyond. ``restarts`` and ``seed`` are checked on every topology, though
    only the heuristic uses them."""
    check_count("restarts", restarts)
    check_count("seed", seed, None)
    if topology.num_hosts <= EXACT_BISECTION_MAX_HOSTS:
        return bisection_bandwidth_exact(topology), "exact"
    return bisection_bandwidth_heuristic(topology, restarts=restarts, seed=seed), "heuristic"


def oversubscription_ratio(topology: Topology, bisection: float | None = None) -> float:
    """(sum of host access-link capacities / 2) / bisection bandwidth.

    1.0 means non-blocking. When ``bisection`` is not supplied, it is computed
    exactly up to :data:`EXACT_BISECTION_MAX_HOSTS` hosts and heuristically
    beyond; a supplied value must be a finite number > 0. A host link of
    infinite capacity raises :class:`TopologyError` either way, as the cut
    solver does.
    """
    if bisection is None:
        bisection, _ = _bisection(topology)
    else:
        check_number("bisection", bisection)
    if bisection == 0:
        raise TopologyError("bisection bandwidth is 0: some balanced host partition is disconnected")
    if not 0 < bisection < INF:  # NaN fails every comparison
        raise TopologyError(f"bisection must be a finite number > 0, got {bisection!r}")
    host_set = set(topology.hosts)
    access = 0.0
    for idx, (a, b, capacity, _) in enumerate(topology.links):
        for end in (a, b):
            if end in host_set:
                _check_finite(idx, a, b, capacity)
                access += capacity
    return (access / 2.0) / bisection


# ---------------------------------------------------------------------------
# Disjoint paths and failures


def surviving_host_pairs(topology: Topology, alive: list[bool]) -> tuple[int, int]:
    """Host pairs among the ``alive`` nodes that are connected, and that have
    at least two internally vertex-disjoint paths, from one depth-first
    search of the alive-induced subgraph (Hopcroft and Tarjan, CACM 1973).

    Each DFS tree is a connected component, so its alive hosts give the
    connected pairs. Discovered vertices go on a stack; when a child ``v`` of
    ``u`` finishes with ``low[v] >= disc[u]``, ``u`` and the stack down to
    ``v`` are one biconnected block. By Menger's theorem two hosts have two
    disjoint paths iff they share a block of three or more vertices, or of
    two joined by parallel links, so such a block adds all its host pairs.
    """
    adj = topology.neighbors
    n = len(adj)
    host_set = set(topology.hosts)
    disc = [0] * n
    low = [0] * n
    timer = 1
    connected = two_path = 0
    for root in range(n):
        if disc[root] or not alive[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        tree_hosts = int(root in host_set)
        stack = [root]
        work = [(root, iter(adj[root]))]
        while work:
            u, rest = work[-1]
            for w in rest:
                if not alive[w]:
                    continue
                if not disc[w]:
                    disc[w] = low[w] = timer
                    timer += 1
                    tree_hosts += w in host_set
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if disc[w] < low[u]:
                    low[u] = disc[w]
            else:
                work.pop()
                if not work:
                    continue
                v, u = u, work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                elif low[v] >= disc[u]:
                    top, block_hosts, x = len(stack), int(u in host_set), -1
                    while x != v:
                        x = stack.pop()
                        block_hosts += x in host_set
                    if top - len(stack) >= 2 or block_hosts == 2 and adj[u].count(v) > 1:
                        two_path += block_hosts * (block_hosts - 1) // 2
        connected += tree_hosts * (tree_hosts - 1) // 2
    return connected, two_path


@dataclass
class SurvivalStats:
    fail_fraction: float
    trials: int
    switches_failed: int  # per trial: floor(fail_fraction * switches)
    mean_two_path_fraction: float  # mean share of host pairs left two disjoint paths
    mean_connected_fraction: float  # mean share of host pairs left connected


def failure_experiment(
    topology: Topology, fail_fraction: float, trials: int, seed: int = 0
) -> SurvivalStats:
    """Remove floor(fail_fraction * S) uniformly random switches per trial and
    measure what fraction of host pairs keep >= 2 vertex-disjoint paths and
    what fraction stay connected. Hosts never fail.
    """
    check_number("fail_fraction", fail_fraction)
    if not 0 <= fail_fraction < 1:
        raise TopologyError("fail_fraction must be in [0, 1)")
    check_count("trials", trials)
    check_count("seed", seed, None)
    if topology.num_hosts < 2:
        raise TopologyError("failure experiment needs at least two hosts")
    switches = topology.switches
    num_fail = math.floor(fail_fraction * len(switches))
    hosts = topology.hosts
    all_pairs = len(hosts) * (len(hosts) - 1) // 2
    two_path_sum = 0.0
    connected_sum = 0.0
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        failed = set(rng.sample(switches, num_fail))
        alive = [v not in failed for v in range(topology.num_nodes)]
        connected, two_path = surviving_host_pairs(topology, alive)
        two_path_sum += two_path / all_pairs
        connected_sum += connected / all_pairs
    return SurvivalStats(
        fail_fraction=fail_fraction,
        trials=trials,
        switches_failed=num_fail,
        mean_two_path_fraction=two_path_sum / trials,
        mean_connected_fraction=connected_sum / trials,
    )


def compute_metrics(topology: Topology, restarts: int = 8, seed: int = 0) -> MetricsReport:
    """Full report; bisection is exact up to :data:`EXACT_BISECTION_MAX_HOSTS`
    hosts, heuristic beyond."""
    bisection, method = _bisection(topology, restarts, seed)
    diameter, avg_path = host_path_stats(topology)
    return MetricsReport(
        topology=topology.name(),
        hosts=topology.num_hosts,
        switches=topology.num_switches,
        host_diameter=diameter,
        avg_host_path=avg_path,
        bisection_bandwidth=bisection,
        oversubscription=oversubscription_ratio(topology, bisection),
        method=method,
    )
