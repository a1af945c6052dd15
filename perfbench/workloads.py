"""The benchmark's workloads. Each drives dcnbench's public functions from
outside and puts most of its time in a different layer:

- ``paths``: all-hosts BFS metrics and ECMP tables (``metrics``, ``routing``);
- ``bisection``: brute-force and heuristic bisection (``metrics``, max-flow);
- ``routes``: per-packet route lookups (``routing``, ``traffic``);
- ``flitsim``: the flit simulator (``flitsim``).

A workload builds its topologies and route providers in ``setup`` (timed as
``setup_s``), makes its inputs from the seed in ``inputs`` (untimed), and
lists its timed operations in ``ops``. ``summary`` gives the workload's own
end-to-end figures and ``layers`` its per-layer figures.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Any

import networkx as nx

from dcnbench import (
    build_bcube,
    build_dcell,
    build_f10,
    build_fat_tree,
    build_jellyfish,
    build_preset,
    export_edge_list,
    import_edge_list,
    validate,
)
from dcnbench.flitsim import SimConfig, run_simulation
from dcnbench.metrics import (
    avg_host_path,
    bisection_bandwidth_exact,
    bisection_bandwidth_heuristic,
    failure_experiment,
    host_diameter,
)
from dcnbench.routing import check_route, compute_ecmp_tables, f10_reroute, route_provider
from dcnbench.traffic import PatternKind, TrafficPattern, pattern_destination

import oracles
from harness import Op, Recorder, call_op
from oracles import expect, sha

PATTERNS = ("uniform", "complement", "reverse", "tornado")


def topology_digest(topology) -> str:
    return sha([
        [[n.kind.value, n.radix, list(n.address.digits)] for n in topology.nodes],
        [[l.a, l.b, l.capacity, l.latency] for l in topology.links],
    ])


def value_digest(value: Any) -> Any:
    return value


# Large topologies shared by ``paths`` and ``routes``: name -> (builder, args,
# closed-form counts). Jellyfish takes the run's seed as its last argument.
LARGE = {
    "fat_tree_k16": (build_fat_tree, (16,), oracles.fat_tree_counts(16)),
    "dcell_n4_l2": (build_dcell, (4, 2), oracles.dcell_counts(4, 2)),
    "bcube_n4_k3": (build_bcube, (4, 3), oracles.bcube_counts(4, 3)),
    "jellyfish_s200_p12_r8": (build_jellyfish, (200, 12, 8), oracles.jellyfish_counts(200, 12, 8)),
}


def build_large(rec: Recorder, seed: int) -> dict:
    out = {}
    for name, (builder, args, _) in LARGE.items():
        if builder is build_jellyfish:
            args = args + (seed,)
        out[name] = rec.timed(f"builders.{name}.build", builder, *args)
    return out


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, rec: Recorder) -> Any:
        raise NotImplementedError

    def inputs(self, state: Any) -> None:
        """Make the seeded inputs the operations need (untimed)."""

    def ops(self, state: Any) -> list[Op]:
        raise NotImplementedError

    def summary(self, rec: Recorder) -> dict:
        """The workload's own end-to-end figures, from untraced passes."""
        return {}

    def layers(self, rec: Recorder) -> dict:
        """Per-layer figures beyond the per-call timings, from traced passes."""
        return {}


# ---------------------------------------------------------------------------
# paths


class Paths(Workload):
    """One structural pass per large topology: validate, edge-list round
    trip, host diameter, average host path, ECMP tables, failure experiment."""

    name = "paths"
    SAMPLE_HOSTS = 48
    SAMPLE_DESTINATIONS = 12

    def setup(self, rec: Recorder) -> dict:
        return build_large(rec, self.seed)

    def ops(self, state: dict) -> list[Op]:
        ops = []
        for name, topology in state.items():
            ops += self._topology_ops(name, topology, LARGE[name][2])
        return ops

    def _topology_ops(self, name: str, topology, expected: dict) -> list[Op]:
        seed = self.seed
        hosts = topology.hosts
        oracle = oracles.ShortestPaths(topology)
        sampled = oracles.sample(hosts, self.SAMPLE_HOSTS, seed)
        destinations = sampled[: self.SAMPLE_DESTINATIONS]

        def check_validate(violations, fail):
            expect(not violations, "validate", "; ".join(violations[:3]))
            oracles.check_counts(topology, expected)

        def round_trip(tracer):
            key = f"graph.{name}.edge_list"
            text = tracer.wrap(key, export_edge_list)(topology)
            return tracer.wrap(key, import_edge_list)(text)

        def check_round_trip(copy, fail):
            expect(topology_digest(copy) == topology_digest(topology), "edge_list_round_trip")

        def check_diameter(value, fail):
            if "diameter" in expected:
                expect(value == expected["diameter"], "diameter_closed_form",
                       f"{value} != {expected['diameter']}")
            else:
                oracles.check_diameter_sampled(value, oracle.host_rows(sampled))

        def check_avg(value, fail):
            if "avg_path" in expected:
                expect(abs(value - expected["avg_path"]) < 1e-9, "avg_path_closed_form",
                       f"{value} != {expected['avg_path']}")
            else:
                oracles.check_avg_sampled(value, oracle.host_rows(sampled), len(hosts))

        def ecmp_digest(tables):
            return {
                "entries": sum(len(t) for t in tables),
                "next_hops": sum(len(hops) for t in tables for hops in t.values()),
                "sampled": sha([[t.get(d) for t in tables] for d in destinations]),
            }

        def check_ecmp(tables, fail):
            expect(len(tables) == topology.num_nodes, "ecmp_table_count")
            oracles.check_ecmp_columns(topology, tables, oracle, destinations)

        def check_failures(stats, fail):
            switches = topology.num_switches
            expect(stats.switches_failed == math.floor(0.1 * switches), "switches_failed")
            expect(stats.trials == 4, "trials")
            expect(
                0.0 <= stats.mean_two_path_fraction <= stats.mean_connected_fraction + 1e-12
                and stats.mean_connected_fraction <= 1.0 + 1e-12,
                "survival_fractions",
                f"{stats.mean_two_path_fraction} / {stats.mean_connected_fraction}",
            )

        return [
            call_op(f"graph.{name}.validate", validate, (topology,), len, check_validate),
            Op(f"graph.{name}.edge_list", round_trip, topology_digest, check_round_trip),
            call_op(f"metrics.{name}.host_diameter", host_diameter, (topology,),
                    value_digest, check_diameter),
            call_op(f"metrics.{name}.avg_host_path", avg_host_path, (topology,),
                    value_digest, check_avg),
            call_op(f"routing.{name}.ecmp_tables", compute_ecmp_tables, (topology,),
                    ecmp_digest, check_ecmp),
            call_op(f"metrics.{name}.failure_experiment", failure_experiment,
                    (topology, 0.1, 4, seed), dataclasses.asdict, check_failures),
        ]

    def summary(self, rec: Recorder) -> dict:
        return {"paths_s": (rec.pass_s(), "s")}

    def layers(self, rec: Recorder) -> dict:
        out = {
            f"graph.all.{call}_s": sum(rec.layer_s(f"graph.{name}.{call}") for name in LARGE)
            for call in ("validate", "edge_list")
        }
        for name in LARGE:
            for call in ("host_diameter", "avg_host_path", "failure_experiment"):
                out[f"metrics.{name}.{call}_s"] = rec.layer_s(f"metrics.{name}.{call}")
            out[f"routing.{name}.ecmp_tables_s"] = rec.layer_s(f"routing.{name}.ecmp_tables")
        return {k: (v, "s") for k, v in out.items()}


# ---------------------------------------------------------------------------
# bisection


class Bisection(Workload):
    """Brute-force bisection on the presets with at most 16 hosts; the
    heuristic on the same presets (to check it never undercuts the exact
    value) and on three larger presets and Jellyfish(50, 8, 5)."""

    name = "bisection"
    SMALL = ("fat-tree-k4", "fat-tree-k4-paper", "bcube-n4-k1", "f10-k4", "jellyfish-s10-p4-r3")
    # Full bisection of the fat-tree family is half the hosts, and of
    # BCube(n, 1) half the hosts (checked once by networkx brute force).
    KNOWN = {"fat-tree-k4": 8.0, "fat-tree-k4-paper": 4.0, "bcube-n4-k1": 8.0, "f10-k4": 8.0}
    LARGE_PRESETS = ("dcell-n4-l1", "dcell-n6-l1", "facebook-scaled")
    # The Jellyfish instance is held fixed (topology seed 0, heuristic seed
    # 0, one restart): the swap descent's run time swings by a factor of ten
    # with the start partition, and this is the instance whose loose cut
    # (75 against 27 from Kernighan-Lin) the heuristic must close.
    JELLYFISH = "jellyfish-s50-p8-r5"

    def setup(self, rec: Recorder) -> dict:
        topologies = {
            name: rec.timed(f"builders.{name}.build", build_preset, name, self.seed)
            for name in self.SMALL + self.LARGE_PRESETS
        }
        topologies[self.JELLYFISH] = rec.timed(
            f"builders.{self.JELLYFISH}.build", build_jellyfish, 50, 8, 5, 0
        )
        return topologies

    def inputs(self, state: dict) -> None:
        """The exact bisection of each small preset, known or by brute force."""
        self.exact = {
            name: self.KNOWN.get(name) or oracles.bisection_brute_force(state[name])
            for name in self.SMALL
        }

    def ops(self, state: dict) -> list[Op]:
        ops = [self._exact_op(name, state[name]) for name in self.SMALL]
        for name in self.SMALL + self.LARGE_PRESETS:
            ops.append(self._heuristic_op(name, state[name], self.seed, 8))
        ops.append(self._heuristic_op(self.JELLYFISH, state[self.JELLYFISH], 0, 1))
        return ops

    def _exact_op(self, name, topology) -> Op:
        want = self.exact[name]

        def check(value, fail):
            expect(abs(value - want) < 1e-9, "bisection_exact", f"{value} != {want}")

        return call_op(f"metrics.bisection_exact.{name}", bisection_bandwidth_exact,
                       (topology,), value_digest, check)

    def _heuristic_op(self, name, topology, seed, restarts) -> Op:
        access = oracles.host_access_capacity(topology)
        want = self.exact.get(name)

        def check(value, fail):
            if want is not None:
                expect(value >= want - 1e-9, "heuristic_below_exact", f"{value} < {want}")
            # any balanced partition is cut by at most the links of its
            # smaller side's hosts
            bound = sum(sorted(access, reverse=True)[: len(access) // 2])
            expect(0 < value <= bound + 1e-9, "heuristic_cut_range", f"{value} vs {bound}")

        return call_op(f"metrics.bisection_heuristic.{name}", bisection_bandwidth_heuristic,
                       (topology,), value_digest, check, restarts=restarts, seed=seed)

    def _cuts(self, rec: Recorder) -> dict[str, float]:
        cuts = {}
        for name in self.LARGE_PRESETS + (self.JELLYFISH,):
            value = rec.digest.get(f"metrics.bisection_heuristic.{name}")
            cuts[name] = value if isinstance(value, float) else 0.0
        return cuts

    def summary(self, rec: Recorder) -> dict:
        return {
            "bisection_s": (rec.pass_s(), "s"),
            "bisection_cut_sum": (sum(self._cuts(rec).values()), "capacity"),
        }

    def layers(self, rec: Recorder) -> dict:
        out = {"builders.presets.build_s": (
            sum(rec.layer_s(f"builders.{n}.build") for n in self.SMALL + self.LARGE_PRESETS), "s")}
        for name in self.SMALL:
            out[f"metrics.bisection_exact.{name}_s"] = (
                rec.layer_s(f"metrics.bisection_exact.{name}"), "s")
        out["metrics.bisection_heuristic.small_presets_s"] = (
            sum(rec.layer_s(f"metrics.bisection_heuristic.{n}") for n in self.SMALL), "s")
        cuts = self._cuts(rec)
        for name, cut in cuts.items():
            out[f"metrics.bisection_heuristic.{name}_s"] = (
                rec.layer_s(f"metrics.bisection_heuristic.{name}"), "s")
            out[f"metrics.bisection_heuristic.{name}.cut"] = (cut, "capacity")
        out["metrics.bisection_heuristic.cut_sum"] = (sum(cuts.values()), "capacity")
        return out


# ---------------------------------------------------------------------------
# routes


def pattern_of(kind: str) -> TrafficPattern:
    return TrafficPattern(PatternKind(kind))


class Routes(Workload):
    """Per-packet route lookups: destinations from ``pattern_destination``
    under four patterns, fed to one route provider per large topology; plus
    F10 reroutes around a failed switch."""

    name = "routes"
    # provider -> (topology, routing mode, routes are shortest paths, rounds
    # of one destination per sender). Rounds even out the per-op time across
    # providers whose lookup rates differ by 30x.
    PROVIDERS = {
        "fat_tree": ("fat_tree_k16", "fat-tree", True, 2),
        "dcell": ("dcell_n4_l2", "dcell", False, 3),
        "bcube": ("bcube_n4_k3", "bcube", True, 4),
        "ecmp": ("jellyfish_s200_p12_r8", "ecmp", True, 24),
    }
    F10_CALLS = 150

    def setup(self, rec: Recorder) -> dict:
        topologies = build_large(rec, self.seed)
        topologies["f10_k8"] = rec.timed("builders.f10_k8.build", build_f10, 8)
        providers = {
            prov: rec.timed(f"routing.{prov}.setup", route_provider, topologies[topo], mode)
            for prov, (topo, mode, _, _) in self.PROVIDERS.items()
        }
        return {"topologies": topologies, "providers": providers}

    def inputs(self, state: dict) -> None:
        """Senders per (provider, pattern), the pairs their destinations
        give, and F10 (src, dst, failed switch) triples."""
        self.senders = {}
        self.pairs = {}
        for p_index, (prov, (topo, _, _, rounds)) in enumerate(self.PROVIDERS.items()):
            hosts = state["topologies"][topo].hosts
            for k_index, kind in enumerate(PATTERNS):
                active, n, bits = oracles.active_hosts(hosts, kind)
                senders = list(range(len(active))) * rounds
                rng_seed = self.seed * 1000 + p_index * 10 + k_index
                dsts = self._destinations(pattern_of(kind), senders, n, bits, rng_seed, pattern_destination)
                self.senders[prov, kind] = (senders, n, bits, rng_seed)
                self.pairs[prov, kind] = [
                    (active[s], active[d]) for s, d in zip(senders, dsts) if d is not None and d != s
                ]
        f10 = state["topologies"]["f10_k8"]
        graph = oracles.nx_graph(f10)
        rng = random.Random(self.seed)
        hosts = f10.hosts
        pod_hosts = len(hosts) // 8
        self.triples = []
        while len(self.triples) < self.F10_CALLS:
            src, dst = rng.sample(hosts, 2)
            if src // pod_hosts == dst // pod_hosts:
                continue
            path = nx.shortest_path(graph, src, dst)
            self.triples.append((src, dst, rng.choice(path[2:-2])))

    @staticmethod
    def _destinations(pattern, senders, n, bits, rng_seed, call):
        rng = random.Random(rng_seed)
        return [call(pattern, s, n, bits=bits, rng=rng) for s in senders]

    def ops(self, state: dict) -> list[Op]:
        ops = []
        for prov, (topo, _, shortest, _) in self.PROVIDERS.items():
            topology = state["topologies"][topo]
            distances = oracles.ShortestPaths(topology) if shortest else None
            for kind in PATTERNS:
                ops.append(self._destination_op(prov, kind))
                ops.append(self._lookup_op(prov, kind, topology, state["providers"][prov], distances))
        ops.append(self._f10_op(state["topologies"]["f10_k8"]))
        return ops

    def _destination_op(self, prov: str, kind: str) -> Op:
        senders, n, bits, rng_seed = self.senders[prov, kind]
        pattern = pattern_of(kind)
        key = f"traffic.{prov}.{kind}.destinations"

        def run(tracer):
            return self._destinations(pattern, senders, n, bits, rng_seed,
                                      tracer.wrap(key, pattern_destination))

        def check(dsts, fail):
            for s, d in zip(senders, dsts):
                if kind == "uniform":
                    if d is None or not 0 <= d < n or d == s:
                        fail("uniform_destination")
                elif d != oracles.expected_destination(kind, s, n, bits):
                    fail("pattern_destination")

        return Op(key, run, sha, check, calls=len(senders))

    def _lookup_op(self, prov: str, kind: str, topology, provider, distances) -> Op:
        """Lookups of one provider under one pattern; ``distances`` is the
        networkx oracle when the provider promises shortest routes."""
        pairs = self.pairs[prov, kind]
        key = f"routing.{prov}.{kind}.lookups"
        rng_seed = self.seed * 7919 + len(pairs)
        bound = LARGE[self.PROVIDERS[prov][0]][2].get("route_bound")

        def run(tracer):
            call = tracer.wrap(key, provider)
            rng = random.Random(rng_seed)
            out = []
            append = out.append
            for src, dst in pairs:
                try:
                    append(call(src, dst, rng))
                except Exception as exc:
                    append(exc.with_traceback(None))
            return out

        def digest(routes):
            return {
                "routes": sha([type(r).__name__ if isinstance(r, Exception) else r for r in routes]),
                "links": sum(len(r) - 1 for r in routes if not isinstance(r, Exception)),
            }

        def check(routes, fail):
            for (src, dst), route in zip(pairs, routes):
                if isinstance(route, Exception):
                    fail(type(route).__name__)
                    continue
                try:
                    check_route(topology, route)
                except Exception:
                    fail("check_route")
                    continue
                if route[0] != src or route[-1] != dst:
                    fail("route_endpoints")
                elif distances is not None:
                    if len(route) - 1 != distances.host_distances(src)[dst]:
                        fail("route_not_shortest")
                elif bound is not None and len(route) - 1 > bound:
                    fail("route_length_bound")

        return Op(key, run, digest, check, calls=len(pairs))

    def _f10_op(self, topology) -> Op:
        triples = self.triples
        key = "routing.f10_reroute.calls"
        rng_seed = self.seed * 31 + 7

        def run(tracer):
            call = tracer.wrap(key, f10_reroute)
            rng = random.Random(rng_seed)
            out = []
            for src, dst, failed in triples:
                try:
                    out.append(call(topology, src, dst, failed, rng))
                except Exception as exc:
                    out.append(exc.with_traceback(None))
            return out

        def digest(routes):
            return sha([type(r).__name__ if isinstance(r, Exception) else r for r in routes])

        def check(routes, fail):
            for (src, dst, failed), route in zip(triples, routes):
                if isinstance(route, Exception):
                    fail(type(route).__name__)
                    continue
                try:
                    check_route(topology, route)
                except Exception:
                    fail("check_route")
                    continue
                if route[0] != src or route[-1] != dst:
                    fail("route_endpoints")
                elif failed in route:
                    fail("reroute_uses_failed_switch")

        return Op(key, run, digest, check, calls=len(triples))

    def _lookups(self, rec: Recorder, providers, time_of) -> tuple[int, int, float]:
        """Routes that returned and passed every check, their links, and the
        host seconds of all lookups, over the given providers."""
        ok = links = 0
        seconds = 0.0
        for prov in providers:
            for kind in PATTERNS:
                key = f"routing.{prov}.{kind}.lookups"
                ok += len(self.pairs[prov, kind]) - sum(rec.checked.get(key, {}).values())
                digest = rec.digest.get(key)
                links += digest["links"] if isinstance(digest, dict) else 0
                seconds += time_of(key)
        return ok, links, seconds

    def summary(self, rec: Recorder) -> dict:
        ok, _, seconds = self._lookups(rec, self.PROVIDERS, rec.mean_op_s)
        return {"route_lookups_per_s": (ok / seconds if seconds else 0.0, "1/s")}

    def layers(self, rec: Recorder) -> dict:
        out = {}
        for prov in self.PROVIDERS:
            ok, links, seconds = self._lookups(rec, (prov,), rec.layer_s)
            out[f"routing.{prov}.setup_s"] = (rec.layer_s(f"routing.{prov}.setup"), "s")
            out[f"routing.{prov}.lookups_per_s"] = (ok / seconds if seconds else 0.0, "1/s")
            out[f"routing.{prov}.mean_hops"] = (links / ok if ok else 0.0, "links")
        f10_s = rec.layer_s("routing.f10_reroute.calls")
        out["routing.f10_reroute.calls_per_s"] = (len(self.triples) / f10_s if f10_s else 0.0, "1/s")
        dest_s = sum(rec.layer_s(f"traffic.{p}.{k}.destinations") for p, k in self.senders)
        calls = sum(len(senders) for senders, *_ in self.senders.values())
        out["traffic.all.destinations_per_s"] = (calls / dest_s if dest_s else 0.0, "1/s")
        return out


# ---------------------------------------------------------------------------
# flitsim


class Flitsim(Workload):
    """``run_simulation`` on five presets under four patterns in two
    regimes: light (below saturation) and saturated."""

    name = "flitsim"
    PRESETS = ("fat-tree-k4", "dcell-n4-l1", "bcube-n4-k1", "jellyfish-s10-p4-r3", "facebook-scaled")
    REGIMES = {"light": (0.1, 1000), "saturated": (1.0, 1000)}  # rate, cycles
    LIGHT_LATENCY_TOLERANCE = 0.15

    def setup(self, rec: Recorder) -> dict:
        return {
            name: rec.timed(f"builders.{name}.build", build_preset, name, self.seed)
            for name in self.PRESETS
        }

    def inputs(self, state: dict) -> None:
        """Mean route length per (preset, pattern) over the pattern's pairs,
        for the zero-load latency oracle and the per-hop cost."""
        self.mean_links = {}
        for name, topology in state.items():
            provider = route_provider(topology, "auto")
            rng = random.Random(self.seed)
            for kind in PATTERNS:
                active, n, bits = oracles.active_hosts(topology.hosts, kind)
                if kind == "uniform":
                    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
                else:
                    pairs = [(s, oracles.expected_destination(kind, s, n, bits)) for s in range(n)]
                    pairs = [(s, d) for s, d in pairs if d != s]
                links = []
                for s, d in pairs:
                    route = provider(active[s], active[d], rng)
                    check_route(topology, route)
                    links.append(len(route) - 1)
                self.mean_links[name, kind] = sum(links) / len(links)

    def ops(self, state: dict) -> list[Op]:
        return [
            self._sim_op(name, state[name], regime, kind)
            for name in self.PRESETS
            for regime in self.REGIMES
            for kind in PATTERNS
        ]

    def _sim_op(self, name, topology, regime, kind) -> Op:
        rate, cycles = self.REGIMES[regime]
        config = SimConfig(injection_rate=rate, sim_cycles=cycles,
                           pattern=pattern_of(kind), seed=self.seed)
        zero_load = self.mean_links[name, kind] * (config.router_pipeline + config.link_latency)

        def digest(stats):
            fields = dataclasses.asdict(stats)
            fields["per_link_utilization"] = sha(sorted(stats.per_link_utilization.items()))
            return fields

        def check(stats, fail):
            accounted = (stats.packets_received + stats.in_flight
                         + stats.awaiting_retransmit + stats.source_queued)
            expect(stats.packets_generated == accounted, "packet_conservation",
                   f"generated {stats.packets_generated} != {accounted}")
            expect(stats.packets_received <= stats.packets_injected <= stats.packets_generated,
                   "received_injected_generated")
            measured = stats.sim_cycles - stats.warmup_cycles
            slack = 4 * math.sqrt(rate * (1 - rate) / (stats.active_hosts * measured))
            expect(stats.reception_rate <= rate + slack + 1e-12, "reception_above_offered",
                   f"{stats.reception_rate} > {rate}")
            if regime == "light":
                error = abs(stats.avg_packet_latency - zero_load) / zero_load
                expect(error <= self.LIGHT_LATENCY_TOLERANCE, "zero_load_latency",
                       f"{stats.avg_packet_latency:.2f} vs {zero_load:.2f}")

        return call_op(f"flitsim.{name}.{regime}.{kind}.run", run_simulation,
                       (topology, "auto", config), digest, check)

    def _stats(self, rec: Recorder, key: str, passed: bool):
        """The first pass's stats of a call that returned (and, when
        ``passed``, passed every check), else None."""
        stats = rec.digest.get(key)
        if not isinstance(stats, dict) or (passed and rec.failures[key]):
            return None
        return stats

    def _keys(self, name=None, regime=None):
        return [
            f"flitsim.{n}.{r}.{k}.run"
            for n in self.PRESETS if name in (None, n)
            for r in self.REGIMES if regime in (None, r)
            for k in PATTERNS
        ]

    def _rates(self, rec: Recorder, time_of) -> dict:
        """Simulated cycles and received packets of the calls that passed,
        per host second of all calls."""
        out = {}
        groups = [(f"sim_{r}_cycles_per_s", self._keys(regime=r), "sim_cycles") for r in self.REGIMES]
        groups.append(("sim_packets_per_s", self._keys(), "packets_received"))
        for name, keys, field in groups:
            seconds = sum(time_of(k) for k in keys)
            work = sum(s[field] for s in (self._stats(rec, k, True) for k in keys) if s)
            out[name] = (work / seconds if seconds else 0.0, "1/s")
        return out

    def summary(self, rec: Recorder) -> dict:
        return self._rates(rec, rec.mean_op_s)

    def layers(self, rec: Recorder) -> dict:
        rates = self._rates(rec, rec.layer_s)
        out = {
            "builders.presets.build_s": (
                sum(rec.layer_s(f"builders.{n}.build") for n in self.PRESETS), "s"),
            "flitsim.light.cycles_per_s": rates["sim_light_cycles_per_s"],
            "flitsim.saturated.cycles_per_s": rates["sim_saturated_cycles_per_s"],
            "flitsim.all.packets_per_s": rates["sim_packets_per_s"],
        }
        for name in self.PRESETS:
            for regime in self.REGIMES:
                prefix = f"flitsim.{name}.{regime}"
                keys = self._keys(name, regime)
                returned = [s for s in (self._stats(rec, k, False) for k in keys) if s]
                out[f"{prefix}.run_s"] = (sum(rec.layer_s(k) for k in keys), "s")
                for field in ("packets_received", "dropped", "retransmitted"):
                    out[f"{prefix}.{field}"] = (sum(s[field] for s in returned), "count")
                passed = [k for k in keys if self._stats(rec, k, True)]
                hops = sum(rec.digest[k]["packets_received"] * self.mean_links[name, k.split(".")[3]]
                           for k in passed)
                seconds = sum(rec.layer_s(k) for k in passed)
                out[f"{prefix}.host_us_per_packet_hop"] = (seconds * 1e6 / hops if hops else 0.0, "us")
        return out


WORKLOADS = {w.name: w for w in (Paths, Bisection, Routes, Flitsim)}
