import pytest

from dcnbench.builders import PRESETS, build_fat_tree, build_preset
from dcnbench.flitsim import SimConfig, run_simulation, sweep_injection
from dcnbench.graph import TopologyError, import_edge_list
from dcnbench.traffic import TrafficPattern
from hand_topologies import bfs_distances, duplicate_host_links


@pytest.mark.parametrize("rate", [0.05, 1.0])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_packet_conservation(preset, rate):
    # in_flight, awaiting_retransmit and source_queued are read off the
    # simulator's queues at the end, so this checks the queues against the
    # count of packets generated
    topo = build_preset(preset)
    for pattern in ("uniform", "complement", "reverse", "tornado"):
        config = SimConfig(
            injection_rate=rate, sim_cycles=600, pattern=getattr(TrafficPattern, pattern)()
        )
        stats = run_simulation(topo, config=config)
        if preset == "dcell-n6-l1" and pattern in ("complement", "tornado") and rate == 1.0:
            # saturated within 600 cycles: drops both retransmitted and still waiting
            assert stats.retransmitted > 0 and stats.awaiting_retransmit > 0
        accounted = (
            stats.packets_received + stats.in_flight + stats.awaiting_retransmit
            + stats.source_queued
        )
        assert stats.packets_generated == accounted, pattern
        assert stats.retransmitted == stats.dropped - stats.awaiting_retransmit, pattern
        assert min(stats.in_flight, stats.awaiting_retransmit, stats.source_queued) >= 0, pattern
        assert 0 <= stats.dropped_at_source <= stats.dropped, pattern


# (preset, rate) -> (dropped_at_source, dropped) under complement traffic,
# 2,000 cycles, seed 1. Every fat-tree-k4 drop is at an edge host's source
# port; DCell forwards through hosts, so about half of its drops are in the
# network.
SOURCE_DROPS = [
    (("fat-tree-k4", 0.1), (0, 0)),
    (("fat-tree-k4", 1.0), (1765, 1765)),
    (("dcell-n4-l1", 0.1), (0, 0)),
    (("dcell-n4-l1", 1.0), (6440, 13616)),
]


@pytest.mark.parametrize("run, expected", SOURCE_DROPS, ids=["-".join(map(str, run)) for run, _ in SOURCE_DROPS])
def test_source_drops_split_from_network_drops(run, expected):
    preset, rate = run
    config = SimConfig(
        injection_rate=rate, sim_cycles=2000, seed=1, pattern=TrafficPattern.complement()
    )
    stats = run_simulation(build_preset(preset), config=config)
    assert (stats.dropped_at_source, stats.dropped) == expected
    assert 0 <= stats.dropped_at_source <= stats.dropped


# (preset, pattern, rate, cycles, seed, vcs_per_port, vc_depth) ->
# (packets_received, dropped, retransmitted, avg_packet_latency,
# packets_due_window,
#  packets_generated, packets_injected, dropped_at_source, in_flight,
#  awaiting_retransmit, source_queued, links with utilization, sum of
#  per-link utilization). A change that moves any of these changes what the
# simulator computes, including its VC, port and utilization bookkeeping;
# the small pools make drops and retransmits frequent.
GOLDEN = [
    (
        ("fat-tree-k4", "uniform", 0.5, 600, 1, 100, 4),
        (4131, 0, 0, 83.69202722411279, 4127,
         4803, 4769, 0, 638, 0, 34, 48, 22.538888888888888),
    ),
    (
        ("fat-tree-k4", "uniform", 1.0, 600, 1, 2, 1),
        (547, 8867, 8719, 236.12915129151293, 8241,
         9600, 1173, 8303, 106, 148, 8799, 48, 4.54074074074074),
    ),
    (
        ("dcell-n4-l1", "tornado", 0.7, 600, 2, 4, 2),
        (2093, 8713, 8563, 159.99853300733497, 7493,
         8452, 4166, 5759, 307, 150, 5902, 25, 13.52962962962963),
    ),
    (
        ("bcube-n4-k1", "complement", 1.0, 600, 3, 3, 3),
        (4896, 4144, 4032, 160.72875816993465, 8640,
         9600, 5376, 4144, 480, 112, 4112, 32, 17.925925925925917),
    ),
    (
        ("jellyfish-s10-p4-r3", "uniform", 1.0, 2000, 1, 100, 4),
        (15990, 109, 106, 238.56134431097314, 17982,
         20000, 19841, 109, 3851, 3, 156, 25, 17.834444444444443),
    ),
    (
        ("f10-k4", "reverse", 0.4, 600, 4, 2, 2),
        (1073, 5468, 5370, 177.88909599254427, 2380,
         2814, 1542, 4959, 201, 98, 1442, 44, 7.951851851851853),
    ),
    (
        ("fat-tree-k4-paper", "complement", 0.05, 600, 2, 100, 4),
        (195, 0, 0, 90.0051282051282, 195,
         236, 235, 0, 40, 0, 1, 40, 1.2722222222222228),
    ),
    (
        ("facebook-scaled", "uniform", 0.3, 400, 5, 8, 1),
        (4902, 221, 217, 60.79824561403509, 4913,
         5774, 5692, 221, 790, 4, 78, 240, 30.722222222222225),
    ),
]


@pytest.mark.parametrize("run, expected", GOLDEN, ids=["-".join(map(str, run)) for run, _ in GOLDEN])
def test_seeded_results_are_pinned(run, expected):
    preset, pattern, rate, cycles, seed, vcs, depth = run
    config = SimConfig(
        injection_rate=rate, sim_cycles=cycles, seed=seed, vcs_per_port=vcs, vc_depth=depth,
        pattern=getattr(TrafficPattern, pattern)(),
    )
    stats = run_simulation(build_preset(preset), config=config)
    util = stats.per_link_utilization
    got = (
        stats.packets_received, stats.dropped, stats.retransmitted, stats.avg_packet_latency,
        stats.packets_due_window,
        stats.packets_generated, stats.packets_injected, stats.dropped_at_source, stats.in_flight,
        stats.awaiting_retransmit, stats.source_queued, len(util), sum(util.values()),
    )
    assert got == expected


def saturated_from_output(stats):
    """The ``saturated`` flag recomputed from the other reported fields."""
    received = round(stats.reception_rate * stats.active_hosts * (stats.sim_cycles - stats.warmup_cycles))
    return received < 0.95 * stats.packets_due_window


def test_fixed_seed_gives_identical_stats():
    topo = build_preset("dcell-n4-l1")
    config = SimConfig(injection_rate=0.6, sim_cycles=1000, seed=3)
    assert run_simulation(topo, config=config) == run_simulation(topo, config=config)


def test_zero_load_latency_matches_hop_sum():
    topo = build_preset("fat-tree-k4")
    config = SimConfig(injection_rate=0.05, sim_cycles=2000)
    hosts = topo.hosts
    links = [bfs_distances(topo, h)[d] for h in hosts for d in hosts if d != h]
    per_link = config.router_pipeline + config.link_latency
    analytic = per_link * sum(links) / len(links)
    assert analytic == pytest.approx(82.0)
    stats = run_simulation(topo, config=config)
    assert stats.routing_mode == "fat-tree"  # the router "auto" resolved to
    assert stats.dropped == 0
    assert stats.avg_packet_latency == pytest.approx(analytic, rel=0.05)


def test_bit_reverse_counts_only_sending_hosts():
    # hosts 0, 6, 9 and 15 are 4-bit palindromes: bit reverse maps them to themselves
    config = SimConfig(injection_rate=0.05, sim_cycles=2000, pattern=TrafficPattern.reverse())
    stats = run_simulation(build_preset("fat-tree-k4"), config=config)
    assert stats.active_hosts == 12
    assert stats.dropped == 0
    assert stats.saturated is False


def test_pattern_with_no_sender_rejected():
    # tornado on two hosts maps each host to itself
    config = SimConfig(injection_rate=0.5, sim_cycles=100, pattern=TrafficPattern.tornado())
    with pytest.raises(TopologyError):
        run_simulation(build_fat_tree(2), config=config)


def test_hosts_need_not_be_the_first_nodes():
    # patterns map host indices; here index 0 is node 1 and node 0 is the switch
    topo = import_edge_list(
        "node 0 switch 4 -\nnode 1 host 1 -\nnode 2 host 1 -\nlink 1 0 1 10\nlink 2 0 1 10\n"
    )
    stats = run_simulation(topo, config=SimConfig(injection_rate=0.5, sim_cycles=400))
    assert stats.active_hosts == 2
    assert stats.packets_received > 0
    accounted = (
        stats.packets_received + stats.in_flight + stats.awaiting_retransmit + stats.source_queued
    )
    assert stats.packets_generated == accounted


@pytest.mark.parametrize("pattern", ["complement", "tornado", "reverse"])
def test_light_load_with_short_warmup_not_saturated(pattern):
    # the 60-cycle warmup is shorter than the 90-cycle path latency, and
    # reception (about 0.045) falls under 95% of the nominal rate
    config = SimConfig(
        injection_rate=0.05, sim_cycles=600, seed=2, pattern=getattr(TrafficPattern, pattern)()
    )
    stats = run_simulation(build_preset("fat-tree-k4-paper"), config=config)
    assert stats.dropped == 0
    assert stats.reception_rate < 0.95 * 0.05
    assert stats.saturated is False
    assert stats.saturated == saturated_from_output(stats)


def test_full_load_saturates():
    config = SimConfig(injection_rate=1.0, sim_cycles=1000, seed=1)
    stats = run_simulation(build_preset("fat-tree-k4"), config=config)
    assert stats.reception_rate == pytest.approx(0.738, abs=0.001)
    assert stats.saturated is True
    assert stats.saturated == saturated_from_output(stats)


@pytest.mark.parametrize("preset", ["dcell-n4-l1", "jellyfish-s10-p4-r3"])
def test_sweep_reception_rises_until_saturation(preset):
    rates = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    config = SimConfig(injection_rate=rates[0], sim_cycles=1000)
    curve = sweep_injection(build_preset(preset), "auto", rates, config)
    assert [rate for rate, _ in curve] == rates
    flags = [stats.saturated for _, stats in curve]
    assert not flags[0] and flags[-1]
    below = [stats.reception_rate for _, stats in curve[: flags.index(True)]]
    assert below == sorted(below)
    for _, stats in curve:
        assert stats.saturated == saturated_from_output(stats)


def test_sweep_runs_the_config_pattern():
    config = SimConfig(injection_rate=0.1, sim_cycles=200, pattern=TrafficPattern.complement())
    curve = sweep_injection(build_fat_tree(4), "auto", [0.1, 0.2], config)
    assert [stats.pattern for _, stats in curve] == ["complement", "complement"]


@pytest.mark.parametrize("rates", [[], [0.5, 0.5], [0.5, 0.2]])
def test_sweep_rejects_bad_rates(rates):
    config = SimConfig(injection_rate=0.1, sim_cycles=100)
    with pytest.raises(TopologyError):
        sweep_injection(build_fat_tree(2), "auto", rates, config)


@pytest.mark.parametrize("latency", [3, 40])
def test_link_latency_other_than_the_simulated_one_rejected(latency):
    # every channel takes config.link_latency cycles, so a per-link latency
    # that differs would be silently ignored
    topo = import_edge_list(
        f"node 0 host 1 -\nnode 1 host 1 -\nnode 2 switch 2 -\n"
        f"link 0 2 1 {latency}\nlink 1 2 1 {latency}\n"
    )
    with pytest.raises(TopologyError, match="latency"):
        run_simulation(topo, config=SimConfig(injection_rate=0.5, sim_cycles=400))
    matching = SimConfig(injection_rate=0.05, sim_cycles=400, link_latency=latency)
    stats = run_simulation(topo, config=matching)
    assert stats.avg_packet_latency == 2 * (matching.router_pipeline + latency)


@pytest.mark.parametrize("warmup", [-1000, -1, 400])
def test_warmup_outside_the_run_rejected(warmup):
    # a negative warmup would widen the measured window past the run
    config = SimConfig(injection_rate=0.1, sim_cycles=400, warmup_cycles=warmup)
    with pytest.raises(TopologyError, match="warmup"):
        run_simulation(build_fat_tree(2), config=config)


@pytest.mark.parametrize("field, value", [("router_pipeline", 0), ("router_pipeline", -1), ("link_latency", 0)])
def test_pipeline_and_link_need_a_cycle(field, value):
    # at router_pipeline=0 an injected head was due in a ready phase that had
    # already run, so no packet ever left its source
    config = SimConfig(injection_rate=0.1, sim_cycles=400, **{field: value})
    with pytest.raises(TopologyError, match=field):
        run_simulation(build_fat_tree(2), config=config)


@pytest.mark.parametrize("field, value", [
    ("sim_cycles", True), ("sim_cycles", 100.5), ("warmup_cycles", 10.0),
    ("vcs_per_port", 2.5), ("vc_depth", 2.0), ("router_pipeline", 2.5), ("link_latency", True),
])
def test_counts_must_be_integers(field, value):
    # router_pipeline=2.5 once ran and received nothing, sim_cycles=True ran
    # one cycle, and sim_cycles=100.5 raised a bare TypeError from range()
    config = SimConfig(injection_rate=0.1, **{"sim_cycles": 400, field: value})
    with pytest.raises(TopologyError, match=f"^{field} must be an integer, got {value!r}$"):
        run_simulation(build_fat_tree(2), config=config)


def test_parallel_links_rejected():
    # a channel is found by its end nodes, so the second of two parallel
    # links used to carry all their traffic and the first none
    config = SimConfig(injection_rate=1.0, sim_cycles=400)
    with pytest.raises(TopologyError, match="link 1 duplicates link 0 between nodes 0 and 4"):
        run_simulation(duplicate_host_links(), config=config)
