import pytest

from dcnbench.builders import build_fat_tree, build_preset
from dcnbench.flitsim import SimConfig, run_simulation
from dcnbench.graph import TopologyError, bfs_distances, import_edge_list
from dcnbench.traffic import TrafficPattern


@pytest.mark.parametrize("rate", [0.05, 1.0])
@pytest.mark.parametrize("preset", ["fat-tree-k4", "dcell-n4-l1", "jellyfish-s10-p4-r3"])
def test_packet_conservation(preset, rate):
    stats = run_simulation(build_preset(preset), config=SimConfig(injection_rate=rate, sim_cycles=2000))
    if rate == 1.0:
        assert stats.dropped > 0  # saturated: heads are dropped and retransmitted
    accounted = (
        stats.packets_received + stats.in_flight + stats.awaiting_retransmit + stats.source_queued
    )
    assert stats.packets_generated == accounted
    assert min(stats.in_flight, stats.awaiting_retransmit, stats.source_queued) >= 0


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


def test_full_load_saturates():
    config = SimConfig(injection_rate=1.0, sim_cycles=1000, seed=1)
    stats = run_simulation(build_preset("fat-tree-k4"), config=config)
    assert stats.reception_rate == pytest.approx(0.738, abs=0.001)
    assert stats.saturated is True
