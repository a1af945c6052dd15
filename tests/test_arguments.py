"""Every count, seed and number parameter goes through one rule in
``graph.py`` (``check_count`` and ``check_number``), so a bad value raises
:class:`TopologyError` whose message begins with the parameter's name."""

import re

import pytest

from dcnbench.builders import (
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
from dcnbench.flitsim import SimConfig, sweep_injection
from dcnbench.graph import TopologyError
from dcnbench.metrics import (
    bisection_bandwidth_heuristic,
    compute_metrics,
    failure_experiment,
    oversubscription_ratio,
)


def _sim_config(**fields):
    SimConfig(**{"injection_rate": 0.1, "sim_cycles": 400, **fields}).check()


# (function, valid keyword arguments, parameter, minimum); the parameter is
# passed by keyword over the valid ones
COUNT_PARAMETERS = [
    (build_fat_tree, {"k": 4}, "k", 2),
    (build_fat_tree, {"k": 4}, "hosts_per_edge", 1),
    (build_f10, {"k": 4}, "k", 4),
    (build_f10, {"k": 4}, "hosts_per_edge", 1),
    (build_facebook_fabric, {"edge_switches": 4, "agg_switches": 2}, "edge_switches", 1),
    (build_facebook_fabric, {"edge_switches": 4, "agg_switches": 2}, "agg_switches", 1),
    (build_facebook_fabric, {"edge_switches": 4, "agg_switches": 2}, "hosts_per_edge", 0),
    (build_facebook_fabric, {"edge_switches": 4, "agg_switches": 2}, "planes", 1),
    (build_dcell, {"n": 4, "level": 1}, "n", 2),
    (build_dcell, {"n": 4, "level": 1}, "level", 0),
    (dcell_host_count, {"n": 4, "level": 1}, "n", 2),
    (dcell_host_count, {"n": 4, "level": 1}, "level", 0),
    (build_bcube, {"n": 4, "k": 1}, "n", 2),
    (build_bcube, {"n": 4, "k": 1}, "k", 0),
    (build_mdcube, {"rows": 2, "cols": 2, "n": 2, "k": 1}, "rows", 1),
    (build_mdcube, {"rows": 2, "cols": 2, "n": 2, "k": 1}, "cols", 1),
    (build_mdcube, {"rows": 2, "cols": 2, "n": 2, "k": 1}, "n", 2),
    (build_mdcube, {"rows": 2, "cols": 2, "n": 2, "k": 1}, "k", 0),
    (build_jellyfish, {"num_switches": 10, "ports": 4, "r": 3}, "num_switches", 2),
    (build_jellyfish, {"num_switches": 10, "ports": 4, "r": 3}, "ports", 2),
    (build_jellyfish, {"num_switches": 10, "ports": 4, "r": 3}, "r", 1),
    (build_scafida, {"num_switches": 4, "num_hosts": 4, "max_degree": 4}, "num_switches", 1),
    (build_scafida, {"num_switches": 4, "num_hosts": 4, "max_degree": 4}, "num_hosts", 0),
    (build_scafida, {"num_switches": 4, "num_hosts": 4, "max_degree": 4}, "max_degree", 2),
    (build_scafida, {"num_switches": 4, "num_hosts": 4, "max_degree": 4}, "switch_links", 1),
    (build_scafida, {"num_switches": 4, "num_hosts": 4, "max_degree": 4}, "host_links", 1),
    (build_hcn, {"n": 4, "h": 1}, "n", 2),
    (build_hcn, {"n": 4, "h": 1}, "h", 0),
    (build_bcn, {"alpha": 2, "beta": 2, "h": 1}, "alpha", 1),
    (build_bcn, {"alpha": 2, "beta": 2, "h": 1}, "beta", 0),
    (build_bcn, {"alpha": 2, "beta": 2, "h": 1}, "h", 0),
    (bisection_bandwidth_heuristic, {"topology": build_fat_tree(4)}, "restarts", 1),
    (compute_metrics, {"topology": build_fat_tree(4)}, "restarts", 1),
    (failure_experiment, {"topology": build_fat_tree(4), "fail_fraction": 0.1}, "trials", 1),
    (_sim_config, {}, "sim_cycles", 1),
    (_sim_config, {}, "warmup_cycles", 0),
    (_sim_config, {}, "vcs_per_port", 1),
    (_sim_config, {}, "vc_depth", 1),
    (_sim_config, {}, "router_pipeline", 1),
    (_sim_config, {}, "link_latency", 1),
]


@pytest.mark.parametrize(
    "function, kwargs, name, minimum",
    COUNT_PARAMETERS,
    ids=[f"{f.__name__}-{name}" for f, _, name, _ in COUNT_PARAMETERS],
)
def test_count_parameter_is_named(function, kwargs, name, minimum):
    # "facebook fabric requires positive switch/plane counts" and "need at
    # least one switch" once named no parameter
    with pytest.raises(TopologyError, match=f"^{name} must be >= {minimum}, got {minimum - 1}$"):
        function(**{**kwargs, name: minimum - 1})
    for value in (True, 2.0):
        with pytest.raises(TopologyError, match=f"^{name} must be an integer, got {value!r}$"):
            function(**{**kwargs, name: value})


# (function, valid keyword arguments, parameter)
NUMBER_PARAMETERS = [
    (_sim_config, {}, "injection_rate"),
    (failure_experiment, {"topology": build_fat_tree(4), "trials": 1}, "fail_fraction"),
    (build_facebook_fabric, {"edge_switches": 4, "agg_switches": 2}, "host_link_capacity"),
    (build_facebook_fabric, {"edge_switches": 4, "agg_switches": 2}, "fabric_link_capacity"),
    (oversubscription_ratio, {"topology": build_fat_tree(4)}, "bisection"),
]


@pytest.mark.parametrize("value", [True, False, "0.5"])
@pytest.mark.parametrize(
    "function, kwargs, name",
    NUMBER_PARAMETERS,
    ids=[f"{f.__name__}-{name}" for f, _, name in NUMBER_PARAMETERS],
)
def test_number_parameter_must_be_a_number(function, kwargs, name, value):
    # True once ran as 1 (injection rate 1, capacity-1 links, bisection 1 so
    # oversubscription 8.0), False as fail_fraction 0, and a string raised a
    # bare TypeError from a comparison
    with pytest.raises(TopologyError, match=f"^{name} must be a number, got {re.escape(repr(value))}$"):
        function(**{**kwargs, name: value})


def _sweep(**fields):
    config = SimConfig(**{"injection_rate": 0.1, "sim_cycles": 200, **fields})
    return sweep_injection(build_fat_tree(4), "auto", [0.1], config)


# (function, valid keyword arguments); every seeded call takes ``seed``
SEED_PARAMETERS = [
    (build_jellyfish, {"num_switches": 20, "ports": 6, "r": 3}),
    (expand_jellyfish, {"topology": build_jellyfish(10, 4, 3, seed=1)}),
    (build_scafida, {"num_switches": 8, "num_hosts": 8, "max_degree": 8}),
    (build_preset, {"name": "jellyfish-s10-p4-r3"}),
    (build_preset, {"name": "fat-tree-k4"}),  # a preset that uses no seed
    (bisection_bandwidth_heuristic, {"topology": build_fat_tree(4), "restarts": 1}),
    (failure_experiment, {"topology": build_fat_tree(4), "fail_fraction": 0.1, "trials": 1}),
    (compute_metrics, {"topology": build_fat_tree(4)}),  # exact: the seed goes unused
    (_sim_config, {}),
    (_sweep, {}),
]
SEED_IDS = [f"{f.__name__}-{kwargs.get('name', '')}".rstrip("-") for f, kwargs in SEED_PARAMETERS]


@pytest.mark.parametrize("value", [None, True, 1.0, "1"])
@pytest.mark.parametrize("function, kwargs", SEED_PARAMETERS, ids=SEED_IDS)
def test_seed_must_be_an_integer(function, kwargs, value):
    # seed=None once seeded random.Random from the operating system, so two
    # build_jellyfish(20, 6, 3, seed=None) calls gave different links
    with pytest.raises(TopologyError, match=f"^seed must be an integer, got {re.escape(repr(value))}$"):
        function(**{**kwargs, "seed": value})


@pytest.mark.parametrize("function, kwargs", SEED_PARAMETERS, ids=SEED_IDS)
def test_negative_seed_is_valid(function, kwargs):
    function(**{**kwargs, "seed": -3})


@pytest.mark.parametrize("build", [
    lambda seed: build_jellyfish(20, 6, 3, seed=seed),
    lambda seed: expand_jellyfish(build_jellyfish(10, 4, 3, seed=1), seed=seed),
    lambda seed: build_scafida(8, 8, 8, seed=seed),
], ids=["build_jellyfish", "expand_jellyfish", "build_scafida"])
def test_negative_seed_builds_repeat(build):
    first, second = build(-3), build(-3)
    assert first.links == second.links
    assert first.builder_params == second.builder_params
