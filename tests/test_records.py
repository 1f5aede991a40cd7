"""The package's immutable records: construction, immutability, equality,
``replace``, and an import that compiles no generated source."""

import numpy as np
import pytest

from airconsensus.analysis import DisturbanceDecomposition, MonteCarloResult, RunSummary
from airconsensus.channel import TIME_INVARIANT, ChannelModel, ChannelRealization, ConstantLaw, UniformLaw, sample
from airconsensus.config import ScenarioConfig, parse_config, preset
from airconsensus.graph import WeightedDigraph, ring_graph
from airconsensus.linalg import ArcOperator, EigenPair
from airconsensus.protocol import BlockResult, ProtocolConfig
from airconsensus.records import record, replace
from support import run_child

# numpy, argparse and json are imported before the hook: only what the
# package itself compiles is counted.
AUDIT_CHILD = """
import sys
import argparse, json, numpy
generated = []
sys.addaudithook(lambda event, args: event == "compile" and args[1] == "<string>" and generated.append(args[0]))
import airconsensus.cli
print(len(generated))
"""


def test_importing_the_cli_compiles_no_generated_source():
    assert run_child(AUDIT_CHILD).stdout == "0\n"


RING4 = ring_graph(4)


def model(seed=7, topology=RING4):
    return ChannelModel(topology, UniformLaw(0.0, 10.0), TIME_INVARIANT, seed)


def run_summary(**changes):
    fields = dict(
        consensus_value=1.5, predicted_value=None, steps_to_converge=3, spread_final=0.0,
        rate_measured=None, rate_predicted=-0.5, converged=True, hull_violated=False,
    )
    return RunSummary(**{**fields, **changes})


def monte_carlo_result(**changes):
    fields = dict(
        runs=2, non_converged=0, mean_consensus=1.0, std_consensus=0.0, mean_steps=3.0,
        consensus_values=(1.0, 1.0), steps=(3, 3), seeds=(5, 6), converged=(True, True),
    )
    return MonteCarloResult(**{**fields, **changes})


def every_record():
    """One instance of each record class of the package."""
    cfg = parse_config(preset("ti-sigma02"))
    return [
        DisturbanceDecomposition(np.eye(2), np.zeros((2, 4))),
        run_summary(),
        monte_carlo_result(),
        UniformLaw(0.0, 10.0),
        ConstantLaw(1.0),
        cfg.channel,
        sample(cfg.channel, 0),
        cfg,
        cfg.topology,
        EigenPair(1.0, np.full(2, 0.5)),
        ArcOperator.from_dense(np.eye(2)),
        cfg.protocol,
        BlockResult(np.zeros((1, 2)), np.zeros(1, int), np.ones(1, bool)),
    ]


def test_every_record_class_is_covered():
    assert {type(obj) for obj in every_record()} == {
        DisturbanceDecomposition, RunSummary, MonteCarloResult, UniformLaw, ConstantLaw, ChannelModel,
        ChannelRealization, ScenarioConfig, WeightedDigraph, EigenPair, ArcOperator, ProtocolConfig, BlockResult,
    }


@pytest.mark.parametrize("obj", every_record(), ids=lambda obj: type(obj).__name__)
def test_assignment_and_deletion_raise(obj):
    for field in type(obj)._fields:
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) is before
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert "extra" not in vars(obj)


def test_fields_follow_the_class_body():
    assert ChannelModel._fields == ("topology", "law", "mode", "seed")
    assert ProtocolConfig._fields == ("variant", "mixing", "step_size")


def test_init_takes_positions_keywords_and_defaults():
    assert ProtocolConfig("classical", step_size=0.1) == ProtocolConfig(variant="classical", mixing=None, step_size=0.1)
    assert ProtocolConfig("naive").mixing is None and ProtocolConfig("naive").step_size is None
    law = UniformLaw(hi=10.0, lo=1.0)
    assert (law.lo, law.hi) == (1.0, 10.0)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((0.0,), {}, "missing required arguments: 'hi'"),
        ((), {}, "missing required arguments: 'lo', 'hi'"),
        ((0.0, 1.0), {"mid": 0.5}, "unexpected keyword argument 'mid'"),
        ((0.0, 1.0, 2.0), {}, "takes 2 positional arguments but 3 were given"),
        ((0.0,), {"lo": 1.0}, "multiple values for argument 'lo'"),
    ],
)
def test_init_rejects_missing_and_unknown_arguments(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        UniformLaw(*args, **kwargs)


def test_init_runs_post_init():
    with pytest.raises(ValueError, match="0 <= lo < hi"):
        UniformLaw(2.0, 1.0)
    assert ProtocolConfig("superposition", mixing=[0.25, 0.5]).mixing == (0.25, 0.5)


def test_repr_names_every_field():
    assert repr(UniformLaw(0.0, 10.0)) == "UniformLaw(lo=0.0, hi=10.0)"
    expected = "ProtocolConfig(variant='classical', mixing=None, step_size=0.1)"
    assert repr(ProtocolConfig("classical", step_size=0.1)) == expected


def test_replace_rebuilds_through_init():
    base = model()
    changed = replace(base, seed=3)
    assert changed.seed == 3 and changed.topology is base.topology and changed.law == base.law
    assert base.seed == 7
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        replace(base, seed=-1)
    with pytest.raises(ValueError, match="0 <= lo < hi"):
        replace(UniformLaw(0.0, 10.0), hi=0.0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'sede'"):
        replace(base, sede=3)


@pytest.mark.parametrize(
    "make, change",
    [
        (model, {"seed": 8}),
        (lambda: ProtocolConfig("superposition", mixing=[0.5, 0.25]), {"mixing": (0.5, 0.5)}),
        (lambda: UniformLaw(0.0, 10.0), {"hi": 5.0}),
        (run_summary, {"converged": False}),
        (monte_carlo_result, {"seeds": (5, 7)}),
    ],
    ids=["ChannelModel", "ProtocolConfig", "UniformLaw", "RunSummary", "MonteCarloResult"],
)
def test_value_equality_and_hashing(make, change):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    other = replace(a, **change)
    assert other != a and not other == a
    assert a != object() and a != tuple(getattr(a, field) for field in type(a)._fields)


def test_equality_needs_the_same_class():
    assert UniformLaw(1.0, 2.0) != ConstantLaw(1.0)

    @record
    class Pair:
        a: int
        b: int

    @record
    class Other:
        a: int
        b: int

    assert Pair(1, 2) == Pair(1, 2) and Pair(1, 2) != Other(1, 2)


def test_graph_keeps_identity_equality():
    g, h = ring_graph(4), ring_graph(4)
    assert g == g and g != h and hash(g) == object.__hash__(g)
    assert model(topology=g) == model(topology=g) and model(topology=g) != model(topology=h)


def test_realization_gains_stay_cached_and_read_only():
    r = sample(model(), 0)
    assert isinstance(r, ChannelRealization)
    gains = r.gains
    assert r.gains is gains and not gains.flags.writeable and not r.values.flags.writeable
    with pytest.raises(ValueError):
        gains[0, 1] = 1.0
    with pytest.raises(AttributeError):
        r.gains = np.zeros((4, 4))
    assert r.gains is gains
