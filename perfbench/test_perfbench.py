"""The benchmark's own tests: seeded inputs, the answer check, the design.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import DNNOccu, DNNOccuConfig
from repro.features import encode_graph
from repro.gpu import get_device

from perfbench.answers import TOLERANCE, Checker, FallbackRecorder, is_wrong
from perfbench.env import refused_vars
from perfbench.inputs import ZOO, default_graphs, unique_graphs, zipf_draws
from perfbench.layers import LAYER_METRICS
from perfbench.workloads import (WORKLOADS, Outcome, _check, _Request,
                                 _valid_plan)

DEVICE = get_device("A100")


def _keys(seed, count=30):
    return [it.key for it in unique_graphs(seed, DEVICE, count)]


def test_same_seed_same_graph_keys():
    assert _keys(3) == _keys(3)


def test_other_seed_other_graph_keys():
    assert _keys(3) != _keys(4)


def test_graphs_are_unique_and_cover_the_zoo():
    items = unique_graphs(5, DEVICE, 2 * len(ZOO),
                          exclude={default_graphs(["lenet"], DEVICE)[0].key})
    assert len({it.key for it in items}) == len(items)
    assert sorted({it.model for it in items}) == sorted(ZOO)
    assert default_graphs(["lenet"], DEVICE)[0].key not in \
        {it.key for it in items}


def test_zipf_draws_are_seeded_and_repeat():
    a = zipf_draws(1, 128, 2000, 1.1, 32)
    assert (a == zipf_draws(1, 128, 2000, 1.1, 32)).all()
    assert not (a == zipf_draws(2, 128, 2000, 1.1, 32)).all()
    assert a.min() >= 0 and a.max() < 128
    # most draws repeat an earlier key, yet popularity drifts over epochs
    assert len(set(a.tolist())) < 0.1 * len(a)
    tops = {int(np.bincount(a[i:i + 32]).argmax())
            for i in range(0, len(a), 32)}
    assert len(tops) > 10


def test_zipf_draws_without_drift_keep_one_most_popular_graph():
    a = zipf_draws(1, 128, 2000, 1.1, 2000)
    counts = np.bincount(a, minlength=128)
    assert counts.max() > 0.15 * len(a)
    assert {int(np.bincount(a[i:i + 500]).argmax())
            for i in range(0, len(a), 500)} == {int(counts.argmax())}


@pytest.fixture(scope="module")
def served():
    model = DNNOccu(DNNOccuConfig(hidden=32, num_heads=4), seed=7)
    items = default_graphs(["lenet", "rnn"], DEVICE)
    refs = {it.key: model.predict(encode_graph(it.graph, DEVICE))
            for it in items}
    return {it.key: it.graph for it in items}, refs


def test_checker_accepts_direct_answers(served):
    _, refs = served
    assert not any(is_wrong(v, v) for v in refs.values())


@pytest.mark.parametrize("tamper", [
    lambda v: v + 10 * TOLERANCE,     # off by more than the tolerance
    lambda v: 1.0,                    # the constant fallback tier's answer
    lambda v: 0.0,                    # outside (0, 1)
    lambda v: None,                   # no answer
])
def test_checker_flags_an_injected_wrong_value(served, tamper):
    _, refs = served
    for v in refs.values():
        assert is_wrong(tamper(v), v)


def test_parallel_references_match_direct_predictions(served):
    graphs, refs = served
    with Checker(DNNOccuConfig(hidden=32, num_heads=4), 7) as checker:
        par = checker.reference_values(graphs, DEVICE.name)
    assert par.keys() == refs.keys()
    assert all(abs(par[k] - refs[k]) < 1e-12 for k in refs)


def test_run_check_counts_each_bad_answer_once():
    """A wrong answer and a fallback answer fail once each, a raise once."""
    items = default_graphs(["lenet", "rnn", "alexnet"], DEVICE)
    model = DNNOccu(DNNOccuConfig(hidden=32, num_heads=4), seed=7)
    refs = [model.predict(encode_graph(it.graph, DEVICE)) for it in items]
    chain = FallbackRecorder(lambda g, device=None: (1.0, 0.0))
    chain(items[1].graph, DEVICE)
    done = [_Request(0, 0.0, 0.0, items[0], value=refs[0]),
            _Request(1, 0.0, 0.0, items[1], value=1.0),          # fallback
            _Request(2, 0.0, 0.0, items[2], value=refs[2] + 1e-3),
            _Request(3, 0.0, 0.0, items[0], value=refs[0]),
            _Request(4, 0.0, 0.0, items[0], error="RuntimeError: boom")]
    out = Outcome(attempted=len(done), failed=1)   # the raise
    with Checker(DNNOccuConfig(hidden=32, num_heads=4), 7) as checker:
        _check(out, done, checker, DEVICE, chain)
    assert out.failed == 3
    assert out.notes["wrong_answers"] == 1


def test_fallback_recorder_attributes_its_answers():
    graph, other = (it.graph for it in default_graphs(["lenet", "rnn"],
                                                      DEVICE))
    chain = FallbackRecorder(lambda g, device=None: (0.25, 0.0))
    chain.last_tier = "constant"
    assert chain(graph, DEVICE) == (0.25, 0.0)
    assert chain.calls == 1 and chain.last_tier == "constant"
    assert chain.answered(graph, 0.25)
    assert not chain.answered(graph, 0.5)
    assert not chain.answered(other, 0.25)


def test_plan_validity():
    assert _valid_plan([[0, 2], [1]], [0.4, 0.9, 0.5])
    assert not _valid_plan([[0, 1]], [0.4, 0.9])          # over the cap
    assert not _valid_plan([[0]], [0.4, 0.9])             # 1 not placed
    assert not _valid_plan([[0], [0, 1]], [0.4, 0.5])     # 0 placed twice


def test_refused_environment():
    assert refused_vars({}) == []
    assert refused_vars({"OMP_NUM_THREADS": "1", "REPRO_NO_TRACE": "1",
                         "OPENBLAS_NUM_THREADS": ""}) == \
        ["REPRO_NO_TRACE", "OMP_NUM_THREADS"]


def test_benchmark_json_matches_the_design():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == \
        {name: (unit, better)
         for name, (unit, better, _) in LAYER_METRICS.items()}
