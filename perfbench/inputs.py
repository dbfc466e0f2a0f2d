"""Seeded workload inputs drawn from the whole Table II model zoo.

Every graph comes from ``data.dataset.sample_config`` + ``models.build_model``
and nothing here sorts, buckets or size-filters graphs.  The zoo is visited
in rounds, each round every model once in a seeded random order, so a run's
size mix (7 to 914 nodes) is the zoo's own mix whatever the seed; only the
order and the Table II hyperparameters change with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import sample_config
from repro.models import build_model, list_models
from repro.perf.cache import graph_key

ZOO = tuple(list_models())

#: config redraws before a model sits out one round (its Table II domain
#: is nearly exhausted by earlier unique draws)
_REDRAWS = 8


@dataclass(frozen=True)
class Item:
    """One request input: the graph plus what the checker needs."""

    model: str
    graph: object
    key: str


def unique_graphs(seed: int, device, count: int,
                  exclude=()) -> list[Item]:
    """``count`` graphs with distinct ``graph_key`` on ``device``.

    No key is in ``exclude`` either.
    """
    rng = np.random.default_rng(seed)
    seen: set[str] = set(exclude)
    items: list[Item] = []
    while len(items) < count:
        for i in rng.permutation(len(ZOO)):
            name = ZOO[int(i)]
            for _ in range(_REDRAWS):
                graph = build_model(name, sample_config(name, rng))
                key = graph_key(graph, device)
                if key not in seen:
                    seen.add(key)
                    items.append(Item(name, graph, key))
                    break
            if len(items) == count:
                break
    return items


def zipf_draws(seed: int, universe: int, count: int, s: float,
               epoch: int) -> np.ndarray:
    """``count`` indices into a universe of ``universe`` graphs.

    Each draw picks a popularity rank r with P(r) ~ r^-s.  A seeded
    permutation says which graph holds each rank; it is re-drawn every
    ``epoch`` draws (pass ``epoch >= count`` to keep one all run).  Under
    one fixed permutation the graph holding rank 1 takes about a fifth of
    the traffic, so that single pick (a 7-node LSTM or a 914-node Swin)
    sets a run's hit cost; re-drawing averages a run over many picks.
    """
    weights = np.arange(1, universe + 1, dtype=np.float64) ** -s
    # a stream of its own, apart from the graph draws of the same seed
    rng = np.random.default_rng((seed, 1))
    ranks = rng.choice(universe, size=count, p=weights / weights.sum())
    out = np.empty(count, dtype=np.intp)
    for start in range(0, count, epoch):
        out[start:start + epoch] = \
            rng.permutation(universe)[ranks[start:start + epoch]]
    return out


def default_graphs(names, device) -> list[Item]:
    """The named zoo models at their default configuration (set-up inputs)."""
    items = []
    for name in names:
        graph = build_model(name)
        items.append(Item(name, graph, graph_key(graph, device)))
    return items
