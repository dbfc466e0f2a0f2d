"""Answer check: each served occupancy against a direct ``DNNOccu.predict``."""

from __future__ import annotations

import multiprocessing

from repro.core import DNNOccu
from repro.features import encode_graph
from repro.gpu import get_device

from .env import set_blas_threads

#: largest accepted |served - direct| (the serving paths promise 1e-6)
TOLERANCE = 1e-6

#: processes of the after-run check, one BLAS thread each
CHECK_PROCESSES = 2


def is_wrong(value, reference: float) -> bool:
    """A served answer is wrong when it is missing, lies outside (0, 1) or
    more than :data:`TOLERANCE` from the direct prediction."""
    return value is None or not 0.0 < value < 1.0 \
        or abs(value - reference) > TOLERANCE


class FallbackRecorder:
    """Stands in for a service's ``fallback`` chain and records its answers.

    A request whose value is one the chain gave for its graph was answered
    by a fallback tier, not by the model: :meth:`answered` tells.
    """

    def __init__(self, chain) -> None:
        self._chain = chain
        self._answers: dict[int, set[float]] = {}
        self.calls = 0

    def __call__(self, graph, *args, **kwargs):
        mean, std = self._chain(graph, *args, **kwargs)
        self._answers.setdefault(id(graph), set()).add(float(mean))
        self.calls += 1
        return mean, std

    def __getattr__(self, name):
        return getattr(self._chain, name)

    def answered(self, graph, value) -> bool:
        return value in self._answers.get(id(graph), ())


#: the check process's own model, set by its initializer
_worker: dict = {}


def _init(config, seed: int) -> None:
    set_blas_threads(1)
    _worker["model"] = DNNOccu(config, seed=seed)


def _reference(job) -> tuple[str, float]:
    key, graph, device_name = job
    return key, _worker["model"].predict(
        encode_graph(graph, get_device(device_name)))


class Checker:
    """The processes of the after-run answer check, started before the run.

    :data:`CHECK_PROCESSES` spawned processes with one BLAS thread each
    hold ``DNNOccu(config, seed=seed)``.  Spawning and importing take about
    two seconds, so they start first, overlap input generation, and wait
    idle on their pipes until the measured window has ended.
    """

    def __init__(self, config, seed: int) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._pool = ctx.Pool(CHECK_PROCESSES, initializer=_init,
                              initargs=(config, seed))
        #: the check processes, not part of the program measured
        self.pids = {p.pid for p in multiprocessing.active_children()}

    def reference_values(self, graphs: dict, device_name: str) \
            -> dict[str, float]:
        """The direct prediction of each graph on the named device, by key.

        ``graphs`` maps ``graph_key`` to its graph; each is predicted once.
        """
        jobs = [(key, graph, device_name) for key, graph in graphs.items()]
        return dict(self._pool.imap_unordered(_reference, jobs, chunksize=4))

    def close(self) -> None:
        self._pool.terminate()    # idle once every result has been read
        self._pool.join()
        # drop the pool now, so its semaphores are released before the
        # run stops the resource tracker
        self._pool = None

    def __enter__(self) -> "Checker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
