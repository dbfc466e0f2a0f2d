"""DNN-occu: the full occupancy predictor (Section III-D, Fig. 3).

Composition: ANEE layer(s) encode node+edge features → Graphormer layers
propagate with structural attention → Set Transformer decoder pools the
node set → MLP head emits occupancy.  The head's sigmoid keeps predictions
in the physically valid (0, 1) occupancy range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import GraphFeatures, edge_feature_dim, node_feature_dim
from ..nn import Linear
from ..tensor import Module, ModuleList, Tensor
from .anee import ANEELayer
from .graphormer import GraphormerLayer
from .set_transformer import SetTransformerDecoder

__all__ = ["DNNOccuConfig", "DNNOccu"]


@dataclass(frozen=True)
class DNNOccuConfig:
    """Architecture hyperparameters.

    Paper values (Section V): 1 ANEE layer, 2 Graphormer layers, 2 Set
    Transformer decoder SABs, hidden 256.  ``hidden=64`` is a practical
    CPU-scale default that preserves the architecture.
    """

    hidden: int = 64
    anee_layers: int = 1
    graphormer_layers: int = 2
    set_decoder_sabs: int = 2
    num_heads: int = 4
    pma_seeds: int = 1

    @classmethod
    def paper(cls) -> "DNNOccuConfig":
        """The exact configuration from the paper."""
        return cls(hidden=256, anee_layers=1, graphormer_layers=2,
                   set_decoder_sabs=2, num_heads=8, pma_seeds=1)


class DNNOccu(Module):
    """GNN-based GPU occupancy predictor for computation graphs."""

    def __init__(self, config: DNNOccuConfig | None = None,
                 seed: int = 0, node_dim: int | None = None,
                 edge_dim: int | None = None):
        super().__init__()
        self.config = config or DNNOccuConfig()
        rng = np.random.default_rng(seed)
        cfg = self.config
        nd = node_dim if node_dim is not None else node_feature_dim()
        ed = edge_dim if edge_dim is not None else edge_feature_dim()

        anee = []
        n_in, e_in = nd, ed
        for _ in range(cfg.anee_layers):
            anee.append(ANEELayer(n_in, e_in, cfg.hidden, rng))
            n_in = e_in = cfg.hidden
        self.anee = ModuleList(anee)

        self.graphormer = ModuleList([
            GraphormerLayer(cfg.hidden, cfg.num_heads, 2 * cfg.hidden, rng)
            for _ in range(cfg.graphormer_layers)
        ])
        self.decoder = SetTransformerDecoder(
            cfg.hidden, cfg.num_heads, cfg.pma_seeds, cfg.set_decoder_sabs,
            rng)
        self.head_fc1 = Linear(cfg.pma_seeds * cfg.hidden, cfg.hidden, rng)
        self.head_fc2 = Linear(cfg.hidden, 1, rng)
        # Start the sigmoid near its linear region (predictions ~0.5):
        # large initial logits saturate the output and stall training.
        self.head_fc2.weight.data *= 0.1

    def forward(self, features: GraphFeatures) -> Tensor:
        """Predict occupancy for one encoded graph; returns a () Tensor."""
        h = Tensor(features.node_features)
        e = Tensor(features.edge_features)
        for layer in self.anee:
            h, e = layer(h, e, features.edge_index)

        spd = self._spd(features)
        for layer in self.graphormer:
            h = layer(h, spd)

        pooled = self.decoder(h)                      # (k, hidden)
        flat = pooled.reshape(1, pooled.shape[0] * pooled.shape[1])
        z = self.head_fc1(flat).relu()
        out = self.head_fc2(z).sigmoid()
        return out.reshape(())

    def forward_batch(self, batch) -> Tensor:
        """Vectorized forward over a collated minibatch; returns ``(B,)``.

        ``batch`` is a :class:`~repro.perf.batching.GraphBatch`.  Message
        passing runs on the packed disjoint union (edges never cross
        member graphs), attention on the padded dense view under the
        block-diagonal validity mask; predictions and gradients match a
        loop of :meth:`forward` calls within 1e-6 (see
        docs/performance.md for the equivalence argument).
        """
        h = Tensor(batch.node_features)
        e = Tensor(batch.edge_features)
        for layer in self.anee:
            h, e = layer.forward_batch(h, e, batch.edge_index,
                                       edgeless_mask=batch.edgeless_mask)

        hidden = h.shape[1]
        b, n_max = batch.node_mask.shape
        # pack -> pad: one appended zero row serves every padding slot,
        # so the gather's backward is a pure scatter-add.
        h_ext = Tensor.concat([h, Tensor(np.zeros((1, hidden)))], axis=0)
        h = h_ext[batch.pad_index].reshape(b, n_max, hidden)

        for layer in self.graphormer:
            h = layer(h, batch.spd, key_bias=batch.key_bias)

        pooled = self.decoder(h, key_bias=batch.key_bias)  # (B, k, hidden)
        flat = pooled.reshape(b, pooled.shape[1] * pooled.shape[2])
        z = self.head_fc1(flat).relu()
        out = self.head_fc2(z).sigmoid()                   # (B, 1)
        return out.reshape((b,))

    def predict(self, features: GraphFeatures) -> float:
        """Inference-only scalar prediction."""
        from ..tensor import no_grad
        with no_grad():
            return float(self.forward(features).data)

    def predict_batch(self, features_list,
                      batch_size: int | None = None) -> np.ndarray:
        """Inference-only predictions for many graphs in one forward.

        Each collated chunk runs the eager masked :meth:`forward_batch`,
        which matches a loop of :meth:`predict` calls within 1e-6.

        With ``batch_size`` set, members are size-bucketed (sorted by node
        count, chunked, results scattered back to input order) so each
        chunk pads to a near-uniform size instead of the global maximum.
        """
        # Imported lazily: core must not depend on perf at import time.
        from ..perf.batching import bucket_by_size, collate
        from ..tensor import no_grad
        feats = list(features_list)
        if not feats:
            return np.zeros(0)
        with no_grad():
            if batch_size is None:
                return np.array(self.forward_batch(collate(feats)).data)
            out = np.zeros(len(feats))
            for idx, chunk in bucket_by_size(feats, batch_size):
                out[idx] = self.forward_batch(collate(chunk)).data
            return out

    @staticmethod
    def _spd(features: GraphFeatures) -> np.ndarray:
        """Cached shortest-path-distance buckets for the graph.

        Delegates to :func:`repro.perf.batching.ensure_spd`, whose memo is
        keyed by the *content hash* of the topology — a fresh
        ``GraphFeatures`` object for an already-seen structure reuses the
        matrix instead of recomputing it per object.
        """
        # Imported lazily: core must not depend on perf at import time.
        from ..perf.batching import ensure_spd
        return ensure_spd(features)
