"""The autograd-graph reference path for ``MiniBertEncoder.encode_numpy``.

Encodes through the training graph (``MiniBertEncoder.encode``) in
``TRAINING_DTYPE`` and casts to the precision dtype at the boundary,
exactly what ``encode_numpy`` did before the fused inference engine.
The fused-kernel parity tests and the encoder throughput benchmark pin
``encode_numpy`` to it.
"""

from typing import Sequence

import numpy as np

from repro.precision import cast_matrix


def encode_graph(encoder, texts: Sequence[str], batch_size: int = 64) -> np.ndarray:
    """``encoder``'s sentence vectors of ``texts`` via the autograd graph."""
    was_training = encoder.model.training
    encoder.model.eval()
    dtype = encoder.precision.dtype
    try:
        chunks = [
            cast_matrix(encoder.encode(texts[i : i + batch_size]).numpy(), dtype)
            for i in range(0, len(texts), batch_size)
        ]
        if not chunks:
            return np.zeros((0, encoder.config.dim), dtype=dtype)
        return np.concatenate(chunks, axis=0)
    finally:
        if was_training:
            encoder.model.train()
