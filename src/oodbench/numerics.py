"""Seeds, random streams and the stable numerics of the losses and scorers.

``derive_seed`` and ``rng`` are the program's one seed helper and one stream
constructor. The log-sum-exp family reads its input as a float64 array and
uses max-subtraction, so inputs with magnitude up to ~1e3 stay finite.
"""

from __future__ import annotations

import numpy as np


def derive_seed(*entropy: int) -> int:
    """One 32-bit seed drawn from ``SeedSequence(entropy)``: the config's component
    streams, gen-data's per-set streams and the trainer's substreams come from it."""
    return int(np.random.SeedSequence([int(e) for e in entropy]).generate_state(1)[0])


def rng(*entropy: int) -> np.random.Generator:
    """The random stream of ``entropy``, a PCG64 seeded with ``SeedSequence(entropy)``:
    every stream the program draws comes from here. ``rng(s)`` draws what
    ``PCG64(s)`` draws."""
    return np.random.Generator(np.random.PCG64(list(entropy)))


def logsumexp(x, axis: int | None = None, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(x))) along ``axis`` with max-subtraction for stability.

    An empty reduction or an axis out of range raises numpy's ValueError.
    """
    x = np.asarray(x, dtype=np.float64)
    m = np.maximum.reduce(x, axis=axis, keepdims=True)
    out = m + np.log(np.add.reduce(np.exp(x - m), axis=axis, keepdims=True))
    if not keepdims:
        out = out.squeeze(axis) if axis is not None else out.reshape(())
    return out


def softmax(x, axis: int = -1) -> np.ndarray:
    """Row-stable softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x, axis: int = -1) -> np.ndarray:
    """Stable log(softmax(x)) along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    return x - logsumexp(x, axis=axis, keepdims=True)
