"""Seeded sampling of Haar-distributed unitaries with independent substreams.

A unitary is the Q factor of a complex Ginibre matrix Z = QR whose R has a
positive real diagonal; that Q is Haar distributed (Mezzadri, Notices AMS 54,
592 (2007)).  It is also what Gram-Schmidt makes of the columns of Z, so it is
computed here by Gram-Schmidt vectorised over the batch, with no
factorisation per matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Used when no --seed is given; protocol runs are reproducible by default.
DEFAULT_SEED = 20240917


@dataclass(frozen=True)
class RngStream:
    """One reproducible random substream, keyed by (master_seed, stream_index).

    Distinct keys give statistically independent streams (SeedSequence spawn
    keys), so parallel outer-loop workers never share generator state.
    """

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_index,))
        return np.random.default_rng(ss)


def sample_haar_batch(
    d: int, count: int, stream: RngStream | np.random.Generator
) -> np.ndarray:
    """``count`` independent Haar unitaries as a stacked (count, d, d) array.

    Z is drawn as ``standard_normal(size=(count, d, d))`` for the real part,
    then the same for the imaginary part.  Column k of Q is column k of Z
    after two classical Gram-Schmidt passes (CGS2) against columns 0..k-1,
    divided by its real norm; the second pass restores the orthogonality that
    cancellation costs the first.  Q does not depend on the scale of Z, so
    the draws are used unscaled.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    rng = stream.generator() if isinstance(stream, RngStream) else stream
    # w[k, :, b] is column k of matrix b: each column is contiguous over the batch
    w = np.empty((d, d, count), dtype=complex)
    w.real = rng.standard_normal(size=(count, d, d)).T
    w.imag = rng.standard_normal(size=(count, d, d)).T
    for k in range(d):
        v = w[k]
        for _ in range(2 if k else 0):
            # <w_j, v> = conj(sum_i w_ij conj(v_i)), bit for bit
            coeff = (w[:k] * v.conj()).sum(axis=1).conj()
            v -= (w[:k] * coeff[:, None, :]).sum(axis=0)
        v /= np.sqrt((v.real**2 + v.imag**2).sum(axis=0))
    return np.ascontiguousarray(w.transpose(2, 1, 0))
