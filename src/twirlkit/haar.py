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
    d: int, count: int, stream: RngStream | np.random.Generator, *, out=None, work=None
) -> np.ndarray:
    """``count`` independent Haar unitaries as a stacked (count, d, d) array.

    Z is drawn as ``standard_normal(size=(count, d, d))`` for the real part,
    then the same for the imaginary part.  Column k of Q is column k of Z
    after two classical Gram-Schmidt passes (CGS2) against columns 0..k-1,
    divided by its real norm; the second pass restores the orthogonality that
    cancellation costs the first.  Q does not depend on the scale of Z, so
    the draws are used unscaled.

    By default the batch is a fresh C-contiguous array.  A caller that draws
    many batches passes ``out``, a (count, d, d) array of any strides that
    receives it, and ``work``, two flat complex arrays of at least
    ``d * d * count`` entries each, which hold the draws and every
    Gram-Schmidt temporary; the values are the same.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    rng = stream.generator() if isinstance(stream, RngStream) else stream
    n = d * d * count
    a, b = (np.empty(n, dtype=complex) for _ in range(2)) if work is None else work
    # w[k, :, c] is column k of matrix c: each column is contiguous over the batch
    w = a[:n].reshape(d, d, count)
    z = b.view(float)[:n].reshape(count, d, d)
    w.real = rng.standard_normal(out=z).T
    w.imag = rng.standard_normal(out=z).T
    # one product and the projection, each (d, count), once the draws are in w
    t, proj = b[: 2 * d * count].reshape(2, d, count)
    for k in range(d):
        v = w[k]
        for _ in range(2 if k else 0):
            # classical: every <w_j, v> is taken before v changes, and the
            # projections are summed in order of j
            for j in range(k):
                # <w_j, v> = sum_i conj(w_ij) v_i
                coeff = np.multiply(np.conjugate(w[j], out=t), v, out=t).sum(axis=0)
                np.multiply(w[j], coeff, out=t if j else proj)
                if j:
                    proj += t
            v -= proj
        v /= np.sqrt((v.real**2 + v.imag**2).sum(axis=0))
    if out is None:
        return np.ascontiguousarray(w.transpose(2, 1, 0))
    out[...] = w.transpose(2, 1, 0)
    return out
