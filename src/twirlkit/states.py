"""Multipartite density matrices: validation and the built-in states.

Subsystem convention: subsystem 0 is the first tensor factor (slowest index),
so the flattened basis index is ``sum(i_l * stride_l)`` with
``stride_l = prod(dims[l+1:])`` -- exactly numpy's ``kron`` ordering.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
PSD_TOL = 1e-9


class StateError(ValueError):
    """Base class for density-matrix validation failures."""


class DimensionMismatchError(StateError):
    pass


class HermiticityError(StateError):
    pass


class TraceError(StateError):
    pass


class PositivityError(StateError):
    pass


@dataclass(frozen=True)
class DimsProfile:
    """Ordered local dimensions of a multipartite system: Python or numpy
    integers, each at least 2."""

    dims: tuple[int, ...]

    def __init__(self, dims: Iterable[int]):
        checked = []
        for d in dims:
            try:
                checked.append(operator.index(d))
            except TypeError:
                raise DimensionMismatchError(f"local dimension {d!r} is not an integer") from None
            if checked[-1] < 2:
                raise DimensionMismatchError(f"local dimension {d} < 2")
        object.__setattr__(self, "dims", tuple(checked))

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __getitem__(self, i):
        return self.dims[i]


@dataclass(frozen=True)
class DensityMatrix:
    """A validated state: Hermitian, unit trace, PSD within tolerances."""

    dims: DimsProfile
    entries: np.ndarray = field(repr=False)

    @property
    def total(self) -> int:
        return self.dims.total


def make_state(entries, dims: Iterable[int]) -> DensityMatrix:
    """Validate a read-only copy of a raw matrix as a density matrix on ``dims``.

    Raises a distinct error per violated invariant: dimension mismatch,
    Hermiticity (1e-12), unit trace (1e-9), positivity (smallest eigenvalue
    >= -1e-9).  Non-finite entries raise a plain ``StateError`` first, since
    no tolerance comparison can reject a NaN.
    """
    dims = DimsProfile(dims)
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] != dims.total:
        raise DimensionMismatchError(
            f"matrix size {m.shape[0]} != product of local dimensions {dims.total}"
        )
    if not np.isfinite(m).all():
        raise StateError("matrix has non-finite entries")
    herm = np.max(np.abs(m - m.conj().T))
    if herm > HERMITICITY_TOL:
        raise HermiticityError(f"Hermiticity violation {herm:.3e} > {HERMITICITY_TOL}")
    tr = m.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceError(f"trace {tr} differs from 1 by more than {TRACE_TOL}")
    lo = np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0]
    if lo < -PSD_TOL:
        raise PositivityError(f"smallest eigenvalue {lo:.3e} < -{PSD_TOL}")
    m.flags.writeable = False
    return DensityMatrix(dims=dims, entries=m)


def maximally_mixed(dims: Iterable[int]) -> DensityMatrix:
    dims = DimsProfile(dims)
    return make_state(np.eye(dims.total) / dims.total, dims)


def max_entangled_projector(d: int) -> np.ndarray:
    """Projector onto the canonical maximally entangled state of C^d x C^d."""
    psi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        psi[i * d + i] = 1.0 / math.sqrt(d)
    return np.outer(psi, psi.conj())


def werner_state(d: int, p: float) -> DensityMatrix:
    """p P_+ + (1-p)/d^2 I, with P_+ the maximally entangled projector.

    This is the family the source material calls "Werner"; much literature
    calls it the isotropic state (see README).
    """
    dims = DimsProfile((d, d))
    if not 0.0 <= p <= 1.0:
        raise StateError(f"mixing parameter p={p} outside [0, 1]")
    m = p * max_entangled_projector(d) + (1.0 - p) / d**2 * np.eye(d * d)
    return make_state(m, dims)


@dataclass(frozen=True)
class BellDiagonalSpectrum:
    """Probability 4-vector over the Bell basis."""

    lambdas: tuple[float, float, float, float]

    def __init__(self, lambdas: Iterable[float]):
        lam = tuple(float(v) for v in lambdas)
        if len(lam) != 4:
            raise StateError("a Bell-diagonal spectrum has exactly 4 entries")
        # written so that NaN fails it
        if not all(-1e-12 <= v <= 1 + 1e-12 for v in lam):
            raise StateError(f"lambdas {lam} not all in [0, 1]")
        if abs(sum(lam) - 1.0) > 1e-12:
            raise StateError(f"lambdas {lam} do not sum to 1")
        object.__setattr__(self, "lambdas", lam)


def bell_diagonal(spectrum: BellDiagonalSpectrum) -> DensityMatrix:
    """Two-qubit state diagonal in the Bell basis, as a 4x4 block matrix."""
    l1, l2, l3, l4 = spectrum.lambdas
    m = 0.5 * np.array(
        [
            [l1 + l2, 0, 0, l1 - l2],
            [0, l3 + l4, l3 - l4, 0],
            [0, l3 - l4, l3 + l4, 0],
            [l1 - l2, 0, 0, l1 + l2],
        ],
        dtype=complex,
    )
    return make_state(m, (2, 2))


def random_density(
    dims: Iterable[int], rank: int, seed: int | np.random.Generator
) -> DensityMatrix:
    """Seeded Ginibre state GG^dag / Tr(GG^dag) of the requested integer rank."""
    dims = DimsProfile(dims)
    total = dims.total
    try:
        rank = operator.index(rank)
    except TypeError:
        raise StateError(f"rank {rank!r} is not an integer") from None
    if not 1 <= rank <= total:
        raise StateError(f"rank {rank} out of range 1..{total}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.normal(size=(total, rank)) + 1j * rng.normal(size=(total, rank))
    m = g @ g.conj().T
    m /= m.trace()
    return make_state(m, dims)
