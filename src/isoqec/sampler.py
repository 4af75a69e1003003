"""Seeded Monte Carlo sampling of isotropic errors on S^(2d-1).

Determinism contract: every estimate is produced from counter-based
substreams keyed by (seed, spawn_key..., chunk_index), with fixed chunk
sizes and partial sums merged in ascending chunk order.  The result is
bit-identical for a given (seed, n_samples, chunk_size) regardless of how
many workers execute the chunks.

An error sample about e0 is cos(theta) e0 + sin(theta) u, with theta drawn
from the density's polar marginal and u uniform on the unit sphere
orthogonal to e0, independent of theta.  The fidelity estimators only read
the squared mass of a sample on e0 plus a fixed set of ``kept`` of the
other 2d-1 coordinates.  The squared coordinates of u are
Dirichlet(1/2, ..., 1/2), so that mass is cos^2(theta) + sin^2(theta) B
with B ~ Beta(kept/2, (2d-1-kept)/2): sample_fidelities draws one uniform
and one Beta variate per sample, whatever d is.  sample_states builds the
full 2d-vectors and stays as the independent geometric route.

An error sample about an arbitrary base state is produced by drawing the
error about the north pole e0 and transporting it with the Householder
reflection taking e0 to the base.  The reflection is orthogonal, so it
maps the isotropic law about e0 exactly onto the isotropic law about the
base; in particular distances to the base keep the distribution the
distances to e0 had.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .distributions import IsotropicDensity, PolarMarginal

_UNIT_TOL = 1e-12

DEFAULT_CHUNK_SIZE = 16384


@dataclass(frozen=True, eq=False)
class StateVector:
    """A point on S^(2d-1) as 2d real coordinates; pairs are amplitudes.

    coords[0] + i coords[1] is the amplitude along the reference state.
    """

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", coords)
        if coords.ndim != 1 or coords.size < 2 or coords.size % 2:
            raise ValueError(f"need an even number >= 2 of coordinates, "
                             f"got shape {coords.shape}")
        norm = float(np.linalg.norm(coords))
        if abs(norm - 1.0) > _UNIT_TOL:
            raise ValueError(f"state norm {norm} is not 1 within {_UNIT_TOL}")

    @property
    def d(self) -> int:
        return self.coords.size // 2

    @classmethod
    def reference(cls, d: int) -> "StateVector":
        coords = np.zeros(2 * d)
        coords[0] = 1.0
        return cls(coords)


@dataclass(frozen=True, eq=False)
class SphericalPoint:
    """Hyperspherical angles: 2d-2 polar angles in [0, pi], one azimuth."""

    angles: np.ndarray

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float)
        object.__setattr__(self, "angles", angles)
        if angles.ndim != 1 or angles.size < 1:
            raise ValueError("need a 1-d angle vector")


def to_cartesian(point: SphericalPoint) -> np.ndarray:
    a = point.angles
    sines = np.cumprod(np.sin(a))
    x = np.empty(a.size + 1)
    x[0] = math.cos(a[0])
    x[1:-1] = sines[:-1] * np.cos(a[1:])
    x[-1] = sines[-1]
    return x


def from_cartesian(x) -> SphericalPoint:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a 1-d coordinate vector of size >= 2")
    # tail[j] = norm of x[j:], built from the end for stability
    tail = np.sqrt(np.cumsum(x[::-1] ** 2)[::-1])
    angles = np.empty(x.size - 1)
    angles[:-1] = np.arctan2(tail[1:-1], x[:-2])
    angles[-1] = math.atan2(x[-1], x[-2]) % (2 * math.pi)
    return SphericalPoint(angles)


@dataclass(frozen=True)
class McEstimate:
    """Mean estimate with its standard error and provenance."""

    value: float
    std_error: float
    n_samples: int
    seed: int | None = None


@dataclass(frozen=True)
class RngStreams:
    """Counter-based substream factory: (seed, spawn_key) -> Philox streams.

    split() appends a namespace index, chunk() yields the generator for one
    chunk.  Streams for distinct keys never overlap, and a chunk's stream
    does not depend on which worker runs it.
    """

    seed: int
    spawn_key: tuple[int, ...] = ()

    def split(self, index: int) -> "RngStreams":
        return RngStreams(self.seed, self.spawn_key + (int(index),))

    def chunk(self, index: int) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed,
                                     spawn_key=self.spawn_key + (int(index),))
        return np.random.Generator(np.random.Philox(seq))


def sample_theta0(marginal: PolarMarginal, rng: np.random.Generator,
                  size: int | None = None):
    """Polar angles by inverse-CDF through the tabulated marginal."""
    u = rng.random(size)
    out = marginal.ppf(u)
    return float(out) if size is None else out


def sample_uniform_direction(dim: int, rng: np.random.Generator,
                             size: int | None = None):
    """Uniform points on S^dim in R^(dim+1); (size, dim+1) when batched."""
    if dim < 0:
        raise ValueError(f"sphere dimension must be >= 0, got {dim}")
    n = 1 if size is None else int(size)
    x = rng.standard_normal((n, dim + 1))
    norms = np.linalg.norm(x, axis=1)
    while np.any(norms == 0.0):  # measure zero, but stay total
        bad = norms == 0.0
        x[bad] = rng.standard_normal((int(bad.sum()), dim + 1))
        norms = np.linalg.norm(x, axis=1)
    x /= norms[:, None]
    return x[0] if size is None else x


def sample_states(density: IsotropicDensity, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """n error samples about e0, as an (n, 2d) array.

    Consumption order is fixed: polar uniforms first, then direction
    normals, so chunked runs are reproducible.
    """
    theta = np.asarray(sample_theta0(density.marginal, rng, n))
    dirs = sample_uniform_direction(2 * density.d - 2, rng, n)
    coords = np.empty((n, 2 * density.d))
    coords[:, 0] = np.cos(theta)
    coords[:, 1:] = np.sin(theta)[:, None] * dirs
    return coords


def sample_fidelities(density: IsotropicDensity, kept: int, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Squared mass of n error samples about e0 on e0 plus kept coordinates.

    kept counts coordinates orthogonal to e0, 1 <= kept <= 2d-1; the
    result has the law of (x[:, :kept + 1] ** 2).sum(axis=1) over rows x
    of sample_states.  Each value is cos^2(theta) + sin^2(theta) B with
    B ~ Beta(kept/2, (2d-1-kept)/2), computed as 1 - sin^2(theta) (1 - B).
    Consumption order is fixed: polar uniforms first, then Beta variates;
    at kept = 2d-1 every coordinate is kept, B = 1 and no Beta is drawn.
    """
    if not 1 <= kept <= 2 * density.d - 1:
        raise ValueError(f"kept must lie in [1, {2 * density.d - 1}] at "
                         f"d={density.d}, got {kept}")
    rest = 2 * density.d - 1 - kept
    theta = np.asarray(sample_theta0(density.marginal, rng, n))
    b = rng.beta(kept / 2, rest / 2, n) if rest else 1.0
    return 1.0 - np.sin(theta) ** 2 * (1.0 - b)


def sample_state(density: IsotropicDensity,
                 rng: np.random.Generator) -> StateVector:
    """One error sample about the reference state e0."""
    return StateVector(sample_states(density, 1, rng)[0])


def compose_errors(bases: np.ndarray, density: IsotropicDensity,
                   rng: np.random.Generator) -> np.ndarray:
    """Apply one isotropic error about each row of bases, batched.

    Draws about e0 and reflects e0 onto each base; for a base equal to e0
    the transport is the identity.
    """
    bases = np.asarray(bases, dtype=float)
    n = bases.shape[0]
    if bases.shape != (n, 2 * density.d):
        raise ValueError(f"bases shape {bases.shape} does not match "
                         f"half-dimension {density.d}")
    fresh = sample_states(density, n, rng)
    w = bases.copy()
    w[:, 0] -= 1.0
    wsq = np.einsum("ij,ij->i", w, w)
    safe = wsq > 1e-28
    coef = np.zeros(n)
    np.divide(2.0 * np.einsum("ij,ij->i", w, fresh), wsq, out=coef,
              where=safe)
    return fresh - coef[:, None] * w


def compose_error(base: StateVector, density: IsotropicDensity,
                  rng: np.random.Generator) -> StateVector:
    """One isotropic error applied about an arbitrary base state."""
    if base.d != density.d:
        raise ValueError(f"base lives at half-dimension {base.d}, "
                         f"density at {density.d}")
    out = compose_errors(base.coords[None, :], density, rng)[0]
    # the reflection is orthogonal; renormalize the last-ulp drift only
    out /= np.linalg.norm(out)
    return StateVector(out)


def _coords_matrix(samples) -> np.ndarray:
    if isinstance(samples, np.ndarray):
        mat = np.asarray(samples, dtype=float)
        if mat.ndim == 1:
            mat = mat[None, :]
    else:
        mat = np.stack([s.coords if isinstance(s, StateVector) else
                        np.asarray(s, dtype=float) for s in samples])
    if mat.ndim != 2 or mat.shape[1] % 2:
        raise ValueError(f"need (n, 2d) samples, got shape {mat.shape}")
    return mat


def _mean_with_se(values: np.ndarray, seed=None) -> McEstimate:
    n = values.size
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(mean, se, n, seed)


def empirical_variance(samples, seed=None) -> McEstimate:
    """Estimate E[2 - 2 x0] from samples (StateVectors or an (n, 2d) array)."""
    mat = _coords_matrix(samples)
    return _mean_with_se(2.0 - 2.0 * mat[:, 0], seed)


def empirical_fidelity(samples, seed=None) -> McEstimate:
    """Estimate the squared fidelity E[x0^2 + x1^2] against e0."""
    mat = _coords_matrix(samples)
    return _mean_with_se(mat[:, 0] ** 2 + mat[:, 1] ** 2, seed)


def mc_mean(value_fn: Callable[[np.random.Generator, int], np.ndarray],
            n_samples: int, streams: RngStreams,
            chunk_size: int = DEFAULT_CHUNK_SIZE,
            workers: int = 1) -> McEstimate:
    """Deterministic chunked mean of value_fn(rng, count) samples.

    Chunk i draws from streams.chunk(i); per-chunk partial sums are merged
    in ascending chunk order, so the estimate depends only on (seed,
    n_samples, chunk_size), never on scheduling.
    """
    if n_samples < 1:
        raise ValueError(f"need n_samples >= 1, got {n_samples}")
    if chunk_size < 1:
        raise ValueError(f"need chunk_size >= 1, got {chunk_size}")
    sizes = [min(chunk_size, n_samples - i * chunk_size)
             for i in range((n_samples + chunk_size - 1) // chunk_size)]

    def run_chunk(i: int):
        values = np.asarray(value_fn(streams.chunk(i), sizes[i]), dtype=float)
        if values.shape != (sizes[i],):
            raise ValueError(f"value_fn returned shape {values.shape}, "
                             f"expected ({sizes[i]},)")
        return float(values.sum()), float(np.square(values).sum())

    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run_chunk, range(len(sizes))))
    else:
        partials = [run_chunk(i) for i in range(len(sizes))]

    total = 0.0
    total_sq = 0.0
    for s, ss in partials:  # ascending chunk order, fixed reduction order
        total += s
        total_sq += ss
    mean = total / n_samples
    if n_samples > 1:
        var = max(total_sq - n_samples * mean * mean, 0.0) / (n_samples - 1)
        se = math.sqrt(var / n_samples)
    else:
        se = 0.0
    return McEstimate(mean, se, n_samples, streams.seed)


def dump_samples(path, samples: np.ndarray, density: IsotropicDensity,
                 seed: int | None) -> Path:
    """Write raw samples as little-endian float64 rows plus a JSON sidecar."""
    path = Path(path)
    mat = _coords_matrix(samples)
    path.write_bytes(mat.astype("<f8").tobytes(order="C"))
    meta = {
        "d": mat.shape[1] // 2,
        "n_samples": int(mat.shape[0]),
        "seed": seed,
        "density": density.descriptor(),
        "dtype": "<f8",
        "order": "C",
    }
    sidecar = path.with_name(path.name + ".json")
    sidecar.write_text(json.dumps(meta, indent=2) + "\n")
    return sidecar


def load_samples(path) -> tuple[np.ndarray, dict]:
    """Read a dump_samples file back into an (n, 2d) array plus metadata."""
    path = Path(path)
    sidecar = path.with_name(path.name + ".json")
    meta = json.loads(sidecar.read_text())
    raw = np.frombuffer(path.read_bytes(), dtype="<f8")
    mat = raw.reshape(meta["n_samples"], 2 * meta["d"]).astype(float)
    return mat, meta
