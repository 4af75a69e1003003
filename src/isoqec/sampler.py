"""Seeded Monte Carlo sampling of isotropic errors on S^(2d-1).

Determinism contract: every estimate is produced from SeedSequence-keyed
SFC64 streams, one per (seed, spawn_key..., chunk_index), with fixed chunk
sizes and per-chunk (count, mean, M2) merged in ascending chunk order.
The result is bit-identical for a given (seed, n_samples, chunk_size)
regardless of how many workers execute the chunks.  An estimate's law is
fixed by the pair of small integers (log2 d, log2 of the kept complex
amplitudes), its law key.  A sweep keys each corrected law's streams by
(seed, law key, chunk index), so every cell that needs the same law
reads the same streams.  The raw laws (kept = 1) all read one stream,
keyed (seed, 0, 0, chunk index), and one draw per chunk serves every
one of them: their estimates are correlated with each other, never
with a corrected law's.

An error sample about e0 is cos(theta) e0 + sin(theta) u, with theta drawn
from the density's polar marginal and u uniform on the unit sphere
orthogonal to e0, independent of theta: sample_states builds these full
2d-vectors for the independent geometric route in tests/oracle.py.

The fidelity estimators only read the squared mass of a sample on e0 plus
a fixed set of ``kept`` of the other 2d-1 coordinates, and only for normal
densities.  The normal density is the Poisson kernel of the unit ball in
R^(2d) at y = sigma e0 (the PKBD of Golzy & Markatou 2020 and Sablica,
Hornik & Leydold 2023), which the samplers draw exactly as one end of a
chord: the line y + t w through a uniform direction w meets the sphere
at t = t+ > 0 and t = -t- < 0, with t+ t- = 1 - sigma^2.  The forward
end x alone has density (1 - sigma x0) / (|S^(2d-1)| |x - y|^(2d)), and
keeping it with probability t- / (t+ + t-) multiplies that by
(1 - sigma^2) / (1 - sigma x0), which is the kernel: no rejection step.
The mass needs only three numbers per sample: |w0|, the mass P of w on
e0 plus the kept coordinates, and the coin's V' = 2U - 1.  For the raw
mass (kept = 1) P is Beta(1, d - 1), drawn by inversion from one
exponential (Devroye, Non-Uniform Random Variate Generation, 1986), and
the direction in the (e0, e1) plane from one uniform, so a sample costs
three variates whatever d is; other kept counts draw four.  No polar
table is built.  sigma enters only the arithmetic after the draw, so
one draw serves a whole sigma grid: each row of the output is an exact,
unbiased sample of the normal density at its sigma, and the rows are
correlated.  For the raw mass d enters only through P = -expm1(E /
(1 - d)), so raw_sampler takes several (d, sigmas) laws and one draw of
(E, V, U) serves them all, as common random numbers; fidelity_sampler
takes one corrected law (d, kept, sigmas).

Threads: mc_means runs the chunks of several estimates (jobs) on one set
of worker threads, the calling thread among them.  Workers take chunks
greedily from one shared index in (job, chunk) order, and each job's
partials are folded as they arrive, in ascending chunk order, so an
estimate never depends on which thread ran which chunk or on the other
jobs.  A sweep makes one such call for all of its estimates.  Every
numpy call releases the interpreter lock and takes it back, and with two
threads running that handoff costs about as much as a short pass: on a
shared 2-core x86_64 machine a multiply of 16384 floats took 12 to 18 us
per call on each of two threads against 7 to 10 on one, while a sqrt,
three times as long, stayed near 22 us, and two processes slowed each
other little.  So the kernel and the centring make one pass per block
of up to SIGMA_BLOCK sigma rows, not one per row.

Memory: the chunk kernel allocates nothing in steady state and takes no
page faults per chunk.  Its buffers live in a Scratch, one set of named
arrays.  Each mc_means worker makes one when it starts and hands it to
every chunk of every job it runs, so no Scratch is shared between
threads and a sampler holds no buffer.  A sampler's value_fn yields its
rows a block of at most SIGMA_BLOCK rows of one d at a time, and
mc_means centres and reduces each block in place before the sampler
computes the next in the same buffer, so no chunk array has a row per
sigma.  The samplers' arrays of chunk_size floats are eight
named work arrays (E, the cosine form, V'|V'|, P, a, which becomes
a^2, the two coefficients, and a temporary, which becomes the key;
fidelity_sampler uses six of them, E and the cosine form aside) and a
block with its temporary, each of at most SIGMA_BLOCK rows, as many as
the sampler's largest block.  A ragged last chunk uses leading slices.
Per worker that is at most (8 + 2 * SIGMA_BLOCK) * chunk_size * 8
bytes, 2 MiB at the default chunk size, however many sigmas or laws a
job has.  Beside it the fold keeps a few running floats per row of each
job and, over all jobs, fewer than 2 * workers partials of chunks that
finished ahead of an earlier chunk of their job, however many chunks
there are.  Each worker's Scratch is freed when mc_means returns, so no
sample-sized memory outlives the call.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .distributions import IsotropicDensity, PolarMarginal

DEFAULT_CHUNK_SIZE = 16384
# the chunk kernel and mc_means' centring take sigma rows in blocks of
# this many, 2**16 floats (512 KiB) at the default chunk size: one numpy
# pass per block instead of per row, while a block and its temporary
# stay in a 2 MiB L2 beside the work arrays; 8-row blocks fell out of it
# and made a 20-sigma sweep on one worker slower
SIGMA_BLOCK = 2 ** 16 // DEFAULT_CHUNK_SIZE

# the least normal float64: floors the chord-end key's denominator
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class McEstimate:
    """Mean estimate with its standard error."""

    value: float
    std_error: float


@dataclass(frozen=True)
class RngStreams:
    """Stream factory: (seed, spawn_key) -> SeedSequence-keyed SFC64 streams.

    split() appends a namespace index, chunk() yields the generator for one
    chunk.  SeedSequence hashes each distinct key into its own 256-bit
    SFC64 state, so distinct keys give streams that are independent for
    practical purposes; SFC64's 64-bit counter guarantees each stream a
    period of at least 2^64.  A chunk's stream does not depend on which
    worker runs it.
    """

    seed: int
    spawn_key: tuple[int, ...] = ()

    def split(self, index: int) -> "RngStreams":
        return RngStreams(self.seed, self.spawn_key + (int(index),))

    def chunk(self, index: int) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed,
                                     spawn_key=self.spawn_key + (int(index),))
        return np.random.Generator(np.random.SFC64(seq))


class Scratch:
    """Named float buffers that one thread reuses from chunk to chunk.

    mc_means makes one per worker thread and hands it to every chunk the
    thread runs, so no instance is shared between threads.  get returns
    the leading size floats of a named buffer, growing it first when it
    is shorter, so a ragged last chunk uses leading slices.  The samplers
    ask for the same names, so each chunk overwrites the arrays of the
    chunk its thread ran before, of any job.
    """

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, size: int) -> np.ndarray:
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            buf = self.buffers[name] = np.empty(size)
        return buf[:size]


# value_fn(rng, n, scratch) of a Monte Carlo job: yields (rows, n) blocks
# of values in scratch's arrays.  The generator type is a string, so that
# importing this module does not load numpy.random
ValueFn = Callable[["np.random.Generator", int, Scratch],
                   Iterable[np.ndarray]]


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


def _sigma_columns(sigmas: Sequence[float]) -> list[tuple[np.ndarray, ...]]:
    """Per block of up to SIGMA_BLOCK sigmas, (rows, 1) columns of
    sigma^2, sigma^4, sigma^2 (1 - sigma^2) and lam = sigma^2 /
    (1 - sigma^2), each rounded once as a float; each sigma is checked."""
    sigmas = tuple(sigmas)
    for sigma in sigmas:
        if not 0.0 <= sigma < 1.0:
            raise ValueError(f"sigma must lie in [0, 1), got {sigma}")
    columns = []
    for start in range(0, len(sigmas), SIGMA_BLOCK):
        s2 = [sigma * sigma for sigma in sigmas[start:start + SIGMA_BLOCK]]
        columns.append(tuple(np.array(values)[:, None] for values in (
            s2, [v * v for v in s2], [v * (1.0 - v) for v in s2],
            [v / (1.0 - v) for v in s2])))
    return columns


def _draw_coin(rng: np.random.Generator, sign: np.ndarray,
               t: np.ndarray) -> None:
    """U into sign as V'|V'|, V' = 2U - 1; t is a temporary."""
    rng.random(out=sign)
    sign *= 2.0
    sign -= 1.0
    np.abs(sign, out=t)
    sign *= t


def _sigma_blocks(scratch: Scratch, n: int, block_rows: int, p: np.ndarray,
                  a: np.ndarray, t: np.ndarray, sign: np.ndarray,
                  columns: list):
    """Yield the value rows of one law, a block of columns at a time.

    p holds P and a holds |w0|, which becomes a^2 here; t is a
    temporary, which becomes the key; sign is _draw_coin's.  Each
    yielded block lives in scratch, whose block buffers are sized once
    for the sampler's largest block of block_rows rows, and is
    overwritten by the next.  Sized per block, a buffer would grow while
    the caller still holds the old one's last block: a raw job of laws
    of 3, 3 and 5 rows peaked at 22 n floats, not 16, past its 18 n.
    """
    coef_a, coef_b = (scratch.get(name, n) for name in ("coef_a", "coef_b"))
    block, tmp = (scratch.get(name, block_rows * n)
                  for name in ("block", "tmp"))
    # value = P + sigma^2 coef_a + (+-) coef_b k, with
    # coef_a = (1 - P)(1 - 2 a^2) and coef_b = 2 (1 - P) a
    np.subtract(1.0, p, out=t)
    np.multiply(t, a, out=coef_b)
    coef_b *= 2.0
    a2 = np.multiply(a, a, out=a)
    np.multiply(a2, -2.0, out=coef_a)
    coef_a += 1.0
    coef_a *= t
    # key = V'|V'| / ((1 - V'^2) a^2), with V'^2 as |V'|V'||, the same
    # float; the denominator is floored at the least normal float, so
    # key stays finite and is 0 at V' = 0 (no 0/0 at a = 0, where both
    # ends agree)
    key = np.abs(sign, out=t)
    np.subtract(1.0, key, out=key)
    key *= a2
    np.maximum(key, _TINY, out=key)
    np.divide(sign, key, out=key)
    # per block of at most SIGMA_BLOCK sigma rows, nine passes:
    #   k = sqrt(sigma^4 a^2 + sigma^2 (1 - sigma^2))
    #   value = (P + sigma^2 coef_a) + copysign(coef_b k, lam - key)
    # with lam = sigma^2 / (1 - sigma^2): key <= lam keeps the forward
    # end, whose sign is +.  temp takes the sign, then P + sigma^2 coef_a
    for s2, s4, s2_rest, lam in columns:
        value = block[:len(s2) * n].reshape(len(s2), n)
        temp = tmp[:value.size].reshape(value.shape)
        np.multiply(a2, s4, out=value)
        np.add(value, s2_rest, out=value)
        np.sqrt(value, out=value)
        np.multiply(value, coef_b, out=value)
        np.subtract(lam, key, out=temp)
        np.copysign(value, temp, out=value)
        np.multiply(coef_a, s2, out=temp)
        np.add(temp, p, out=temp)
        np.add(temp, value, out=value)
        yield value


def raw_sampler(laws: Sequence[tuple[int, Sequence[float]]]) -> ValueFn:
    """The raw laws (kept = 1) at several d, all from one draw per chunk.

    laws is a sequence of (d, sigmas) pairs, d >= 2.  Returns a
    value_fn for mc_means whose rows are, law by law in order, the rows
    of the law (d, kept = 1) at each sigma, the value that
    fidelity_sampler's docstring derives from P, a and V'; it yields
    them in blocks as fidelity_sampler's does.  Each chunk draws E
    (standard exponential), V and U (uniforms) once, in that order, and
    computes the cosine form and V'|V'| once; each d then takes
    P = -expm1(E / (1 - d)), a = sqrt(P) cos(pi V / 2), 1 - V'^2 (from
    |V'|V'||, so that the chunk keeps one array for U) and its sigma
    blocks in the same operations as a sampler of that d alone, so its
    rows are bit-identical to the one-law sampler's on the same
    generator, whatever the other laws are.  The laws' rows are
    correlated.

    Since w0^2 + w1^2 is Beta(1, d - 1) and independent of the direction
    in the (e0, e1) plane, a sample costs three variates whatever d is:
    no normal, no gamma.  The cosine is taken as
    (1 - t)(1 + t) / (1 + t^2), t = tan(pi V / 4): numpy 2.4 on x86_64
    runs float64 tan as a SIMD loop and cos as a scalar one, and the
    form costs about half of cos alone.  Its absolute error is a few
    units of 2^-53, as np.cos's is; like np.cos(pi V / 2), it loses
    relative accuracy as V -> 1, about 2^-53 / (1 - V), since the
    rounded argument already errs by about 2^-53 in absolute terms.
    """
    block_rows = min(SIGMA_BLOCK, max((len(sigmas) for _, sigmas in laws),
                                      default=0))
    laws = [(d, _sigma_columns(sigmas)) for d, sigmas in laws]
    for d, _ in laws:
        if d < 2:
            raise ValueError(f"a raw law keeps e0 and one coordinate of "
                             f"2d - 1 and leaves one out, so d >= 2; "
                             f"got d={d}")

    def value_fn(rng: np.random.Generator, n: int, scratch: Scratch):
        e, cosine, sign, p, a, t = (
            scratch.get(name, n)
            for name in ("e", "cosine", "sign", "p", "a", "t"))
        rng.standard_exponential(out=e)
        # cos(pi V / 2) as (1 - t)(1 + t) / (1 + t^2), t = tan(pi V / 4)
        rng.random(out=cosine)
        np.multiply(cosine, np.pi / 4, out=cosine)
        np.tan(cosine, out=cosine)
        np.multiply(cosine, cosine, out=p)
        p += 1.0
        np.subtract(1.0, cosine, out=t)
        cosine += 1.0
        cosine *= t
        cosine /= p
        _draw_coin(rng, sign, t)
        for d, columns in laws:
            # P = -expm1(E / (1 - d)), a = sqrt(P) cos(pi V / 2)
            np.divide(e, 1 - d, out=p)
            np.expm1(p, out=p)
            np.negative(p, out=p)
            np.multiply(cosine, np.sqrt(p, out=t), out=a)
            yield from _sigma_blocks(scratch, n, block_rows, p, a, t, sign,
                                     columns)

    return value_fn


def fidelity_sampler(d: int, kept: int, sigmas: Sequence[float]
                     ) -> ValueFn:
    """Squared mass of normal errors about e0 on e0 plus kept coordinates.

    Returns value_fn(rng, n, scratch), a value function for mc_means.
    Its rows, one per sigma, hold the law of
    (x[:, :kept + 1] ** 2).sum(axis=1) over rows x of
    sample_states(IsotropicDensity.normal(sigmas[j], d), ...); every row
    is computed from the same variates, and row j is bit-identical to a
    one-sigma sampler's at sigmas[j] on the same generator.  The errors
    live on S^(2d-1), each sigma lies in [0, 1), and kept counts
    coordinates orthogonal to e0, 2 <= kept <= 2d-2, so at least one is
    left out, as in every corrected law a sweep samples; kept = 1 is
    raw_sampler's.  The arguments are checked once, here.

    Each chunk reduces its draw to P, the mass of the direction w on e0
    plus the kept coordinates, a = |w0| and V' = 2U - 1: it draws Z0
    (normal), K = 2 Gamma(kept/2), R = 2 Gamma(rest/2) and U, in that
    order, and P = (Z0^2 + K) / N and a = |Z0| / sqrt(N) with
    N = (Z0^2 + K) + R.  (raw_sampler draws P and a from E and V.)
    The chord end t from sigma e0 along w has
    t^2 = 1 - sigma^2 - 2 sigma w0 t, so its value
    (sigma + t w0)^2 + t^2 (P - w0^2) is
      P + sigma^2 (1 - P)(1 - 2 a^2) + 2 (1 - P) a (+-k),
      k = sqrt(sigma^4 a^2 + sigma^2 (1 - sigma^2)),
    with + for the forward end when w0 = a.  The forward end is kept
    with probability t- / (t+ + t-), that is iff V' <= 0 or
    key <= lam, key = V'^2 / ((1 - V'^2) a^2) and
    lam = sigma^2 / (1 - sigma^2).  The value is unchanged under
    (w0, V') -> (-w0, -V'), which swaps the ends along with the sign,
    so the sign of w0 is never needed.  key is signed as V'|V'| (so
    V' <= 0 always keeps the forward end) and its denominator is floored
    at the least normal float 2^-1022, which changes no choice: V' > 0 is
    at least 2^-52, so a floored key is above 2^900, and lam is below
    2^53 for every sigma below 1.  The value is
      value = (P + sigma^2 (1 - P)(1 - 2 a^2))
              + copysign(2 (1 - P) a k, lam - key),
    in nine passes over each block of up to SIGMA_BLOCK rows, with
    sigma^2, sigma^4, sigma^2 (1 - sigma^2) and lam as (rows, 1) columns
    rounded once, when the sampler is made: each element takes the same
    roundings in the same order as a one-sigma pass would.  It is a sum
    of terms of size at most 1, so its error is absolute, a few units of
    2^-53; at sigma = 0 it is exactly P.

    value_fn is a generator: it yields each block of rows as soon as it
    is computed, in the arrays of the scratch it is handed, and
    overwrites the block with the next.  mc_means reduces each block
    before it resumes the generator, and a worker finishes one chunk's
    blocks before it starts another chunk on the same scratch.
    """
    columns = _sigma_columns(sigmas)
    if not 2 <= kept <= 2 * d - 2:
        raise ValueError(f"kept must lie in [2, {2 * d - 2}] at d={d}, "
                         f"got {kept}")
    rest_shape = (2 * d - 1 - kept) / 2
    block_rows = min(SIGMA_BLOCK, len(sigmas))

    def value_fn(rng: np.random.Generator, n: int, scratch: Scratch):
        p, a, t, sign = (
            scratch.get(name, n) for name in ("p", "a", "t", "sign"))
        # Z0 into a, K into p, R into t; then P = (Z0^2 + K) / N and
        # a = |Z0| / sqrt(N), N = (Z0^2 + K) + R
        rng.standard_normal(out=a)
        rng.standard_gamma(kept / 2, out=p)
        p *= 2.0
        rng.standard_gamma(rest_shape, out=t)
        t *= 2.0
        p += np.multiply(a, a, out=sign)
        t += p
        p /= t
        np.abs(a, out=a)
        a /= np.sqrt(t, out=t)
        _draw_coin(rng, sign, t)
        yield from _sigma_blocks(scratch, n, block_rows, p, a, t, sign,
                                 columns)

    return value_fn


def mc_means(jobs: Sequence[tuple[ValueFn, RngStreams]], n_samples: int,
             chunk_size: int = DEFAULT_CHUNK_SIZE, workers: int = 1
             ) -> list[tuple[tuple[McEstimate, ...], float]]:
    """Chunked means of every job's value_fn rows, on one set of threads.

    A job is (value_fn, streams); value_fn(rng, count, scratch) yields
    (rows, count) float blocks, and a job's rows are its blocks' rows in
    the order yielded; mc_means reduces over the last axis.  It returns,
    per job, one estimate per row and the job's busy seconds, its chunk
    times summed over threads.  n_samples and chunk_size are positive;
    workers below 1 is refused, since no thread would take a chunk.

    Every job draws n_samples in chunks of chunk_size; chunk i of a job
    draws from its streams.chunk(i) and is reduced in two passes to its
    (count, mean, M2).  The workers threads, the calling thread among
    them, take the next (job, chunk) from one shared index, job by job,
    and fold each job's partials with Chan's formula in ascending chunk
    order as they arrive, holding only those that finish ahead of an
    earlier chunk of their job; a worker takes no new chunk while workers
    of them are held.  So a job's estimates depend only on
    (value_fn, seed, n_samples, chunk_size), never on scheduling or on
    the other jobs: each is bit-identical to a one-job call.  The value
    is the sum of the chunk sums over n_samples.

    Each block is a writable array, which mc_means overwrites: it sums
    the block's rows, then centres and squares them in place, one numpy
    call per step, before it asks value_fn for the next block, so
    value_fn may yield one reused array.  A row's sums are those of the
    row reduced alone.  Each worker makes one Scratch when it starts and
    hands it to every chunk it runs, of every job; each is freed when
    the call returns.  An exception in a chunk stops the workers taking
    new chunks, and is raised from the call once every thread has ended.
    """
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    n_chunks = -(-n_samples // chunk_size)
    n_tasks = len(jobs) * n_chunks
    # guards everything below; a worker takes no new chunk while
    # `workers` partials wait to be folded, so fewer than 2 * workers do
    ready = threading.Condition()
    next_task = held = 0
    errors: list[BaseException] = []
    # per job: the next chunk to fold, the partials that finished ahead of
    # it, busy seconds, and the merged (count, mean, m2, total)
    cursors = [0] * len(jobs)
    pending: list[dict] = [{} for _ in jobs]
    busy = [0.0] * len(jobs)
    moments: list = [None] * len(jobs)

    def run_chunk(value_fn, streams: RngStreams, i: int, scratch: Scratch):
        size = min(chunk_size, n_samples - i * chunk_size)
        sums, m2 = [], []
        for values in value_fn(streams.chunk(i), size, scratch):
            if values.ndim != 2 or values.shape[1] != size:
                raise ValueError(f"value_fn yielded shape {values.shape}, "
                                 f"expected (rows, {size})")
            # centre and square the block in place, before value_fn
            # resumes and overwrites it
            block_sums = values.sum(axis=1)
            np.subtract(values, (block_sums / size)[:, None], out=values)
            sums.extend(block_sums)
            m2.extend(np.square(values, out=values).sum(axis=1))
        return size, np.array(sums), np.array(m2)

    def fold(job: int) -> None:
        # merge the job's partials that are next in chunk order
        nonlocal held
        while cursors[job] in pending[job]:
            size, sums, chunk_m2 = pending[job].pop(cursors[job])
            cursors[job] += 1
            held -= 1
            if moments[job] is None:
                zero = np.zeros(sums.shape)
                moments[job] = (0, zero, zero, zero)
            count, mean, m2, total = moments[job]
            if sums.shape != mean.shape:
                raise ValueError(f"value_fn yielded {sums.shape[0]} rows "
                                 f"after {mean.shape[0]} in an earlier "
                                 f"chunk")
            delta = sums / size - mean
            merged = count + size
            moments[job] = (
                merged, mean + delta * (size / merged),
                m2 + chunk_m2 + delta * delta * (count * size / merged),
                total + sums)

    def work() -> None:
        nonlocal next_task, held
        scratch = Scratch()
        try:
            while True:
                with ready:
                    # a held partial waits on a chunk that a running
                    # thread holds, so this wait always ends
                    ready.wait_for(lambda: errors or held < workers)
                    task = next_task
                    next_task += 1
                if errors or task >= n_tasks:
                    return
                job, i = divmod(task, n_chunks)
                started = time.perf_counter()
                partial = run_chunk(*jobs[job], i, scratch)
                seconds = time.perf_counter() - started
                with ready:
                    busy[job] += seconds
                    pending[job][i] = partial
                    held += 1
                    fold(job)
                    ready.notify_all()
        except BaseException as exc:  # re-raised by the calling thread
            with ready:
                errors.append(exc)
                ready.notify_all()

    threads = [threading.Thread(target=work)
               for _ in range(min(workers, n_tasks) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    results = []
    for (count, mean, m2, total), seconds in zip(moments, busy):
        values = total / n_samples
        # m2 is 0 at one sample, where the standard error reads 0
        std_errors = np.sqrt(m2 / max(n_samples - 1, 1) / n_samples)
        results.append((tuple(McEstimate(float(v), float(se))
                              for v, se in zip(values, std_errors)),
                        seconds))
    return results


def mc_mean(value_fn: ValueFn, n_samples: int, streams: RngStreams,
            workers: int = 1) -> tuple[McEstimate, ...]:
    """mc_means of the one job (value_fn, streams): one estimate per row.

    Only codesim's estimators call it, and only because bench/probes.py
    wraps it there by name; everything else calls mc_means.
    """
    ((estimates, _),) = mc_means([(value_fn, streams)], n_samples,
                                 workers=workers)
    return estimates
