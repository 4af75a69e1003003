"""Grid sweeps, verification reports, and the two-panel summary figure.

closed_form_rows evaluates every (code, sigma) cell of a grid in closed
form, one full_report per cell; run_sweep starts from those rows and
fills in three Monte Carlo estimates per cell (raw coded state,
corrected state, accumulated unencoded state).  Rows serialize to CSV
and JSON byte-identically for a fixed seed, regardless of worker count.

verify_appendix recomputes each classical integral closed form through
adaptive quadrature; verify_theorems rechecks the ordering chain, the
variance bounds, and the nonnegativity of the composition-gap function.
The printed corrected-state upper bound is expected to fail its own
claim (see closedform); the report records that outcome as
"erratum-confirmed" and treats anything else as a failure.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import platform
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy

from . import __version__
from .closedform import (
    bound_corrected_upper,
    bound_psi0_lower,
    fidelity_corrected,
    fidelity_psi,
    fidelity_psi_normal,
    full_report,
    lemma_g,
)
# run_sweep calls neither: bench/probes.py still wraps both names here
from .codesim import corrected_fidelity_mc, raw_fidelity_mc  # noqa: F401
from .distributions import (
    CodeParams,
    IsotropicDensity,
    condition_18,
    variance_of,
)
from .mathcore import (
    adaptive_quadrature,
    poisson_kernel_integrals,
    poisson_kernel_integrands,
    sin_power_integral,
    sin_power_partial,
    sphere_surface,
)
from .sampler import (
    DEFAULT_CHUNK_SIZE,
    RngStreams,
    Scratch,
    fidelity_sampler,
    mc_means,
    raw_sampler,
)

try:
    import resource
except ImportError:  # not on every platform, e.g. Windows
    resource = None

__all__ = [
    "ConfigError",
    "SweepConfig",
    "SweepRow",
    "run_sweep",
    "closed_form_rows",
    "check_ordering",
    "write_csv",
    "write_json_report",
    "CheckResult",
    "VerificationReport",
    "verify_appendix",
    "verify_theorems",
    "emit_figure2",
    "DEFAULT_CODES",
    "DEFAULT_SIGMA_GRID",
    "FIGURE_CODES",
    "MAX_CODE_QUBITS",
]

DEFAULT_CODES = ((5, 1), (5, 4), (4, 2), (3, 1))
DEFAULT_SIGMA_GRID = tuple(round(0.05 * i, 2) for i in range(20))
FIGURE_CODES = ((5, 1), (5, 4))

# the largest code the tests cover.  The chord draw is exact at every d and
# the two-pass variance keeps the standard error right at n = 60, but the
# error shrinks like 2**(-n/2): near n = 90 at 200k samples it falls below
# the float64 spacing of the value, and a k-SE check means nothing there
MAX_CODE_QUBITS = 40

# quadrature cross-check grids: half-dimensions for the kernel and the
# partial sin-power integrals, sigmas and cap angles (both sides of pi/2)
KERNEL_D_GRID = (1, 2, 4, 8, 16, 32, 64)
KERNEL_SIGMA_GRID = (0.0, 0.5, 0.9, 0.99)
CAP_ANGLE_GRID = (0.3, math.pi / 4, math.pi / 2, 2.0, 3 * math.pi / 4, math.pi)

# a sweep chunks every estimate at DEFAULT_CHUNK_SIZE samples, at most
# 2**16 chunks each
MAX_SAMPLES = 2 ** 16 * DEFAULT_CHUNK_SIZE
# the stream of the one draw that serves every raw law: no law has the
# key (0, 0), since n > m >= 1
RAW_STREAM = (0, 0)
MAX_WORKERS = 64
# verify_appendix's bound on each closed form's relative error
APPENDIX_REL_TOL = 1e-9


class ConfigError(ValueError):
    """Invalid configuration or unusable input/output path."""


def _sigma_u(sigma_c, n: int):
    """sigma_c ** (1/n): n unencoded steps at sigma_u compose to sigma_c."""
    return sigma_c ** (1.0 / n)


def _is_int(value) -> bool:
    # bool is an int subclass, but true/false in a config is a mistake
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a code list crossed with a sigma grid."""

    code_list: tuple[tuple[int, int], ...]
    sigma_grid: tuple[float, ...]
    n_samples: int = 200_000
    seed: int = 0
    workers: int = 1
    csv_path: str | None = None
    json_path: str | None = None

    def __post_init__(self):
        # a string is iterable, but its characters are no list entries
        try:
            if isinstance(self.code_list, str):
                raise TypeError("a string is not a list of codes")
            object.__setattr__(self, "code_list",
                               tuple(tuple(c) for c in self.code_list))
        except TypeError as exc:
            raise ConfigError(f"code_list must be a list of [n, m] pairs, "
                              f"got {self.code_list!r}") from exc
        try:
            if isinstance(self.sigma_grid, str):
                raise TypeError("a string is not a list of numbers")
            sigmas = tuple(self.sigma_grid)
        except TypeError as exc:
            raise ConfigError(f"sigma_grid must be a list of numbers, "
                              f"got {self.sigma_grid!r}") from exc
        for sigma in sigmas:
            if not _is_real(sigma):
                raise ConfigError(f"sigma_grid entries must be numbers, "
                                  f"got {sigma!r}")
            # the raw value first: an int beyond float range would overflow
            # float(), and a value just below 1 may round up to 1.0 in it
            if not (0.0 <= sigma < 1.0 and float(sigma) < 1.0):
                raise ConfigError(f"sigma values must lie in [0, 1), "
                                  f"got {sigma}")
        # + 0.0 turns -0.0 into 0.0, which the CSV would print as -0
        object.__setattr__(self, "sigma_grid",
                           tuple(float(s) + 0.0 for s in sigmas))
        if not self.code_list:
            raise ConfigError("code_list must not be empty")
        for code in self.code_list:
            if len(code) != 2:
                raise ConfigError(f"code entries need two integers, got {code}")
            try:
                CodeParams(*code)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad code {code}: {exc}") from exc
            if code[0] > MAX_CODE_QUBITS:
                raise ConfigError(f"bad code {code}: the sweep supports "
                                  f"n <= {MAX_CODE_QUBITS} qubits")
        if not self.sigma_grid:
            raise ConfigError("sigma_grid must not be empty")
        if not (_is_int(self.n_samples)
                and 1000 <= self.n_samples <= MAX_SAMPLES):
            raise ConfigError(f"n_samples must be an integer in "
                              f"[1000, {MAX_SAMPLES}], got {self.n_samples}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be a nonnegative integer, "
                              f"got {self.seed}")
        # closed_form_rows' sigma_u must round below 1
        for steps in sorted({code[0] for code in self.code_list}):
            for sigma in self.sigma_grid:
                if _sigma_u(sigma, steps) >= 1.0:
                    raise ConfigError(
                        f"sigma {sigma!r} over {steps} steps gives "
                        f"sigma_u = sigma ** (1/{steps}) = 1.0 in floating "
                        f"point; sigma_u must lie below 1")
        if not (_is_int(self.workers) and 1 <= self.workers <= MAX_WORKERS):
            raise ConfigError(f"workers must be an integer in "
                              f"[1, {MAX_WORKERS}], got {self.workers}")
        for name in ("csv_path", "json_path"):
            path = getattr(self, name)
            if path is not None and not (isinstance(path, str) and path):
                raise ConfigError(f"{name} must be a non-empty string, "
                                  f"got {path!r}")

    @classmethod
    def default(cls) -> "SweepConfig":
        return cls(code_list=DEFAULT_CODES, sigma_grid=DEFAULT_SIGMA_GRID)

    @classmethod
    def from_json(cls, path) -> "SweepConfig":
        try:
            raw = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {path} is not UTF-8 text: {exc}") \
                from exc
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") \
                from exc
        except RecursionError as exc:
            raise ConfigError(f"config {path} nests too deeply to parse") \
                from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"config {path} has unknown keys: {unknown}")
        for key in ("code_list", "sigma_grid"):
            if key not in data:
                raise ConfigError(f"config {path} is missing '{key}'")
        return cls(**data)


@dataclass(frozen=True)
class SweepRow:
    """One (code, sigma_c) cell: closed forms, bounds, and MC estimates.

    Field order is the CSV column order; v_c through cond18 are
    closedform.FidelityReport's fields.  The MC columns stay NaN until
    run_sweep fills them in.
    """

    n: int
    m: int
    sigma_c: float
    sigma_u: float
    v_c: float
    v_u: float
    f2_psi: float
    f2_phi_tilde: float
    f2_psi0: float
    lb_psi0: float
    ub_phi_tilde_proof: float
    ub_phi_tilde_printed: float
    cond18: bool
    mc_f2_psi: float = math.nan
    mc_se_psi: float = math.nan
    mc_f2_phi_tilde: float = math.nan
    mc_se_phi_tilde: float = math.nan
    mc_f2_psi0: float = math.nan
    mc_se_psi0: float = math.nan


def closed_form_rows(code_list: Sequence[tuple[int, int]],
                     sigma_grid: Sequence[float]) -> list[SweepRow]:
    """Closed-form columns of every cell; MC columns are NaN placeholders.

    The unencoded error accumulates over the code's n steps, each at
    sigma_u = sigma_c ** (1/n), so that n of them compose to sigma_c.
    """
    rows = []
    for code in code_list:
        params = CodeParams(*code)
        for sigma_c in sigma_grid:
            sigma_u = _sigma_u(sigma_c, params.n)
            report = full_report(
                IsotropicDensity.normal(sigma_c, params.d), params,
                IsotropicDensity.normal(sigma_u, params.d_prime))
            rows.append(SweepRow(params.n, params.m, sigma_c, sigma_u,
                                 **vars(report)))
    return rows


_SLOTS = ("psi", "phi_tilde", "psi0")


def _law_keys(n: int, m: int) -> tuple[tuple[int, int], ...]:
    """Keys of a cell's three error laws, in _SLOTS order.

    An estimate is the mean squared mass that a normal error leaves on
    e0 plus ``kept`` coordinates of S^(2d-1), so its law is fixed by
    (d, kept) and sigma.  The key is (log2 d, log2 of the kept complex
    amplitudes): (n, 0) for the raw coded state, (n, n - m) for the
    corrected one (its d'' block amplitudes) and (m, 0) for the
    unencoded one.  n > m >= 1 makes a cell's three keys distinct.  The
    key names an estimate; the corrected law's key is also its stream
    key, while the two raw laws (kept = 1), psi and psi0, read the one
    raw draw on RAW_STREAM, so phi_tilde's draw stays independent of
    both.  Small integers only: SeedSequence splits a large int into
    32-bit words, so a raw d could collide with a pair of keys.
    """
    return ((n, 0), (n, n - m), (m, 0))


def _cell_laws(row: SweepRow) -> tuple[tuple[str, tuple, float], ...]:
    """(slot, law key, sigma) of a cell's three estimates, in _SLOTS
    order: sigma_c for the coded slots, sigma_u for the unencoded one."""
    return tuple(zip(_SLOTS, _law_keys(row.n, row.m),
                     (row.sigma_c, row.sigma_c, row.sigma_u)))


def _usage() -> dict[str, float]:
    """CPU seconds and minor page faults of this process so far, over
    all its threads; empty where the resource module is missing."""
    if resource is None:
        return {}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_user_seconds": usage.ru_utime,
            "cpu_sys_seconds": usage.ru_stime,
            "minor_page_faults": usage.ru_minflt}


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate every cell; write CSV/JSON if the config names paths.

    An output path that cannot be a file (a NUL byte or a lone
    surrogate, a directory, a missing parent directory, a symlink loop,
    a file name too long), or a CSV and a JSON report aimed at one file
    (by name or by hard link), raises ConfigError before any sampling.

    The rows are closed_form_rows', with three Monte Carlo estimates
    filled in (raw coded state, corrected state, accumulated unencoded
    state).  Each one's law is fixed by its _law_keys entry and a sigma
    (sigma_c for the coded slots, sigma_u for the unencoded one).  The
    sweep collects the distinct laws over the whole code list and the
    union of the sigmas each law's cells need, and makes one draw per
    chunk for every corrected law and one for all the raw laws (kept =
    1, psi and psi0) together; each draw serves every sigma of its
    laws, and codes that need the same law share it.  A corrected law's
    streams are keyed by (seed, law key, chunk index), the raw draw's by
    (seed, RAW_STREAM, chunk index), and each raw law computes its rows
    from that draw alone, so a cell's MC columns do not depend on the
    worker count, the other sigmas, or which other codes are listed and
    in what order: they depend on (seed, n_samples) alone.  A cell's psi
    and psi0 share the raw draw and are correlated, which
    check_ordering never sees, since it compares each of them only with
    phi_tilde, whose draw is its own: its combined standard error
    assumes the two estimates of a pair are independent.  Every draw
    chunks at DEFAULT_CHUNK_SIZE samples and is one mc_means job, and
    one mc_means call runs every job's chunks on config.workers
    threads; every sampler of the sweep shares one Scratch.

    The JSON report's timing record, in key order: total_seconds (the
    sweep up to writing its outputs), closed_form_seconds (the
    closed_form_rows call's share), n_cells, the getrusage deltas
    cpu_user_seconds, cpu_sys_seconds and minor_page_faults over all
    threads (absent where resource is missing), then mc_seconds,
    mc_wall_seconds and mc_values_per_second.  mc_seconds has one
    {"key", "cells", "n_sigmas", "seconds"} entry per draw, the raw one
    first: its stream key, the [n, m, slot] cells it serves, its number
    of rows (sigmas summed over its laws) and its busy seconds, its
    chunk times summed over worker threads.  The raw draw's seconds are
    not split among its laws, since they share every variate.  The
    draws' chunks run on the same threads at once, so these overlap;
    mc_wall_seconds spans the one mc_means call, and
    mc_values_per_second is the sum of n_samples * n_sigmas over it.
    The CSV holds no timing, so it stays byte-deterministic.
    """
    csv_real, json_real = (
        None if path is None else _check_output_path(path, what)
        for path, what in ((config.csv_path, "CSV"),
                           (config.json_path, "JSON report")))
    if csv_real is not None and json_real is not None \
            and _same_file(csv_real, json_real):
        raise ConfigError(f"the CSV {config.csv_path} and the JSON report "
                          f"{config.json_path} name the same file")
    usage_started = _usage()
    started = time.perf_counter()
    rows = closed_form_rows(config.code_list, config.sigma_grid)
    closed_form_seconds = time.perf_counter() - started
    # law key -> ({sigma}, [(n, m, slot) served])
    laws: dict[tuple[int, int], tuple[set, list]] = {}
    for n, m in config.code_list:
        for key, slot in zip(_law_keys(n, m), _SLOTS):
            laws.setdefault(key, (set(), []))[1].append((n, m, slot))
    for row in rows:
        for _, key, sigma in _cell_laws(row):
            laws[key][0].add(sigma)
    # one draw per chunk serves every raw law (kept = 1), on the stream
    # RAW_STREAM; each corrected law (n, kept_log2), which keeps
    # 2 ** (kept_log2 + 1) - 1 real coordinates beside e0, draws its own
    # on the stream of its key
    sigmas = {key: sorted(law_sigmas) for key, (law_sigmas, _) in
              laws.items()}
    raw = [key for key in laws if key[1] == 0]
    scratch = Scratch()
    draws = [(RAW_STREAM, raw, raw_sampler(
        [(2 ** key[0], sigmas[key]) for key in raw], scratch))]
    draws += [(key, [key], fidelity_sampler(
        2 ** key[0], 2 ** (key[1] + 1) - 1, sigmas[key], scratch))
        for key in laws if key[1] != 0]
    mc_started = time.perf_counter()
    results = mc_means(
        [(value_fn, RngStreams(config.seed).split(stream[0]).split(stream[1]))
         for stream, _, value_fn in draws],
        config.n_samples, workers=config.workers)
    mc_wall_seconds = time.perf_counter() - mc_started
    estimates = {}
    for (_, keys, _), (ests, _) in zip(draws, results):
        estimates.update(zip(((key, sigma) for key in keys
                              for sigma in sigmas[key]), ests))
    for i, row in enumerate(rows):
        mc_columns = {}
        for slot, key, sigma in _cell_laws(row):
            est = estimates[key, sigma]
            mc_columns[f"mc_f2_{slot}"] = est.value
            mc_columns[f"mc_se_{slot}"] = est.std_error
        rows[i] = replace(row, **mc_columns)
    n_values = config.n_samples * sum(map(len, sigmas.values()))
    timing = {"total_seconds": time.perf_counter() - started,
              "closed_form_seconds": closed_form_seconds,
              "n_cells": len(rows),
              **{name: value - usage_started[name]
                 for name, value in _usage().items()},
              "mc_seconds": [{"key": list(stream),
                              "cells": [list(cell) for key in keys
                                        for cell in laws[key][1]],
                              "n_sigmas": sum(len(sigmas[key])
                                              for key in keys),
                              "seconds": seconds}
                             for (stream, keys, _), (_, seconds)
                             in zip(draws, results)],
              "mc_wall_seconds": mc_wall_seconds,
              "mc_values_per_second": n_values / mc_wall_seconds}
    if config.csv_path is not None:
        write_csv(rows, config.csv_path)
    if config.json_path is not None:
        write_json_report(config, rows, timing, config.json_path)
    return rows


def check_ordering(rows: Sequence[SweepRow],
                   n_se: float = 3.0) -> list[dict]:
    """Rows whose MC columns break the expected fidelity ordering.

    The ordering (accumulated unencoded >= corrected >= raw) holds for
    the closed forms by construction; on MC columns it is enforced up to
    n_se combined standard errors.  A pair with a NaN estimate or SE is
    a violation, since no comparison can hold for it.
    """
    violations = []
    for row in rows:
        pairs = (
            ("psi0_vs_phi_tilde", row.mc_f2_psi0, row.mc_se_psi0,
             row.mc_f2_phi_tilde, row.mc_se_phi_tilde),
            ("phi_tilde_vs_psi", row.mc_f2_phi_tilde, row.mc_se_phi_tilde,
             row.mc_f2_psi, row.mc_se_psi),
        )
        for name, upper, upper_se, lower, lower_se in pairs:
            allowed = n_se * math.hypot(upper_se, lower_se)
            gap = lower - upper
            if gap > allowed or any(math.isnan(v) for v in (
                    upper, upper_se, lower, lower_se)):
                violations.append({
                    "n": row.n, "m": row.m, "sigma_c": row.sigma_c,
                    "pair": name, "gap": gap, "allowed": allowed,
                })
    return violations


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return "%.17g" % value


def _check_output_path(path: str, what: str) -> str:
    """Refuse an output path that cannot be a file, before any work.

    A name with a NUL byte or one the file system encoding cannot
    encode, a symlink loop, a directory, a name whose parent is not a
    directory, or a file name longer than its directory allows, each
    judged on the path with every link resolved; the parent is also
    judged as written, since resolving collapses "missing/..".
    _write_text still reports what only writing can show.  Returns the
    resolved path.
    """
    if "\0" in path:
        raise ConfigError(f"cannot write {what} {path!r}: "
                          f"the path holds a NUL byte")
    # realpath, unlike Path.resolve on Python < 3.13, takes symlink loops:
    # it stops at the link that closes one
    try:
        real = os.path.realpath(path)
    except UnicodeEncodeError as exc:  # a lone surrogate, from JSON
        raise ConfigError(f"cannot write {what} {path!r}: {exc}") from exc
    if os.path.islink(real):
        raise ConfigError(f"cannot write {what} {path}: it is a symlink loop")
    if os.path.isdir(real):
        raise ConfigError(f"cannot write {what} {path}: it is a directory")
    parent = os.path.dirname(real)
    for folder in (os.path.dirname(path) or ".", parent):
        if not os.path.isdir(folder):
            raise ConfigError(f"cannot write {what} {path}: "
                              f"{folder} is not a directory")
    # -1: no limit, or no os.pathconf (POSIX only) to tell one
    name_max = (os.pathconf(parent, "PC_NAME_MAX")
                if hasattr(os, "pathconf") else -1)
    if 0 <= name_max < len(os.fsencode(os.path.basename(real))):
        raise ConfigError(f"cannot write {what} {path}: its file name is "
                          f"longer than {name_max} bytes")
    return real


def _same_file(a: str, b: str) -> bool:
    """Whether two resolved paths name one file, hard links included."""
    try:
        return os.path.samestat(os.stat(a), os.stat(b))
    except OSError:  # one of them is not there yet
        return a == b


def _write_text(path, text: str, what: str) -> None:
    # open raises ValueError, not OSError, on a path with a NUL byte
    try:
        Path(path).write_text(text)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot write {what} {path}: {exc}") from exc


def write_csv(rows: Sequence[SweepRow], path) -> None:
    names = [f.name for f in fields(SweepRow)]
    lines = [",".join(names)]
    for row in rows:
        # the fields are ints, floats and bools: no deep copy needed
        record = vars(row)
        lines.append(",".join(_format_cell(record[name]) for name in names))
    _write_text(path, "\n".join(lines) + "\n", "CSV")


def write_json_report(config: SweepConfig, rows: Sequence[SweepRow],
                      timing: dict, path) -> None:
    """JSON report: config, provenance, rows, violations and the timing
    record that run_sweep builds (its docstring names the keys)."""
    report = {
        "config": asdict(config),
        "provenance": {
            "isoqec": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
            "seed": config.seed,
            "chunk_size": DEFAULT_CHUNK_SIZE,
            "workers": config.workers,
            "bit_generator": type(
                RngStreams(config.seed).chunk(0).bit_generator).__name__,
        },
        "rows": [vars(row) for row in rows],
        "violations": check_ordering(rows),
        "timing": timing,
    }
    _write_text(path, json.dumps(report, indent=2) + "\n", "JSON report")


# ---------------------------------------------------------------------------
# verification reports


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str
    passed: bool

    @classmethod
    def judged(cls, name: str, passed: bool, detail: str) -> "CheckResult":
        """A check whose status is "ok" if it passed, else "failed"."""
        return cls(name=name, status="ok" if passed else "failed",
                   detail=detail, passed=passed)


@dataclass(frozen=True)
class VerificationReport:
    name: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "checks": [asdict(check) for check in self.checks]}


def _rel_err(got: float, want: float) -> float:
    # absolute error where the true value is exactly zero
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


def _summarize(name: str, errors: list[tuple[float, str]]) -> CheckResult:
    worst, where = max(errors)
    passed = worst <= APPENDIX_REL_TOL
    return CheckResult.judged(
        name, passed,
        f"{len(errors)} cases, max rel err {worst:.3e} at {where}")


def verify_appendix() -> VerificationReport:
    """Check every classical integral closed form against quadrature.

    Families: sin-power integrals (odd and even exponents to 128), the
    partial sin-power integrals over [0, alpha] that normalize the cap
    densities (sin^(2d-2), d <= 64, alpha on both sides of pi/2), the
    three kernel integrals over d <= 64 and sigma <= 0.99, and the two
    sphere-surface formulas rebuilt through the recursion
    |S^D| = |S^(D-1)| * integral of sin^(D-1), started from |S^0| = 2.
    Each integral of sin^k over [0, alpha] is computed once per report:
    the sphere recursion and the alpha = pi caps reuse the sin-power
    quadratures, so a report makes 248 QUADPACK calls.  A family passes
    when its worst relative error is at most APPENDIX_REL_TOL.
    """

    @functools.cache
    def sin_power_quad(k: int, alpha: float) -> float:
        # QUADPACK is deterministic, so a reused value is the same float
        return adaptive_quadrature(lambda t: math.sin(t) ** k,
                                   0.0, alpha, 1e-12, points=[math.pi / 2])

    checks = []
    for name, exponents in (("sin-power-odd", range(1, 129, 2)),
                            ("sin-power-even", range(0, 129, 2))):
        errors = [(_rel_err(sin_power_quad(k, math.pi),
                            sin_power_integral(k)), f"k={k}")
                  for k in exponents]
        checks.append(_summarize(name, errors))

    errors = []
    for d in KERNEL_D_GRID:
        k = 2 * d - 2
        for alpha in CAP_ANGLE_GRID:
            want = math.exp(sin_power_partial(k, alpha).log_integral)
            errors.append((_rel_err(sin_power_quad(k, alpha), want),
                           f"k={k}, alpha={alpha:.6g}"))
    checks.append(_summarize("sin-power-partial", errors))

    kernel_errors = ([], [], [])
    for d in KERNEL_D_GRID:
        for sigma in KERNEL_SIGMA_GRID:
            for errors, integrand, want in zip(
                    kernel_errors, poisson_kernel_integrands(d, sigma),
                    poisson_kernel_integrals(d, sigma)):
                ref = adaptive_quadrature(integrand, 0.0, math.pi, 1e-12,
                                          abs_tol=1e-13,
                                          points=[math.acos(sigma)])
                errors.append((_rel_err(ref, want), f"d={d}, sigma={sigma}"))
    checks.extend(map(_summarize, ("kernel-inverse-square",
                                   "kernel-cosine-weighted",
                                   "kernel-plain-power"), kernel_errors))

    surface = 2.0  # the 0-sphere is two points
    even_errors = [(_rel_err(surface, sphere_surface(0)), "D=0")]
    odd_errors = []
    for surf_dim in range(1, 129):
        surface *= sin_power_quad(surf_dim - 1, math.pi)
        target = even_errors if surf_dim % 2 == 0 else odd_errors
        target.append((_rel_err(surface, sphere_surface(surf_dim)),
                       f"D={surf_dim}"))
    checks.append(_summarize("sphere-even-dim", even_errors))
    checks.append(_summarize("sphere-odd-dim", odd_errors))

    return VerificationReport("appendix", tuple(checks))


def _density_family(d: int) -> tuple[IsotropicDensity, ...]:
    return (IsotropicDensity.uniform(d),
            IsotropicDensity.normal(0.3, d),
            IsotropicDensity.normal(0.9, d),
            IsotropicDensity.uniform_cap(math.pi / 4, d),
            IsotropicDensity.uniform_cap(math.pi / 2, d))


def _check_ordering_chain() -> CheckResult:
    # accumulated unencoded >= corrected >= raw, strict away from sigma=0
    sigma = np.arange(0.0, 0.9995, 0.001)
    worst_outer = math.inf
    worst_inner = math.inf
    strict_ok = True
    for n, m in DEFAULT_CODES:
        params = CodeParams(n, m)
        f_psi = fidelity_psi_normal(sigma, params.d)
        f_phi = fidelity_psi_normal(sigma, params.d_prime)
        f_psi0 = fidelity_psi_normal(_sigma_u(sigma, n), params.d_prime)
        worst_outer = min(worst_outer, float(np.min(f_psi0 - f_phi)))
        worst_inner = min(worst_inner, float(np.min(f_phi - f_psi)))
        interior = sigma > 0.0
        strict_ok = strict_ok \
            and bool(np.all(f_psi0[interior] > f_phi[interior])) \
            and bool(np.all(f_phi[interior] > f_psi[interior]))
    passed = worst_outer >= -1e-12 and worst_inner >= -1e-12 and strict_ok
    return CheckResult.judged(
        "fidelity-ordering-chain", passed,
        f"min margins over codes x sigma grid: "
        f"psi0-phi_tilde {worst_outer:.3e}, "
        f"phi_tilde-psi {worst_inner:.3e}, "
        f"strict in (0,1): {strict_ok}")


def _check_normal_closed_forms() -> CheckResult:
    # E[sin^2] moment route vs direct arithmetic route
    worst = 0.0
    cases = 0
    for n, m in DEFAULT_CODES:
        params = CodeParams(n, m)
        for sigma in (0.0, 0.3, 0.7, 0.9, 0.99):
            density = IsotropicDensity.normal(sigma, params.d)
            worst = max(worst, abs(fidelity_psi(density)
                                   - fidelity_psi_normal(sigma, params.d)))
            worst = max(worst, abs(fidelity_corrected(density, params)
                                   - fidelity_psi_normal(sigma,
                                                         params.d_prime)))
            cases += 2
    passed = worst <= 1e-12
    return CheckResult.judged(
        "normal-closed-forms", passed,
        f"{cases} cases, max abs gap {worst:.3e}")


def _check_uncoded_lower_bound() -> CheckResult:
    min_gap = math.inf
    cases = 0
    for d_prime in (2, 4, 16):
        for density in _density_family(d_prime):
            v_u = variance_of(density)
            gap = fidelity_psi(density) - bound_psi0_lower(v_u, d_prime)
            min_gap = min(min_gap, gap)
            cases += 1
    passed = min_gap >= -1e-12
    return CheckResult.judged(
        "uncoded-lower-bound", passed,
        f"{cases} cases, min slack {min_gap:.3e}")


def _check_correction_bounds() -> tuple[CheckResult, CheckResult]:
    proof_min_gap = math.inf
    applicable = 0
    skipped = 0
    printed_violations = []
    for n, m in DEFAULT_CODES:
        params = CodeParams(n, m)
        for density in _density_family(params.d):
            if not condition_18(density) >= 0.0:
                skipped += 1
                continue
            applicable += 1
            v_c = variance_of(density)
            f2 = fidelity_corrected(density, params)
            ub_proof, ub_printed = bound_corrected_upper(v_c, params)
            proof_min_gap = min(proof_min_gap, ub_proof - f2)
            if f2 > ub_printed + 1e-12:
                label = ", ".join(f"{k}={v:.6g}" if isinstance(v, float)
                                  else f"{k}={v}"
                                  for k, v in density.descriptor().items()
                                  if k != "d")
                printed_violations.append(
                    f"({n},{m}) {label}: "
                    f"fidelity {f2:.6g} > bound {ub_printed:.6g}")
    proof = CheckResult.judged(
        "corrected-upper-bound-proof",
        applicable > 0 and proof_min_gap >= -1e-12,
        f"{applicable} applicable cases ({skipped} skipped for the "
        f"moment condition), min slack {proof_min_gap:.3e}")
    confirmed = bool(printed_violations)
    printed = CheckResult(
        name="corrected-upper-bound-printed",
        status="erratum-confirmed" if confirmed else "erratum-not-reproduced",
        detail=(f"{len(printed_violations)} of {applicable} applicable cases "
                f"violate the printed bound; e.g. {printed_violations[0]}"
                if confirmed else
                f"no violation found in {applicable} applicable cases"),
        passed=confirmed)
    return proof, printed


def _check_composition_gap() -> CheckResult:
    x = np.arange(4001) * 1e-3
    min_value = min(float(lemma_g(n, x).min()) for n in range(2, 65))
    exact = (lemma_g(2, 0.0) == 0.0 and lemma_g(64, 0.0) == 0.0
             and lemma_g(2, 4.0) == 0.0 and lemma_g(64, 4.0) == 0.0
             and lemma_g(3, 4.0) == 4.0)
    passed = min_value >= -1e-12 and exact
    return CheckResult.judged(
        "composition-gap-nonnegative", passed,
        f"min {min_value:.3e} over n in 2..64, x step 1e-3; "
        f"boundary equalities exact: {exact}")


def verify_theorems() -> VerificationReport:
    """Recheck the ordering chain, both variance bounds, and the gap lemma."""
    proof, printed = _check_correction_bounds()
    return VerificationReport("theorems", (
        _check_ordering_chain(),
        _check_normal_closed_forms(),
        _check_uncoded_lower_bound(),
        proof,
        printed,
        _check_composition_gap(),
    ))


# ---------------------------------------------------------------------------
# figure emission

_CURVES = (
    ("f2_psi", "#c0392b", "coded, uncorrected"),
    ("f2_phi_tilde", "#2980b9", "coded, corrected"),
    ("f2_psi0", "#27ae60", "unencoded, accumulated"),
)

_PANEL_W, _PANEL_H = 375, 280
_PANEL_X = (70, 545)
_PANEL_Y = 60


def _panel_svg(rows: list[SweepRow], x0: int) -> list[str]:
    y0, w, h = _PANEL_Y, _PANEL_W, _PANEL_H
    parts = []
    # frame and ticks
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y0 + h}" '
                 f'stroke="#444" stroke-width="1"/>')
    parts.append(f'<line x1="{x0}" y1="{y0 + h}" x2="{x0 + w}" '
                 f'y2="{y0 + h}" stroke="#444" stroke-width="1"/>')
    for i in range(5):
        frac = i / 4
        ty = y0 + h - frac * h
        parts.append(f'<line x1="{x0 - 4}" y1="{ty:.1f}" x2="{x0}" '
                     f'y2="{ty:.1f}" stroke="#444" stroke-width="1"/>')
        parts.append(f'<text x="{x0 - 8}" y="{ty + 4:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11" fill="#444">{frac:g}</text>')
    for i in range(6):
        frac = i / 5
        tx = x0 + frac * w
        parts.append(f'<line x1="{tx:.1f}" y1="{y0 + h}" x2="{tx:.1f}" '
                     f'y2="{y0 + h + 4}" stroke="#444" stroke-width="1"/>')
        parts.append(f'<text x="{tx:.1f}" y="{y0 + h + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11" fill="#444">{frac:g}</text>')
    row = rows[0]
    parts.append(f'<text x="{x0 + w / 2:.0f}" y="{y0 - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="14" fill="#222">n={row.n}, m={row.m}</text>')
    parts.append(f'<text x="{x0 + w / 2:.0f}" y="{y0 + h + 38}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12" fill="#222">sigma of the composed error'
                 f'</text>')
    for field_name, color, _ in _CURVES:
        points = " ".join(
            f"{x0 + r.sigma_c * w:.2f},"
            f"{y0 + (1.0 - getattr(r, field_name)) * h:.2f}"
            for r in rows)
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.8" points="{points}"/>')
    return parts


def emit_figure2(rows: Sequence[SweepRow], path) -> None:
    """Two-panel SVG: squared fidelity vs sigma, three curves per panel.

    One panel per FIGURE_CODES code, drawn from its rows in rows.  The
    numeric curve data is embedded in a metadata element so the file
    remains checkable against the closed forms after emission.
    """
    panels = [sorted((r for r in rows if (r.n, r.m) == code),
                     key=lambda r: r.sigma_c)
              for code in FIGURE_CODES]

    payload = {"panels": [
        {"n": panel[0].n, "m": panel[0].m,
         "sigma_c": [r.sigma_c for r in panel],
         "f2_psi": [r.f2_psi for r in panel],
         "f2_phi_tilde": [r.f2_phi_tilde for r in panel],
         "f2_psi0": [r.f2_psi0 for r in panel]}
        for panel in panels]}

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="960" '
             'height="430" viewBox="0 0 960 430">',
             '<metadata id="curve-data">' + json.dumps(payload)
             + '</metadata>',
             '<rect width="960" height="430" fill="white"/>',
             '<text x="20" y="200" text-anchor="middle" '
             'font-family="sans-serif" font-size="12" fill="#222" '
             'transform="rotate(-90 20 200)">squared fidelity</text>']
    for panel, x0 in zip(panels, _PANEL_X):
        parts.extend(_panel_svg(panel, x0))
    legend_x = 300
    for field_name, color, label in _CURVES:
        parts.append(f'<line x1="{legend_x}" y1="24" x2="{legend_x + 26}" '
                     f'y2="24" stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{legend_x + 32}" y="28" '
                     f'font-family="sans-serif" font-size="12" '
                     f'fill="#222">{label}</text>')
        legend_x += 36 + 8 * len(label)
    parts.append('</svg>')
    _write_text(path, "\n".join(parts) + "\n", "figure")
