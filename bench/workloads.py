"""The benchmark's workloads and the checks on their outputs.

Each workload drives isoqec through ``cli.main`` where a command exists
and through the library call otherwise, always looking the entry point
up on its module at call time so that a traced iteration sees the probes.
``run`` is the timed part; ``check`` runs after the clock stops and
counts every check it attempts and every one that fails.

Monte Carlo estimates are held to 5 combined standard errors, not the
3 the test suite and ``isoqec sweep`` use, so that a changed draw does
not count as a failure while a real bias still does.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path

from isoqec import cli, experiments
from isoqec.distributions import CodeParams
from isoqec.experiments import (
    DEFAULT_CODES,
    DEFAULT_SIGMA_GRID,
    SweepConfig,
    SweepRow,
    check_ordering,
)

N_SE = 5.0
CLOSED_FORM_TOL = 1e-12


class Checks:
    """Counts checks attempted and keeps the description of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and captured stdout of one isoqec command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _normal_fidelities(row: SweepRow) -> dict[str, float]:
    # the three closed forms for normal densities, (1 + (k-1) s^2) / k
    params = CodeParams(row.n, row.m)
    d, dp = params.d, params.d_prime
    return {
        "f2_psi": (1.0 + (d - 1) * row.sigma_c ** 2) / d,
        "f2_phi_tilde": (1.0 + (dp - 1) * row.sigma_c ** 2) / dp,
        "f2_psi0": (1.0 + (dp - 1) * row.sigma_u ** 2) / dp,
    }


def check_closed_forms(rows: list[SweepRow], checks: Checks) -> None:
    for row in rows:
        for name, want in _normal_fidelities(row).items():
            got = getattr(row, name)
            checks.check(abs(got - want) <= CLOSED_FORM_TOL,
                         f"({row.n},{row.m}) sigma={row.sigma_c:g} {name} "
                         f"{got!r} != normal closed form {want!r}")


def check_sweep(rows: list[SweepRow], csv_path: Path, n_cells: int,
                checks: Checks) -> bytes:
    """Checks on a sweep's rows and CSV; returns the CSV bytes."""
    data = csv_path.read_bytes()
    lines = data.decode().splitlines()
    checks.check(len(rows) == n_cells and len(lines) == n_cells + 1,
                 f"expected {n_cells} rows, got {len(rows)} rows and "
                 f"{len(lines) - 1} CSV data lines")
    check_closed_forms(rows, checks)
    for row in rows:
        for slot in ("psi", "phi_tilde", "psi0"):
            mc = getattr(row, f"mc_f2_{slot}")
            se = getattr(row, f"mc_se_{slot}")
            exact = getattr(row, f"f2_{slot}")
            checks.check(abs(mc - exact) <= N_SE * se,
                         f"({row.n},{row.m}) sigma={row.sigma_c:g} MC "
                         f"f2_{slot} {mc:.6g} is more than {N_SE:g} SE "
                         f"({se:.3g}) from closed form {exact:.6g}")
    violations = check_ordering(rows, n_se=N_SE)
    checks.attempted += 2 * len(rows) - len(violations)
    for v in violations:
        checks.check(False, f"ordering violation {v}")
    return data


@dataclass(frozen=True)
class Workload:
    """Sizes shared by every workload; subclasses say how to run it."""

    name: str
    codes: tuple
    sigmas: tuple
    n_samples: int = 0  # per Monte Carlo estimate; 0 when nothing samples
    workers: int = 1

    @property
    def n_cells(self) -> int:
        return len(self.codes) * len(self.sigmas)

    @property
    def mc_samples(self) -> int:
        return 3 * self.n_cells * self.n_samples

    def setup_config(self, seed: int) -> dict | None:
        """The SweepConfig fields a sweep workload builds, else None."""
        if not self.n_samples:
            return None
        return {"code_list": [list(c) for c in self.codes],
                "sigma_grid": list(self.sigmas),
                "n_samples": self.n_samples, "seed": seed,
                "workers": self.workers}


class McSweep(Workload):
    """``isoqec sweep`` with a config file, CSV and JSON outputs."""

    def run(self, seed: int, workdir: Path) -> dict:
        config = workdir / "sweep.json"
        config.write_text(json.dumps(self.setup_config(seed)))
        csv_path, json_path = workdir / "rows.csv", workdir / "report.json"
        rc, _ = _cli(["sweep", "--config", str(config),
                      "--csv", str(csv_path), "--json", str(json_path)])
        return {"rc": rc, "csv": csv_path, "json": json_path}

    def check(self, out: dict, checks: Checks) -> bytes:
        # exit 1 means a 3-SE ordering gap, which check_sweep judges at 5
        checks.check(out["rc"] in (0, 1), f"isoqec sweep exited {out['rc']}")
        report = json.loads(out["json"].read_text())
        rows = [SweepRow(**r) for r in report["rows"]]
        return check_sweep(rows, out["csv"], self.n_cells, checks)


class LargeCode(Workload):
    """``run_sweep`` called as a library, CSV and JSON outputs."""

    def run(self, seed: int, workdir: Path) -> dict:
        csv_path = workdir / "rows.csv"
        config = SweepConfig(**self.setup_config(seed),
                             csv_path=str(csv_path),
                             json_path=str(workdir / "report.json"))
        return {"rows": experiments.run_sweep(config), "csv": csv_path}

    def check(self, out: dict, checks: Checks) -> bytes:
        return check_sweep(out["rows"], out["csv"], self.n_cells, checks)


_CURVE_DATA = re.compile(r'<metadata id="curve-data">(.*?)</metadata>',
                         re.DOTALL)


class ClosedFormGrid(Workload):
    """Closed-form rows, both verify reports and the figure; no sampling.

    The figure check compares against this workload's own rows, so its
    grid must include FIGURE_CODES at DEFAULT_SIGMA_GRID.
    """

    def run(self, seed: int, workdir: Path) -> dict:
        svg = workdir / "figure.svg"
        t0 = time.perf_counter()
        rows = experiments.closed_form_rows(self.codes, self.sigmas)
        rows_s = time.perf_counter() - t0
        reports = [_cli(["verify", "appendix"]), _cli(["verify", "theorems"])]
        rc_figure, _ = _cli(["figure2", "--out", str(svg)])
        return {"rows": rows, "reports": reports, "rc_figure": rc_figure,
                "svg": svg, "timed": {"closed_form_rows_s": rows_s}}

    def check(self, out: dict, checks: Checks) -> None:
        rows = out["rows"]
        checks.check(len(rows) == self.n_cells,
                     f"expected {self.n_cells} closed-form rows, "
                     f"got {len(rows)}")
        check_closed_forms(rows, checks)
        for rc, text in out["reports"]:
            report = json.loads(text)
            checks.check(rc == 0 and report["passed"],
                         f"verify {report['name']} exited {rc}")
            for c in report["checks"]:
                checks.check(c["passed"], f"verify {report['name']} "
                             f"{c['name']}: {c['status']} ({c['detail']})")
        checks.check(out["rc_figure"] == 0,
                     f"isoqec figure2 exited {out['rc_figure']}")
        payload = json.loads(
            _CURVE_DATA.search(out["svg"].read_text()).group(1))
        for panel in payload["panels"]:
            mine = sorted((r for r in rows if (r.n, r.m) ==
                           (panel["n"], panel["m"])),
                          key=lambda r: r.sigma_c)
            for key in ("sigma_c", "f2_psi", "f2_phi_tilde", "f2_psi0"):
                want = [getattr(r, key) for r in mine]
                checks.check(panel[key] == want,
                             f"figure ({panel['n']},{panel['m']}) {key} "
                             f"differs from closed_form_rows")


WORKLOADS = {w.name: w for w in (
    McSweep("mc-sweep", DEFAULT_CODES, (0.0, 0.3, 0.6, 0.9),
            n_samples=200_000, workers=2),
    ClosedFormGrid("closed-form-grid", DEFAULT_CODES, DEFAULT_SIGMA_GRID),
    LargeCode("large-code", ((7, 2), (6, 1)), (0.5, 0.95),
              n_samples=200_000, workers=1),
)}
