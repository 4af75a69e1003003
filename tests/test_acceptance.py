"""Acceptance gate: the end-to-end properties the package promises.

One test per property, each printing a single [PASS]/[FAIL] line.
Statistical checks run at 3 standard errors on a fixed seed; runtime
bounds are generous laptop budgets, not benchmarks.
"""

import json
import math
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np
import pytest

from suite import compose_errors, make_suite, mean_se, reference_states

from isoqec.closedform import (
    bound_corrected_upper,
    bound_psi0_lower,
    fidelity_corrected,
    fidelity_psi,
    fidelity_psi_normal,
    lemma_g,
)
from isoqec.distributions import (
    CodeParams,
    IsotropicDensity,
    condition_18,
    variance_compose_n,
    variance_of,
)
from isoqec.experiments import (
    DEFAULT_CODES,
    DEFAULT_SIGMA_GRID,
    FIGURE_CODES,
    SweepConfig,
    closed_form_rows,
    emit_figure2,
    run_sweep,
    verify_appendix,
    verify_theorems,
    write_csv,
)
from isoqec.sampler import (
    RngStreams,
    fidelity_sampler,
    mc_means,
    raw_sampler,
)

SEED = 20260819
N_SAMPLES = 200_000
MC_CODES = ((5, 1), (5, 4))
MC_SIGMAS = (0.0, 0.3, 0.6, 0.9)
SVG_NS = "{http://www.w3.org/2000/svg}"


def _gate(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


@dataclass(frozen=True)
class McCell:
    params: CodeParams
    sigma_c: float
    # name -> (estimate, closed form)
    estimates: dict


@pytest.fixture(scope="module")
def mc_cells():
    # all 24 estimates are jobs of one mc_means call, as a sweep runs
    # them, each on a stream of its own: the raw fidelity keeps one
    # coordinate beside e0, the corrected one 2 d'' - 1
    started = time.perf_counter()
    specs, jobs = [], []
    for code_idx, code in enumerate(MC_CODES):
        params = CodeParams(*code)
        for sigma_idx, sigma_c in enumerate(MC_SIGMAS):
            sigma_u = sigma_c ** (1.0 / 5.0)
            cell = RngStreams(SEED).split(code_idx * 10 + sigma_idx)
            specs.append((params, sigma_c, sigma_u))
            jobs += [
                (raw_sampler([(params.d, (sigma_c,))]), cell.split(0)),
                (fidelity_sampler(params.d, 2 * params.d_dprime - 1,
                                  (sigma_c,)), cell.split(1)),
                (raw_sampler([(params.d_prime, (sigma_u,))]), cell.split(2))]
    estimates = [est for (est,), _ in mc_means(jobs, N_SAMPLES)]
    cells = [McCell(params, sigma_c, {
        "psi": (estimates[3 * i], fidelity_psi_normal(sigma_c, params.d)),
        "phi_tilde": (estimates[3 * i + 1],
                      fidelity_psi_normal(sigma_c, params.d_prime)),
        "psi0": (estimates[3 * i + 2],
                 fidelity_psi_normal(sigma_u, params.d_prime)),
    }) for i, (params, sigma_c, sigma_u) in enumerate(specs)]
    return cells, time.perf_counter() - started


def test_monte_carlo_matches_closed_forms(mc_cells):
    cells, elapsed = mc_cells
    worst_z = 0.0
    all_within = True
    for cell in cells:
        for estimate, closed in cell.estimates.values():
            z = abs(estimate.value - closed) / estimate.std_error
            worst_z = max(worst_z, z)
            all_within = all_within and z <= 3.0
    assert len(cells) == 8
    _gate("monte-carlo-matches-closed-forms",
          all_within and elapsed < 60.0,
          f"24 estimates at 2e5 samples, worst deviation "
          f"{worst_z:.2f} SE, sampling time {elapsed:.1f}s")


def test_fidelity_ordering_chain(mc_cells):
    rows = closed_form_rows(DEFAULT_CODES, DEFAULT_SIGMA_GRID)
    closed_ok = all(row.f2_psi0 >= row.f2_phi_tilde - 1e-12
                    and row.f2_phi_tilde >= row.f2_psi - 1e-12
                    for row in rows)
    strict_ok = all(row.f2_psi0 > row.f2_phi_tilde
                    and row.f2_phi_tilde > row.f2_psi
                    for row in rows if row.sigma_c > 0.0)
    cells, _ = mc_cells
    worst_order_z = -math.inf
    for cell in cells:
        for upper_name, lower_name in (("psi0", "phi_tilde"),
                                       ("phi_tilde", "psi")):
            upper, _ = cell.estimates[upper_name]
            lower, _ = cell.estimates[lower_name]
            z = (lower.value - upper.value) \
                / math.hypot(lower.std_error, upper.std_error)
            worst_order_z = max(worst_order_z, z)
    mc_ok = worst_order_z <= 3.0
    _gate("fidelity-ordering-chain",
          closed_ok and strict_ok and mc_ok,
          f"closed form over {len(rows)} default grid cells "
          f"(strict for sigma>0), MC worst inversion "
          f"{worst_order_z:.2f} combined SE")


def test_figure_curves_and_endpoints(tmp_path):
    rows = closed_form_rows(FIGURE_CODES, DEFAULT_SIGMA_GRID)
    path = tmp_path / "figure.svg"
    emit_figure2(rows, path)
    root = ET.parse(path).getroot()
    polylines_ok = len(root.findall(f".//{SVG_NS}polyline")) == 6
    panels = json.loads(root.find(f"{SVG_NS}metadata").text)["panels"]

    worst = 0.0
    for panel in panels:
        d = 2 ** panel["n"]
        d_prime = 2 ** panel["m"]
        for sigma, psi, phi, psi0 in zip(panel["sigma_c"], panel["f2_psi"],
                                         panel["f2_phi_tilde"],
                                         panel["f2_psi0"]):
            worst = max(
                worst,
                abs(psi - fidelity_psi_normal(sigma, d)),
                abs(phi - fidelity_psi_normal(sigma, d_prime)),
                abs(psi0 - fidelity_psi_normal(sigma ** 0.2, d_prime)))
    values_ok = worst <= 1e-12

    by_code = {(p["n"], p["m"]): p for p in panels}
    narrow = by_code[(5, 1)]
    wide = by_code[(5, 4)]
    endpoints_ok = (
        abs(narrow["f2_psi"][0] - 1 / 32) <= 1e-12
        and abs(wide["f2_psi"][0] - 1 / 32) <= 1e-12
        and abs(narrow["f2_phi_tilde"][0] - 1 / 2) <= 1e-12
        and abs(narrow["f2_psi0"][0] - 1 / 2) <= 1e-12
        and abs(wide["f2_phi_tilde"][0] - 1 / 16) <= 1e-12
        # the accumulated-error curve starts at 1/d_prime on both
        # panels, matching its governing formula at sigma_u = 0
        and abs(wide["f2_psi0"][0] - 1 / 16) <= 1e-12)

    sigma_near_one = 1.0 - 1e-9
    limits_ok = all(
        fidelity_psi_normal(sigma_near_one, dim) > 1.0 - 1e-7
        for dim in (32, 16, 2)) and all(
        fidelity_psi_normal(sigma_near_one ** 0.2, dim) > 1.0 - 1e-7
        for dim in (16, 2))

    _gate("figure-curves-and-endpoints",
          polylines_ok and values_ok and endpoints_ok and limits_ok,
          f"6 curves, max gap to closed forms {worst:.2e}, "
          f"uniform endpoints and sigma->1 limits hold")


def test_integral_closed_forms_match_quadrature():
    started = time.perf_counter()
    report = verify_appendix()
    elapsed = time.perf_counter() - started
    n_cases = sum(int(check.detail.split()[0]) for check in report.checks)
    _gate("integral-closed-forms-match-quadrature",
          report.passed and elapsed < 30.0,
          f"{len(report.checks)} families, {n_cases} cases, "
          f"all within 1e-9 in {elapsed:.1f}s")


def test_composition_gap_nonnegative_on_grid():
    x = np.arange(4001) * 1e-3
    min_value = math.inf
    for n in range(2, 65):
        g = 2.0 - 2.0 * (1.0 - x / 2.0) ** n - (x - (x / 2.0) ** 2)
        min_value = min(min_value, float(g.min()))
    zeros_at_origin = all(lemma_g(n, 0.0) == 0.0 for n in range(2, 65))
    zeros_at_four = all(lemma_g(n, 4.0) == 0.0 for n in range(2, 65, 2))
    _gate("composition-gap-nonnegative",
          min_value >= -1e-12 and zeros_at_origin and zeros_at_four,
          f"min {min_value:.2e} over n in 2..64 at x step 1e-3, "
          f"boundary zeros exact")


def test_uncoded_fidelity_lower_bound():
    min_slack = math.inf
    cases = 0
    for d_prime in (2, 4, 16):
        for name, density in make_suite(d_prime):
            v_u = variance_of(density)
            slack = fidelity_psi(density) - bound_psi0_lower(v_u, d_prime)
            min_slack = min(min_slack, slack)
            cases += 1
    _gate("uncoded-fidelity-lower-bound",
          min_slack >= -1e-12,
          f"{cases} suite densities at d' in {{2,4,16}}, "
          f"min slack {min_slack:.2e}")


def test_corrected_fidelity_upper_bound_and_printed_erratum():
    min_slack = math.inf
    applicable = 0
    suites = {}
    for code in DEFAULT_CODES:
        params = CodeParams(*code)
        if params.d not in suites:
            suites[params.d] = make_suite(params.d)
        for name, density in suites[params.d]:
            if not condition_18(density) >= 0.0:
                continue
            applicable += 1
            v_c = variance_of(density)
            slack = bound_corrected_upper(v_c, params)[0] \
                - fidelity_corrected(density, params)
            min_slack = min(min_slack, slack)
    proof_ok = applicable > 0 and min_slack >= -1e-12

    # the printed denominator makes the bound fail at (5,1), sigma=0.9
    params = CodeParams(5, 1)
    density = IsotropicDensity.normal(0.9, params.d)
    assert condition_18(density) >= 0.0
    v_c = variance_of(density)
    proof, printed = bound_corrected_upper(v_c, params)
    corrected = fidelity_corrected(density, params)
    counterexample_ok = (printed == pytest.approx(-1 / 15, abs=1e-12)
                         and corrected == pytest.approx(0.905, abs=1e-12)
                         and corrected > printed
                         and corrected <= proof + 1e-12)

    report = verify_theorems()
    status = {check.name: check.status for check in report.checks}[
        "corrected-upper-bound-printed"]
    _gate("corrected-fidelity-upper-bound-and-printed-erratum",
          proof_ok and counterexample_ok and status == "erratum-confirmed",
          f"proof bound holds on {applicable} applicable suite cells "
          f"(min slack {min_slack:.2e}); printed bound {printed:.3f} < "
          f"fidelity {corrected:.3f}, reported {status}")


def test_composed_error_statistics():
    worst_z = 0.0
    # two-step composition at d=8
    density = IsotropicDensity.normal(0.8, 8)
    rng = RngStreams(SEED).split(80).chunk(0)
    states = reference_states(8, 100_000)
    for _ in range(2):
        states = compose_errors(states, density, rng)
    value, se = mean_se(2.0 - 2.0 * states[:, 0])
    want = variance_compose_n(variance_of(density), 2)
    worst_z = max(worst_z, abs(value - want) / se)

    # five-step composition at d=32 behaves as one error at sigma_u^5
    sigma_u = 0.9 ** 0.2
    density = IsotropicDensity.normal(sigma_u, 32)
    rng = RngStreams(SEED).split(81).chunk(0)
    states = reference_states(32, 100_000)
    for _ in range(5):
        states = compose_errors(states, density, rng)
    value, se = mean_se(2.0 - 2.0 * states[:, 0])
    want_v = variance_compose_n(variance_of(density), 5)
    worst_z = max(worst_z, abs(value - want_v) / se)
    value, se = mean_se(states[:, 0] ** 2 + states[:, 1] ** 2)
    want_f = fidelity_psi_normal(0.9, 32)
    worst_z = max(worst_z, abs(value - want_f) / se)

    _gate("composed-error-statistics",
          worst_z <= 3.0,
          f"variance composition (2 and 5 steps) and composed fidelity "
          f"at 1e5 samples, worst deviation {worst_z:.2f} SE")


def test_sweep_csv_byte_determinism(tmp_path):
    outputs = []
    for tag, workers in (("first", 1), ("second", 1), ("third", 2)):
        path = tmp_path / f"{tag}.csv"
        config = SweepConfig(code_list=((5, 1), (3, 1)),
                             sigma_grid=(0.0, 0.9), n_samples=20_000,
                             seed=SEED, workers=workers, csv_path=str(path))
        rows = run_sweep(config)
        assert len(rows) == 4
        outputs.append(path.read_bytes())
    _gate("sweep-csv-byte-determinism",
          outputs[0] == outputs[1] == outputs[2],
          f"{len(outputs[0])} CSV bytes identical across repeated runs "
          f"and worker counts 1 and 2")
