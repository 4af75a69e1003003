"""Sweep plumbing, verification reports, and figure emission."""

import dataclasses
import inspect
import json
import math
import os
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
import scipy.integrate

from isoqec import experiments
from isoqec.distributions import PolarMarginal
from isoqec.sampler import DEFAULT_CHUNK_SIZE
from isoqec.experiments import (
    DEFAULT_CODES,
    DEFAULT_SIGMA_GRID,
    FIGURE_CODES,
    MAX_CODE_QUBITS,
    MAX_SAMPLES,
    MAX_WORKERS,
    CheckResult,
    ConfigError,
    SweepConfig,
    SweepRow,
    check_ordering,
    closed_form_rows,
    emit_figure2,
    run_sweep,
    verify_appendix,
    verify_theorems,
    write_csv,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def small_config(**overrides):
    base = {"code_list": ((3, 1),), "sigma_grid": (0.0, 0.5),
            "n_samples": 2000, "seed": 11}
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_default_grid(self):
        config = SweepConfig.default()
        assert config.code_list == DEFAULT_CODES
        assert config.sigma_grid == DEFAULT_SIGMA_GRID
        assert config.sigma_grid[0] == 0.0
        assert config.sigma_grid[-1] == 0.95
        assert len(config.sigma_grid) == 20
        assert config.n_samples == 200_000

    def test_rejects_sigma_out_of_range(self):
        with pytest.raises(ConfigError):
            small_config(sigma_grid=(0.0, 1.0))
        with pytest.raises(ConfigError):
            small_config(sigma_grid=(-0.1,))
        # float() rounds this Fraction up to 1.0
        with pytest.raises(ConfigError, match="lie in"):
            small_config(sigma_grid=(Fraction(10 ** 20 - 1, 10 ** 20),))

    def test_rejects_small_sample_count(self):
        with pytest.raises(ConfigError):
            small_config(n_samples=999)

    def test_rejects_bad_codes(self):
        with pytest.raises(ConfigError):
            small_config(code_list=())
        with pytest.raises(ConfigError):
            small_config(code_list=((3, 3),))
        with pytest.raises(ConfigError):
            small_config(code_list=((3,),))
        with pytest.raises(ConfigError, match=str(MAX_CODE_QUBITS)):
            small_config(code_list=((MAX_CODE_QUBITS + 1, 1),))

    def test_rejects_too_many_samples(self):
        # 2**16 chunks of the default size; building the config samples
        # nothing
        assert MAX_SAMPLES == 2 ** 16 * DEFAULT_CHUNK_SIZE == 2 ** 30
        small_config(n_samples=MAX_SAMPLES)
        with pytest.raises(ConfigError, match="n_samples") as exc:
            small_config(n_samples=MAX_SAMPLES + 1)
        assert str(MAX_SAMPLES) in str(exc.value)

    def test_rejects_bad_plumbing_values(self):
        for workers in (0, MAX_WORKERS + 1, 2 ** 31, 10 ** 400):
            with pytest.raises(ConfigError, match="workers"):
                small_config(workers=workers)
        with pytest.raises(ConfigError):
            small_config(seed=-1)

    def test_rejects_bad_output_paths(self):
        for field in ("csv_path", "json_path"):
            for path in (5, ["a"], "", b"rows.csv"):
                with pytest.raises(ConfigError, match=field) as exc:
                    small_config(**{field: path})
                assert "\n" not in str(exc.value)

    def test_rejects_boolean_code_entries(self):
        for code in ((2, True), (True, 1), (3, False)):
            with pytest.raises(ConfigError, match="integers") as exc:
                small_config(code_list=(code,))
            assert "\n" not in str(exc.value)

    def test_has_exactly_its_seven_inputs(self):
        # the sweep chunks at DEFAULT_CHUNK_SIZE and splits the unencoded
        # error over the code's n steps; neither is an input
        assert [f.name for f in dataclasses.fields(SweepConfig)] == [
            "code_list", "sigma_grid", "n_samples", "seed", "workers",
            "csv_path", "json_path"]

    def test_rejects_booleans_for_integers(self):
        # bool is an int subclass; true/false in a config is a mistake
        for field in ("seed", "workers", "n_samples"):
            with pytest.raises(ConfigError, match=field):
                small_config(**{field: True})

    def test_rejects_non_numeric_sigma_grid(self):
        for grid, culprit in ((["a"], "'a'"), (5, "5"), ([True], "True"),
                              ([[0.5]], "[0.5]")):
            with pytest.raises(ConfigError, match="sigma_grid") as exc:
                small_config(sigma_grid=grid)
            message = str(exc.value)
            assert culprit in message and "\n" not in message

    def test_rejects_non_list_code_list(self):
        with pytest.raises(ConfigError, match="code_list"):
            small_config(code_list=5)

    def test_from_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "code_list": [[5, 1], [3, 1]], "sigma_grid": [0.0, 0.9],
            "n_samples": 5000, "seed": 3, "workers": 2}))
        config = SweepConfig.from_json(path)
        assert config.code_list == ((5, 1), (3, 1))
        assert config.sigma_grid == (0.0, 0.9)
        assert config.n_samples == 5000 and config.workers == 2

    def test_from_json_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "code_list": [[3, 1]], "sigma_grid": [0.0], "sigmas": [0.5]}))
        with pytest.raises(ConfigError, match="unknown"):
            SweepConfig.from_json(path)

    def test_from_json_rejects_missing_grid(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"code_list": [[3, 1]]}))
        with pytest.raises(ConfigError, match="sigma_grid"):
            SweepConfig.from_json(path)

    def test_from_json_rejects_bad_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            SweepConfig.from_json(tmp_path / "absent.json")
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            SweepConfig.from_json(path)
        path2 = tmp_path / "list.json"
        path2.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            SweepConfig.from_json(path2)

    @pytest.mark.parametrize("content, says", [
        (b"\xff", "not UTF-8"),
        (b"[" * 200_000 + b"]" * 200_000, "nests too deeply")],
        ids=["not-utf8", "too-deep"])
    def test_from_json_rejects_undecodable_file(self, tmp_path, content,
                                                says):
        # read_text raises UnicodeDecodeError, a ValueError, and json.loads
        # RecursionError: neither is an OSError or a JSONDecodeError
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=says) as exc:
            SweepConfig.from_json(path)
        assert str(path) in str(exc.value) and "\n" not in str(exc.value)


class TestClosedFormRows:
    def test_narrow_code_frozen_cell(self):
        row = closed_form_rows([(5, 1)], [0.9])[0]
        assert row.f2_psi == pytest.approx(0.8159375, abs=1e-12)
        assert row.f2_phi_tilde == pytest.approx(0.905, abs=1e-12)
        assert row.f2_psi0 == pytest.approx((1 + 0.9 ** 0.4) / 2, abs=1e-12)
        assert row.sigma_u == pytest.approx(0.9 ** 0.2, abs=1e-15)
        assert row.v_c == pytest.approx(0.2, abs=1e-15)
        assert row.v_u == pytest.approx(2 * (1 - 0.9 ** 0.2), abs=1e-15)
        assert row.ub_phi_tilde_proof == pytest.approx(
            0.9492063492063492, abs=1e-12)
        assert row.ub_phi_tilde_printed == pytest.approx(
            -0.06666666666666665, abs=1e-12)
        assert row.cond18 is True
        for slot in ("psi", "phi_tilde", "psi0"):
            assert math.isnan(getattr(row, f"mc_f2_{slot}")), slot
            assert math.isnan(getattr(row, f"mc_se_{slot}")), slot

    def test_uniform_endpoint_columns(self):
        # sigma_c = 0 is the uniform distribution; the accumulated
        # unencoded error is then uniform as well, so both corrected and
        # unencoded columns sit at 1/d_prime
        row = closed_form_rows([(5, 4)], [0.0])[0]
        assert row.f2_psi == pytest.approx(1 / 32, abs=1e-12)
        assert row.f2_phi_tilde == pytest.approx(1 / 16, abs=1e-12)
        assert row.f2_psi0 == pytest.approx(1 / 16, abs=1e-12)
        assert row.cond18 is False

    def test_lower_bound_column_is_the_variance_form(self):
        row = closed_form_rows([(4, 2)], [0.7])[0]
        d_prime = 4
        want = 1 - (2 * d_prime - 2) / (2 * d_prime - 1) \
            * (row.v_u - (row.v_u / 2) ** 2)
        assert row.lb_psi0 == pytest.approx(want, abs=1e-14)
        assert row.lb_psi0 <= row.f2_psi0 + 1e-12

    def test_unencoded_error_splits_over_n_steps(self):
        # sigma_u = sigma_c ** (1/n) reaches the closed forms and the
        # unencoded estimate alike; 0.03125 ** (1/5) is 0.5 exactly
        (row,) = run_sweep(small_config(code_list=((5, 1),),
                                        sigma_grid=(0.03125,)))
        assert row.sigma_u == 0.5
        assert row.f2_psi0 == pytest.approx((1 + 0.25) / 2, abs=1e-12)
        assert abs(row.mc_f2_psi0 - row.f2_psi0) < 5 * row.mc_se_psi0

    def test_row_count_and_order(self):
        rows = closed_form_rows([(5, 1), (3, 1)], [0.0, 0.5, 0.9])
        assert [(r.n, r.m, r.sigma_c) for r in rows] == [
            (5, 1, 0.0), (5, 1, 0.5), (5, 1, 0.9),
            (3, 1, 0.0), (3, 1, 0.5), (3, 1, 0.9)]


class TestRunSweep:
    def test_mc_columns_track_closed_forms(self):
        config = small_config(code_list=((4, 2),), sigma_grid=(0.5,),
                              n_samples=20000)
        row = run_sweep(config)[0]
        assert abs(row.mc_f2_psi - row.f2_psi) < 4 * row.mc_se_psi
        assert abs(row.mc_f2_phi_tilde - row.f2_phi_tilde) \
            < 4 * row.mc_se_phi_tilde
        assert abs(row.mc_f2_psi0 - row.f2_psi0) < 4 * row.mc_se_psi0
        assert row.mc_se_psi > 0

    def test_builds_no_polar_table(self, monkeypatch):
        def refuse(self, density):
            raise AssertionError("a sweep built a polar marginal")
        monkeypatch.setattr(PolarMarginal, "__init__", refuse)
        rows = run_sweep(small_config(code_list=((3, 1), (5, 4))))
        assert len(rows) == 4 and check_ordering(rows) == []

    def test_largest_code_tracks_closed_forms(self):
        # n = MAX_CODE_QUBITS = 40 is accepted; n = 41 exits 2 (test_cli)
        row = run_sweep(small_config(code_list=((40, 39),),
                                     sigma_grid=(0.5,), n_samples=1000))[0]
        for slot in ("psi", "phi_tilde", "psi0"):
            mc = getattr(row, f"mc_f2_{slot}")
            se = getattr(row, f"mc_se_{slot}")
            assert se > 0.0, slot
            assert abs(mc - getattr(row, f"f2_{slot}")) < 5 * se, slot

    def test_writes_requested_outputs(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "report.json"
        config = small_config(csv_path=str(csv_path),
                              json_path=str(json_path))
        rows = run_sweep(config)
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",") == [
            f.name for f in dataclasses.fields(SweepRow)]
        report = json.loads(json_path.read_text())
        assert list(report) == ["config", "provenance", "rows", "violations",
                                "timing"]
        assert report["config"]["seed"] == 11
        assert len(report["rows"]) == len(rows) == 2
        assert report["violations"] == []
        assert report["timing"]["n_cells"] == 2
        provenance = report["provenance"]
        assert list(provenance) == ["isoqec", "numpy", "scipy", "python",
                                    "seed", "chunk_size", "workers",
                                    "bit_generator"]
        assert (provenance["seed"], provenance["chunk_size"],
                provenance["workers"]) == (11, DEFAULT_CHUNK_SIZE, 1)
        assert provenance["bit_generator"] == "SFC64"
        # one entry per draw, naming its stream key and the cells it
        # serves: the raw draw on (0, 0) serves psi and psi0, and the
        # corrected law draws its own
        timed = report["timing"]["mc_seconds"]
        assert [(t["key"], t["cells"]) for t in timed] == [
            ([0, 0], [[3, 1, "psi"], [3, 1, "psi0"]]),
            ([3, 2], [[3, 1, "phi_tilde"]])]
        assert all(t["seconds"] >= 0.0 for t in timed)
        # the report reproduces its run: its config section rebuilds the
        # config, and with it the rows
        assert SweepConfig(**report["config"]) == config

    @pytest.mark.parametrize("csv_name, json_name", [
        ("out", "out"), ("out", "./out"), ("out", "sub/../out"),
        ("out", "link"), ("kept", "hard")],
        ids=["same", "dot", "dotdot", "symlink", "hardlink"])
    def test_rejects_one_file_for_both_reports(
            self, tmp_path, monkeypatch, csv_name, json_name):
        # the JSON report would overwrite the CSV; refused before sampling
        def refuse(*args, **kwargs):
            raise AssertionError("sampling started")
        monkeypatch.setattr(experiments, "raw_sampler", refuse)
        monkeypatch.setattr(experiments, "fidelity_sampler", refuse)
        monkeypatch.setattr(experiments, "mc_means", refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "out")
        # two names of one existing file
        (tmp_path / "kept").write_text("")
        os.link(tmp_path / "kept", tmp_path / "hard")
        with pytest.raises(ConfigError, match="same file") as exc:
            run_sweep(small_config(csv_path=csv_name, json_path=json_name))
        assert "\n" not in str(exc.value)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("link, says", [
        ("loop", "it is a symlink loop"),
        ("dangling", "no_dir is not a directory")])
    def test_rejects_unwritable_symlinks_before_sampling(
            self, tmp_path, monkeypatch, link, says):
        # a link to itself, or into a missing directory, fails only on
        # writing; refused before sampling, with nothing written
        def refuse(*args, **kwargs):
            raise AssertionError("sampling started")
        monkeypatch.setattr(experiments, "raw_sampler", refuse)
        monkeypatch.setattr(experiments, "fidelity_sampler", refuse)
        monkeypatch.setattr(experiments, "mc_means", refuse)
        monkeypatch.chdir(tmp_path)
        os.symlink("loop", "loop")
        os.symlink(tmp_path / "no_dir" / "out", "dangling")
        for paths in ({"csv_path": link},
                      {"csv_path": "good.csv", "json_path": link}):
            with pytest.raises(ConfigError, match=says) as exc:
                run_sweep(small_config(**paths))
            assert "\n" not in str(exc.value)
        assert sorted(os.listdir(tmp_path)) == ["dangling", "loop"]

    def test_json_timing_has_cpu_seconds_and_page_faults(self, tmp_path):
        pytest.importorskip("resource")
        path = tmp_path / "report.json"
        run_sweep(small_config(json_path=str(path)))
        timing = json.loads(path.read_text())["timing"]
        # in order: test_writes_requested_outputs pins the levels above
        assert list(timing) == ["total_seconds", "closed_form_seconds",
                                "n_cells", "cpu_user_seconds",
                                "cpu_sys_seconds", "minor_page_faults",
                                "mc_seconds", "mc_wall_seconds",
                                "mc_values_per_second"]
        assert [list(draw) for draw in timing["mc_seconds"]] == [
            ["key", "cells", "n_sigmas", "seconds"]] * 2
        assert 0.0 <= timing["closed_form_seconds"] <= timing["total_seconds"]
        assert timing["cpu_user_seconds"] >= 0.0
        assert timing["cpu_sys_seconds"] >= 0.0
        assert isinstance(timing["minor_page_faults"], int)
        assert timing["minor_page_faults"] >= 0
        # the raw draw evaluates psi's two sigma_c and psi0's two sigma_u,
        # the corrected law both sigma_c; the throughput is n_samples
        # values per sigma over the wall time of the one Monte Carlo
        # call, and on one worker the draws' busy seconds run one after
        # another inside it
        draws = timing["mc_seconds"]
        assert [draw["n_sigmas"] for draw in draws] == [4, 2]
        wall = timing["mc_wall_seconds"]
        assert 0.0 < wall <= timing["total_seconds"]
        assert all(draw["seconds"] > 0.0 for draw in draws)
        assert sum(draw["seconds"] for draw in draws) <= wall
        assert timing["mc_values_per_second"] == pytest.approx(
            2000 * 6 / wall, rel=1e-12)

    def test_csv_round_trips_exactly(self, tmp_path):
        path = tmp_path / "rows.csv"
        rows = run_sweep(small_config(csv_path=str(path)))
        lines = path.read_text().splitlines()
        names = lines[0].split(",")
        for row, line in zip(rows, lines[1:]):
            record = dict(zip(names, line.split(",")))
            assert int(record["n"]) == row.n
            assert record["cond18"] in ("true", "false")
            assert float(record["f2_psi"]) == row.f2_psi
            assert float(record["mc_f2_psi"]) == row.mc_f2_psi
            assert float(record["mc_se_psi0"]) == row.mc_se_psi0

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        # codes that share laws, four chunks per estimate
        outputs = []
        for tag, workers in (("a", 1), ("b", 1), ("c", 2), ("d", 3)):
            path = tmp_path / f"{tag}.csv"
            run_sweep(small_config(code_list=((5, 1), (5, 4), (4, 2)),
                                   n_samples=3 * DEFAULT_CHUNK_SIZE + 1000,
                                   csv_path=str(path), workers=workers))
            outputs.append(path.read_bytes())
        assert outputs[1:] == outputs[:1] * 3

    @staticmethod
    def _mc_columns(rows):
        return {(r.n, r.m, r.sigma_c): tuple(
            getattr(r, f.name) for f in dataclasses.fields(r)
            if f.name.startswith("mc_")) for r in rows}

    # (4, 2) and (5, 4) share the law (4, 0): F(Psi) of (4, 2) at sigma_c
    # and F(Psi0) of (5, 4) at sigma_c ** (1/5).  The raw laws (kept = 1)
    # share one sampler, whose (d, number of sigmas) laws come in the
    # order (4, 0), (2, 0), (5, 0)
    @pytest.mark.parametrize("overrides, sigmas, raw_laws", [
        # three chunks per estimate
        ({"n_samples": 2 * DEFAULT_CHUNK_SIZE + 1000, "workers": 2},
         (0.3, 0.6, 0.9), [(16, 6), (4, 3), (32, 3)]),
        # 40 sigmas: the law (4, 0) needs 80, ten times a sampler block
        ({"n_samples": 1000},
         tuple(round(0.02 * i, 2) for i in range(1, 41)),
         [(16, 80), (4, 40), (32, 40)]),
    ], ids=["three-sigmas", "forty-sigmas"])
    def test_cell_does_not_depend_on_the_rest_of_the_grid(
            self, overrides, sigmas, raw_laws, monkeypatch):
        calls = []
        make = experiments.raw_sampler

        def counted(laws):
            calls.append([(d, len(law_sigmas)) for d, law_sigmas in laws])
            return make(laws)

        monkeypatch.setattr(experiments, "raw_sampler", counted)
        codes = ((4, 2), (5, 4))
        alone = run_sweep(small_config(code_list=codes, sigma_grid=(0.6,),
                                       **overrides))
        assert calls == [[(16, 2), (4, 1), (32, 1)]]
        calls.clear()
        grid = run_sweep(small_config(code_list=codes, sigma_grid=sigmas,
                                      **overrides))
        assert calls == [raw_laws]
        columns = self._mc_columns(grid)
        for key, value in self._mc_columns(alone).items():
            assert columns[key] == value, key
        # reversed: a law's rows follow its sorted sigmas, not the grid
        # order
        reverse = run_sweep(small_config(code_list=codes,
                                         sigma_grid=sigmas[::-1],
                                         **overrides))
        assert self._mc_columns(reverse) == columns

    def test_one_draw_per_chunk_serves_the_whole_grid(self, monkeypatch):
        rows = []

        def counting(make):
            def made(*args):
                value_fn = make(*args)

                def draw(rng, count, scratch):
                    drawn = 0
                    for block in value_fn(rng, count, scratch):
                        drawn += len(block)
                        yield block
                    rows.append(drawn)
                return draw
            return made

        for name in ("raw_sampler", "fidelity_sampler"):
            monkeypatch.setattr(experiments, name,
                                counting(getattr(experiments, name)))
        for grid in ((0.5,), DEFAULT_SIGMA_GRID):
            rows.clear()
            run_sweep(small_config(code_list=((5, 1), (5, 4)),
                                   sigma_grid=grid,
                                   n_samples=2 * DEFAULT_CHUNK_SIZE + 1000))
            # 3 draws x 3 chunks, whatever the grid length: one raw draw
            # serves F(Psi) of both codes (the law (5, 0)) and their
            # F(Psi0) (the laws (1, 0) and (4, 0)), 3 rows per sigma, and
            # each code's corrected law draws its own
            assert sorted(rows) == sorted([len(grid)] * 6
                                          + [3 * len(grid)] * 3)

    def test_cell_does_not_depend_on_the_other_codes(self):
        # two chunks per estimate
        grid = {"sigma_grid": (0.0, 0.6),
                "n_samples": DEFAULT_CHUNK_SIZE + 1000}
        base = self._mc_columns(run_sweep(small_config(
            code_list=((5, 4), (4, 2), (3, 1)), **grid)))
        for codes in (((3, 1), (4, 2), (5, 4)), ((4, 2),),
                      ((5, 1), (4, 2), (5, 4), (3, 1))):
            columns = self._mc_columns(run_sweep(small_config(
                code_list=codes, **grid)))
            for key in set(base) & set(columns):
                assert columns[key] == base[key], (codes, key)

    def test_cells_of_one_law_share_their_estimate(self, tmp_path):
        # 0.03125 ** (1/5) == 0.5 exactly, so F(Psi0) of (5, 4) at
        # sigma_c = 0.03125 is the law of F(Psi) of (4, 2) at sigma_c = 0.5
        json_path = tmp_path / "report.json"
        rows = run_sweep(small_config(
            code_list=((5, 1), (5, 4), (4, 2)), sigma_grid=(0.03125, 0.5),
            json_path=str(json_path)))
        cell = {(row.n, row.m, row.sigma_c): row for row in rows}
        for sigma in (0.03125, 0.5):
            r51, r54 = cell[5, 1, sigma], cell[5, 4, sigma]
            assert (r51.mc_f2_psi, r51.mc_se_psi) == (
                r54.mc_f2_psi, r54.mc_se_psi)
            assert r51.mc_f2_phi_tilde != r54.mc_f2_phi_tilde
        r54, r42 = cell[5, 4, 0.03125], cell[4, 2, 0.5]
        assert r54.sigma_u == r42.sigma_c
        assert (r54.mc_f2_psi0, r54.mc_se_psi0) == (
            r42.mc_f2_psi, r42.mc_se_psi)
        # the raw draw lists its cells law by law: (5, 0), (1, 0), (4, 0)
        # and (2, 0); each corrected law its one cell
        timed = json.loads(json_path.read_text())["timing"]["mc_seconds"]
        served = {tuple(t["key"]): t["cells"] for t in timed}
        assert served == {
            (0, 0): [[5, 1, "psi"], [5, 4, "psi"], [5, 1, "psi0"],
                     [5, 4, "psi0"], [4, 2, "psi"], [4, 2, "psi0"]],
            (5, 4): [[5, 1, "phi_tilde"]], (5, 1): [[5, 4, "phi_tilde"]],
            (4, 2): [[4, 2, "phi_tilde"]]}

    def test_a_cells_three_laws_are_distinct(self):
        for n in range(2, MAX_CODE_QUBITS + 1):
            for m in range(1, n):
                keys = experiments._law_keys(n, m)
                assert len(set(keys)) == 3, (n, m)
                # small integers, far from SeedSequence's 32-bit words
                assert all(0 <= k <= MAX_CODE_QUBITS
                           for key in keys for k in key), (n, m)

    def test_closed_form_columns_are_closed_form_rows(self, tmp_path):
        # codes sharing laws ((5, 4) and (4, 2)) and a repeated code
        codes = ((5, 4), (4, 2), (5, 4), (3, 1))
        sigmas = (0.0, 0.03125, 0.5)
        json_path = tmp_path / "report.json"
        swept = run_sweep(small_config(code_list=codes, sigma_grid=sigmas,
                                       json_path=str(json_path)))
        closed = closed_form_rows(codes, sigmas)
        mc = {f"mc_{kind}_{slot}" for kind in ("f2", "se")
              for slot in ("psi", "phi_tilde", "psi0")}
        assert len(swept) == len(closed) == 12
        for row, want in zip(swept, closed):
            for field in dataclasses.fields(SweepRow):
                if field.name not in mc:
                    assert getattr(row, field.name) \
                        == getattr(want, field.name), field.name
            assert not any(math.isnan(getattr(row, name)) for name in mc)
        # the raw draw lists every raw cell, law by law, the repeated
        # code twice
        timed = json.loads(json_path.read_text())["timing"]["mc_seconds"]
        served = {tuple(t["key"]): t["cells"] for t in timed}
        assert served[0, 0] == [
            [5, 4, "psi"], [5, 4, "psi"], [5, 4, "psi0"], [4, 2, "psi"],
            [5, 4, "psi0"], [4, 2, "psi0"], [3, 1, "psi"], [3, 1, "psi0"]]

    def test_seed_changes_mc_columns_only(self):
        row_a = run_sweep(small_config(seed=11))[0]
        row_b = run_sweep(small_config(seed=12))[0]
        assert row_a.f2_psi == row_b.f2_psi
        assert row_a.mc_f2_psi != row_b.mc_f2_psi


class TestCheckOrdering:
    def test_accepts_consistent_rows(self):
        rows = run_sweep(small_config())
        assert check_ordering(rows) == []

    def test_flags_inverted_estimates(self):
        row = closed_form_rows([(5, 1)], [0.5])[0]
        bad = dataclasses.replace(
            row, mc_f2_psi=0.9, mc_se_psi=0.001,
            mc_f2_phi_tilde=0.6, mc_se_phi_tilde=0.001,
            mc_f2_psi0=0.95, mc_se_psi0=0.001)
        violations = check_ordering([bad])
        assert len(violations) == 1
        assert violations[0]["pair"] == "phi_tilde_vs_psi"
        assert violations[0]["gap"] > violations[0]["allowed"]

    @pytest.mark.parametrize("column", [
        "mc_f2_psi", "mc_se_psi", "mc_f2_phi_tilde", "mc_se_phi_tilde",
        "mc_f2_psi0", "mc_se_psi0"])
    def test_flags_nan_columns(self, column):
        row = run_sweep(small_config())[1]
        assert check_ordering([row]) == []
        bad = dataclasses.replace(row, **{column: math.nan})
        violations = check_ordering([bad])
        # psi0 and psi each sit in one pair, phi_tilde in both
        want = 2 if "phi_tilde" in column else 1
        assert len(violations) == want
        assert all(v["sigma_c"] == row.sigma_c for v in violations)

    def test_flags_closed_form_only_rows(self):
        # closed_form_rows leaves every MC column NaN
        rows = closed_form_rows([(3, 1)], [0.0, 0.5])
        assert len(check_ordering(rows)) == 2 * len(rows)


class TestVerifyAppendix:
    def test_default_run_passes(self):
        report = verify_appendix()
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == ["sin-power-odd", "sin-power-even",
                         "sin-power-partial", "kernel-inverse-square", "kernel-cosine-weighted",
                         "kernel-plain-power", "sphere-even-dim",
                         "sphere-odd-dim"]
        assert all(c.status == "ok" for c in report.checks)

    def test_takes_no_tolerance(self):
        # every family is judged at APPENDIX_REL_TOL
        assert inspect.signature(verify_appendix).parameters == {}
        assert experiments.APPENDIX_REL_TOL == 1e-9

    def test_impossible_tolerance_fails(self, monkeypatch):
        monkeypatch.setattr(experiments, "APPENDIX_REL_TOL", 1e-16)
        report = verify_appendix()
        assert not report.passed
        assert any(c.status == "failed" for c in report.checks)

    def test_each_integral_is_computed_once(self, monkeypatch):
        # 129 sin-power + 35 partial (alpha < pi) + 84 kernel quadratures;
        # the sphere recursion and the alpha = pi caps reuse sin-power ones
        calls = []
        quad = scipy.integrate.quad

        def counting_quad(*args, **kwargs):
            calls.append(None)
            return quad(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "quad", counting_quad)
        verify_appendix()
        assert len(calls) == 248
        verify_theorems()
        assert len(calls) == 248

    def test_to_dict_shape(self):
        report = verify_appendix()
        data = report.to_dict()
        assert data["name"] == "appendix" and data["passed"] is True
        assert all(set(c) == {"name", "status", "detail", "passed"}
                   for c in data["checks"])


@pytest.fixture(scope="module")
def report():
    return verify_theorems()


@pytest.fixture(scope="module")
def figure_rows():
    return closed_form_rows(FIGURE_CODES, DEFAULT_SIGMA_GRID)


class TestVerifyTheorems:
    def test_passes(self, report):
        assert report.passed

    def test_section_names(self, report):
        assert [c.name for c in report.checks] == [
            "fidelity-ordering-chain", "normal-closed-forms",
            "uncoded-lower-bound", "corrected-upper-bound-proof",
            "corrected-upper-bound-printed", "composition-gap-nonnegative"]

    def test_printed_bound_reported_as_erratum(self, report):
        printed = {c.name: c for c in report.checks}[
            "corrected-upper-bound-printed"]
        assert printed.status == "erratum-confirmed"
        assert printed.passed

    def test_proof_bound_has_applicable_cases(self, report):
        proof = {c.name: c for c in report.checks}[
            "corrected-upper-bound-proof"]
        assert proof.status == "ok"
        assert "skipped" in proof.detail


class TestEmitFigure:
    def test_svg_structure(self, figure_rows, tmp_path):
        path = tmp_path / "fig.svg"
        emit_figure2(figure_rows, path)
        root = ET.parse(path).getroot()
        assert root.tag == f"{SVG_NS}svg"
        polylines = root.findall(f".//{SVG_NS}polyline")
        assert len(polylines) == 6
        texts = [t.text for t in root.findall(f".//{SVG_NS}text")]
        assert "n=5, m=1" in texts and "n=5, m=4" in texts

    def test_metadata_matches_rows(self, figure_rows, tmp_path):
        path = tmp_path / "fig.svg"
        emit_figure2(figure_rows, path)
        meta = ET.parse(path).getroot().find(f"{SVG_NS}metadata")
        panels = json.loads(meta.text)["panels"]
        assert [(p["n"], p["m"]) for p in panels] == [(5, 1), (5, 4)]
        by_code = {(r.n, r.m): [] for r in figure_rows}
        for r in figure_rows:
            by_code[(r.n, r.m)].append(r)
        for panel in panels:
            rows = sorted(by_code[(panel["n"], panel["m"])],
                          key=lambda r: r.sigma_c)
            assert panel["sigma_c"] == [r.sigma_c for r in rows]
            assert panel["f2_psi"] == [r.f2_psi for r in rows]
            assert panel["f2_phi_tilde"] == [r.f2_phi_tilde for r in rows]
            assert panel["f2_psi0"] == [r.f2_psi0 for r in rows]

    def test_curves_monotone_and_ordered(self, figure_rows, tmp_path):
        path = tmp_path / "fig.svg"
        emit_figure2(figure_rows, path)
        meta = ET.parse(path).getroot().find(f"{SVG_NS}metadata")
        for panel in json.loads(meta.text)["panels"]:
            for key in ("f2_psi", "f2_phi_tilde", "f2_psi0"):
                values = panel[key]
                assert all(a <= b + 1e-15
                           for a, b in zip(values, values[1:])), key
            for psi, phi, psi0 in zip(panel["f2_psi"],
                                      panel["f2_phi_tilde"],
                                      panel["f2_psi0"]):
                assert psi <= phi + 1e-12 <= psi0 + 2e-12

    def test_write_failure_carries_path(self, figure_rows, tmp_path):
        target = tmp_path / "no_dir" / "fig.svg"
        with pytest.raises(ConfigError, match="no_dir"):
            emit_figure2(figure_rows, target)


class TestWriteCsvErrors:
    def test_write_failure_carries_path(self, tmp_path):
        rows = closed_form_rows([(3, 1)], [0.0])
        with pytest.raises(ConfigError, match="missing"):
            write_csv(rows, tmp_path / "missing" / "rows.csv")
