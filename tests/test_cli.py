"""Command line behavior: subcommands, overrides, exit codes."""

import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import isoqec
from isoqec.cli import main


def write_config(tmp_path, **overrides):
    data = {"code_list": [[3, 1]], "sigma_grid": [0.0, 0.5],
            "n_samples": 2000, "seed": 11}
    data.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestSweepCommand:
    def test_writes_outputs_and_succeeds(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "report.json"
        rc = main(["sweep", "--config", write_config(tmp_path),
                   "--csv", str(csv_path), "--json", str(json_path)])
        assert rc == 0
        assert csv_path.exists() and json_path.exists()
        out = capsys.readouterr().out
        assert "2 cells evaluated" in out
        assert "ordering holds" in out

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = main(["sweep", "--config", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_override_exits_2(self, tmp_path, capsys):
        rc = main(["sweep", "--config", write_config(tmp_path),
                   "--samples", "10"])
        assert rc == 2
        assert "n_samples" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"seed": True}, {"sigma_grid": ["a"]}, {"sigma_grid": 5},
        {"code_list": 5}])
    def test_bad_config_values_exit_2(self, tmp_path, capsys, overrides):
        rc = main(["sweep", "--config", write_config(tmp_path, **overrides)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert next(iter(overrides)) in err

    def test_seed_override_changes_estimates(self, tmp_path):
        config = write_config(tmp_path)
        outputs = []
        for seed in ("21", "21", "22"):
            csv_path = tmp_path / f"rows{len(outputs)}.csv"
            assert main(["sweep", "--config", config, "--seed", seed,
                         "--csv", str(csv_path)]) == 0
            outputs.append(csv_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0] != outputs[2]

    def test_worker_override_keeps_output(self, tmp_path):
        config = write_config(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["sweep", "--config", config, "--csv", str(a)]) == 0
        assert main(["sweep", "--config", config, "--csv", str(b),
                     "--workers", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("code", [[13, 1], [1100, 1]])
    def test_codes_beyond_the_sampler_exit_2(self, tmp_path, capsys, code):
        rc = main(["sweep", "--config", write_config(tmp_path,
                                                     code_list=[code])])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and str(code[0]) in err

    def test_large_codes_run_to_an_answer(self, tmp_path, capsys):
        # coded spheres of n >= 8 qubits have surfaces below float64 range
        csv_path = tmp_path / "rows.csv"
        config = write_config(tmp_path, code_list=[[8, 1], [12, 11]],
                              sigma_grid=[0.5, 0.95], n_samples=20000)
        rc = main(["sweep", "--config", config, "--csv", str(csv_path)])
        assert rc in (0, 1)
        assert "cells evaluated" in capsys.readouterr().out
        with csv_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            for slot in ("psi", "phi_tilde", "psi0"):
                mc = float(row[f"mc_f2_{slot}"])
                se = float(row[f"mc_se_{slot}"])
                assert abs(mc - float(row[f"f2_{slot}"])) <= 5 * se, (
                    row["n"], row["m"], row["sigma_c"], slot)


class TestQuadpackImport:
    def test_sweep_skips_quadpack_and_verify_loads_it(self, tmp_path):
        # a fresh interpreter, since this one imported scipy.integrate long ago
        script = textwrap.dedent("""
            import sys
            import isoqec.cli as cli
            assert cli.main(["sweep", "--samples", "1000",
                             "--csv", sys.argv[1]]) == 0
            assert "scipy.integrate" not in sys.modules
            assert cli.main(["verify", "appendix"]) == 0
            assert "scipy.integrate" in sys.modules
        """)
        src = str(Path(isoqec.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "rows.csv")],
            cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr


class TestVerifyCommands:
    def test_appendix_passes(self, capsys):
        rc = main(["verify", "appendix"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["name"] == "appendix" and report["passed"] is True

    def test_appendix_tolerance_flag(self, capsys):
        rc = main(["verify", "appendix", "--rel-tol", "1e-16"])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False

    def test_appendix_bad_tolerance_exits_2(self, capsys):
        rc = main(["verify", "appendix", "--rel-tol", "0"])
        assert rc == 2
        assert "rel_tol" in capsys.readouterr().err

    def test_theorems_reports_erratum(self, capsys):
        rc = main(["verify", "theorems"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["corrected-upper-bound-printed"] \
            == "erratum-confirmed"


class TestFigureCommand:
    def test_writes_svg(self, tmp_path, capsys):
        out = tmp_path / "fig.svg"
        rc = main(["figure2", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("<svg")
        assert "wrote" in capsys.readouterr().out

    def test_unwritable_path_exits_2(self, tmp_path, capsys):
        rc = main(["figure2", "--out", str(tmp_path / "no_dir" / "f.svg")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestArgumentErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "theorems", "--seed", "1"],
        ["verify", "appendix", "--samples", "1000"],
        ["figure2", "--out", "f.svg", "--workers", "2"]])
    def test_sampling_flags_only_on_sweep(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_missing_figure_out_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["figure2"])
        assert exc.value.code == 2
