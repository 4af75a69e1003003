"""Command line behavior: subcommands, overrides, exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import isoqec
from isoqec import cli, experiments
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

    @pytest.mark.parametrize("content, says", [
        (b"\xff", "not UTF-8"),
        (b"[" * 200_000 + b"]" * 200_000, "nests too deeply")],
        ids=["not-utf8", "too-deep"])
    def test_undecodable_config_exits_2(self, tmp_path, capsys, content,
                                        says):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        assert main(["sweep", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err and str(path) in err

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

    @pytest.mark.parametrize("key, value", [
        ("sigma_grid", "0.5"), ("code_list", "[[3, 1]]")])
    def test_string_lists_are_named_whole(self, tmp_path, capsys, key,
                                          value):
        # a string iterates by character; the message quotes what was given
        rc = main(["sweep", "--config",
                   write_config(tmp_path, **{key: value})])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err and repr(value) in err

    @pytest.mark.parametrize("overrides, sigma, steps", [
        ({"sigma_grid": [0.9999999999999999]}, "0.9999999999999999", "3"),
        # below 1 over 3 steps, but 1.0 over the 40 of a (40, 1) code
        ({"code_list": [[3, 1], [40, 1]], "sigma_grid": [1 - 1e-15]},
         "0.999999999999999", "40")])
    def test_sigma_u_rounding_to_one_exits_2(self, tmp_path, capsys,
                                             overrides, sigma, steps):
        config = write_config(tmp_path, n_samples=1000, **overrides)
        assert main(["sweep", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"sigma {sigma} " in err and f"{steps} steps" in err

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

    def test_negative_zero_sigma_is_written_as_zero(self, tmp_path):
        # -0.0 is a valid sigma; sigma_c would print it as -0 beside a
        # sigma_u of 0
        path = tmp_path / "rows.csv"
        config = write_config(tmp_path, sigma_grid=[0.0, -0.0],
                              n_samples=1000)
        assert main(["sweep", "--config", config, "--csv", str(path)]) == 0
        with path.open(newline="") as handle:
            records = list(csv.DictReader(handle))
        assert [r["sigma_c"] for r in records] == ["0", "0"]
        assert all(value != "-0" for record in records
                   for value in record.values())

    @pytest.mark.parametrize("code", [[2, True], [True, 1], [3, False]])
    def test_boolean_code_entries_exit_2(self, tmp_path, capsys, code):
        rc = main(["sweep", "--config", write_config(tmp_path,
                                                     code_list=[code])])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "integers" in err and "Traceback" not in err

    @pytest.mark.parametrize("code", [[41, 1], [1100, 1]])
    def test_codes_beyond_the_sampler_exit_2(self, tmp_path, capsys, code):
        rc = main(["sweep", "--config", write_config(tmp_path,
                                                     code_list=[code])])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and str(code[0]) in err

    def test_too_many_samples_exit_2(self, tmp_path, capsys, monkeypatch):
        # 2**31 samples are 2**17 chunks, rejected by the config: run_sweep,
        # the only caller of mc_mean, never starts, so no array or thread
        # exists
        def refuse(config):
            raise AssertionError("the sweep started")
        monkeypatch.setattr(cli, "run_sweep", refuse)
        config = write_config(tmp_path, sigma_grid=[0.5], n_samples=2 ** 31)
        assert main(["sweep", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "n_samples" in err and str(2 ** 30) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("overrides, flags, says", [
        ({"csv_path": 5}, [], "csv_path"),
        ({"json_path": ["a"]}, [], "json_path"),
        ({"csv_path": ""}, [], "csv_path"),
        ({"json_path": ""}, [], "json_path"),
        ({}, ["--csv", ""], "csv_path"),
        ({}, ["--csv", "missing"], "is not a directory"),
        ({}, ["--json", "missing"], "is not a directory"),
        ({}, ["--csv", "dir"], "it is a directory"),
        ({}, ["--json", "dir"], "it is a directory"),
        ({}, ["--csv", "nul"], "NUL byte"),
        ({}, ["--json", "nul"], "NUL byte"),
        # links that only writing would find unusable: one to itself, and
        # one into a missing directory
        ({}, ["--csv", "loop"], "symlink loop"),
        ({}, ["--csv", "good", "--json", "loop"], "symlink loop"),
        ({}, ["--csv", "dangling"], "is not a directory"),
        ({}, ["--csv", "good", "--json", "dangling"], "is not a directory"),
        # the JSON report would overwrite the CSV
        ({}, ["--csv", "good", "--json", "good"], "same file"),
        ({}, ["--csv", "out", "--json", "./out"], "same file"),
        # paths that resolving alone passes: a lone surrogate from JSON,
        # a missing directory collapsed by "..", and an over-long name
        ({"csv_path": "\ud800"}, [], "surrogates not allowed"),
        ({}, ["--csv", "surrogate"], "surrogates not allowed"),
        ({}, ["--csv", "dotdot"], "no_dir/.. is not a directory"),
        ({}, ["--json", "dotdot"], "no_dir/.. is not a directory"),
        ({}, ["--csv", "long"], "longer than"),
        ({}, ["--csv", "good", "--json", "long"], "longer than")])
    def test_bad_output_paths_exit_2_before_sampling(
            self, tmp_path, capsys, monkeypatch, overrides, flags, says):
        # the sweep builds its samplers, then runs them in one call
        def refuse(*args, **kwargs):
            raise AssertionError("sampling started")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(experiments, "fidelity_sampler", refuse)
        monkeypatch.setattr(experiments, "mc_means", refuse)
        os.symlink("loop", "loop")
        os.symlink(tmp_path / "no_dir" / "out", "dangling")
        rc = main(["sweep", "--config", write_config(tmp_path, **overrides),
                   *(_path(flag, str(tmp_path), "out") for flag in flags)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pathconf", ["missing", "no-limit"])
    def test_without_a_name_limit_long_names_fail_on_writing(
            self, tmp_path, capsys, monkeypatch, pathconf):
        # no os.pathconf (not POSIX), or a PC_NAME_MAX of -1 (no limit):
        # the check before sampling passes every name length, so a sweep
        # writes its CSV, and an over-long name fails only when written
        if pathconf == "missing":
            monkeypatch.delattr(os, "pathconf", raising=False)
        else:
            monkeypatch.setattr(os, "pathconf", lambda path, name: -1)
        sampled = []
        run = experiments.mc_means

        def counted(*args, **kwargs):
            sampled.append(True)
            return run(*args, **kwargs)
        monkeypatch.setattr(experiments, "mc_means", counted)
        config = write_config(tmp_path)
        csv_path = tmp_path / "rows.csv"
        assert main(["sweep", "--config", config, "--csv", str(csv_path)]) \
            == 0
        assert csv_path.read_text().startswith("n,m,")
        capsys.readouterr()
        long_path = _path("long", str(tmp_path), "out")
        assert main(["sweep", "--config", config, "--csv", long_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "File name too long" in err and "Traceback" not in err
        assert sampled == [True, True]

    def test_too_many_workers_exit_2(self, tmp_path, capsys):
        # rejected by the config, before any thread starts
        assert main(["sweep", "--config", write_config(tmp_path),
                     "--workers", "65"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "workers" in err and "Traceback" not in err

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
        self._run_fresh(script, tmp_path)

    def test_sweep_loads_neither_quadpack_nor_special(self, tmp_path):
        script = textwrap.dedent("""
            import sys
            import isoqec.cli as cli
            assert cli.main(["sweep", "--samples", "1000",
                             "--csv", sys.argv[1]]) == 0
            loaded = {"scipy.integrate", "scipy.special"} & set(sys.modules)
            assert not loaded, loaded
        """)
        self._run_fresh(script, tmp_path)

    def test_import_loads_no_sampling_or_quadrature_module(self, tmp_path):
        # every command pays for this import before it starts, so the
        # modules only sampling or quadrature use load on first use
        script = textwrap.dedent("""
            import sys
            import isoqec.cli
            loaded = {"numpy.random", "scipy.integrate", "scipy.special",
                      "concurrent.futures"} & set(sys.modules)
            assert not loaded, loaded
        """)
        self._run_fresh(script, tmp_path)

    def test_verify_theorems_skips_quadpack(self, tmp_path):
        # every cap and normal moment it reads has a closed form
        script = textwrap.dedent("""
            import sys
            import isoqec.cli as cli
            assert cli.main(["verify", "theorems"]) == 0
            assert "scipy.integrate" not in sys.modules
        """)
        self._run_fresh(script, tmp_path)

    @staticmethod
    def _run_fresh(script, tmp_path):
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

    @pytest.mark.parametrize("key, value", [
        ("chunk_size", 16384), ("n_steps_override", 5)],
        ids=["chunk_size", "n_steps_override"])
    def test_retired_knobs_exit_2(self, tmp_path, capsys, monkeypatch,
                                  key, value):
        # chunk_size and n_steps_override are no longer config keys
        def refuse(*args, **kwargs):
            raise AssertionError("sampling started")
        monkeypatch.setattr(experiments, "mc_means", refuse)
        config = write_config(tmp_path, **{key: value})
        assert main(["sweep", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unknown keys" in err and key in err

    @pytest.mark.parametrize("flags", [
        ["--rel-tol", "1e-9"], ["--rel-tol=1e-9"], ["--rel-tol", "-1e+16"],
        ["--rel", "1e-9"], ["--rel-tol"]])
    def test_appendix_refuses_rel_tol(self, capsys, monkeypatch, flags):
        # --rel-tol is no longer an option, in any spelling argparse
        # accepted for it; no check runs and no report is printed
        def refuse():
            raise AssertionError("the appendix report ran")
        monkeypatch.setattr(cli, "verify_appendix", refuse)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "appendix", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--rel" in captured.err


# generated inputs: every accepted input runs, every other one exits 2
# with a one-line error; in process, so a traceback is a raised exception
GENERATED = settings(derandomize=True, deadline=None, database=None)

# a config that should run, and at most one key replaced by a value the
# config must refuse; the edge values of a key are in its good strategy
_GOOD = {
    # n up to 45: codes above MAX_CODE_QUBITS = 40 are refused
    "code_list": st.lists(st.integers(2, 45).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n - 1)).map(list)),
        min_size=1, max_size=3),
    "sigma_grid": st.lists(st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from([-0.0, 5e-324, math.nextafter(1.0, 0.0)])),
        min_size=1, max_size=3),
    "n_samples": st.integers(1000, 2000),
    "seed": st.integers(0, 2 ** 130),
    # at most two threads: test_experiments checks the > 64 rejection
    "workers": st.sampled_from([1, 2]),
    "csv_path": st.sampled_from([None, "good"]),
    "json_path": st.sampled_from([None, "good"]),
}
_BAD = {
    "code_list": st.sampled_from([
        [], 5, "[[3, 1]]", [[3]], [[3, 1, 1]], [[True, 1]], [[3.0, 1]],
        ["31"], [None], [[1, 1]], [[2, 0]]]),
    "sigma_grid": st.sampled_from([
        [], 5, "0.5", [1.0], [math.nan], [math.inf], [10 ** 400], [True],
        ["0.5"], [-1e-300]]),
    # 2**30 + 1 is one sample past 2**16 chunks of 16384
    "n_samples": st.sampled_from([999, 0, -1, 1500.0, True, "2000",
                                  2 ** 30 + 1]),
    "seed": st.sampled_from([-1, 1.0, True]),
    # retired keys: any value is an unknown key
    "n_steps_override": st.sampled_from([None, 1, 5]),
    "chunk_size": st.sampled_from([1000, 16384]),
    "workers": st.sampled_from([0, 2.0, True]),
    "csv_path": st.sampled_from(["missing", "dir", "nul", "", 5,
                                 "surrogate", "dotdot", "long"]),
    "json_path": st.sampled_from(["missing", "nul", "", ["a"],
                                  "surrogate", "dotdot", "long"]),
}


def _with_one_bad(drawn):
    config, bad = drawn
    return config if bad is None else {**config, bad[0]: bad[1]}


_CONFIG = st.tuples(
    st.fixed_dictionaries(_GOOD),
    st.one_of(st.none(), st.sampled_from(sorted(_BAD)).flatmap(
        lambda key: st.tuples(st.just(key), _BAD[key])))).map(_with_one_bad)


def _path(kind, tmp, name):
    """A good, missing-directory, directory, NUL-byte, lone-surrogate,
    "missing/.." or over-long path, or kind."""
    if not isinstance(kind, str):
        return kind
    return {"good": os.path.join(tmp, name),
            "missing": os.path.join(tmp, "no_dir", name),
            "dir": tmp,
            "nul": os.path.join(tmp, "a\x00" + name),
            "surrogate": os.path.join(tmp, "\ud800" + name),
            "dotdot": os.path.join(tmp, "no_dir", "..", name),
            "long": os.path.join(tmp, name + "x" * 300)}.get(kind, kind)


def _run_cleanly(argv):
    """cli.main in process: exit 0, 1 or 2, and exit 2 says one line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), rc
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if rc == 2:
        assert err.getvalue().startswith("error: "), err.getvalue()
        assert err.getvalue().count("\n") == 1, err.getvalue()
    return rc


class TestGeneratedInputs:
    @settings(GENERATED, max_examples=60)
    @given(_CONFIG)
    @example({"code_list": [[3, 1]], "sigma_grid": [10 ** 400],
              "n_samples": 1000})
    @example({"code_list": [[3, 1]], "sigma_grid": [0.5],
              "n_samples": 1000, "csv_path": "nul"})
    @example({"code_list": [[3, 1]], "sigma_grid": [0.5],
              "n_samples": 1000, "json_path": "nul"})
    @example({"code_list": [[3, 1]], "sigma_grid": [0.5],
              "n_samples": 1000, "csv_path": "surrogate"})
    def test_sweep_configs(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            data = dict(data)
            for key in ("csv_path", "json_path"):
                if key in data:
                    data[key] = _path(data[key], tmp, key)
            config = os.path.join(tmp, "cfg.json")
            Path(config).write_text(json.dumps(data))
            _run_cleanly(["sweep", "--config", config])

    @settings(GENERATED, max_examples=10)
    @given(st.sampled_from(["good", "missing", "dir", "nul", ""]))
    @example("nul")
    def test_figure2_paths(self, kind):
        with tempfile.TemporaryDirectory() as tmp:
            assert _run_cleanly(
                ["figure2", "--out", _path(kind, tmp, "f.svg")]) in (0, 2)
