"""Which lines of src/isoqec no command runs.

Runs every command a user has, in this one interpreter, under the
standard library's trace, with threading.settrace on so that sweep
workers count: the default sweep on two workers (at 40000 samples, so
each law takes three chunks, the last one ragged) with CSV and JSON
outputs, a --config sweep, both verify reports, figure2, and one exit-2
case for each refusal of a config file, a config value or an output
path.  Then prints, as JSON, one [module, function, line text, line
number] entry per executable line of src/isoqec that none of them ran.
A line is keyed by its module, its enclosing function and its stripped
text, not its number, so that an edit elsewhere leaves the key alone.
test_route_audit.py compares the keys with unrun_lines.txt.

    PYTHONPATH=src python tests/route_audit.py [scratch directory]
"""

import ast
import contextlib
import importlib.util
import io
import json
import os
import runpy
import sys
import tempfile
import threading
import trace
import types
from pathlib import Path

# a config that runs; each exit-2 case below replaces or adds one key
GOOD = {"code_list": [[3, 1]], "sigma_grid": [0.0, 0.5],
        "n_samples": 2000, "seed": 11}

# config values SweepConfig refuses, one per check
BAD_VALUES = [
    {"code_list": "[[3, 1]]"}, {"code_list": 5}, {"code_list": []},
    {"code_list": [[3]]}, {"code_list": [[True, 1]]},
    {"code_list": [[1, 1]]}, {"code_list": [[41, 1]]},
    {"sigma_grid": "0.5"}, {"sigma_grid": 5}, {"sigma_grid": ["a"]},
    {"sigma_grid": [1.0]}, {"sigma_grid": []},
    {"sigma_grid": [0.9999999999999999]},
    {"n_samples": 999}, {"seed": -1}, {"workers": 0},
    {"csv_path": 5}, {"json_path": ""},
]

# config files from_json refuses, by content
BAD_FILES = [b"\xff", b"[" * 200_000 + b"]" * 200_000, b"{",
             b"[]", json.dumps({**GOOD, "chunk_size": 1}).encode(),
             json.dumps({"code_list": [[3, 1]]}).encode()]

# output paths the sweep refuses before sampling, as --csv/--json flags
# relative to the scratch directory
BAD_PATHS = [["--csv", "a\0b"], ["--csv", "\ud800"], ["--csv", "loop"],
             ["--csv", "."], ["--csv", "no_dir/out"],
             ["--csv", "no_dir/../out"], ["--csv", "x" * 300],
             ["--csv", "out", "--json", "./out"]]


def commands(tmp: str):
    """argv of every traced command, in order."""
    def config(name, data):
        path = os.path.join(tmp, name)
        Path(path).write_bytes(data if isinstance(data, bytes)
                               else json.dumps(data).encode())
        return path

    csv_path, json_path = (os.path.join(tmp, name)
                           for name in ("sweep.csv", "sweep.json"))
    yield ["sweep", "--workers", "2", "--samples", "40000",
           "--csv", csv_path, "--json", json_path]
    yield ["sweep", "--config", config("good.json", {
        **GOOD, "csv_path": csv_path, "json_path": json_path})]
    yield ["verify", "appendix"]
    yield ["verify", "theorems"]
    yield ["figure2", "--out", os.path.join(tmp, "figure2.svg")]
    yield ["figure2", "--out", os.path.join(tmp, "no_dir", "figure2.svg")]
    yield ["sweep", "--config", os.path.join(tmp, "absent.json")]
    for i, data in enumerate(BAD_FILES):
        yield ["sweep", "--config", config(f"file{i}.json", data)]
    for i, value in enumerate(BAD_VALUES):
        yield ["sweep", "--config", config(f"value{i}.json",
                                           {**GOOD, **value})]
    os.symlink("loop", os.path.join(tmp, "loop"))
    good = config("paths.json", GOOD)
    for flags in BAD_PATHS:
        yield ["sweep", "--config", good,
               *(f if f.startswith("--") else os.path.join(tmp, f)
                 for f in flags)]


def run_commands(tmp: str) -> list:
    """Each command's exit status; the last goes through python -m."""
    from isoqec.cli import main
    statuses = []
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for argv in commands(tmp):
            statuses.append(main(argv))
        # `python -m isoqec.cli` with no command: argparse exits 2
        sys.argv = ["isoqec"]
        try:
            runpy.run_module("isoqec.cli", run_name="__main__")
        except SystemExit as exc:
            statuses.append(exc.code)
    return statuses


def executable_lines(source: str, path: str) -> set:
    """Line numbers of the instructions of every code object compiled
    from source, with no line 0 or None (instructions of no line)."""
    lines, stack = set(), [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts
                     if isinstance(const, types.CodeType))
    return lines


def enclosing_functions(source: str) -> dict:
    """line number -> qualified name of its innermost def or class."""
    owner = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                for line in range(child.lineno, child.end_lineno + 1):
                    owner[line] = name
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return owner


def unrun_lines(tmp: str) -> tuple[list, list]:
    """The exit statuses, and [module, function, text, line number] of
    every executable src/isoqec line the commands left unrun."""
    # found, not imported: the import runs under the tracer.  The
    # libraries it loads are imported first, so that trace spends no
    # time on their lines
    package = Path(importlib.util.find_spec("isoqec").origin).resolve().parent
    for name in ("argparse", "numpy", "numpy.random", "scipy.integrate",
                 "scipy.special"):
        importlib.import_module(name)
    tracer = trace.Trace(count=1, trace=0)
    threading.settrace(tracer.globaltrace)
    try:
        statuses = tracer.runfunc(run_commands, tmp)
    finally:
        threading.settrace(None)
    ran = {}
    for (filename, line) in tracer.results().counts:
        ran.setdefault(os.path.realpath(filename), set()).add(line)
    unrun = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        owner = enclosing_functions(source)
        for line in sorted(executable_lines(source, str(path))
                           - ran.get(str(path), set())):
            unrun.append([path.stem, owner.get(line, "<module>"),
                          lines[line - 1].strip(), line])
    return statuses, unrun


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        statuses, unrun = unrun_lines(sys.argv[1] if len(sys.argv) > 1
                                      else scratch)
    print(json.dumps({"statuses": statuses, "unrun": unrun}))
