"""Every line of src/isoqec that no command runs is listed, with a reason.

route_audit.py runs every command in a fresh interpreter under trace and
reports the lines that none of them ran; unrun_lines.txt lists the lines
allowed to stay unrun, each with one reason from REASONS (its header
says what each means).  An unrun line that is not listed fails, and so
does a listed line that now runs or no longer exists, so code that only
tests call cannot come back unnoticed and the list cannot go stale.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import isoqec

HERE = Path(__file__).resolve().parent
LISTED = HERE / "unrun_lines.txt"
REASONS = {"probes", "input", "error", "platform", "report", "refusal"}
# route_audit.py runs five commands that succeed, then exit-2 cases
SUCCEEDING = 5


def listed_lines():
    """[((module, function, text), reason)] from unrun_lines.txt."""
    entries = []
    for line in LISTED.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            module, function, reason, text = line.split(None, 3)
            entries.append(((module, function, text), reason))
    return entries


def test_each_entry_has_one_known_reason():
    unknown = [(key, reason) for key, reason in listed_lines()
               if reason not in REASONS]
    assert not unknown, unknown


def test_unrun_lines_are_the_listed_ones(tmp_path):
    src = str(Path(isoqec.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(HERE / "route_audit.py"), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    statuses = report["statuses"]
    assert statuses[:SUCCEEDING] == [0] * SUCCEEDING, statuses
    assert set(statuses[SUCCEEDING:]) == {2}, statuses

    unrun = Counter(tuple(entry[:3]) for entry in report["unrun"])
    listed = Counter(key for key, _ in listed_lines())
    where = {tuple(entry[:3]): entry[3] for entry in report["unrun"]}
    unlisted = [f"{module}.py:{where[module, function, text]} "
                f"({function}): {text}"
                for (module, function, text) in (unrun - listed).elements()]
    stale = [f"{module} {function}: {text}"
             for (module, function, text) in (listed - unrun).elements()]
    assert not unlisted and not stale, "".join(
        f"\n{heading}:\n  " + "\n  ".join(lines)
        for heading, lines in (
            ("unrun by every command and not in unrun_lines.txt", unlisted),
            ("in unrun_lines.txt but run by a command, or gone", stale))
        if lines)
