"""Every CLI command of the README, run verbatim, ends with its documented exit status
and prints no traceback and no warning.

A command's status is 0 unless the README notes ``# exits N`` beside it.  Each
runs in a fresh working directory as ``python -m diamondgmc.cli``, the module
behind the ``diamondgmc`` script, and its manifest records exactly the settings
the CLI declares for it (for ``gmc``, for its check).  The README's tables of
each command's and each ``gmc`` check's flags match those declared settings.
"""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import diamondgmc
from diamondgmc.cli import COMMAND_SETTINGS, GMC_CHECK_SETTINGS

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(diamondgmc.__file__).resolve().parents[1]


def readme_commands():
    """(arguments after ``diamondgmc``, documented exit status) of each README command."""
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", README.read_text(), re.S):
        for line in block.splitlines():
            command, _, comment = line.partition("#")
            words = shlex.split(command)
            if words[:1] == ["diamondgmc"]:
                status = re.search(r"exits (\d+)", comment)
                commands.append((words[1:], int(status.group(1)) if status else 0))
    return commands


COMMANDS = readme_commands()


def command_id(argv):
    if "--check" in argv:
        return f"{argv[0]}-{argv[argv.index('--check') + 1]}"
    return argv[0]


def test_readme_lists_every_command():
    assert {argv[0] for argv, _ in COMMANDS} == {
        "rfunc", "correlation", "simulate", "gmc", "fixed-point",
    }


@pytest.mark.parametrize("argv, status", COMMANDS, ids=[command_id(a) for a, _ in COMMANDS])
def test_readme_command(argv, status, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "diamondgmc.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    output = proc.stdout + proc.stderr
    assert "Traceback" not in output
    assert "Warning" not in output
    assert proc.returncode == status, output
    out = tmp_path / argv[argv.index("--out") + 1] if "--out" in argv else tmp_path
    manifest = json.loads((out / f"{argv[0]}_manifest.json").read_text())
    assert manifest["exit_status"] == status
    if argv[0] == "gmc":
        declared = GMC_CHECK_SETTINGS[manifest["config"]["check"]]
    else:
        declared = COMMAND_SETTINGS[argv[0]]
    assert set(manifest["config"]) == declared | {"out"}


def test_flag_table_matches_the_declared_settings():
    rows = dict(re.findall(r"^\| `([a-z -]+)` \| (`--.*) \|$", README.read_text(), re.M))
    declared = {
        **COMMAND_SETTINGS,
        **{f"gmc --check {check}": names for check, names in GMC_CHECK_SETTINGS.items()},
    }
    assert {
        command: set(re.findall(r"`--([a-z-]+)`", flags)) for command, flags in rows.items()
    } == {
        command: {name.replace("_", "-") for name in names}
        for command, names in declared.items()
    }
