"""Every script under ``examples/`` runs to completion.

Each example exercises one subsystem through public imports, so an
example that still imports a retired name fails here.  Each runs in its
own interpreter from a temporary working directory, with ``TMPDIR``
pointed there too, so whatever it writes is cleaned up with the test.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import repro

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


def test_examples_are_found() -> None:
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_cleanly(script: pathlib.Path, tmp_path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(
            None,
            [str(pathlib.Path(repro.__file__).parents[1]), env.get("PYTHONPATH")],
        )
    )
    env["TMPDIR"] = str(tmp_path)
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, (
        f"{script.name} exited {completed.returncode}:\n{completed.stderr[-4000:]}"
    )
