"""The e2e benchmark's layer hooks still fit the engines they wrap.

``benchmarks/e2e/layers.py`` wraps each engine class's ``train_round``
in a traced run.  A class that inherits its ``train_round`` from another
hooked class gets the parent's wrapper wrapped again, and its rounds are
counted twice; a renamed method fails only in a traced benchmark run.
This installs the hooks in a fresh interpreter, since they patch the
classes for good, and counts the wrappers on each hooked class.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = textwrap.dedent(
    """
    import json
    import sys
    from pathlib import Path

    sys.path.insert(0, sys.argv[1])
    import layers

    layers.Recorder(Path(sys.argv[2])).install()
    depths = {}
    for engine_class in layers._ENGINES:
        function, depth = engine_class.train_round, 0
        while hasattr(function, "__wrapped__"):
            function, depth = function.__wrapped__, depth + 1
        depths[engine_class.__name__] = depth
    print(json.dumps(depths))
    """
)


def test_every_hooked_engine_train_round_is_wrapped_once(tmp_path) -> None:
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            _SCRIPT,
            str(_ROOT / "benchmarks" / "e2e"),
            str(tmp_path),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    depths = json.loads(completed.stdout.strip().splitlines()[-1])
    assert depths, "layers._ENGINES names no engine class"
    assert depths == dict.fromkeys(depths, 1)
