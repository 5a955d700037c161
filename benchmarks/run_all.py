"""Run every standalone ``bench_*.py`` and enforce their guards.

Each benchmark is executed as a subprocess (``python benchmarks/
bench_X.py BENCH_X.json``) so one crashing bench cannot take the
harness down and each gets a fresh interpreter.  A benchmark *passes*
when it exits 0 — every bench script encodes its own regression guards
and returns 1 when one trips — and its artifact file exists
afterwards.  Results land in ``BENCH_summary.json``:

* per-bench exit code, wall-clock, and artifact path;
* the ``failures`` list (empty on a clean run).

The harness itself exits non-zero if any benchmark fails, times out,
or forgets to write its artifact, so CI can gate on it directly.

Run:  python benchmarks/run_all.py [summary.json] [--only SUBSTRING[,...]]

``--only`` keeps the benchmarks whose name contains any of the
comma-separated substrings (``--only engine,population,parallel``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
PER_BENCH_TIMEOUT_S = 900


def discover() -> list[Path]:
    return sorted(BENCH_DIR.glob("bench_*.py"))


def _subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    return env


def run_bench(script: Path) -> dict:
    name = script.stem.removeprefix("bench_")
    artifact = REPO_ROOT / f"BENCH_{name}.json"
    started = time.perf_counter()
    timed_out = False
    try:
        proc = subprocess.run(
            [sys.executable, str(script), str(artifact)],
            cwd=REPO_ROOT,
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            timeout=PER_BENCH_TIMEOUT_S,
        )
        exit_code = proc.returncode
        stderr_tail = proc.stderr.strip().splitlines()[-5:]
    except subprocess.TimeoutExpired as exc:
        timed_out = True
        exit_code = -1
        tail = (exc.stderr or b"")
        if isinstance(tail, bytes):
            tail = tail.decode(errors="replace")
        stderr_tail = tail.strip().splitlines()[-5:]
    seconds = time.perf_counter() - started
    ok = exit_code == 0 and artifact.is_file() and not timed_out
    row = {
        "name": name,
        "script": str(script.relative_to(REPO_ROOT)),
        "artifact": artifact.name,
        "artifact_exists": artifact.is_file(),
        "exit_code": exit_code,
        "timed_out": timed_out,
        "seconds": seconds,
        "ok": ok,
        "stderr_tail": stderr_tail,
    }
    status = "ok" if ok else "FAIL"
    print(f"{status:>4}  {name:<12} {seconds:7.1f}s  exit={exit_code}")
    return row


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    only = None
    if "--only" in args:
        at = args.index("--only")
        try:
            only = args[at + 1]
        except IndexError:
            print("FAIL: --only requires a substring", file=sys.stderr)
            return 2
        del args[at : at + 2]
    out_path = Path(args[0]) if args else Path("BENCH_summary.json")

    scripts = discover()
    if only is not None:
        wanted = [part for part in only.split(",") if part]
        scripts = [s for s in scripts if any(w in s.stem for w in wanted)]
    if not scripts:
        print("FAIL: no benchmarks matched", file=sys.stderr)
        return 2

    print(f"running {len(scripts)} benchmarks:")
    rows = [run_bench(script) for script in scripts]

    failures = []
    for row in rows:
        if row["timed_out"]:
            failures.append(
                f"{row['name']} timed out after {PER_BENCH_TIMEOUT_S}s"
            )
        elif row["exit_code"] != 0:
            detail = "; ".join(row["stderr_tail"]) or "no stderr"
            failures.append(
                f"{row['name']} exited {row['exit_code']} ({detail})"
            )
        elif not row["artifact_exists"]:
            failures.append(
                f"{row['name']} exited 0 but wrote no {row['artifact']}"
            )

    payload = {
        "benchmark": "summary",
        "config": {
            "per_bench_timeout_s": PER_BENCH_TIMEOUT_S,
            "only": only,
            "python": sys.version.split()[0],
        },
        "benches": rows,
        "total_seconds": sum(row["seconds"] for row in rows),
        "failures": failures,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path} ({payload['total_seconds']:.1f}s total)")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
