"""Benchmark entry point: one workload run, hermetic, from a checkout root.

    python3 perfbench/run.py --workload weak-stencil --seed 1 \\
        --seconds 20 --trace 0

Runs ``worker.py`` in a fresh process whose ``HOME`` and ``TMPDIR`` are
an empty directory inside the checkout and whose environment carries no
``REPRO_*`` variable, so the compile, codegen and tune caches start empty
on every run.  Set-up time is measured in that process and in
``SETUP_PROBES`` more fresh processes that only set up; the median is
reported.  The last stdout line is the JSON result (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("weak-stencil", "strong-kernels", "compile-edit")
SETUP_PROBES = 8
#: the whole run, probes included, must end well inside 180 s
BUDGET_S = 170.0


def _env(home: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(HOME=home, TMPDIR=home,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    return env


def _child(args: list[str], tmp: str, deadline: float) -> dict:
    """Run worker.py with *args* in a fresh empty home; return the JSON
    object on its last stdout line."""
    home = tempfile.mkdtemp(prefix="home-", dir=tmp)
    try:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
               "--spawned-at", repr(time.monotonic())]
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(home), stdout=subprocess.PIPE,
            timeout=max(1.0, deadline - time.monotonic()), text=True,
        )
    finally:
        shutil.rmtree(home, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    tmp = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(tmp, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = _child(["--workload", args.workload, "--seed",
                                str(args.seed), "--seconds", "0",
                                "--setup-only"], tmp, deadline)
                setups.append(probe["setup_s"])
        result = _child(["--workload", args.workload, "--seed",
                         str(args.seed), "--seconds", str(args.seconds),
                         "--trace", str(args.trace)], tmp, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run is using it
    if setups:
        setup = result["metrics"]["setup_s"]
        setup["value"] = statistics.median(setups + [setup["value"]])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
