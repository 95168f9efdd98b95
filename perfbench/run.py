"""Run one workload of the rankloss benchmark and print its metrics.

    python3 perfbench/run.py --workload loss --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Workloads: ``loss``, ``train``, ``eval`` (see README.md here).
The next-to-last line of standard output is a JSON report (environment,
fixture check, per-call medians with tail percentiles, failures); the last
line is the result: ``{"correct", "attempted", "failed", "metrics"}``, with
the end-to-end metrics under ``--trace 0`` and the per-layer metrics under
``--trace 1``. Generated inputs and the span file go to ``.perfbench/``.

Exit codes: 0 success, 2 refused (bad arguments, a ``RANKLOSS_*`` engine
switch set, no package source, fixture figures not reproduced).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFUSED_ENV = ("RANKLOSS_BACKEND", "RANKLOSS_THREADS")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _refuse(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("loss", "train", "eval"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        return _refuse("--seconds must be positive")

    set_vars = [v for v in REFUSED_ENV if v in os.environ]
    if set_vars:
        return _refuse(f"{', '.join(set_vars)} set; unset it so runs compare like for like")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rankloss", "__init__.py")):
        return _refuse(f"no package source at {src}; run from a rankloss checkout")
    for var in THREAD_ENV:  # one thread per process; numpy is not imported yet
        os.environ[var] = "1"
    sys.path.insert(0, src)

    import rankloss

    if os.path.dirname(os.path.abspath(rankloss.__file__)) != os.path.join(src, "rankloss"):
        return _refuse(f"imported rankloss from {rankloss.__file__}, not from {src}")

    import bench

    try:
        result, report = bench.run(
            args.workload, args.seed, args.seconds, args.trace, ROOT, os.path.join(ROOT, ".perfbench")
        )
    except (bench.Refusal, OSError) as exc:
        return _refuse(str(exc))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
