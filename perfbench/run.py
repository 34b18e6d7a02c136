"""ringseg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense_urban --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. With `--trace 0` the run measures the end-to-end metrics
untraced; with `--trace 1` it wraps ringseg's public functions with timers
and reports per-layer metrics instead. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The full
record of the run, with its checks and environment, is written to
`.perfbench/<run>/result.json`.
"""

import os

# one BLAS thread per process, set before numpy loads; CLI children inherit it
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ringseg" / "__init__.py").is_file():
        print(f"no ringseg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from harness import Run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    run = Run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        record = run.result()
        (run.dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    finally:
        run.cleanup()
    for name, (value, unit) in record["metrics"].items():
        print(f"{name} = {value!r} {unit}")
    detail = record["detail"]
    if "frame_ms_p90" in detail:
        print(f"frame_ms_p90 = {detail['frame_ms_p90']!r} ms")
    print(f"failed_frac = {detail['failed_frac']!r} ratio")
    for problem in detail["problems"]:
        print(f"problem: {problem}")
    print(f"record: {run.dir / 'result.json'}")
    print(json.dumps({
        "correct": not detail["problems"],
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
