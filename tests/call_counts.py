"""Print the C-level calls that one `run_stage1` makes, per ringseg function.

    PYTHONPATH=src python tests/call_counts.py [--top N]

Stage 1 is bound by call count rather than by memory traffic, and this
count, unlike a timing, is the same on every run and every machine with
the same numpy. For each frame set (the seed-0 `sample_traffic_scene`
frame and the benchmark's `open_road` and `dense_urban` frame sets at
seed 3, from `perfbench/workloads.py`, which this script only imports)
it runs each frame once untimed, then once under `sys.setprofile`, and
counts the `c_call` events. Each event is charged to the innermost
ringseg function on the stack, so the calls numpy's Python wrappers
make count for the ringseg line that called the wrapper. The output is
one `format_record`-style line per set with the calls per frame, then
one line per function, largest first, also per frame. It has no bound:
a change that claims a stage-1 gain quotes the before and after lines.
"""

from __future__ import annotations

import argparse
import collections
import logging
import os
import sys
from pathlib import Path

# one BLAS thread, the CLI's default, so the count matches a CLI process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from ringseg import load_config, run_stage1  # noqa: E402
from ringseg.synth import generate_synthetic_scene, sample_traffic_scene  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def frame_sets() -> dict[str, list]:
    """Each set's scene specs, by name."""
    sets = {"traffic_seed0": [sample_traffic_scene(0)]}
    for name in ("open_road", "dense_urban"):
        sets[f"{name}_seed3"] = workloads.frame_specs(name, seed=3)
    return sets


def _owner(frame) -> str | None:
    """`module.function` of the innermost ringseg frame, from `frame` out."""
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module == "ringseg" or module.startswith("ringseg."):
            code = frame.f_code
            return f"{module}.{getattr(code, 'co_qualname', code.co_name)}"
        frame = frame.f_back
    return None


def count_calls(cloud, cfg) -> collections.Counter:
    """C calls of one `run_stage1` on `cloud`, per ringseg function."""
    counts: collections.Counter = collections.Counter()

    def profile(frame, event, arg):
        if event == "c_call":
            counts[_owner(frame)] += 1

    sys.setprofile(profile)
    try:
        run_stage1(cloud, cfg.ground, cfg.cluster, cfg.refine, cfg.num_rings)
    finally:
        sys.setprofile(None)
    counts.pop(None, None)  # the setprofile call itself
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=12, metavar="N",
                        help="functions listed per set (default 12)")
    args = parser.parse_args(argv)
    logging.disable(logging.WARNING)  # degenerate-segment warnings
    cfg = load_config()
    for name, specs in frame_sets().items():
        total: collections.Counter = collections.Counter()
        for spec in specs:
            cloud = generate_synthetic_scene(spec).cloud
            # the first pass loads lazily imported modules; only the second counts
            run_stage1(cloud, cfg.ground, cfg.cluster, cfg.refine, cfg.num_rings)
            total.update(count_calls(cloud, cfg))
        frames = len(specs)
        print(f"set={name} frames={frames} "
              f"calls_per_frame={sum(total.values()) / frames:.1f}")
        for function, calls in total.most_common(args.top):
            print(f"  {function} {calls / frames:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
