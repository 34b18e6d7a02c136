"""Print one sha256 per ringseg output artefact over a fixed frame set.

    PYTHONPATH=src python tests/output_digests.py

The frames are `sample_traffic_scene` seeds 0-11, the acceptance-test
timing frame (seed 0, 8 objects), the clutter frame from `conftest`, and
the benchmark's `open_road` and `dense_urban` frame sets at seed 3 (from
`perfbench/workloads.py`, which this script only imports).
The artefacts are the in-process stage-1 integer outputs (labels, ground
mask, proposal members) and float outputs (boxes, distances, ground
planes), the `.cluster` files and proposal manifests `segment` writes, the
`.ps3d` archive `prepare --augment` writes, and the `eval --clusters`
report. Two source trees produce the same outputs iff they print the same
lines: point PYTHONPATH at each tree's `src` and diff the output.
"""

from __future__ import annotations

import hashlib
import logging
import sys
import tempfile
from pathlib import Path

import numpy as np

from conftest import clutter_scene
from ringseg import load_config, run_stage1, save_labels, save_point_cloud
from ringseg.cli import main as cli_main
from ringseg.synth import generate_synthetic_scene, sample_traffic_scene

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def frame_specs():
    specs = [(f"{seed:06d}", sample_traffic_scene(seed)) for seed in range(12)]
    specs.append(("acceptance", sample_traffic_scene(seed=0, n_objects=8)))
    specs.append(("clutter", clutter_scene()))
    for name in ("open_road", "dense_urban"):
        specs += [(f"{name}_{k:02d}", spec)
                  for k, spec in enumerate(workloads.frame_specs(name, seed=3))]
    return specs


def _stage1(digests: dict, cloud, cfg) -> None:
    result = run_stage1(cloud, cfg.ground, cfg.cluster, cfg.refine, cfg.num_rings)
    ints, floats = digests["stage1.ints"], digests["stage1.floats"]
    ints.update(result.cluster_labels.astype("<u4").tobytes())
    ints.update(result.ground_mask.astype(np.uint8).tobytes())
    for prop in result.proposals:
        ints.update(np.array([prop.cluster_id, prop.member_indices.size], "<i8").tobytes())
        ints.update(prop.member_indices.astype("<i8").tobytes())
        b = prop.bbox
        floats.update(np.array([prop.distance, b.yaw, *b.center, *b.half_extents,
                                *b.normal], "<f8").tobytes())
    for plane in result.planes:
        if plane is not None:
            floats.update(np.array([*plane.normal, plane.offset], "<f8").tobytes())


def _files(digests: dict, key: str, paths) -> None:
    for path in paths:
        digests[key].update(path.name.encode())
        digests[key].update(path.read_bytes())


def main() -> int:
    logging.disable(logging.INFO)
    cfg = load_config()
    keys = ("stage1.ints", "stage1.floats", "segment.cluster", "segment.manifest",
            "prepare.ps3d", "eval.report")
    digests = {key: hashlib.sha256() for key in keys}
    with tempfile.TemporaryDirectory() as tmp:
        frames, seg = Path(tmp, "frames"), Path(tmp, "seg")
        frames.mkdir()
        for stem, spec in frame_specs():
            cloud = generate_synthetic_scene(spec).cloud
            _stage1(digests, cloud, cfg)
            save_point_cloud(cloud, frames / f"{stem}.bin")
            save_labels(cloud.labels, frames / f"{stem}.label")
        archive, report = Path(tmp, "samples.ps3d"), Path(tmp, "eval.txt")
        for argv in (["segment", "--input", str(frames), "--output", str(seg)],
                     ["prepare", "--input", str(frames), "--segments", str(seg),
                      "--output", str(archive), "--augment", "--seed", "7"],
                     ["eval", "--gt", str(frames), "--clusters", str(seg),
                      "--output", str(report)]):
            if cli_main(argv) != 0:
                print(f"ringseg {argv[0]} failed", file=sys.stderr)
                return 1
        _files(digests, "segment.cluster", sorted(seg.glob("*.cluster")))
        _files(digests, "segment.manifest", sorted(seg.glob("*.proposals.txt")))
        _files(digests, "prepare.ps3d", [archive])
        _files(digests, "eval.report", [report])
    for key in keys:
        print(f"{key} {digests[key].hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
