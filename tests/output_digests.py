"""Print one sha256 per ringseg output artefact over a fixed frame set.

    PYTHONPATH=src python tests/output_digests.py [--against REV]

The frames are `sample_traffic_scene` seeds 0-11, the acceptance-test
timing frame (seed 0, 8 objects), the clutter frame from `conftest`, and
the benchmark's `open_road` and `dense_urban` frame sets at seed 3 (from
`perfbench/workloads.py`, which this script only imports).
The artefacts are the generated frames themselves (xyz, intensity,
labels, ring ids and ground mask, plus the files `synth` writes for the
README walkthrough scene), the in-process stage-1 integer outputs (labels, ground
mask, proposal members) and float outputs (boxes, distances, ground
planes), the `.cluster` files and proposal manifests `segment` writes, the
`.ps3d` archives `prepare` writes with `--augment` and, at another seed,
without it, and the `eval --clusters` report. Two source trees produce
the same outputs iff they print the same lines: point PYTHONPATH at each
tree's `src` and diff the output.

`--against REV` does that diff: it unpacks the git revision REV into a
temporary directory (`git archive`, which leaves the repository as it
is), runs this script with only that tree's `src` on PYTHONPATH, prints
each artefact whose digest differs, and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import logging
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

# one BLAS thread, the CLI's default, in this process and the --against
# one: a threaded BLAS splits the ground fit's long dot products, so the
# float outputs would depend on the thread count, not on the tree
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from conftest import clutter_scene  # noqa: E402
from ringseg import load_config, run_stage1, save_labels, save_point_cloud  # noqa: E402
from ringseg.cli import main as cli_main  # noqa: E402
from ringseg.synth import generate_synthetic_scene, sample_traffic_scene  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

# the README's CLI walkthrough scene
WALKTHROUGH_SCENE = """
seed = 20
num_rings = 64
points_per_ring = 1600
noise_sigma = 0.02
objects.0.class = car
objects.0.shape = box
objects.0.x = 12.0
objects.0.y = -3.0
objects.0.yaw_deg = 40
objects.0.length = 4.2
objects.0.width = 1.8
objects.0.height = 1.5
objects.1.class = pedestrian
objects.1.shape = cylinder
objects.1.x = -8.0
objects.1.y = 4.0
objects.1.radius = 0.4
objects.1.height = 1.7
"""


def frame_specs():
    specs = [(f"{seed:06d}", sample_traffic_scene(seed)) for seed in range(12)]
    specs.append(("acceptance", sample_traffic_scene(seed=0, n_objects=8)))
    specs.append(("clutter", clutter_scene()))
    for name in ("open_road", "dense_urban"):
        specs += [(f"{name}_{k:02d}", spec)
                  for k, spec in enumerate(workloads.frame_specs(name, seed=3))]
    return specs


def _frame(digest, scene) -> None:
    cloud = scene.cloud
    for array in (cloud.xyz.astype("<f8"), cloud.intensity.astype("<f8"),
                  cloud.labels.astype(np.uint8), scene.ring_ids.astype("<i8"),
                  scene.ground_mask.astype(np.uint8)):
        digest.update(array.tobytes())


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


def compute_digests() -> dict[str, str] | None:
    """Each artefact's sha256, or None when a command fails."""
    logging.disable(logging.INFO)
    cfg = load_config()
    keys = ("synth.frames", "stage1.ints", "stage1.floats", "segment.cluster",
            "segment.manifest", "prepare.ps3d", "prepare.plain", "eval.report")
    digests = {key: hashlib.sha256() for key in keys}
    with tempfile.TemporaryDirectory() as tmp:
        frames, seg = Path(tmp, "frames"), Path(tmp, "seg")
        frames.mkdir()
        for stem, spec in frame_specs():
            scene = generate_synthetic_scene(spec)
            _frame(digests["synth.frames"], scene)
            cloud = scene.cloud
            _stage1(digests, cloud, cfg)
            save_point_cloud(cloud, frames / f"{stem}.bin")
            save_labels(cloud.labels, frames / f"{stem}.label")
        archive, plain = Path(tmp, "samples.ps3d"), Path(tmp, "plain.ps3d")
        report = Path(tmp, "eval.txt")
        scene_file, synth = Path(tmp, "scene.cfg"), Path(tmp, "synth")
        scene_file.write_text(WALKTHROUGH_SCENE)
        for argv in (["synth", "--scene", str(scene_file), "--output", str(synth),
                      "--frames", "3"],
                     ["segment", "--input", str(frames), "--output", str(seg)],
                     ["prepare", "--input", str(frames), "--segments", str(seg),
                      "--output", str(archive), "--augment", "--seed", "7"],
                     ["prepare", "--input", str(frames), "--segments", str(seg),
                      "--output", str(plain), "--seed", "11"],
                     ["eval", "--gt", str(frames), "--clusters", str(seg),
                      "--output", str(report)]):
            if cli_main(argv) != 0:
                print(f"ringseg {argv[0]} failed", file=sys.stderr)
                return None
        _files(digests, "synth.frames", sorted(synth.iterdir()))
        _files(digests, "segment.cluster", sorted(seg.glob("*.cluster")))
        _files(digests, "segment.manifest", sorted(seg.glob("*.proposals.txt")))
        _files(digests, "prepare.ps3d", [archive])
        _files(digests, "prepare.plain", [plain])
        _files(digests, "eval.report", [report])
    return {key: digests[key].hexdigest() for key in keys}


def digests_at(rev: str) -> dict[str, str] | None:
    """This script's digests over the source tree of git revision `rev`."""
    # from the top of the work tree, which `git archive` packs whole
    root = Path(__file__).resolve().parent.parent
    tree = subprocess.run(["git", "archive", rev], cwd=root, capture_output=True)
    if tree.returncode != 0:
        print(tree.stderr.decode(errors="replace"), end="", file=sys.stderr)
        return None
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(tree.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        # that tree's src alone, so no other ringseg can stand in for it
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")))
        run = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                             text=True)
    if run.returncode != 0:
        print(run.stderr, end="", file=sys.stderr)
        return None
    return dict(line.split() for line in run.stdout.splitlines())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="compare with the outputs of this git revision's src")
    args = parser.parse_args(argv)
    ours = compute_digests()
    if ours is None:
        return 1
    if not args.against:
        for key, digest in ours.items():
            print(f"{key} {digest}")
        return 0
    theirs = digests_at(args.against)
    if theirs is None:
        print(f"the outputs of {args.against} could not be computed", file=sys.stderr)
        return 1
    differ = [key for key in ours if theirs.get(key) != ours[key]]
    for key in differ:
        print(f"{key} differs: {theirs.get(key)} at {args.against}, {ours[key]} here")
    print(f"{len(ours) - len(differ)} of {len(ours)} artefacts identical to {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
