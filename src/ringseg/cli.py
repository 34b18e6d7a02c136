"""Command-line front end: segment, prepare, eval, bench, synth.

Outputs are file-per-frame (cluster labels, proposal manifests, synthetic
ground truth) or a single sample archive; metric and timing reports are
line-delimited `key=value` records on stdout (or --output). Frames are
processed in lexicographic filename order and, for `segment` and `prepare`
with --jobs > 1, in strided shares by forked processes, with output
byte-identical to a sequential run.

Every per-frame command has one failure policy: a frame that cannot be
read or processed is skipped with one logged line, the outputs of the
other frames are written, and the command exits 1.
"""

from __future__ import annotations

import argparse
import functools
import gc
import logging
import math
import os
import pickle
import sys
import tempfile
import traceback
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

# One BLAS thread per process unless the user says otherwise, set before
# numpy loads BLAS: each forked `--jobs` worker would otherwise start a
# thread per core for the ground fit's long dot products, and the workers
# would fight over the cores. A library caller's `import ringseg` sets none.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from .errors import AlignmentError, ConfigError, FileFormatError, RingSegError  # noqa: E402

if TYPE_CHECKING:
    from .config import PipelineConfig
    from .boxes import OrientedBBox, Proposal

log = logging.getLogger("ringseg")

_MANIFEST_SUFFIX = ".proposals.txt"
_CLUSTER_SUFFIX = ".cluster"
# a manifest line's fields in write order
_MANIFEST_KEYS = ("cluster", "count", "d", "cx", "cy", "cz", "yaw",
                  "hx", "hy", "hz", "nx", "ny", "nz")


def format_record(fields: dict) -> str:
    """One `key=value` record per line; floats use repr for exact replay."""
    return " ".join(f"{key}={float(value)!r}" if isinstance(value, (float, np.floating))
                    else f"{key}={value}" for key, value in fields.items())


def _emit(records: list[str], output: str | None) -> None:
    text = "\n".join(records) + ("\n" if records else "")
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


_FRAME_ERRORS = (RingSegError, OSError, ValueError)


def _check_directory(directory: str, flag: str) -> None:
    if not Path(directory).is_dir():
        raise ConfigError(flag, f"{directory} is not a directory")


def _list_frames(directory: str, flag: str, suffix: str = ".bin") -> list[tuple[str, Path]]:
    _check_directory(directory, flag)
    frames = [(p.stem, p) for p in sorted(Path(directory).glob(f"*{suffix}"))]
    if not frames:
        log.warning("no %s frames under %s; nothing to do", suffix, directory)
    return frames


def _attempt(worker, frame: tuple[str, object]):
    try:
        return worker(*frame), None
    except _FRAME_ERRORS as exc:  # an outcome, so a forked share can report it
        return None, f"{type(exc).__name__}: {exc}"


def _run_share(worker, share: list[tuple[str, object]], out) -> None:
    """A forked child's whole life: one pickled outcome per frame into `out`.

    It leaves through `os._exit`, so it never returns into its caller's
    stack (a test runner's included) or runs the parent's exit handlers.
    """
    code = 1
    try:
        for frame in share:
            out.write(pickle.dumps(_attempt(worker, frame)))
            out.flush()  # a frame's outcome survives the child dying later
        code = 0
    except Exception:  # not a frame error: the rest of the share fails
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _read_share(out, n: int, status: int) -> list:
    """A child's outcomes, and a failure for each frame it left without one."""
    outcomes = []
    out.seek(0)
    while len(outcomes) < n:
        try:
            outcomes.append(pickle.load(out))
        except (EOFError, pickle.UnpicklingError):  # none, or cut off by a death
            break
    code = os.waitstatus_to_exitcode(status)
    error = (f"worker exited with signal {-code}" if code < 0
             else f"worker exited with code {code}")
    return outcomes + [(None, error)] * (n - len(outcomes))


def _run_frames(worker, frames: list[tuple[str, object]], jobs: int = 1):
    """The one frame loop: `worker(stem, arg)` per frame, in `jobs` processes.

    With jobs > 1 (capped at the frame count), it forks jobs - 1 children:
    child k runs the strided share frames[k::jobs] and the parent runs share
    0 itself, then reaps them all, also when interrupted. A frame that
    raises one of _FRAME_ERRORS, or that a child left without an outcome
    by dying, is logged and skipped. Returns the good frames' results in
    frame order and how many frames failed.

    Commands import the modules that they and their workers run before they
    call this: the children are forked, so they inherit those modules and
    their own imports are `sys.modules` lookups.

    It also freezes the garbage collector's view of the heap: the objects
    alive now, numpy's and the loaded modules', move to the permanent
    generation, so neither the later collections nor the ones at
    interpreter exit scan them again. The collector stays on.
    """
    gc.freeze()
    jobs = max(1, min(jobs, len(frames))) if hasattr(os, "fork") else 1
    outcomes = [None] * len(frames)
    children = []
    try:
        for k in range(1, jobs):
            # a file, not a pipe: a full pipe would stall the child while
            # the parent runs its own share
            out = tempfile.TemporaryFile()
            pid = os.fork()
            if pid == 0:
                _run_share(worker, frames[k::jobs], out)
            children.append((k, pid, out))
        outcomes[0::jobs] = [_attempt(worker, frame) for frame in frames[0::jobs]]
    finally:
        for k, pid, out in children:
            with out:
                status = os.waitpid(pid, 0)[1]
                outcomes[k::jobs] = _read_share(out, len(outcomes[k::jobs]), status)
    results, failed = [], 0
    for (stem, _), (result, error) in zip(frames, outcomes):
        if error:
            failed += 1
            log.error("frame %s skipped: %s", stem, error)
        else:
            results.append(result)
    return results, failed


# ---------------------------------------------------------------------------
# segment


def _write_manifest(path: Path, proposals: list[Proposal]) -> None:
    lines = [format_record(dict(zip(_MANIFEST_KEYS, (
        p.cluster_id, p.member_indices.size, p.distance, *p.bbox.center, p.bbox.yaw,
        *p.bbox.half_extents, *p.bbox.normal)))) for p in proposals]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _read_manifest(path: Path) -> list[tuple[int, int, float, OrientedBBox]]:
    """(cluster id, count, distance, box) per manifest line, in file order.

    A line must hold every field, a cluster id of at least 1 (0 is the
    `.cluster` file's "no proposal"), finite numbers, positive half
    extents and a unit normal (within 1e-6), and no other key; no key may
    repeat within a line, and no cluster id may repeat across lines:
    `prepare` writes samples from these boxes as they are.
    """
    from .boxes import OrientedBBox
    from .config import read_text

    text = read_text(path, lambda where, reason: FileFormatError(f"{where}: {reason}"))
    entries, line_of = [], {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        tokens = [tok.split("=", 1) for tok in line.split()]
        if any(len(tok) != 2 for tok in tokens):
            raise FileFormatError(f"{where}: expected key=value tokens")
        e = {}
        for key, value in tokens:
            if key in e:
                raise FileFormatError(f"{where}: key {key} repeats")
            if key not in _MANIFEST_KEYS:
                raise FileFormatError(f"{where}: unknown key {key}")
            e[key] = value
        missing = [key for key in _MANIFEST_KEYS if key not in e]
        if missing:
            raise FileFormatError(f"{where}: no {', '.join(missing)} field")
        try:
            cid, count = int(e["cluster"]), int(e["count"])
            v = {key: float(e[key]) for key in _MANIFEST_KEYS[2:]}
        except ValueError as exc:
            raise FileFormatError(f"{where}: {exc}") from None
        if cid < 1:
            raise FileFormatError(f"{where}: cluster={cid} is no proposal id: ids start at 1")
        for key, value in v.items():
            if not math.isfinite(value):
                raise FileFormatError(f"{where}: {key}={e[key]} is not finite")
            if key in ("hx", "hy", "hz") and value <= 0.0:
                raise FileFormatError(f"{where}: half extent {key}={e[key]} is not positive")
        length = math.hypot(v["nx"], v["ny"], v["nz"])
        if abs(length - 1.0) > 1e-6:
            raise FileFormatError(f"{where}: normal (nx, ny, nz) has length {length!r}, not 1")
        if cid in line_of:
            raise FileFormatError(f"{where}: cluster={cid} repeats line {line_of[cid]}")
        line_of[cid] = lineno
        center, half_extents, normal = (
            np.array([v[c + axis] for axis in "xyz"]) for c in "chn")
        entries.append((cid, count, v["d"], OrientedBBox(center, v["yaw"], half_extents, normal)))
    return entries


def _segment_one(stem: str, bin_path: Path, out_dir: str, cfg: PipelineConfig) -> None:
    from .cloud import load_point_cloud, save_point_values
    from .pipeline import run_stage1

    cloud, kept = load_point_cloud(bin_path)
    result = run_stage1(cloud, cfg.ground, cfg.cluster, cfg.refine, cfg.num_rings)
    out = Path(out_dir)
    save_point_values(out / f"{stem}{_CLUSTER_SUFFIX}", result.cluster_labels, "<u4", kept)
    _write_manifest(out / f"{stem}{_MANIFEST_SUFFIX}", result.proposals)


def cmd_segment(cfg: PipelineConfig) -> int:
    from . import cloud, pipeline  # noqa: F401  the workers' modules

    if not cfg.input or not cfg.output:
        raise ConfigError("input/output", "segment needs --input and --output")
    frames = _list_frames(cfg.input, "--input")
    if not frames:
        return 0
    Path(cfg.output).mkdir(parents=True, exist_ok=True)
    worker = functools.partial(_segment_one, out_dir=cfg.output, cfg=cfg)
    _, failed = _run_frames(worker, frames, cfg.jobs)
    log.info("segmented %d frame(s), %d failed", len(frames), failed)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# prepare


def _prepare_one(stem: str, frame_id: int, in_dir: str, seg_dir: str,
                 cfg: PipelineConfig) -> np.ndarray:
    """The frame's samples as archive records (`samples.frame_records`)."""
    from .boxes import Proposal
    from .cloud import ClusterLabeling, load_labels, load_point_cloud, load_point_values
    from .samples import frame_records

    bin_path = Path(in_dir) / f"{stem}.bin"
    cluster_path = Path(seg_dir) / f"{stem}{_CLUSTER_SUFFIX}"
    manifest_path = Path(seg_dir) / f"{stem}{_MANIFEST_SUFFIX}"
    cloud, kept = load_point_cloud(bin_path)
    records = len(cloud) if kept is None else kept.size
    cloud = cloud.with_labels(load_labels(bin_path.with_suffix(".label"), records, kept))
    cluster_ids = load_point_values(cluster_path, "<u4", records, kept)
    manifest = sorted(_read_manifest(manifest_path), key=lambda e: e[0])

    # np.flatnonzero scans a bool array several times faster than an integer one
    labelled = np.flatnonzero(cluster_ids != 0)
    groups = ClusterLabeling.from_labels(cluster_ids[labelled])
    # the one agreement rule: every labelled id has a line that counts its points
    counts = {cid: count for cid, count, _, _ in manifest}
    sizes = dict(zip(groups.ids.tolist(), np.diff(groups.offsets).tolist()))
    if counts != sizes:
        cid = min(c for c in counts.keys() | sizes.keys() if counts.get(c) != sizes.get(c))
        said = f"count={counts[cid]}" if cid in counts else "no line"
        raise AlignmentError(f"{manifest_path} and {cluster_path} disagree on cluster {cid}: "
                             f"the manifest has {said}, the .cluster file "
                             f"{sizes.get(cid, 0)} points")
    # the ids agree, so the sorted manifest and the groups pair up in order
    members, starts = labelled[groups.order], groups.offsets.tolist()
    proposals = [Proposal(cid, members[a:b], bbox, distance)
                 for (cid, _, distance, bbox), a, b in zip(manifest, starts, starts[1:])]
    return frame_records(proposals, cloud, frame_id, cfg.rng_seed, cfg.prep)


def cmd_prepare(cfg: PipelineConfig, seg_dir: str | None) -> int:
    from .samples import export_samples  # loads the workers' boxes, cloud, numpy.random

    if not cfg.input or not cfg.output:
        raise ConfigError("input/output", "prepare needs --input and --output")
    # (stem, frame id): a stem that is a decimal below 2**32, the archive's
    # uint32, is the id; any other, such as a microsecond timestamp, takes
    # its position in the list
    frames = [(stem, int(stem) if stem.isdecimal() and int(stem) < 2**32 else i)
              for i, (stem, _) in enumerate(_list_frames(cfg.input, "--input"))]
    if seg_dir:
        _check_directory(seg_dir, "--segments")
    if not frames:
        return 0
    stem_of = {}  # two stems with one id would mix their samples in the archive
    for stem, frame_id in frames:
        if stem_of.setdefault(frame_id, stem) != stem:
            raise ConfigError("input", f"frames {stem_of[frame_id]} and {stem} both take "
                                       f"frame id {frame_id}")
    worker = functools.partial(_prepare_one, in_dir=cfg.input,
                               seg_dir=seg_dir or cfg.input, cfg=cfg)
    per_frame, failed = _run_frames(worker, frames, cfg.jobs)
    if not per_frame:  # an empty archive would pass for a run without proposals
        log.error("all %d frame(s) failed; wrote no archive", failed)
        return 1
    records = np.concatenate(per_frame)
    export_samples(records, cfg.output)
    log.info("wrote %d sample(s) from %d frame(s) to %s, %d failed",
             len(records), len(per_frame), cfg.output, failed)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# eval


def _eval_one(stem: str, gt_path: Path, pred_dir: str | None, clusters_dir: str | None):
    from .cloud import load_labels, load_point_values, point_records
    from .metrics import pointwise_metrics, proposal_recall

    # the frame's record count comes from its .bin when there is one, so a
    # cut .label fails by name; a --gt directory of only .label files still evaluates
    bin_path = gt_path.with_suffix(".bin")
    try:
        records = point_records(bin_path, os.path.getsize(bin_path))
    except FileNotFoundError:
        records = os.path.getsize(gt_path)
    gt = load_labels(gt_path, records)
    fields: dict = {"frame": stem}
    metrics = coverage = None
    if pred_dir:
        metrics = pointwise_metrics(load_labels(Path(pred_dir) / gt_path.name, len(gt)), gt)
        fields.update(metrics.to_record())
    if clusters_dir:
        ids = load_point_values(Path(clusters_dir) / f"{stem}{_CLUSTER_SUFFIX}", "<u4", gt.size)
        coverage = proposal_recall(ids, gt)
        fields.update(coverage.to_record())
    return format_record(fields), metrics, coverage


def cmd_eval(gt_dir: str, pred_dir: str | None, clusters_dir: str | None,
             output: str | None) -> int:
    from .metrics import eval_summary

    if not pred_dir and not clusters_dir:
        raise ConfigError("pred/clusters", "eval needs --pred and/or --clusters")
    frames = _list_frames(gt_dir, "--gt", ".label")
    for flag, directory in (("--pred", pred_dir), ("--clusters", clusters_dir)):
        if directory:
            _check_directory(directory, flag)
    if not frames:
        return 0
    worker = functools.partial(_eval_one, pred_dir=pred_dir, clusters_dir=clusters_dir)
    results, failed = _run_frames(worker, frames)
    summary = {"frame": "all", "frames": len(results),
               **eval_summary([m for _, m, _ in results if m is not None],
                              [c for _, _, c in results if c is not None])}
    _emit([record for record, _, _ in results] + [format_record(summary)], output)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# bench / synth


def _bench_one(stem: str, path: Path | None, cfg: PipelineConfig, reps: int) -> str:
    from .bench import benchmark_stage1
    from .cloud import load_point_cloud

    if path is None:
        from .synth import generate_synthetic_scene, sample_traffic_scene

        cloud = generate_synthetic_scene(sample_traffic_scene(cfg.rng_seed, n_objects=6)).cloud
    else:
        cloud, _ = load_point_cloud(path)
    report, _ = benchmark_stage1(cloud, cfg.ground, cfg.cluster, cfg.refine,
                                 cfg.num_rings, repetitions=reps)
    return format_record({"frame": stem, **report.to_record()})


def cmd_bench(cfg: PipelineConfig, reps: int, output: str | None) -> int:
    frames = _list_frames(cfg.input, "--input") if cfg.input else [("synthetic", None)]
    if not frames:
        return 0
    # in this process, so timings do not compete for cores
    records, failed = _run_frames(functools.partial(_bench_one, cfg=cfg, reps=reps), frames)
    _emit(records, output)
    return 1 if failed else 0


def cmd_synth(scene_path: str, out_dir: str, frames: int, seed: int | None) -> int:
    from .cloud import save_labels, save_point_cloud, save_point_values
    from .synth import generate_synthetic_scene, scene_from_file

    spec = scene_from_file(scene_path)
    base_seed = spec.rng_seed if seed is None else seed
    out = Path(out_dir)
    for i in range(frames):
        scene = generate_synthetic_scene(replace(spec, rng_seed=base_seed + i))
        if i == 0:  # only once the scene generates, so a rejected one writes nothing
            out.mkdir(parents=True, exist_ok=True)
        stem = out / f"{i:06d}"
        save_point_cloud(scene.cloud, f"{stem}.bin")
        save_labels(scene.cloud.labels, f"{stem}.label")
        save_point_values(f"{stem}.ground", scene.ground_mask, np.uint8)
        save_point_values(f"{stem}.rings", scene.ring_ids, "<u4")
    log.info("wrote %d synthetic frame(s) to %s", frames, out_dir)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


# a flag that sets a config key has that key as its dest; None is "not given"
_SHARED_FLAGS = {
    "--config": {"help": "key=value config file"},
    "--input": {"help": "input directory"},
    "--seed": {"type": int, "dest": "rng_seed", "metavar": "SEED", "help": "rng seed override"},
    "--jobs": {"type": int, "help": "worker processes (default 1)"},
}


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    """--output, plus the shared flags the command reads."""
    p.add_argument("--output", help="output directory or file")
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringseg",
        description="Ring-based LiDAR cluster proposals and sample preparation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="run the proposal pipeline over frames")
    _add_common(p, "--config", "--input", "--jobs")

    p = sub.add_parser("prepare", help="build a training-sample archive")
    _add_common(p, "--config", "--input", "--seed", "--jobs")
    p.add_argument("--segments", help="directory with segment outputs "
                                      "(default: the input directory)")
    p.add_argument("--augment", dest="prep.augment", action="store_const", const=True,
                   help="emit all 8 isometry variants per foreground sample")
    p.add_argument("--n-points", type=int, dest="prep.n_points", metavar="N",
                   help="rows per sample")

    p = sub.add_parser("eval", help="point-wise metrics and proposal recall")
    _add_common(p)
    p.add_argument("--gt", required=True, help="directory with ground-truth .label")
    p.add_argument("--pred", help="directory with predicted .label")
    p.add_argument("--clusters", help="directory with .cluster files")

    p = sub.add_parser("bench", help="time the pipeline per frame")
    _add_common(p, "--config", "--input", "--seed")
    p.add_argument("--reps", type=int, default=10, help="timed repetitions")

    p = sub.add_parser("synth", help="generate synthetic frames from a scene file")
    _add_common(p, "--seed")
    p.add_argument("--scene", required=True, help="scene description file")
    p.add_argument("--frames", type=int, default=1, help="number of frames")
    return parser


# glibc's mallopt parameter numbers, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_allocator() -> None:
    """Keep frame-sized arrays on the heap for the rest of the process.

    Under glibc's dynamic threshold, a frame's whole-cloud arrays (1-3 MB)
    are mapped fresh and unmapped on free, or trimmed off the heap top, so
    every frame faults in and zero-fills the same pages again. Fixed
    thresholds of 32 MiB (mmap) and 64 MiB (trim) let the next frame reuse
    them; either alone leaves the faults, since setting one stops glibc
    from raising the other. Forked `--jobs` workers inherit the setting.
    Other libcs (musl, macOS) have no `mallopt` or ignore it.
    """
    import ctypes  # numpy has already loaded it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    """Run one command; returns its exit status.

    Besides the command's outputs, it leaves three process-wide settings,
    also to an in-process caller: one BLAS thread unless the environment
    sets another count (at `import ringseg.cli`), glibc's allocator
    thresholds pinned (`_pin_allocator`), and the heap frozen for the
    garbage collector before the frame loop (`_run_frames`).
    """
    _pin_allocator()
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval":  # the one command that reads no config
            return cmd_eval(args.gt, args.pred, args.clusters, args.output)
        from .config import _KEYS, _integer, field_value, load_config

        cfg = load_config(getattr(args, "config", None),
                          {k: v for k, v in vars(args).items() if k in _KEYS})

        if args.command == "segment":
            return cmd_segment(cfg)
        if args.command == "prepare":
            return cmd_prepare(cfg, args.segments)
        # a command's own count, not a config key, passes config's integer rule
        count = functools.partial(field_value, f=_integer(1))
        if args.command == "bench":
            return cmd_bench(cfg, count("--reps", raw=args.reps), args.output)
        if args.command == "synth":
            if not args.output:
                raise ConfigError("output", "synth needs --output")
            return cmd_synth(args.scene, args.output, count("--frames", raw=args.frames),
                             args.rng_seed)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        log.error("%s", exc)
        return 2
    except (RingSegError, OSError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
