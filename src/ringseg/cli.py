"""Command-line front end: segment, prepare, eval, bench, synth.

Outputs are file-per-frame (cluster labels, proposal manifests, synthetic
ground truth) or a single sample archive; metric and timing reports are
line-delimited `key=value` records on stdout (or --output). Frames are
processed in lexicographic filename order and, with --jobs > 1, by a
process pool whose output is byte-identical to a sequential run.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import benchmark_stage1
from .cloud import load_labels, load_point_cloud, save_labels, save_point_cloud
from .clustering import group_members
from .config import PipelineConfig, load_config
from .errors import ConfigError, RingSegError
from .metrics import pointwise_metrics, proposal_recall
from .pipeline import run_stage1
from .refine import OrientedBBox, Proposal
from .samples import (
    BG_KEEP_STREAM,
    augment_eightfold,
    canonical_transform,
    export_samples,
    resample_points,
    sample_rng,
)
from .synth import generate_synthetic_scene, sample_traffic_scene, scene_from_file

log = logging.getLogger("ringseg")

_MANIFEST_SUFFIX = ".proposals.txt"
_CLUSTER_SUFFIX = ".cluster"


def format_record(fields: dict) -> str:
    """One `key=value` record per line; floats use repr for exact replay."""
    parts = []
    for key, value in fields.items():
        if isinstance(value, (float, np.floating)):
            parts.append(f"{key}={float(value)!r}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def _emit(records: list[str], output: str | None) -> None:
    text = "\n".join(records) + ("\n" if records else "")
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _frame_id_of(stem: str, index: int) -> int:
    return int(stem) if stem.isdigit() else index


def _list_frames(directory: str) -> list[Path]:
    return sorted(Path(directory).glob("*.bin"))


def _run_frames(worker, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [worker(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, items))


# ---------------------------------------------------------------------------
# segment


def _write_manifest(path: Path, proposals: list[Proposal]) -> None:
    lines = []
    for p in proposals:
        b = p.bbox
        lines.append(format_record({
            "cluster": p.cluster_id,
            "count": p.member_indices.size,
            "d": p.distance,
            "cx": b.center[0], "cy": b.center[1], "cz": b.center[2],
            "yaw": b.yaw,
            "hx": b.half_extents[0], "hy": b.half_extents[1], "hz": b.half_extents[2],
            "nx": b.normal[0], "ny": b.normal[1], "nz": b.normal[2],
        }))
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _read_manifest(path: Path) -> list[dict[str, str]]:
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entries.append(dict(tok.split("=", 1) for tok in line.split()))
    return entries


def _segment_one(bin_path: Path, out_dir: str, cfg: PipelineConfig):
    stem = bin_path.stem
    try:
        cloud = load_point_cloud(bin_path)
        result = run_stage1(cloud, cfg.ground, cfg.cluster, cfg.refine, cfg.num_rings)
        out = Path(out_dir)
        result.cluster_labels.astype("<u4").tofile(out / f"{stem}{_CLUSTER_SUFFIX}")
        _write_manifest(out / f"{stem}{_MANIFEST_SUFFIX}", result.proposals)
        return stem, None
    except (RingSegError, OSError, ValueError) as exc:
        return stem, f"{type(exc).__name__}: {exc}"


def cmd_segment(cfg: PipelineConfig) -> int:
    if not cfg.input_path or not cfg.output_path:
        raise ConfigError("input/output", "segment needs --input and --output")
    frames = _list_frames(cfg.input_path)
    if not frames:
        log.warning("no .bin frames under %s; nothing to do", cfg.input_path)
        return 0
    Path(cfg.output_path).mkdir(parents=True, exist_ok=True)
    worker = functools.partial(_segment_one, out_dir=cfg.output_path, cfg=cfg)
    failures = 0
    for stem, err in _run_frames(worker, frames, cfg.jobs):
        if err:
            failures += 1
            log.error("frame %s skipped: %s", stem, err)
    log.info("segmented %d frame(s), %d failed", len(frames), failures)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# prepare


def _prepare_one(item, seg_dir: str, cfg: PipelineConfig):
    bin_path, frame_id = item
    stem = bin_path.stem
    label_path = bin_path.with_suffix(".label")
    if not label_path.exists():
        raise RingSegError(f"frame {stem}: missing label file {label_path}")
    cluster_path = Path(seg_dir) / f"{stem}{_CLUSTER_SUFFIX}"
    manifest_path = Path(seg_dir) / f"{stem}{_MANIFEST_SUFFIX}"
    if not cluster_path.exists() or not manifest_path.exists():
        raise RingSegError(f"frame {stem}: missing segment outputs in {seg_dir}")

    cloud = load_point_cloud(bin_path)
    cloud = cloud.with_labels(load_labels(label_path, len(cloud)))
    cluster_ids = np.fromfile(cluster_path, dtype="<u4")
    if cluster_ids.size != len(cloud):
        raise RingSegError(f"frame {stem}: cluster file length mismatch")

    prep = cfg.prep
    groups = group_members(cluster_ids)
    samples = []
    for entry in sorted(_read_manifest(manifest_path), key=lambda e: int(e["cluster"])):
        cid = int(entry["cluster"])
        members = groups.get(cid)
        if members is None:
            continue
        bbox = OrientedBBox(
            center=np.array([float(entry["cx"]), float(entry["cy"]), float(entry["cz"])]),
            yaw=float(entry["yaw"]),
            half_extents=np.array([float(entry["hx"]), float(entry["hy"]),
                                   float(entry["hz"])]),
            normal=np.array([float(entry["nx"]), float(entry["ny"]), float(entry["nz"])]),
        )
        prop = Proposal(cluster_id=cid, member_indices=members, bbox=bbox,
                        distance=float(entry["d"]))
        rng0 = sample_rng(prep.rng_seed, frame_id, cid, 0)
        sample = canonical_transform(prop, cloud, rng0, frame_id=frame_id)
        if sample.class_label == 0:
            keep = sample_rng(prep.rng_seed, frame_id, cid, BG_KEEP_STREAM).random()
            if keep >= prep.background_keep_prob:
                continue
            variants = [sample]
        elif prep.augment:
            variants = augment_eightfold(sample)
        else:
            variants = [sample]
        for variant in variants:
            rng = rng0 if variant.variant_id == 0 else sample_rng(
                prep.rng_seed, frame_id, cid, variant.variant_id)
            samples.append(resample_points(variant, prep.n_points, rng))
    return samples


def cmd_prepare(cfg: PipelineConfig, seg_dir: str | None) -> int:
    if not cfg.input_path or not cfg.output_path:
        raise ConfigError("input/output", "prepare needs --input and --output")
    seg_dir = seg_dir or cfg.input_path
    frames = _list_frames(cfg.input_path)
    items = [(p, _frame_id_of(p.stem, i)) for i, p in enumerate(frames)]
    worker = functools.partial(_prepare_one, seg_dir=seg_dir, cfg=cfg)
    try:
        per_frame = _run_frames(worker, items, cfg.jobs)
    except RingSegError as exc:
        log.error("%s", exc)
        return 1
    samples = [s for frame_samples in per_frame for s in frame_samples]
    export_samples(samples, cfg.output_path, n_points=cfg.prep.n_points)
    log.info("wrote %d sample(s) from %d frame(s) to %s",
             len(samples), len(frames), cfg.output_path)
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(gt_dir: str, pred_dir: str | None, clusters_dir: str | None,
             output: str | None) -> int:
    gt_files = sorted(Path(gt_dir).glob("*.label"))
    if not gt_files:
        log.warning("no .label files under %s", gt_dir)
        return 0
    if not pred_dir and not clusters_dir:
        log.error("eval needs --pred and/or --clusters")
        return 2
    records = []
    failures = 0
    agg_p = {c: 0 for c in range(4)}
    agg_g = {c: 0 for c in range(4)}
    agg_pg = {c: 0 for c in range(4)}
    rec_frames = 0
    rec_fg = rec_cov = rec_props = rec_passed = 0
    for gt_path in gt_files:
        stem = gt_path.stem
        try:
            gt = load_labels(gt_path, os.path.getsize(gt_path))
            rec: dict = {"frame": stem}
            if pred_dir:
                pred = load_labels(Path(pred_dir) / gt_path.name, len(gt))
                report = pointwise_metrics(pred, gt)
                rec.update(report.to_record())
                for c in range(4):
                    agg_p[c] += report.pred_count[c]
                    agg_g[c] += report.gt_count[c]
                    agg_pg[c] += report.overlap_count[c]
            if clusters_dir:
                cids = np.fromfile(Path(clusters_dir) / f"{stem}{_CLUSTER_SUFFIX}",
                                   dtype="<u4")
                if cids.size != gt.size:
                    raise RingSegError(f"cluster file length {cids.size} != {gt.size}")
                groups = group_members(cids)
                groups.pop(0, None)
                cov = proposal_recall(list(groups.values()), gt)
                rec.update(cov.to_record())
                rec_frames += 1
                rec_fg += cov.fg_points
                rec_cov += cov.fg_covered
                rec_props += cov.n_proposals
                rec_passed += cov.points_passed
            records.append(format_record(rec))
        except (RingSegError, OSError) as exc:
            failures += 1
            log.error("frame %s: %s", stem, exc)
    summary: dict = {"frame": "all", "frames": len(gt_files) - failures}
    if pred_dir:
        from .cloud import CLASS_NAMES, FOREGROUND_CLASSES

        ious = {}
        for c in range(4):
            union = agg_p[c] + agg_g[c] - agg_pg[c]
            ious[c] = agg_pg[c] / union if union else 1.0
            summary[f"iou_{CLASS_NAMES[c]}"] = ious[c]
        summary["avg_iou"] = float(np.mean([ious[int(c)] for c in FOREGROUND_CLASSES]))
    if clusters_dir and rec_frames:
        recall = rec_cov / rec_fg if rec_fg else 1.0
        summary.update({
            "recall": recall,
            "recall_pct": round(100.0 * recall, 2),
            "proposals_per_frame": round(rec_props / rec_frames, 2),
            "points_passed_per_frame": round(rec_passed / rec_frames, 1),
        })
    records.append(format_record(summary))
    _emit(records, output)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# bench / synth


def cmd_bench(cfg: PipelineConfig, reps: int, output: str | None) -> int:
    if cfg.input_path:
        frames = [(p.stem, None, p) for p in _list_frames(cfg.input_path)]
        if not frames:
            log.warning("no .bin frames under %s", cfg.input_path)
            return 0
    else:
        scene = generate_synthetic_scene(sample_traffic_scene(cfg.rng_seed, n_objects=6))
        frames = [("synthetic", scene.cloud, None)]
    records = []
    for stem, cloud, path in frames:
        if cloud is None:
            cloud = load_point_cloud(path)
        report, _ = benchmark_stage1(cloud, cfg.ground, cfg.cluster, cfg.refine,
                                     cfg.num_rings, repetitions=reps)
        records.append(format_record({"frame": stem, **report.to_record()}))
    _emit(records, output)
    return 0


def cmd_synth(scene_path: str, out_dir: str, frames: int, seed: int | None) -> int:
    spec = scene_from_file(scene_path)
    base_seed = spec.rng_seed if seed is None else seed
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(frames):
        scene = generate_synthetic_scene(replace(spec, rng_seed=base_seed + i))
        stem = out / f"{i:06d}"
        save_point_cloud(scene.cloud, f"{stem}.bin")
        save_labels(scene.cloud.labels, f"{stem}.label")
        scene.ground_mask.astype(np.uint8).tofile(f"{stem}.ground")
        scene.ring_ids.astype("<u4").tofile(f"{stem}.rings")
    log.info("wrote %d synthetic frame(s) to %s", frames, out_dir)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--input", help="input directory")
    p.add_argument("--output", help="output directory or file")
    p.add_argument("--seed", type=int, help="rng seed override")
    p.add_argument("--jobs", type=int, help="worker processes (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringseg",
        description="Ring-based LiDAR cluster proposals and sample preparation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="run the proposal pipeline over frames")
    _add_common(p)

    p = sub.add_parser("prepare", help="build a training-sample archive")
    _add_common(p)
    p.add_argument("--segments", help="directory with segment outputs "
                                      "(default: the input directory)")
    p.add_argument("--augment", action="store_true",
                   help="emit all 8 isometry variants per foreground sample")
    p.add_argument("--n-points", type=int, help="rows per sample")

    p = sub.add_parser("eval", help="point-wise metrics and proposal recall")
    _add_common(p)
    p.add_argument("--gt", required=True, help="directory with ground-truth .label")
    p.add_argument("--pred", help="directory with predicted .label")
    p.add_argument("--clusters", help="directory with .cluster files")

    p = sub.add_parser("bench", help="time the pipeline per frame")
    _add_common(p)
    p.add_argument("--reps", type=int, default=10, help="timed repetitions")

    p = sub.add_parser("synth", help="generate synthetic frames from a scene file")
    _add_common(p)
    p.add_argument("--scene", required=True, help="scene description file")
    p.add_argument("--frames", type=int, default=1, help="number of frames")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        overrides = {
            "rng_seed": args.seed,
            "jobs": args.jobs,
            "input": args.input,
            "output": args.output,
        }
        if getattr(args, "augment", False):
            overrides["prep.augment"] = True
        if getattr(args, "n_points", None) is not None:
            overrides["prep.n_points"] = args.n_points
        cfg = load_config(args.config, overrides)

        if args.command == "segment":
            return cmd_segment(cfg)
        if args.command == "prepare":
            return cmd_prepare(cfg, args.segments)
        if args.command == "eval":
            return cmd_eval(args.gt, args.pred, args.clusters, args.output)
        if args.command == "bench":
            return cmd_bench(cfg, args.reps, args.output)
        if args.command == "synth":
            if not args.output:
                raise ConfigError("output", "synth needs --output")
            return cmd_synth(args.scene, args.output, args.frames, args.seed)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        log.error("%s", exc)
        return 2
    except RingSegError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
