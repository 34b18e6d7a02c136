"""One benchmark run: set-up, the in-process frame loop, CLI cycles, checks.

Every workload is a closed loop driven from this one process: the next
frame or command starts only when the previous one has returned. A run
interleaves passes over the frame set (`run_stage1`, warm, in-process)
with CLI cycles (`segment --jobs 2`, `prepare --augment --jobs 2`,
`eval --clusters`, each a fresh process, plus fresh `import ringseg`
probes), giving the CLI cycles a fixed share of the measured time. Every
timing is its median over the run, scaled to the reference machine's speed
with the probes of `speed.py`.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.metadata
import importlib.util
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import ringseg.cli
import ringseg.pipeline
from ringseg import (
    RingSegError,
    generate_synthetic_scene,
    load_config,
    load_samples,
    save_labels,
    save_point_cloud,
)

import speed
from spans import FRAME_SPAN, Tracer
from workloads import GAPS, WORKLOADS, frame_specs

JOBS = 2
SETUP_REPEATS = 3
# one CLI cycle, each step a fresh process; `startup` is a bare `import
# ringseg`. Start-up is most of every step and varies most from sample to
# sample, so the shorter steps run more than once.
CYCLE = ("segment", "startup", "prepare", "eval", "startup", "prepare", "eval", "startup")
MIN_REPEATS = 3  # frame passes and CLI cycles
ACCEPTANCE_RECALL = 0.95  # acceptance test 3's bound
CLI_SHARE = 0.65  # of the measured time, the rest going to frame passes
HELD_OUT_SEED = 7919  # checked once per workload before a gain is claimed; never tuned on
CLI_MAIN = "import sys; from ringseg.cli import main; sys.exit(main())"
SUBPROCESS_TIMEOUT_S = 150


def _commands(seg: str, archive: str, report: str, jobs: int) -> dict[str, list[str]]:
    return {
        "segment": ["segment", "--input", "inputs", "--output", seg, "--jobs", str(jobs)],
        "prepare": ["prepare", "--input", "inputs", "--segments", seg, "--output", archive,
                    "--augment", "--jobs", str(jobs)],
        "eval": ["eval", "--gt", "inputs", "--clusters", seg, "--output", report],
    }


def frame_digest(result) -> str:
    """sha256 over a frame's cluster labels and every proposal's members and box."""
    h = hashlib.sha256(np.ascontiguousarray(result.cluster_labels).tobytes())
    for p in result.proposals:
        b = p.bbox
        h.update(np.ascontiguousarray(p.member_indices).tobytes())
        h.update(np.array([p.cluster_id, p.distance, b.yaw, *b.center,
                           *b.half_extents, *b.normal], dtype=np.float64).tobytes())
    return h.hexdigest()


def outputs_digest(run_dir: Path, seg: str, archive: str) -> str | None:
    """sha256 over the label files and manifests `segment` wrote and the
    archive; None when some output is missing."""
    h = hashlib.sha256()
    try:
        for path in sorted((run_dir / seg).iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        h.update((run_dir / archive).read_bytes())
    except OSError:
        return None
    return h.hexdigest()


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    try:
        backend = importlib.import_module("ringseg.kernels").active_backend()
    except (ImportError, AttributeError):
        backend = None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Run:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = root / ".perfbench" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        # a fixed hash seed takes one source of run-to-run variation out of the children
        self.env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0"}
        self.cfg = load_config()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failed operations and failed checks
        self.scenes = []
        self.probes: list[float] = []  # speed.probe() before each timed step
        self.reference: dict[int, tuple[np.ndarray, int, str]] = {}  # labels, proposals, digest

    # -- bookkeeping ---------------------------------------------------------

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def wrong(self, what: str) -> None:
        self.problems.append(what)

    # -- set-up --------------------------------------------------------------

    def setup(self) -> float:
        """Generate the frame set, write it as .bin/.label files, warm up."""
        self.probes.append(speed.probe())
        t0 = perf_counter()
        scenes = [generate_synthetic_scene(s) for s in frame_specs(self.workload, self.seed)]
        inputs = self.dir / "inputs"
        inputs.mkdir(exist_ok=True)
        for k, scene in enumerate(scenes):
            save_point_cloud(scene.cloud, inputs / f"{k:06d}.bin")
            save_labels(scene.cloud.labels, inputs / f"{k:06d}.label")
        self._stage1(scenes[0].cloud)
        self.scenes = scenes
        return perf_counter() - t0

    def _stage1(self, cloud):
        c = self.cfg
        # looked up on the module, so a traced pass reaches the wrapper
        return ringseg.pipeline.run_stage1(cloud, c.ground, c.cluster, c.refine, c.num_rings)

    # -- in-process frame loop -----------------------------------------------

    def frame_pass(self, times: dict[int, list[float]], tracer: Tracer | None = None,
                   pass_id: int = 0) -> None:
        """Run every frame once, appending each call's wall time under its
        frame; the first pass records the reference outputs, later passes
        must equal them."""
        self.probes.append(speed.probe())
        for k, scene in enumerate(self.scenes):
            if tracer is not None:
                tracer.frame = pass_id * len(self.scenes) + k
            self.attempted += 1
            t0 = perf_counter()
            try:
                result = self._stage1(scene.cloud)
            except Exception as exc:  # a failed frame is counted, the run goes on
                self.fail(f"frame {k}: {type(exc).__name__}: {exc}")
                continue
            times[k].append(perf_counter() - t0)
            digest = frame_digest(result)
            if k not in self.reference:
                self.reference[k] = (result.cluster_labels, len(result.proposals), digest)
            elif self.reference[k][2] != digest:
                self.wrong(f"frame {k}: output differs from the first pass"
                           + (" (traced)" if tracer else ""))

    def fg_recall(self) -> float:
        covered = total = 0
        for k, (labels, _, _) in self.reference.items():
            fg = self.scenes[k].cloud.labels > 0
            total += int(fg.sum())
            covered += int((fg & (labels > 0)).sum())
        return covered / total if total else 1.0

    # -- CLI cycles ----------------------------------------------------------

    def _subprocess(self, argv: list[str]) -> float | None:
        self.attempted += 1
        self.probes.append(speed.probe())
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=self.dir, env=self.env,
                              capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            self.fail(f"{argv[:3]} exited {proc.returncode}: {tail[0]}")
            return None
        return wall

    def cli_cycle(self, walls: dict[str, list[float]]) -> str | None:
        """The CYCLE's steps as fresh processes; returns the outputs' digest
        when every step succeeded."""
        commands = _commands("seg", "samples.ps3d", "eval.txt", JOBS)
        for name in CYCLE:
            argv = ["import ringseg"] if name == "startup" else [CLI_MAIN, *commands[name]]
            wall = self._subprocess(["-c", *argv])
            if wall is None:
                return None
            walls[name].append(wall)
        return outputs_digest(self.dir, "seg", "samples.ps3d")

    def check_cli_outputs(self, recall: float) -> int:
        """The CLI's outputs must agree with the in-process run; returns the
        number of samples written."""
        try:
            return self._check_cli_outputs(recall)
        except (OSError, ValueError, RingSegError) as exc:
            self.wrong(f"CLI outputs unreadable: {type(exc).__name__}: {exc}")
            return 0

    def _check_cli_outputs(self, recall: float) -> int:
        seg = self.dir / "seg"
        for k, (labels, n_props, _) in self.reference.items():
            cluster = np.fromfile(seg / f"{k:06d}.cluster", dtype="<u4")
            if not np.array_equal(cluster, labels):
                self.wrong(f"frame {k}: segment labels differ from run_stage1")
            manifest = (seg / f"{k:06d}.proposals.txt").read_text(encoding="utf-8")
            if len(manifest.splitlines()) != n_props:
                self.wrong(f"frame {k}: manifest has the wrong proposal count")
        _, records = load_samples(self.dir / "samples.ps3d")
        if not records:
            self.wrong("prepare wrote no samples")
        summary = (self.dir / "eval.txt").read_text(encoding="utf-8").splitlines()[-1]
        fields = dict(tok.split("=", 1) for tok in summary.split())
        if float(fields.get("recall", "nan")) != recall:
            self.wrong(f"eval recall {fields.get('recall')} != in-process {recall!r}")
        return len(records)

    def traced_cli_cycle(self, tracer: Tracer) -> str | None:
        """segment, prepare and eval in this process at --jobs 1, traced."""
        tracer.phase, tracer.frame = "cli", -1
        cwd = os.getcwd()
        os.chdir(self.dir)
        try:
            for name, argv in _commands("seg_traced", "samples_traced.ps3d",
                                        "eval_traced.txt", 1).items():
                self.attempted += 1
                try:
                    with tracer:
                        code = ringseg.cli.main(argv)
                except Exception as exc:  # counted like a command that exits non-zero
                    code = f"{type(exc).__name__}: {exc}"
                if code != 0:
                    self.fail(f"in-process {name} exited {code}")
        finally:
            os.chdir(cwd)
        return outputs_digest(self.dir, "seg_traced", "samples_traced.ps3d")

    def importtime_ms(self) -> float:
        """Self import time of scipy modules from `python -X importtime`."""
        self.attempted += 1
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ringseg"],
                              cwd=self.dir, env=self.env, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        if proc.returncode != 0:
            self.fail("import ringseg failed under -X importtime")
            return 0.0
        total_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2].strip()
            if name == "scipy" or name.startswith("scipy."):
                total_us += int(parts[0].split(":")[1])
        return total_us / 1e3

    # -- the two kinds of run ------------------------------------------------

    def measure(self) -> tuple[dict, dict]:
        setups = [self.setup() for _ in range(SETUP_REPEATS)]
        times: dict[int, list[float]] = defaultdict(list)
        walls: dict[str, list[float]] = defaultdict(list)
        digests: set[str] = set()
        spent = {"frames": 0.0, "cli": 0.0}
        samples_written = 0
        recall = None
        passes = cycles = 0
        while (sum(spent.values()) < self.seconds
               or passes < MIN_REPEATS or cycles < MIN_REPEATS):
            t0 = perf_counter()
            if passes and spent["cli"] <= CLI_SHARE * sum(spent.values()):
                cycles += 1
                digest = self.cli_cycle(walls)
                if digest is not None:
                    if not digests:
                        samples_written = self.check_cli_outputs(recall)
                    digests.add(digest)
                spent["cli"] += perf_counter() - t0
            else:
                passes += 1
                self.frame_pass(times)
                recall = self.fg_recall()
                spent["frames"] += perf_counter() - t0
        if len(digests) > 1:
            self.wrong("CLI outputs differ between cycles")
        if recall is not None and recall < ACCEPTANCE_RECALL:
            self.wrong(f"fg_recall {recall:.4f} < {ACCEPTANCE_RECALL}")
        n = len(self.scenes)
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

        # every timing is a median over the run, scaled to the reference speed
        # by the median of the run's speed probes (speed.py)
        factor = speed.scale(statistics.median(self.probes))
        median = lambda xs: statistics.median(xs) if xs else float("nan")
        calls = [t * 1e3 for ts in times.values() for t in ts]
        p50, p90 = np.percentile(calls, [50, 90]) if calls else (np.nan, np.nan)
        unscaled = {
            "frame_ms_p50": float(p50),
            "frame_ms_p90": float(p90),
            **{f"{name}_s": median(walls[name]) for name in ("segment", "prepare", "eval",
                                                             "startup")},
            "setup_s": statistics.median(setups),
        }
        metrics = {
            "frame_ms_p50": (unscaled["frame_ms_p50"] * factor, "ms"),
            "segment_fps": (n / (unscaled["segment_s"] * factor), "frames/s"),
            "prepare_sps": (samples_written / (unscaled["prepare_s"] * factor), "samples/s"),
            "eval_fps": (n / (unscaled["eval_s"] * factor), "frames/s"),
            "startup_s": (unscaled["startup_s"] * factor, "s"),
            "setup_s": (unscaled["setup_s"] * factor, "s"),
            "fg_recall": (recall if recall is not None else float("nan"), "ratio"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        detail = {
            # valid as a tail only with at least 10 calls beyond it: shown, not gated
            "frame_ms_p90": float(p90 * factor),
            "speed_probe_s": statistics.median(self.probes),
            "speed_factor": factor,
            "unscaled": unscaled,
            "frames": n,
            "frame_calls": len(calls),
            "frame_passes": passes,
            "cli_cycles": cycles,
            "startup_probes": len(walls["startup"]),
            "samples_written": samples_written,
            "failed_frac": self.failed / max(self.attempted, 1),
            "outputs_sha256": sorted(digests),
        }
        return metrics, detail

    def measure_traced(self) -> tuple[dict, dict]:
        self.setup()
        tracer = Tracer()
        tracer.phase = "frames"
        untraced: dict[int, list[float]] = defaultdict(list)
        traced: dict[int, list[float]] = defaultdict(list)
        frame_budget = self.seconds * (1.0 - CLI_SHARE)
        t0 = perf_counter()
        passes = 0
        while passes < 1 or perf_counter() - t0 < frame_budget:
            self.frame_pass(untraced)
            with tracer:
                self.frame_pass(traced, tracer, passes)
            passes += 1
        recall = self.fg_recall()

        walls: dict[str, list[float]] = defaultdict(list)
        reference = self.cli_cycle(walls)
        if reference is not None:
            self.check_cli_outputs(recall)
        t0 = perf_counter()
        cycles = 0
        while cycles < 1 or perf_counter() - t0 < self.seconds * CLI_SHARE:
            digest = self.traced_cli_cycle(tracer)
            if digest is None or digest != reference:
                self.wrong("traced CLI outputs differ from the untraced CLI run")
            cycles += 1
        scipy_ms = self.importtime_ms()
        tracer.write(self.dir / "spans.jsonl")
        metrics = layer_metrics(tracer, len(self.scenes), cycles, untraced, traced)
        metrics["startup.scipy_import_ms"] = (scipy_ms, "ms")
        detail = {"frames": len(self.scenes), "traced_passes": passes,
                  "traced_cli_cycles": cycles, "unwrapped": tracer.missing,
                  "failed_frac": self.failed / max(self.attempted, 1),
                  "outputs_sha256": reference}
        return metrics, detail

    def result(self) -> dict:
        metrics, detail = self.measure_traced() if self.trace else self.measure()
        for name, (value, unit) in metrics.items():
            if not np.isfinite(value):
                self.wrong(f"{name} could not be measured")
                metrics[name] = (0.0, unit)
        detail.update(
            workload=self.workload, seed=self.seed, held_out_seed=HELD_OUT_SEED,
            why=self.wl["why"], layers=self.wl["layers"],
            not_covered=self.wl["not_covered"], gaps=list(GAPS),
            environment=environment(), problems=self.problems,
        )
        return {"metrics": metrics, "detail": detail}

    def cleanup(self) -> None:
        """Keep only the result and span files of the run directory."""
        for path in self.dir.iterdir():
            if path.name in ("result.json", "spans.jsonl"):
                continue
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()


def overhead_pct(untraced: dict[int, list[float]], traced: dict[int, list[float]]) -> float:
    """Median over frames of the traced/untraced ratio of fastest calls, in %."""
    ratios = [min(traced[k]) / min(untraced[k]) for k in traced if untraced.get(k)]
    return float(np.median(ratios) - 1.0) * 100.0 if ratios else 0.0


def layer_metrics(tracer: Tracer, n_frames: int, cycles: int,
                  untraced: dict[int, list[float]], traced: dict[int, list[float]]) -> dict:
    """Per-layer self times and counts from the traced run's spans.

    Frame-loop layers report the median over frames of each frame's summed
    self time; CLI layers report total self time per frame of the workload.
    """
    per_frame: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    spans_of_frame: dict[int, float] = {}
    for frame, layer, self_s, counts in tracer.self_times("frames"):
        bucket = per_frame[frame]
        bucket[layer + "_s"] += self_s
        for key, value in (counts or {}).items():
            bucket[key] += value
    for span in tracer.spans:
        if span[0] == "frames" and span[2] == FRAME_SPAN:
            spans_of_frame[span[1]] = span[4] - span[3]
    frames = list(per_frame.values())

    def median_of(key, scale=1.0):
        return float(np.median([f.get(key, 0.0) for f in frames]) * scale) if frames else 0.0

    def total(key):
        return sum(f.get(key, 0.0) for f in frames)

    def ratio(num, den):
        return num / den if den else 0.0

    cli: dict[str, float] = defaultdict(float)
    for _, layer, self_s, counts in tracer.self_times("cli"):
        cli[layer] += self_s
        for key, value in (counts or {}).items():
            cli[key] += value
    per_cli_frame = lambda layer: cli[layer] * 1e3 / (n_frames * cycles)

    coverage = [ratio(d - per_frame[f].get(FRAME_SPAN + "_s", 0.0), d)
                for f, d in spans_of_frame.items()]
    passes = max(len(frames) // max(n_frames, 1), 1)
    return {
        "cloud.assign_rings_ms": (median_of("cloud.assign_rings_s", 1e3), "ms"),
        "cloud.rings_found": (median_of("rings_found"), "count"),
        "cloud.load_ms": (per_cli_frame("cloud.load"), "ms"),
        "ground.fit_ms": (median_of("ground.fit_s", 1e3), "ms"),
        "ground.ground_frac": (ratio(total("ground_points"), total("points")), "ratio"),
        "ground.degenerate_segments": (total("degenerate_segments") / passes, "count"),
        "clustering.scan_ms": (median_of("clustering.scan_s", 1e3), "ms"),
        "clustering.resolve_ms": (median_of("clustering.resolve_s", 1e3), "ms"),
        "clustering.points_in": (median_of("points_in"), "count"),
        "clustering.clusters": (median_of("clusters"), "count"),
        "clustering.scan_us_per_point": (
            ratio(total("clustering.scan_s") * 1e6, total("points_in")), "us/point"),
        "refine.boxfit_ms": (median_of("refine.boxfit_s", 1e3), "ms"),
        "refine.boxfits": (median_of("boxfits"), "count"),
        "refine.filter_ms": (median_of("refine.filter_s", 1e3), "ms"),
        "refine.keep_ratio": (ratio(total("kept"), total("candidates")), "ratio"),
        "refine.merge_ms": (median_of("refine.merge_s", 1e3), "ms"),
        "refine.absorbed_points": (median_of("absorbed_points"), "count"),
        "pipeline.self_ms": (median_of(FRAME_SPAN + "_s", 1e3), "ms"),
        "samples.canonical_ms": (per_cli_frame("samples.canonical"), "ms"),
        "samples.augment_ms": (per_cli_frame("samples.augment"), "ms"),
        "samples.resample_ms": (per_cli_frame("samples.resample"), "ms"),
        "samples.export_ms": (per_cli_frame("samples.export"), "ms"),
        "samples.written": (cli["written"] / cycles, "count"),
        "cli.segment_self_ms": (per_cli_frame("cli.segment"), "ms"),
        "cli.prepare_self_ms": (per_cli_frame("cli.prepare"), "ms"),
        "cli.eval_self_ms": (per_cli_frame("cli.eval"), "ms"),
        "metrics.recall_ms": (per_cli_frame("metrics.recall"), "ms"),
        "trace.overhead_pct": (overhead_pct(untraced, traced), "%"),
        "trace.coverage": (float(np.median(coverage)) if coverage else 0.0, "ratio"),
    }
