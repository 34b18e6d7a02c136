"""Per-frame wall-clock benchmark of the proposal pipeline.

Timing is observational: the benchmark re-runs the identical pipeline and
reports median/p95 per stage, so its outputs always equal an untimed run.
A warm-up iteration is excluded from the statistics. Next to the times it
reports the median minor page faults per run (own process): the pages the
kernel had to map in and zero-fill for it.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .pipeline import Stage1Result, run_stage1


@dataclass(frozen=True)
class TimingReport:
    repetitions: int
    points_in: int
    proposals_out: int
    points_passed: int
    median_us: dict[str, float]
    p95_us: dict[str, float]
    faults_med: float

    def to_record(self) -> dict:
        rec: dict = {
            "reps": self.repetitions,
            "points_in": self.points_in,
            "proposals": self.proposals_out,
            "points_passed": self.points_passed,
        }
        for stage in self.median_us:
            rec[f"{stage}_us_med"] = round(self.median_us[stage], 1)
            rec[f"{stage}_us_p95"] = round(self.p95_us[stage], 1)
        rec["faults_med"] = self.faults_med
        return rec


def benchmark_stage1(
    cloud: PointCloud,
    ground_params,
    cluster_params,
    refine_params,
    num_rings: int,
    repetitions: int = 10,
) -> tuple[TimingReport, Stage1Result]:
    """Run the pipeline repetitions times and aggregate per-stage timings.

    Returns the report plus the (identical across runs) pipeline result.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    args = (ground_params, cluster_params, refine_params, num_rings)
    result = run_stage1(cloud, *args)  # warm-up, excluded
    runs, faults = [], []
    for _ in range(repetitions):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        result = run_stage1(cloud, *args)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        runs.append(result.timings)
    # stages in the order of Stage1Result.timings
    samples = {stage: [t[stage] * 1e6 for t in runs] for stage in result.timings}
    report = TimingReport(
        repetitions=repetitions,
        points_in=result.points_in,
        proposals_out=len(result.proposals),
        points_passed=result.points_passed,
        median_us={s: float(np.median(t)) for s, t in samples.items()},
        p95_us={s: float(np.percentile(t, 95)) for s, t in samples.items()},
        faults_med=float(np.median(faults)),
    )
    return report, result
