"""A fixed probe of how fast this machine runs right now.

On a shared host the cores' speed drifts by 30% or more over tens of
seconds, with whatever else the host runs. Raw wall times from two runs a
few minutes apart then differ by more than any change worth measuring.
The probe is a fixed piece of work that does not touch ringseg: unmarshal
and run a generated module body (what an import does) and a few numpy
passes over 100k elements (what a frame does). The benchmark runs it right
before each timed step and multiplies the run's median times by
`REFERENCE_S / median(probes)`, so a time reads as it would at the
reference speed. The raw medians are kept beside the scaled ones in each
run's record.
"""

from __future__ import annotations

import marshal
from time import perf_counter

import numpy as np

# the probe's time on the reference machine (2 vCPU x86-64 VM, Python 3.11,
# numpy 2.4, one BLAS thread) at its faster times; scaled times read as
# seconds on that machine
REFERENCE_S = 0.0140
REPEATS = 3

_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, 'k{i}')):\n    return {{'v': a + b[0] * {i}, 'n': b[1]}}\n"
    f"class C{i}:\n    x = {i}\n    def m(self):\n        return self.x\n"
    for i in range(120))
_CODE = marshal.dumps(compile(_SOURCE, "<speed>", "exec"))
_rng = np.random.default_rng(0)
_X = _rng.standard_normal(100_000)
_BINS = _rng.integers(0, 2_000, 100_000)


def _work() -> None:
    exec(marshal.loads(_CODE), {})
    order = np.argsort(_X, kind="stable")
    np.bincount(_BINS, weights=_X[order], minlength=2_000)
    np.arctan2(_X, _X[::-1]).cumsum()


def probe() -> float:
    """Fastest of a few runs of the fixed work, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        _work()
        best = min(best, perf_counter() - t0)
    return best


def scale(probe_s: float) -> float:
    """Factor that turns a time measured at `probe_s` into reference time."""
    return REFERENCE_S / probe_s
