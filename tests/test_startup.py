import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ringseg


def test_import_leaves_scipy_out():
    # a fresh interpreter, so modules that other tests imported do not count
    src = str(Path(ringseg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, ringseg, ringseg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"


SUBMODULES = frozenset(m.name for m in pkgutil.iter_modules(ringseg.__path__))
# what each command loads: itself and, forked from it, its --jobs children
COMMAND_MODULES = {
    "eval": {"cli", "errors", "cloud", "metrics"},
    "segment": SUBMODULES - {"bench", "metrics", "samples", "synth"},
    # prepare reads boxes and proposals from `boxes`; it loads no box-fit code
    "prepare": SUBMODULES - {"pipeline", "bench", "clustering", "ground", "kernels",
                             "metrics", "refine", "synth"},
    "synth": {"cli", "cloud", "config", "errors", "synth"},
    "bench": SUBMODULES - {"samples", "metrics", "synth"},
}
LOADED = "sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('ringseg.'))"


def _fresh(code: str, *argv: str, cwd=None) -> list:
    """Run `code` in a fresh interpreter and evaluate its last output line."""
    src = str(Path(ringseg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_submodule_and_no_numpy():
    loaded = _fresh("import sys, ringseg; print(sorted(m for m in sys.modules "
                    "if m.startswith('ringseg.') or m.split('.')[0] == 'numpy'))")
    assert loaded == []


def test_every_lazy_name_resolves():
    code = f"""
import importlib, sys, ringseg
for name in ringseg.__all__:
    module = ringseg._EXPORTS[name]
    assert getattr(ringseg, name) is getattr(sys.modules['ringseg.' + module], name), name
for module in {sorted(SUBMODULES)!r}:
    assert getattr(ringseg, module) is importlib.import_module('ringseg.' + module), module
try:
    ringseg.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError('unknown name resolved')
print(dir(ringseg))
"""
    listed = set(_fresh(code))
    assert set(ringseg.__all__) <= listed
    assert SUBMODULES <= listed
    assert "__version__" in listed


@pytest.fixture(scope="module")
def two_frames(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    (root / "in").mkdir()
    for k in range(2):
        car = ringseg.ObjectSpec(class_id=1, shape="box", x=8.0 + k, y=2.0, yaw_deg=30.0,
                                 length=4.2, width=1.8, height=1.5)
        scene = ringseg.generate_synthetic_scene(ringseg.SceneSpec(
            num_rings=16, points_per_ring=400, elevation_min_deg=-14, elevation_max_deg=-1.2,
            rng_seed=k, objects=(car,)))
        ringseg.save_point_cloud(scene.cloud, root / "in" / f"{k:06d}.bin")
        ringseg.save_labels(scene.cloud.labels, root / "in" / f"{k:06d}.label")
    (root / "scene.cfg").write_text("num_rings = 16\npoints_per_ring = 400\n"
                                    "elevation_min_deg = -14\nelevation_max_deg = -1.2\n")
    return root


# the command's own first frame (the parent runs share 0 of a --jobs run)
FIRST_FRAME_IMPORTS = """
from ringseg import cli
attempt, first = cli._attempt, []
def _attempt(worker, frame):
    before = set(sys.modules)
    outcome = attempt(worker, frame)
    if not first:
        first.append(sorted(set(sys.modules) - before))
    return outcome
cli._attempt = _attempt
"""


def test_each_command_loads_only_its_modules(two_frames):
    # the frame loop forks its children itself: no process pool is imported;
    # and a command loads what its workers use before it forks, so no
    # process imports a module in its first frame
    code = ("import sys" + FIRST_FRAME_IMPORTS + "assert cli.main(sys.argv[1:]) == 0; "
            f"print(({LOADED}, sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules), first))")
    runs = {
        "segment": ["segment", "--input", "in", "--output", "seg", "--jobs", "2"],
        "prepare": ["prepare", "--input", "in", "--segments", "seg", "--output",
                    "s.ps3d", "--augment", "--jobs", "2"],
        "eval": ["eval", "--gt", "in", "--clusters", "seg", "--output", "e.txt"],
        "synth": ["synth", "--scene", "scene.cfg", "--output", "synth"],
        "bench": ["bench", "--input", "in", "--reps", "1", "--output", "b.txt"],
    }
    for command, argv in runs.items():  # in order: prepare and eval read seg/
        loaded, pools, first = _fresh(code, *argv, cwd=two_frames)
        assert set(loaded) == COMMAND_MODULES[command], command
        assert pools == [], command
        if command in ("segment", "prepare", "eval"):
            assert first == [[]], (command, first)


def test_cli_freezes_the_heap_and_library_calls_do_not(two_frames):
    # the frame loop freezes what the command loaded, so the collections at
    # exit skip it; the collector stays on, and a library caller gets no setting
    code = ("import gc, sys, ringseg.cli; loaded = len(gc.get_objects()); "
            "code = ringseg.cli.main(sys.argv[1:]); "
            "print((code, gc.get_freeze_count() >= loaded, gc.isenabled()))")
    for argv in (["segment", "--input", "in", "--output", "gc_seg", "--jobs", "2"],
                 ["prepare", "--input", "in", "--segments", "gc_seg", "--output",
                  "gc.ps3d", "--augment"],
                 ["eval", "--gt", "in", "--clusters", "gc_seg", "--output", "gc.txt"]):
        assert _fresh(code, *argv, cwd=two_frames) == (0, True, True), argv[0]
    library = ("import gc, ringseg; "
               "cloud = ringseg.generate_synthetic_scene(ringseg.sample_traffic_scene(0)).cloud; "
               "cfg = ringseg.load_config(); "
               "ringseg.run_stage1(cloud, cfg.ground, cfg.cluster, cfg.refine, cfg.num_rings); "
               "print((gc.get_freeze_count(), gc.isenabled()))")
    assert _fresh(library) == (0, True)
