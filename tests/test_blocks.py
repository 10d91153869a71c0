"""Dense per-cell work runs in blocks of ``models._BLOCK`` cells.

Unprojection, projection, field generation, the grid metrics and RANSAC
scoring all cut their cells with ``models._blocks``.  These tests hold the
blocked results to one whole-grid call, keep every call of the unprojection
within one block, bound the memory that field generation and evaluation
take and check that a fit's blocks reuse resident memory.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import raycalib as rc
import raycalib.cli
import raycalib.fit
import raycalib.fov
import raycalib.metrics
import raycalib.models
from raycalib.fileio import write_spec
from raycalib.models import (
    _BLOCK,
    _project_cells,
    _ray_angle,
    _unproject_cells,
    pixel_centers,
    theta_max,
)

from conftest import ALL_MODEL_STRINGS

# 160 x 160 = 25,600 cells: three full blocks and a partial one
SIZE = 160


def camera(name: str, focal_scale: float = 1.0) -> rc.CameraSpec:
    spec = rc.sample_spec_for_model(rc.parse_model(name), SIZE, np.random.default_rng(3))
    return spec.replace(fx=spec.fx * focal_scale, fy=spec.fy * focal_scale)


def peak_mib(fn) -> float:
    """Traced allocation peak of ``fn()`` above what was allocated before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if started:
            tracemalloc.stop()


def test_grid_has_a_partial_block():
    n = SIZE * SIZE
    assert n // _BLOCK >= 3 and n % _BLOCK > 0


class TestBlockEdges:
    """Blocked results against one ``_unproject_cells`` call over the whole grid."""

    PX = pixel_centers(SIZE, SIZE).reshape(-1, 2)

    # at a quarter of the focal, radial:1, kb:1, kb:3, eucm and division:2
    # fold inside the image: 5,928 to 20,056 of the cells do not unproject
    @pytest.mark.parametrize("scale", [1.0, 0.25])
    @pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
    def test_unproject_masked(self, name, scale):
        spec = camera(name, scale)
        want, want_ok, _ = _unproject_cells(spec, self.PX)
        rays, ok = rc.unproject_masked(spec, self.PX)
        np.testing.assert_array_equal(ok, want_ok)
        np.testing.assert_array_equal(rays[ok], want[ok])

    def test_folded_cameras_drop_cells(self):
        dropped = {n: int(np.count_nonzero(~rc.unproject_masked(camera(n, 0.25), self.PX)[1]))
                   for n in ("radial:1", "kb:1", "kb:3", "eucm", "division:2")}
        assert all(dropped.values()), dropped

    @pytest.mark.parametrize("scale", [1.0, 0.25])
    @pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
    def test_project_masked(self, name, scale):
        spec = camera(name, scale)
        rays, ok = _unproject_cells(spec, self.PX)[:2]
        rays = rays[ok]
        u, v, want_ok = _project_cells(spec, rays, theta_max(spec))
        px, got_ok = rc.project_masked(spec, rays)
        np.testing.assert_array_equal(got_ok, want_ok)
        np.testing.assert_array_equal(px[:, 0], u)
        np.testing.assert_array_equal(px[:, 1], v)

    @pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
    def test_field_from_spec(self, name):
        spec = camera(name)
        want = rc.log_map(_unproject_cells(spec, self.PX)[0]).reshape(SIZE, SIZE, 2)
        np.testing.assert_array_equal(rc.field_from_spec(spec).theta, want)

    @pytest.mark.parametrize("name", ALL_MODEL_STRINGS)
    def test_evaluate(self, name):
        gt = camera(name)
        est = gt.replace(fx=gt.fx * 1.01, cx=gt.cx + 0.7)
        report = rc.evaluate(gt, est)
        assert report.ae_mean == rc.angular_error(gt, est)
        assert report.re_mean == rc.reproj_error(gt, est)
        # the whole-grid means, summed in the same order
        p, ok_g, _ = _unproject_cells(gt, self.PX)
        q, ok_e, _ = _unproject_cells(est, self.PX)
        ok = ok_g & ok_e
        ae = float(np.mean(np.degrees(_ray_angle(p[ok], q[ok]))))
        u, v, ok_r = _project_cells(est, p, theta_max(est))
        ok_r &= ok_g
        px = np.stack([u, v], axis=-1)
        re = float(np.mean(np.linalg.norm(px[ok_r] - self.PX[ok_r], axis=-1)))
        assert report.dropped_ae == ok.size - np.count_nonzero(ok)
        assert report.dropped_re == ok_r.size - np.count_nonzero(ok_r)
        assert report.ae_mean == ae
        assert report.re_mean == re


class TestNoWholeGridCall:
    """Every dense caller hands the unprojection one block of cells at a time."""

    @pytest.fixture
    def guard(self, monkeypatch):
        calls = []

        def wrap(fn):
            def guarded(spec, cells, *args, **kwargs):
                calls.append(len(np.reshape(cells, (-1, np.shape(cells)[-1]))))
                assert calls[-1] <= _BLOCK, f"{fn.__name__} got {calls[-1]} cells"
                return fn(spec, cells, *args, **kwargs)
            return guarded

        for name in ("_unproject_cells", "_project_cells"):
            guarded = wrap(getattr(rc.models, name))
            for module in (rc.models, rc.fit, rc.fov, rc.metrics, rc.cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, guarded)
        return calls

    # 256 x 256 = 8 blocks
    GT = rc.sample_spec_for_model(rc.parse_model("kb:2"), 256, np.random.default_rng(4))
    EST = GT.replace(fx=GT.fx * 1.01, fy=GT.fy * 1.01)

    def test_field_from_spec(self, guard):
        rc.field_from_spec(self.GT)
        assert max(guard) == _BLOCK

    def test_evaluate(self, guard):
        rc.evaluate(self.GT, self.EST)
        assert max(guard) == _BLOCK

    def test_calibrate_ransac(self, guard):
        field = rc.field_from_spec(self.GT)
        guard.clear()
        rc.calibrate_ransac(field, self.GT.model, iters=3, seed=1)
        assert max(guard) == _BLOCK

    def test_convert_model(self, guard):
        rc.convert_model(self.GT, rc.parse_model("ucm"), stride=1)
        assert max(guard) == _BLOCK

    def test_eval_dump_per_pixel(self, guard, tmp_path):
        for side, spec in (("gt", self.GT), ("est", self.EST)):
            (tmp_path / side).mkdir()
            write_spec(tmp_path / side / "0000.json", spec)
        argv = ["eval", str(tmp_path / "est"), str(tmp_path / "gt"), "--stride", "1",
                "--dump-per-pixel", "-o", str(tmp_path / "rep")]
        assert rc.cli.main(argv) == 0
        assert max(guard) == _BLOCK


class TestPeakMemory:
    """Traced peaks on a 512 x 512 ``kb:4`` camera (the output field alone is
    4 MiB).  Whole-grid pixel, ray and error arrays took 32.5 MiB for the
    field and 40.8 MiB for the evaluation; blocked, 5.4 and 7.7 MiB."""

    GT = rc.sample_spec_for_model(rc.parse_model("kb:4"), 512, np.random.default_rng(5))

    def test_field_from_spec(self):
        assert peak_mib(lambda: rc.field_from_spec(self.GT)) <= 6.5

    def test_evaluate(self):
        est = self.GT.replace(fx=self.GT.fx * 1.01, cx=self.GT.cx + 0.7)
        assert peak_mib(lambda: rc.evaluate(self.GT, est)) <= 9.0


FAULTS_PER_FIT = textwrap.dedent("""
    import resource, sys
    import numpy as np
    import raycalib as rc

    spec = rc.sample_spec_for_model(rc.parse_model(sys.argv[1]), 128, np.random.default_rng(1))
    field = rc.add_noise(rc.field_from_spec(spec), 0.5, seed=1)
    rc.calibrate(field, spec.model)  # warm-up: imports, caches, the heap's first growth
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(8):
        rc.calibrate(field, spec.model)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 8)
""")


@pytest.mark.skipif(
    importlib.util.find_spec("resource") is None or platform.libc_ver()[0] != "glibc",
    reason="counts minor page faults under glibc's dynamic malloc thresholds",
)
@pytest.mark.parametrize("name", ["radial:1", "kb:4"])
def test_fit_blocks_stay_resident(name):
    # a 128x128 fit frees no array above 768 KiB, so without the 4 MiB
    # buffer ``models`` frees at import, glibc hands each block's
    # temporaries back to the kernel and faults them in again: about 6,000
    # minor faults per fit.  A fresh interpreter, because a process that
    # has freed a larger array has raised the thresholds already; MALLOC_*
    # settings switch the dynamic thresholds off, so they are cleared.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    src = str(Path(rc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_FIT, name], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert float(out.stdout) <= 64
