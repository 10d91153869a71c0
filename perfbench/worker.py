"""One benchmark workload in one fresh process.

Started by ``run.py``; not meant to be called by hand.  With ``--role
setup`` the process only imports raycalib, generates the workload's inputs
from the seed and warms up, then reports its set-up time and the input
fingerprint.  With ``--role run`` it goes on to the timed closed loop (one
client, synchronous calls into the public API), checks every result against
ground truth and reports the raw measurements as one JSON line.  With
``--trace`` every op is run untraced and then traced on the same input, and
the traced run also records per-layer spans and probes.
"""

import time

T0 = time.perf_counter()  # set-up clock starts before numpy and raycalib load

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field as dc_field  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = BENCH / ".state"

# a fitted spec whose mean angular error against ground truth exceeds this
# is a failed op.  Fits on the listed workloads stay below 0.05 deg; eucm
# fits whose alpha is clamped to 0 (after which GN stops on a singular step)
# land at 0.9-3.4 deg.
AE_TOL_DEG = 0.5
# That clamp is a known defect of the fit on noisy eucm fields of narrow
# cameras (horizontal FoV below about 82 deg).  The listed workloads draw eucm
# cameras at or above this FoV; eucm_narrow draws only those below it and
# reproduces the defect.
EUCM_MIN_HFOV_DEG = 90.0
GN_ENTRIES = 6  # algebraic cost plus five Gauss-Newton iterations

FIT_MODELS = (
    "pinhole", "radial:1", "radial:2", "radial:3", "radial:4",
    "kb:1", "kb:2", "kb:3", "kb:4", "ucm", "eucm",
    "division:1", "division:2", "division:3",
)
RANSAC_MODELS = ("pinhole", "radial:2", "kb:4", "ucm", "eucm", "division:2")
CLI_FIELDS = 64  # per pass; ae_deg_p50 is a median over these

SPEC_KEYS = ("model", "width", "height", "fx", "fy", "cx", "cy", "dist")


@dataclass
class Case:
    """One generated input: ground truth, the field to fit and its model."""

    spec: object
    field: object
    inliers: object = None  # known inlier cells (ransac_outliers only)
    ransac_seed: int = 0


@dataclass
class Op:
    """Outcome of one timed call."""

    case: int
    model: str
    seconds: float
    pixels: int
    error: str | None = None
    result: object = None
    extra: dict = dc_field(default_factory=dict)

    @property
    def costs(self):
        r = self.result
        return r["gn_costs"] if isinstance(r, dict) else r.gn_costs


class Mismatch(Exception):
    """Two computations that must agree bit for bit did not."""


def span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def sha256_arrays(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def gate(costs, ae) -> str | None:
    """Reason an op fails the correctness gate, or None."""
    if len(costs) != GN_ENTRIES:
        return f"gn_costs has {len(costs)} entries, expected {GN_ENTRIES}"
    if not all(math.isfinite(c) for c in costs):
        return "non-finite gn_costs"
    if any(b > a for a, b in zip(costs, costs[1:])):
        return "gn_costs increases"
    if not ae <= AE_TOL_DEG:
        return f"angular error {ae!r} deg above {AE_TOL_DEG} deg"
    return None


def hfov_deg(field) -> float:
    """Horizontal FoV between the outermost pixel centres of the middle row."""
    row = field.theta[field.theta.shape[0] // 2]
    return math.degrees(math.hypot(*row[0]) + math.hypot(*row[-1]))


def improving_iters(costs) -> int:
    return sum(1 for a, b in zip(costs, costs[1:]) if b < a)


def jacobian_bytes(n_cells: int, spec) -> int:
    """Computed size of the dense GN arrays dg, dq and J: n * 8 * P doubles."""
    return n_cells * 8 * (4 + len(spec.dist)) * 8


class Workload:
    """Inputs, the timed op and the traced op of one workload."""

    name = ""
    # distinct inputs per model string: ae_deg_p50 is a median over the
    # inputs, and its spread across seeds shrinks only with more of them
    REPEATS = 2

    def __init__(self, rc, np, seed: int, tracer: Tracer | None, work: Path):
        self.rc, self.np, self.seed, self.tracer, self.work = rc, np, seed, tracer, work
        self.cases: list[Case] = []

    def sweep_size(self) -> int:
        return len(self.cases)

    def fingerprint(self) -> str:
        parts = []
        for c in self.cases:
            parts += [c.spec.to_dict(), c.field.theta.tobytes(), c.ransac_seed]
            if c.inliers is not None:
                parts.append(c.inliers.tobytes())
        return sha256_arrays(parts)

    def input_bytes(self) -> int:
        return sum(c.field.theta.nbytes for c in self.cases)

    def working_set_bytes(self) -> int:
        return max(jacobian_bytes(c.field.theta.shape[0] * c.field.theta.shape[1], c.spec)
                   for c in self.cases)

    def wanted(self, model: str, hfov: float) -> bool:
        """Whether a drawn camera is an input (decided before any fit)."""
        return model != "eucm" or hfov >= EUCM_MIN_HFOV_DEG

    def _noisy_field(self, model: str, size: int, sigma: float, rng):
        rc = self.rc
        while True:  # draw until the camera is wanted; the stream stays seeded
            with span(self.tracer, "synth.sample"):
                spec = rc.sample_spec_for_model(rc.parse_model(model), size, rng)
            with span(self.tracer, "fov.field_from_spec"):
                clean = rc.field_from_spec(spec)
            if self.wanted(model, hfov_deg(clean)):
                break
        with span(self.tracer, "synth.noise"):
            noisy = rc.add_noise(clean, sigma, int(rng.integers(2**31)))
        return spec, noisy

    # per-op probes of layers the op does not call directly (traced run only)
    def probe_layers(self, case: Case, fitted) -> None:
        rc, tr = self.rc, self.tracer
        px = case.field.pixel_grid().reshape(-1, 2)
        with span(tr, "models.unproject") as rec:
            _, ok = rc.unproject_masked(fitted, px)
        rec["cells"], rec["valid"] = int(ok.size), int(ok.sum())
        with span(tr, "metrics.evaluate"):
            rc.evaluate(case.spec, fitted, grid_stride=1)
        path = self.work / "probe.aff1"
        with span(tr, "fileio.write_field"):
            rc.fileio.write_field(path, case.field)
        with span(tr, "fileio.read_field"):
            rc.fileio.read_field(path)

    def compose(self, field, model, corrs=None):
        """calibrate() as its public stages, one span per stage."""
        rc, tr = self.rc, self.tracer
        if corrs is None:
            with span(tr, "fit.correspondences"):
                corrs = rc.Correspondences.from_field(field)
        with span(tr, "fit.ppoint"):
            a, cx, cy = rc.fit_ppoint_aspect(corrs)
        with span(tr, "fit.linear"):
            spec0 = rc.fit_linear(model, corrs, a, (cx, cy), (field.width, field.height))
        with span(tr, "fit.refine") as rec:
            result = rc.refine(spec0, corrs)
        rec["mb"] = jacobian_bytes(len(corrs), spec0) / 1e6
        return result

    def check(self, op: Op) -> None:
        """Apply the correctness gate to a finished op (outside the timing)."""
        if op.error is None:
            ae = self.rc.angular_error(self.cases[op.case].spec, op.result.spec)
            op.extra["ae"] = ae
            op.error = gate(op.result.gn_costs, ae)

    def sweep(self) -> list[Op]:
        return [self.run_op(i) for i in range(len(self.cases))]

    def apply_gate(self, ops: list[Op]) -> None:
        first = ops[: len(self.cases)]
        for op in first:
            self.check(op)
        for op in ops[len(first):]:  # repeats are identical (checked): same verdict
            op.error, op.extra = first[op.case].error, first[op.case].extra

    def traced_sweep(self):
        """Each input untraced; the first input of each model string also
        traced.  Returns the untraced ops, the untraced and traced seconds of
        the traced inputs, the traced op seconds and workload-only metrics."""
        tr, ops = self.tracer, []
        untraced_s = traced_s = 0.0
        for i in range(len(self.cases)):
            op = self.run_op(i)
            ops.append(op)
            if i >= len(self.cases) // self.REPEATS or op.error is not None:
                continue
            untraced_s += op.seconds
            tr.op = i
            traced_s += self.traced_op(i, op)
            tr.op = None
        return ops, untraced_s, traced_s, sum(tr.durations("op")), {}


class FitNoisy(Workload):
    """calibrate() of 384x384 fields with 0.2 deg noise, two per model string."""

    name = "fit_noisy"
    SIZE, SIGMA = 384, 0.2
    MODELS = FIT_MODELS

    def setup(self) -> None:
        rng = self.np.random.default_rng(self.seed)
        for m in self.MODELS * self.REPEATS:
            spec, field = self._noisy_field(m, self.SIZE, self.SIGMA, rng)
            self.cases.append(Case(spec, field))

    def run_op(self, i: int) -> Op:
        c = self.cases[i]
        t = time.perf_counter()
        try:
            res = self.rc.calibrate(c.field, c.spec.model)
            err = None
        except Exception as exc:  # a raising op is a failed op, never a crash
            res, err = None, f"{type(exc).__name__}: {exc}"
        return Op(i, str(c.spec.model), time.perf_counter() - t, c.field.theta[..., 0].size,
                  err, res)

    def traced_op(self, i: int, untraced: Op) -> float:
        c, tr = self.cases[i], self.tracer
        t = time.perf_counter()
        with tr.span("op"):
            res = self.compose(c.field, c.spec.model)
        seconds = time.perf_counter() - t
        if res.spec != untraced.result.spec or res.gn_costs != untraced.result.gn_costs:
            raise Mismatch(f"{self.name}: public stages differ from calibrate() on case {i}")
        self.probe_layers(c, res.spec)
        return seconds


class EucmNarrow(FitNoisy):
    """calibrate() of 12 noisy 128x128 eucm fields of narrow cameras: the
    reproducer of the alpha clamp (see EUCM_MIN_HFOV_DEG).  Most seeds fail
    the gate on some inputs until the fit is fixed."""

    name = "eucm_narrow"
    SIZE, SIGMA = 128, 0.5
    MODELS = ("eucm",) * 6

    def wanted(self, model: str, hfov: float) -> bool:
        return hfov < EUCM_MIN_HFOV_DEG


class RansacOutliers(Workload):
    """calibrate_ransac() of a 256x256 field, 0.5 deg noise, 20% random cells."""

    name = "ransac_outliers"
    SIZE, SIGMA, OUTLIERS, ITERS, THRESH_DEG = 256, 0.5, 0.2, 100, 1.0

    def setup(self) -> None:
        np = self.np
        rng = np.random.default_rng(self.seed)
        for m in RANSAC_MODELS * self.REPEATS:
            spec, field = self._noisy_field(m, self.SIZE, self.SIGMA, rng)
            # the outlier recipe of tests/test_fit.py::test_outlier_cells_handled
            theta = field.theta.copy().reshape(-1, 2)
            idx = rng.choice(len(theta), int(self.OUTLIERS * len(theta)), replace=False)
            az = rng.uniform(0, 2 * np.pi, len(idx))
            mag = rng.uniform(0.3, 2.5, len(idx))
            theta[idx] = np.stack([mag * np.cos(az), mag * np.sin(az)], axis=-1)
            inliers = np.ones(len(theta), dtype=bool)
            inliers[idx] = False
            self.cases.append(Case(spec, self.rc.FovField(theta=theta.reshape(field.theta.shape)),
                                   inliers, int(rng.integers(2**31))))

    def _ransac(self, c: Case):
        return self.rc.calibrate_ransac(c.field, c.spec.model, iters=self.ITERS,
                                        thresh=math.radians(self.THRESH_DEG), seed=c.ransac_seed)

    def run_op(self, i: int) -> Op:
        c = self.cases[i]
        t = time.perf_counter()
        try:
            res, err = self._ransac(c), None
        except Exception as exc:  # a raising op is a failed op, never a crash
            res, err = None, f"{type(exc).__name__}: {exc}"
        op = Op(i, str(c.spec.model), time.perf_counter() - t, c.field.theta[..., 0].size,
                err, res)
        if res is not None:
            op.extra["inliers"] = round(res.inlier_ratio * op.pixels)
        return op

    def check(self, op: Op) -> None:
        super().check(op)
        if op.error is None and op.result.inlier_ratio is None:
            op.error = "no inlier ratio reported"

    def traced_op(self, i: int, untraced: Op) -> float:
        c, tr = self.cases[i], self.tracer
        t = time.perf_counter()
        with tr.span("op"), tr.span("fit.ransac"):
            res = self._ransac(c)
        seconds = time.perf_counter() - t
        if res.spec != untraced.result.spec:
            raise Mismatch(f"{self.name}: traced RANSAC differs on case {i}")
        # estimate of the final refit, from outside: the public stages on the
        # cells the benchmark knows are inliers
        with tr.span("fit.correspondences"):
            corrs = self.rc.Correspondences.from_field(c.field)
        with tr.span("fit.ransac_refit"):
            self.compose(c.field, c.spec.model, corrs.subset(c.inliers))
        self.probe_layers(c, res.spec)
        return seconds

    def traced_sweep(self):
        ops, untraced_s, traced_s, op_s, _ = super().traced_sweep()
        tr = self.tracer
        ransac_s = statistics.median(tr.durations("fit.ransac"))
        refit_s = statistics.median(tr.durations("fit.ransac_refit"))
        inliers = sum(op.extra.get("inliers", 0) for op in ops) / sum(op.pixels for op in ops)
        return ops, untraced_s, traced_s, op_s, {
            "fit.ransac_s": (ransac_s, "s"),
            "fit.ransac_refit_s (estimate)": (refit_s, "s"),
            "fit.ransac_search_s": (ransac_s - refit_s, "s"),
            "fit.ransac_inlier_ratio": (inliers, "ratio"),
        }


class DatasetCli(Workload):
    """synth -> fit (one in-process CLI call per field) -> eval, per pass."""

    name = "dataset_cli"
    SIZE, SIGMA = 128, 0.5

    def setup(self) -> None:
        # the inputs are the command lines; the dataset itself is written by
        # `synth` inside every timed pass.  opr (radial:1 cameras): opg and
        # opd also draw narrow eucm cameras, which the fit gets wrong (see
        # EUCM_MIN_HFOV_DEG), and synth cannot limit their FoV
        self.synth_argv = ["synth", "--kind", "opr", "--n", str(CLI_FIELDS),
                           "--size", str(self.SIZE), "--seed", str(self.seed),
                           "--noise-deg", str(self.SIGMA), "-o", str(self.work / "data")]
        self.dataset_sha = None

    def sweep_size(self) -> int:
        return CLI_FIELDS

    def fingerprint(self) -> str:
        return sha256_arrays([self.synth_argv[:-1]])

    def input_bytes(self) -> int:
        return CLI_FIELDS * self.SIZE * self.SIZE * 2 * 4

    def working_set_bytes(self) -> int:
        # opr draws radial:1 only (P = 5)
        return self.SIZE * self.SIZE * 8 * 5 * 8

    def sweep(self) -> list[Op]:
        return self.run_pass(traced=False)[0]

    def apply_gate(self, ops: list[Op]) -> None:
        pass  # run_pass gates every pass against its own report.json

    def traced_sweep(self):
        tr = self.tracer
        plain, times = self.run_pass(traced=False)
        self.trace_patches()
        try:
            ops, times_t = self.run_pass(traced=True)
        finally:
            tr.unpatch()
        if [op_identity(o) for o in ops] != [op_identity(o) for o in plain]:
            raise Mismatch(f"{self.name}: traced pass gave different fits")
        cmd = {f"cli.{k}_s": (statistics.median(tr.durations(f"cli.{k}")), "s")
               for k in ("synth", "fit", "eval")}
        return ops, sum(times.values()), sum(times_t.values()), sum(tr.durations("cli.fit")), cmd

    def _main(self, argv) -> str | None:
        try:
            code = self.rc.cli.main(argv)
        except Exception as exc:  # the CLI let an exception escape
            return f"{argv[0]} raised {type(exc).__name__}: {exc}"
        return None if code == 0 else f"{argv[0]} exited {code}"

    def run_pass(self, traced: bool) -> tuple[list[Op], dict]:
        """One synth/fit/eval pass; returns the fit ops and per-command seconds."""
        rc, tr = self.rc, self.tracer if traced else None
        data, est, rep = self.work / "data", self.work / "est", self.work / "report"
        for d in (data, est, rep):
            shutil.rmtree(d, ignore_errors=True)
        est.mkdir(parents=True)
        times = {"synth": 0.0, "fit": 0.0, "eval": 0.0}
        t = time.perf_counter()
        with span(tr, "cli.synth"):
            synth_err = self._main(self.synth_argv)
        times["synth"] = time.perf_counter() - t
        if synth_err is None:
            # manifest.json records the output path, so only specs and fields count
            digest = sha256_arrays(p.read_bytes() for d in ("specs", "fields")
                                   for p in sorted((data / d).iterdir()))
            if self.dataset_sha is None:
                self.dataset_sha = digest
            elif digest != self.dataset_sha:
                raise Mismatch(f"{self.name}: synth wrote a different dataset on a rerun")
        ops = []
        pixels = self.SIZE * self.SIZE
        for i in range(CLI_FIELDS):
            name = f"{i:04d}"
            if synth_err is not None:
                ops.append(Op(i, "?", 0.0, pixels, synth_err))
                continue
            gt = rc.fileio.read_spec(data / "specs" / f"{name}.json")
            model = str(gt.model)
            argv = ["fit", str(data / "fields" / f"{name}.aff1"), "--model", model,
                    "-o", str(est / f"{name}.json")]
            if tr is not None:
                tr.op = i
            t = time.perf_counter()
            with span(tr, "cli.fit"):
                err = self._main(argv)
            op = Op(i, model, time.perf_counter() - t, pixels, err)
            times["fit"] += op.seconds
            if err is None:
                out = json.loads((est / f"{name}.json").read_text())
                missing = [k for k in SPEC_KEYS + ("gn_costs",) if k not in out]
                if missing:
                    op.error = f"fit JSON lacks {missing}"
                else:
                    op.result = out
            ops.append(op)
            if tr is not None and op.result is not None:
                self._probe_fit(gt, data / "fields" / f"{name}.aff1", op.result)
        if tr is not None:
            tr.op = None
        t = time.perf_counter()
        with span(tr, "cli.eval"):
            eval_err = self._main(["eval", str(est), str(data), "-o", str(rep), "--stride", "1"])
        times["eval"] = time.perf_counter() - t
        report = None if eval_err else json.loads((rep / "report.json").read_text())
        for op in ops:
            if op.error is not None:
                continue
            if eval_err is not None:  # a batch failure fails every pair in it
                op.error = eval_err
                continue
            per_image = report["per_image"].get(f"{op.case:04d}")
            if per_image is None:
                op.error = "pair missing from report.json"
                continue
            op.extra["ae"] = per_image["ae_mean_deg"]
            op.error = gate(op.result["gn_costs"], op.extra["ae"])
        return ops, times

    def _probe_fit(self, gt, path, fit_json) -> None:
        """Public stages on the fitted field; must equal the CLI's spec."""
        rc = self.rc
        field = rc.fileio.read_field(path)
        res = self.compose(field, gt.model)
        spec_keys = {k: fit_json[k] for k in SPEC_KEYS}
        if res.spec.to_dict() != spec_keys or list(res.gn_costs) != fit_json["gn_costs"]:
            raise Mismatch(f"{self.name}: public stages differ from `fit` on {path.name}")
        px = field.pixel_grid().reshape(-1, 2)
        with self.tracer.span("models.unproject") as rec:
            _, ok = rc.unproject_masked(res.spec, px)
        rec["cells"], rec["valid"] = int(ok.size), int(ok.sum())

    def trace_patches(self) -> None:
        rc, tr = self.rc, self.tracer
        for attr, name in (("read_field", "fileio.read_field"),
                           ("write_field", "fileio.write_field"),
                           ("calibrate", "fit.calibrate"),
                           ("evaluate", "metrics.evaluate"),
                           ("field_from_spec", "fov.field_from_spec"),
                           ("add_noise", "synth.noise")):
            tr.patch(rc.cli, attr, name)
        tr.patch(rc.IntrinsicsSampler, "draw", "synth.sample")


WORKLOADS = {w.name: w for w in (FitNoisy, RansacOutliers, DatasetCli, EucmNarrow)}


# ---------------------------------------------------------------------------
# set-up, timed loop, traced loop
# ---------------------------------------------------------------------------


def load(workload: str, seed: int, tracer: Tracer | None, work: Path):
    import numpy as np
    import raycalib as rc
    import raycalib.cli
    import raycalib.fileio  # noqa: F401

    if not Path(rc.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"raycalib imported from {rc.__file__}, not from {SRC}\n")
        sys.exit(2)
    w = WORKLOADS[workload](rc, np, seed, tracer, work)
    w.setup()
    # warm-up: one small fit, so lazily loaded LAPACK paths are resident
    spec = rc.sample_spec_for_model(rc.parse_model("kb:2"), 32, np.random.default_rng(0))
    rc.calibrate(rc.field_from_spec(spec), spec.model)
    return w, np


def op_identity(op: Op):
    r = op.result
    if r is None:
        return op.error
    if isinstance(r, dict):
        return json.dumps(r, sort_keys=True)
    return (r.spec, r.gn_costs, r.dropped, r.inlier_ratio)


def timed_loop(w: Workload, seconds: float) -> tuple[list[Op], float]:
    """Whole sweeps over the inputs: at least one, and no more than fit in
    ``seconds`` if the next sweep takes as long as the last one."""
    ops: list[Op] = []
    first = None
    t0 = time.perf_counter()
    while True:
        t_sweep = time.perf_counter()
        sweep = w.sweep()
        ident = [op_identity(op) for op in sweep]
        if first is None:
            first = ident
        elif ident != first:
            raise Mismatch(f"{w.name}: a repeated sweep gave different results")
        ops += sweep
        now = time.perf_counter()
        if now - t0 + (now - t_sweep) > seconds:
            break
    return ops, time.perf_counter() - t0


def summarize_ops(w: Workload, ops: list[Op]) -> dict:
    """Correctness, exact counts and per-family figures of one sweep's ops."""
    w.apply_gate(ops)
    first = ops[: w.sweep_size()]
    done = [op for op in first if op.result is not None]
    aes = [op.extra["ae"] for op in first if "ae" in op.extra]
    families: dict[str, dict] = {}
    for op in first:
        row = families.setdefault(op.model.split(":")[0],
                                  {"ops": 0, "seconds": [], "ae": [], "gn_improving_iters": 0})
        row["ops"] += 1
        row["seconds"] += [o.seconds for o in ops if o.case == op.case]
        if "ae" in op.extra:
            row["ae"].append(op.extra["ae"])
        if op.result is not None:
            row["gn_improving_iters"] += improving_iters(op.costs)
    for row in families.values():
        seconds, ae = row.pop("seconds"), row.pop("ae")
        row["op_s_p50"] = statistics.median(seconds)
        row["ae_deg_p50"] = statistics.median(ae) if ae else None
    inliers = [op.extra["inliers"] for op in first if "inliers" in op.extra]
    return {
        "ae_deg_p50": statistics.median(aes) if aes else float("nan"),
        "gn_improving_iters": sum(improving_iters(op.costs) for op in done),
        "gn_cost_ratio": statistics.median(op.costs[-1] / op.costs[0] for op in done)
        if done else float("nan"),
        "dropped_cells": sum(op.result.dropped for op in done if not isinstance(op.result, dict)),
        "ransac_inlier_ratio": sum(inliers) / sum(op.pixels for op in first) if inliers else None,
        "families": families,
        "failures": sorted({f"{op.model}: {op.error}" for op in ops if op.error}),
    }


def traced_run(w: Workload) -> dict:
    """The traced sweep, and the per-layer metrics derived from its spans."""
    tr = w.tracer
    ops, untraced_s, traced_s, op_total, specific = w.traced_sweep()
    summary = summarize_ops(w, ops)

    def med(name):
        d = tr.durations(name)
        return statistics.median(d) if d else float("nan")

    unproj = [s for s in tr.spans if s["name"] == "models.unproject"]
    cells = sum(s["cells"] for s in unproj)
    refine_mb = [s["mb"] for s in tr.spans if s["name"] == "fit.refine"]
    layer = {
        "fit.correspondences_s": med("fit.correspondences"),
        "fit.ppoint_s": med("fit.ppoint"),
        "fit.linear_s": med("fit.linear"),
        "fit.refine_s": med("fit.refine"),
        "fit.refine_share": sum(tr.durations("fit.refine")) / op_total,
        "fit.gn_improving_iters": summary["gn_improving_iters"],
        "fit.gn_cost_ratio": summary["gn_cost_ratio"],
        "fit.dropped_cells": summary["dropped_cells"],
        "fit.jacobian_mb_computed": max(refine_mb),
        "models.unproject_s": med("models.unproject"),
        "models.unproject_mcells_per_s": cells / sum(tr.durations("models.unproject")) / 1e6,
        "models.unproject_valid_ratio": sum(s["valid"] for s in unproj) / cells,
        "synth.sample_s": med("synth.sample"),
        "synth.noise_s": med("synth.noise"),
        "fov.field_from_spec_s": med("fov.field_from_spec"),
        "fileio.write_field_s": med("fileio.write_field"),
        "fileio.read_field_s": med("fileio.read_field"),
        "metrics.evaluate_s": med("metrics.evaluate"),
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    return {
        "ops": ops,
        "summary": summary,
        "layer": layer,
        "specific": specific,
        "self_times": tr.table(),
        "spans": tr.spans,
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=("setup", "run"), required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", type=Path)
    args = p.parse_args()

    work = STATE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        return run(args, tracer, work)
    except Mismatch as exc:
        sys.stderr.write(f"determinism self-check failed: {exc}\n")
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, tracer: Tracer | None, work: Path) -> int:
    w, np = load(args.workload, args.seed, tracer, work)
    setup_s = time.perf_counter() - T0
    out = {
        "setup_s": setup_s,
        "fingerprint": w.fingerprint(),
        "input_mb": w.input_bytes() / 1e6,
        "working_set_mb_computed": w.working_set_bytes() / 1e6,
        "numpy": np.__version__,
    }
    if args.role == "run":
        if args.trace:
            res = traced_run(w)
            ops = res["ops"]
            out.update(summary=res["summary"], layer=res["layer"], specific=res["specific"],
                       self_times=res["self_times"])
            if args.trace_out:
                args.trace_out.write_text(json.dumps(
                    {"spans": res["spans"], "self_times": res["self_times"],
                     "layer": res["layer"], "specific": res["specific"],
                     "families": res["summary"]["families"]}, indent=1))
        else:
            ops, out["loop_s"] = timed_loop(w, args.seconds)
            out["summary"] = summarize_ops(w, ops)
        out["op_seconds"] = [op.seconds for op in ops]
        out["op_pixels"] = [op.pixels for op in ops]
        out["failed"] = sum(1 for op in ops if op.error)
        out["dataset_sha"] = getattr(w, "dataset_sha", None)
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write("\n" + json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
