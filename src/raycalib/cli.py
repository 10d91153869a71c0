"""Batch front-end: fit fields, generate datasets, evaluate, convert, map lenses.

Commands
    fit      FIELD --model M [--ransac] [--seed S] [-o OUT.json]
    synth    --kind {opp,opr,opd,opg} --n N --size S --seed S -o DIR
             [--noise-deg SIGMA] [--edit]
    eval     EST_DIR GT_DIR -o DIR [--stride N] [--edited] [--dump-per-pixel]
    convert  SPEC.json --to MODEL [--fix-focal] [--stride N] [-o OUT.json]
    lensfun  ENTRY.{json,xml} [-o OUT.json]

All outputs are deterministic for a fixed command line: seeded generators,
sorted JSON keys, index-ordered aggregation.  Dataset and report directories
contain exactly one ``manifest.json`` recording the command, its
configuration and the tool version; re-running the recorded command
reproduces every output byte for byte.

Exit codes: 0 success, 2 input error, 3 numerical failure.  On error a JSON
object ``{"error": {"kind": ..., "message": ...}}`` is printed to stdout.

The environment variable ``RAYCALIB_THREADS`` caps the per-image worker pool.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CalibError, DimensionMismatch, EmptyInput, FovOutOfRange, UnsupportedFamily
from .fileio import dump_json, read_field, read_spec, write_field, write_json, write_spec
from .fit import calibrate, calibrate_ransac, convert_model
from .fov import FovField, field_from_spec, log_map
from .metrics import angular_error, auc, evaluate
from .models import (
    CameraSpec,
    _grid_blocks,
    parse_model,
    pixel_axes,
    unproject_masked,
    validate_spec,
)
from .synth import (
    DatasetKind,
    IntrinsicsSampler,
    SamplerConfig,
    add_noise,
    lensfun_to_eucm,
    load_lensfun_entry,
    sample_edit,
)

_INPUT_ERRORS = (
    FileNotFoundError,
    IsADirectoryError,
    json.JSONDecodeError,
    KeyError,
    ValueError,
    DimensionMismatch,
    UnsupportedFamily,
    FovOutOfRange,
    EmptyInput,
)


def _error_kind(exc: Exception) -> str:
    """The ``kind`` reported for an input error or a library error."""
    return {
        FileNotFoundError: "FileNotFound",
        IsADirectoryError: "FileNotFound",
        json.JSONDecodeError: "ParseError",
        KeyError: "ParseError",
    }.get(type(exc), exc.kind if isinstance(exc, CalibError) else "InvalidInput")


def _worker_count() -> int:
    env = os.environ.get("RAYCALIB_THREADS")
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def _emit(obj: dict, out: str | None) -> None:
    text = dump_json(obj)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _manifest(command: str, config: dict) -> dict:
    return {
        "command": command,
        "argv": sys.argv[1:],
        "config": config,
        "seed": config.get("seed"),
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_fit(args: argparse.Namespace) -> int:
    field = read_field(args.field)
    model = parse_model(args.model)
    if args.ransac:
        result = calibrate_ransac(
            field,
            model,
            iters=args.iters,
            thresh=np.radians(args.thresh_deg),
            seed=args.seed,
            stride=args.stride,
        )
    else:
        result = calibrate(field, model, stride=args.stride)
    _emit(result.to_dict(), args.output)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if args.n < 1 or not 0 <= args.noise_deg < np.inf:  # NaN fails too
        raise ValueError(f"need --n >= 1 and finite --noise-deg >= 0: {args.n}, {args.noise_deg}")
    out = Path(args.output)
    cfg = SamplerConfig(kind=DatasetKind(args.kind), size=args.size, seed=args.seed)
    sampler = IntrinsicsSampler(cfg)

    specs = []
    for _ in range(args.n):
        spec = sampler.draw()
        if args.edit:
            spec = sample_edit(spec, sampler.rng)
        specs.append(spec)
    (out / "specs").mkdir(parents=True, exist_ok=True)
    (out / "fields").mkdir(parents=True, exist_ok=True)

    def build(i: int) -> None:
        spec = specs[i]
        field = field_from_spec(spec, stride=1)
        if args.noise_deg > 0:
            noise_seed = int(np.random.SeedSequence([args.seed, i]).generate_state(1)[0])
            field = add_noise(field, args.noise_deg, noise_seed)
        write_spec(out / "specs" / f"{i:04d}.json", spec)
        write_field(out / "fields" / f"{i:04d}.aff1", field)

    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        list(pool.map(build, range(args.n)))

    config = {
        "kind": args.kind,
        "n": args.n,
        "size": args.size,
        "seed": args.seed,
        "noise_deg": args.noise_deg,
        "edit": bool(args.edit),
    }
    write_json(out / "manifest.json", _manifest("synth", config))
    return 0


def _spec_files(root: Path) -> dict[str, Path]:
    base = root / "specs" if (root / "specs").is_dir() else root
    return {p.stem: p for p in sorted(base.glob("*.json")) if p.name != "manifest.json"}


def _theta_difference(gt: CameraSpec, est: CameraSpec, stride: int) -> FovField:
    """gt minus est tangent vectors at the pixel centers, NaN at every cell
    that either camera cannot unproject; filled block by block."""
    u, v = pixel_axes(gt.width, gt.height, stride)
    diff = np.full((len(v) * len(u), 2), np.nan)
    for sl, px in _grid_blocks(u, v):
        p, ok_gt = unproject_masked(gt, px)
        q, ok_est = unproject_masked(est, px)
        ok = ok_gt & ok_est
        diff[sl][ok] = log_map(np.compress(ok, p, axis=0)) - log_map(np.compress(ok, q, axis=0))
    return FovField(theta=diff.reshape(len(v), len(u), 2), stride=stride)


def cmd_eval(args: argparse.Namespace) -> int:
    est_dir, gt_dir = Path(args.est_dir), Path(args.gt_dir)
    if not est_dir.is_dir():
        raise FileNotFoundError(str(est_dir))
    if not gt_dir.is_dir():
        raise FileNotFoundError(str(gt_dir))
    est_files = _spec_files(est_dir)
    gt_files = _spec_files(gt_dir)
    names = sorted(set(est_files) & set(gt_files))
    missing = sorted(set(est_files) ^ set(gt_files))
    if not names:
        raise EmptyInput("no spec files with matching names")

    # directories are made by the first pair that scores, so a batch that
    # fails as one leaves nothing behind
    out = Path(args.output)

    def score(name: str):
        try:
            gt = read_spec(gt_files[name])
            est = read_spec(est_files[name])
            report = evaluate(gt, est, grid_stride=args.stride)
            if args.dump_per_pixel:
                diff = _theta_difference(gt, est, args.stride)
                (out / "perpixel").mkdir(parents=True, exist_ok=True)
                write_field(out / "perpixel" / f"{name}.aff1", diff)
        except (*_INPUT_ERRORS, CalibError) as exc:  # a pair that cannot be scored fails alone
            return name, exc
        return name, report

    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        scored = dict(pool.map(score, names))
    failed = {n: r for n, r in scored.items() if isinstance(r, Exception)}
    if len(failed) == len(names):  # nothing scored: fail as one batch
        raise failed[names[0]]
    names = [n for n in names if n not in failed]
    out.mkdir(parents=True, exist_ok=True)

    per_image = {name: scored[name].to_dict() for name in names}
    hfov_errs = [scored[n].hfov_err for n in names]
    vfov_errs = [scored[n].vfov_err for n in names]
    medians = {
        "ae_mean_deg": float(np.median([scored[n].ae_mean for n in names])),
        "re_mean_px": float(np.median([scored[n].re_mean for n in names])),
        "hfov_err_deg": float(np.median(hfov_errs)),
        "vfov_err_deg": float(np.median(vfov_errs)),
    }
    if args.edited:
        medians["ef"] = float(np.median([scored[n].ef for n in names]))
        medians["ec"] = float(np.median([scored[n].ec for n in names]))
    report = {
        "n_pairs": len(names),
        "missing": missing,
        "failed": {n: {"kind": _error_kind(exc), "message": str(exc)} for n, exc in failed.items()},
        "medians": medians,
        "auc": {
            "hfov": dict(zip(("1", "5", "10"), auc(hfov_errs))),
            "vfov": dict(zip(("1", "5", "10"), auc(vfov_errs))),
        },
        "per_image": per_image,
    }
    write_json(out / "report.json", report)
    csv_lines = ["name," + scored[names[0]].CSV_HEADER]
    csv_lines += [f"{n},{scored[n].to_csv_row()}" for n in names]
    (out / "report.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    config = {
        "est_dir": str(args.est_dir),
        "gt_dir": str(args.gt_dir),
        "stride": args.stride,
        "edited": bool(args.edited),
        "dump_per_pixel": bool(args.dump_per_pixel),
    }
    write_json(out / "manifest.json", _manifest("eval", config))
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    src = read_spec(args.spec)
    report = validate_spec(src)
    if not report.ok:
        raise ValueError(f"source spec invalid: {'; '.join(report.violations)}")
    dst = parse_model(args.to)
    converted = convert_model(src, dst, fix_focal=args.fix_focal, stride=args.stride)
    payload = converted.to_dict()
    payload["angular_residual_deg"] = angular_error(src, converted, grid_stride=args.stride)
    _emit(payload, args.output)
    return 0


def cmd_lensfun(args: argparse.Namespace) -> int:
    entry = load_lensfun_entry(args.entry)
    alpha, beta, focal_mm, residual = lensfun_to_eucm(entry, grid_stride=args.grid_stride)
    _emit(
        {
            "alpha": alpha,
            "beta": beta,
            "focal_mm": focal_mm,
            "residual_deg": residual,
            "model_kind": entry.model_kind,
            "projection": entry.projection,
        },
        args.output,
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raycalib",
        description="camera intrinsics from per-pixel ray/FoV fields",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a camera model to a FoV field file")
    p.add_argument("field", help="AFF1 or CSV field file")
    p.add_argument("--model", required=True, help="model string, e.g. kb:4")
    p.add_argument("--ransac", action="store_true", help="use the RANSAC variant")
    p.add_argument("--iters", type=int, default=100, help="RANSAC iterations")
    p.add_argument("--thresh-deg", type=float, default=1.0, help="RANSAC inlier threshold")
    p.add_argument("--seed", type=int, default=0, help="RANSAC seed")
    p.add_argument("--stride", type=int, default=1, help="correspondence stride")
    p.add_argument("-o", "--output", help="result JSON path (default: stdout)")

    p = sub.add_parser("synth", help="generate a synthetic ground-truth dataset")
    p.add_argument("--kind", required=True, choices=[k.value for k in DatasetKind])
    p.add_argument("--n", type=int, required=True, help="number of cameras")
    p.add_argument("--size", type=int, required=True, help="square image size in pixels")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--noise-deg", type=float, default=0.0, help="tangent noise sigma")
    p.add_argument("--edit", action="store_true", help="apply random stretch and crop")
    p.add_argument("-o", "--output", required=True, help="output dataset directory")

    p = sub.add_parser("eval", help="score estimated specs against ground truth")
    p.add_argument("est_dir")
    p.add_argument("gt_dir")
    p.add_argument("--stride", type=int, default=4, help="metric grid stride")
    p.add_argument("--edited", action="store_true", help="include ef/ec medians")
    p.add_argument("--dump-per-pixel", action="store_true", help="write theta-difference grids")
    p.add_argument("-o", "--output", required=True, help="output report directory")

    p = sub.add_parser("convert", help="re-express a spec in another camera model")
    p.add_argument("spec", help="intrinsics JSON file")
    p.add_argument("--to", required=True, help="destination model string")
    p.add_argument("--fix-focal", action="store_true", help="hold f, a, c at source values")
    p.add_argument("--stride", type=int, default=4, help="conversion grid stride")
    p.add_argument("-o", "--output", help="output JSON path (default: stdout)")

    p = sub.add_parser("lensfun", help="map a LensFun entry to the extended unified model")
    p.add_argument("entry", help="entry JSON or LensFun XML file")
    p.add_argument("--grid-stride", type=int, default=4, help="sensor grid stride")
    p.add_argument("-o", "--output", help="output JSON path (default: stdout)")
    return parser


# parsing never changes the parser, so one serves every call of ``main``
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up by name per call, not bound into the cached parser
        return globals()[f"cmd_{args.command}"](args)
    except _INPUT_ERRORS as exc:
        sys.stdout.write(dump_json({"error": {"kind": _error_kind(exc), "message": str(exc)}}))
        return 2
    except CalibError as exc:
        # every other library error is a numerical failure
        sys.stdout.write(dump_json({"error": {"kind": exc.kind, "message": str(exc)}}))
        return 3


if __name__ == "__main__":
    sys.exit(main())
