"""Command-line front-end tests."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import raycalib as rc
import raycalib.cli
from raycalib.cli import main
from raycalib.fileio import read_field, read_spec, write_field, write_spec
from raycalib.models import pixel_centers

from conftest import centered_spec


def run(*argv: str) -> int:
    return main(list(argv))


def dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestSynthCommand:
    def test_dataset_layout_and_validity(self, tmp_path):
        out = tmp_path / "ds"
        assert run("synth", "--kind", "opg", "--n", "5", "--size", "64",
                   "--seed", "1", "-o", str(out)) == 0
        assert (out / "manifest.json").is_file()
        specs = sorted((out / "specs").glob("*.json"))
        fields = sorted((out / "fields").glob("*.aff1"))
        assert len(specs) == len(fields) == 5
        assert specs[0].name == "0000.json" and fields[0].name == "0000.aff1"
        for p in specs:
            assert rc.validate_spec(read_spec(p)).ok

    def test_rerun_is_bit_identical(self, tmp_path):
        out = tmp_path / "ds"
        args = ("synth", "--kind", "opd", "--n", "4", "--size", "48",
                "--seed", "7", "-o", str(out))
        assert run(*args) == 0
        first = dir_digest(out)
        assert run(*args) == 0
        assert dir_digest(out) == first

    def test_manifest_records_the_parsed_argv(self, tmp_path, monkeypatch):
        # an in-process call records its own command line, not the host's;
        # main(None) parses and records the host's
        monkeypatch.setattr(sys, "argv", ["host-script.py", "--unrelated"])
        argv = ["synth", "--kind", "opp", "--n", "1", "--size", "16", "--seed", "1",
                "-o", str(tmp_path / "ds")]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert manifest["argv"] == argv and manifest["command"] == "synth"
        monkeypatch.setattr(sys, "argv", ["raycalib", *argv[:-1], str(tmp_path / "ds2")])
        assert main() == 0
        manifest = json.loads((tmp_path / "ds2" / "manifest.json").read_text())
        assert manifest["argv"] == sys.argv[1:]

    def test_noise_flag_changes_fields_deterministically(self, tmp_path):
        base = tmp_path / "clean"
        noisy1 = tmp_path / "noisy1"
        noisy2 = tmp_path / "noisy2"
        common = ("--kind", "opp", "--n", "2", "--size", "48", "--seed", "5")
        run("synth", *common, "-o", str(base))
        run("synth", *common, "--noise-deg", "0.5", "-o", str(noisy1))
        run("synth", *common, "--noise-deg", "0.5", "-o", str(noisy2))
        f_clean = read_field(base / "fields" / "0000.aff1")
        f_n1 = read_field(noisy1 / "fields" / "0000.aff1")
        f_n2 = read_field(noisy2 / "fields" / "0000.aff1")
        assert not np.array_equal(f_clean.theta, f_n1.theta)
        np.testing.assert_array_equal(f_n1.theta, f_n2.theta)

    def test_edit_flag_stretches_and_crops(self, tmp_path):
        out = tmp_path / "edited"
        assert run("synth", "--kind", "opp", "--n", "6", "--size", "64",
                   "--seed", "2", "--edit", "-o", str(out)) == 0
        saw_off_center = False
        for p in sorted((out / "specs").glob("*.json")):
            spec = read_spec(p)
            a = spec.fy / spec.fx
            assert 0.5 - 1e-9 <= a <= 2.0 + 1e-9
            if abs(spec.cx - spec.width / 2) > 0.5 or abs(spec.cy - spec.height / 2) > 0.5:
                saw_off_center = True
        assert saw_off_center


class TestFitCommand:
    def test_round_trip_recovery(self, tmp_path):
        ds = tmp_path / "ds"
        run("synth", "--kind", "opg", "--n", "3", "--size", "64", "--seed", "9", "-o", str(ds))
        for i in range(3):
            spec = read_spec(ds / "specs" / f"{i:04d}.json")
            out = tmp_path / f"fit{i}.json"
            assert run("fit", str(ds / "fields" / f"{i:04d}.aff1"),
                       "--model", str(spec.model), "-o", str(out)) == 0
            fitted = rc.CameraSpec.from_dict(json.loads(out.read_text()))
            assert abs(fitted.fx - spec.fx) / spec.fx < 1e-6

    def test_ransac_deterministic(self, tmp_path):
        ds = tmp_path / "ds"
        run("synth", "--kind", "opp", "--n", "1", "--size", "48", "--seed", "4", "-o", str(ds))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ("fit", str(ds / "fields" / "0000.aff1"), "--model", "pinhole",
                "--ransac", "--seed", "7")
        assert run(*args, "-o", str(out1)) == 0
        assert run(*args, "-o", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = run("fit", str(tmp_path / "missing.aff1"), "--model", "ucm")
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"]["kind"] == "FileNotFound"

    def test_result_json_schema(self, tmp_path):
        ds = tmp_path / "ds"
        run("synth", "--kind", "opp", "--n", "1", "--size", "48", "--seed", "4", "-o", str(ds))
        out = tmp_path / "fit.json"
        run("fit", str(ds / "fields" / "0000.aff1"), "--model", "pinhole", "-o", str(out))
        data = json.loads(out.read_text())
        for key in ("model", "width", "height", "fx", "fy", "cx", "cy", "dist",
                    "gn_costs", "active_bounds", "ppoint_residual", "dropped"):
            assert key in data
        assert data["dropped"] == 0


class TestEvalCommand:
    def test_self_evaluation_is_perfect(self, tmp_path):
        ds = tmp_path / "ds"
        run("synth", "--kind", "opg", "--n", "4", "--size", "64", "--seed", "3", "-o", str(ds))
        rep = tmp_path / "rep"
        assert run("eval", str(ds), str(ds), "-o", str(rep), "--stride", "8") == 0
        report = json.loads((rep / "report.json").read_text())
        assert report["medians"]["ae_mean_deg"] == 0.0
        assert report["auc"]["hfov"]["1"] == 100.0
        assert (rep / "report.csv").is_file()
        assert (rep / "manifest.json").is_file()

    def test_fitted_specs_score_near_zero(self, tmp_path):
        ds = tmp_path / "ds"
        run("synth", "--kind", "opp", "--n", "3", "--size", "64", "--seed", "6", "-o", str(ds))
        est = tmp_path / "est" / "specs"
        est.mkdir(parents=True)
        for i in range(3):
            spec = read_spec(ds / "specs" / f"{i:04d}.json")
            run("fit", str(ds / "fields" / f"{i:04d}.aff1"), "--model", str(spec.model),
                "-o", str(est / f"{i:04d}.json"))
        rep = tmp_path / "rep"
        assert run("eval", str(tmp_path / "est"), str(ds), "-o", str(rep), "--stride", "8") == 0
        report = json.loads((rep / "report.json").read_text())
        assert report["medians"]["ae_mean_deg"] < 1e-6

    def test_missing_pairs_reported_and_run_continues(self, tmp_path):
        ds = tmp_path / "ds"
        run("synth", "--kind", "opp", "--n", "3", "--size", "48", "--seed", "6", "-o", str(ds))
        partial = tmp_path / "partial" / "specs"
        partial.mkdir(parents=True)
        for i in range(2):
            (partial / f"{i:04d}.json").write_text((ds / "specs" / f"{i:04d}.json").read_text())
        rep = tmp_path / "rep"
        assert run("eval", str(tmp_path / "partial"), str(ds), "-o", str(rep)) == 0
        report = json.loads((rep / "report.json").read_text())
        assert report["n_pairs"] == 2
        assert report["missing"] == ["0002"]

    def test_unprojectable_border_exits_numerical(self, tmp_path, capsys):
        # an estimate below its injectivity clamp cannot unproject the image
        # border, so its FoV is undefined
        gt = centered_spec("radial:1", 60.0, 64, dist=(-0.1,))
        f_min = rc.min_focal(gt.model, gt.dist, 64, 64)
        est = gt.replace(fx=0.6 * f_min, fy=0.6 * f_min)
        for name, spec in (("gt", gt), ("est", est)):
            (tmp_path / name).mkdir()
            write_spec(tmp_path / name / "0000.json", spec)
        code = run("eval", str(tmp_path / "est"), str(tmp_path / "gt"),
                   "-o", str(tmp_path / "rep"))
        out = json.loads(capsys.readouterr().out)
        assert code == 3
        assert out["error"]["kind"] == "BorderUnprojectionFailed"

    def test_unscorable_pair_fails_alone(self, tmp_path):
        # the estimate of test_unprojectable_border_exits_numerical next to a
        # valid pinhole pair: the batch scores the pinhole pair and records
        # the other one under "failed"
        gt = centered_spec("radial:1", 60.0, 64, dist=(-0.1,))
        f_min = rc.min_focal(gt.model, gt.dist, 64, 64)
        pin = centered_spec("pinhole", 60.0, 64)
        pairs = {"0000": (gt, gt.replace(fx=0.6 * f_min, fy=0.6 * f_min)), "0001": (pin, pin)}
        for name, specs in pairs.items():
            for side, spec in zip(("gt", "est"), specs):
                (tmp_path / side).mkdir(exist_ok=True)
                write_spec(tmp_path / side / f"{name}.json", spec)
        rep = tmp_path / "rep"
        assert run("eval", str(tmp_path / "est"), str(tmp_path / "gt"), "-o", str(rep)) == 0
        report = json.loads((rep / "report.json").read_text())
        assert list(report["failed"]) == ["0000"]
        assert report["failed"]["0000"]["kind"] == "BorderUnprojectionFailed"
        assert report["failed"]["0000"]["message"]
        assert list(report["per_image"]) == ["0001"] and report["n_pairs"] == 1
        assert report["medians"]["ae_mean_deg"] == 0.0
        assert report["auc"]["hfov"]["1"] == 100.0
        csv_names = [line.split(",")[0] for line in (rep / "report.csv").read_text().splitlines()]
        assert csv_names == ["name", "0001"]
        # the map is present when nothing failed
        assert run("eval", str(tmp_path / "gt"), str(tmp_path / "gt"), "-o", str(rep)) == 0
        assert json.loads((rep / "report.json").read_text())["failed"] == {}

    def test_malformed_spec_fails_alone(self, tmp_path, capsys):
        # an estimate file holding [1] lands in "failed" next to a valid pair;
        # with no valid pair left the batch fails as one, with exit 2
        pin = centered_spec("pinhole", 60.0, 64)
        for side in ("gt", "est"):
            (tmp_path / side).mkdir()
            for name in ("0000", "0001"):
                write_spec(tmp_path / side / f"{name}.json", pin)
        (tmp_path / "est" / "0000.json").write_text("[1]")
        argv = ("eval", str(tmp_path / "est"), str(tmp_path / "gt"), "-o", str(tmp_path / "rep"))
        assert run(*argv) == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert list(report["failed"]) == ["0000"]
        assert report["failed"]["0000"]["kind"] == "InvalidInput"
        assert "0000.json" in report["failed"]["0000"]["message"]
        assert list(report["per_image"]) == ["0001"] and report["n_pairs"] == 1
        (tmp_path / "est" / "0001.json").write_text("{")
        assert run(*argv) == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "InvalidInput"

    def test_auc_monotone_on_noisy_set(self, tmp_path):
        gt = tmp_path / "gt"
        run("synth", "--kind", "opp", "--n", "4", "--size", "48", "--seed", "8", "-o", str(gt))
        est = tmp_path / "est" / "specs"
        est.mkdir(parents=True)
        rng = np.random.default_rng(0)
        for i in range(4):
            spec = read_spec(gt / "specs" / f"{i:04d}.json")
            write_spec(est / f"{i:04d}.json", spec.replace(fx=spec.fx * rng.uniform(1.01, 1.3)))
        rep = tmp_path / "rep"
        run("eval", str(tmp_path / "est"), str(gt), "-o", str(rep), "--stride", "8")
        report = json.loads((rep / "report.json").read_text())
        a = report["auc"]["vfov"]
        assert a["1"] <= a["5"] <= a["10"]

    def test_csv_rows_hold_the_json_values(self, tmp_path):
        # report.csv has one row per per_image entry, in its order, whose
        # values read back as the report.json values bit for bit
        gt = tmp_path / "gt"
        run("synth", "--kind", "opp", "--n", "4", "--size", "48", "--seed", "8", "-o", str(gt))
        est = tmp_path / "est" / "specs"
        est.mkdir(parents=True)
        rng = np.random.default_rng(1)
        for i in range(4):
            spec = read_spec(gt / "specs" / f"{i:04d}.json")
            write_spec(est / f"{i:04d}.json",
                       spec.replace(fx=spec.fx * rng.uniform(1.01, 1.3), cy=spec.cy + 0.5))
        rep = tmp_path / "rep"
        assert run("eval", str(tmp_path / "est"), str(gt), "-o", str(rep), "--stride", "8") == 0
        per_image = json.loads((rep / "report.json").read_text())["per_image"]
        header, *rows = [line.split(",") for line in (rep / "report.csv").read_text().splitlines()]
        keys = ["ae_mean_deg", "re_mean_px", "hfov_err_deg", "vfov_err_deg", "ef", "ec"]
        assert header == ["name", *keys]
        assert [row[0] for row in rows] == list(per_image) == ["0000", "0001", "0002", "0003"]
        for name, *values in rows:
            assert [float(v) for v in values] == [per_image[name][k] for k in keys]
            assert all(per_image[name][k] > 0.0 for k in ("ae_mean_deg", "ef", "ec"))

    def test_edited_medians_present_with_flag(self, tmp_path):
        ds = tmp_path / "ds"
        run("synth", "--kind", "opp", "--n", "2", "--size", "48", "--seed", "3", "-o", str(ds))
        rep = tmp_path / "rep"
        run("eval", str(ds), str(ds), "-o", str(rep), "--edited", "--stride", "8")
        report = json.loads((rep / "report.json").read_text())
        assert report["medians"]["ef"] == 0.0 and report["medians"]["ec"] == 0.0

    def test_dump_per_pixel_writes_fields(self, tmp_path):
        ds = tmp_path / "ds"
        run("synth", "--kind", "opp", "--n", "2", "--size", "48", "--seed", "3", "-o", str(ds))
        rep = tmp_path / "rep"
        run("eval", str(ds), str(ds), "-o", str(rep), "--stride", "4", "--dump-per-pixel")
        dumped = sorted((rep / "perpixel").glob("*.aff1"))
        assert len(dumped) == 2
        field = read_field(dumped[0])
        assert np.max(np.abs(field.theta)) < 1e-6

    def test_dump_per_pixel_nan_where_a_camera_cannot_unproject(self, tmp_path):
        # radial:1 with k1 = -0.28 folds at normalized radius 0.727: past the
        # image corners (0.85) but not the edge midpoints (0.6)
        gt = rc.CameraSpec(rc.parse_model("pinhole"), 40.0, 40.0, 24.0, 24.0, (), 48, 48)
        est = gt.replace(model=rc.parse_model("radial:1"), dist=(-0.28,))
        for root, spec in (("gt", gt), ("est", est)):
            (tmp_path / root).mkdir()
            write_spec(tmp_path / root / "0000.json", spec)
        rep = tmp_path / "rep"
        assert run("eval", str(tmp_path / "est"), str(tmp_path / "gt"), "-o", str(rep),
                   "--stride", "2", "--dump-per-pixel") == 0
        report = json.loads((rep / "report.json").read_text())
        assert report["failed"] == {} and report["per_image"]["0000"]["dropped_ae"] > 0
        px = pixel_centers(48, 48, 2)
        ok = rc.unproject_masked(est, px)[1] & rc.unproject_masked(gt, px)[1]
        assert 0 < np.count_nonzero(~ok) < ok.size
        theta = read_field(rep / "perpixel" / "0000.aff1").theta
        np.testing.assert_array_equal(np.isnan(theta), np.stack([~ok, ~ok], axis=-1))

    @pytest.mark.parametrize("dump", [(), ("--dump-per-pixel",)], ids=["report", "perpixel"])
    def test_batch_failure_leaves_no_report_directory(self, dump, tmp_path, capsys):
        # every pair fails, so the batch fails as one and writes nothing
        assert run(*_eval_stride_0(tmp_path), *dump) == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "InvalidInput"
        assert not (tmp_path / "rep").exists()


class TestConvertCommand:
    def test_identity(self, tmp_path, capsys):
        spec = centered_spec("kb:2", 100.0, 64, dist=(0.05, -0.01))
        path = tmp_path / "spec.json"
        write_spec(path, spec)
        assert run("convert", str(path), "--to", "kb:2", "--stride", "2") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["fx"] == pytest.approx(spec.fx, rel=1e-9)
        assert data["angular_residual_deg"] < 1e-9

    def test_pinhole_to_division(self, tmp_path, capsys):
        spec = centered_spec("pinhole", 60.0, 480)
        path = tmp_path / "spec.json"
        write_spec(path, spec)
        assert run("convert", str(path), "--to", "division:1", "--stride", "8") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["angular_residual_deg"] < 0.05

    def test_malformed_json_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = run("convert", str(path), "--to", "ucm")
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "ParseError"


class TestLensfunCommand:
    def test_entry_json(self, tmp_path, capsys):
        path = tmp_path / "entry.json"
        path.write_text(json.dumps({
            "model_kind": "poly3", "coefficients": [0.0], "focal_mm": 8.0,
            "sensor_width_mm": 24.0, "sensor_height_mm": 24.0,
        }))
        assert run("lensfun", str(path), "--grid-stride", "4") == 0
        data = json.loads(capsys.readouterr().out)
        assert 0.0 <= data["alpha"] <= 1.0 and data["beta"] > 0.0
        assert data["residual_deg"] < 0.2

    def test_unsupported_kind_exit_code(self, tmp_path, capsys):
        path = tmp_path / "entry.json"
        path.write_text(json.dumps({
            "model_kind": "acm", "coefficients": [], "focal_mm": 8.0,
            "sensor_width_mm": 24.0, "sensor_height_mm": 24.0,
        }))
        code = run("lensfun", str(path))
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "UnsupportedFamily"

    def test_malformed_json_exit_code(self, tmp_path, capsys):
        path = tmp_path / "entry.json"
        path.write_text("oops[")
        assert run("lensfun", str(path)) == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "ParseError"

    def test_zero_focal_exit_code(self, tmp_path, capsys):
        path = tmp_path / "entry.json"
        path.write_text(json.dumps({
            "model_kind": "poly3", "coefficients": [0.01], "focal_mm": 0,
            "sensor_width_mm": 36.0, "sensor_height_mm": 24.0,
        }))
        assert run("lensfun", str(path)) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "InvalidInput" and "focal_mm" in error["message"]


CALIB_ERRORS = sorted(
    (e for e in vars(rc.errors).values()
     if isinstance(e, type) and issubclass(e, rc.CalibError) and e is not rc.CalibError),
    key=lambda e: e.__name__,
)


def _eval_missing_dir(tmp: Path) -> list[str]:
    (tmp / "gt").mkdir()
    return ["eval", str(tmp / "missing"), str(tmp / "gt"), "-o", str(tmp / "rep")]


def _eval_missing_gt_dir(tmp: Path) -> list[str]:
    (tmp / "est").mkdir()
    return ["eval", str(tmp / "est"), str(tmp / "missing"), "-o", str(tmp / "rep")]


def _eval_no_common_name(tmp: Path) -> list[str]:
    spec = centered_spec("pinhole", 60.0, 32)
    for side, name in (("est", "0000"), ("gt", "0001")):
        (tmp / side).mkdir()
        write_spec(tmp / side / f"{name}.json", spec)
    return ["eval", str(tmp / "est"), str(tmp / "gt"), "-o", str(tmp / "rep")]


def _convert_invalid_spec(tmp: Path) -> list[str]:
    # below its injectivity clamp, so validate_spec rejects it
    spec = centered_spec("radial:1", 60.0, 64, dist=(-0.1,))
    f_min = rc.min_focal(spec.model, spec.dist, 64, 64)
    write_spec(tmp / "spec.json", spec.replace(fx=0.6 * f_min, fy=0.6 * f_min))
    return ["convert", str(tmp / "spec.json"), "--to", "kb:2"]


def _fit_truncated_header(tmp: Path) -> list[str]:
    (tmp / "field.aff1").write_bytes(b"AFF1\x01\x00")
    return ["fit", str(tmp / "field.aff1"), "--model", "pinhole"]


def _fit_ragged_payload(tmp: Path) -> list[str]:
    # a 2 x 2 header and 15 payload bytes, not a whole number of f32 values
    (tmp / "field.aff1").write_bytes(b"AFF1" + struct.pack("<II", 2, 2) + b"\0" * 15)
    return ["fit", str(tmp / "field.aff1"), "--model", "pinhole"]


def _convert_spec_not_an_object(tmp: Path) -> list[str]:
    (tmp / "spec.json").write_text("[1, 2]")
    return ["convert", str(tmp / "spec.json"), "--to", "kb:2"]


def _convert_null_focal(tmp: Path) -> list[str]:
    data = centered_spec("pinhole", 60.0, 32).to_dict()
    (tmp / "spec.json").write_text(json.dumps({**data, "fx": None}))
    return ["convert", str(tmp / "spec.json"), "--to", "kb:2"]


def _lensfun_number_coefficients(tmp: Path) -> list[str]:
    (tmp / "entry.json").write_text(json.dumps({
        "model_kind": "poly3", "coefficients": 5, "focal_mm": 8.0,
        "sensor_width_mm": 36.0, "sensor_height_mm": 24.0,
    }))
    return ["lensfun", str(tmp / "entry.json")]


def _fit_stride(stride: str, tmp: Path) -> list[str]:
    write_field(tmp / "field.aff1", rc.field_from_spec(centered_spec("pinhole", 60.0, 16)))
    return ["fit", str(tmp / "field.aff1"), "--model", "pinhole", "--stride", stride]


def _eval_stride_0(tmp: Path) -> list[str]:
    for side in ("est", "gt"):
        (tmp / side).mkdir()
        write_spec(tmp / side / "0000.json", centered_spec("pinhole", 60.0, 32))
    return ["eval", str(tmp / "est"), str(tmp / "gt"), "--stride", "0", "-o", str(tmp / "rep")]


def _convert_stride_0(tmp: Path) -> list[str]:
    write_spec(tmp / "spec.json", centered_spec("pinhole", 60.0, 32))
    return ["convert", str(tmp / "spec.json"), "--to", "kb:2", "--stride", "0"]


def _synth_size(size: str, tmp: Path) -> list[str]:
    return ["synth", "--kind", "opr", "--n", "1", "--size", size, "--seed", "1",
            "-o", str(tmp / "ds")]


def _fit_ransac(flag: str, value: str, tmp: Path) -> list[str]:
    write_field(tmp / "field.aff1", rc.field_from_spec(centered_spec("pinhole", 60.0, 16)))
    return ["fit", str(tmp / "field.aff1"), "--model", "pinhole", "--ransac", flag, value]


def _lensfun_entry(tmp: Path, **fields) -> Path:
    entry = {"model_kind": "poly3", "coefficients": [0.01], "focal_mm": 8.0,
             "sensor_width_mm": 36.0, "sensor_height_mm": 24.0, **fields}
    (tmp / "entry.json").write_text(json.dumps(entry))
    return tmp / "entry.json"


def _lensfun_grid_stride(stride: str, tmp: Path) -> list[str]:
    return ["lensfun", str(_lensfun_entry(tmp)), "--grid-stride", stride]


def _convert_string_focal(tmp: Path) -> list[str]:
    data = centered_spec("pinhole", 60.0, 32).to_dict()
    (tmp / "spec.json").write_text(json.dumps({**data, "fx": "abc"}))
    return ["convert", str(tmp / "spec.json"), "--to", "kb:2"]


def _lensfun_string_coefficient(tmp: Path) -> list[str]:
    return ["lensfun", str(_lensfun_entry(tmp, coefficients=["q"]))]


def _lensfun_unknown_projection(tmp: Path) -> list[str]:
    return ["lensfun", str(_lensfun_entry(tmp, projection="thoby"))]


def _lensfun_fov(fov_deg: float, tmp: Path) -> list[str]:
    return ["lensfun", str(_lensfun_entry(tmp, fov_deg=fov_deg))]


def _lensfun_xml(text: str, tmp: Path) -> list[str]:
    (tmp / "lens.xml").write_text(text)
    return ["lensfun", str(tmp / "lens.xml")]


def _convert_dist_length(tmp: Path) -> list[str]:
    data = centered_spec("kb:2", 100.0, 32, dist=(0.05, -0.01)).to_dict()
    (tmp / "spec.json").write_text(json.dumps({**data, "dist": [0.05]}))
    return ["convert", str(tmp / "spec.json"), "--to", "pinhole"]


def _argv(*argv: str):
    """A command line that names no file it needs."""
    return lambda tmp: list(argv)


class TestInputErrors:
    @pytest.mark.parametrize(
        "make_argv, kind",
        [
            (_eval_missing_dir, "FileNotFound"),
            (_eval_no_common_name, "EmptyInput"),
            (_convert_invalid_spec, "InvalidInput"),
            (_fit_truncated_header, "DimensionMismatch"),
            (_fit_ragged_payload, "DimensionMismatch"),
            (_convert_spec_not_an_object, "InvalidInput"),
            (_convert_null_focal, "InvalidInput"),
            (_lensfun_number_coefficients, "InvalidInput"),
            (functools.partial(_fit_stride, "0"), "InvalidInput"),
            (functools.partial(_fit_stride, "-1"), "InvalidInput"),
            (_eval_stride_0, "InvalidInput"),
            (_convert_stride_0, "InvalidInput"),
            (functools.partial(_synth_size, "0"), "InvalidInput"),
            (functools.partial(_synth_size, "-5"), "InvalidInput"),
            (functools.partial(_lensfun_grid_stride, "0"), "InvalidInput"),
            (functools.partial(_lensfun_grid_stride, "-4"), "InvalidInput"),
            (_convert_string_focal, "InvalidInput"),
            (_lensfun_string_coefficient, "InvalidInput"),
            (functools.partial(_fit_ransac, "--iters", "-3"), "InvalidInput"),
            (functools.partial(_fit_ransac, "--thresh-deg", "-1"), "InvalidInput"),
            (_argv("fit", "F", "--model", "kb:4", "--stride", "x"), "InvalidInput"),
            (_argv("eval", "A", "B"), "InvalidInput"),
            (_argv("calibrate", "F"), "InvalidInput"),
            (_eval_missing_gt_dir, "FileNotFound"),
            (_lensfun_unknown_projection, "InvalidInput"),
            (functools.partial(_lensfun_fov, -10.0), "InvalidInput"),
            (functools.partial(_lensfun_fov, float("nan")), "InvalidInput"),
            (functools.partial(_lensfun_xml, "<lensdatabase><lens><type>fisheye</lens>"),
             "ParseError"),
            (functools.partial(
                _lensfun_xml, "<lens><type>fisheye</type><cropfactor>0</cropfactor></lens>"),
             "InvalidInput"),
        ],
        ids=["eval-missing-dir", "eval-no-common-name", "convert-invalid-spec",
             "fit-truncated-header", "fit-ragged-payload", "convert-spec-not-an-object",
             "convert-null-focal", "lensfun-number-coefficients", "fit-stride-0",
             "fit-stride-negative", "eval-stride-0", "convert-stride-0", "synth-size-0",
             "synth-size-negative", "lensfun-grid-stride-0", "lensfun-grid-stride-negative",
             "convert-string-focal", "lensfun-string-coefficient", "fit-ransac-iters-negative",
             "fit-ransac-thresh-negative", "usage-fit-stride-not-an-int",
             "usage-eval-without-output", "usage-unknown-command", "eval-missing-gt-dir",
             "lensfun-unknown-projection", "lensfun-fov-negative", "lensfun-fov-nan",
             "lensfun-xml-not-well-formed", "lensfun-xml-crop-factor-0"],
    )
    def test_exit_2_with_error_object(self, make_argv, kind, tmp_path, capsys):
        code = run(*make_argv(tmp_path))
        error = json.loads(capsys.readouterr().out)["error"]
        assert code == 2
        assert error["kind"] == kind and error["message"]

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["fit", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            run(*argv)
        assert exit_.value.code == 0
        assert not capsys.readouterr().out.startswith("{")

    @pytest.mark.parametrize(
        "flag, value",
        [("--n", "-1"), ("--n", "0"), ("--noise-deg", "-0.5"), ("--noise-deg", "nan"),
         ("--noise-deg", "inf")],
    )
    def test_synth_bad_count_writes_nothing(self, flag, value, tmp_path, capsys):
        argv = {"--n": "2", "--noise-deg": "0", flag: value}
        code = run("synth", "--kind", "opp", "--size", "16", "--seed", "1",
                   *(x for item in argv.items() for x in item), "-o", str(tmp_path / "ds"))
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "InvalidInput"
        assert not (tmp_path / "ds").exists()

    def test_non_numeric_csv_value_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "field.csv"
        path.write_text("u,v,theta_x,theta_y\n0.5,0.5,abc,0.1\n")
        assert run("fit", str(path), "--model", "pinhole") == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "DimensionMismatch"
        assert str(path) in error["message"] and "0.5,0.5,abc,0.1" in error["message"]

    @pytest.mark.parametrize(
        "make_argv", [_convert_string_focal, _lensfun_string_coefficient, _convert_dist_length],
        ids=["convert", "lensfun", "convert-dist-length"],
    )
    def test_bad_json_value_names_the_file(self, make_argv, tmp_path, capsys):
        argv = make_argv(tmp_path)
        assert run(*argv) == 2
        assert argv[1] in json.loads(capsys.readouterr().out)["error"]["message"]

    @pytest.mark.parametrize("width", [32.5, math.inf])
    def test_eval_spec_width_not_whole_fails_alone(self, width, tmp_path):
        # a ground-truth spec whose width is not a finite whole number lands
        # in "failed" next to a valid pair; the batch still writes its report
        spec = centered_spec("pinhole", 60.0, 32)
        for side in ("est", "gt"):
            (tmp_path / side).mkdir()
            for name in ("0000", "0001"):
                write_spec(tmp_path / side / f"{name}.json", spec)
        bad = tmp_path / "gt" / "0000.json"
        bad.write_text(json.dumps({**spec.to_dict(), "width": width}))
        assert run("eval", str(tmp_path / "est"), str(tmp_path / "gt"), "-o",
                   str(tmp_path / "rep")) == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert list(report["failed"]) == ["0000"]
        assert report["failed"]["0000"]["kind"] == "InvalidInput"
        assert str(bad) in report["failed"]["0000"]["message"]
        assert list(report["per_image"]) == ["0001"]

    @pytest.mark.parametrize("change, key", [
        ({"cx": math.nan}, "cx"), ({"model": "ucm", "dist": [math.nan]}, "dist"),
        ({"model": "kb:2", "dist": [math.inf, 0.0]}, "dist")], ids=["cx-nan", "xi-nan", "k1-inf"])
    def test_eval_non_finite_value_fails_alone(self, change, key, tmp_path):
        spec = centered_spec("pinhole", 60.0, 32)
        for side in ("est", "gt"):
            (tmp_path / side).mkdir()
            for name in ("0000", "0001"):
                write_spec(tmp_path / side / f"{name}.json", spec)
        bad = tmp_path / "est" / "0000.json"
        bad.write_text(json.dumps({**spec.to_dict(), **change}))
        assert run("eval", str(tmp_path / "est"), str(tmp_path / "gt"), "-o",
                   str(tmp_path / "rep")) == 0
        failed = json.loads((tmp_path / "rep" / "report.json").read_text())["failed"]
        assert list(failed) == ["0000"] and failed["0000"]["kind"] == "InvalidInput"
        assert str(bad) in failed["0000"]["message"]
        assert f"{key} must be a finite number" in failed["0000"]["message"]

    def test_eval_failure_names_the_bad_side(self, tmp_path):
        spec = centered_spec("pinhole", 60.0, 32)
        for side in ("est", "gt"):
            (tmp_path / side).mkdir()
            for name in ("0000", "0001"):
                write_spec(tmp_path / side / f"{name}.json", spec)
        bad = tmp_path / "gt" / "0001.json"
        bad.write_text(json.dumps({**spec.to_dict(), "dist": ["x"]}))
        assert run("eval", str(tmp_path / "est"), str(tmp_path / "gt"), "-o",
                   str(tmp_path / "rep")) == 0
        failed = json.loads((tmp_path / "rep" / "report.json").read_text())["failed"]
        assert list(failed) == ["0001"] and str(bad) in failed["0001"]["message"]


_SPEC = centered_spec("pinhole", 60.0, 32).to_dict()
_ENTRY = {"model_kind": "poly3", "coefficients": [0.01], "focal_mm": 8.0,
          "sensor_width_mm": 36.0, "sensor_height_mm": 24.0}
_AFF1_2X2 = b"AFF1" + struct.pack("<II", 2, 2)
_LENS_XML = ("<lensdatabase><lens><type>fisheye</type><cropfactor>{}</cropfactor></lens>"
             "</lensdatabase>")

# one file per reader and kind of damage: (name, contents, command around it)
_BAD_FILES = {
    "aff1-empty": ("f.aff1", b"", "fit"),
    "aff1-truncated": ("f.aff1", _AFF1_2X2[:9], "fit"),
    "aff1-malformed": ("f.aff1", _AFF1_2X2 + b"\0" * 15, "fit"),
    "aff1-zero": ("f.aff1", _AFF1_2X2 + b"\0" * 32, "fit"),
    "csv-empty": ("f.csv", b"", "fit"),
    "csv-truncated": ("f.csv", b"u,v,theta_x,theta_y\n0.5,0.5,0.1", "fit"),
    "csv-malformed": ("f.csv", b"0.5;0.5;0.1;0.1\n", "fit"),
    "csv-zero": ("f.csv", b"0.5,0.5,0,0\n1.5,0.5,0,0\n0.5,1.5,0,0\n1.5,1.5,0,0\n", "fit"),
    "spec-empty": ("s.json", b"", "convert"),
    "spec-truncated": ("s.json", json.dumps(_SPEC)[:40].encode(), "convert"),
    "spec-malformed": ("s.json", json.dumps({**_SPEC, "fx": [30.0]}).encode(), "convert"),
    "spec-zero": ("s.json", json.dumps({**_SPEC, "fx": 0.0, "fy": 0.0}).encode(), "convert"),
    "spec-width-not-whole": ("s.json", json.dumps({**_SPEC, "width": 32.5}).encode(), "convert"),
    "spec-width-infinite": ("s.json", json.dumps({**_SPEC, "width": math.inf}).encode(),
                            "convert"),
    "spec-width-zero": ("s.json", json.dumps({**_SPEC, "width": 0}).encode(), "convert"),
    "spec-width-negative": ("s.json", json.dumps({**_SPEC, "width": -8}).encode(), "convert"),
    "spec-fx-bool": ("s.json", json.dumps({**_SPEC, "fx": True}).encode(), "convert"),
    "spec-fx-numeric-string": ("s.json", json.dumps({**_SPEC, "fx": "12"}).encode(), "convert"),
    "spec-fx-huge-integer": ("s.json", json.dumps({**_SPEC, "fx": 10**400}).encode(), "convert"),
    "spec-width-bool": ("s.json", json.dumps({**_SPEC, "width": True}).encode(), "convert"),
    "spec-dist-bool": ("s.json", json.dumps({**_SPEC, "model": "kb:2", "dist": [True, 0.01]})
                       .encode(), "convert"),
    # Python's json module reads NaN and Infinity, which JSON does not have
    "spec-cx-nan": ("s.json", json.dumps({**_SPEC, "cx": math.nan}).encode(), "convert"),
    "spec-dist-nan-ucm": ("s.json", json.dumps({**_SPEC, "model": "ucm", "dist": [math.nan]})
                          .encode(), "convert"),
    "spec-dist-nan-eucm": ("s.json", json.dumps({**_SPEC, "model": "eucm",
                                                 "dist": [0.5, math.nan]}).encode(), "convert"),
    "spec-dist-infinite-kb": ("s.json", json.dumps({**_SPEC, "model": "kb:2",
                                                    "dist": [math.inf, 0.0]}).encode(), "convert"),
    "spec-dist-nan-radial": ("s.json", json.dumps({**_SPEC, "model": "radial:1",
                                                   "dist": [math.nan]}).encode(), "convert"),
    "lensfun-json-empty": ("e.json", b"", "lensfun"),
    "lensfun-json-truncated": ("e.json", json.dumps(_ENTRY)[:30].encode(), "lensfun"),
    "lensfun-json-malformed": ("e.json", json.dumps({**_ENTRY, "focal_mm": [8]}).encode(),
                               "lensfun"),
    "lensfun-json-zero": ("e.json", json.dumps({**_ENTRY, "focal_mm": 0}).encode(), "lensfun"),
    "lensfun-json-focal-bool": ("e.json", json.dumps({**_ENTRY, "focal_mm": True}).encode(),
                                "lensfun"),
    "lensfun-json-coefficient-nan": ("e.json", json.dumps({**_ENTRY, "coefficients": [math.nan]})
                                     .encode(), "lensfun"),
    "lensfun-xml-truncated": ("e.xml", _LENS_XML.format(1)[:40].encode(), "lensfun"),
    "lensfun-xml-not-well-formed": ("e.xml", b"<lensdatabase><lens><type>fisheye</lens>",
                                    "lensfun"),
    "lensfun-xml-malformed": ("e.xml", _LENS_XML.format("x").encode(), "lensfun"),
    "lensfun-xml-zero": ("e.xml", _LENS_XML.format(0).encode(), "lensfun"),
    "lensfun-xml-focal-zero": ("e.xml", b"<lensdatabase><lens><type>fisheye</type>"
                                        b"<focal>0</focal></lens></lensdatabase>", "lensfun"),
}


def _bad_file_argv(name: str, tmp: Path) -> list[str]:
    """Write the damaged file ``name`` of _BAD_FILES; the command line reading it."""
    fname, contents, command = _BAD_FILES[name]
    path = tmp / fname
    path.write_bytes(contents)
    return {"fit": ["fit", str(path), "--model", "pinhole"],
            "convert": ["convert", str(path), "--to", "kb:2", "--stride", "4"],
            "lensfun": ["lensfun", str(path), "--grid-stride", "4"]}[command]


@pytest.mark.parametrize("name", list(_BAD_FILES))
def test_bad_input_file_never_exits_1(name, tmp_path):
    # the CLI run as its own process: whatever a damaged file holds, it
    # reports an input error (2) or a numerical failure (3) as a JSON error
    # object, and no exception escapes as a traceback with exit status 1
    argv = _bad_file_argv(name, tmp_path)
    src = str(Path(rc.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "raycalib.cli", *argv],
                         env={**os.environ, "PYTHONPATH": pythonpath},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode in (2, 3), out.stderr
    assert "Traceback" not in out.stderr
    error = json.loads(out.stdout)["error"]
    assert error["kind"] and error["message"]


# the JSON key each non-finite value sits under
_NON_FINITE_KEYS = {"spec-cx-nan": "cx", "spec-dist-nan-ucm": "dist",
                    "spec-dist-nan-eucm": "dist", "spec-dist-infinite-kb": "dist",
                    "spec-dist-nan-radial": "dist", "lensfun-json-coefficient-nan": "coefficients"}


@pytest.mark.parametrize("name", ["spec-width-not-whole", "spec-width-infinite",
                                  "spec-width-zero", "spec-width-negative", "spec-fx-bool",
                                  "spec-fx-numeric-string", "spec-fx-huge-integer",
                                  "spec-width-bool", "spec-dist-bool", "lensfun-json-focal-bool",
                                  "lensfun-xml-focal-zero", *_NON_FINITE_KEYS])
def test_bad_size_or_focal_names_the_file(name, tmp_path, capsys):
    # a width of 32.5 is no 32-pixel camera, "fx": true no focal of 1 and
    # <focal>0</focal> no default focal, and "cx": NaN no principal point:
    # each is an input error naming the file (and a non-finite value's key),
    # not a fit of another camera
    argv = _bad_file_argv(name, tmp_path)
    assert run(*argv) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "InvalidInput" and argv[1] in error["message"]
    if name in _NON_FINITE_KEYS:
        assert f"{_NON_FINITE_KEYS[name]} must be a finite number" in error["message"]


def _outside_the_exp_map(kind: str, component: int, norm: float, angle: float) -> np.ndarray:
    """A tangent vector of one AFF1 cell that the exp map refuses, exact in f32."""
    if kind != "wide":
        vec = np.zeros(2, dtype=np.float32)
        vec[component] = float(kind)
        return vec
    vec = np.array([norm * math.cos(angle), norm * math.sin(angle)], dtype=np.float32)
    while math.hypot(*map(float, vec)) < math.pi:  # f32 rounding may cut the norm
        vec = np.nextafter(vec, np.copysign(np.float32(np.inf), vec))
    return vec


_HOLED = centered_spec("pinhole", 60.0, 32)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(cells=st.lists(
    st.tuples(st.integers(0, 32 * 32 - 1), st.sampled_from(["nan", "inf", "-inf", "wide"]),
              st.integers(0, 1), st.floats(math.pi, 10.0), st.floats(0.0, 2.0 * math.pi)),
    min_size=1, max_size=20, unique_by=lambda cell: cell[0]))
@example(cells=[(16 * 32 + 16, "wide", 0, 3.5, 0.0)])  # theta = (3.5, 0)
@pytest.mark.parametrize("ransac", [[], ["--ransac", "--iters", "5"]], ids=["plain", "ransac"])
def test_cells_outside_the_exp_map_are_dropped(ransac, cells, tmp_path_factory):
    # a cell that is not finite or has |theta| >= pi is one the fit leaves
    # out: it fits exactly as the field with a NaN there, and counts in dropped
    tmp = tmp_path_factory.mktemp("holes")
    theta = rc.field_from_spec(_HOLED).theta.astype(np.float32).astype(np.float64)
    holed = theta.copy()
    for index, kind, component, norm, angle in cells:
        theta.reshape(-1, 2)[index] = _outside_the_exp_map(kind, component, norm, angle)
        holed.reshape(-1, 2)[index] = np.nan
    outputs = []
    for name, field in (("bad", theta), ("nan", holed)):
        write_field(tmp / f"{name}.aff1", rc.FovField(theta=field))
        assert run("fit", str(tmp / f"{name}.aff1"), "--model", "pinhole", *ransac,
                   "-o", str(tmp / f"{name}.json")) == 0
        outputs.append((tmp / f"{name}.json").read_bytes())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["dropped"] == len(cells)


class TestExitCodesAndWorkers:
    @pytest.mark.parametrize("error", CALIB_ERRORS, ids=lambda e: e.__name__)
    def test_every_calib_error_has_one_exit_code(self, error, monkeypatch, capsys):
        def stub(args):
            raise error("stub failure")

        monkeypatch.setattr(raycalib.cli, "cmd_fit", stub)
        code = run("fit", "unused.aff1", "--model", "pinhole")
        out = json.loads(capsys.readouterr().out)
        assert code == (2 if issubclass(error, raycalib.cli._INPUT_ERRORS) else 3)
        assert out == {"error": {"kind": error.__name__, "message": "stub failure"}}

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # a directionally random field admits no consensus model
        rng = np.random.default_rng(1)
        az = rng.uniform(0, 2 * np.pi, (24, 24))
        mag = rng.uniform(0.5, 2.8, (24, 24))
        theta = np.stack([mag * np.cos(az), mag * np.sin(az)], axis=-1)
        from raycalib.fileio import write_field

        path = tmp_path / "garbage.aff1"
        write_field(path, rc.FovField(theta=theta))
        code = run("fit", str(path), "--model", "pinhole", "--ransac",
                   "--iters", "20", "--thresh-deg", "0.02", "--seed", "1")
        out = json.loads(capsys.readouterr().out)
        assert code == 3
        assert out["error"]["kind"] in ("NoConsensus", "DegenerateGeometry")

    def test_negative_focal_exit_code(self, tmp_path, capsys):
        # a pinhole field turned inside out: each cell's angle becomes half
        # its distance below the widest one, so the angle falls with the
        # radius and the division rows solve for a negative focal
        spec = rc.sample_spec_for_model(rc.parse_model("pinhole"), 64, np.random.default_rng(0))
        theta = rc.field_from_spec(spec).theta
        norm = np.linalg.norm(theta, axis=-1, keepdims=True)
        path = tmp_path / "inverted.aff1"
        write_field(path, rc.FovField(theta=theta / norm * 0.5 * (norm.max() - norm) + 1e-3))
        code = run("fit", str(path), "--model", "division:1")
        assert code == 3
        assert json.loads(capsys.readouterr().out) == {"error": {
            "kind": "InvalidFocal", "message": "solved focal length -17.2066 is not positive"}}

    def test_reused_parser_gives_fresh_outputs(self, tmp_path):
        # main builds its parser once: a RANSAC fit, an eval and a plain fit
        # with other flags, in one process, write what each writes after a
        # fresh parse
        ds = tmp_path / "ds"
        assert run("synth", "--kind", "opp", "--n", "2", "--size", "32", "--seed", "2",
                   "-o", str(ds)) == 0
        field = str(ds / "fields" / "0000.aff1")
        model = str(read_spec(ds / "specs" / "0000.json").model)
        calls = [
            ("fit", field, "--model", model, "--ransac", "--iters", "5", "--seed", "3",
             "-o", "{out}/ransac.json"),
            ("eval", str(ds), str(ds), "--stride", "8", "--edited", "-o", "{out}/rep"),
            ("fit", field, "--model", model, "--stride", "2", "-o", "{out}/plain.json"),
        ]

        out = tmp_path / "out"  # one path for both, as the eval manifest records it

        def outputs(fresh: bool) -> dict:
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            for argv in calls:
                if fresh:
                    raycalib.cli._parser.cache_clear()
                assert run(*(a.format(out=out) for a in argv)) == 0
            return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

        reused = outputs(fresh=False)
        assert raycalib.cli._parser.cache_info().currsize == 1
        assert reused == outputs(fresh=True)
        assert "inlier_ratio" not in json.loads(reused[Path("plain.json")])

    def test_commands_run_in_the_calling_thread(self, tmp_path, monkeypatch):
        def refuse(self):
            raise RuntimeError("a command started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        ds = tmp_path / "ds"
        assert run("synth", "--kind", "opg", "--n", "5", "--size", "48", "--seed", "21",
                   "-o", str(ds)) == 0
        assert run("eval", str(ds), str(ds), "-o", str(tmp_path / "rep")) == 0


def test_imports_load_no_dependency_but_numpy():
    # numpy is the only runtime dependency: importing the package, its CLI
    # and its file formats in a fresh interpreter brings in no other
    # top-level module outside the standard library (modules the
    # interpreter's own start-up loaded are not counted)
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import raycalib, raycalib.cli, raycalib.fileio\n"
        "print('\\n'.join(sorted({m.partition('.')[0] for m in set(sys.modules) - before})))\n"
    )
    src = str(Path(rc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True, timeout=120)
    loaded = set(out.stdout.split())
    assert {"numpy", "raycalib"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"numpy", "raycalib"} == set()
