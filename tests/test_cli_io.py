"""File formats and the command-line workflow: bit-exact array IO,
strict config parsing, and the simulate/reconstruct/compare pipeline."""

import json
import math
import os
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from conftest import rand_complex

import ptyblind
from ptyblind import synth
from ptyblind.cli import PerturbationSpec, load_run_config, main, parse_run_config
from ptyblind.metrics import MetricsRow
from ptyblind.npyio import (
    load_array,
    load_json,
    read_metrics_csv,
    save_array,
    save_json,
    write_metrics_csv,
)
from ptyblind.solver import SolverConfig


def make_rows(nrmse_values):
    return [
        MetricsRow(
            iter=i,
            nrmse_probe=v,
            data_residual=0.5 / (i + 1),
            pairwise=0.25 / (i + 1),
            wall_ms=1.25 * i,
        )
        for i, v in enumerate(nrmse_values)
    ]


class TestArrayIO:
    def test_round_trip_is_bit_identical(self, tmp_path, rng):
        for arr in (
            rand_complex(rng, 5, 7),
            rng.normal(size=(3, 4, 4)),
            rng.integers(0, 100, size=(6,)),
        ):
            path = str(tmp_path / "arr.npy")
            save_array(path, arr)
            back = load_array(path)
            assert back.dtype == arr.dtype
            assert np.array_equal(back, arr)

    def test_writes_npy_version_1_0(self, tmp_path, rng):
        path = str(tmp_path / "arr.npy")
        save_array(path, rand_complex(rng, 4, 4))
        with open(path, "rb") as fh:
            assert fh.read(8) == b"\x93NUMPY\x01\x00"

    def test_no_temporary_files_left_behind(self, tmp_path, rng):
        path = str(tmp_path / "arr.npy")
        save_array(path, rand_complex(rng, 4, 4))
        save_array(path, rand_complex(rng, 4, 4))
        assert os.listdir(tmp_path) == ["arr.npy"]


class TestJsonIO:
    def test_round_trip(self, tmp_path):
        doc = {"n": 64, "positions": [[0, 0], [0, 4]], "label": "run"}
        path = str(tmp_path / "doc.json")
        save_json(path, doc)
        assert load_json(path) == doc

    def test_rejects_non_object_top_level(self, tmp_path):
        path = str(tmp_path / "doc.json")
        path2 = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            fh.write("[1, 2, 3]\n")
        with open(path2, "w") as fh:
            fh.write("{not json")
        with pytest.raises(ValueError):
            load_json(path)
        with pytest.raises(ValueError):
            load_json(path2)


class TestMetricsCsv:
    def test_values_round_trip_at_full_precision(self, tmp_path):
        rows = make_rows([0.123456789012345678, None, 1e-17])
        path = str(tmp_path / "m.csv")
        write_metrics_csv(path, rows)
        back = read_metrics_csv(path)
        assert [r.iter for r in back] == [0, 1, 2]
        for a, b in zip(back, rows):
            assert a.nrmse_probe == b.nrmse_probe
            assert a.data_residual == b.data_residual
            assert a.pairwise == b.pairwise
            assert a.wall_ms == b.wall_ms

    def test_record_every_keeps_final_row(self, tmp_path):
        rows = make_rows([0.5] * 11)
        path = str(tmp_path / "m.csv")
        write_metrics_csv(path, rows, record_every=4)
        assert [r.iter for r in read_metrics_csv(path)] == [0, 4, 8, 10]

    def test_rejects_bad_record_every(self, tmp_path):
        with pytest.raises(ValueError):
            write_metrics_csv(str(tmp_path / "m.csv"), make_rows([0.5]), record_every=0)

    def test_read_validates_header_and_monotone_iterations(self, tmp_path):
        good = str(tmp_path / "good.csv")
        write_metrics_csv(good, make_rows([0.5, 0.4]))
        with open(good) as fh:
            text = fh.read()

        bad_header = str(tmp_path / "h.csv")
        with open(bad_header, "w") as fh:
            fh.write(text.replace("nrmse_probe", "nrmse"))
        with pytest.raises(ValueError):
            read_metrics_csv(bad_header)

        lines = text.splitlines()
        shuffled = str(tmp_path / "s.csv")
        with open(shuffled, "w") as fh:
            fh.write("\n".join([lines[0], lines[2], lines[1]]) + "\n")
        with pytest.raises(ValueError):
            read_metrics_csv(shuffled)

        nonfinite = str(tmp_path / "n.csv")
        with open(nonfinite, "w") as fh:
            fh.write(lines[0] + "\n" + "0,nan,0.1,0.1,1.0\n")
        with pytest.raises(ValueError):
            read_metrics_csv(nonfinite)


BASE_CONFIG = {
    "geometry": {"n": 16, "m": 8, "step": 4, "grid": [3, 3]},
    "phantom": {"dc_fraction": 0.9, "texture_seed": 2},
    "probe": {"aperture_radius_px": 3.0, "defocus_phase_strength": 0.3},
    "perturbation": {"blur_sigma_px": 1.0, "noise_level": 0.05, "seed": 1},
    "solver": {"probe_mode": "power", "max_iters": 5},
}


class TestConfigParsing:
    def test_reads_all_sections(self):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["solver"].update({"rank1_gate": 0.9, "rank1_cadence": 2})
        doc["record_every"] = 3
        cfg = parse_run_config(doc)
        assert (cfg.n, cfg.m, cfg.step, cfg.grid) == (16, 8, 4, (3, 3))
        assert cfg.phantom.dc_fraction == 0.9
        assert cfg.probe.aperture_radius_px == 3.0
        assert cfg.perturbation.noise_level == 0.05
        assert cfg.solver.probe_mode == "power"
        assert cfg.solver.rank1_gate == 0.9
        assert cfg.solver.rank1_cadence == 2
        assert cfg.record_every == 3
        geom = cfg.build_geometry()
        assert geom.K == 9

    def test_explicit_positions(self):
        doc = {"geometry": {"n": 16, "m": 8, "positions": [[0, 0], [0, 8], [8, 0]]}}
        geom = parse_run_config(doc).build_geometry()
        assert geom.positions.tolist() == [[0, 0], [0, 8], [8, 0]]

    def test_unknown_keys_report_section_path(self):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["solver"]["momentum"] = 0.9
        with pytest.raises(ValueError, match="config solver: unknown key"):
            parse_run_config(doc)
        with pytest.raises(ValueError, match=r"config \(top level\): unknown key"):
            parse_run_config({"geometry": BASE_CONFIG["geometry"], "extras": {}})

    def test_type_errors_are_strict(self):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["solver"]["max_iters"] = True
        with pytest.raises(ValueError, match="solver.max_iters"):
            parse_run_config(doc)
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["phantom"]["dc_fraction"] = "high"
        with pytest.raises(ValueError, match="phantom.dc_fraction"):
            parse_run_config(doc)

    def test_geometry_requires_raster_xor_positions(self):
        with pytest.raises(ValueError, match="not both/neither"):
            parse_run_config({"geometry": {"n": 16, "m": 8}})
        doc = {
            "geometry": {"n": 16, "m": 8, "step": 4, "grid": [3, 3], "positions": [[0, 0]]}
        }
        with pytest.raises(ValueError, match="not both/neither"):
            parse_run_config(doc)

    def test_missing_required_keys(self):
        with pytest.raises(ValueError, match="missing required section 'geometry'"):
            parse_run_config({})
        with pytest.raises(ValueError, match="missing required key 'm'"):
            parse_run_config({"geometry": {"n": 16, "step": 4, "grid": [2, 2]}})
        doc = {"geometry": BASE_CONFIG["geometry"], "phantom": {"texture_seed": 1}}
        with pytest.raises(ValueError, match="missing required key 'dc_fraction'"):
            parse_run_config(doc)

    def test_null_is_not_a_number(self):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["solver"]["stop_nrmse"] = None
        with pytest.raises(ValueError, match=r"solver\.stop_nrmse: expected a number, got None"):
            parse_run_config(doc)

    def test_nan_stop_nrmse_is_rejected(self, tmp_path):
        # Python's json reads a bare NaN.
        path = tmp_path / "run.json"
        text = json.dumps(BASE_CONFIG).replace(
            '"max_iters": 5', '"max_iters": 5, "stop_nrmse": NaN'
        )
        path.write_text(text)
        assert math.isnan(json.loads(text)["solver"]["stop_nrmse"])
        with pytest.raises(ValueError, match="stop_nrmse must be >= 0, got nan") as caught:
            load_run_config(str(path))
        assert str(caught.value).startswith(f"{path}: config solver: ")

    def test_integer_too_large_for_a_number_is_a_config_error(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["solver"]["stop_nrmse"] = 10**400
        config = write_config(tmp_path, doc)
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {config}: config solver.stop_nrmse: integer too large for a number\n"

    def test_integers_are_numbers(self):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["solver"]["rank1_gate"] = 1
        gate = parse_run_config(doc).solver.rank1_gate
        assert gate == 1.0 and type(gate) is float

    def test_probe_requires_aperture_radius(self):
        doc = json.loads(json.dumps(BASE_CONFIG))
        del doc["probe"]["aperture_radius_px"]
        missing = "config probe: missing required key 'aperture_radius_px'"
        with pytest.raises(ValueError, match=missing):
            parse_run_config(doc)

    @pytest.mark.parametrize("key, value", [("kind", "aperture_gauss"), ("seed", 0)])
    def test_probe_rejects_kind_and_seed(self, key, value):
        # There is one probe model and it draws no random numbers.
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["probe"][key] = value
        with pytest.raises(ValueError, match=rf"config probe: unknown key\(s\) \['{key}'\]"):
            parse_run_config(doc)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("epsilon_rel", 1e-8),
            ("center_probe_each_iter", True),
            ("probe_norm_lock", True),
            ("init_seed", 0),
            ("frame_init", "transparent"),
        ],
    )
    def test_solver_rejects_removed_keys(self, key, value):
        # Every run starts from the transparent object, centers the probe
        # and locks its norm; the denominator floor is a constant.
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["solver"][key] = value
        with pytest.raises(ValueError, match=rf"config solver: unknown key\(s\) \['{key}'\]"):
            parse_run_config(doc)


SECTION_CLASSES = {
    "phantom": synth.PhantomSpec,
    "probe": synth.ProbeSpec,
    "perturbation": PerturbationSpec,
    "solver": SolverConfig,
}

# For every field of a config section: a valid value other than the
# field's default, and a value of the wrong type.
FIELD_VALUES = {
    "phantom": {
        "dc_fraction": (0.5, "high"),
        "texture_seed": (7, 7.0),
        "texture_kind": ("piecewise", 1),
    },
    "probe": {
        "aperture_radius_px": (2.5, "wide"),
        "defocus_phase_strength": (0.25, False),
    },
    "perturbation": {
        "blur_sigma_px": (0.5, [1]),
        "noise_level": (0.1, {}),
        "seed": (4, "4"),
    },
    "solver": {
        "max_iters": (7, 7.5),
        "probe_mode": ("rank1_framewise", 1),
        "stop_nrmse": (0.2, "0.2"),
        "rank1_gate": (0.5, True),
        "rank1_cadence": (2, 2.0),
    },
}


@pytest.mark.parametrize(
    "section, field",
    [
        (section, f)
        for section, cls in SECTION_CLASSES.items()
        for f in fields(cls)
        # The geometry supplies these.
        if f.name not in ("n", "m")
    ],
    ids=lambda value: getattr(value, "name", value),
)
def test_every_section_field_is_parsed_strictly(section, field):
    good, bad = FIELD_VALUES[section][field.name]
    assert field.default is MISSING or good != field.default
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc[section][field.name] = good
    value = getattr(getattr(parse_run_config(doc), section), field.name)
    assert value == good and type(value) is type(good)
    doc[section][field.name] = bad
    with pytest.raises(ValueError, match=rf"config {section}\.{field.name}: expected "):
        parse_run_config(doc)


def write_config(tmp_path, doc, name="config.json"):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


class TestCommandLine:
    def test_simulate_reconstruct_compare_pipeline(self, tmp_path, capsys):
        config = write_config(tmp_path, BASE_CONFIG)
        data = str(tmp_path / "data")
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", config, "--out", data]) == 0
        for name in ("amplitudes.npy", "probe_true.npy", "object.npy", "geometry.json"):
            assert os.path.exists(os.path.join(data, name))
        assert main(["reconstruct", "--config", config, "--dataset", data, "--out", out]) == 0
        rows = read_metrics_csv(os.path.join(out, "convergence.csv"))
        assert [r.iter for r in rows] == list(range(6))
        assert load_array(os.path.join(out, "probe_est.npy")).shape == (8, 8)
        assert load_array(os.path.join(out, "object_est.npy")).shape == (16, 16)
        # a generous threshold is met at iteration 0 by both runs
        csv = os.path.join(out, "convergence.csv")
        assert main(["compare", csv, csv, "--threshold", "1.0"]) == 0
        assert "speedup ratio" in capsys.readouterr().out

    def test_reconstruct_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path, BASE_CONFIG)
        data = str(tmp_path / "data")
        assert main(["simulate", "--config", config, "--out", data]) == 0
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["reconstruct", "--config", config, "--dataset", data, "--out", out]) == 0
            outs.append(out)
        for name in ("probe_est.npy", "object_est.npy"):
            with open(os.path.join(outs[0], name), "rb") as fa:
                with open(os.path.join(outs[1], name), "rb") as fb:
                    assert fa.read() == fb.read()

    def test_seed_override_changes_probe_start(self, tmp_path):
        config = write_config(tmp_path, BASE_CONFIG)
        data = str(tmp_path / "data")
        assert main(["simulate", "--config", config, "--out", data]) == 0
        probes = []
        for seed in ("5", "6"):
            out = str(tmp_path / f"run{seed}")
            code = main(
                ["reconstruct", "--config", config, "--dataset", data, "--out", out,
                 "--seed", seed]
            )
            assert code == 0
            probes.append(load_array(os.path.join(out, "probe_est.npy")))
        assert not np.array_equal(probes[0], probes[1])

    def test_compare_exit_codes(self, tmp_path):
        reaches_10 = str(tmp_path / "a.csv")
        reaches_20 = str(tmp_path / "b.csv")
        reaches_11 = str(tmp_path / "c.csv")
        never = str(tmp_path / "d.csv")
        write_metrics_csv(reaches_10, make_rows([0.5] * 10 + [0.09] * 11))
        write_metrics_csv(reaches_20, make_rows([0.5] * 20 + [0.09]))
        write_metrics_csv(reaches_11, make_rows([0.5] * 11 + [0.09] * 10))
        write_metrics_csv(never, make_rows([0.5] * 21))
        threshold = ["--threshold", "0.1"]
        assert main(["compare", reaches_10, reaches_20] + threshold) == 0
        assert main(["compare", reaches_11, reaches_20] + threshold) == 1
        assert main(["compare", never, reaches_20] + threshold) == 1
        assert main(["compare", reaches_10, never] + threshold) == 0
        assert main(["compare", never, never] + threshold) == 2

    def test_module_entry_point_runs_compare(self, tmp_path, capsys):
        reaches_10 = str(tmp_path / "a.csv")
        reaches_20 = str(tmp_path / "b.csv")
        write_metrics_csv(reaches_10, make_rows([0.5] * 10 + [0.09]))
        write_metrics_csv(reaches_20, make_rows([0.5] * 20 + [0.09]))
        src = str(Path(ptyblind.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        for pair, status in (([reaches_10, reaches_20], 0), ([reaches_20, reaches_10], 1)):
            args = ["compare", *pair, "--threshold", "0.1"]
            assert main(args) == status
            printed = capsys.readouterr().out
            run = subprocess.run(
                [sys.executable, "-m", "ptyblind.cli", *args],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert (run.returncode, run.stdout) == (status, printed)
            assert len(printed.splitlines()) == 3

    def test_dataset_geometry_mismatch_fails(self, tmp_path):
        config = write_config(tmp_path, BASE_CONFIG)
        data = str(tmp_path / "data")
        assert main(["simulate", "--config", config, "--out", data]) == 0
        other = json.loads(json.dumps(BASE_CONFIG))
        other["geometry"]["grid"] = [2, 2]
        config2 = write_config(tmp_path, other, name="other.json")
        out = str(tmp_path / "run")
        assert main(["reconstruct", "--config", config2, "--dataset", data, "--out", out]) == 2

    def test_errors_exit_with_status_2(self, tmp_path, capsys):
        doc = {"geometry": BASE_CONFIG["geometry"]}
        config = write_config(tmp_path, doc)
        out = str(tmp_path / "x")
        assert main(["simulate", "--config", config, "--out", out]) == 2
        assert "error:" in capsys.readouterr().err
        full = write_config(tmp_path, BASE_CONFIG, name="full.json")
        assert main(["simulate", "--config", full]) == 2
        assert "no output directory" in capsys.readouterr().err
