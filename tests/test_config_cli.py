import json
import re
from pathlib import Path

import numpy as np
import pytest

from nf_aliaser import ConfigError, WaveParams, load_config, resolve_config, run, sweep
from nf_aliaser import runner
from nf_aliaser.chirp import AliasingMask, MaskLayer
from nf_aliaser.cli import _build_parser, main
from nf_aliaser.config import SCHEMA, Thresholds
from nf_aliaser.imaging import ComplexField, default_threads
from nf_aliaser.presets import PRESETS, preset_config
from nf_aliaser.runner import _sweep_variant
from nf_aliaser.wavefield import exclusion_radius


def small_config(**overrides):
    cfg = {
        "wave": {"lambda": 1.0},
        "tx": {"origin": [20.0, 0.0], "axes": [[1.0, 0.0]], "counts": [8],
               "spacings_lambda": [0.5]},
        "rx": {"origin": [0.0, 20.0], "axes": [[0.0, 1.0]], "counts": [8],
               "spacings_lambda": [0.5]},
        "scene": {"scatterer": [40.0, 40.0]},
        "grid": {"min": [30.0, 30.0], "max": [50.0, 50.0], "resolution": [16, 16]},
        "outputs": ["image", "partial_tx", "partial_rx", "mask"],
    }
    cfg.update(overrides)
    return cfg


class TestLoadConfig:
    def test_parses_json_text(self):
        config = load_config(json.dumps(small_config()))
        assert config.tx.num_elements == 8
        assert config.scene.reflectivity == 1.0 + 0.0j
        assert config.grid.resolution == (16, 16)

    def test_parses_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config()))
        config = load_config(path)
        assert config.rx.role_tag == "receive"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/no/such/config.json")

    def test_parse_error_reports_position(self):
        with pytest.raises(ConfigError, match=r"line 1, column \d+"):
            load_config('{"wave": {"la: 1}}')

    def test_empty_outputs_rejected(self):
        with pytest.raises(ConfigError, match="outputs"):
            resolve_config(small_config(outputs=[]))

    def test_unknown_output_rejected(self):
        with pytest.raises(ConfigError, match="unknown product"):
            resolve_config(small_config(outputs=["picture"]))

    def test_validation_names_field(self):
        bad = small_config()
        del bad["tx"]["counts"]
        with pytest.raises(ConfigError, match=r"tx\.counts"):
            resolve_config(bad)
        bad = small_config()
        bad["grid"]["resolution"] = [1, 16]
        with pytest.raises(ConfigError, match="grid"):
            resolve_config(bad)

    def test_defaults_recorded(self):
        config = resolve_config(small_config())
        thr = config.resolved["thresholds"]
        assert thr == {"epsilon_lambda": 0.1, "floor_db": -40.0, "support_db": -20.0,
                       "oracle_ratio": 0.5, "oversample": 8}
        assert config.resolved["scene"]["reflectivity_re"] == 1.0

    def test_unknown_threshold_rejected(self):
        with pytest.raises(ConfigError, match="thresholds"):
            resolve_config(small_config(thresholds={"epsilon": 0.1}))

    @pytest.mark.parametrize("section, key", [
        ("wave", "lamda"), ("tx", "bogus"), ("rx", "bogus"), ("scene", "bogus"),
        ("grid", "bogus"), ("thresholds", "epsilon"), ("sweep", "bogus"), (None, "extra"),
    ])
    def test_unknown_key_rejected(self, section, key):
        cfg = small_config(thresholds={}, sweep={"param": "spacing", "values": [4]})
        (cfg if section is None else cfg[section])[key] = 1
        name = key if section is None else f"{section}.{key}"
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)}: unknown key"):
            resolve_config(cfg)

    def test_null_counts_as_absent(self):
        config = resolve_config(small_config(thresholds=None, sweep=None))
        assert config.resolved == resolve_config(small_config()).resolved
        bad = small_config()
        bad["tx"] = None
        with pytest.raises(ConfigError, match="tx: missing required field"):
            resolve_config(bad)

    def test_sweep_output_requires_section(self):
        with pytest.raises(ConfigError, match="sweep"):
            resolve_config(small_config(outputs=["sweep"]))

    @pytest.mark.parametrize("section, key, value", [
        ("tx", "counts", [64.7]),
        ("tx", "counts", [True]),
        ("rx", "counts", ["8"]),
        ("grid", "resolution", [16.5, 16]),
        ("grid", "resolution", [16, False]),
        ("thresholds", "oversample", 2.9),
        ("thresholds", "oversample", True),
    ])
    def test_fractional_and_boolean_counts_rejected(self, section, key, value):
        cfg = small_config(thresholds={})
        cfg[section][key] = value
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: expected an integer"):
            resolve_config(cfg)

    @pytest.mark.parametrize("section, key, value", [
        ("wave", "lambda", True),
        ("wave", "lambda", "1.5"),
        ("scene", "scatterer", [True, 40.0]),
        ("scene", "scatterer", "40"),
        ("scene", "reflectivity_im", False),
        ("grid", "min", ["30", 30.0]),
        ("tx", "spacings_lambda", [True]),
        ("rx", "axes", [[0.0, "1"]]),
        ("thresholds", "epsilon_lambda", "0.1"),
    ])
    def test_boolean_and_string_numbers_rejected(self, section, key, value):
        cfg = small_config(thresholds={})
        cfg[section][key] = value
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: expected "):
            resolve_config(cfg)

    def test_whole_float_counts_accepted(self):
        cfg = small_config(thresholds={"oversample": 4.0})
        cfg["tx"]["counts"] = [8.0]
        config = resolve_config(cfg)
        assert config.tx.counts == (8,)
        assert config.thresholds.oversample == 4

    def test_non_finite_origin_rejected(self):
        cfg = json.dumps(small_config()).replace('"origin": [20.0, 0.0]',
                                                 '"origin": [NaN, 0.0]')
        with pytest.raises(ConfigError, match=r"tx: origin must be finite"):
            load_config(cfg)

    @pytest.mark.parametrize("key", ["epsilon_lambda", "floor_db", "support_db",
                                     "oracle_ratio"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_rejected(self, key, value):
        text = json.dumps(small_config(thresholds={key: value}))
        with pytest.raises(ConfigError, match=rf"^thresholds\.{key}: must be finite"):
            load_config(text)

    @pytest.mark.parametrize("key, value", [
        ("epsilon_lambda", 0), ("epsilon_lambda", -0.1), ("floor_db", 0), ("floor_db", 5),
        ("support_db", 0), ("oracle_ratio", 0), ("oversample", 0),
    ])
    def test_threshold_out_of_bounds_rejected(self, key, value):
        with pytest.raises(ConfigError, match=rf"^thresholds\.{key}: must be "):
            resolve_config(small_config(thresholds={key: value}))

    @pytest.mark.parametrize("scatterer", [[40.0, 40.0, 0.0], [40.0]])
    def test_scatterer_dimension_mismatch_rejected(self, scatterer):
        cfg = small_config(scene={"scatterer": scatterer})
        with pytest.raises(ConfigError, match=r"^scene\.scatterer, tx, rx and grid must share"):
            resolve_config(cfg)

    @pytest.mark.parametrize("key", ["reflectivity_re", "reflectivity_im"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_reflectivity_rejected(self, key, value):
        cfg = small_config()
        cfg["scene"][key] = value
        with pytest.raises(ConfigError, match=r"^scene: reflectivity must be finite"):
            load_config(json.dumps(cfg))

    def test_threshold_default_is_exclusion_radius(self):
        wave = WaveParams(2.5)
        assert Thresholds().epsilon(wave) == exclusion_radius(wave)

    def test_readme_table_lists_every_schema_row(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listed = set()
        for line in readme.splitlines():
            cells = [cell.strip() for cell in line.strip("| ").split("|")]
            if line.startswith("|") and len(cells) == 4:
                sections = [""] if cells[0] == "top level" else re.findall(r"`([^`]+)`", cells[0])
                listed |= {(sec, key) for sec in sections
                           for key in re.findall(r"`([^`]+)`", cells[1])}
        assert {(sec, key) for sec, key, _, _ in SCHEMA} - listed == set()

    def test_wavelength_scales_lengths(self):
        cfg = small_config()
        cfg["wave"]["lambda"] = 2.0
        config = resolve_config(cfg)
        assert config.tx.spacings[0] == pytest.approx(1.0)
        assert config.scene.scatterer[0] == pytest.approx(80.0)
        # resolved echo stays in wavelength units
        assert config.resolved["tx"]["spacings_lambda"][0] == pytest.approx(0.5)


class TestPresets:
    def test_all_presets_resolve(self):
        for name in PRESETS:
            config = resolve_config(preset_config(name))
            assert config.grid.ndim == 2

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("fig9")

    def test_fig1_layout(self):
        config = resolve_config(preset_config("fig1"))
        assert config.tx.counts == (64,)
        assert config.tx.spacings[0] == pytest.approx(500.0 / 64)
        np.testing.assert_allclose(config.tx.center, [500.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(config.rx.center, [0.0, 500.0], atol=1e-9)
        np.testing.assert_allclose(config.scene.scatterer, [1000.0, 1000.0])
        assert config.outputs == ("partial_tx", "partial_rx", "image", "mask")
        # the scatterer sits exactly at a cell center
        idx = config.grid.cell_index(config.scene.scatterer)
        centers = [config.grid.axis_centers(j)[i] for j, i in enumerate(idx)]
        np.testing.assert_allclose(centers, [1000.0, 1000.0], atol=1e-9)

    def test_resolved_echoes_given_lengths(self):
        # lengths are echoed in wavelengths exactly as given
        cfg = preset_config("fig1")
        cfg["wave"]["lambda"] = 0.7
        resolved = resolve_config(cfg).resolved
        assert resolved["scene"]["scatterer"] == [1000.0, 1000.0]
        assert resolved["grid"]["max"] == [1850.0, 1850.0]
        assert resolved["tx"]["spacings_lambda"] == [7.8125]

    def test_fig2_presets_sweep(self):
        a = resolve_config(preset_config("fig2a"))
        assert a.sweep_param == "spacing" and a.sweep_values == (16, 64)
        b = resolve_config(preset_config("fig2b"))
        assert b.sweep_param == "length"
        c = resolve_config(preset_config("fig2c"))
        assert c.sweep_param == "dimensionality" and c.sweep_values == (1, 2)


class TestRun:
    def test_products_and_manifest(self, tmp_path):
        config = resolve_config(small_config())
        manifest = run(config, tmp_path / "out")
        names = {p["name"] for p in manifest["products"]}
        assert {"image.csv", "image.pgm", "partial_tx.csv", "partial_rx.csv",
                "mask.csv", "mask.pgm"} <= names
        assert (tmp_path / "out" / "manifest.json").exists()
        for p in manifest["products"]:
            assert (tmp_path / "out" / p["file"]).exists()
        assert manifest["config"]["thresholds"]["oversample"] == 8

    def test_mask_only_half_wavelength_all_ones(self, tmp_path):
        config = resolve_config(small_config(outputs=["mask"]))
        run(config, tmp_path / "out")
        rows = [line for line in (tmp_path / "out" / "mask.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert rows == ["1"] * config.grid.num_cells

    def test_rerun_byte_identical(self, tmp_path):
        config = resolve_config(small_config())
        run(config, tmp_path / "a")
        run(config, tmp_path / "b")
        for name in ["manifest.json", "image.csv", "image.pgm", "mask.csv"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_spectrum_product(self, tmp_path):
        config = resolve_config(small_config(outputs=["spectrum"]))
        manifest = run(config, tmp_path / "out")
        names = {p["name"] for p in manifest["products"]}
        assert {"spectrum_tx_ax0.csv", "spectrum_rx_ax0.csv"} <= names
        text = (tmp_path / "out" / "spectrum_tx_ax0.csv").read_text()
        assert "# columns: wavenumber,magnitude_db" in text

    def test_csv_float_format(self, tmp_path):
        config = resolve_config(small_config(outputs=["partial_tx"]))
        run(config, tmp_path / "out")
        rows = [line for line in
                (tmp_path / "out" / "partial_tx.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert len(rows) == config.grid.num_cells
        re_str, im_str = rows[0].split(",")
        # 17 significant digits round-trip exactly
        assert float(re_str) == complex(float(re_str), 0).real


class TestSweep:
    def test_spacing(self):
        config = resolve_config(small_config(outputs=["mask"]))
        rows = sweep(config, "spacing", [4, 8])
        assert [r["value"] for r in rows] == ["N4", "N8"]
        assert all(r["mask_cells"] >= 0 for r in rows)

    def test_length_with_counts(self):
        config = resolve_config(small_config(outputs=["mask"]))
        rows = sweep(config, "length", [{"length_lambda": 4.0, "count": 8},
                                        {"length_lambda": 8.0, "count": 16}])
        assert [r["value"] for r in rows] == ["L4_N8", "L8_N16"]

    def test_range(self):
        config = resolve_config(small_config(outputs=["mask"]))
        rows = sweep(config, "range", [[40.0, 40.0], [44.0, 36.0]])
        assert rows[0]["value"] == "pos40_40"

    def test_dimensionality(self):
        config = resolve_config(small_config(outputs=["mask"]))
        rows = sweep(config, "dimensionality", [1, 2])
        assert [r["value"] for r in rows] == ["1d", "2d"]
        assert rows[1]["mask_cells"] <= rows[0]["mask_cells"]

    @pytest.mark.parametrize("toward", [np.inf, -np.inf])
    def test_peak_tie_between_mirror_cells_reports_first_cell(self, toward):
        # Mirror cells (2, 9) and (9, 2) one ulp apart, in either direction.
        config = resolve_config(small_config())
        values = np.ones(config.grid.resolution, dtype=complex)
        values[2, 9], values[9, 2] = 10.0, np.nextafter(10.0, toward)
        none = np.zeros(config.grid.resolution, dtype=bool)
        image = ComplexField(grid=config.grid, values=values, excluded=none)
        free = np.abs(values) > 5.0
        mask = AliasingMask(grid=config.grid, layers=(MaskLayer("tx", 0, free),), excluded=none)
        row = runner._peak_summary(config, {"image": image, "mask": mask})
        assert row["peak_cell"] == (2, 9)
        assert row["peak_position_lambda"] == (33.125, 41.875)
        assert row["peak_to_artifact_db"] == pytest.approx(20.0)

    def test_sweep_needs_param_and_values(self):
        config = resolve_config(small_config(outputs=["mask"]))
        with pytest.raises(ConfigError, match="sweep.param"):
            sweep(config)
        with pytest.raises(ConfigError, match="sweep values"):
            sweep(config, "spacing")

    def test_invalid_values(self):
        config = resolve_config(small_config(outputs=["mask"]))
        with pytest.raises(ConfigError):
            sweep(config, "spacing", [1])
        with pytest.raises(ConfigError):
            sweep(config, "range", [[1.0]])
        with pytest.raises(ConfigError):
            sweep(config, "dimensionality", [3])
        with pytest.raises(ConfigError):
            sweep(config, "bandwidth", [1])

    @pytest.mark.parametrize("param, value", [
        ("spacing", 4.5),
        ("spacing", True),
        ("length", {"length_lambda": 4.0, "count": 8.5}),
        ("dimensionality", True),
        ("dimensionality", 1.5),
    ])
    def test_fractional_and_boolean_values_rejected(self, param, value):
        config = resolve_config(small_config(outputs=["mask"]))
        with pytest.raises(ConfigError, match="expected an integer"):
            sweep(config, param, [value])

    def test_whole_float_values_accepted(self):
        config = resolve_config(small_config(outputs=["mask"]))
        assert sweep(config, "spacing", [4.0])[0]["value"] == "N4"
        assert sweep(config, "dimensionality", [2.0])[0]["value"] == "2d"

    @pytest.mark.parametrize("param, value, count, spacing", [
        ("spacing", 4, 4, 1.0),
        ("length", 3.0, 6, 0.5),
        ("length", {"length_lambda": 3.0, "count": 4}, 4, 0.75),
    ])
    def test_single_element_axis_left_alone(self, param, value, count, spacing):
        cfg = small_config(outputs=["mask"])
        cfg["tx"].update(axes=[[1.0, 0.0], [0.0, 1.0]], counts=[8, 1],
                         spacings_lambda=[0.5, 0.25])
        config = resolve_config(cfg)
        tx = _sweep_variant(config, param, value)[0]
        assert tx.counts == (count, 1)
        assert tx.spacings[0] == pytest.approx(spacing)
        assert tx.spacings[1] == 0.25
        np.testing.assert_allclose(tx.center, config.tx.center, atol=1e-12)

    def test_dimensionality_keeps_existing_axes(self):
        cfg = small_config(outputs=["mask"])
        cfg["tx"].update(axes=[[1.0, 0.0], [0.0, 1.0]], counts=[64, 8],
                         spacings_lambda=[2.0, 3.0])
        config = resolve_config(cfg)
        tx = _sweep_variant(config, "dimensionality", 2)[0]
        assert tx.counts == (64, 8)
        np.testing.assert_array_equal(tx.spacings, [2.0, 3.0])
        np.testing.assert_array_equal(tx.axes, config.tx.axes)
        np.testing.assert_array_equal(tx.origin, config.tx.origin)
        tx = _sweep_variant(config, "dimensionality", 1)[0]
        assert tx.counts == (64,)
        np.testing.assert_array_equal(tx.spacings, [2.0])
        np.testing.assert_array_equal(tx.axes, [[1.0, 0.0]])
        np.testing.assert_allclose(tx.center, config.tx.center, atol=1e-12)
        # The linear rx gains an axis that copies its axis 0.
        rx = _sweep_variant(config, "dimensionality", 2)[1]
        assert rx.counts == (8, 8)
        np.testing.assert_array_equal(rx.spacings, [0.5, 0.5])

    def test_dimensionality_adds_only_missing_axes_in_3d(self):
        cfg = small_config(outputs=["mask"])
        cfg["tx"] = {"origin": [20.0, 0.0, 0.0], "axes": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                     "counts": [64, 8], "spacings_lambda": [2.0, 3.0]}
        cfg["rx"] = {"origin": [0.0, 20.0, 0.0], "axes": [[0.0, 1.0, 0.0]], "counts": [8],
                     "spacings_lambda": [0.5]}
        cfg["scene"] = {"scatterer": [40.0, 40.0, 10.0]}
        cfg["grid"] = {"min": [30.0, 30.0, 0.0], "max": [50.0, 50.0, 20.0],
                       "resolution": [4, 4, 4]}
        config = resolve_config(cfg)
        tx = _sweep_variant(config, "dimensionality", 3)[0]
        assert tx.counts == (64, 8, 64)
        np.testing.assert_array_equal(tx.spacings, [2.0, 3.0, 2.0])
        np.testing.assert_array_equal(tx.axes[:2], config.tx.axes)
        np.testing.assert_allclose(np.abs(tx.axes[2]), [0.0, 0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(tx.center, config.tx.center, atol=1e-12)

    def test_sweep_mask_matches_run_mask(self, tmp_path):
        cfg = small_config(outputs=["mask"])
        cfg["tx"]["spacings_lambda"] = cfg["rx"]["spacings_lambda"] = [5.0]
        config = resolve_config(cfg)
        run(config, tmp_path / "run")
        sweep(config, "range", [[40.0, 40.0]], out_dir=tmp_path / "sw")
        for ext in ("csv", "pgm"):
            run_mask = (tmp_path / "run" / f"mask.{ext}").read_bytes()
            sweep_mask = (tmp_path / "sw" / f"mask_pos40_40.{ext}").read_bytes()
            assert sweep_mask == run_mask.replace(b"nf-aliaser mask\n",
                                                  b"nf-aliaser mask_pos40_40\n", 1)
        rows = (tmp_path / "run" / "mask.csv").read_text().splitlines()
        assert {"0", "1"} <= set(rows)

    def test_distinct_values_get_distinct_labels(self, tmp_path):
        config = resolve_config(small_config(outputs=["mask"]))
        rows = sweep(config, "range", [[40.0000001, 40], [40.0000004, 40]],
                     out_dir=tmp_path / "sw")
        assert [r["value"] for r in rows] == ["pos40.0000001_40", "pos40.0000004_40"]
        for row in rows:
            assert (tmp_path / "sw" / f"mask_{row['value']}.csv").exists()
        labels = [_sweep_variant(config, "length", v)[3] for v in (4.0000001, 4.0000004, 4.5)]
        assert labels == ["L4.0000001", "L4.0000004", "L4.5"]

    @pytest.mark.parametrize("name, labels", [
        ("fig2a", ["N16", "N64"]), ("fig2b", ["L250_N32", "L1000_N128"]), ("fig2c", ["1d", "2d"]),
    ])
    def test_preset_labels(self, name, labels):
        config = resolve_config(preset_config(name))
        assert [_sweep_variant(config, config.sweep_param, v)[3]
                for v in config.sweep_values] == labels

    @pytest.mark.parametrize("param, values", [
        ("spacing", [4, 4]),
        ("spacing", [4, 8, 4.0]),
        ("length", [4, 4.0]),
        ("length", [{"length_lambda": 4, "count": 8}, {"length_lambda": 4.0, "count": 8}]),
        ("range", [[40, 40], [40.0, 40.0]]),
        ("dimensionality", [1, 1.0]),
    ])
    def test_equal_values_refused(self, tmp_path, capsys, param, values):
        cfg = small_config(outputs=["mask", "sweep"], sweep={"param": param, "values": values})
        with pytest.raises(ConfigError, match=r"^sweep\.values: .* repeats an earlier value"):
            load_config(json.dumps(cfg))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config(outputs=["mask"])))
        out = tmp_path / "sw"
        assert main(["sweep", str(path), "--param", param, "--values", json.dumps(values),
                     "--out", str(out)]) == 2
        assert "configuration error: sweep.values" in capsys.readouterr().err
        assert list(out.glob("*")) == []

    def test_writes_summary(self, tmp_path):
        config = resolve_config(small_config(outputs=["mask"]))
        sweep(config, "spacing", [4, 8], out_dir=tmp_path / "sw")
        summary = (tmp_path / "sw" / "sweep_summary.csv").read_text()
        assert "N4," in summary and "N8," in summary
        assert (tmp_path / "sw" / "mask_N4.csv").exists()


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config(outputs=["mask"])))
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "mask.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_run_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"wave": ')
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_non_finite_threshold_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config(outputs=["spectrum"],
                                                thresholds={"support_db": np.nan})))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "thresholds.support_db: must be finite" in capsys.readouterr().err

    def test_scatterer_dimension_mismatch_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config(scene={"scatterer": [40.0, 40.0, 0.0]})))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "scene.scatterer 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "preset", "sweep"])
    def test_threads_default_is_available_cpus(self, command):
        argv = {"run": ["run", "cfg.json"], "preset": ["preset", "fig1"],
                "sweep": ["sweep", "cfg.json", "--param", "spacing", "--values", "[4]"]}
        assert _build_parser().parse_args(argv[command]).threads == default_threads()

    def test_library_threads_default(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(runner, "default_threads", lambda: 3)
        monkeypatch.setattr(runner, "_compute", lambda *args: seen.append(args[-1]) or {})
        monkeypatch.setattr(runner, "_sweep_products",
                            lambda *args: seen.append(args[-1]) or ([], {}))
        config = resolve_config(small_config(outputs=["mask"]))
        run(config, tmp_path / "run")
        sweep(config, "spacing", [4])
        assert seen == [3, 3]

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.json")]) == 2

    def test_sweep_command(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config(outputs=["mask"])))
        code = main(["sweep", str(path), "--param", "spacing", "--values", "[4, 8]",
                     "--out", str(tmp_path / "sw")])
        assert code == 0
        out = capsys.readouterr().out
        assert "N4:" in out and "N8:" in out

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    @pytest.mark.parametrize("command", ["run", "preset", "sweep"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, command, threads):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config(outputs=["mask"])))
        out = tmp_path / "out"
        argv = {"run": ["run", str(path)],
                "preset": ["preset", "fig1"],
                "sweep": ["sweep", str(path), "--param", "spacing", "--values", "[4]"]}[command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out), "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_bad_values_json(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config(outputs=["mask"])))
        assert main(["sweep", str(path), "--param", "spacing", "--values", "[4,"]) == 2

    @pytest.mark.parametrize("param, values, named", [
        ("range", '[["a", 1]]', "['a', 1]"),
        ("range", "[[NaN, 1]]", "[nan, 1]"),
        ("length", '["abc"]', "'abc'"),
        ("length", "[NaN]", "got nan"),
        ("length", "[1e400]", "got inf"),
        ("length", "[0]", "got 0"),
        ("length", "[-5]", "got -5"),
        ("length", '[{"length_lambda": NaN, "count": 4}]', "got nan"),
        ("length", '[{"length_lambda": 4, "count": 0}]', "got 0"),
        ("length", '[{"length_lambda": 4, "count": 8, "bogus": 1}]',
         "sweep.values.bogus: unknown key"),
        ("length", '[{"length_lambda": 4}]', "sweep.values.count: missing required field"),
        ("spacing", "[]", "sweep values: must be a non-empty list"),
        ("spacing", "4", "sweep values: must be a non-empty list"),
    ])
    def test_sweep_malformed_value_exit_code(self, tmp_path, capsys, param, values, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config(outputs=["mask"])))
        assert main(["sweep", str(path), "--param", param, "--values", values,
                     "--out", str(tmp_path / "sw")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err

    @pytest.mark.parametrize("param, values", [
        ("spacing", [4, 1]), ("length", [4.0, -5]), ("range", [[1.0]]), ("dimensionality", [5]),
    ])
    def test_malformed_sweep_value_rejected_at_load(self, tmp_path, capsys, param, values):
        cfg = json.dumps(small_config(outputs=["mask", "sweep"],
                                      sweep={"param": param, "values": values}))
        with pytest.raises(ConfigError, match=r"^sweep\.values: "):
            load_config(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(cfg)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "configuration error: sweep" in capsys.readouterr().err
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("param, values", [("range", '[["a", 1]]'), ("length", "[NaN]")])
    def test_run_sweep_malformed_value_exit_code(self, tmp_path, capsys, param, values):
        path = tmp_path / "cfg.json"
        cfg = json.dumps(small_config(outputs=["sweep"], sweep={"param": param, "values": []}))
        path.write_text(cfg.replace('"values": []', f'"values": {values}'))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "configuration error: sweep" in capsys.readouterr().err
