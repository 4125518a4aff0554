import contextlib
import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asianfb
from asianfb import cli
from asianfb._kernels import native
from asianfb.cli import (DEFAULTS, OPTIONS, _write_surface, build_parser, main,
                         parse_config_file, resolve_config)
from asianfb.mesh import DEFAULT_EPS_FINAL

from _oracles import numpy_layers, write_surface_csv


def run_cli(args, tmp_path, extra=()):
    return main([*args, "--out-dir", str(tmp_path), *extra])


def read_json(path):
    return json.loads(path.read_text())


def read_csv(path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def beside_a_half_way_point(k, side):
    """(k + 1/2) 1e-9, half-way between two 9-decimal cells, or one ulp
    below (side -1) or above (side 1) it."""
    mid = (2 * k + 1) * 5e-10
    return mid if side == 0 else float(np.nextafter(mid, side * np.inf))


# The compiled writer formats cells of magnitude below 4.5e6 (under
# 2^52 / 1e9) and hands every other cell back to Python.
FIXED9_LIMIT = 4.5e6
CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, FIXED9_LIMIT,
                     math.nextafter(FIXED9_LIMIT, 0.0), -FIXED9_LIMIT, 2**52 / 1e9]),
    st.builds(beside_a_half_way_point, st.integers(-10**16, 10**16), st.sampled_from([-1, 0, 1])),
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormal scale, -0.000000000 included
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=4e6, max_value=5e6),  # either side of the compiled range's end
    st.floats(min_value=-1e300, max_value=1e300),
)
TAUS = st.lists(st.one_of(
    st.floats(min_value=0.0, max_value=100.0),
    st.builds(lambda T, eps: T - eps, st.floats(min_value=1.0, max_value=100.0),
              st.sampled_from([DEFAULT_EPS_FINAL, 1e-9])),  # the final layer, T - eps_final
), min_size=1, max_size=4)


class TestSolve:
    def test_summary_contains_initial_boundary(self, tmp_path):
        assert run_cli(["solve", "--N", "50"], tmp_path) == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["rho_tau0"] == 1.333333333
        assert summary["grid"]["M"] == 125
        assert summary["config"]["engine"] == "newton"
        assert summary["config"]["scheme_mode"] == "upwind-singular"
        assert summary["kernel_backend"] == asianfb.kernel_backend()
        assert summary["asianfb_version"] == asianfb.__version__

    @pytest.mark.parametrize("engine", ["newton", "pc"])
    def test_summary_reports_the_largest_backward_error(self, tmp_path, params, engine):
        """diagnostics.max_backward_error is the march's largest
        LayerDiagnostics.backward_error, unrounded."""
        assert run_cli(["solve", "--engine", engine, "--N", "50"], tmp_path) == 0
        reported = read_json(tmp_path / "summary.json")["diagnostics"]["max_backward_error"]
        march = asianfb.march_newton if engine == "newton" else asianfb.march_pc
        result = march(params, asianfb.make_grid(params, N=50))
        assert reported == max(d.backward_error for d in result.diagnostics)
        assert 0.0 < reported <= 1e-13

    def test_pc_engine_row_counts(self, tmp_path):
        assert run_cli(["solve", "--engine", "pc", "--N", "100"], tmp_path) == 0
        header, rows = read_csv(tmp_path / "boundary.csv")
        assert header == ["tau", "rho", "xf_t", "t"]
        assert len(rows) == 251  # M = ceil(2.5 * 100) layers plus tau=0
        summary = read_json(tmp_path / "summary.json")
        assert summary["grid"]["N"] == 100
        assert summary["grid"]["M"] == 250

    def test_default_probe_close_to_reference(self, tmp_path):
        assert run_cli(["solve", "--tau-probes", "10,20,40", "--N", "200"], tmp_path) == 0
        summary = read_json(tmp_path / "summary.json")
        assert abs(summary["rho_tau10"] - 1.958037) <= 5e-2
        assert abs(summary["rho_tau20"] - 1.996945) <= 5e-2

    def test_boundary_file_round_trips(self, tmp_path, params):
        assert run_cli(["solve", "--N", "32"], tmp_path) == 0
        header, rows = read_csv(tmp_path / "boundary.csv")
        for row in rows:
            tau, rho, xf, t = map(float, row)
            assert t == pytest.approx(params.T - tau, abs=1e-9)
            assert xf == pytest.approx(1.0 / rho, abs=1e-9)

    def test_boundary_file_matches_in_memory_march(self, tmp_path, params):
        from asianfb import make_grid, march_newton

        assert run_cli(["solve", "--N", "32"], tmp_path) == 0
        _, rows = read_csv(tmp_path / "boundary.csv")
        result = march_newton(params, make_grid(params, N=32))
        assert len(rows) == result.rho.size
        for row, tau, rho in zip(rows, result.taus, result.rho):
            # re-parsing reproduces the in-memory values to printed precision
            assert float(row[0]) == pytest.approx(tau, abs=5e-10)
            assert float(row[1]) == pytest.approx(rho, abs=5e-10)

    def test_surface_file_layout(self, tmp_path):
        assert run_cli(["solve", "--N", "16", "--M", "8"], tmp_path) == 0
        header, rows = read_csv(tmp_path / "surface.csv")
        assert header == ["tau", "xi", "pi"]
        assert len(rows) == 9 * 17  # layer-major: (M+1) blocks of (N+1) nodes
        first_block = [r for r in rows[:17]]
        assert all(r[0] == rows[0][0] for r in first_block)

    @pytest.mark.parametrize("engine", ["newton", "pc"])
    def test_surface_file_matches_csv_writer(self, tmp_path, params, engine):
        from asianfb import make_grid, march_newton, march_pc

        assert run_cli(["solve", "--engine", engine, "--N", "20"], tmp_path) == 0
        g = make_grid(params, N=20)
        result = {"newton": march_newton, "pc": march_pc}[engine](params, g)
        write_surface_csv(tmp_path / "oracle.csv", result.taus, g.xi, result.surface)
        assert (tmp_path / "surface.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @settings(derandomize=True, deadline=None, database=None)
    @given(taus=TAUS, xi=st.lists(CELLS, min_size=1, max_size=8), data=st.data())
    def test_surface_writer_matches_csv_writer_bytes(self, tmp_path_factory, taus, xi, data):
        """In chunks of the default size and of one layer."""
        surface = data.draw(st.lists(st.lists(CELLS, min_size=len(xi), max_size=len(xi)),
                                     min_size=len(taus), max_size=len(taus)))
        out = tmp_path_factory.getbasetemp() / "surface-property"
        out.mkdir(exist_ok=True)
        args = np.array(taus), np.array(xi), np.array(surface)
        write_surface_csv(out / "oracle.csv", *args)
        for chunk_bytes in (cli.CHUNK_BYTES, 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "CHUNK_BYTES", chunk_bytes)
                _write_surface(out / "surface.csv", *args)
            assert (out / "surface.csv").read_bytes() == \
                (out / "oracle.csv").read_bytes(), chunk_bytes

    @pytest.mark.parametrize("value, cell", [(0.0009765625, "0.000976562"),
                                             (0.0029296875, "0.002929688"),
                                             (-0.0009765625, "-0.000976562"),
                                             (-1e-12, "-0.000000000")])
    def test_surface_writer_rounds_ties_to_even(self, tmp_path, value, cell):
        """An exact tie at the 10th decimal rounds to the even 9th, as "%.9f" does."""
        _write_surface(tmp_path / "surface.csv", np.array([1.0]), np.array([0.5]),
                       np.array([[value]]))
        assert (tmp_path / "surface.csv").read_bytes() == \
            f"tau,xi,pi\r\n1.000000000,0.500000000,{cell}\r\n".encode()

    def test_surface_writer_streams_many_chunks(self, tmp_path, rng):
        """A table of several chunks, some of them holding a cell that the
        compiled writer hands back."""
        taus = np.linspace(0.0, 50.0, 41)
        xi = np.linspace(0.0, 3.0, 201)
        surface = rng.uniform(-1.0, 0.0, (taus.size, xi.size))
        surface[17, 5] = np.nan
        surface[30, 200] = -1e7
        assert taus.size * xi.size * 58 > 4 * cli.CHUNK_BYTES
        write_surface_csv(tmp_path / "oracle.csv", taus, xi, surface)
        _write_surface(tmp_path / "surface.csv", taus, xi, surface)
        assert (tmp_path / "surface.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, FIXED9_LIMIT, -1e7])
    @pytest.mark.parametrize("column", ["tau", "xi", "pi"])
    def test_surface_writer_hands_back_a_cell_in_each_column(self, tmp_path, rng, column, bad):
        """A cell that the compiled writer leaves to Python, in the tau, xi or
        pi column of a table of several chunks, at the default chunk size
        and at one layer per chunk."""
        taus = np.linspace(0.0, 50.0, 13)
        xi = np.linspace(0.0, 3.0, 201)
        surface = rng.uniform(-1.0, 0.0, (taus.size, xi.size))
        if column == "tau":
            taus[7] = bad
        elif column == "xi":
            xi[100] = bad
        else:
            surface[7, 100] = bad
        assert taus.size * xi.size * 58 > 2 * cli.CHUNK_BYTES
        write_surface_csv(tmp_path / "oracle.csv", taus, xi, surface)
        for chunk_bytes in (cli.CHUNK_BYTES, 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "CHUNK_BYTES", chunk_bytes)
                _write_surface(tmp_path / "surface.csv", taus, xi, surface)
            assert (tmp_path / "surface.csv").read_bytes() == \
                (tmp_path / "oracle.csv").read_bytes(), chunk_bytes

    def test_surface_writer_rejects_mismatched_shapes(self, tmp_path):
        taus, xi = np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5])
        for surface in (np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((3, 1)), np.zeros(6),
                        np.zeros((4, 2))):
            with pytest.raises(ValueError, match="does not fit"):
                _write_surface(tmp_path / "surface.csv", taus, xi, surface)

    def test_surface_writer_takes_strided_and_non_float64_input(self, tmp_path):
        taus = np.arange(6, dtype=np.float32)[::2]
        xi = np.array([0, 1, 2])
        surface = np.asfortranarray(np.arange(9.0).reshape(3, 3) / 7.0)
        write_surface_csv(tmp_path / "oracle.csv", taus.astype(float), xi.astype(float),
                          np.ascontiguousarray(surface))
        _write_surface(tmp_path / "surface.csv", taus, xi, surface)
        assert (tmp_path / "surface.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_table_writer_matches_csv_writer_bytes(self, tmp_path, rng):
        """boundary.csv's and compare.csv's writer over several chunks, with
        cells the compiled writer hands back."""
        columns = [rng.uniform(-2.0, 2.0, 3000) for _ in range(4)]
        columns[1][[5, 1500, 2999]] = [np.inf, -1e300, np.nan]
        columns[3][::7] = 0.0009765625
        with (tmp_path / "oracle.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "c", "d"])
            for row in zip(*columns):
                writer.writerow([f"{x:.9f}" for x in row])
        cli._write_table(tmp_path / "table.csv", "a,b,c,d", columns)
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_outputs_identical_across_backends(self, tmp_path):
        """Every file of solve at N = 50 has the same bytes, for either
        engine, when the time layers run in the compiled kernel and on their
        numpy twins."""
        for engine in ("newton", "pc"):
            outputs = []
            for layers in (contextlib.nullcontext(), numpy_layers()):
                with layers:
                    assert run_cli(["solve", "--engine", engine, "--N", "50"], tmp_path) == 0
                outputs.append([(tmp_path / name).read_bytes()
                                for name in ("boundary.csv", "surface.csv", "summary.json")])
            assert outputs[0] == outputs[1], engine

    def test_byte_identical_reruns(self, tmp_path):
        args = ["solve", "--N", "50", "--out-dir", str(tmp_path)]
        assert main(args) == 0
        first = {name: (tmp_path / name).read_bytes()
                 for name in ("boundary.csv", "surface.csv", "summary.json")}
        assert main(args) == 0
        for name, payload in first.items():
            assert (tmp_path / name).read_bytes() == payload


class TestRefine:
    def test_table_layout_and_cr_population(self, tmp_path):
        assert run_cli(["refine", "--base-N", "50", "--levels", "3"], tmp_path) == 0
        header, rows = read_csv(tmp_path / "refine.csv")
        assert header[:2] == ["N", "M"]
        assert "rho_tau10" in header and "CR_tau40" in header
        assert [r[0] for r in rows] == ["50", "100", "200"]
        cr_idx = header.index("CR_tau20")
        assert rows[0][cr_idx] == "" and rows[1][cr_idx] == ""
        assert rows[2][cr_idx] != ""

    def test_two_levels_leave_cr_empty(self, tmp_path):
        assert run_cli(["refine", "--base-N", "50", "--levels", "2"], tmp_path) == 0
        header, rows = read_csv(tmp_path / "refine.csv")
        cr_cols = [i for i, name in enumerate(header) if name.startswith("CR_")]
        assert all(row[i] == "" for row in rows for i in cr_cols)

    def test_deterministic_bytes(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for target in (a_dir, b_dir):
            assert main(["refine", "--base-N", "50", "--levels", "2",
                         "--out-dir", str(target)]) == 0
        assert (a_dir / "refine.csv").read_bytes() == (b_dir / "refine.csv").read_bytes()

    def test_parallel_fanout_matches_serial(self, tmp_path):
        serial = tmp_path / "serial"
        fanout = tmp_path / "fanout"
        assert main(["refine", "--base-N", "50", "--levels", "2", "--jobs", "1",
                     "--out-dir", str(serial)]) == 0
        assert main(["refine", "--base-N", "50", "--levels", "2", "--jobs", "2",
                     "--out-dir", str(fanout)]) == 0
        assert (serial / "refine.csv").read_bytes() == (fanout / "refine.csv").read_bytes()

    def test_level_validation(self, tmp_path):
        assert run_cli(["refine", "--levels", "1"], tmp_path) == 2


class TestCompare:
    def test_outputs(self, tmp_path):
        assert run_cli(["compare", "--N", "64"], tmp_path) == 0
        header, rows = read_csv(tmp_path / "compare.csv")
        assert header == ["tau", "rho_newton", "rho_pc", "diff"]
        assert rows[0][3] == "0.000000000"  # shared rho(0)
        payload = read_json(tmp_path / "compare.json")
        assert payload["pc_below_fraction"] > 0.5
        assert payload["lower_engine"] == "pc"
        assert payload["kernel_backend"] == asianfb.kernel_backend()
        assert payload["asianfb_version"] == asianfb.__version__

    def test_compare_csv_identical_across_backends(self, tmp_path):
        """compare.csv and compare.json at N = 50 have the same bytes when the
        time layers run in the compiled kernel and on their numpy twins."""
        outputs = []
        for layers in (contextlib.nullcontext(), numpy_layers()):
            with layers:
                assert run_cli(["compare", "--N", "50"], tmp_path) == 0
            outputs.append([(tmp_path / name).read_bytes()
                            for name in ("compare.csv", "compare.json")])
        assert outputs[0] == outputs[1]

    def test_scheme_mode_flag_distinguishes_runs(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        assert main(["compare", "--N", "64", "--out-dir", str(a_dir)]) == 0
        assert main(["compare", "--N", "64", "--scheme-mode", "central",
                     "--out-dir", str(b_dir)]) == 0
        assert read_json(a_dir / "compare.json")["scheme_mode"] == "upwind-singular"
        assert read_json(b_dir / "compare.json")["scheme_mode"] == "central"


# A valid value other than the default for every option, as a config file spells it.
OPTION_SAMPLES = {
    "r": "0.07", "q": "0.03", "sigma": "0.3", "T": "45", "N": "64", "M": "100",
    "L": "2.5", "eps_final": "1e-6", "engine": "pc", "scheme_mode": "central",
    "tol": "1e-9", "max_iter": "7", "tau_probes": "5,15", "jobs": "3",
    "out_dir": "elsewhere", "base_N": "25", "levels": "3",
    "boundary_csv": "b.csv", "surface_csv": "s.csv", "summary_json": "s.json",
    "refine_csv": "r.csv", "compare_csv": "c.csv", "compare_json": "c.json",
}


class TestConfigResolution:
    @pytest.mark.parametrize("key, kind, default, help_text", OPTIONS,
                             ids=[row[0] for row in OPTIONS])
    def test_option_table(self, tmp_path, monkeypatch, key, kind, default, help_text):
        assert list(OPTION_SAMPLES) == list(DEFAULTS)
        monkeypatch.delenv("ASIANFB_OUT", raising=False)
        value = OPTION_SAMPLES[key]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        from_file = parse_config_file(str(cfg_file))[key]
        assert type(from_file) is kind and from_file == kind(value) != default

        flag = "--" + key.replace("_", "-")
        command = "refine" if key in ("base_N", "levels") else "solve"
        parser = build_parser()
        if help_text is None:  # a config-file key only
            for sub in ("solve", "refine", "compare"):
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args([sub, flag, value])
                assert exc.value.code == 2
            return
        by_flag = resolve_config(parser.parse_args([command, flag, value]))
        by_file = resolve_config(parser.parse_args([command, "--config", str(cfg_file)]))
        assert by_flag == by_file != resolve_config(parser.parse_args([command]))
        if command == "refine":  # refine's keys have no flag on solve or compare
            for sub in ("solve", "compare"):
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args([sub, flag, value])
                assert exc.value.code == 2

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# reference configuration\n"
            "N = 64\n"
            "engine = pc   # flat key = value\n"
            "sigma = 0.25\n"
        )
        assert main(["solve", "--config", str(cfg), "--N", "32",
                     "--out-dir", str(tmp_path)]) == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["config"]["N"] == 32          # flag wins
        assert summary["config"]["engine"] == "pc"   # file applies
        assert summary["params"]["sigma"] == 0.25

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("strike = 100\n")
        assert main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("N 64\n")
        assert main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_environment_overrides_out_dir(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("ASIANFB_OUT", str(env_dir))
        assert main(["solve", "--N", "16", "--M", "8",
                     "--out-dir", str(tmp_path / "ignored")]) == 0
        assert (env_dir / "summary.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_degenerate_domain_needs_explicit_length(self, tmp_path):
        # r = q makes the default truncation length collapse
        assert run_cli(["solve", "--r", "0.05", "--q", "0.05", "--N", "16"],
                       tmp_path) == 2
        assert run_cli(["solve", "--r", "0.05", "--q", "0.05", "--N", "16",
                        "--L", "1.5", "--M", "40"], tmp_path) == 0

    def test_invalid_market_params(self, tmp_path, capsys):
        assert run_cli(["solve", "--sigma", "-0.1"], tmp_path) == 2
        # non-finite inputs are configuration errors too, not crashes in the march
        for command, name in (("solve", "sigma"), ("solve", "r"), ("solve", "L"),
                              ("solve", "T"), ("compare", "sigma"),
                              ("solve", "tol"), ("compare", "tol")):
            capsys.readouterr()
            assert run_cli([command, "--N", "16", f"--{name}", "inf"], tmp_path) == 2
            assert f"config error: {name} must be finite" in capsys.readouterr().err

    def test_eps_final_below_the_precision_of_T(self, tmp_path, capsys):
        # T - eps_final rounds to T = 50: a config error, not a crash in the march
        assert run_cli(["solve", "--N", "16", "--eps-final", "1e-15"], tmp_path) == 2
        assert "config error: eps_final" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        code = run_cli(["solve", "--N", "16", "--tol", "1e-14", "--max-iter", "1"],
                       tmp_path)
        assert code == 3
        assert "layer 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "compare", "refine"])
    def test_missing_compiler_exit_code(self, tmp_path, monkeypatch, capsys, command):
        # no kernel in the cache and no compiler to build one: one line, no traceback
        monkeypatch.setattr(native, "CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(native, "_kernel", None)
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        extra = ["--levels", "2", "--jobs", "1"] if command == "refine" else []
        assert run_cli([command, "--N", "16", *extra], tmp_path / "out") == 4
        err = capsys.readouterr().err
        assert err == ("kernel unavailable: no C compiler: asianfb builds its kernel "
                       "thomas.c with 'cc', which is not on PATH (kernel cache directory "
                       f"{tmp_path / 'cache'})\n")


class TestEntryPoint:
    def test_import_loads_no_process_pool(self):
        """A fresh interpreter that imports the CLI has loaded neither
        multiprocessing nor concurrent.futures: refine's levels and
        compare's engines run on plain threads."""
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, asianfb.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "[]"

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "asianfb.cli", "solve", "--N", "16", "--M", "8",
             "--out-dir", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "wall_time" in proc.stdout
        assert (tmp_path / "summary.json").exists()
