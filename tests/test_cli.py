import contextlib
import csv
import dataclasses
import json
import math
import re
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asianfb
from asianfb import analysis, cli
from asianfb._kernels import native
from asianfb.cli import (DEFAULTS, OPTIONS, build_parser, main, parse_config_file,
                         resolve_config)
from asianfb.mesh import DEFAULT_EPS_FINAL

from _oracles import numpy_layers, write_surface_csv

ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, tmp_path, extra=()):
    return main([*args, "--out-dir", str(tmp_path), *extra])


def write_surface(path, taus, xi, surface):
    """surface.csv of a surface whose every layer is final, by solve's writer."""
    with path.open("wb") as fh:
        native.write_surface(fh, taus, xi, surface)


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


CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 4.5e6,
                     math.nextafter(4.5e6, 0.0), -4.5e6, 2**52 / 1e9, 1e18,
                     math.nextafter(1e18, 0.0), math.nextafter(1e18, math.inf),
                     sys.float_info.max, -sys.float_info.max]),
    st.builds(beside_a_half_way_point, st.integers(-10**16, 10**16), st.sampled_from([-1, 0, 1])),
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormal scale, -0.000000000 included
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=4e6, max_value=5e6),
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
        backward_error, unrounded, and every other key of the summary's
        iterations and diagnostics blocks is its reduction of the march's
        per-layer record, taken here layer by layer."""
        assert run_cli(["solve", "--engine", engine, "--N", "50"], tmp_path) == 0
        summary = read_json(tmp_path / "summary.json")
        march = asianfb.march_newton if engine == "newton" else asianfb.march_pc
        layers = list(enumerate(march(params, asianfb.make_grid(params, N=50)).diagnostics,
                                start=1))
        iterations = [int(d.iterations) for _, d in layers]
        assert summary["iterations"] == {"max": max(iterations), "total": sum(iterations),
                                         "mean": round(sum(iterations) / len(layers), 9)}
        assert summary["diagnostics"] == {
            "max_residual_f1": round(float(max(d.residual_f1 for _, d in layers)), 9),
            "max_residual_f2": round(float(max(d.residual_f2 for _, d in layers)), 9),
            "max_backward_error": float(max(d.backward_error for _, d in layers)),
            "dominance_violations": sum(int(d.dominance_violations) for _, d in layers),
            "onesided_rows_max": max(int(d.onesided_rows) for _, d in layers),
            "predictor_fallback_layers": [j for j, d in layers if d.predictor_fallback]}
        assert 0.0 < summary["diagnostics"]["max_backward_error"] <= 1e-13
        assert (engine == "pc") == bool(summary["diagnostics"]["predictor_fallback_layers"])

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

    @pytest.mark.parametrize("engine", ["newton", "pc"])
    def test_wide_cells_match_csv_writer(self, tmp_path, params, engine):
        """At T = 9e6 the tau and T - tau cells reach 8999999.999999899,
        wider than any cell at the defaults: boundary.csv and surface.csv
        keep csv.writer's bytes of the in-memory march."""
        from asianfb import make_grid, march_newton, march_pc

        assert run_cli(["solve", "--engine", engine, "--T", "9000000", "--N", "16"],
                       tmp_path) == 0
        p = dataclasses.replace(params, T=9e6)
        g = make_grid(p, N=16)
        result = {"newton": march_newton, "pc": march_pc}[engine](p, g)
        with (tmp_path / "boundary-oracle.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tau", "rho", "xf_t", "t"])
            for tau, rho in zip(result.taus.tolist(), result.rho.tolist()):
                writer.writerow([f"{x:.9f}" for x in (tau, rho, 1.0 / rho, p.T - tau)])
        write_surface_csv(tmp_path / "surface-oracle.csv", result.taus, g.xi, result.surface)
        boundary = (tmp_path / "boundary.csv").read_bytes()
        assert b"8999999.999999899," in boundary
        assert boundary == (tmp_path / "boundary-oracle.csv").read_bytes()
        assert (tmp_path / "surface.csv").read_bytes() == \
            (tmp_path / "surface-oracle.csv").read_bytes()

    def test_concurrent_solves_stream_their_own_surfaces(self, tmp_path, monkeypatch, params):
        """Four solves at once on threads of their own, each streaming its
        surface.csv from its own worker while its march publishes its
        layers, with a short switch interval: every file has the bytes of
        csv.writer's from its own march."""
        from asianfb import make_grid, march_newton, march_pc

        engines = ("newton", "pc", "newton", "pc")
        codes = {}

        def solve(k):
            codes[k] = run_cli(["solve", "--engine", engines[k], "--N", "20"],
                               tmp_path / str(k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            solves = [threading.Thread(target=solve, args=(k,)) for k in range(len(engines))]
            for thread in solves:
                thread.start()
            for thread in solves:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in solves)
        assert codes == {k: 0 for k in range(len(engines))}
        g = make_grid(params, N=20)
        for engine, march in (("newton", march_newton), ("pc", march_pc)):
            result = march(params, g)
            write_surface_csv(tmp_path / f"{engine}.csv", result.taus, g.xi, result.surface)
        for k, engine in enumerate(engines):
            assert (tmp_path / str(k) / "surface.csv").read_bytes() == \
                (tmp_path / f"{engine}.csv").read_bytes(), k

    def test_concurrent_solves_share_an_output_directory(self, tmp_path, monkeypatch, params):
        """Four solves at once on threads of one process, all writing to one
        output directory and all renaming their surface.csv at the same
        time: each streams to a temporary file of its own, every solve
        succeeds, and the directory ends with csv.writer's surface.csv and
        no temporary file."""
        from asianfb import make_grid, march_newton

        finish, together = cli._SurfaceStream.finish, threading.Barrier(4, timeout=60)

        def finish_together(stream):
            together.wait()
            finish(stream)

        monkeypatch.setattr(cli._SurfaceStream, "finish", finish_together)
        codes = {}

        def solve(k):
            codes[k] = run_cli(["solve", "--N", "20"], tmp_path / "out")

        solves = [threading.Thread(target=solve, args=(k,)) for k in range(4)]
        for thread in solves:
            thread.start()
        for thread in solves:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in solves)
        assert codes == {k: 0 for k in range(4)}
        g = make_grid(params, N=20)
        result = march_newton(params, g)
        write_surface_csv(tmp_path / "oracle.csv", result.taus, g.xi, result.surface)
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == \
            ["boundary.csv", "summary.json", "surface.csv"]
        assert (tmp_path / "out" / "surface.csv").read_bytes() == \
            (tmp_path / "oracle.csv").read_bytes()

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
        for chunk_cells in (native.CHUNK_CELLS, 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(native, "CHUNK_CELLS", chunk_cells)
                write_surface(out / "surface.csv", *args)
            assert (out / "surface.csv").read_bytes() == \
                (out / "oracle.csv").read_bytes(), chunk_cells

    @pytest.mark.parametrize("value, cell", [(0.0009765625, "0.000976562"),
                                             (0.0029296875, "0.002929688"),
                                             (-0.0009765625, "-0.000976562"),
                                             (-1e-12, "-0.000000000")])
    def test_surface_writer_rounds_ties_to_even(self, tmp_path, value, cell):
        """An exact tie at the 10th decimal rounds to the even 9th, as "%.9f" does."""
        write_surface(tmp_path / "surface.csv", np.array([1.0]), np.array([0.5]),
                      np.array([[value]]))
        assert (tmp_path / "surface.csv").read_bytes() == \
            f"tau,xi,pi\r\n1.000000000,0.500000000,{cell}\r\n".encode()

    def test_surface_writer_streams_many_chunks(self, tmp_path, rng):
        """A table of several chunks, two of them holding a NaN or a cell
        of 4.5e6 or more."""
        taus = np.linspace(0.0, 50.0, 81)
        xi = np.linspace(0.0, 3.0, 201)
        surface = rng.uniform(-1.0, 0.0, (taus.size, xi.size))
        surface[17, 5] = np.nan
        surface[60, 200] = -1e7
        assert taus.size > 4 * (native.CHUNK_CELLS // (3 * xi.size))  # more than 4 chunks
        write_surface_csv(tmp_path / "oracle.csv", taus, xi, surface)
        write_surface(tmp_path / "surface.csv", taus, xi, surface)
        assert (tmp_path / "surface.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, 4.5e6, -1e7, 1e300,
                                     -sys.float_info.max])
    @pytest.mark.parametrize("column", ["tau", "xi", "pi"])
    def test_surface_writer_hands_back_a_cell_in_each_column(self, tmp_path, rng, column, bad):
        """A NaN, an infinity or a cell of 4.5e6 or more, once left to
        Python's formatting, or a cell of 1e18 or more, longer than the
        writer's fixed-width copy of a tau or xi cell, in the tau, xi or pi
        column of a table of several chunks, at the default chunk size and
        at one layer per chunk."""
        taus = np.linspace(0.0, 50.0, 41)
        xi = np.linspace(0.0, 3.0, 201)
        surface = rng.uniform(-1.0, 0.0, (taus.size, xi.size))
        if column == "tau":
            taus[7] = bad
        elif column == "xi":
            xi[100] = bad
        else:
            surface[7, 100] = bad
        assert taus.size > 2 * (native.CHUNK_CELLS // (3 * xi.size))  # more than 2 chunks
        write_surface_csv(tmp_path / "oracle.csv", taus, xi, surface)
        for chunk_cells in (native.CHUNK_CELLS, 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(native, "CHUNK_CELLS", chunk_cells)
                write_surface(tmp_path / "surface.csv", taus, xi, surface)
            assert (tmp_path / "surface.csv").read_bytes() == \
                (tmp_path / "oracle.csv").read_bytes(), chunk_cells

    def test_surface_writer_streams_the_default_surface_in_few_large_writes(self, params, rng):
        """At the defaults (N = 200, M = 500) the 501 layers go out in at
        most 30 writes, from a chunk buffer under 4 MiB, the size from
        which numpy asks for huge pages."""
        from asianfb import make_grid

        class RecordingFile:
            def __init__(self):
                self.sizes, self.buffer_bytes = [], 0

            def write(self, data):
                view = memoryview(data)
                self.sizes.append(view.nbytes)
                self.buffer_bytes = max(self.buffer_bytes, memoryview(view.obj).nbytes)

        g = make_grid(params, N=200)
        assert (g.taus.size, g.xi.size) == (501, 201)
        fh = RecordingFile()
        native.write_surface(fh, g.taus, g.xi, rng.uniform(-1.0, 0.0, (501, 201)))
        assert len(fh.sizes) <= 30, fh.sizes
        assert fh.buffer_bytes < 4 * 2**20

    def test_surface_writer_rejects_mismatched_shapes(self, tmp_path):
        """A surface that is not 2-D, or whose shape does not fit the taus
        and xi, is refused, naming the array that does not fit."""
        taus, xi = np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5])
        for surface, name in ((np.zeros((2, 2)), "taus"), (np.zeros((3, 3)), "xi"),
                              (np.zeros((3, 1)), "xi"), (np.zeros(6), "pi"),
                              (np.zeros((4, 2)), "taus")):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                write_surface(tmp_path / "surface.csv", taus, xi, surface)

    def test_surface_writer_refuses_strided_and_non_float64_input(self, tmp_path):
        """A taus, xi or pi that is not C-contiguous float64 is refused, not
        copied: pi is read in place, as its layers are stored."""
        taus, xi, pi = np.arange(3.0), np.arange(3.0), np.arange(9.0).reshape(3, 3) / 7.0
        for name, bad in (("taus", np.arange(6, dtype=np.float32)[::2]),
                          ("taus", np.arange(6.0)[::2]), ("xi", np.array([0, 1, 2])),
                          ("pi", np.asfortranarray(pi))):
            args = {"taus": taus, "xi": xi, "pi": pi, name: bad}
            with pytest.raises(ValueError, match=f"^{name} must be"):
                write_surface(tmp_path / "surface.csv", args["taus"], args["xi"], args["pi"])

    @pytest.mark.parametrize("chunk_cells", ["default", 1])
    def test_surface_writer_reads_pi_in_place(self, tmp_path, monkeypatch, rng, chunk_cells):
        """write_surface reads each chunk of pi when ``stored`` says it is
        final, not before: here stored fills layers 0 .. stop - 1 of a pi
        of NaNs just before it returns True, and the file is the filled
        table's, as it would not be had the writer copied pi on entry."""
        taus, xi = np.linspace(0.0, 50.0, 41), np.linspace(0.0, 3.0, 201)
        want = rng.uniform(-1.0, 0.0, (taus.size, xi.size))
        pi = np.empty_like(want)
        pi.fill(np.nan)

        def stored(stop):
            pi[:stop] = want[:stop]
            return True

        if chunk_cells != "default":
            monkeypatch.setattr(native, "CHUNK_CELLS", chunk_cells)
        assert taus.size > 2 * (native.CHUNK_CELLS // (3 * xi.size))  # more than 2 chunks
        write_surface_csv(tmp_path / "oracle.csv", taus, xi, want)
        with (tmp_path / "surface.csv").open("wb") as fh:
            native.write_surface(fh, taus, xi, pi, stored)
        assert (tmp_path / "surface.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_table_writer_matches_csv_writer_bytes(self, tmp_path, rng):
        """boundary.csv's and compare.csv's writer over several chunks, with
        an infinity, a NaN and a cell of 301 digits."""
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

    def test_cr_is_empty_where_two_levels_agree(self, tmp_path, monkeypatch):
        """CR is undefined, an empty cell, where either difference is 0:
        marches that give rho 1.5, 1.5 and 1.6 at N = 50, 100 and 200, so
        the second difference is 0 and the third is not, make a refine.csv
        and exit 0, not log2(0)'s domain error."""
        rho = {50: 1.5, 100: 1.5, 200: 1.6}
        monkeypatch.setattr(analysis, "run_engine", lambda engine, p, g, *args, **kwargs:
                            types.SimpleNamespace(rho_at=lambda t: rho[g.N]))
        assert run_cli(["refine", "--base-N", "50", "--levels", "3"], tmp_path) == 0
        header, rows = read_csv(tmp_path / "refine.csv")
        for t in ("10", "20", "40"):
            diff, cr = header.index(f"diff_tau{t}"), header.index(f"CR_tau{t}")
            assert [row[diff] for row in rows] == ["", "0.000000000", "0.100000000"]
            assert [row[cr] for row in rows] == ["", "", ""]

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

    def test_parallel_fanout_matches_serial(self, tmp_path, cpus):
        serial = tmp_path / "serial"
        fanout = tmp_path / "fanout"
        cpus(1)
        assert main(["refine", "--base-N", "50", "--levels", "2",
                     "--out-dir", str(serial)]) == 0
        cpus(2)
        assert main(["refine", "--base-N", "50", "--levels", "2",
                     "--out-dir", str(fanout)]) == 0
        assert (serial / "refine.csv").read_bytes() == (fanout / "refine.csv").read_bytes()

    def test_level_validation(self, tmp_path):
        assert run_cli(["refine", "--levels", "1"], tmp_path) == 2

    @pytest.mark.parametrize("flag, value", [("--N", "0"), ("--M", "-1"), ("--N", "64")])
    def test_refuses_the_mesh_flags_it_has_no_use_for(self, tmp_path, capsys, flag, value):
        """refine's levels set their own N and M, so --N and --M, valid or
        not, are usage errors (exit 2) that write nothing; a config file's
        N and M keys are still accepted, and change no byte of refine.csv."""
        with pytest.raises(SystemExit) as exc:
            run_cli(["refine", "--base-N", "8", "--levels", "2", flag, value], tmp_path / "out")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        config = tmp_path / "mesh.cfg"
        config.write_text("N = 0\nM = -1\n")
        for name, extra in (("plain", []), ("config", ["--config", str(config)])):
            assert run_cli(["refine", "--base-N", "8", "--levels", "2", *extra],
                           tmp_path / name) == 0
        assert (tmp_path / "config" / "refine.csv").read_bytes() == \
            (tmp_path / "plain" / "refine.csv").read_bytes()


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
    "tol": "1e-9", "max_iter": "7", "tau_probes": "5,15",
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
        by_file = resolve_config(parser.parse_args([command, "--config", str(cfg_file)]))
        # the record holds each option under its own key, as the file gave it
        assert getattr(by_file, key) == from_file
        if help_text is None:  # a config-file key only
            for sub in ("solve", "refine", "compare"):
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args([sub, flag, value])
                assert exc.value.code == 2
            return
        by_flag = resolve_config(parser.parse_args([command, flag, value]))
        assert getattr(by_flag, key) == from_file
        assert by_flag == by_file != resolve_config(parser.parse_args([command]))
        if command == "refine":  # refine's keys have no flag on solve or compare
            for sub in ("solve", "compare"):
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args([sub, flag, value])
                assert exc.value.code == 2

    def test_readme_lists_every_option(self):
        """README's command-line section names the flags of solve and
        compare, those refine drops and its own flags, and the
        config-file-only keys, each list exactly as OPTIONS generates it."""
        text = " ".join((ROOT / "README.md").read_text().split())
        shared, dropped, refine_only = re.search(
            r"Flags of `solve` and `compare`: `([^`]*)`; `refine` drops `([^`]*)` and adds "
            r"`([^`]*)`", text).groups()
        files = re.search(r"name the six output files \(([^)]*)\)", text).group(1)
        flags = {key: "--" + key.replace("_", "-") for key, *_ in OPTIONS}
        with_flag = [key for key, _, _, help_text in OPTIONS if help_text is not None]
        assert shared.split() == [flags[key] for key in with_flag
                                  if key not in cli._REFINE_ONLY] + ["--config", "FILE"]
        assert dropped.split() == [flags[key] for key in cli._NOT_REFINE]
        assert refine_only.split() == [flags[key] for key in cli._REFINE_ONLY]
        assert re.findall(r"`(\w+)`", files) == [key for key in DEFAULTS
                                                if key not in with_flag]

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

    @pytest.mark.parametrize("command", ["solve", "compare", "refine"])
    def test_thread_count_is_no_option(self, tmp_path, capsys, command):
        """The thread count is the CPUs this process may run on: --jobs is
        a usage error and a config file's jobs an unknown key, each exit 2,
        with nothing written."""
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--jobs", "2"], tmp_path / "out")
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        cfg = tmp_path / "jobs.cfg"
        cfg.write_text("jobs = 2\n")
        assert run_cli([command, "--config", str(cfg)], tmp_path / "out") == 2
        assert "unknown key 'jobs'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, name", [("solve", "summary.json"),
                                               ("compare", "compare.json")])
    def test_json_does_not_depend_on_the_cpu_count(self, tmp_path, cpus, command, name):
        """solve's and compare's JSON have the same bytes on one CPU and on
        eight: no output echoes the thread count."""
        outputs = []
        for n in (1, 8):
            cpus(n)
            assert run_cli([command, "--N", "32"], tmp_path) == 0
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("strike = 100\n")
        assert main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("N 64\n")
        assert main(["solve", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("config, flags, message", [
        (None, ["--config", "."], "cannot read config file .: [Errno 21] Is a directory: '.'"),
        ("N = abc", [], "bad value for N: 'abc'"),
        ("engine = x", [], "engine must be 'newton' or 'pc', got 'x'"),
        ("scheme_mode = x", [], "scheme-mode must be 'central' or 'upwind-singular', got 'x'"),
        (None, ["--tau-probes", "a,b"], "bad tau-probes 'a,b'"),
        (None, ["--tau-probes", ","], "tau-probes must name at least one time"),
        (None, ["--tau-probes", "0"], "probe tau=0.0 outside (0, T=50.0)"),
        (None, ["--tau-probes", "10,50"], "probe tau=50.0 outside (0, T=50.0)"),
    ], ids=["unreadable config", "bad value", "engine", "scheme_mode", "malformed probes",
            "no probe", "probe at 0", "probe at T"])
    def test_refused_input_writes_nothing(self, tmp_path, capsys, config, flags, message):
        """Input refused in one config error line (exit 2) before anything is
        written: a config file that cannot be read, a file's value that its
        type or its choices refuse (flags meet argparse's checks instead) and
        probe times that are malformed, none, or outside (0, T)."""
        if config is not None:
            (tmp_path / "run.cfg").write_text(config + "\n")
            flags = ["--config", str(tmp_path / "run.cfg"), *flags]
        assert run_cli(["solve", *flags], tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.endswith(message + "\n"), err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

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

    # Finite inputs whose layer system is out of range: h = L/N so small that
    # h**2 underflows to 0 or sigma**2/(2 h**2) overflows, or h or sigma so
    # large that its square overflows
    OUT_OF_RANGE = {"h2 zero": ["--L", "1e-300"], "diffusion inf": ["--L", "1e-155"],
                    "h2 inf": ["--L", "1e160"], "h2 far inf": ["--L", "1e300"],
                    "sigma2 inf": ["--sigma", "1e200"]}

    @pytest.mark.parametrize("command", ["solve", "compare", "refine"])
    @pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
    def test_layer_system_out_of_range_exit_code(self, tmp_path, capsys, command, case):
        """make_grid refuses the grid before any march: one config error
        line, alike on every command, and no traceback."""
        size = ["--base-N", "8", "--levels", "2"] if command == "refine" else ["--N", "8"]
        assert run_cli([command, *size, *self.OUT_OF_RANGE[case]], tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert "the layer system needs each finite and h**2 > 0" in err

    def test_layer_system_at_the_edge_of_range_marches(self, tmp_path, capsys):
        """The nearest lengths in range pass the check: L = 1e-150 marches
        and fails numerically at layer 1, L = 1e154 solves."""
        assert run_cli(["solve", "--N", "8", "--L", "1e-150"], tmp_path) == 3
        assert "numerical failure: layer 1" in capsys.readouterr().err
        assert run_cli(["solve", "--N", "8", "--L", "1e154"], tmp_path) == 0

    @pytest.mark.parametrize("command", ["solve", "compare", "refine"])
    def test_march_overflow_exit_code(self, tmp_path, capsys, command):
        """Finite inputs whose rows overflow inside the march: the
        elimination meets a non-finite entry, a numerical failure at its
        layer on every command, in one line, and the output directory is
        left as it was."""
        size = ["--base-N", "8", "--levels", "2"] if command == "refine" else ["--N", "8"]
        out = tmp_path / "out"
        out.mkdir()
        assert run_cli([command, *size, "--q", "1e300", "--L", "1"], out) == 3
        level = "refinement level N=8 failed: " if command == "refine" else ""
        assert capsys.readouterr().err == (
            f"numerical failure: {level}layer 1 (tau=2.5) failed: "
            "lower contains non-finite values\n")
        assert list(out.iterdir()) == []

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        code = run_cli(["solve", "--N", "16", "--tol", "1e-14", "--max-iter", "1"],
                       tmp_path)
        assert code == 3
        assert "layer 1" in capsys.readouterr().err

    # perfbench seed 981's parameters: the default Newton march fails at
    # layer 499 of 500 (NoConvergence), long after surface.csv began streaming
    LATE_FAILURE = ["--r", "0.068354", "--q", "0.030826", "--sigma", "0.194063"]

    def test_failing_solve_writes_nothing(self, tmp_path, capsys):
        """A solve whose march fails late leaves no surface.csv, no
        temporary file and no worker thread; only the output directory is
        created."""
        threads = threading.active_count()
        assert run_cli(["solve", *self.LATE_FAILURE], tmp_path / "out") == 3
        assert "layer 499" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []
        assert threading.active_count() == threads

    def test_failing_solve_keeps_earlier_outputs(self, tmp_path, capsys):
        """The files of an earlier solve in the same directory keep their
        bytes when a later solve fails."""
        assert run_cli(["solve", "--N", "16"], tmp_path) == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert run_cli(["solve", *self.LATE_FAILURE], tmp_path) == 3
        assert "layer 499" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_writer_reads_only_published_layers(self, tmp_path, monkeypatch):
        """While a solve's march runs, and fails late, its surface.csv
        writer formats no chunk before the march has published every layer
        in it; the failed solve leaves the output directory as it found it,
        and no worker thread."""
        native.load()
        # (surface address, frame address) of each march, and the count it
        # published once it returned
        marches, counts, buffers = [], [], []

        class RecordingKernel:
            """native's library, each call forwarded to it; records each
            chunk of surface.csv that C formats."""

            def __init__(self, library):
                self.library = library

            def __getattr__(self, name):
                return getattr(self.library, name)

            def march(self, *args):
                marches.append((args[7], args[0]))
                status = self.library.march(*args)
                counts.append(self.library.published(args[0]))
                return status

            def fixed9_surface(self, layers, n, taus, xi, pi, out):
                # the last layer the chunk reads, and the count the march
                # had published when C began to read it
                surface, frame = marches[0]
                buffers.append(((pi - surface) // (8 * n) + layers - 1,
                                self.library.published(frame)))
                return self.library.fixed9_surface(layers, n, taus, xi, pi, out)

        monkeypatch.setattr(native, "_kernel", RecordingKernel(native._kernel))
        out = tmp_path / "out"
        out.mkdir()
        (out / "surface.csv").write_bytes(b"an earlier surface")
        threads = threading.active_count()
        assert run_cli(["solve", *self.LATE_FAILURE], out) == 3
        assert threading.active_count() == threads
        assert [(path.name, path.read_bytes()) for path in out.iterdir()] == \
            [("surface.csv", b"an earlier surface")]
        assert counts == [499]  # the march stored layers 0 .. 498
        assert buffers and all(last < count for last, count in buffers), buffers
        assert buffers[-1][0] < 499

    def test_failing_surface_writer_leaves_no_surface(self, tmp_path, monkeypatch):
        """An error of the surface.csv writer, on its worker thread, is
        raised by solve once the march ends, and leaves no surface.csv and
        no temporary file."""
        def failing_writer(fh, taus, xi, pi, stored=None):
            stored(2)
            raise OSError("no space left")

        monkeypatch.setattr(native, "write_surface", failing_writer)
        with pytest.raises(OSError, match="no space left"):
            run_cli(["solve", "--N", "16"], tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["solve", "compare", "refine"])
    def test_missing_compiler_exit_code(self, tmp_path, monkeypatch, capsys, command):
        # no kernel in the cache and no compiler to build one: one line, no traceback
        monkeypatch.setattr(native, "CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(native, "_kernel", None)
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        size = ["--base-N", "16", "--levels", "2"] if command == "refine" \
            else ["--N", "16"]
        assert run_cli([command, *size], tmp_path / "out") == 4
        err = capsys.readouterr().err
        assert err == ("kernel unavailable: no C compiler: asianfb builds its kernel "
                       "thomas.c with 'cc', which is not on PATH (kernel cache directory "
                       f"{tmp_path / 'cache'})\n")

    @pytest.mark.parametrize("below", [False, True], ids=["a file", "below a file"])
    @pytest.mark.parametrize("command", ["solve", "compare", "refine"])
    def test_output_directory_that_cannot_be_made(self, tmp_path, monkeypatch, capsys,
                                                  command, below):
        """An output directory that names a file, or lies below one, is a
        config error (exit 2) naming it, in one line, before any march."""
        def no_march(*args, **kwargs):
            raise AssertionError("a march ran")

        monkeypatch.setattr(native, "march", no_march)
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker / "out" if below else blocker
        size = ["--base-N", "8", "--levels", "2"] if command == "refine" else ["--N", "8"]
        assert run_cli([command, *size], out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot make the output directory {out}: ")
        assert err.count("\n") == 1, err
        assert blocker.read_text() == "kept"


def help_text(parse, args, capsys):
    """What ``parse(args)`` (main, or a parser's parse_args) prints for --help."""
    with pytest.raises(SystemExit) as exc:
        parse(args)
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestEntryPoint:
    def test_calls_share_one_parser_and_parse_independently(self, tmp_path, monkeypatch,
                                                            capsys):
        """main builds its parser on its first call, not at import, and
        reuses it: calls with different subcommands and flags, in turn and
        on threads at once, each resolve their own configuration, and
        --help prints the bytes a freshly built parser prints."""
        monkeypatch.delenv("ASIANFB_OUT", raising=False)
        monkeypatch.setenv("COLUMNS", "100")
        built = []

        def counting_build():
            built.append(1)
            return build_parser()

        cli._main_parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting_build)
        helps = {command: help_text(build_parser().parse_args, [command, "--help"], capsys)
                 for command in ("solve", "refine", "compare")}
        assert built == []
        calls = {"solve": ["solve", "--N", "16", "--sigma", "0.25"],
                 "compare": ["compare", "--N", "12", "--engine", "pc"],
                 "refine": ["refine", "--base-N", "8", "--levels", "2"]}
        for command, args in calls.items():
            assert run_cli(args, tmp_path / command) == 0
            capsys.readouterr()
            assert help_text(main, [command, "--help"], capsys) == helps[command]
        assert built == [1]
        assert read_json(tmp_path / "solve" / "summary.json")["config"]["sigma"] == 0.25
        assert read_json(tmp_path / "compare" / "compare.json")["config"]["N"] == 12
        assert read_json(tmp_path / "compare" / "compare.json")["config"]["sigma"] == 0.2

        codes = {}

        commands = ("solve", "compare", "solve", "compare")

        def run(k):
            codes[k] = run_cli([commands[k], "--N", str(8 + k), "--T", str(45 + k)],
                               tmp_path / f"thread{k}")

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(commands))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert codes == {k: 0 for k in range(len(commands))}
        for k, command in enumerate(commands):
            summary = read_json(tmp_path / f"thread{k}" /
                                {"solve": "summary.json", "compare": "compare.json"}[command])
            assert summary["command"] == command
            config = summary["config"]
            assert (config["N"], config["T"], config["sigma"]) == (8 + k, 45 + k, 0.2)
        assert built == [1]

    def test_import_loads_no_process_pool(self):
        """A fresh interpreter that imports the CLI has loaded neither
        multiprocessing nor concurrent.futures: refine's levels and
        compare's engines run on plain threads; nor queue: solve's
        surface.csv writer sleeps POLL_S between reads of the march's
        layer count."""
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, asianfb.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent', 'queue')))"],
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
        assert "wall_time=" in proc.stdout and "surface_tail=" in proc.stdout
        assert (tmp_path / "summary.json").exists()
