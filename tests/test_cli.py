import warnings

import numpy as np
import pytest

from ultrasem import cli
from ultrasem.cli import (
    EXIT_FORMAT,
    EXIT_OK,
    EXIT_SOLVER,
    BenchReport,
    cond_bench,
    main,
    skinny_quad,
)
from ultrasem.element import PdeCoefficients
from ultrasem.expressions import compile_expression
from ultrasem.mesh import grid_mesh, read_mesh, write_mesh
from ultrasem.quadmap import Quad
from ultrasem.schur import assemble_schur

from conftest import skinny_pair_mesh

SQUARE_MESH = """quadmesh 1
v -1 -1
v 1 -1
v 1 1
v -1 1
q 1 2 3 4
"""

TRIANGLE_MESH = """quadmesh 1
v 0 0
v 1 0
v 0 1
t 1 2 3
"""


@pytest.fixture
def square_mesh_path(tmp_path):
    p = tmp_path / "square.txt"
    p.write_text(SQUARE_MESH)
    return str(p)


def parse_fields_file(path):
    header = {}
    elements = []
    names = None
    with open(path) as fh:
        assert fh.readline().strip() == "ultrasem-fields 1"
        for line in fh:
            parts = line.split()
            if parts[0] == "fields":
                names = parts[1:]
            elif parts[0] == "element":
                elements.append([])
            elif parts[0] in ("mesh", "n", "time"):
                header[parts[0]] = parts[1]
            else:
                elements[-1].append([float(v) for v in parts])
    return header, names, [np.array(e) for e in elements]


class TestSolve:
    def test_manufactured_error_reported(self, square_mesh_path, tmp_path, capsys):
        out = str(tmp_path / "sol.txt")
        code = main(["solve", "--mesh", square_mesh_path, "--n", "24",
                     "--rhs=-2*pi^2*sin(pi*x)*sin(pi*y)",
                     "--bc", "0", "--exact", "sin(pi*x)*sin(pi*y)",
                     "--out", out])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        maxerr = float([l for l in text.splitlines()
                        if l.startswith("max-error")][0].split()[1])
        resid = float([l for l in text.splitlines()
                       if l.startswith("max-residual")][0].split()[1])
        assert maxerr <= 1e-10
        assert resid <= 1e-10
        header, names, elements = parse_fields_file(out)
        assert names == ["x", "y", "u", "err"]
        assert header["n"] == "24"
        assert len(elements) == 1 and elements[0].shape == (24 * 24, 4)

    def test_malformed_mesh_exit_code_and_line(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("quadmesh 1\nv 0 0\nv 1 0\nq 1 2 3\n")
        code = main(["solve", "--mesh", str(p)])
        assert code == EXIT_FORMAT
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("coord", ["nan", "inf"])
    def test_nonfinite_vertex_exit_code_and_line(self, coord, tmp_path, capsys):
        p = tmp_path / "nonfinite.txt"
        p.write_text(f"quadmesh 1\nv 0 0\nv 1 0\nv {coord} 1\nv 0 1\nq 1 2 3 4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--mesh", str(p)])
        assert code == EXIT_FORMAT
        assert "line 4: vertex coordinates must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, message", [
        ("--rhs", "forcing is not finite on element 0"),
        ("--bc", "boundary data is not finite on element 0, edge 0 at (0, 0)"),
        ("--exact", "exact solution is not finite on element 0"),
    ])
    def test_nonfinite_data_exit_code_and_message(self, flag, message, tmp_path, capsys):
        # 1/x is infinite on the x = 0 side of the unit square
        p = tmp_path / "unit.txt"
        p.write_text("quadmesh 1\nv 0 0\nv 1 0\nv 1 1\nv 0 1\nq 1 2 3 4\n")
        code = main(["solve", "--mesh", str(p), "--n", "6", flag, "1/x"])
        assert code == EXIT_FORMAT
        err = capsys.readouterr().err
        assert message in err
        assert "RuntimeWarning" not in err

    def test_missing_file_is_io_error(self, tmp_path):
        from ultrasem.cli import EXIT_IO

        code = main(["solve", "--mesh", str(tmp_path / "none.txt")])
        assert code == EXIT_IO

    def test_bad_expression_exit_code(self, square_mesh_path):
        code = main(["solve", "--mesh", square_mesh_path, "--rhs", "tan(x)"])
        assert code == EXIT_FORMAT

    def test_nonconvex_element_is_solver_error(self, tmp_path):
        p = tmp_path / "dart.txt"
        p.write_text("quadmesh 1\nv 0 0\nv 2 0\nv 0.5 0.5\nv 0 2\nq 1 2 3 4\n")
        code = main(["solve", "--mesh", str(p)])
        assert code == EXIT_SOLVER

    def test_screened_zero_matches_poisson(self, square_mesh_path, tmp_path):
        args = ["--mesh", square_mesh_path, "--n", "12",
                "--rhs", "sin(x+y)", "--bc", "x*y"]
        out1 = str(tmp_path / "a.txt")
        out2 = str(tmp_path / "b.txt")
        assert main(["solve", *args, "--pde", "poisson", "--out", out1]) == EXIT_OK
        assert main(["solve", *args, "--pde", "screened:0", "--out", out2]) == EXIT_OK
        _, _, e1 = parse_fields_file(out1)
        _, _, e2 = parse_fields_file(out2)
        assert np.max(np.abs(e1[0] - e2[0])) < 1e-12

    def test_screened_spec_matches_the_library(self, square_mesh_path, tmp_path):
        out = str(tmp_path / "s.txt")
        assert main(["solve", "--mesh", square_mesh_path, "--n", "10", "--pde", "screened:4",
                     "--rhs", "sin(x+y)", "--bc", "x*y", "--out", out]) == EXIT_OK
        system = assemble_schur(read_mesh(square_mesh_path), PdeCoefficients.screened(4.0), 10)
        u = system.solve(f=compile_expression("sin(x+y)"), dirichlet=compile_expression("x*y"))
        _, _, elements = parse_fields_file(out)
        assert np.array_equal(elements[0][:, 2], u.grid_values()[0].ravel())

    def test_general_pde(self, square_mesh_path, capsys):
        # (1+0*x) lap u + u with u = x -> f = x
        code = main(["solve", "--mesh", square_mesh_path, "--n", "10",
                     "--pde", "general:a11=1;a22=1;c=1",
                     "--rhs", "x", "--bc", "x", "--exact", "x"])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        maxerr = float([l for l in text.splitlines()
                        if l.startswith("max-error")][0].split()[1])
        assert maxerr < 1e-11

    def test_general_pde_rejects_nonpolynomial(self, square_mesh_path):
        code = main(["solve", "--mesh", square_mesh_path,
                     "--pde", "general:a11=exp(x)"])
        assert code == EXIT_FORMAT

    @pytest.mark.parametrize("value", ["1/0", "0/0", "1/(x-x)"])
    def test_general_pde_rejects_nonfinite(self, value, square_mesh_path, capsys):
        code = main(["solve", "--mesh", square_mesh_path,
                     "--pde", f"general:a11={value};a22=1"])
        assert code == EXIT_FORMAT
        assert "coefficient 'a11' is not a finite polynomial" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["general:a11=1;a22=1;a11=5", "general:c=1; c =1;a11=1"])
    def test_general_pde_rejects_a_coefficient_assigned_twice(self, spec, square_mesh_path,
                                                               tmp_path, capsys):
        out = tmp_path / "u.txt"
        code = main(["solve", "--mesh", square_mesh_path, "--n", "6", "--pde", spec,
                     "--out", str(out)])
        assert code == EXIT_FORMAT
        assert not out.exists()
        name = spec.split(":")[1].split("=")[0]
        assert capsys.readouterr().err == f"error: pde coefficient '{name}' is assigned twice\n"

    def test_n_too_small_rejected(self, square_mesh_path):
        assert main(["solve", "--mesh", square_mesh_path, "--n", "2"]) == EXIT_FORMAT

    def test_deterministic_output(self, square_mesh_path, tmp_path):
        args = ["solve", "--mesh", square_mesh_path, "--n", "10",
                "--rhs", "x*y", "--bc", "0"]
        o1, o2 = str(tmp_path / "d1.txt"), str(tmp_path / "d2.txt")
        assert main([*args, "--out", o1]) == EXIT_OK
        assert main([*args, "--out", o2]) == EXIT_OK
        assert open(o1, "rb").read() == open(o2, "rb").read()


class TestCondBench:
    def test_sweep_plateau_and_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "bench.txt"
        sweep = [1, 1e-1, 1e-2, 1e-3, 1e-6, 1e-9, 1e-12]
        code = main(["cond-bench", "--n", "8", "--eps", ",".join(map(str, sweep)),
                     "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().splitlines()[:3] == [
            "ultrasem-condbench 1", "n 8", "eps kappa1 kappainf"]
        # the report is plain columns after its header, and its 17 digits
        # give back the sweep bit for bit
        eps, _, kappainf = np.loadtxt(out, skiprows=3, unpack=True)
        assert eps.tolist() == sweep
        k = dict(zip(sweep, kappainf))
        assert abs(k[1e-9] - k[1e-12]) <= 0.01 * k[1e-12]
        assert max(kappainf) <= 1.02 * k[1e-12]
        # growth from eps=1 to the plateau is a genuine trend
        assert k[1e-3] > 1.2 * k[1.0]

    def test_default_sweep_output_ignores_global_rng(self, tmp_path):
        texts = []
        for seed in (0, 5):
            np.random.seed(seed)
            out = tmp_path / f"bench{seed}.txt"
            assert main(["cond-bench", "--n", "24", "--out", str(out)]) == EXIT_OK
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("eps", ["1e-3,1", "1,1", "1,0,-1", "1,1e-3,nan"])
    def test_bad_sweep_rejected_before_any_assembly(self, eps, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "assemble_element_operator",
                            lambda *a, **k: calls.append(a))
        assert main(["cond-bench", "--eps", eps]) == EXIT_FORMAT
        assert calls == []
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("eps", ["", ",", " , "])
    def test_empty_sweep_rejected(self, eps, capsys):
        assert main(["cond-bench", "--eps", eps]) == EXIT_FORMAT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: eps sweep is empty\n"

    @pytest.mark.parametrize("eps, item", [("1e-3,,1e-4", "2 of 3"), ("1,1e-3,", "3 of 3"),
                                           (",1", "1 of 2"), ("1, ,1e-2", "2 of 3")])
    def test_empty_eps_item_rejected(self, eps, item, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "assemble_element_operator",
                            lambda *a, **k: calls.append(a))
        assert main(["cond-bench", "--eps", eps]) == EXIT_FORMAT
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: eps item {item} is empty\n"

    def test_invalid_eps_order(self):
        with pytest.raises(ValueError):
            BenchReport(n=4, eps=[1e-3, 1e-1], kappa1=[1, 1], kappainf=[1, 1])

    def test_skinny_quad_family_geometry(self):
        q = skinny_quad(1e-3)
        assert isinstance(q, Quad)
        with pytest.raises(ValueError):
            skinny_quad(0.0)


class TestNsRun:
    @staticmethod
    def _run(tmp_path, capsys, cadence):
        """200 steps on a small channel: the frame names written, the last
        frame's fields and the stdout lines."""
        mesh_path = tmp_path / "tunnel.txt"
        from ultrasem.navierstokes import tunnel_mesh

        write_mesh(tunnel_mesh(nx=3, ny=2, width=0.003, height=0.001,
                               hole=None), mesh_path)
        outdir = tmp_path / "frames"
        code = main(["ns-run", "--mesh", str(mesh_path), "--n", "6",
                     "--dt", "1.667e-5", "--steps", "200", "--cadence", cadence,
                     "--bc", "0.6", "--out", str(outdir)])
        assert code == EXIT_OK
        frames = sorted(outdir.glob("frame_*.txt"))
        lines = capsys.readouterr().out.splitlines()
        assert [l.split()[:2] for l in lines if "divergence" in l] == [
            ["step", "100"], ["step", "200"]]
        assert lines[-1].startswith("finished 200 steps")
        return [f.name for f in frames], parse_fields_file(frames[-1])

    def test_frame_count_matches_cadence(self, tmp_path, capsys):
        # a frame at step 0 and every --cadence steps, and a divergence
        # line every 100 steps
        names, (header, fields, elements) = self._run(tmp_path, capsys, "50")
        assert names == [f"frame_{k:06d}.txt" for k in (0, 50, 100, 150, 200)]
        assert fields == ["x", "y", "u", "v", "p", "omega"]
        assert len(elements) == 6

    @pytest.mark.parametrize("flags, dealias", [
        ([], False), (["--dealias"], True), (["--no-dealias"], False),
        (["--dealias", "--no-dealias"], False)])
    def test_dealias_flag_pair_reaches_the_config(self, flags, dealias, tmp_path, monkeypatch):
        from ultrasem.navierstokes import TunnelSolver, tunnel_mesh

        configs = []

        def solver(mesh, n, config, boundary):
            configs.append(config)
            return TunnelSolver(mesh, n, config, boundary)

        monkeypatch.setattr(cli, "TunnelSolver", solver)
        mesh_path = tmp_path / "tunnel.txt"
        write_mesh(tunnel_mesh(nx=3, ny=2, width=0.003, height=0.001, hole=None), mesh_path)
        assert main(["ns-run", "--mesh", str(mesh_path), "--n", "6", "--steps", "1",
                     "--out", str(tmp_path / "frames"), *flags]) == EXIT_OK
        assert [c.dealias for c in configs] == [dealias]

    def test_cadence_zero_writes_only_the_last_frame(self, tmp_path, capsys):
        names, _ = self._run(tmp_path, capsys, "0")
        assert names == ["frame_000200.txt"]

    @staticmethod
    def _run_failing_at_step_13(tmp_path, monkeypatch, capsys, cadence):
        """The frame names an ns-run leaves when step 13 raises
        InstabilityError, and its standard error."""
        from ultrasem.cli import EXIT_INSTABILITY
        from ultrasem.errors import InstabilityError
        from ultrasem.navierstokes import TunnelSolver, tunnel_mesh

        mesh_path = tmp_path / "tunnel.txt"
        write_mesh(tunnel_mesh(nx=3, ny=2, width=0.003, height=0.001,
                               hole=None), mesh_path)
        real_step = TunnelSolver.time_step

        def exploding_step(self, state):
            if state.step >= 12:
                raise InstabilityError("boom", step=state.step + 1, cfl=1.0)
            return real_step(self, state)

        monkeypatch.setattr(TunnelSolver, "time_step", exploding_step)
        outdir = tmp_path / "frames"
        code = main(["ns-run", "--mesh", str(mesh_path), "--n", "6",
                     "--steps", "100", "--cadence", cadence, "--bc", "0.6",
                     "--out", str(outdir)])
        assert code == EXIT_INSTABILITY
        return [f.name for f in sorted(outdir.glob("frame_*.txt"))], capsys.readouterr().err

    def test_instability_saves_last_good_frame(self, tmp_path, monkeypatch, capsys):
        # the state after step 12, not the last frame the cadence wrote
        names, err = self._run_failing_at_step_13(tmp_path, monkeypatch, capsys, "10")
        assert names == ["frame_000000.txt", "frame_000010.txt", "frame_000012.txt"]
        assert "last good frame saved at step 12" in err

    def test_instability_at_cadence_zero_saves_last_good_frame(self, tmp_path, monkeypatch,
                                                                capsys):
        # no frame is due before step 100; the initial state is not the last good one
        names, err = self._run_failing_at_step_13(tmp_path, monkeypatch, capsys, "0")
        assert names == ["frame_000012.txt"]
        assert "last good frame saved at step 12" in err

    @pytest.mark.parametrize("option, value", [("--steps", "-3"), ("--cadence", "-2")])
    def test_negative_count_is_format_error(self, option, value, tmp_path, capsys):
        from ultrasem.navierstokes import tunnel_mesh

        mesh_path = tmp_path / "tunnel.txt"
        write_mesh(tunnel_mesh(nx=3, ny=2, width=0.003, height=0.001,
                               hole=None), mesh_path)
        outdir = tmp_path / "frames"
        code = main(["ns-run", "--mesh", str(mesh_path), "--n", "6", "--steps", "4",
                     option, value, "--out", str(outdir)])
        assert code == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.rstrip().endswith(value)
        assert not outdir.exists()

    def test_zero_velocity_run_all_zero(self, tmp_path):
        mesh_path = tmp_path / "tunnel.txt"
        from ultrasem.navierstokes import tunnel_mesh

        write_mesh(tunnel_mesh(nx=3, ny=2, width=0.003, height=0.001,
                               hole=None), mesh_path)
        outdir = tmp_path / "frames"
        code = main(["ns-run", "--mesh", str(mesh_path), "--n", "6",
                     "--steps", "40", "--cadence", "20",
                     "--out", str(outdir)])
        assert code == EXIT_OK
        for frame in outdir.glob("frame_*.txt"):
            _, names, elements = parse_fields_file(frame)
            for e in elements:
                assert np.all(e[:, 2:] == 0.0)


class TestMeshInfo:
    def test_single_square(self, square_mesh_path, capsys):
        assert main(["mesh-info", "--mesh", square_mesh_path]) == EXIT_OK
        out = dict(l.split() for l in capsys.readouterr().out.splitlines())
        assert out["vertices"] == "4"
        assert out["edges"] == "4"
        assert out["quads"] == "1"
        assert abs(float(out["skinniness-min"]) - 1 / np.sqrt(2)) < 1e-8

    def test_median_split_triangle(self, tmp_path, capsys):
        p = tmp_path / "tri.txt"
        p.write_text(TRIANGLE_MESH)
        assert main(["mesh-info", "--mesh", str(p)]) == EXIT_OK
        out = dict(l.split() for l in capsys.readouterr().out.splitlines())
        assert out["quads"] == "3"
        assert out["interior-edges"] == "3"

    def test_skinny_pair_reports_tiny_skinniness(self, tmp_path, capsys):
        p = tmp_path / "skinny.txt"
        write_mesh(skinny_pair_mesh(1e-6), p)
        assert main(["mesh-info", "--mesh", str(p), "--n", "20"]) == EXIT_OK
        out = dict(l.split() for l in capsys.readouterr().out.splitlines())
        assert float(out["skinniness-min"]) < 1e-5
        assert out["interior-edges"] == "1"
        assert int(out["sigma-bandwidth-bound"]) == 20

    def test_small_elements_away_from_the_origin(self, tmp_path, capsys):
        # 1600 squares of side 2.5e-4 near (7.3, 1.1): each one's
        # min-containment radius is half its diagonal
        p = tmp_path / "offset.txt"
        write_mesh(grid_mesh(40, 40, x0=7.3, y0=1.1, width=0.01, height=0.01), p)
        assert main(["mesh-info", "--mesh", str(p)]) == EXIT_OK
        out = dict(l.split() for l in capsys.readouterr().out.splitlines())
        assert abs(float(out["skinniness-min"]) - 1 / np.sqrt(2)) < 1e-8


@pytest.mark.parametrize("command, value", [
    (["ns-run", "--dt", "nan"], "nan"),
    (["ns-run", "--dt", "inf"], "inf"),
    (["solve", "--pde", "screened:nan"], "nan"),
    (["solve", "--pde", "screened:inf"], "inf"),
    (["cond-bench", "--n", "6", "--eps", "1,nan"], "nan"),
])
def test_nonfinite_parameter_is_format_error(command, value, tmp_path, capsys):
    # a non-finite time step, screening constant or eps passes a sign
    # check; it must be rejected as bad input, naming the value
    from ultrasem.navierstokes import tunnel_mesh

    mesh_path = tmp_path / "tunnel.txt"
    write_mesh(tunnel_mesh(nx=3, ny=2, width=0.003, height=0.001, hole=None),
               mesh_path)
    mesh = [] if command[0] == "cond-bench" else ["--mesh", str(mesh_path), "--n", "6"]
    code = main([*command, *mesh, "--out", str(tmp_path / "out")])
    assert code == EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith(value)


@pytest.mark.parametrize("command, message", [
    (["mesh-info", "--n", "0"], "need an integer n >= 4, not 0"),
    (["ns-run", "--n", "2"], "need an integer n >= 4, not 2"),
    (["solve", "--pde", "screened:-1"],
     "screening constant must be finite and nonnegative, not -1.0"),
    (["solve", "--pde", "screened:x"],
     "screened pde needs its screening constant, 'screened:K', not 'screened:x'"),
    (["solve", "--pde", "screened"],
     "screened pde needs its screening constant, 'screened:K', not 'screened'"),
])
def test_out_of_range_parameter_is_format_error(command, message, square_mesh_path, capsys):
    # n is checked before the mesh is read, for every subcommand that
    # takes it, and the pde spec before any operator is built
    assert main([*command, "--mesh", square_mesh_path]) == EXIT_FORMAT
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, option", [
    (["solve", "--pde", "screened", "--k2", "4"], "--k2 4"),
    (["ns-run", "--dealias", "true"], "true"),
])
def test_second_option_form_is_a_usage_error(command, option, square_mesh_path, capsys):
    # each option has one form: the screening constant is written
    # screened:K and --dealias takes no value
    with pytest.raises(SystemExit) as exc:
        main([*command, "--mesh", square_mesh_path])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
