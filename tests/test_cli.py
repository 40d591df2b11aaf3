import json
import math
import re

import numpy as np
import pytest

from pbtsim import analysis, cli
from pbtsim.analysis import depolarizing_choi, pbt_ad_choi, xi
from pbtsim.resources import AdChoi, FullResource, ReducedResource, make_family, save_resource
from pbtsim.spin import MAX_PRODUCT_PORTS, build_spin_basis

from conftest import random_density, run_python


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv, memory_bytes=None):
    """The CLI in a child process with a time limit and, if given, an address-space cap."""
    return run_python("-m", "pbtsim.cli", *argv, memory_bytes=memory_bytes)


class TestSimpleCommands:
    def test_xi_two_ports(self, capsys):
        code, out, _ = run_cli(capsys, "xi", "--ports", "2")
        assert code == 0
        assert out.strip() == "0.711324865405"

    def test_xi_three_ports(self, capsys):
        code, out, _ = run_cli(capsys, "xi", "--ports", "3")
        assert code == 0
        assert out.strip() == "0.5"

    def test_xi_many_ports(self):
        # the library has no port cap; the command stops at MAX_PRODUCT_PORTS
        assert 0 < xi(2000) < 1e-3

    @pytest.mark.parametrize("argv", [
        ["xi"],
        ["ad-sweep", "--p0", "0.3", "--family", "choi", "--grid", "0.5:0.5:0.1"],
        ["ad-sweep", "--p0", "0.3", "--family", "alternate", "--grid", "0.7:0.7:0.1"],
    ])
    def test_port_cap(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--ports", str(MAX_PRODUCT_PORTS))
        assert code == 0
        assert out
        over = MAX_PRODUCT_PORTS + 1
        code, out, err = run_cli(capsys, *argv, "--ports", str(over))
        assert code == 1
        assert out == ""
        assert f"port count must be in 1..{MAX_PRODUCT_PORTS}, got {over}" in err

    def test_choi_matches_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "choi", "--ports", "3", "--resource", "ad:0.3")
        assert code == 0
        got = np.array([[complex(tok) for tok in line.split()]
                        for line in out.strip().splitlines()])
        np.testing.assert_allclose(got, pbt_ad_choi(3, 0.3), atol=1e-10)

    def test_kraus_command(self, capsys):
        code, out, _ = run_cli(capsys, "kraus", "--ports", "2", "--resource", "bell")
        assert code == 0
        assert out.startswith("# 4 Kraus operators")

    def test_protocol_kraus_command(self, capsys):
        code, out, _ = run_cli(capsys, "protocol-kraus", "--ports", "2")
        assert code == 0
        assert "# 6 reduced protocol Kraus operators, 4 x 8" in out

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_protocol_kraus_bytes_match_per_operator_kron(self, capsys, n):
        # each operator built on its own, sqrt(w_k) G_k u^T (x) 1 by np.kron
        basis = build_spin_basis(n)
        rows = basis.rows
        bras = rows.coefs @ basis.u.T[rows.cols]
        ops = [np.kron(math.sqrt(w) * g, np.eye(2, dtype=complex))
               for g, w in zip(bras, rows.weights)]
        lines = [f"# {len(ops)} reduced protocol Kraus operators, 4 x {2 ** (n + 1)}",
                 f"# kernel sector: {n + 2}, bulk: {len(ops) - n - 2}"]
        for i, op in enumerate(ops, start=1):
            lines.append(f"K{i}:")
            lines += ["  ".join(f"{z.real:+.12g}{z.imag:+.12g}j" for z in row) for row in op]
        code, out, _ = run_cli(capsys, "protocol-kraus", "--ports", str(n))
        assert code == 0
        assert out == "\n".join(lines) + "\n"

    def test_resource_file(self, capsys, tmp_path):
        path = tmp_path / "res.pbtres"
        save_resource(path, make_family(AdChoi(0.3), 2))
        code, out, _ = run_cli(capsys, "choi", "--ports", "2", "--resource", str(path))
        assert code == 0

    @pytest.mark.parametrize("spec", ["bell", "ad:0.77", "alternate:0.13"])
    def test_kraus_same_from_file_and_family(self, capsys, tmp_path, spec):
        # the file takes the dense congruence, the family the product route
        path = tmp_path / "res.pbtres"
        save_resource(path, make_family(cli.parse_resource(spec), 4))
        outputs = [run_cli(capsys, "kraus", "--ports", "4", "--resource", res)
                   for res in (str(path), spec)]
        assert [code for code, _, _ in outputs] == [0, 0]
        lines = [out.splitlines() for _, out, _ in outputs]
        assert [line for line in lines[0] if "j" not in line] == \
            [line for line in lines[1] if "j" not in line]
        values = [np.array([complex(tok) for line in ls if "j" in line for tok in line.split()])
                  for ls in lines]
        np.testing.assert_allclose(values[0], values[1], rtol=0, atol=1e-11)

    @pytest.mark.parametrize("spec", ["bell", "ad:0.3", "alternate:0.7"])
    @pytest.mark.parametrize("command", ["choi", "kraus"])
    def test_file_output_ignores_signed_zeros(self, capsys, tmp_path, spec, command):
        # the file keeps its -0 entries now; the printed channel is the same
        signed = tmp_path / "signed.pbtres"
        save_resource(signed, make_family(cli.parse_resource(spec), 5))
        text = signed.read_text()
        assert " -0 " in text
        unsigned = tmp_path / "unsigned.pbtres"
        unsigned.write_text(re.sub(r"(?<!\S)-0(?!\S)", "0", text))
        outputs = [run_cli(capsys, command, "--ports", "5", "--resource", str(path))
                   for path in (signed, unsigned)]
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("n", range(2, 10))
    def test_kraus_bytes_same_from_product_and_dense_routes(self, capsys, monkeypatch, n):
        # the dense route: the family's blocks, materialised, through the congruence
        dense = []

        def materialised(family, ports):
            dense.append(make_family(family, ports).reduced)
            return dense[-1]

        for spec in ("bell", "ad:0.3", "ad:0.77", "alternate:0.13", "alternate:0.7"):
            argv = ("kraus", "--ports", str(n), "--resource", spec)
            product = run_cli(capsys, *argv)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "make_family", materialised)
                assert run_cli(capsys, *argv) == product, spec
            assert product[0] == 0
            assert isinstance(dense[-1], ReducedResource)

    def test_verify_success(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-ports", "4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 26  # n = 2..4 times 8 families, then worst and ok
        assert all(line.endswith(": max deviation below 1e-10") for line in lines[:24])
        assert lines[24] == "worst: below 1e-10"
        assert lines[25] == "ok"


class TestErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 1

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(capsys, "ad-sweep", "--ports", "3", "--p0", "0.5",
                               "--family", "choi", "--grid", "nope")
        assert code == 1
        assert "error" in err

    def test_bad_resource(self, capsys):
        code, _, err = run_cli(capsys, "choi", "--ports", "2", "--resource", "wat:1")
        assert code == 1
        assert "unknown resource" in err

    @pytest.mark.parametrize("spec", ["ad:abc", "alternate:x", "alt:0.3x"])
    def test_non_numeric_resource_parameter(self, capsys, spec):
        code, out, err = run_cli(capsys, "choi", "--ports", "2", "--resource", spec)
        assert code == 1
        assert out == ""
        assert f"resource spec {spec!r}: parameter" in err
        assert "could not convert" not in err

    def test_non_integer_port_header(self, capsys, tmp_path):
        path = tmp_path / "ports.pbtres"
        path.write_text("PBTRES 1\nN=abc\nFORM=REDUCED\n1 0\n")
        code, out, err = run_cli(capsys, "choi", "--ports", "2", "--resource", str(path))
        assert code == 1
        assert out == ""
        assert "the N= header must be an integer, got 'abc'" in err
        assert "invalid literal" not in err

    @pytest.mark.parametrize("count", ["abc", "0_2", "+2", "\uff12", " 2"])
    def test_port_header_takes_ascii_digits_only(self, capsys, tmp_path, count):
        path = tmp_path / "ports.pbtres"
        path.write_text(f"PBTRES 1\nN={count}\nFORM=REDUCED\n1 0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "choi", "--ports", "2", "--resource", str(path))
        assert code == 1
        assert out == ""
        assert f"the N= header must be an integer, got {count!r}" in err

    def test_non_finite_grid(self, capsys):
        code, _, err = run_cli(capsys, "ad-sweep", "--ports", "3", "--p0", "0.5",
                               "--family", "choi", "--grid", "nan:1:0.1")
        assert code == 1
        assert "start and stop must be finite" in err

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan"])
    def test_figure_comparison_rejects_bad_step(self, capsys, tmp_path, step):
        code, _, err = run_cli(capsys, "figure", "--id", "4", "--out", str(tmp_path),
                               "--step", step)
        assert code == 1
        assert "step must be finite and > 0" in err
        assert list(tmp_path.glob("*.csv")) == []

    def test_kraus_rejects_invalid_channel(self, capsys, monkeypatch):
        # a state that is not trace preserving as a channel (idler marginal != I/2)
        monkeypatch.setattr(cli, "choi_from_reduced",
                            lambda reduced: np.diag([1, 0, 0, 0]).astype(complex))
        code, out, err = run_cli(capsys, "kraus", "--ports", "2", "--resource", "bell")
        assert code == 2
        assert "invalid output Choi matrix" in err
        assert "K1:" not in out

    @pytest.mark.parametrize("command", ["choi", "kraus"])
    def test_rejects_port_asymmetric_file(self, capsys, tmp_path, command):
        # a random n=3 state: the closed form would give a channel that is
        # not trace preserving
        rho = random_density(2 ** 6, np.random.default_rng(20191223))
        path = tmp_path / "asym.pbtres"
        save_resource(path, FullResource(n=3, rho_ab=rho))
        code, out, err = run_cli(capsys, command, "--ports", "3", "--resource", str(path))
        assert code == 1
        assert "not port symmetric" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["choi", "kraus"])
    def test_rejects_file_with_non_psd_joint_operator(self, capsys, tmp_path, command):
        # r11 and r22 are positive, the joint (A, B_1) operator is not: the file
        # is refused, not turned into an invalid output Choi matrix
        bell = make_family(cli.parse_resource("bell"), 3).reduced
        path = tmp_path / "coherent.pbtres"
        save_resource(path, ReducedResource(3, bell.r11, 3 * bell.r12, 3 * bell.r21, bell.r22))
        code, out, err = run_cli(capsys, command, "--ports", "3", "--resource", str(path))
        assert code == 1
        assert "resource reduced to (A, B_1) is not positive semidefinite" in err
        assert "invalid output Choi matrix" not in err
        assert out == ""

    @pytest.mark.parametrize("grid", ["0:1:1e-300", "0:1:1e-12"])
    def test_rejects_grid_with_too_many_points(self, capsys, grid):
        code, out, err = run_cli(capsys, "ad-sweep", "--ports", "3", "--p0", "0.5",
                                 "--family", "choi", "--grid", grid)
        assert code == 1
        assert f"more than {cli.MAX_GRID_POINTS} points" in err
        assert out == ""

    def test_figure_rejects_step_below_float_spacing(self, tmp_path):
        # a child process, so that a loop that never advances fails by timeout
        proc = run_cli_process("figure", "--id", "4", "--out", str(tmp_path), "--step", "1e-20")
        assert proc.returncode == 1
        assert f"more than {cli.MAX_GRID_POINTS} points" in proc.stderr
        assert list(tmp_path.glob("*.csv")) == []

    def test_grid_points_limit(self):
        assert len(cli.grid_points(0.0, 1.0, 2e-6)) == 500_001
        for step in (1e-6, 1e-12, 1e-20, 1e-300, 5e-324):  # 10^6 + 1 points and more
            with pytest.raises(ValueError, match=f"more than {cli.MAX_GRID_POINTS} points"):
                cli.grid_points(0.0, 1.0, step)

    def test_rejects_port_count_before_allocating(self):
        # n = 13 product blocks would take 4 GiB: under a 3 GB cap the product
        # route runs because it allocates none; above its cap it stops early
        proc = run_cli_process("choi", "--ports", "13", "--resource", "bell",
                               memory_bytes=3 * 10 ** 9)
        assert proc.returncode == 0, proc.stderr
        got = np.array([[complex(tok) for tok in line.split()]
                        for line in proc.stdout.strip().splitlines()])
        np.testing.assert_allclose(got, depolarizing_choi(xi(13)), atol=1e-11)
        over = MAX_PRODUCT_PORTS + 1
        proc = run_cli_process("choi", "--ports", str(over), "--resource", "bell",
                               memory_bytes=3 * 10 ** 9)
        assert proc.returncode == 1
        assert f"port count must be in 1..{MAX_PRODUCT_PORTS}, got {over}" in proc.stderr

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_products_need_two_ports(self, capsys, n):
        code, out, err = run_cli(capsys, "choi", "--ports", n, "--resource", "bell")
        assert code == 1
        assert out == ""

    def test_sweep_families_need_two_ports_alike(self, capsys):
        # the alternate family printed 51 rows at one port
        outcomes = {family: run_cli(capsys, "ad-sweep", "--ports", "1", "--p0", "0.5",
                                    "--family", family)
                    for family in ("choi", "alternate")}
        assert outcomes["choi"] == outcomes["alternate"]
        code, out, err = outcomes["alternate"]
        assert code == 1
        assert out == ""
        assert err == "pbtsim: error: at least two ports are required\n"

    @pytest.mark.parametrize("n", [0, -1, 13])
    def test_rejects_file_port_count_without_traceback(self, tmp_path, n):
        path = tmp_path / "ports.pbtres"
        path.write_text(f"PBTRES 1\nN={n}\nFORM=FULL\n1 0\n")
        proc = run_cli_process("choi", "--ports", "2", "--resource", str(path))
        assert proc.returncode == 1
        assert f"port count must be in 1..12, got {n}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_verify_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_verification", lambda k: (1e-3, [("n=2 bell", 1e-3)]))
        code, _, err = run_cli(capsys, "verify", "--max-ports", "2")
        assert code == 2
        assert "FAILED" in err

    def test_verify_prints_values_only_above_threshold(self, capsys, monkeypatch):
        results = [("n=2 bell", 1e-3), ("n=2 ad:0", 3e-17)]
        monkeypatch.setattr(cli, "run_verification", lambda k: (1e-3, results))
        code, out, _ = run_cli(capsys, "verify", "--max-ports", "2")
        assert code == 2
        assert out.splitlines() == ["n=2 bell: max deviation 1.000e-03",
                                    "n=2 ad:0: max deviation below 1e-10",
                                    "worst: 1.000e-03"]


class TestSweeps:
    def test_sweep_stdout_and_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys, "ad-sweep", "--ports", "3", "--p0", "0.5", "--family", "choi",
            "--grid", "0:0.5:0.25",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param,trace_norm,diamond_lower,diamond_upper,diamond_numeric"
        for line in lines[1:]:
            _, tn, lo, up, num = (float(v) for v in line.split(","))
            assert tn == lo
            assert lo - 1e-6 <= num <= up + 1e-6

    @pytest.mark.parametrize("family", ["choi", "alternate"])
    def test_sweep_rows_compute_bounds_once(self, monkeypatch, family):
        grid = np.linspace(0.1, 0.9, 9)
        target = analysis.ad_choi(0.5, "plus")
        channel = pbt_ad_choi if family == "choi" else analysis.alternate_choi
        want = []
        for param in grid:
            lower, upper = analysis.diamond_bounds(channel(3, param), target)
            want.append([param, lower, lower, upper,
                         analysis.diamond_numeric(channel(3, param), target)])
        bounds, calls = analysis.diamond_bounds, []

        def counted(x, y):
            calls.append(1)
            return bounds(x, y)

        monkeypatch.setattr(analysis, "diamond_bounds", counted)
        assert cli.sweep_rows(3, 0.5, family, grid) == want
        assert len(calls) == len(grid)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["ad-sweep", "--ports", "3", "--p0", "0.4", "--family", "alternate",
                "--grid", "0.5:0.7:0.1"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_figure_one_writes_panels(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "figure", "--id", "1", "--out", str(tmp_path), "--step", "0.5",
        )
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert files == ["fig1_p0_0.36.csv", "fig1_p0_0.7.csv"]
        header = (tmp_path / "fig1_p0_0.36.csv").read_text().splitlines()[0]
        assert header == "param,trace_norm,diamond_lower,diamond_upper,diamond_numeric"

    @pytest.mark.parametrize("command", ["ad-sweep", "figure"])
    def test_no_seed_or_restarts_options(self, capsys, command):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        out = capsys.readouterr().out
        assert "--seed" not in out
        assert "--restarts" not in out


# Runs CLI commands in one process and prints, as JSON, what each printed and
# which scipy modules they loaded; with "block", any import of scipy raises.
_RUN_COMMANDS = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None
import numpy as np
import pbtsim
from pbtsim import analysis, cli
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results.append([code, out.getvalue()])
loaded_by_cli = sorted(m for m, v in sys.modules.items() if v and m.split(".")[0] == "scipy")
# a pair off the X shape, which only the Bloch-ball search handles
off_x = analysis.pbt_ad_choi(4, 0.2)
off_x[0, 1] = off_x[1, 0] = off_x[2, 3] = off_x[3, 2] = 1e-6
target = analysis.ad_choi(0.5)
try:
    value = analysis.diamond_numeric(off_x, target)
except ImportError:
    value = None
print(json.dumps({"results": results, "loaded_by_cli": loaded_by_cli, "off_x": value,
                  "bounds": analysis.diamond_bounds(off_x, target),
                  "optimize_loaded": "scipy.optimize" in sys.modules}))
"""

_SCIPY_FREE_COMMANDS = [
    ["choi", "--ports", "5", "--resource", "ad:0.3"],
    ["choi", "--ports", "50", "--resource", "alternate:0.7"],
    ["kraus", "--ports", "4", "--resource", "alternate:0.13"],
    ["kraus", "--ports", "3", "--resource", "ad:1"],
    ["protocol-kraus", "--ports", "3"],
    ["verify", "--max-ports", "4"],
    ["xi", "--ports", "7"],
    ["ad-sweep", "--ports", "4", "--p0", "0.7", "--family", "choi"],
    ["ad-sweep", "--ports", "4", "--p0", "0.7", "--family", "alternate"],
]


class TestWithoutScipy:
    """The CLI needs no scipy: only the Bloch-ball search of diamond_numeric
    imports it, on its first call."""

    @staticmethod
    def _run(mode: str, out_dir) -> dict:
        argv = _SCIPY_FREE_COMMANDS + [["figure", "--id", str(i), "--out", str(out_dir)]
                                       for i in (1, 2, 3, 4)]
        proc = run_python("-c", _RUN_COMMANDS, mode, json.dumps(argv))
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        got["figures"] = {p.name: p.read_text() for p in sorted(out_dir.glob("*.csv"))}
        return got

    def test_cli_output_same_with_scipy_blocked(self, capsys, tmp_path):
        blocked = self._run("block", tmp_path / "blocked")
        assert blocked["loaded_by_cli"] == []
        assert blocked["off_x"] is None  # the search alone needs scipy
        free_dir = tmp_path / "free"
        for argv, (code, out) in zip(_SCIPY_FREE_COMMANDS, blocked["results"]):
            assert run_cli(capsys, *argv)[:2] == (code, out), argv
        for i, (code, out) in zip((1, 2, 3, 4), blocked["results"][len(_SCIPY_FREE_COMMANDS):]):
            want = run_cli(capsys, "figure", "--id", str(i), "--out", str(free_dir))
            assert code == want[0] == 0
            assert out == want[1].replace(str(free_dir), str(tmp_path / "blocked"))
        assert len(blocked["figures"]) == 8
        assert blocked["figures"] == {p.name: p.read_text() for p in sorted(free_dir.glob("*.csv"))}

    def test_search_imports_scipy_on_first_use(self, tmp_path):
        free = self._run("free", tmp_path)
        assert free["loaded_by_cli"] == []
        assert free["optimize_loaded"]
        lower, upper = free["bounds"]
        assert lower - 1e-12 <= free["off_x"] <= upper + 1e-12
        assert upper - lower > 1e-9  # the pair is not settled by the bounds alone
