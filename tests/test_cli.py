import numpy as np
import pytest

from pbtsim import cli
from pbtsim.analysis import pbt_ad_choi
from pbtsim.resources import AdChoi, FullResource, make_family, save_resource

from conftest import random_density


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimpleCommands:
    def test_xi_two_ports(self, capsys):
        code, out, _ = run_cli(capsys, "xi", "--ports", "2")
        assert code == 0
        assert out.strip() == "0.711324865405"

    def test_xi_three_ports(self, capsys):
        code, out, _ = run_cli(capsys, "xi", "--ports", "3")
        assert code == 0
        assert out.strip() == "0.5"

    def test_xi_many_ports(self, capsys):
        code, out, _ = run_cli(capsys, "xi", "--ports", "2000")
        assert code == 0
        assert 0 < float(out) < 1e-3

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

    def test_resource_file(self, capsys, tmp_path):
        path = tmp_path / "res.pbtres"
        save_resource(path, make_family(AdChoi(0.3), 2))
        code, out, _ = run_cli(capsys, "choi", "--ports", "2", "--resource", str(path))
        assert code == 0


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

    def test_non_finite_grid(self, capsys):
        code, _, err = run_cli(capsys, "ad-sweep", "--ports", "3", "--p0", "0.5",
                               "--family", "choi", "--grid", "nan:1:0.1")
        assert code == 1
        assert "start and stop must be finite" in err

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan"])
    def test_figure_comparison_rejects_bad_step(self, capsys, tmp_path, step):
        code, _, err = run_cli(capsys, "figure", "--id", "4", "--out", str(tmp_path),
                               "--step", step, "--restarts", "1")
        assert code == 1
        assert "step must be finite and > 0" in err
        assert list(tmp_path.glob("*.csv")) == []

    def test_kraus_rejects_invalid_channel(self, capsys, tmp_path):
        # a random n=3 state that is not port symmetric: its closed-form
        # channel is not trace preserving
        rho = random_density(2 ** 6, np.random.default_rng(20191223))
        path = tmp_path / "asym.pbtres"
        save_resource(path, FullResource(n=3, rho_ab=rho))
        code, out, err = run_cli(capsys, "kraus", "--ports", "3", "--resource", str(path))
        assert code == 2
        assert "invalid output Choi matrix" in err
        assert "K1:" not in out

    def test_verify_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_verification", lambda k: (1e-3, [("n=2 bell", 1e-3)]))
        code, _, err = run_cli(capsys, "verify", "--max-ports", "2")
        assert code == 2
        assert "FAILED" in err


class TestSweeps:
    def test_sweep_stdout_and_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys, "ad-sweep", "--ports", "3", "--p0", "0.5", "--family", "choi",
            "--grid", "0:0.5:0.25", "--restarts", "4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param,trace_norm,diamond_lower,diamond_upper,diamond_numeric"
        for line in lines[1:]:
            _, tn, lo, up, num = (float(v) for v in line.split(","))
            assert tn == lo
            assert lo - 1e-6 <= num <= up + 1e-6

    def test_byte_identical_reruns(self, tmp_path):
        args = ["ad-sweep", "--ports", "3", "--p0", "0.4", "--family", "alternate",
                "--grid", "0.5:0.7:0.1", "--seed", "5", "--restarts", "4"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_figure_one_writes_panels(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "figure", "--id", "1", "--out", str(tmp_path),
            "--step", "0.5", "--restarts", "2",
        )
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert files == ["fig1_p0_0.36.csv", "fig1_p0_0.7.csv"]
        header = (tmp_path / "fig1_p0_0.36.csv").read_text().splitlines()[0]
        assert header == "param,trace_norm,diamond_lower,diamond_upper,diamond_numeric"
