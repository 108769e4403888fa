import numpy as np
import pytest

from bdris import metrics
from bdris.channel import ChannelSet, gen_rayleigh
from bdris.cli import main, read_matrix_csv, write_matrix_csv

from conftest import defective_maxdet_frame


def write_matrix(path, a):
    with open(path, "w", encoding="utf-8") as fh:
        write_matrix_csv(a, fh)


@pytest.fixture
def channel_files(tmp_path):
    f = gen_rayleigh(2, 8, seed=21)
    g = gen_rayleigh(2, 8, seed=22)
    f_path = tmp_path / "f.csv"
    g_path = tmp_path / "g.csv"
    write_matrix(f_path, f)
    write_matrix(g_path, g)
    return f, g, str(f_path), str(g_path)


class TestMatrixIO:
    def test_round_trip(self, tmp_path, complex_matrix):
        a = complex_matrix(1, 3, 4)
        path = tmp_path / "a.csv"
        write_matrix(path, a)
        back = read_matrix_csv(path)
        assert np.array_equal(back, a)  # 17 significant digits round-trip float64

    def test_token_forms(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1+2j,3\n-1.5-0.25j,2j\n")
        back = read_matrix_csv(path)
        assert back[0, 0] == 1 + 2j
        assert back[0, 1] == 3 + 0j
        assert back[1, 0] == -1.5 - 0.25j
        assert back[1, 1] == 2j

    def test_bad_token_reports_location(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1+2j\nnot-a-number\n")
        with pytest.raises(ValueError, match=":2"):
            read_matrix_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="inconsistent"):
            read_matrix_csv(path)


class TestSolveCommand:
    def test_solves_and_writes_theta(self, channel_files, tmp_path, capsys):
        f, g, f_path, g_path = channel_files
        out = tmp_path / "theta.csv"
        assert main(["solve", f_path, g_path, "--out", str(out)]) == 0
        theta = read_matrix_csv(out)
        ch = ChannelSet(f=f, g=g)
        det = metrics.abs_det(ch.f @ theta @ ch.g.conj().T)
        assert det == pytest.approx(metrics.d_max(ch), rel=1e-8)
        stdout = capsys.readouterr().out
        assert "d_max:" in stdout and "rank: 4" in stdout

    def test_theta_to_stdout(self, channel_files, capsys):
        f, g, f_path, g_path = channel_files
        assert main(["solve", f_path, g_path]) == 0
        stdout = capsys.readouterr().out.splitlines()
        theta = np.array([[complex(tok) for tok in line.split(",")] for line in stdout[:8]])
        assert theta.shape == (8, 8) and stdout[8] == "m: 8"
        assert stdout[9] == "rank: 4"  # the frame width, printed once
        ch = ChannelSet(f=f, g=g)
        assert metrics.abs_det(ch.f @ theta @ ch.g.conj().T) == pytest.approx(metrics.d_max(ch), rel=1e-8)

    def test_defective_frame_is_numerical_failure(self, channel_files, capsys):
        _, _, f_path, g_path = channel_files
        with defective_maxdet_frame():
            assert main(["solve", f_path, g_path]) == 2
        assert "numerical failure: Max-Det frame" in capsys.readouterr().err

    def test_missing_file_is_validation_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        assert main(["solve", missing, missing]) == 1
        assert "error" in capsys.readouterr().err


class TestRunCommand:
    CONFIG = (
        "experiment = rate_vs_snr\n"
        "trials = 2\n"
        "master_seed = 4\n"
        "n_t = 2\n"
        "n_r = 2\n"
        "m = 8\n"
        "snr_grid_db = 0, 10\n"
        "designs = max_det_symmetric, unitary_baseline\n"
    )

    def test_runs_config_deterministically(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert "wrote 8 records" in capsys.readouterr().out

    def test_seed_override_changes_output(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "99"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = rate_vs_snr\ntrials = 0\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "trials" in capsys.readouterr().err


class TestUsageErrors:
    """argparse's usage errors exit 1 like any other invalid input; 2 is a numerical failure."""

    @pytest.mark.parametrize("argv", [
        ["run"],  # no --config
        ["qstem", "--q", "x"],
        ["run", "--config", "exp.cfg", "--threads", "2"],  # no such option
    ])
    def test_usage_error_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: bdris" in capsys.readouterr().out


class TestQstemCommand:
    def test_channel_pair_mode(self, channel_files, tmp_path, capsys):
        _, _, f_path, g_path = channel_files
        out = tmp_path / "b.csv"
        code = main(["qstem", "--f", f_path, "--g", g_path, "--q", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# qstem q=3 M=8 Z0=50"
        stdout = capsys.readouterr().out
        assert "residual:" in stdout
        assert "phase: 0\n" in stdout

    def test_real_channels_exact_with_phase(self, tmp_path, capsys):
        # real F and G: Q itself has no q-stem realization, e^{j alpha} Q has
        # an exact one at the default q = 2r - 1
        paths = [str(tmp_path / name) for name in ("f.csv", "g.csv")]
        for path, seed in zip(paths, (31, 32)):
            write_matrix(path, gen_rayleigh(2, 6, seed=seed).real + 0j)
        assert main(["qstem", "--f", paths[0], "--g", paths[1]]) == 0
        summary = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
                       if line.startswith(("residual:", "phase:")))
        assert float(summary["residual"]) <= 1e-8
        assert 0.0 < float(summary["phase"]) < np.pi / 2

    @pytest.mark.parametrize("m", [5, 7])
    def test_default_q_is_exact_below_full_rank(self, tmp_path, capsys, m):
        # 4x4 links with 4 <= M < 8: the Max-Det design has rank M, and q = M - 1 stems realize it
        paths = [str(tmp_path / name) for name in ("f.csv", "g.csv")]
        for path, seed in zip(paths, (41, 42)):
            write_matrix(path, gen_rayleigh(4, m, seed=seed))
        assert main(["qstem", "--f", paths[0], "--g", paths[1]]) == 0
        summary = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
                       if line.startswith("residual:"))
        assert float(summary["residual"]) <= 1e-8
        assert main(["qstem", "--f", paths[0], "--g", paths[1], "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "b.csv").read_text().startswith(f"# qstem q={m - 1} M={m} ")

    def test_stdout_matches_out_file(self, channel_files, tmp_path, capsys):
        _, _, f_path, g_path = channel_files
        args = ["qstem", "--f", f_path, "--g", g_path, "--q", "3"]
        assert main(args) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "b.csv"
        assert main(args + ["--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert stdout.encode("utf-8") == out.read_bytes() + summary.encode("utf-8")

    @pytest.mark.parametrize("z0", ["inf", "nan"])
    def test_non_finite_z0_is_bad_input(self, channel_files, tmp_path, capsys, z0):
        _, _, f_path, g_path = channel_files
        theta_path = tmp_path / "theta.csv"
        write_matrix(theta_path, np.eye(3, dtype=complex))
        for mode in (["--f", f_path, "--g", g_path], ["--theta", str(theta_path)]):
            assert main(["qstem", *mode, "--z0", z0]) == 1
            captured = capsys.readouterr()
            assert "z0" in captured.err
            assert "# qstem" not in captured.out

    def test_nan_theta_is_bad_input(self, tmp_path, capsys):
        theta = np.eye(2, dtype=complex)
        theta[0, 1] = theta[1, 0] = np.nan
        theta_path = tmp_path / "theta.csv"
        write_matrix(theta_path, theta)
        assert main(["qstem", "--theta", str(theta_path)]) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_theta_mode_identity(self, tmp_path, capsys):
        theta_path = tmp_path / "theta.csv"
        write_matrix(theta_path, np.eye(3, dtype=complex))
        assert main(["qstem", "--theta", str(theta_path)]) == 0
        stdout = capsys.readouterr().out
        assert "# qstem q=3 M=3 Z0=50" in stdout

    def test_theta_off_unitary_beyond_frame_tol_is_bad_input(self, tmp_path, capsys):
        theta_path = tmp_path / "theta.csv"
        write_matrix(theta_path, (1.0 + 2e-10) * np.eye(4, dtype=complex))
        assert main(["qstem", "--theta", str(theta_path)]) == 1
        assert "unitary" in capsys.readouterr().err

    def test_theta_at_cayley_singularity_is_numerical_failure(self, tmp_path, capsys):
        theta_path = tmp_path / "theta.csv"
        write_matrix(theta_path, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        assert main(["qstem", "--theta", str(theta_path)]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_theta_and_channels_together_rejected(self, channel_files, tmp_path, capsys):
        _, _, f_path, _ = channel_files
        theta_path = tmp_path / "theta.csv"
        write_matrix(theta_path, np.eye(3, dtype=complex))
        assert main(["qstem", "--theta", str(theta_path), "--f", f_path]) == 1
        assert "either --theta or the channel pair" in capsys.readouterr().err

    def test_theta_with_stem_count_rejected(self, tmp_path, capsys):
        # --theta always writes the fully connected q = M matrix, so a stem count is a usage error
        theta_path, out = tmp_path / "theta.csv", tmp_path / "b.csv"
        write_matrix(theta_path, np.eye(3, dtype=complex))
        assert main(["qstem", "--theta", str(theta_path), "--q", "1", "--out", str(out)]) == 1
        assert "--q applies to --f/--g only" in capsys.readouterr().err
        assert not out.exists()

    def test_requires_one_input_mode(self, channel_files, capsys):
        _, _, f_path, _ = channel_files
        assert main(["qstem", "--f", f_path]) == 1
        assert "error" in capsys.readouterr().err
