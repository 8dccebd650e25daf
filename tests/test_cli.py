import hashlib
import json
import math

import numpy as np
import pytest

from sector_radius.cli import build_parser, main
from sector_radius.generator import GenConfig, random_accretive_dissipative, random_pd
from sector_radius.harness import DEFAULT_CONTEXT, DEFAULT_DIMS, DEFAULT_NORMS
from sector_radius.linalg import read_matrix, write_matrix
from sector_radius.norms import parse_norm


def run_cli(*args):
    return main(list(args))


class TestGenAndCompute:
    def test_gen_then_omega(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        assert run_cli("gen", "sectorial", "--n", "3", "--seed", "7", "--alpha", "0.5", "-o", str(m)) == 0
        out = tmp_path / "omega.json"
        assert run_cli("compute", "omega", "-i", str(m), "-o", str(out)) == 0
        data = json.loads(out.read_text())
        assert set(data) == {"value", "theta_star", "cert_error"}
        assert data["value"] > 0 and data["cert_error"] >= 0
        # Without -o the same JSON goes to stdout.
        capsys.readouterr()
        assert run_cli("compute", "omega", "-i", str(m)) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_omega_n_with_norm_flag(self, tmp_path):
        m = tmp_path / "m.json"
        run_cli("gen", "ginibre", "--n", "2", "--seed", "3", "-o", str(m))
        out = tmp_path / "o.json"
        assert run_cli("compute", "omega-n", "--norm", "sp:3", "-i", str(m), "-o", str(out)) == 0
        assert json.loads(out.read_text())["value"] > 0

    def test_range_csv(self, tmp_path):
        m = tmp_path / "m.json"
        run_cli("gen", "pd", "--n", "2", "--seed", "5", "-o", str(m))
        out = tmp_path / "range.csv"
        assert run_cli("compute", "range", "--samples", "16", "-i", str(m), "-o", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "theta,re,im"
        assert len(lines) == 17
        theta, re, im = (float(t) for t in lines[1].split(","))
        assert theta == 0.0 and re > 0

    def test_range_csv_is_pinned(self, tmp_path):
        # The bytes of a fixed 5 x 5 matrix's boundary at 2051 samples.
        j, k = np.indices((5, 5))
        write_matrix(tmp_path / "m.json", ((3 * j - 2 * k) % 7 - 3) / 4 + 1j * ((j * k + 2 * j + 1) % 5 - 2) / 8)
        out = tmp_path / "range.csv"
        assert run_cli("compute", "range", "--samples", "2051", "-i", str(tmp_path / "m.json"), "-o", str(out)) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "7a0c183f11f5daa8b605c3b474130882ca7fb1df80082e4a50947e6e38c218bc"

    def test_sector_rotation_json(self, tmp_path):
        m = tmp_path / "m.json"
        run_cli("gen", "sectorial", "--n", "3", "--seed", "11", "--alpha", "0.8", "-o", str(m))
        out = tmp_path / "s.json"
        assert run_cli("compute", "sector-rotation", "-i", str(m), "-o", str(out)) == 0
        data = json.loads(out.read_text())
        assert set(data) == {"accretive", "alpha", "z_re", "z_im", "lambda_min_re"}
        assert data["accretive"] is True
        assert math.hypot(data["z_re"], data["z_im"]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("what,seed,phase,accretive", [
        ("sector-index", 5, 1, True),
        ("sector-rotation", 9, 1, True),
        ("sector-rotation", 8, 1j, False),
    ])
    def test_sector_diagnostics_of_pd(self, tmp_path, what, seed, phase, accretive):
        # X = phase * P for positive definite P: the witness rotates X back
        # to P, so lambda_min_re is lambda_min(P) whether or not X is accretive.
        P = random_pd(GenConfig(3, seed))
        m = tmp_path / "m.json"
        write_matrix(m, phase * P)
        out = tmp_path / "s.json"
        assert run_cli("compute", what, "-i", str(m), "-o", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["accretive"] is accretive
        assert data["lambda_min_re"] == pytest.approx(np.linalg.eigvalsh(P)[0], rel=1e-9)
        assert data["lambda_min_re"] > 0

    @pytest.mark.parametrize("obj", [
        {"n": 1, "entries": [1.0]},
        {"n": 1, "entries": [["a", 0]]},
        {"n": 2, "entries": None},
        {"n": 1, "entries": [[True, False]]},
    ])
    def test_malformed_matrix_file(self, tmp_path, capsys, obj):
        m = tmp_path / "m.json"
        m.write_text(json.dumps(obj))
        assert run_cli("compute", "omega", "-i", str(m)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_sector_index_error_on_non_accretive(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        write_matrix(m, np.diag([1.0, -1.0]).astype(complex))
        assert run_cli("compute", "sector-index", "-i", str(m)) == 2
        assert "not accretive" in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["sector-index", "sector-rotation"])
    def test_overflowing_imaginary_part_is_not_sectorial(self, tmp_path, capsys, what):
        # D Im X D overflows while D Re X D = I: the index is within 1e-10
        # of pi/2, so the command fails rather than print an alpha.
        m = tmp_path / "m.json"
        write_matrix(m, 1e-200 * np.eye(2) + 1e200j * np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert run_cli("compute", what, "-i", str(m)) == 2
        assert "sector index is within 1e-10 of pi/2" in capsys.readouterr().err

    def test_gen_matrix_round_trip(self, tmp_path):
        m = tmp_path / "m.json"
        run_cli("gen", "unitary", "--n", "4", "--seed", "9", "-o", str(m))
        U = read_matrix(m)
        assert np.linalg.norm(U.conj().T @ U - np.eye(4)) <= 1e-12
        ad = tmp_path / "ad.json"
        assert run_cli("gen", "accretive-dissipative", "--n", "3", "--seed", "9", "-o", str(ad)) == 0
        assert np.array_equal(read_matrix(ad), random_accretive_dissipative(GenConfig(3, 9)))
        write_matrix(tmp_path / "copy.json", U)
        assert np.array_equal(read_matrix(tmp_path / "copy.json"), U)

    def test_overflowing_gen_keeps_the_output_file(self, tmp_path, capsys):
        # A scale of 1.7e308 is refused before any draw; the error must not
        # truncate a file that already holds a matrix.
        m = tmp_path / "m.json"
        assert run_cli("gen", "ginibre", "--n", "3", "--seed", "2", "-o", str(m)) == 0
        before = m.read_bytes()
        assert run_cli("gen", "ginibre", "--n", "3", "--seed", "2", "--scale", "1.7e308", "-o", str(m)) == 2
        assert "scale must lie in [2^-256, 2^256]" in capsys.readouterr().err
        assert m.read_bytes() == before


class TestVerify:
    def test_small_verify_run(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = run_cli(
            "verify", "--ids", "B_prod4,SA_omega_le_N,L2_block_tan",
            "--trials", "2", "--dims", "2,3", "--norms", "op,fro",
            "--seed", "42", "--out", str(report),
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "total certified_fail: 0" in text
        data = json.loads(report.read_text())
        assert set(data) == {"config", "results", "summary"}
        assert data["summary"]["ok"] is True
        assert len(data["results"]) == 6
        assert data["config"]["dims"] == [2, 3]

    def test_defaults_come_from_the_harness(self):
        args = build_parser().parse_args(["verify"])
        assert args.dims == list(DEFAULT_DIMS)
        assert [parse_norm(t) for t in args.norms.split(",")] == list(DEFAULT_NORMS)
        assert args.m == DEFAULT_CONTEXT.m_fold and not hasattr(args, "grid")

    def test_dims_range_syntax(self, tmp_path):
        report = tmp_path / "r.json"
        rc = run_cli(
            "verify", "--ids", "P1_re_mono", "--trials", "2", "--dims", "2..4",
            "--norms", "fro", "--seed", "1", "--out", str(report),
        )
        assert rc == 0
        assert json.loads(report.read_text())["config"]["dims"] == [2, 3, 4]
        for dims in ("4..2", ","):
            with pytest.raises(SystemExit):
                run_cli("verify", "--ids", "P1_re_mono", "--trials", "1", "--dims", dims)

    def test_unknown_id_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("verify", "--ids", "bogus", "--trials", "1")
        with pytest.raises(SystemExit):
            run_cli("verify", "--ids", ",", "--trials", "1")
        assert "empty id list" in capsys.readouterr().err

    def test_bad_settings_are_refused(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        run_cli("gen", "ginibre", "--n", "2", "--seed", "3", "-o", str(m))
        # There is no grid flag: every radius starts on grid 32.
        for args in (["verify", "--ids", "P1_re_mono", "--trials", "1"], ["compute", "omega-n", "-i", str(m)]):
            with pytest.raises(SystemExit) as exc:
                run_cli(*args, "--grid", "32")
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert "unrecognized arguments: --grid 32" in captured.err and captured.out == ""
        # A bad m_fold is refused before the first id runs, not at the
        # first m-fold id; a bad tolerance before the first radius.
        assert run_cli("verify", "--ids", "all", "--trials", "1", "--m", "1") == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: m_fold must be an integer >= 2")
        assert captured.out == ""
        assert run_cli("compute", "omega-n", "--norm", "tr", "--refine-tol", "-1", "-i", str(m)) == 2
        assert capsys.readouterr().err.startswith("error: refine_tol must be positive")

    def test_bad_norm_spec(self, capsys):
        for spec in ("sp:0.1", "sp:inf"):
            rc = run_cli("verify", "--ids", "P1_re_mono", "--trials", "1", "--norms", spec)
            assert rc == 2
            assert capsys.readouterr().err.startswith("error: ")


class TestTightenAndExplain:
    def test_tighten_b_prod4(self, tmp_path, capsys):
        report = tmp_path / "tighten.json"
        rc = run_cli("tighten", "--id", "B_prod4", "--trials", "3", "--seed", "4", "--out", str(report))
        assert rc == 0
        out = capsys.readouterr().out
        assert "max ratio" in out
        data = json.loads(report.read_text())
        assert data["summary"]["per_id"]["B_prod4"]["max_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_explain(self, capsys):
        rc = run_cli("explain", "--id", "T1_prod_sec_N")
        assert rc == 0
        out = capsys.readouterr().out
        assert "sec(a1) sec(a2)" in out
