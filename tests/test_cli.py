import importlib.util
from pathlib import Path

import numpy as np
import pytest

from wmstat.cli import CsvTable, ConfigError, build_config, fmt, main
from wmstat.streams import substream

ROOT = Path(__file__).resolve().parent.parent


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN_ALL = _load_script("run_all")


def run_cli(args, capsys=None):
    code = main(args)
    return code


class TestConfigParsing:
    def test_unknown_experiment(self, capsys):
        assert main(["frobnicate", "--seed", "1"]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_unknown_key_named_in_error(self, capsys):
        assert main(["rates", "--alpa", "0.01", "--seed", "1"]) == 2
        assert "alpa" in capsys.readouterr().err

    def test_missing_seed(self, capsys):
        assert main(["rates", "--h", "0.1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_bad_value_names_key(self, capsys):
        assert main(["rates", "--n_max", "many", "--seed", "1"]) == 2
        assert "n_max" in capsys.readouterr().err

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# comment\nh=0.2\nalpha=0.05\nbeta=0.05\nn_max=64\nseed=9\n")
        parsed = build_config(["rates", "--config", str(cfg), "--h", "0.1"])
        assert parsed.params["h"] == 0.1  # command line wins
        assert parsed.params["alpha"] == 0.05
        assert parsed.seed == 9

    def test_config_file_bad_line(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("h 0.2\n")
        with pytest.raises(Exception, match="key=value"):
            build_config(["rates", "--config", str(cfg), "--seed", "1"])

    def test_runtime_limit_exit_code(self, tmp_path, capsys):
        # n_max above the exact-scan cap is a runtime resource limit
        out = tmp_path / "r.csv"
        code = main(
            ["rates", "--h", "0.01", "--alpha", "0.01", "--beta", "0.01",
             "--n_max", "150000", "--seed", "1", "--out", str(out)]
        )
        assert code == 1
        assert "limit" in capsys.readouterr().err

    def test_bad_level_is_config_error(self, capsys):
        assert main(["ump", "--alphas", "1.5", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "alpha" in err and "limit" not in err

    def test_workers_key_rejected(self, capsys):
        assert main(["schemes", "--trials", "100", "--workers", "4", "--seed", "1"]) == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_missing_output_directory(self, tmp_path, flag):
        target = tmp_path / "no" / "such" / "dir" / "r.out"
        with pytest.raises(ConfigError, match="does not exist"):
            build_config(["rates", "--n_max", "64", "--seed", "1", flag, str(target)])
        assert main(["rates", "--n_max", "64", "--seed", "1", flag, str(target)]) == 2
        assert not target.parent.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        path = tmp_path / "absent.cfg"
        assert main(["ump", "--config", str(path), "--seed", "1"]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
    def test_empty_graph_file(self, tmp_path, capsys, text):
        path = tmp_path / "g.txt"
        path.write_text(text)
        assert main(["robust", "--rho", "0.5,0.5", "--graphs", f"@{path}", "--seed", "1"]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
    def test_empty_lm_file(self, tmp_path, capsys, text):
        path = tmp_path / "lm.txt"
        path.write_text(text)
        assert main(["schemes", "--lm", f"@{path}", "--scheme", "srl", "--seed", "1"]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, text, line",
        [
            (["robust", "--rho", "0.5,0.5", "--graphs"], "vertices x\n", 1),
            (["robust", "--rho", "0.5,0.5", "--graphs"], "# edges\nvertices 2\n\n0 y\n", 4),
            (["schemes", "--scheme", "srl", "--lm"], "vocab x\n0.5 0.5\n", 1),
        ],
        ids=["vertices", "edge", "vocab"],
    )
    def test_non_integer_field_names_file_and_line(self, tmp_path, capsys, args, text, line):
        path = tmp_path / "in.txt"
        path.write_text(text)
        assert main(args + [f"@{path}", "--seed", "1"]) == 2
        assert f"{path}, line {line}: expected int" in capsys.readouterr().err

    def test_rho_graph_size_mismatch_names_key_and_graph(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("vertices 2\n0 0\n1 1\n0 1\n")
        assert main(["robust", "--rho", "0.5,0.3,0.2", "--graphs", f"@{path}", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "rho" in err and str(path) in err

    def test_n_max_below_one(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["rates", "--n_max", "0", "--seed", "1", "--out", str(out)]) == 2
        assert "n_max" in capsys.readouterr().err
        assert not out.exists()


class TestCsvContract:
    def test_rates_columns_and_exit(self, tmp_path):
        out = tmp_path / "rates.csv"
        code = main(
            ["rates", "--h", "0.1", "--alpha", "0.01", "--beta", "0.01",
             "--n_max", "512", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        lines = text.split("\n")
        assert lines[0] == "n,beta_exact,lower,upper"
        assert text.endswith("\n") and "\r" not in text

    def test_byte_identical_reruns(self, tmp_path):
        args = ["schemes", "--lm", "fair-coin", "--scheme", "srl+ump", "--n", "30",
                "--alpha", "0.05", "--trials", "150", "--seed", "7"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_float_cells_roundtrip(self, tmp_path):
        out = tmp_path / "u.csv"
        assert main(["ump", "--rho", "0.5,0.3,0.2", "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        for row in lines[1:]:
            for cell in row.split(","):
                value = float(cell)
                assert fmt(value) == cell  # parse/print round trip, full precision

    def test_stdout_when_no_out(self, capsys):
        assert main(["ump", "--seed", "1"]) == 0
        got = capsys.readouterr().out
        assert got.startswith("alpha,eps,")

    def test_table_text_layout(self):
        t = CsvTable(header=("a", "b"), rows=(("1", "2.5"),))
        assert t.to_text() == "a,b\n1,2.5\n"

    @pytest.mark.skipif(
        not any((ROOT / "out").glob("*.csv")),
        reason="no out/*.csv: out/ is matched by .gitignore, so a checkout may lack it",
    )
    @pytest.mark.parametrize("args", RUN_ALL.RUNS, ids=[a[0] for a in RUN_ALL.RUNS])
    def test_golden_csv(self, tmp_path, args):
        # scripts/run_all.py's runs reproduce the committed out/ byte for byte
        name = args[0]
        out = tmp_path / f"{name}.csv"
        assert main(args + ["--seed", str(RUN_ALL.SEED), "--out", str(out)]) == 0
        assert out.read_bytes() == (ROOT / "out" / f"{name}.csv").read_bytes()

    @pytest.mark.skipif(
        not all((ROOT / "out" / f"scheme_power.{ext}").exists() for ext in ("csv", "svg")),
        reason="no out/scheme_power.csv or .svg: out/ is matched by .gitignore",
    )
    def test_golden_scheme_power(self, tmp_path, monkeypatch):
        # scripts/scheme_power_study.py reproduces the committed out/ byte for byte
        study = _load_script("scheme_power_study")
        monkeypatch.setattr(study, "OUT", tmp_path)
        study.run()
        for name in ("scheme_power.csv", "scheme_power.svg"):
            assert (tmp_path / name).read_bytes() == (ROOT / "out" / name).read_bytes()


class TestExperiments:
    def test_robust_reports_both_readings(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(
            ["robust", "--rho", "0.5,0.5", "--alpha", "0.2",
             "--graphs", "selfloops+complete", "--seed", "1", "--out", str(out)]
        ) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 4  # two graphs x two sum-row readings
        beta = {(r.split(",")[0], r.split(",")[1]): float(r.split(",")[3]) for r in rows}
        assert beta[("selfloops", "0")] == pytest.approx(0.6, abs=1e-9)
        assert beta[("complete", "0")] == pytest.approx(0.8, abs=1e-9)

    def test_agnostic_worst_case_row(self, tmp_path):
        out = tmp_path / "a.csv"
        assert main(
            ["agnostic", "--n", "8", "--alpha", "1/4", "--instances", "5",
             "--seed", "3", "--out", str(out)]
        ) == 0
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
        worst = rows[0]
        assert worst[0] == "worst-uniform"
        assert float(worst[1]) == pytest.approx(3 / 14, abs=1e-9)
        assert all(r[5] == "1" for r in rows)  # strassen holds at budget

    def test_schemes_unknown_lm(self, capsys):
        assert main(["schemes", "--lm", "gpt", "--seed", "1"]) == 2
        assert "gpt" in capsys.readouterr().err

    def test_schemes_lm_from_file(self, tmp_path):
        from wmstat.lm import fair_coin_lm, save_lm

        path = tmp_path / "lm.txt"
        save_lm(fair_coin_lm(), path)
        out = tmp_path / "s.csv"
        code = main(
            ["schemes", "--lm", f"@{path}", "--scheme", "srl", "--n", "30",
             "--trials", "150", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("scheme,")

    def test_schemes_christ_needs_binary(self, capsys):
        assert main(["schemes", "--lm", "drifting4", "--scheme", "christ", "--seed", "1"]) == 2
        assert "binary" in capsys.readouterr().err

    def test_svg_plot_written(self, tmp_path):
        out = tmp_path / "r.csv"
        svg = tmp_path / "r.svg"
        assert main(
            ["rates", "--h", "0.2", "--n_max", "256", "--seed", "1",
             "--out", str(out), "--svg", str(svg)]
        ) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text


class TestRngStream:
    def test_same_pair_same_sequence(self):
        a = substream(42, 0).random(1000)
        b = substream(42, 0).random(1000)
        assert np.array_equal(a, b)

    def test_distinct_ids_differ(self):
        a = substream(42, 0).random(1000)
        b = substream(42, 1).random(1000)
        assert int(np.sum(a != b)) >= 990

    def test_distinct_seeds_differ(self):
        a = substream(42, 0).random(1000)
        b = substream(43, 0).random(1000)
        assert int(np.sum(a != b)) >= 990
