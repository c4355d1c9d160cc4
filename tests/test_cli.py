import importlib.util
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import iid_lm
from wmstat import agnostic, schemes
from wmstat.cli import CsvTable, ConfigError, build_config, fmt, main
from wmstat.dist import DiscreteDist
from wmstat.plots import svg_line_plot
from wmstat.rates import hard_instance
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

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["rates", "--n_max", "many"], "n_max"),
            (["ump", "--rho", "0.5,x"], "rho"),
            (["robust", "--rho", "0.5,,0.5"], "rho"),
            (["agnostic", "--alpha", "1/0"], "alpha"),
        ],
        ids=["rates-n_max", "ump-rho", "robust-rho-empty-entry", "agnostic-alpha-zero-denominator"],
    )
    def test_bad_value_names_key(self, capsys, argv, key):
        assert main(argv + ["--seed", "1"]) == 2
        assert f"key '{key}'" in capsys.readouterr().err

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# comment\nh=0.2\nalpha=0.05\nbeta=0.05\nn_max=64\nseed=9\n")
        parsed = build_config(["rates", "--config", str(cfg), "--h", "0.1"])
        assert parsed.params["h"] == 0.1  # command line wins
        assert parsed.params["alpha"] == 0.05
        assert parsed.seed == 9

    def test_cli_seed_wins_over_file_seed(self, tmp_path):
        cfg, out, alone, file_seed = (tmp_path / name for name in ("exp.cfg", "a", "b", "c"))
        cfg.write_text("seed=3\n")
        args = ["agnostic", "--instances", "2"]
        assert main([*args, "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
        assert main([*args, "--seed", "5", "--out", str(alone)]) == 0
        assert main([*args, "--config", str(cfg), "--out", str(file_seed)]) == 0
        assert out.read_bytes() == alone.read_bytes() != file_seed.read_bytes()

    def test_out_and_svg_from_file(self, tmp_path):
        args = ["rates", "--h", "0.2", "--n_max", "256"]
        flags = tmp_path / "flags.csv", tmp_path / "flags.svg"
        assert main([*args, "--seed", "1", "--out", str(flags[0]), "--svg", str(flags[1])]) == 0
        cfg, filed = tmp_path / "exp.cfg", (tmp_path / "file.csv", tmp_path / "file.svg")
        cfg.write_text(f"seed=1\nout={filed[0]}\nsvg={filed[1]}\n")
        assert main([*args, "--config", str(cfg)]) == 0
        assert [p.read_bytes() for p in filed] == [p.read_bytes() for p in flags]

    def test_cli_out_wins_over_file_out(self, tmp_path):
        cfg, from_file, from_cli = tmp_path / "exp.cfg", tmp_path / "file.csv", tmp_path / "cli.csv"
        cfg.write_text(f"seed=1\nout={from_file}\n")
        parsed = build_config(["ump", "--config", str(cfg), "--out", str(from_cli)])
        assert parsed.out == from_cli
        assert main(["ump", "--config", str(cfg), "--out", str(from_cli)]) == 0
        assert from_cli.exists() and not from_file.exists()

    def test_first_config_file_wins(self, tmp_path):
        first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
        first.write_text("h=0.2\nseed=4\n")
        second.write_text("h=0.15\nalpha=0.05\nseed=9\n")
        parsed = build_config(["rates", "--config", str(first), "--config", str(second)])
        assert (parsed.params["h"], parsed.params["alpha"], parsed.seed) == (0.2, 0.05, 4)

    def test_config_file_bad_line(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("h 0.2\n")
        with pytest.raises(ConfigError, match=re.escape(f"{cfg}, line 1: expected key=value")):
            build_config(["rates", "--config", str(cfg), "--seed", "1"])

    def test_key_twice_in_one_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("h=0.2\n# later\nh = 0.3\n")
        with pytest.raises(ConfigError, match=re.escape(f"{cfg}, line 3: key 'h' given twice")):
            build_config(["rates", "--config", str(cfg), "--seed", "1"])
        assert main(["rates", "--config", str(cfg), "--seed", "1"]) == 2

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_prints_usage_to_stdout(self, capsys, flag):
        assert main([flag]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: wmstat <experiment>") and err == ""
        assert all(f"  {name}\n" in out for name in ("agnostic", "rates", "robust", "schemes", "ump"))

    def test_bare_command_prints_usage_and_exits_2(self, capsys):
        assert main([]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: wmstat <experiment>")

    @pytest.mark.parametrize(
        "argv, message",
        [(["ump", "seed", "1"], "expected --key value pairs, got 'seed'"),
         (["ump", "--seed"], "missing value for --seed")],
        ids=["bare-word", "missing-value"],
    )
    def test_input_checks(self, argv, message):
        with pytest.raises(ConfigError, match=message):
            build_config(argv)

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

    @pytest.mark.parametrize(
        "args, message",
        [
            (["ump", "--eps", "nan"], "eps must be >= 0, got nan"),
            (["schemes", "--scheme", "srl", "--trials", "100", "--delta", "nan"], "boost must be finite"),
            (["schemes", "--scheme", "srl", "--trials", "100", "--delta", "inf"], "boost must be finite"),
            (["schemes", "--scheme", "christ", "--trials", "100", "--entropy_threshold", "nan"],
             "entropy threshold"),
            (["agnostic", "--instances", "-1"], "instances must be >= 0"),
        ],
        ids=["ump-eps-nan", "srl-delta-nan", "srl-delta-inf", "christ-threshold-nan", "agnostic-instances"],
    )
    def test_bad_parameter_is_config_error(self, tmp_path, capsys, args, message):
        out = tmp_path / "r.csv"
        assert main([*args, "--seed", "1", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

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
        "args, text, message",
        [
            (["robust", "--rho", "0.5,0.5", "--graphs"], "vertices x\n", "line 1: expected int"),
            (["robust", "--rho", "0.5,0.5", "--graphs"], "# edges\nvertices 2\n\n0 y\n",
             "line 4: expected int"),
            (["schemes", "--scheme", "srl", "--lm"], "vocab x\n0.5 0.5\n", "line 1: expected int"),
            (["robust", "--rho", "0.5,0.5", "--graphs"], "# edges\nvertices -1\n",
             "line 2: vertices must be >= 1, got -1"),
            (["robust", "--rho", "0.5,0.5", "--graphs"], "vertices 0\n",
             "line 1: vertices must be >= 1, got 0"),
            (["schemes", "--scheme", "srl", "--lm"], "vocab -1\n0.5 0.5\n",
             "line 1: vocab must be >= 2, got -1"),
            (["schemes", "--scheme", "srl", "--lm"], "vocab 0\n0.5 0.5\n",
             "line 1: vocab must be >= 2, got 0"),
        ],
        ids=["vertices", "edge", "vocab", "vertices-negative", "vertices-zero", "vocab-negative",
             "vocab-zero"],
    )
    def test_non_integer_field_names_file_and_line(self, tmp_path, capsys, args, text, message):
        path = tmp_path / "in.txt"
        path.write_text(text)
        assert main(args + [f"@{path}", "--seed", "1"]) == 2
        assert f"{path}, {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, text, message",
        [
            (["robust", "--rho", "0.5,0.5", "--graphs"], "vertices 2\n0 1 2\n",
             "{path}, line 2: expected 'u v' pair, got '0 1 2'"),
            (["robust", "--rho", "0.5,0.5", "--graphs"], "vertices 2\n0 1\n0 5\n",
             "{path}, line 3: vertex 5 outside 0..1"),
            (["robust", "--rho", "0.5,0.5", "--graphs"], "vertices 2\n5 0\n",
             "{path}, line 2: vertex 5 outside 0..1"),
            (["schemes", "--scheme", "srl", "--lm"], "vocab 2\n0.5 0.4\n0.5 0.5\n0.5 0.5\n",
             "{path}, line 2: probabilities sum to 0.9, not 1"),
            (["schemes", "--scheme", "srl", "--lm"], "vocab 2\n0.5 0.5\n\n0.2 0.3 0.5\n0.5 0.5\n",
             "{path}, line 4: row has 3 entries, expected 2"),
            (["schemes", "--scheme", "srl", "--lm"], "vocab 2\n0.5 0.5\n0.5 0.5\n",
             "{path}: expected initial row plus 2 transition rows"),
            (["schemes", "--scheme", "srl", "--lm"], "# model\nvocabulary 2\n0.5 0.5\n",
             "{path}, line 2: first line must be 'vocab N', got 'vocabulary 2'"),
        ],
        ids=["edge-triple", "edge-target-range", "edge-source-range", "row-sum", "row-length",
             "row-count", "header-word"],
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, capsys, args, text, message):
        path = tmp_path / "in.txt"
        path.write_text(text)
        assert main(args + [f"@{path}", "--seed", "1"]) == 2
        assert message.format(path=path) in capsys.readouterr().err

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
    def test_rates_at_tiny_alpha(self, tmp_path):
        # the exact miss near n = 1 rounds past 1 before it is capped
        out = tmp_path / "r.csv"
        assert main(["rates", "--alpha", "1e-30", "--seed", "1", "--out", str(out)]) == 0
        betas = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert max(betas) == 1.0 and betas[-1] <= 0.01

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
        # raw cells go through fmt, the one formatting path
        raw = (True, False, 7, 0.1 + 0.2, Fraction(1, 3), "worst-uniform")
        t = CsvTable(header=tuple("abcdef"), rows=(raw, raw))
        line = ",".join(fmt(v) for v in raw)
        assert line == "1,0,7,0.30000000000000004,1/3,worst-uniform"
        assert t.to_text() == f"a,b,c,d,e,f\n{line}\n{line}\n"

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

    def test_agnostic_takes_each_gap_once(self, tmp_path, monkeypatch):
        # the loss and the Strassen check both come from one exact gap per row
        calls = []
        gap = agnostic._worst_gap
        monkeypatch.setattr(agnostic, "_worst_gap", lambda rho, law: calls.append(rho) or gap(rho, law))
        out = tmp_path / "a.csv"
        args = ["agnostic", "--n", "8", "--alpha", "1/4", "--instances", "5", "--seed", "3"]
        assert main(args + ["--out", str(out)]) == 0
        assert len(calls) == 6 == len(out.read_text().strip().split("\n")[1:])

    def test_agnostic_loss_is_the_worst_set_gap_past_the_subset_cap(self, tmp_path):
        # C(18, 6) = 18 564 subsets, more than agnostic.MAX_ENUM_SUBSETS: the
        # experiment enumerates none, so it runs
        out = tmp_path / "a.csv"
        assert main(["agnostic", "--n", "18", "--alpha", "1/3", "--seed", "1", "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
        law = agnostic.UniformRegionLaw(n=18, region_size=6)
        worst = DiscreteDist(probs=(Fraction(1, 3),) * 3 + (Fraction(0),) * 15)
        rng = substream(1, 0)
        rhos = [worst] + [DiscreteDist(probs=tuple(rng.dirichlet(np.ones(18)))) for _ in range(20)]
        assert [r[0] for r in rows] == ["worst-uniform"] + [f"random-{t}" for t in range(20)]
        assert [float(r[1]) for r in rows] == [agnostic.worst_set_gap(rho, law) for rho in rhos]

    def test_schemes_unknown_lm(self, capsys):
        assert main(["schemes", "--lm", "gpt", "--seed", "1"]) == 2
        assert "gpt" in capsys.readouterr().err

    def test_schemes_hard_preset(self, monkeypatch):
        # hard-0.1 is binary i.i.d. tokens: the initial law and both rows are hard_instance(0.1)
        seen = []

        def estimate(scheme, lm, trials, seed):
            seen.append(lm)
            return 0.0, 0.0

        monkeypatch.setattr(schemes, "estimate_type1", estimate)
        monkeypatch.setattr(schemes, "estimate_type2", estimate)
        assert main(["schemes", "--lm", "hard-0.1", "--scheme", "ump+christ", "--seed", "1"]) == 0
        assert seen == [iid_lm(hard_instance(0.1))] * 4

    @pytest.mark.parametrize("name", ["hard-0", "hard-1", "hard-x"])
    def test_schemes_bad_hard_preset(self, capsys, name):
        assert main(["schemes", "--lm", name, "--seed", "1"]) == 2
        assert f"lm preset {name!r}" in capsys.readouterr().err

    def test_schemes_unknown_lm_lists_hard(self, capsys):
        assert main(["schemes", "--lm", "hardly", "--seed", "1"]) == 2
        assert "'hard-<h>'" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "args",
        [["--scheme", "srl+nope", "--trials", "5000"], ["--scheme", "srl+its", "--n", "5"]],
        ids=["unknown-scheme", "its-too-short"],
    )
    def test_schemes_checked_before_any_estimate(self, monkeypatch, capsys, args):
        def estimate(*_args, **_kwargs):
            raise AssertionError("an estimate ran before every scheme was checked")

        monkeypatch.setattr(schemes, "estimate_type1", estimate)
        monkeypatch.setattr(schemes, "estimate_type2", estimate)
        assert main(["schemes", *args, "--seed", "1"]) == 2
        assert capsys.readouterr().err

    def test_svg_without_plot_hint_writes_nothing(self, tmp_path, capsys):
        out, svg = tmp_path / "a.csv", tmp_path / "a.svg"
        assert main(["agnostic", "--out", str(out), "--svg", str(svg), "--seed", "1"]) == 2
        assert "plot hint" in capsys.readouterr().err
        assert not out.exists() and not svg.exists()

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


@pytest.mark.parametrize(
    "rows, x_col, y_cols, message",
    [
        (((1, 2.0),), "n", ("beta",), "column 'beta' not in table header"),
        (((1, 2.0),), "x", ("y",), "column 'x' not in table header"),
        ((), "n", ("y",), "nothing to plot"),
        (((1, float("nan")), (2, float("inf"))), "n", ("y",), "nothing to plot"),
    ],
    ids=["y-column", "x-column", "no-rows", "no-finite-value"],
)
def test_plot_input_checks(tmp_path, rows, x_col, y_cols, message):
    path = tmp_path / "p.svg"
    with pytest.raises(ValueError, match=message):
        svg_line_plot(("n", "y"), rows, x_col, y_cols, path)
    assert not path.exists()
