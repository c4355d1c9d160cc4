"""Experiment runner.

Usage: ``wmstat <experiment> [--config FILE] [--key value ...] --seed S
[--out path.csv] [--svg path.svg]``.

Configuration is plain key=value lines; command-line ``--key value`` pairs
override the file.  Every experiment draws all randomness through
(seed, stream id) substreams and reduces in fixed order, so a given config
and seed produce byte-identical CSV on every run.  Exit codes: 0 success,
1 runtime resource limit, 2 bad configuration or input.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from . import agnostic, lm as lm_mod, rates, robust, schemes, ump
from .dist import DiscreteDist, ResourceLimit
from .plots import svg_line_plot
from .streams import substream


class ConfigError(Exception):
    """Bad experiment name, unknown key, or unparsable value."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict
    seed: int
    out: Path | None
    svg: Path | None = None


@dataclass(frozen=True)
class CsvTable:
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def to_text(self) -> str:
        lines = [",".join(self.header)]
        lines.extend(",".join(row) for row in self.rows)
        return "\n".join(lines) + "\n"


def fmt(value) -> str:
    """Full-precision cell formatting; floats round-trip exactly."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_probs(text: str) -> tuple[float, ...]:
    try:
        probs = tuple(float(tok) for tok in text.split(","))
    except ValueError as err:
        raise ConfigError(f"cannot parse probability list {text!r}: {err}") from None
    return probs


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"cannot parse fraction {text!r}: {err}") from None


@dataclass(frozen=True)
class Param:
    name: str
    parse: Callable[[str], object]
    default: object  # None means required
    help: str = ""


@dataclass(frozen=True)
class Experiment:
    name: str
    params: tuple[Param, ...]
    run: Callable[[dict, int], CsvTable]
    plot: tuple[str, tuple[str, ...]] | None = None  # (x column, y columns)


# ---------------------------------------------------------------------------
# experiment implementations


def _run_ump(params: dict, seed: int) -> CsvTable:
    rho = DiscreteDist(probs=params["rho"])
    eps = params["eps"]
    rows = []
    for alpha in params["alphas"]:
        closed = ump.optimal_type2(rho, alpha, eps)
        coupling = ump.ump_coupling(rho, alpha, eps)
        rows.append(
            tuple(
                fmt(v)
                for v in (
                    alpha,
                    eps,
                    closed,
                    ump.type2_exact(coupling),
                    ump.type1_exact(coupling),
                )
            )
        )
    return CsvTable(
        header=("alpha", "eps", "type2_closed_form", "type2_coupling", "type1"),
        rows=tuple(rows),
    )


def _run_rates(params: dict, seed: int) -> CsvTable:
    h, alpha, beta = params["h"], params["alpha"], params["beta"]
    rho0 = rates.hard_instance(h)
    lower = rates.min_tokens_lower_bound(h, alpha, beta)
    upper = rates.min_tokens_upper_bound(h, alpha, beta, rho0.k)
    _, curve = rates.n_required_empirical(rho0, alpha, beta, params["n_max"])
    rows = tuple(
        tuple(fmt(v) for v in (n, value, lower, upper))
        for n, value, _ in curve.entries
    )
    return CsvTable(header=("n", "beta_exact", "lower", "upper"), rows=rows)


def _run_agnostic(params: dict, seed: int) -> CsvTable:
    n = params["n"]
    alpha = params["alpha"]
    m = agnostic.integrality_check(n, alpha)
    law = agnostic.UniformRegionLaw(n=n, region_size=m)
    gamma = float(agnostic.max_type2_loss(n, alpha))
    rows = []

    def emit(label: str, rho: DiscreteDist) -> None:
        coupling, loss = agnostic.build_agnostic_coupling(rho, law)
        surplus = ump.clipped_surplus(rho.probs, float(alpha))
        budget = gamma + surplus
        ok = agnostic.strassen_condition_holds(rho, law, budget + 1e-9)
        rows.append(tuple(fmt(v) for v in (label, loss, gamma, surplus, budget, ok)))

    support = int(1 / alpha)
    worst = DiscreteDist(
        probs=tuple(Fraction(1, support) if j < support else Fraction(0) for j in range(n))
    )
    emit("worst-uniform", worst)
    rng = substream(seed, 0)
    for t in range(params["instances"]):
        emit(f"random-{t}", DiscreteDist(probs=tuple(rng.dirichlet(np.ones(n)))))
    return CsvTable(
        header=("instance", "loss", "gamma", "surplus", "budget", "strassen_ok"),
        rows=tuple(rows),
    )


_GRAPH_PRESETS = ("selfloops", "complete", "chain", "cycle")


def _graph_for(name: str, n: int) -> robust.PerturbationGraph:
    if name == "selfloops":
        return robust.PerturbationGraph.self_loops_only(n)
    if name == "complete":
        return robust.PerturbationGraph.complete(n)
    if name == "chain":
        return robust.PerturbationGraph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    if name == "cycle":
        return robust.PerturbationGraph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])
    if name.startswith("@"):
        return robust.load_graph(name[1:])
    raise ConfigError(
        f"unknown graph {name!r}; use one of {_GRAPH_PRESETS} or @path/to/edge/file"
    )


def _run_robust(params: dict, seed: int) -> CsvTable:
    rho = DiscreteDist(probs=params["rho"])
    alpha = params["alpha"]
    rows = []
    for name in params["graphs"].split("+"):
        graph = _graph_for(name, rho.k)
        if graph.n != rho.k:
            raise ConfigError(f"rho has {rho.k} outcomes but graph {name!r} has {graph.n} vertices")
        for sum_row in (False, True):
            beta, solution = robust.robust_optimal_type2(rho, alpha, graph, sum_row)
            rows.append(
                tuple(fmt(v) for v in (name, sum_row, solution.objective, beta))
            )
    return CsvTable(header=("graph", "sum_row", "lp_value", "beta"), rows=tuple(rows))


_LM_PRESETS = {
    "fair-coin": lm_mod.fair_coin_lm,
    "biased-binary": lm_mod.biased_binary_lm,
    "drifting4": lambda: lm_mod.drifting_lm(4),
    "drifting6": lambda: lm_mod.drifting_lm(6),
    "deterministic": lm_mod.deterministic_lm,
}


def _scheme_for(name: str, lm: lm_mod.ToyLM, n: int, alpha: float, params: dict):
    if name == "srl":
        return schemes.SoftRedList(
            schemes.SoftRedListConfig(
                n=n,
                target_alpha=alpha,
                gamma=params["gamma"],
                delta=params["delta"],
                vocab_size=lm.vocab_size,
            )
        )
    if name == "christ":
        return schemes.ChristBinary(
            schemes.ChristBinaryConfig(
                n=n, target_alpha=alpha, entropy_threshold=params["entropy_threshold"]
            )
        )
    if name == "its":
        return schemes.InverseTransform(
            schemes.ItsConfig(
                n=n,
                target_alpha=alpha,
                resamples=params["resamples"],
                block_k=params["block_k"],
                vocab_size=lm.vocab_size,
            )
        )
    if name == "ump":
        return schemes.UmpSequence(schemes.UmpSequenceConfig(n=n, target_alpha=alpha))
    raise ConfigError(f"unknown scheme {name!r}; use srl, christ, its or ump")


def _run_schemes(params: dict, seed: int) -> CsvTable:
    preset = params["lm"]
    if preset.startswith("@"):
        lm = lm_mod.load_lm(preset[1:])
    elif preset in _LM_PRESETS:
        lm = _LM_PRESETS[preset]()
    else:
        raise ConfigError(
            f"unknown lm {preset!r}; use one of {sorted(_LM_PRESETS)} or @path/to/lm/file"
        )
    names = params["scheme"].split("+")
    if "christ" in names and lm.vocab_size != 2:
        raise ConfigError("scheme christ needs a binary lm preset")
    rows = []
    for name in names:
        scheme = _scheme_for(name, lm, params["n"], params["alpha"], params)
        est = schemes.estimate_errors(scheme, lm, params["trials"], seed)
        rows.append(
            tuple(
                fmt(v)
                for v in (
                    name,
                    params["n"],
                    params["alpha"],
                    est.type1,
                    est.type1_stderr,
                    est.type2,
                    est.type2_stderr,
                    est.trials,
                )
            )
        )
    return CsvTable(
        header=(
            "scheme",
            "n",
            "alpha",
            "type1",
            "type1_stderr",
            "type2",
            "type2_stderr",
            "trials",
        ),
        rows=tuple(rows),
    )


EXPERIMENTS: dict[str, Experiment] = {
    "ump": Experiment(
        name="ump",
        params=(
            Param("rho", _parse_probs, (0.5, 0.3, 0.2), "comma-separated outcome probabilities"),
            Param("eps", float, 0.0, "allowed TV distortion"),
            Param(
                "alphas",
                _parse_probs,
                (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
                "levels to sweep",
            ),
        ),
        run=_run_ump,
        plot=("alpha", ("type2_closed_form",)),
    ),
    "rates": Experiment(
        name="rates",
        params=(
            Param("h", float, 0.1, "per-token entropy of the hard instance"),
            Param("alpha", float, 0.01, "Type I target"),
            Param("beta", float, 0.01, "Type II target"),
            Param("n_max", int, 4096, "scan limit"),
        ),
        run=_run_rates,
        plot=("n", ("beta_exact",)),
    ),
    "agnostic": Experiment(
        name="agnostic",
        params=(
            Param("n", int, 8, "outcome count"),
            Param("alpha", _parse_fraction, Fraction(1, 4), "level (rational)"),
            Param("instances", int, 20, "random distributions to couple"),
        ),
        run=_run_agnostic,
    ),
    "robust": Experiment(
        name="robust",
        params=(
            Param("rho", _parse_probs, (0.5, 0.3, 0.2), "comma-separated probabilities"),
            Param("alpha", float, 0.2, "Type I target"),
            Param("graphs", str, "selfloops+chain+complete", "graph presets joined by +"),
        ),
        run=_run_robust,
    ),
    "schemes": Experiment(
        name="schemes",
        params=(
            Param("lm", str, "fair-coin", f"model preset, one of {sorted(_LM_PRESETS)}"),
            Param("scheme", str, "srl+christ+ump", "schemes joined by +"),
            Param("n", int, 100, "sequence length"),
            Param("alpha", float, 0.05, "detection level"),
            Param("trials", int, 400, "Monte Carlo trials per error"),
            Param("gamma", float, 0.5, "green fraction (srl)"),
            Param("delta", float, 2.0, "green boost (srl)"),
            Param("entropy_threshold", float, 3.0, "nats before keyed phase (christ)"),
            Param("resamples", int, 99, "permutation resamples (its)"),
            Param("block_k", int, 10, "block size (its)"),
        ),
        run=_run_schemes,
    ),
}


# ---------------------------------------------------------------------------
# config assembly and entry point


def load_config_file(path: str | Path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def build_config(argv: list[str]) -> ExperimentConfig:
    if not argv or argv[0] in ("-h", "--help"):
        raise ConfigError(usage())
    name = argv[0]
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}")
    spec = EXPERIMENTS[name]

    raw: dict[str, str] = {}
    out = svg = None
    seed_text = None
    i = 1
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("--"):
            raise ConfigError(f"expected --key value pairs, got {arg!r}")
        key = arg[2:]
        if i + 1 >= len(argv):
            raise ConfigError(f"missing value for --{key}")
        value = argv[i + 1]
        i += 2
        if key == "config":
            file_pairs = load_config_file(value)
            for k, v in file_pairs.items():
                raw.setdefault(k, v)  # command line wins over the file
        elif key == "out":
            out = Path(value)
        elif key == "svg":
            svg = Path(value)
        elif key == "seed":
            seed_text = value
        else:
            raw[key] = value
    if seed_text is None:
        seed_text = raw.pop("seed", None)
    if seed_text is None:
        raise ConfigError("missing required key 'seed'")
    try:
        seed = int(seed_text)
    except ValueError:
        raise ConfigError(f"seed must be an integer, got {seed_text!r}") from None

    for path in (out, svg):
        if path is not None and not path.parent.is_dir():
            raise ConfigError(f"cannot write {path}: directory {path.parent} does not exist")

    known = {p.name: p for p in spec.params}
    params: dict[str, object] = {}
    for key, text in raw.items():
        if key not in known:
            raise ConfigError(
                f"unknown key '{key}' for experiment {name!r}; "
                f"known keys: {sorted(known)}"
            )
        p = known[key]
        try:
            params[key] = p.parse(text)
        except ConfigError:
            raise
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad value for key '{key}': {err}") from None
    for p in spec.params:
        if p.name not in params:
            if p.default is None:
                raise ConfigError(f"missing required key '{p.name}'")
            params[p.name] = p.default
    return ExperimentConfig(experiment=name, params=params, seed=seed, out=out, svg=svg)


def usage() -> str:
    lines = ["usage: wmstat <experiment> [--config FILE] [--key value ...] --seed S"
             " [--out path.csv] [--svg path.svg]", "", "experiments:"]
    for name, spec in sorted(EXPERIMENTS.items()):
        lines.append(f"  {name}")
        for p in spec.params:
            lines.append(f"      --{p.name:<18} {p.help} (default {p.default!r})")
    return "\n".join(lines)


def run(config: ExperimentConfig) -> CsvTable:
    spec = EXPERIMENTS[config.experiment]
    table = spec.run(dict(config.params), config.seed)
    if config.out is not None:
        config.out.write_bytes(table.to_text().encode("utf-8"))
    if config.svg is not None:
        if spec.plot is None:
            raise ConfigError(f"experiment {config.experiment!r} has no plot hint")
        x_col, y_cols = spec.plot
        svg_line_plot(table.header, table.rows, x_col, y_cols, config.svg,
                      title=config.experiment)
    return table


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = build_config(argv)
        table = run(config)
    except ResourceLimit as err:
        print(f"runtime limit: {err}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, OSError) as err:
        print(str(err), file=sys.stderr)
        return 2
    if config.out is None:
        sys.stdout.write(table.to_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
