"""Experiment runner.

Usage: ``wmstat <experiment> [--config FILE] [--key value ...] --seed S
[--out path.csv] [--svg path.svg]``; ``wmstat --help`` prints it to stdout.

Config files are plain key=value lines, each key at most once.  Every key,
``seed``, ``out`` and ``svg`` included, may come from a file or from a
``--key value`` pair; the command line wins, and the first file to name a
key wins over later ones.  Every experiment draws all randomness through
(seed, stream id) substreams and reduces in fixed order, so a given config
and seed produce byte-identical CSV on every run.  ``agnostic`` takes each
row's exact worst-set gap once, for its loss (rounded) and its Strassen check
(exact), and builds no coupling, so it has no subset cap.
Exit codes: 0 success (``--help`` or ``-h`` included), 1 runtime resource
limit, 2 bad configuration or input (a bare ``wmstat`` included).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import agnostic, lm as lm_mod, rates, robust, schemes, ump
from .dist import DiscreteDist, ResourceLimit, read_lines
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
    """Raw cell values; ``to_text`` formats every cell with ``fmt``."""

    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_text(self) -> str:
        lines = [",".join(self.header)]
        lines.extend(",".join(map(fmt, row)) for row in self.rows)
        return "\n".join(lines) + "\n"


def fmt(value) -> str:
    """Full-precision cell formatting; floats round-trip exactly."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_probs(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


@dataclass(frozen=True)
class Param:
    name: str
    parse: Callable[[str], object]
    default: object  # None means required
    help: str = ""


@dataclass(frozen=True)
class Experiment:
    header: tuple[str, ...]
    params: tuple[Param, ...]
    run: Callable[[dict, int], Iterable[tuple]]  # raw row values, one tuple per CSV row
    plot: tuple[str, tuple[str, ...]] | None = None  # (x column, y columns)


# ---------------------------------------------------------------------------
# experiment implementations


def _run_ump(params: dict, seed: int) -> Iterable[tuple]:
    rho = DiscreteDist(probs=params["rho"])
    eps = params["eps"]
    for alpha in params["alphas"]:
        closed = ump.optimal_type2(rho, alpha, eps)
        coupling = ump.ump_coupling(rho, alpha, eps)
        yield alpha, eps, closed, ump.type2_exact(coupling), ump.type1_exact(coupling)


def _run_rates(params: dict, seed: int) -> Iterable[tuple]:
    h, alpha, beta = params["h"], params["alpha"], params["beta"]
    rho0 = rates.hard_instance(h)
    lower = rates.min_tokens_lower_bound(h, alpha, beta)
    upper = rates.min_tokens_upper_bound(h, alpha, beta, rho0.k)
    _, curve = rates.n_required_empirical(rho0, alpha, beta, params["n_max"])
    return [(n, value, lower, upper) for n, value, _ in curve.entries]


def _run_agnostic(params: dict, seed: int) -> Iterable[tuple]:
    n = params["n"]
    alpha = params["alpha"]
    if params["instances"] < 0:
        raise ConfigError(f"instances must be >= 0, got {params['instances']}")
    m = agnostic.integrality_check(n, alpha)
    law = agnostic.UniformRegionLaw(n=n, region_size=m)
    gamma = agnostic.max_type2_loss(n, alpha)

    def row(label: str, rho: DiscreteDist) -> tuple:
        gap = agnostic._worst_gap(rho, law)
        surplus = ump.clipped_surplus(rho.probs, float(alpha))
        exact_budget = gamma + sum(max(Fraction(p) - alpha, 0) for p in rho.probs)
        return label, float(gap), float(gamma), surplus, float(gamma) + surplus, gap <= exact_budget

    support = int(1 / alpha)
    worst = DiscreteDist(
        probs=tuple(Fraction(1, support) if j < support else Fraction(0) for j in range(n))
    )
    yield row("worst-uniform", worst)
    rng = substream(seed, 0)
    for t in range(params["instances"]):
        yield row(f"random-{t}", DiscreteDist(probs=tuple(rng.dirichlet(np.ones(n)))))


def _preset(kind: str, presets: dict, load: Callable, name: str, *args):
    """The preset ``name`` built from ``args`` (and ``name``, by a '<word>-<h>' key), or an '@'file."""
    if name.startswith("@"):
        return load(name[1:])
    if name in presets:
        return presets[name](*args)
    if (family := name.partition("-")[0] + "-<h>") in presets:
        try:
            return presets[family](name, *args)
        except ValueError as err:
            raise ConfigError(f"{kind} preset {name!r}: {err}") from None
    raise ConfigError(
        f"unknown {kind} {name!r}; use one of {sorted(presets)} or @path/to/{kind}/file"
    )


_GRAPH_PRESETS = {
    "selfloops": robust.PerturbationGraph.self_loops_only,
    "complete": robust.PerturbationGraph.complete,
    "chain": lambda n: robust.PerturbationGraph.from_edges(n, [(v, v + 1) for v in range(n - 1)]),
    "cycle": lambda n: robust.PerturbationGraph.from_edges(n, [(v, (v + 1) % n) for v in range(n)]),
}


def _run_robust(params: dict, seed: int) -> Iterable[tuple]:
    rho = DiscreteDist(probs=params["rho"])
    alpha = params["alpha"]
    for name in params["graphs"].split("+"):
        graph = _preset("graph", _GRAPH_PRESETS, robust.load_graph, name, rho.k)
        if graph.n != rho.k:
            raise ConfigError(f"rho has {rho.k} outcomes but graph {name!r} has {graph.n} vertices")
        for sum_row in (False, True):
            beta, solution = robust.robust_optimal_type2(rho, alpha, graph, sum_row)
            yield name, sum_row, solution.objective, beta


def _hard_lm(name: str) -> lm_mod.ToyLM:
    """``hard-<h>``: binary i.i.d. tokens, the initial law and each row ``rates.hard_instance(h)``."""
    row = rates.hard_instance(float(name.removeprefix("hard-")))
    return lm_mod.ToyLM(vocab_size=2, initial=row, transitions=(row, row))


_LM_PRESETS = {
    "fair-coin": lm_mod.fair_coin_lm,
    "biased-binary": lm_mod.biased_binary_lm,
    "drifting4": lambda: lm_mod.drifting_lm(4),
    "drifting6": lambda: lm_mod.drifting_lm(6),
    "deterministic": lm_mod.deterministic_lm,
    "hard-<h>": _hard_lm,
}


_SCHEMES = {
    "srl": (schemes.SoftRedList, schemes.SoftRedListConfig),
    "christ": (schemes.ChristBinary, schemes.ChristBinaryConfig),
    "its": (schemes.InverseTransform, schemes.ItsConfig),
    "ump": (schemes.UmpSequence, schemes.UmpSequenceConfig),
}


def _scheme_for(name: str, lm: lm_mod.ToyLM, params: dict):
    if name not in _SCHEMES:
        raise ConfigError(f"unknown scheme {name!r}; use one of {sorted(_SCHEMES)}")
    scheme_cls, config_cls = _SCHEMES[name]
    given = {**params, "target_alpha": params["alpha"], "vocab_size": lm.vocab_size}
    return scheme_cls(config_cls(**{f.name: given[f.name] for f in fields(config_cls)}))


def _run_schemes(params: dict, seed: int) -> Iterable[tuple]:
    lm = _preset("lm", _LM_PRESETS, lm_mod.load_lm, params["lm"])
    names = params["scheme"].split("+")
    if "christ" in names and lm.vocab_size != 2:
        raise ConfigError("scheme christ needs a binary lm preset")
    # every scheme is built, so every config checked, before the first estimate
    built = [(name, _scheme_for(name, lm, params)) for name in names]
    trials = params["trials"]
    for name, scheme in built:
        type1 = schemes.estimate_type1(scheme, lm, trials, seed)
        type2 = schemes.estimate_type2(scheme, lm, trials, seed)
        yield (name, params["n"], params["alpha"], *type1, *type2, trials)


EXPERIMENTS: dict[str, Experiment] = {
    "ump": Experiment(
        header=("alpha", "eps", "type2_closed_form", "type2_coupling", "type1"),
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
        header=("n", "beta_exact", "lower", "upper"),
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
        header=("instance", "loss", "gamma", "surplus", "budget", "strassen_ok"),
        params=(
            Param("n", int, 8, "outcome count"),
            Param("alpha", Fraction, Fraction(1, 4), "level (rational)"),
            Param("instances", int, 20, "random distributions to couple"),
        ),
        run=_run_agnostic,
    ),
    "robust": Experiment(
        header=("graph", "sum_row", "lp_value", "beta"),
        params=(
            Param("rho", _parse_probs, (0.5, 0.3, 0.2), "comma-separated probabilities"),
            Param("alpha", float, 0.2, "Type I target"),
            Param("graphs", str, "selfloops+chain+complete", "graph presets joined by +"),
        ),
        run=_run_robust,
    ),
    "schemes": Experiment(
        header=("scheme", "n", "alpha", "type1", "type1_stderr", "type2", "type2_stderr", "trials"),
        params=(
            Param("lm", str, "fair-coin", f"model preset, one of {sorted(_LM_PRESETS)}"),
            Param("scheme", str, "srl+christ+ump", "schemes joined by +"),
            Param("n", int, 100, "sequence length"),
            Param("alpha", float, 0.05, "detection level"),
            Param("trials", int, 400, "Monte Carlo trials per error"),
            Param("gamma", float, schemes.SoftRedListConfig.gamma, "green fraction (srl)"),
            Param("delta", float, schemes.SoftRedListConfig.delta, "green boost (srl)"),
            Param("entropy_threshold", float, schemes.ChristBinaryConfig.entropy_threshold,
                  "nats before keyed phase (christ)"),
            Param("resamples", int, schemes.ItsConfig.resamples, "permutation resamples (its)"),
            Param("block_k", int, schemes.ItsConfig.block_k,
                  "block size (its); power grows with n at block_k = n, not at the default"),
        ),
        run=_run_schemes,
    ),
}


# ---------------------------------------------------------------------------
# config assembly and entry point


def load_config_file(path: str | Path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in read_lines(path):
        if "=" not in line:
            raise ConfigError(f"{path}, line {lineno}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in pairs:
            raise ConfigError(f"{path}, line {lineno}: key {key!r} given twice")
        pairs[key] = value
    return pairs


def build_config(argv: list[str]) -> ExperimentConfig:
    if not argv:
        raise ConfigError(usage())
    name = argv[0]
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}")
    spec = EXPERIMENTS[name]

    raw: dict[str, str] = {}  # every key, from the command line or a config file
    args = iter(argv[1:])
    for arg in args:
        if not arg.startswith("--"):
            raise ConfigError(f"expected --key value pairs, got {arg!r}")
        value = next(args, None)
        if value is None:
            raise ConfigError(f"missing value for {arg}")
        if arg == "--config":
            for key, text in load_config_file(value).items():
                raw.setdefault(key, text)  # the command line and earlier files win
        else:
            raw[arg[2:]] = value

    out, svg = (Path(raw.pop(key)) if key in raw else None for key in ("out", "svg"))
    for path in (out, svg):
        if path is not None and not path.parent.is_dir():
            raise ConfigError(f"cannot write {path}: directory {path.parent} does not exist")
    if svg is not None and spec.plot is None:
        raise ConfigError(f"experiment {name!r} has no plot hint")

    known = {p.name: p for p in (Param("seed", int, None), *spec.params)}
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
        except (TypeError, ValueError, ZeroDivisionError) as err:
            raise ConfigError(f"bad value for key '{key}': {err}") from None
    for p in known.values():
        if p.name not in params:
            if p.default is None:
                raise ConfigError(f"missing required key '{p.name}'")
            params[p.name] = p.default
    seed = params.pop("seed")
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
    table = CsvTable(header=spec.header, rows=tuple(spec.run(dict(config.params), config.seed)))
    if config.out is not None:
        config.out.write_bytes(table.to_text().encode("utf-8"))
    if config.svg is not None:
        x_col, y_cols = spec.plot
        svg_line_plot(table.header, table.rows, x_col, y_cols, config.svg,
                      title=config.experiment)
    return table


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] in (["-h"], ["--help"]):
        print(usage())
        return 0
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
