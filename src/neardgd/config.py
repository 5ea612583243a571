"""Flat key = value run configuration.

One "key = value" per line; sections are dotted prefixes. A key with an
empty value opens an indented block (used for graph edge lists, one "i j"
pair per line). '#' starts a comment, on a block's lines too.
"""

import math
from dataclasses import dataclass, field

from .consensus import WEIGHT_RULES, ConsensusMatrix, build_consensus_matrix
from .diagnostics import CostModel
from .graph import (Graph, build_erdos_renyi, build_ring, build_star,
                    from_edge_list, is_connected)
from .objective import sample_quadratic_problem, sample_quartic_problem
from .optimizer import MethodSpec


class ConfigError(ValueError):
    pass


def parse_flat_config(text: str) -> dict:
    """Parse the flat key=value format into a {key: str} mapping."""
    values: dict[str, str] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        raw = lines[i]
        line = raw.split("#", 1)[0].rstrip()
        i += 1
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigError("malformed line (expected key = value): %r" % raw)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key in line %r" % raw)
        if value == "":
            block = []
            while i < len(lines) and lines[i].startswith((" ", "\t")) and lines[i].strip():
                block.append(lines[i].split("#", 1)[0].strip())
                i += 1
            value = "\n".join(filter(None, block))  # a comment line stays in the block
        if key in values:
            raise ConfigError("duplicate key %r" % key)
        values[key] = value
    return values


@dataclass
class RunConfig:
    """Validated experiment description built from a flat config mapping."""

    problem_kind: str = "quartic"
    n: int = 12
    p: int = 4
    index: int = 4
    c: float = 1.0
    problem_seed: int = 0
    graph_kind: str = "ring"
    graph_prob: float = 0.5
    graph_edges: str = ""
    weight_rule: str = "metropolis"
    method: MethodSpec = field(default_factory=lambda: MethodSpec("near-dgd-t", t=1))
    sweep_methods: list = field(default_factory=list)
    sweep_seeds: list = field(default_factory=list)
    alpha: float = 0.1
    budget: int = 1000
    seed: int = 0
    grad_tol: float | None = None
    allow_large_alpha: bool = False
    box_radius: float | None = None
    cost_model: CostModel = field(default_factory=CostModel)
    output_path: str = "trace.csv"
    # the (problem, graph) that validate() built from the fields above, so
    # that a command builds each once; None for a config made in code
    built: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def build_problem(self):
        if self.problem_kind == "quartic":
            return sample_quartic_problem(self.n, self.p, self.index, self.c,
                                          self.problem_seed)
        if self.problem_kind == "quadratic":
            return sample_quadratic_problem(self.n, self.p, self.problem_seed)
        raise ConfigError("unknown problem kind %r" % self.problem_kind)

    def build_graph(self) -> Graph:
        if self.graph_kind == "ring":
            g = build_ring(self.n)
        elif self.graph_kind == "star":
            g = build_star(self.n)
        elif self.graph_kind == "erdos-renyi":
            g = build_erdos_renyi(self.n, self.graph_prob, self.problem_seed)
        elif self.graph_kind == "edgelist":
            g = from_edge_list(self.n, self.graph_edges)
        else:
            raise ConfigError("unknown graph kind %r" % self.graph_kind)
        if not is_connected(g):
            raise ConfigError("graph is not connected")
        return g

    def build_consensus(self, g: Graph | None = None) -> ConsensusMatrix:
        """The weight rule and positive-definite shift of this config on g,
        by default on the graph it builds."""
        return build_consensus_matrix(self.build_graph() if g is None else g, self.weight_rule)


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(text):
    try:
        return _BOOL[text.lower()]
    except KeyError:
        raise ValueError("expected one of %s" % ", ".join(_BOOL)) from None


def seed(text):
    """A seed as NumPy's SeedSequence takes it: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError("expected a non-negative integer")
    return value


def load_run_config(text: str) -> RunConfig:
    """Parse and validate a config; every rejection is a ConfigError."""
    kv = parse_flat_config(text)
    try:
        return _build_run_config(kv)
    except ConfigError:
        raise
    except ValueError as exc:  # a method, topology or problem constructor
        raise ConfigError(str(exc)) from None


def _build_run_config(kv: dict) -> RunConfig:
    cfg = RunConfig()

    def take(key, cast, default):
        raw = kv.pop(key, None)
        if raw is None:
            return default
        try:
            return cast(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError("bad value for %s: %r (%s)" % (key, raw, exc)) from None

    cfg.problem_kind = take("problem.kind", str, cfg.problem_kind)
    cfg.n = take("problem.n", int, cfg.n)
    cfg.p = take("problem.p", int, cfg.p)
    cfg.index = take("problem.I", int, cfg.index)
    cfg.c = take("problem.c", float, cfg.c)
    cfg.problem_seed = take("problem.seed", seed, cfg.problem_seed)
    cfg.graph_kind = take("graph.kind", str, cfg.graph_kind)
    cfg.graph_prob = take("graph.prob", float, cfg.graph_prob)
    cfg.graph_edges = take("graph.edges", str, cfg.graph_edges)
    cfg.weight_rule = take("weights.rule", str, cfg.weight_rule)
    cfg.method = MethodSpec(take("method.name", str, cfg.method.name),
                            t=take("method.t", int, cfg.method.t),
                            period=take("method.period", int, cfg.method.period))
    cfg.sweep_methods = take("sweep.methods", lambda text: [
        MethodSpec.parse(tok) for tok in text.split(",") if tok.strip()], cfg.sweep_methods)
    cfg.sweep_seeds = take("sweep.seeds", lambda text: [
        seed(s) for s in text.replace(",", " ").split()], cfg.sweep_seeds)
    cfg.alpha = take("run.alpha", float, cfg.alpha)
    cfg.budget = take("run.budget", int, cfg.budget)
    cfg.seed = take("run.seed", seed, cfg.seed)
    cfg.grad_tol = take("run.grad_tol", float, cfg.grad_tol)
    cfg.allow_large_alpha = take("run.allow_large_alpha", _parse_bool,
                                 cfg.allow_large_alpha)
    cfg.box_radius = take("run.box_radius", float, cfg.box_radius)
    cfg.cost_model = CostModel(c_c=take("cost.c_c", float, 1.0),
                               c_g=take("cost.c_g", float, 1.0))
    cfg.output_path = take("output.path", str, cfg.output_path)

    if kv:
        raise ConfigError("unknown config keys: %s" % ", ".join(sorted(kv)))
    validate(cfg)
    return cfg


def validate(cfg: RunConfig):
    """Reject a config that cannot run; keep the problem and graph built
    to check it in cfg.built."""
    if cfg.budget < 0:
        raise ConfigError("run.budget must be >= 0")
    if not 0 < cfg.alpha < math.inf:  # NaN fails both comparisons
        raise ConfigError("run.alpha must be positive and finite")
    if cfg.weight_rule not in WEIGHT_RULES:
        raise ConfigError("unknown weight rule %r" % cfg.weight_rule)
    cfg.built = cfg.build_problem(), cfg.build_graph()


def load_run_config_file(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from None
    return load_run_config(text)
