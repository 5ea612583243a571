import inspect
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neardgd import checks, cli, config
from neardgd.cli import (EXIT_CHECK_FAILURE, EXIT_DIVERGENCE, EXIT_OK,
                         EXIT_VALIDATION, main)
from neardgd.config import ConfigError, load_run_config, parse_flat_config
from neardgd.graph import build_erdos_renyi
from neardgd.optimizer import METHOD_NAMES, MethodSpec, run

SMALL = """
# small quartic instance
problem.kind = quartic
problem.n = 4
problem.p = 2
problem.I = 2
problem.c = 1.0
problem.seed = 0
graph.kind = ring
method.name = near-dgd-t
method.t = 2
run.alpha = 0.1
run.budget = 50
run.seed = 3
cost.c_c = 0.01
output.path = trace.csv
"""


def small_running(name):
    """SMALL with method.name = name and the parameter line of the method,
    if it carries one."""
    param = {"near-dgd-t": "\nmethod.t = 2", "near-dgd-plus-doubling": "\nmethod.period = 100"}
    return SMALL.replace("method.name = near-dgd-t\nmethod.t = 2",
                         "method.name = %s%s" % (name, param.get(name, "")))


# ---------------------------------------------------------------------------
# Config parsing

def test_parse_flat_config_basics():
    kv = parse_flat_config("a = 1\n# comment\nb.c = two words  # trailing\n")
    assert kv == {"a": "1", "b.c": "two words"}


def test_parse_flat_config_block_value():
    kv = parse_flat_config("graph.edges =\n  0 1\n  1 2\nother = 3\n")
    assert kv["graph.edges"] == "0 1\n1 2"
    assert kv["other"] == "3"


def test_parse_flat_config_errors():
    with pytest.raises(ConfigError):
        parse_flat_config("just a line\n")
    with pytest.raises(ConfigError):
        parse_flat_config("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_flat_config("= 1\n")


def test_load_run_config_roundtrip():
    cfg = load_run_config(SMALL)
    assert cfg.n == 4 and cfg.p == 2 and cfg.index == 2
    assert cfg.method == MethodSpec("near-dgd-t", t=2)
    assert cfg.budget == 50 and cfg.seed == 3
    assert cfg.cost_model.c_c == pytest.approx(0.01)
    prob = cfg.build_problem()
    assert (prob.n, prob.p) == (4, 2)
    cm = cfg.build_consensus()
    assert cm.W.shape == (4, 4)


def test_load_run_config_defaults_match_paper_setup():
    cfg = load_run_config("")
    assert (cfg.n, cfg.p, cfg.index, cfg.c) == (12, 4, 4, 1.0)
    assert cfg.alpha == 0.1 and cfg.graph_kind == "ring"


def test_load_run_config_sweep_lists():
    cfg = load_run_config(
        "sweep.methods = near-dgd-t:1, near-dgd-t:5, dgd\nsweep.seeds = 0, 1, 2\n")
    assert [m.label() for m in cfg.sweep_methods] == ["near-dgd-t:1", "near-dgd-t:5", "dgd"]
    assert cfg.sweep_seeds == [0, 1, 2]


def test_load_run_config_edge_list_graph():
    cfg = load_run_config(
        "problem.n = 3\nproblem.I = 1\nproblem.p = 1\n"
        "graph.kind = edgelist\ngraph.edges =\n  0 1\n  1 2\n")
    g = cfg.build_graph()
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_load_run_config_rejects_unknown_and_invalid():
    with pytest.raises(ConfigError):
        load_run_config("run.warp_speed = 9\n")
    with pytest.raises(ConfigError):
        load_run_config("run.alpha = -1\n")
    with pytest.raises(ConfigError, match=r"^index 9 outside 1\.\.4$"):
        load_run_config("problem.I = 9\n")  # the sampler's check
    with pytest.raises(ConfigError):
        load_run_config("run.budget = oops\n")
    with pytest.raises(ConfigError):
        load_run_config("graph.kind = moebius\n")
    with pytest.raises(ConfigError, match="weight rule"):
        load_run_config("weights.rule = nope\n")
    with pytest.raises(ConfigError):
        load_run_config("method.name = near-dgd-t\nmethod.t = 0\n")
    with pytest.raises(ConfigError, match="^node count must be at least 1, got 0$"):
        load_run_config("problem.n = 0\n")  # the sampler's check
    with pytest.raises(ConfigError, match=r"^run\.budget must be >= 0$"):
        load_run_config("run.budget = -1\n")


@pytest.mark.parametrize("text, edges", [
    ("graph.kind = star\n", {(0, i) for i in range(1, 12)}),
    # prob = 1 keeps every pair; prob = 0.3 is the sampler's draw on problem.seed
    ("graph.kind = erdos-renyi\ngraph.prob = 1\n",
     {(i, j) for i in range(12) for j in range(i + 1, 12)}),
    ("graph.kind = erdos-renyi\ngraph.prob = 0.3\nproblem.seed = 4\n",
     build_erdos_renyi(12, 0.3, 4).edges)], ids=["star", "complete", "erdos-renyi"])
def test_load_run_config_builds_each_graph_kind(text, edges):
    assert load_run_config(text).built[1].edges == frozenset(edges)


def test_method_keys_without_a_name_apply_to_the_default_method():
    # method.name defaults to near-dgd-t, as RunConfig's method does
    assert load_run_config("method.t = 5\n").method == MethodSpec("near-dgd-t", t=5)
    assert load_run_config("method.name = near-dgd-plus-doubling\nmethod.period = 7\n") \
        .method == MethodSpec("near-dgd-plus-doubling", period=7)
    # a parameter the method does not carry is rejected, not dropped
    for text, says in (("method.period = 7\n", "near-dgd-t takes no period, got period=7"),
                       ("method.name = dgd\nmethod.t = 5\n", "dgd takes no t, got t=5")):
        with pytest.raises(ConfigError, match="^method %s$" % says):
            load_run_config(text)
    for text in ("method.t = 0\n", "method.period = 0\n", "method.t = x\n"):
        with pytest.raises(ConfigError):
            load_run_config(text)


# ---------------------------------------------------------------------------
# CLI

def write_config(tmp_path, text=SMALL, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)

def test_cmd_run_writes_trace(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "method=near-dgd-t:2" in out and "f_err=" in out
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert lines[0] == "k,t_k,comms,grads,f_err,grad_avg_norm,cons_dist,lyapunov,descent_residual,dist_saddle,cost"
    assert len(lines) == 52  # 50 iteration rows + terminal row + header
    assert all(line.split(",")[1] == "2" for line in lines[1:])


@pytest.mark.parametrize("method, budget, na", [
    ("near-dgd-t", 50, []), ("near-dgd-plus", 50, ["eq7"]), ("dgd", 50, ["eq7", "cons_gap"]),
    ("near-dgd-t", 0, ["eq7", "cons_gap"])],
    ids=["near-dgd-t", "near-dgd-plus", "dgd", "budget0"])
def test_cmd_run_summary_shows_certificates(tmp_path, capsys, method, budget, na):
    # a certificate the method does not evaluate, or any certificate of a
    # run with no iteration, reads n/a, not its untouched initial value
    # (eq7=0, cons_gap=-inf)
    text = small_running(method).replace("run.budget = 50", "run.budget = %d" % budget)
    cfg = write_config(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    fields = dict(token.split("=", 1) for token in capsys.readouterr().out.split())
    loaded = load_run_config(text)
    res = run(loaded.build_problem(), loaded.build_consensus(), loaded.method,
              loaded.alpha, loaded.budget, seed=loaded.seed, cost_model=loaded.cost_model)
    for key, value, tol in (("eq7", res.max_eq7_inf, 1e-10),
                            ("cons_gap", res.max_cons_gap, 1e-12)):
        if key in na:
            assert fields[key] == "n/a"
        else:
            assert fields[key] == "%.3g" % value and float(fields[key]) <= tol


def test_cmd_run_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["run", "--config", cfg, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "trace.csv").read_bytes() == \
        (tmp_path / "b" / "trace.csv").read_bytes()


def test_cmd_run_zero_budget(tmp_path):
    cfg = write_config(tmp_path, SMALL.replace("run.budget = 50", "run.budget = 0"))
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,")


def test_cmd_run_doubling_schedule(tmp_path):
    text = SMALL.replace("method.name = near-dgd-t",
                         "method.name = near-dgd-plus-doubling")
    text = text.replace("method.t = 2", "method.period = 100")
    text = text.replace("run.budget = 50", "run.budget = 250")
    cfg = write_config(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()[1:]
    t_of = {int(r.split(",")[0]): int(r.split(",")[1]) for r in rows}
    assert t_of[0] == 1 and t_of[99] == 1 and t_of[100] == 2 and t_of[200] == 4


@pytest.mark.parametrize("alpha", ["1.5", "0.1"])
def test_cmd_run_doubling_every_iteration_on_a_30_node_ring(tmp_path, capsys, alpha):
    # t reaches 2^100; eigh leaves the top eigenvalue of this ring an ulp
    # above 1, and rho_constant once raised it to t unpinned: an overflow
    # warning, and with alpha L > 1 a negative rho
    text = ("problem.kind = quadratic\nproblem.n = 30\n"
            "method.name = near-dgd-plus-doubling\nmethod.period = 1\n"
            "run.alpha = %s\nrun.budget = 100\n" % alpha)
    cfg = write_config(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("method=near-dgd-plus-doubling:1 ")
    assert "iters=100 " in lines[0] and captured.err == ""


def test_cmd_run_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "run.alpha = 50\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert "alpha" in capsys.readouterr().err


def test_cmd_sweep_shared_initial_point(tmp_path, capsys):
    text = SMALL + "sweep.methods = near-dgd-t:1, near-dgd-t:5, dgd, gradient-tracking\n" \
                 + "sweep.seeds = 0, 1\n"
    cfg = write_config(tmp_path, text)
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("method,seed,k,")
    keys = {(r.split(",")[0], r.split(",")[1]) for r in lines[1:]}
    assert keys == {(m, s) for m in ("near-dgd-t:1", "near-dgd-t:5", "dgd",
                                     "gradient-tracking") for s in ("0", "1")}
    # row 0 describes the seed's initial average (consensus keeps the mean):
    # f_err and dist_saddle agree across the methods of a seed, not across seeds
    col = {name: i for i, name in enumerate(lines[0].split(","))}
    first = {}
    for row in (r.split(",") for r in lines[1:]):
        if row[col["k"]] == "0":
            first.setdefault(row[1], []).append(
                (float(row[col["f_err"]]), float(row[col["dist_saddle"]])))
    for seed, cells in first.items():
        assert len(cells) == 4
        for cell in cells:
            assert cell == pytest.approx(cells[0], rel=1e-12, abs=1e-15)
    assert first["0"][0] != pytest.approx(first["1"][0], rel=1e-3)


@pytest.mark.parametrize("name, token", [
    ("near-dgd-t", "near-dgd-t:2"), ("near-dgd-plus", "near-dgd-plus"), ("dgd", "dgd")])
def test_sweep_line_is_the_run_summary_line(tmp_path, capsys, name, token):
    # a sweep line judges its cell as neardgd run does, less the trace path
    cfg = write_config(tmp_path, small_running(name))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    run_line = capsys.readouterr().out.splitlines()[0]
    cfg = write_config(tmp_path, SMALL + "sweep.methods = %s\n" % token)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    sweep_line = capsys.readouterr().out.splitlines()[0]
    assert run_line == "%s trace=%s" % (sweep_line, tmp_path / "out" / "trace.csv")


def test_cmd_check_judges_the_configured_run(tmp_path, monkeypatch):
    # grad_tol ends this run at k = 112 of 3000, and the cost model prices a
    # round at 0.01: check judges that run, not a run of the whole budget
    made, judged = [], []
    real_run, real_verdicts = cli.run, checks.certificate_verdicts
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs:
                        made.append(real_run(*args, **kwargs)) or made[-1])
    monkeypatch.setattr(checks, "certificate_verdicts", lambda result, method: judged.append(
        result) or real_verdicts(result, method))
    cfg = write_config(tmp_path, "method.name = near-dgd-t\nmethod.t = 5\nrun.budget = 3000\n"
                                 "run.grad_tol = 1e-3\ncost.c_c = 0.01\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert main(["check", "--config", cfg]) == EXIT_OK
    ends = [(result.trace.final.k, result.trace.final.cost) for result in made]
    assert judged == made[1:] and ends[0] == ends[1] and ends[0][0] == 112


def test_one_run_builds_its_problem_and_graph_once(tmp_path, monkeypatch):
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("sample_quartic_problem", "build_ring"):
        monkeypatch.setattr(config, name, counted(name, getattr(config, name)))
    cfg = write_config(tmp_path, "method.name = near-dgd-t\nmethod.t = 5\nrun.budget = 20\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert sorted(calls) == ["build_ring", "sample_quartic_problem"]


def test_cmd_sweep_empty_methods_is_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", cfg]) == EXIT_VALIDATION
    assert "sweep.methods" in capsys.readouterr().err


def test_cmd_check_default_suite_passes(capsys):
    assert main(["check"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS" in out


def test_cmd_check_applies_seed_override(tmp_path, monkeypatch):
    seen, real = [], cli.run
    monkeypatch.setattr(cli, "run", lambda *args, seed, **kwargs:
                        seen.append(seed) or real(*args, seed=seed, **kwargs))
    assert main(["check", "--seed", "7"]) == EXIT_OK
    assert main(["check", "--config", write_config(tmp_path), "--seed", "8"]) == EXIT_OK
    assert main(["check", "--config", write_config(tmp_path)]) == EXIT_OK
    assert seen == [7, 8, 3]  # SMALL sets run.seed = 3


ALL_CERTIFICATES = ["descent-residual", "eq7-identity", "consensus-bound"]


@pytest.mark.parametrize("method, budget, inapplicable, reason", [
    ("dgd", 50, ALL_CERTIFICATES, "not evaluated for dgd"),
    ("gradient-tracking", 50, ALL_CERTIFICATES, "not evaluated for gradient-tracking"),
    ("near-dgd-plus", 50, ["eq7-identity"], "not evaluated for near-dgd-plus"),
    ("near-dgd-plus-doubling", 50, ["eq7-identity"],
     "not evaluated for near-dgd-plus-doubling:100"),
    ("near-dgd-t", 0, ALL_CERTIFICATES, "no iteration to certify")],
    ids=["dgd-inapplicable0", "gradient-tracking-inapplicable1", "near-dgd-plus-inapplicable2",
         "near-dgd-plus-doubling-inapplicable3", "budget0"])
def test_cmd_check_reports_inapplicable_certificates(tmp_path, capsys, method, budget,
                                                     inapplicable, reason):
    # the baselines evaluate no run certificate, a changing t has no Eq.-7
    # identity, and a run with no iteration certifies no row: those lines
    # are N/A, not PASS, and are not counted
    cfg = write_config(tmp_path, small_running(method)
                       .replace("run.budget = 50", "run.budget = %d" % budget))
    assert main(["check", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines if line.startswith("N/A")] == inapplicable
    assert all(line.endswith("(%s)" % reason) for line in lines if line.startswith("N/A"))
    assert not [line for line in lines if line.startswith(("PASS", "FAIL"))
                and line.split()[1] in inapplicable]
    applied = 8 - len(inapplicable)
    assert lines[-1] == "%d/%d checks passed, %d not applicable" % (
        applied, applied, len(inapplicable))


def test_cmd_check_default_output_lists_eight_passes(capsys):
    assert main(["check"]) == EXIT_OK
    assert capsys.readouterr().out == "".join("PASS %s\n" % name for name in (
        "objective-gradient-fd", "hessian-vector-fd", "lyapunov-gradient-fd",
        "consensus-properties", "pd-shift-detection", "descent-residual",
        "eq7-identity", "consensus-bound")) + "8/8 checks passed\n"


def test_cmd_check_large_alpha_fails(tmp_path, capsys):
    text = SMALL.replace("run.alpha = 0.1",
                         "run.alpha = 2.0\nrun.allow_large_alpha = true")
    cfg = write_config(tmp_path, text)
    code = main(["check", "--config", cfg])
    assert code == EXIT_CHECK_FAILURE
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# User errors end in one line and exit 1

def test_cmd_run_bad_boolean_is_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL + "run.allow_large_alpha = maybe\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "run.allow_large_alpha" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "sweep", "check"])
def test_cmd_missing_config_is_validation_error(tmp_path, capsys, command):
    missing = str(tmp_path / "absent.cfg")
    assert main([command, "--config", missing]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "absent.cfg" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "sweep", "check"])
def test_margin_key_is_rejected_by_every_command(tmp_path, capsys, command):
    cfg = write_config(tmp_path, SMALL + "weights.margin = 0.1\nsweep.methods = dgd\n")
    out = [] if command == "check" else ["--out", str(tmp_path / "out")]
    assert main([command, "--config", cfg, *out]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "validation error: unknown config keys: weights.margin\n"


DOUBLING_3 = SMALL.replace("method.name = near-dgd-t", "method.name = near-dgd-plus-doubling") \
    .replace("method.t = 2", "method.period = 3").replace("run.budget = 50", "run.budget = 3100")


@pytest.mark.parametrize("command, text, out, says", [
    ("sweep", SMALL + "weights.rule = nope\nsweep.methods = dgd\n", "out", ""),
    ("check", SMALL + "weights.rule = nope\n", None, ""),
    ("run", SMALL.replace("method.t = 2", "method.t = 0"), "out", ""),
    ("sweep", SMALL + "sweep.methods = near-dgd-plus-doubling:0\n", "out", ""),
    ("check", SMALL.replace("run.alpha = 0.1", "run.alpha = 50"), None, ""),
    ("run", SMALL.replace("output.path = trace.csv", "output.path = {tmp}/absent/trace.csv"),
     None, ""),
    ("sweep", SMALL + "sweep.methods = dgd\n", "a_file", ""),
    ("run", DOUBLING_3, "out", ""),
    ("sweep", DOUBLING_3 + "sweep.methods = near-dgd-plus-doubling:3\n", "out", ""),
    # NaN passes a "<= 0" test; each of these is rejected where it is
    # checked, with a message that names it
    ("run", SMALL.replace("run.alpha = 0.1", "run.alpha = nan"), "out", "alpha"),
    ("sweep", SMALL.replace("problem.c = 1.0", "problem.c = nan") + "sweep.methods = dgd\n",
     "out", "c must be"),
    ("check", SMALL.replace("problem.c = 1.0", "problem.c = nan"), None, "c must be"),
    ("run", SMALL + "run.box_radius = nan\n", "out", "radius"),
    # no alpha fits an infinite box, although a quadratic's Lipschitz
    # estimate is finite on it
    ("run", SMALL.replace("problem.kind = quartic", "problem.kind = quadratic")
     + "run.box_radius = inf\n", "out",
     "validation error: box_radius must be positive and finite, got inf\n"),
    # the Lipschitz estimate on the box, and 1/alpha, must be finite
    ("run", SMALL + "run.box_radius = 1e308\n", "out",
     "the Lipschitz estimate on the box of radius 1e+308 is not finite"),
    ("check", SMALL + "run.box_radius = 1e308\n", None, "radius 1e+308"),
    ("sweep", SMALL.replace("run.alpha = 0.1", "run.alpha = 1e-320") + "sweep.methods = dgd\n",
     "out", "alpha=1e-320 is too small: 1/alpha is not finite"),
    ("check", SMALL.replace("run.alpha = 0.1", "run.alpha = 1e-320"), None, "alpha=1e-320"),
    # a normal alpha for which rho ||y_{k+1} - y_k||^2 may overflow on the box
    ("run", SMALL.replace("run.alpha = 0.1", "run.alpha = 3e-308"), "out",
     "alpha=3e-308 is too small for the box of radius 4.0: 4 n p R^2 / alpha is not finite"),
    ("run", SMALL.replace("cost.c_c = 0.01", "cost.c_c = nan"), "out", "cost"),
    ("sweep", SMALL + "cost.c_g = inf\nsweep.methods = dgd\n", "out", "cost"),
    # the positive-definite shift's margin is a constant, not a key
    ("check", SMALL + "weights.margin = nan\n", None, "unknown config keys: weights.margin"),
    ("run", SMALL + "weights.margin = inf\n", "out", "unknown config keys: weights.margin"),
    ("run", SMALL + "run.grad_tol = nan\n", "out", "grad_tol"),
    ("sweep", SMALL + "run.grad_tol = -1\nsweep.methods = dgd\n", "out", "grad_tol"),
    # a seed is a non-negative integer wherever it is read
    ("sweep", SMALL + "sweep.methods = dgd\nsweep.seeds = 1.5\n", "out", "sweep.seeds"),
    ("sweep", SMALL + "sweep.methods = dgd\nsweep.seeds = 0, -1\n", "out", "sweep.seeds"),
    ("run", SMALL.replace("run.seed = 3", "run.seed = -2"), "out", "run.seed"),
    ("check", SMALL.replace("problem.seed = 0", "problem.seed = -1"), None, "problem.seed"),
    ("run --seed -1", SMALL, "out", "--seed"),
    # argparse's rejections too, where it would print its usage and exit 2
    ("run --seed 1.5", SMALL, "out", "--seed"),
    ("sweep --parallel x", SMALL + "sweep.methods = dgd\n", "out", "--parallel"),
    ("run --parallel 2", SMALL, "out", "--parallel"),
    ("frobnicate", SMALL, "out", "invalid choice: 'frobnicate'"),
    # c^2/n overflows, or underflows to 0
    ("run", SMALL.replace("problem.c = 1.0", "problem.c = 1e155"), "out",
     "c^2/n finite and nonzero, got 1e+155"),
    ("check", SMALL.replace("problem.c = 1.0", "problem.c = 1e-200"), None,
     "c^2/n finite and nonzero, got 1e-200"),
    # a malformed method token or edge line is named in the message
    ("sweep", SMALL + "sweep.methods = dgd, near-dgd-t:abc\n", "out",
     "bad value for sweep.methods: 'dgd, near-dgd-t:abc' (method 'near-dgd-t:abc' needs"),
    # an empty parameter is no parameter; the name is read stripped, as the
    # parameter is, and an unknown name is reported as one
    ("sweep", SMALL + "sweep.methods = near-dgd-t:\n", "out",
     "(method 'near-dgd-t:' needs an integer after ':')"),
    ("sweep", SMALL + "sweep.methods = dgd:\n", "out", "(method 'dgd' takes no parameter)"),
    ("sweep", SMALL + "sweep.methods = dgd :3\n", "out", "(method 'dgd' takes no parameter)"),
    ("sweep", SMALL + "sweep.methods = nope:3\n", "out", "(unknown method 'nope')"),
    ("run", SMALL.replace("graph.kind = ring", "graph.kind = edgelist\ngraph.edges =\n"
                          "  0 1\n  a b\n  2 3\n  3 0"), "out", "malformed edge line: 'a b'"),
    # says holds the whole line
    ("run", SMALL.replace("graph.kind = ring", "graph.kind = edgelist\ngraph.edges =\n"
                          "  0 1\n  2 3"), "out", "validation error: graph is not connected\n"),
], ids=["unknown-rule-sweep", "unknown-rule-check", "t0-run", "period0-sweep",
        "large-alpha-check", "unwritable-output-run", "out-is-a-file-sweep",
        "doubling-overflow-run", "doubling-overflow-sweep", "nan-alpha-run", "nan-c-sweep",
        "nan-c-check", "nan-box-radius-run", "infinite-box-radius-quadratic-run",
        "huge-box-radius-run", "huge-box-radius-check",
        "subnormal-alpha-sweep", "subnormal-alpha-check", "small-normal-alpha-run",
        "nan-cost-run", "inf-cost-sweep",
        "margin-key-check", "margin-key-run", "nan-grad-tol-run", "negative-grad-tol-sweep",
        "fractional-seeds-sweep", "negative-seeds-sweep", "negative-seed-run",
        "negative-problem-seed-check", "negative-seed-flag-run", "fractional-seed-flag-run",
        "malformed-parallel-sweep", "parallel-flag-run", "unknown-command", "huge-c-run",
        "tiny-c-check", "malformed-method-token-sweep", "empty-method-parameter-sweep",
        "empty-parameter-of-a-baseline-sweep", "spaced-method-name-sweep",
        "unknown-method-with-parameter-sweep", "malformed-edge-line-run",
        "disconnected-edge-list-run"])
def test_rejected_input_is_one_line_in_every_command(tmp_path, capsys, command, text, out,
                                                     says):
    (tmp_path / "a_file").write_text("")
    # command may carry options: "run --seed -1"
    argv = command.split() + [
        "--config", write_config(tmp_path, text.replace("{tmp}", str(tmp_path)))]
    if out:
        argv += ["--out", str(tmp_path / out)]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error: ")
    assert len(captured.err.splitlines()) == 1
    assert says in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_cmd_sweep_large_alpha_is_validation_error(tmp_path, capsys):
    text = SMALL.replace("run.alpha = 0.1", "run.alpha = 50") \
        + "sweep.methods = near-dgd-t:1, dgd\nsweep.seeds = 0, 1\n"
    cfg = write_config(tmp_path, text)
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--parallel", "1"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: alpha=50") and len(err.splitlines()) == 1


def test_cmd_sweep_runs_every_seed_in_one_batch(tmp_path, capsys, monkeypatch):
    # one run_batch call holds every (method, seed) cell, with or without
    # --parallel 1, and no cell goes through run()
    batches, runs, real_batch = [], [], cli.run_batch
    monkeypatch.setattr(cli, "run_batch", lambda problem, cm, cells, *args, **kwargs:
                        batches.append(cells) or real_batch(problem, cm, cells, *args, **kwargs))
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
    cfg = write_config(tmp_path,
                       SMALL + "sweep.methods = dgd, near-dgd-t:2\nsweep.seeds = 0, 1, 2\n")
    written = []
    for flags in ([], ["--parallel", "1"]):
        out = tmp_path / ("out%d" % len(flags))
        assert main(["sweep", "--config", cfg, "--out", str(out), *flags]) == EXIT_OK
        written.append((out / "sweep.csv").read_bytes())
    assert [len(cells) for cells in batches] == [6, 6] and runs == []
    rows = written[0].decode().splitlines()
    assert sorted({row.split(",")[1] for row in rows[1:]}) == ["0", "1", "2"]
    assert written[0] == written[1]


@pytest.mark.parametrize("parallel", ["0", "-3", "2"])
def test_cmd_sweep_rejects_parallel_below_one(tmp_path, capsys, monkeypatch, parallel):
    # --parallel takes only 1: a sweep runs its cells in one process
    batches = []
    monkeypatch.setattr(cli, "run_batch", lambda *args, **kwargs: batches.append(args))
    cfg = write_config(tmp_path, SMALL + "sweep.methods = dgd\nsweep.seeds = 0, 1\n")
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--parallel", parallel])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == ("validation error: argument --parallel: invalid choice: %s (choose from 1)\n"
                   % parallel)
    assert batches == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_that_is_a_file_fails_before_any_cell_runs(tmp_path, capsys, monkeypatch,
                                                       command):
    cells = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: cells.append(args))
    (tmp_path / "a_file").write_text("")
    cfg = write_config(tmp_path, SMALL + "sweep.methods = near-dgd-t:1, dgd\n")
    code = main([command, "--config", cfg, "--out", str(tmp_path / "a_file")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and len(err.splitlines()) == 1
    assert cells == []


def test_parallel_is_a_sweep_option_only(tmp_path):
    cfg = write_config(tmp_path)
    for command in ("run", "check"):
        assert main([command, "--config", cfg, "--parallel", "2"]) == EXIT_VALIDATION


def test_each_command_takes_exactly_the_flags_it_reads():
    # a flag a command ignores (check took --out and wrote nothing) fails here
    commands, = (action.choices for action in cli.build_parser()._actions
                 if action.choices)
    flags = {name: {flag for action in sub._actions for flag in action.option_strings
                    if flag not in ("-h", "--help")}
             for name, sub in commands.items()}
    assert flags == {"run": {"--config", "--out", "--seed"},
                     "sweep": {"--config", "--out", "--seed", "--parallel"},
                     "check": {"--config", "--seed"}}


def test_check_rejects_out_and_creates_nothing(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["check", "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "validation error: unrecognized arguments: --out %s\n" % out
    assert not out.exists()


def test_main_builds_one_parser_and_runs_a_patched_command(tmp_path, monkeypatch):
    # the benchmark traces cli.cmd_sweep by patching it after the first sweep
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    sweeps = []
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: sweeps.append(args.config) or EXIT_OK)
    for _ in range(3):
        assert main(["sweep", "--config", cfg]) == EXIT_OK
    assert sweeps == [cfg] * 3
    assert cli._parser.cache_info().misses == 1


def test_help_exits_0(capsys):
    for argv in (["--help"], ["run", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "usage: neardgd" in capsys.readouterr().out


CONFIG_KEYS = ["problem.kind", "problem.n", "problem.p", "problem.I", "problem.c",
               "problem.seed", "graph.kind", "graph.prob", "graph.edges",
               "weights.rule", "method.name", "method.t",
               "method.period", "sweep.methods", "sweep.seeds", "run.alpha",
               "run.budget", "run.seed", "run.grad_tol", "run.allow_large_alpha",
               "run.box_radius", "cost.c_c", "cost.c_g", "output.path"]


def test_config_keys_are_the_keys_the_loader_reads_and_readme_documents():
    # the fuzz test below draws from CONFIG_KEYS: a key added to the loader
    # and not here would go untested
    read = re.findall(r'take\("([^"]+)"', inspect.getsource(config._build_run_config))
    assert sorted(read) == sorted(CONFIG_KEYS)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [key for key in CONFIG_KEYS
            if not re.search(r"(?<![\w.])%s\b" % re.escape(key), readme)] == []


# The numeric keys, and the edge values the fuzz below and the commands' grid
# give them.
NUMERIC_KEYS = ["problem.n", "problem.p", "problem.I", "problem.c", "problem.seed",
                "graph.prob", "method.t", "method.period", "sweep.seeds", "run.alpha",
                "run.budget", "run.seed", "run.grad_tol", "run.box_radius", "cost.c_c",
                "cost.c_g"]
EDGE_VALUES = ["nan", "inf", "-inf", "0", "-0", "0.0", "-0.0", "5e-324", "1e-320", "1e308",
               "-1e308", "1e400", "-1e400", "2.5", "text"]

# No decimal digits in free text: a large problem.n would build a large problem.
_free_text = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=12)
_value = st.one_of(_free_text, st.integers(-3, 30).map(str), st.sampled_from(EDGE_VALUES),
                   st.floats(allow_nan=True, allow_infinity=True).map(repr),
                   st.sampled_from(["quartic", "quadratic", "ring", "star", "edgelist",
                                    "erdos-renyi", "metropolis", "maxdegree", "dgd",
                                    "near-dgd-t", "near-dgd-plus-doubling:3", "true"]))
_line = st.one_of(st.tuples(st.sampled_from(CONFIG_KEYS), _value).map(" = ".join),
                  _free_text)


@settings(max_examples=300, deadline=None)
@given(st.lists(_line, max_size=8).map("\n".join))
@example("problem.c = 1e155")  # c**2 overflows
@example("problem.c = 1e-200")  # c^2/n underflows to 0
def test_config_loaders_raise_only_config_error(text):
    for load in (parse_flat_config, load_run_config):
        try:
            load(text)
        except ConfigError:
            pass


# The loaders' fuzz, carried through the commands. Every numeric key takes
# every edge value on three method, graph and problem variants with a
# budget of 20; n, p and the budget stay small, since resource limits on a
# huge problem are out of scope. Each (key, value, variant) runs one command,
# rotated so that each (key, value) pair meets all three commands.
VARIANTS = [
    {"problem.kind": "quartic", "problem.n": "4", "problem.p": "2", "problem.I": "2",
     "graph.kind": "ring", "method.name": "near-dgd-t", "method.t": "2",
     "sweep.methods": "near-dgd-t:2"},
    {"problem.kind": "quadratic", "problem.n": "5", "problem.p": "2", "graph.kind": "star",
     "method.name": "near-dgd-plus-doubling", "method.period": "3",
     "sweep.methods": "near-dgd-plus-doubling:3"},
    {"problem.kind": "quartic", "problem.n": "6", "problem.p": "1", "problem.I": "1",
     "graph.kind": "erdos-renyi", "graph.prob": "0.5", "method.name": "gradient-tracking",
     "sweep.methods": "gradient-tracking", "run.allow_large_alpha": "true"},
]


def test_commands_end_in_a_run_or_one_validation_line(tmp_path, capsys):
    assert len(NUMERIC_KEYS) == len(set(NUMERIC_KEYS)) and set(NUMERIC_KEYS) <= set(CONFIG_KEYS)
    out = str(tmp_path / "out")
    cases = 0
    for i, key in enumerate(NUMERIC_KEYS):
        for j, value in enumerate(EDGE_VALUES):
            for v, variant in enumerate(VARIANTS):
                command = ("run", "sweep", "check")[(i + j + v) % 3]
                kv = dict(variant, **{"run.budget": "20", key: value})
                text = "".join("%s = %s\n" % item for item in kv.items())
                argv = [command, "--config", write_config(tmp_path, text)]
                code = main(argv + ([] if command == "check" else ["--out", out]))
                err = capsys.readouterr().err.splitlines()
                case = (command, key, value, v, code, err)
                if code == EXIT_VALIDATION:
                    assert len(err) == 1 and err[0].startswith("validation error: "), case
                else:
                    assert code in (EXIT_OK, EXIT_DIVERGENCE, EXIT_CHECK_FAILURE), case
                    assert all(line.startswith("divergence") for line in err), case
                cases += 1
    assert cases == len(NUMERIC_KEYS) * len(EDGE_VALUES) * len(VARIANTS)


# ---------------------------------------------------------------------------
# Divergence: one outcome, the partial trace is written and the exit code is 2

BOXED = SMALL + "run.box_radius = 0.5\n"


def test_cmd_run_divergence_writes_trace(tmp_path, capsys):
    cfg = write_config(tmp_path, BOXED)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_DIVERGENCE
    assert "left the box" in capsys.readouterr().err
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert lines[0].startswith("k,t_k,") and len(lines) >= 3


def test_cmd_sweep_divergence_writes_cell(tmp_path, capsys):
    cfg = write_config(tmp_path, BOXED + "sweep.methods = near-dgd-t:2\nsweep.seeds = 3\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_DIVERGENCE
    assert "left the box" in capsys.readouterr().err
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert rows and all(row.startswith("near-dgd-t:2,3,") for row in rows)


@pytest.mark.parametrize("command", ["run", "sweep", "check"])
def test_a_divergence_past_the_float_range_prints_only_its_line(tmp_path, capsys, command):
    # alpha = 1e308 throws y_1 near the float range: the pass's arithmetic on
    # it overflows, and tier-1 turns any RuntimeWarning into an error
    text = (SMALL.replace("run.alpha = 0.1", "run.alpha = 1e308")
            + "run.allow_large_alpha = true\nsweep.methods = near-dgd-t:2\nsweep.seeds = 3\n")
    out = [] if command == "check" else ["--out", str(tmp_path / "out")]
    code = main([command, "--config", write_config(tmp_path, text), *out])
    err = capsys.readouterr().err
    if command == "check":
        assert code == EXIT_CHECK_FAILURE and err == ""
    else:
        assert code == EXIT_DIVERGENCE
        assert err.startswith("divergence") and len(err.splitlines()) == 1
        assert "iteration 0: |y|_inf = " in err and "left the box" in err


@pytest.mark.parametrize("name", METHOD_NAMES)
@pytest.mark.parametrize("diverging", [
    lambda text: text + "run.box_radius = 0.5\n",
    lambda text: text.replace("run.alpha = 0.1", "run.alpha = 1e308")
    + "run.allow_large_alpha = true\n"], ids=["small-box", "huge-alpha"])
def test_cmd_check_fails_a_diverged_run_of_every_method_in_one_line(tmp_path, capsys, name,
                                                                    diverging):
    # check judges the run that `run` makes: one FAIL line, with run's
    # divergence note, in place of the certificates, whatever the method
    cfg = write_config(tmp_path, diverging(small_running(name)))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_DIVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("divergence: ") and len(err.splitlines()) == 1
    assert main(["check", "--config", cfg]) == EXIT_CHECK_FAILURE
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if not line.startswith("PASS ")] == [
        "FAIL certificates (run diverged: %s)" % err[len("divergence: "):-1],
        "5/6 checks passed"]
