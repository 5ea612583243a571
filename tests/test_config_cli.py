import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neardgd import checks, cli
from neardgd.cli import (EXIT_CHECK_FAILURE, EXIT_DIVERGENCE, EXIT_OK,
                         EXIT_VALIDATION, main)
from neardgd.config import (ConfigError, RunConfig, load_run_config,
                            parse_flat_config)
from neardgd.optimizer import MethodSpec, run

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
    with pytest.raises(ConfigError):
        load_run_config("problem.I = 9\n")  # outside 1..p
    with pytest.raises(ConfigError):
        load_run_config("run.budget = oops\n")
    with pytest.raises(ConfigError):
        load_run_config("graph.kind = moebius\n")
    with pytest.raises(ConfigError, match="weight rule"):
        load_run_config("weights.rule = nope\n")
    with pytest.raises(ConfigError):
        load_run_config("method.name = near-dgd-t\nmethod.t = 0\n")


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


def test_cmd_run_summary_shows_certificates(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    fields = dict(token.split("=", 1) for token in capsys.readouterr().out.split())
    loaded = load_run_config(SMALL)
    res = run(loaded.build_problem(), loaded.build_consensus(), loaded.method,
              loaded.alpha, loaded.budget, seed=loaded.seed, cost_model=loaded.cost_model)
    assert fields["eq7"] == "%.3g" % res.max_eq7_inf
    assert fields["cons_gap"] == "%.3g" % res.max_cons_gap
    assert float(fields["eq7"]) <= 1e-10 and float(fields["cons_gap"]) <= 1e-12


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


def test_cmd_sweep_empty_methods_is_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", cfg]) == EXIT_VALIDATION
    assert "sweep.methods" in capsys.readouterr().err


def test_cmd_check_default_suite_passes(capsys):
    assert main(["check"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS" in out


def test_cmd_check_applies_seed_override(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(checks, "run_check_suite", lambda cfg: seen.append(cfg.seed) or [])
    assert main(["check", "--seed", "7"]) == EXIT_OK
    assert main(["check", "--config", write_config(tmp_path), "--seed", "8"]) == EXIT_OK
    assert main(["check", "--config", write_config(tmp_path)]) == EXIT_OK
    assert seen == [7, 8, 3]  # SMALL sets run.seed = 3


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


DOUBLING_3 = SMALL.replace("method.name = near-dgd-t", "method.name = near-dgd-plus-doubling") \
    .replace("method.t = 2", "method.period = 3").replace("run.budget = 50", "run.budget = 3100")


@pytest.mark.parametrize("command, text, out", [
    ("sweep", SMALL + "weights.rule = nope\nsweep.methods = dgd\n", "out"),
    ("check", SMALL + "weights.rule = nope\n", None),
    ("run", SMALL.replace("method.t = 2", "method.t = 0"), "out"),
    ("sweep", SMALL + "sweep.methods = near-dgd-plus-doubling:0\n", "out"),
    ("check", SMALL.replace("run.alpha = 0.1", "run.alpha = 50"), None),
    ("run", SMALL.replace("output.path = trace.csv", "output.path = {tmp}/absent/trace.csv"),
     None),
    ("sweep", SMALL + "sweep.methods = dgd\n", "a_file"),
    ("run", DOUBLING_3, "out"),
    ("sweep", DOUBLING_3 + "sweep.methods = near-dgd-plus-doubling:3\n", "out"),
], ids=["unknown-rule-sweep", "unknown-rule-check", "t0-run", "period0-sweep",
        "large-alpha-check", "unwritable-output-run", "out-is-a-file-sweep",
        "doubling-overflow-run", "doubling-overflow-sweep"])
def test_rejected_input_is_one_line_in_every_command(tmp_path, capsys, command, text, out):
    (tmp_path / "a_file").write_text("")
    argv = [command, "--config", write_config(tmp_path, text.replace("{tmp}", str(tmp_path)))]
    if out:
        argv += ["--out", str(tmp_path / out)]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error: ")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_cmd_sweep_large_alpha_is_validation_error(tmp_path, capsys, parallel):
    text = SMALL.replace("run.alpha = 0.1", "run.alpha = 50") \
        + "sweep.methods = near-dgd-t:1, dgd\nsweep.seeds = 0, 1\n"
    cfg = write_config(tmp_path, text)
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--parallel", parallel])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: alpha=50") and len(err.splitlines()) == 1


class RecordingPool:
    """Stands in for multiprocessing.Pool: records the worker count asked
    for and maps in this process, so no worker is started."""

    started = []

    def __init__(self, processes):
        self.started.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return [fn(job) for job in jobs]


@pytest.mark.parametrize("parallel, seeds, workers", [
    ("8", "0", []),          # one method and one seed: one cell, run serially
    ("8", "0, 1", [2]),      # never more workers than cells
    ("2", "0, 1, 2", [2]),
    ("1", "0, 1, 2", []),
])
def test_cmd_sweep_starts_at_most_one_worker_per_cell(tmp_path, capsys, monkeypatch,
                                                      parallel, seeds, workers):
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "started", [])
    cfg = write_config(tmp_path, SMALL + "sweep.methods = dgd\nsweep.seeds = %s\n" % seeds)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--parallel", parallel]) == EXIT_OK
    assert RecordingPool.started == workers
    rows = (out / "sweep.csv").read_text().splitlines()
    assert sorted({row.split(",")[1] for row in rows[1:]}) == seeds.split(", ")


@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_cmd_sweep_rejects_parallel_below_one(tmp_path, capsys, monkeypatch, parallel):
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "started", [])
    cfg = write_config(tmp_path, SMALL + "sweep.methods = dgd\nsweep.seeds = 0, 1\n")
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--parallel", parallel])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "validation error: --parallel must be at least 1, got %s\n" % parallel
    assert RecordingPool.started == []
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
        with pytest.raises(SystemExit):
            main([command, "--config", cfg, "--parallel", "2"])


CONFIG_KEYS = ["problem.kind", "problem.n", "problem.p", "problem.I", "problem.c",
               "problem.seed", "graph.kind", "graph.prob", "graph.edges",
               "weights.rule", "weights.margin", "method.name", "method.t",
               "method.period", "sweep.methods", "sweep.seeds", "run.alpha",
               "run.budget", "run.seed", "run.grad_tol", "run.allow_large_alpha",
               "run.box_radius", "cost.c_c", "cost.c_g", "output.path"]
# No decimal digits in free text: a large problem.n would build a large problem.
_free_text = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=12)
_value = st.one_of(_free_text, st.integers(-3, 30).map(str),
                   st.floats(allow_nan=True, allow_infinity=True).map(repr),
                   st.sampled_from(["quartic", "quadratic", "ring", "star", "edgelist",
                                    "erdos-renyi", "metropolis", "maxdegree", "dgd",
                                    "near-dgd-t", "near-dgd-plus-doubling:3", "true"]))
_line = st.one_of(st.tuples(st.sampled_from(CONFIG_KEYS), _value).map(" = ".join),
                  _free_text)


@settings(max_examples=300, deadline=None)
@given(st.lists(_line, max_size=8).map("\n".join))
def test_config_loaders_raise_only_config_error(text):
    for load in (parse_flat_config, load_run_config):
        try:
            load(text)
        except ConfigError:
            pass


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


def test_cmd_check_reports_divergence(tmp_path, capsys):
    cfg = write_config(tmp_path, BOXED)
    assert main(["check", "--config", cfg]) == EXIT_CHECK_FAILURE
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    assert [line.split()[1] for line in failed] == [
        "descent-residual", "eq7-identity", "consensus-bound"]
    assert all("run diverged" in line for line in failed)
