"""Tests for the experiment harness: config parsing, suite execution,
CSV/SVG output, and instance verification."""

import hashlib
import inspect
import math
import os
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hsilab.agents import MarkovEpisodePolicy
from hsilab.core import ConfigError, Dims, OracleSizeError
from hsilab.envs import EnvModel, build_controlled_drift_instance, controlled_drift_candidates
from hsilab import envs, harness
from hsilab.harness import (
    CSV_HEADER,
    ResultsTable,
    RunResult,
    derive_run_seed,
    emit_plot_svg,
    load_config,
    read_results_csv,
    run_suite,
    verify_instance,
    write_results_csv,
)
from hsilab.pors import PlanningContext
from hsilab.serialize import dump_candidates, dump_model
from hsilab import cli
from output_reference import (
    emit_plot_svg_reference,
    table_rows,
    write_results_csv_reference,
)
from policy_reference import random_hidden_observation_model


GROUPS_CFG = """
# two algorithms on the d=2 two-group instance
[experiment]
episodes = 10
seeds = 0,1

[env builder=groups]
d = 2
epsilon = 0.1

[algo name=uniform label=uni]

[algo name=op-tll label=tll]
"""


def _write(tmp_path, text, name="suite.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# config loading


def test_load_config_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, GROUPS_CFG))
    assert cfg.n_episodes == 10
    assert cfg.seeds == (0, 1)
    assert cfg.master_seed == 0
    assert cfg.output_dir == "results"
    assert cfg.regret_mode == "auto"
    assert [a.label for a in cfg.algos] == ["uni", "tll"]
    assert [a.kind for a in cfg.algos] == ["uniform", "op-tll"]
    assert cfg.env_model.name == "groups-d2-q1"
    assert cfg.env_model.dims.d == 2


def test_label_defaults_to_kind(tmp_path):
    text = GROUPS_CFG.replace("[algo name=uniform label=uni]", "[algo name=uniform]")
    cfg = load_config(_write(tmp_path, text))
    assert cfg.algos[0].label == "uniform"


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        (("seeds = 0,1", "seeds = 0,0"), "duplicate seeds"),
        (("label=tll", "label=uni"), "duplicate algo label"),
        (("episodes = 10", "episodes = 0"), "episodes"),
        (("episodes = 10", "episodes = ten"), "episodes"),
        (("[env builder=groups]", "[env]"), "builder"),
        (("[env builder=groups]", "[env builder=nonsense]"), "unknown env builder"),
        (("[algo name=uniform label=uni]", "[algo label=uni]"), "name"),
        (("name=op-tll", "name=warp-drive"), "unknown algorithm"),
        (("d = 2", "d = 2\nunknown-knob = 3"), "unknown-knob"),
        (("seeds = 0,1", "seeds = 0,1\nturbo = on"), "turbo"),
        (("label=tll", "label=t,ll"), "algo label 't,ll' must not contain"),
        (("label=uni", "label=#uni"), "algo label '#uni' must not contain"),
    ],
)
def test_load_config_rejects_bad_configs(tmp_path, mutation, fragment):
    old, new = mutation
    assert old in GROUPS_CFG
    with pytest.raises(ConfigError, match=fragment.replace("[", "\\[")):
        load_config(_write(tmp_path, GROUPS_CFG.replace(old, new)))


def test_load_config_requires_sections(tmp_path):
    with pytest.raises(ConfigError, match="experiment"):
        load_config(_write(tmp_path, "[env builder=groups]\nd = 2\nepsilon = 0.1\n"))
    no_algo = GROUPS_CFG.split("[algo")[0]
    with pytest.raises(ConfigError, match="algo"):
        load_config(_write(tmp_path, no_algo))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.cfg"))


def test_env_builders_take_their_schema_keys():
    """Each builder is called with its schema's keys as keywords ('-' read
    as '_'); the verifiers build through the same table with their own
    schemas."""
    assert list(harness._ENV_BUILDERS) == list(harness._ENV_SCHEMAS)
    schemas = list(harness._ENV_SCHEMAS.items())
    schemas += [
        (kind, harness._VERIFY_SCHEMAS[kind]) for kind in ("flat-emission", "tree")
    ]
    for kind, schema in schemas:
        params = inspect.signature(harness._ENV_BUILDERS[kind]).parameters
        for key in schema:
            assert key.replace("-", "_") in params, (kind, key)
        required = {
            name for name, p in params.items() if p.default is inspect.Parameter.empty
        }
        assert required <= {key.replace("-", "_") for key in schema}, kind


def _hsilab_under_memory_limit(*args):
    """Run the command line in a child whose address space is capped at
    4 GiB, so a regression that allocates a huge table fails fast."""
    resource = pytest.importorskip("resource")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    limit = 4 * 2**30
    return subprocess.run(
        [sys.executable, "-m", "hsilab", *args],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def _pors_file_config(tmp_path, model, algo_lines="", experiment_lines=""):
    """A config whose file env is the model, with the model as the only
    candidate of a pors algorithm."""
    dump_model(model, tmp_path / "env.model")
    dump_candidates([model], tmp_path / "cands.cfg")
    text = (
        f"[experiment]\nepisodes = 2\nseeds = 0\n{experiment_lines}\n"
        f"[env builder=file]\npath = {tmp_path / 'env.model'}\n\n{algo_lines}"
        f"[algo name=pors]\ncandidates = {tmp_path / 'cands.cfg'}\n"
    )
    return _write(tmp_path, text)


def test_cli_run_refuses_an_oversized_pors_tree_before_planning(tmp_path):
    # every sub-state revealed and 256 symbols: one step's evidence stack
    # is 16384 rows x 64 states, 2^20 cells, but the belief tree's 129 steps
    # need 129 of them, over envs.MAX_TABLE_CELLS; the model file stays
    # small, and the stacks are refused before the belief DP starts
    H, O = 130, 256
    dims = Dims(d=6, alphabet_size=2, d_query=6, horizon=H, n_actions=1,
                n_observations=O)
    wide = EnvModel.from_product(
        "wide", dims, "Class2", np.full(64, 1 / 64),
        np.full((H - 1, 6, 2, 1, 2), 0.5), np.zeros((H, 64, 1)),
        emissions={(h, dims.query_sets()[0]): np.full((O, 1), 1 / O)
                   for h in range(1, H + 1)},
    )
    cfg_path = _pors_file_config(tmp_path, wide)
    t0 = time.perf_counter()
    proc = _hsilab_under_memory_limit("run", cfg_path, "-o", str(tmp_path / "out"))
    assert time.perf_counter() - t0 < 20.0
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: belief tree for model 'wide' needs a (129, 16384, 64) evidence "
        "stack, over the cap of 134217728 cells\n"
    )
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_oversized_env_without_traceback(tmp_path):
    # 2**40 states: the builder would need terabytes
    text = (
        "[experiment]\nepisodes = 2\nseeds = 0\n\n"
        "[env builder=random-class1]\nd = 40\nalphabet-size = 2\n"
        "horizon = 4\nn-actions = 2\n\n[algo name=uniform]\n"
    )
    cfg_path = _write(tmp_path, text)
    proc = _hsilab_under_memory_limit("run", cfg_path, "-o", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert "1099511627776 states" in proc.stderr
    assert "over the cap" in proc.stderr
    assert not (tmp_path / "out").exists()


_GROUPS_OVERFLOW = "state space |alphabet|^d = 200000^100000 overflows the index type"


def test_cli_run_rejects_oversized_groups_without_traceback(tmp_path):
    # the 2d group vectors of length d alone would need tens of GB
    text = (
        "[experiment]\nepisodes = 2\nseeds = 0\n\n"
        "[env builder=groups]\nd = 100000\nepsilon = 0.1\n\n[algo name=uniform]\n"
    )
    cfg_path = _write(tmp_path, text)
    proc = _hsilab_under_memory_limit("run", cfg_path, "-o", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {cfg_path}: cannot build env groups: ")
    assert _GROUPS_OVERFLOW in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_oversized_sequence_bandit_without_traceback(tmp_path):
    # 2^17 = 131072 action sequences are over agents.MAX_SEQUENCES; the
    # config must be refused when it loads, not when the first run starts
    text = (
        "[experiment]\nepisodes = 2\nseeds = 0\n\n"
        "[env builder=tree]\nalphabet-size = 2\nd = 3\nn-actions = 2\n"
        "epsilon = 0.1\nhorizon = 17\n\n[algo name=epsilon-greedy-seq]\n"
    )
    cfg_path = _write(tmp_path, text)
    proc = _hsilab_under_memory_limit("run", cfg_path, "-o", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "131072 action sequences exceed the cap 65536" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_verify_without_verifier_without_traceback(tmp_path):
    # random-class1 has no structural checks, so verify = on cannot be honoured
    text = (
        "[experiment]\nepisodes = 2\nseeds = 0\nverify = on\n\n"
        "[env builder=random-class1]\nd = 2\nalphabet-size = 2\n"
        "horizon = 2\nn-actions = 2\n\n[algo name=uniform]\n"
    )
    cfg_path = _write(tmp_path, text)
    proc = _hsilab_under_memory_limit("run", cfg_path, "-o", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        f"error: {cfg_path}: verify = on needs a verifiable env builder "
        "(groups, flat-emission, tree), got 'random-class1'"
    )
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_cli_rejects_horizon_past_recursion_limit_without_traceback(
    tmp_path, command
):
    # the belief planner recurses once per step; 1500 steps is past the
    # interpreter's recursion limit
    text = (
        "[experiment]\nepisodes = 2\nseeds = 0\n\n"
        "[env builder=random-class1]\nd = 1\nalphabet-size = 2\nd-query = 1\n"
        "horizon = 1500\nn-actions = 2\n\n[algo name=uniform]\n"
    )
    cfg_path = _write(tmp_path, text)
    out = ["-o", str(tmp_path / "out")] if command == "run" else []
    proc = _hsilab_under_memory_limit(command, cfg_path, *out)
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        "error: belief tree for model 'random-class1-s0' is 1500 steps deep"
    )
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_oracle_rejects_oversized_kernel_stack_without_traceback(tmp_path):
    # C(12, 6) = 924 query sets x 2^6 value codes = 59136 kernel rows over
    # 4096 states, for each of 3 steps: 5.4 GiB, refused before any of it is
    # allocated
    text = (
        "[experiment]\nepisodes = 2\nseeds = 0\n\n"
        "[env builder=random-class1]\nd = 12\nalphabet-size = 2\nd-query = 6\n"
        "horizon = 4\nn-actions = 2\n\n[algo name=uniform]\n"
    )
    proc = _hsilab_under_memory_limit("oracle", _write(tmp_path, text))
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        "error: belief tree for model 'random-class1-s0' needs a (3, 59136, 4096) "
        "evidence stack, over the cap of 134217728 cells"
    )
    assert "Traceback" not in proc.stderr


def test_cli_run_rejects_oversized_results_table_without_traceback(tmp_path):
    # 10^13 episodes x 2 seeds x 2 algorithms result rows
    text = GROUPS_CFG.replace("episodes = 10", "episodes = 10000000000000")
    cfg_path = _write(tmp_path, text)
    proc = _hsilab_under_memory_limit("run", cfg_path, "-o", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        f"error: {cfg_path}: episodes x seeds x algorithms = 40000000000000 "
        "result rows, over the cap of 134217728"
    )
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_results_table_cap_is_checked_at_load(tmp_path):
    at_cap = GROUPS_CFG.replace("episodes = 10", f"episodes = {2**25}")
    assert load_config(_write(tmp_path, at_cap)).n_episodes == 2**25
    over = GROUPS_CFG.replace("episodes = 10", f"episodes = {2**25 + 1}")
    with pytest.raises(ConfigError, match="134217732 result rows"):
        load_config(_write(tmp_path, over))


def test_cli_verify_rejects_oversized_groups_without_traceback():
    proc = _hsilab_under_memory_limit("verify", "groups", "d=100000")
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        f"error: <params>: cannot verify groups: {_GROUPS_OVERFLOW}"
    )
    assert "Traceback" not in proc.stderr


_TREE_OVERFLOW = (
    "state space |alphabet|^d = 2^100000000000000000000 overflows the index type"
)


@pytest.mark.parametrize("command", ["verify", "run"])
def test_cli_rejects_a_huge_tree_depth_without_traceback(tmp_path, command):
    # 2 ** d for d = 10^20 is refused before the power is computed
    if command == "verify":
        argv = ["verify", "tree", "d=100000000000000000000"]
        head = "error: <params>: cannot verify tree: "
    else:
        text = (
            "[experiment]\nepisodes = 2\nseeds = 0\n\n"
            "[env builder=tree]\nalphabet-size = 2\nd = 100000000000000000000\n"
            "n-actions = 2\nepsilon = 0.1\n\n[algo name=uniform]\n"
        )
        cfg_path = _write(tmp_path, text)
        argv = ["run", cfg_path, "-o", str(tmp_path / "out")]
        head = f"error: {cfg_path}: cannot build env tree: "
    proc = _hsilab_under_memory_limit(*argv)
    assert proc.returncode == 1
    assert proc.stderr == head + _TREE_OVERFLOW + "\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["oracle", "run"])
def test_cli_rejects_a_huge_model_file_header_without_traceback(tmp_path, command):
    # n_actions = 99999999999 would make the parser allocate a 5.8 TiB
    # transition table before any size check
    drift = build_controlled_drift_instance()
    dump_model(drift, tmp_path / "drift.model")
    text = (tmp_path / "drift.model").read_text()
    (tmp_path / "huge.model").write_text(
        text.replace("n_actions = 2", "n_actions = 99999999999")
    )
    cfg_path = _write(
        tmp_path,
        "[experiment]\nepisodes = 2\nseeds = 0\n\n"
        f"[env builder=file]\npath = {tmp_path / 'huge.model'}\n\n"
        "[algo name=uniform]\n",
    )
    out = ["-o", str(tmp_path / "out")] if command == "run" else []
    proc = _hsilab_under_memory_limit(command, cfg_path, *out)
    assert proc.returncode == 1
    assert proc.stderr == (
        f"error: {tmp_path / 'huge.model'}:1: model {drift.name!r} needs a "
        "(1, 2, 2, 99999999999, 2) transition table, over the cap of "
        "134217728 cells\n"
    )
    assert not (tmp_path / "out").exists()


def test_master_seed_env_override(tmp_path, monkeypatch):
    path = _write(tmp_path, GROUPS_CFG)
    assert load_config(path).master_seed == 0
    monkeypatch.setenv("HSILAB_MASTER_SEED", "99")
    assert load_config(path).master_seed == 99
    monkeypatch.setenv("HSILAB_MASTER_SEED", "not-a-number")
    with pytest.raises(ConfigError):
        load_config(path)


_DRIFT_ENV = "[env builder=controlled-drift]"
_GROUPS_ENV = "[env builder=groups]\nd = 2\nepsilon = 0.1"


@pytest.mark.parametrize(
    "env_lines, algo_lines, message",
    [
        # a key that no longer exists is unknown, not ignored
        (
            _DRIFT_ENV,
            "[algo name=pors]\npolicy-cap = 4096",
            "unknown algo pors key 'policy-cap'",
        ),
        (_DRIFT_ENV, "[algo name=pors]\nbeta = -1", "beta must be"),
        (_DRIFT_ENV, "[algo name=pors]\ndelta = 2", "delta must be"),
        (_GROUPS_ENV, "[algo name=op-tll]\nc-bonus = nan", "c-bonus must be"),
        (_GROUPS_ENV, "[algo name=op-tll]\nc-bonus = inf", "c-bonus must be"),
        (_GROUPS_ENV, "[algo name=op-tll]\ntheta1 = -1", "theta1 must be"),
        (
            "[env builder=groups]\nd = 3\nepsilon = 0.1\nd-query = 2",
            "[algo name=op-mll]\ntheta2 = 1.5",
            "theta2 must be",
        ),
        (
            _GROUPS_ENV,
            "[algo name=epsilon-greedy-seq]\nepsilon = 1.5",
            "epsilon must be",
        ),
    ],
    ids=[
        "pors-policy-cap-removed",
        "pors-beta-negative",
        "pors-delta-2",
        "op-tll-c-bonus-nan",
        "op-tll-c-bonus-inf",
        "op-tll-theta1-negative",
        "op-mll-theta2-above-1",
        "epsilon-greedy-epsilon-above-1",
    ],
)
def test_bad_algo_parameter_rejected_at_load(
    tmp_path, capsys, env_lines, algo_lines, message
):
    if "pors" in algo_lines:
        cand_path = tmp_path / "candidates.cfg"
        dump_candidates(controlled_drift_candidates(), cand_path)
        algo_lines += f"\ncandidates = {cand_path}"
    text = (
        "[experiment]\nepisodes = 5\nseeds = 0\n"
        f"output-dir = {tmp_path / 'out'}\n\n{env_lines}\n\n{algo_lines}\n"
    )
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    assert cli.main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# algorithm/environment compatibility


def _drift_config(tmp_path, algo_lines):
    cand_path = tmp_path / "candidates.cfg"
    dump_candidates(controlled_drift_candidates(), cand_path)
    text = (
        "[experiment]\nepisodes = 5\nseeds = 0\n\n"
        "[env builder=controlled-drift]\n\n" + algo_lines.format(cands=cand_path)
    )
    return _write(tmp_path, text, name="drift.cfg")


def test_pors_requires_emitting_env(tmp_path):
    cand_path = tmp_path / "candidates.cfg"
    dump_candidates(controlled_drift_candidates(), cand_path)
    text = GROUPS_CFG + f"\n[algo name=pors label=p]\ncandidates = {cand_path}\n"
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, text))
    assert "p" in str(err.value) and "groups-d2-q1" in str(err.value)


def test_op_tll_rejects_emitting_env(tmp_path):
    path = _drift_config(tmp_path, "[algo name=op-tll label=t]\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "t" in str(err.value)


def test_op_mll_needs_multi_query(tmp_path):
    text = GROUPS_CFG + "\n[algo name=op-mll label=m]\n"
    with pytest.raises(ConfigError, match="m"):
        load_config(_write(tmp_path, text))


def test_pors_candidates_must_match_env_dims(tmp_path):
    cand_path = tmp_path / "candidates.cfg"
    wide = controlled_drift_candidates(horizon=3)
    dump_candidates(wide, cand_path)
    path = _drift_config(
        tmp_path, "[algo name=pors label=p]\ncandidates = {cands}\n"
    )
    # rebuild with mismatched horizon in the file
    dump_candidates(wide, cand_path)
    with pytest.raises(ConfigError, match="dimensions"):
        load_config(path)


def test_pors_candidates_must_emit(tmp_path):
    path = _drift_config(
        tmp_path, "[algo name=pors label=p]\ncandidates = {cands}\n"
    )
    drift = build_controlled_drift_instance()
    silent = EnvModel.from_product(
        "silent", drift.dims, "Class1", drift.initial, drift.product, drift.rewards
    )
    dump_candidates([drift, silent], tmp_path / "candidates.cfg")
    with pytest.raises(ConfigError, match="'silent' is Class1"):
        load_config(path)


def test_fixed_policy_validation(tmp_path):
    good = GROUPS_CFG + "\n[algo name=fixed label=f]\nactions = 0\nquery = 0\n"
    cfg = load_config(_write(tmp_path, good))
    assert cfg.algos[-1].kind == "fixed"
    bad_action = GROUPS_CFG + "\n[algo name=fixed label=f]\nactions = 7\nquery = 0\n"
    with pytest.raises(ConfigError, match="action"):
        load_config(_write(tmp_path, bad_action))
    bad_query = GROUPS_CFG + "\n[algo name=fixed label=f]\nactions = 0\nquery = 9\n"
    with pytest.raises(ConfigError, match="query"):
        load_config(_write(tmp_path, bad_query))
    bad_len = GROUPS_CFG + "\n[algo name=fixed label=f]\nactions = 0,1\nquery = 0\n"
    with pytest.raises(ConfigError, match="actions"):
        load_config(_write(tmp_path, bad_len))


def test_unbuildable_pors_context_stops_the_config_before_any_episode(
    tmp_path, monkeypatch, capsys
):
    # a one-action, one-symbol class at horizon 22 whose belief DP is over
    # the config's node cap
    dims = Dims(
        d=1, alphabet_size=2, d_query=1, horizon=22, n_actions=1, n_observations=1
    )
    deep = random_hidden_observation_model(np.random.default_rng(0), dims)
    path = _pors_file_config(
        tmp_path, deep, "[algo name=uniform]\n\n", "oracle-cap = 10\n"
    )
    with pytest.raises(OracleSizeError, match="exceeds 10 nodes"):
        load_config(path)
    episodes = []
    run_episode = harness.run_episode

    def counting(*args):
        episodes.append(args[2])
        return run_episode(*args)

    monkeypatch.setattr(harness, "run_episode", counting)
    out = tmp_path / "out"
    assert cli.main(["run", path, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds 10 nodes" in err
    assert "Traceback" not in err
    assert episodes == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_oracle_cap_bounds_pors_planning(tmp_path, capsys, command):
    # each drift H=4 candidate's belief DP expands more than 2 beliefs, so
    # the config's oracle-cap refuses the pors class as it refuses V*, even
    # with regret reporting off
    cand_path = tmp_path / "candidates.cfg"
    dump_candidates(controlled_drift_candidates(horizon=4), cand_path)
    out = tmp_path / "out"
    path = _write(tmp_path, (
        "[experiment]\nepisodes = 2\nseeds = 0\noracle-cap = 2\n"
        f"regret-mode = off\noutput-dir = {out}\n\n"
        "[env builder=controlled-drift]\nhorizon = 4\n\n"
        f"[algo name=pors]\ncandidates = {cand_path}\n"
    ))
    assert cli.main([command, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "exceeds 2 nodes" in lines[0]
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_cli_run_refuses_a_one_step_evidence_stack_over_the_cap(
    tmp_path, monkeypatch, capsys
):
    # a one-step pors run scores feedback under the step-1 evidence stack of
    # every query set: 2 x 4 rows x 4 states here, one cell over the cap
    dims = Dims(d=2, alphabet_size=2, d_query=1, horizon=1, n_actions=2,
                n_observations=2)
    model = random_hidden_observation_model(np.random.default_rng(0), dims)
    dump_model(model, tmp_path / "one.model")
    dump_candidates([model], tmp_path / "cands.cfg")
    path = _write(tmp_path, (
        "[experiment]\nepisodes = 2\nseeds = 0\n\n"
        f"[env builder=file]\npath = {tmp_path / 'one.model'}\n\n"
        f"[algo name=pors]\ncandidates = {tmp_path / 'cands.cfg'}\n"
    ))
    monkeypatch.setattr(envs, "MAX_TABLE_CELLS", 2 * 4 * 4 - 1)
    with pytest.raises(OracleSizeError, match="evidence stack"):
        load_config(path)
    assert cli.main(["run", path, "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "evidence stack, over the cap of 31" in err
    assert "Traceback" not in err


def test_sequence_bandit_run_evaluates_each_played_sequence_once(
    tmp_path, monkeypatch
):
    # the bandit hands back one policy object per sequence; the value
    # cache must still miss exactly once per distinct sequence played
    played, evaluated = [], []
    evaluate = harness.oracle.evaluate_markov_policy

    class Recording(harness.EpsilonGreedySequenceAgent):
        def begin_episode(self, k):
            super().begin_episode(k)
            played.append(self._seq)

    def counting(env, policy, *memo):
        evaluated.append(policy.key())
        return evaluate(env, policy, *memo)

    monkeypatch.setattr(harness, "EpsilonGreedySequenceAgent", Recording)
    monkeypatch.setattr(harness.oracle, "evaluate_markov_policy", counting)
    text = (
        "[experiment]\nepisodes = 300\nseeds = 0\n\n"
        "[env builder=tree]\nalphabet-size = 2\nd = 3\nn-actions = 2\n"
        "epsilon = 0.1\n\n[algo name=epsilon-greedy-seq]\n"
    )
    table = run_suite(load_config(_write(tmp_path, text)))
    assert len(played) == len(table.runs[0].policy_values) == 300
    assert len(evaluated) == len(set(evaluated)) == len(set(played)) > 1


def test_opmll_runs_evaluate_each_played_policy_once(tmp_path, monkeypatch):
    # the prefix memo changes how a miss is computed, not how many there
    # are: one evaluation per distinct policy key and algorithm; each
    # algorithm's memo is its own and lives in its value cache, not on the env
    played, evaluated, memos = {}, {}, {}
    evaluate = harness.oracle.evaluate_markov_policy

    class Recording(harness.OpmllAgent):
        def begin_episode(self, k):
            super().begin_episode(k)
            played.setdefault(self, set()).add(self.episode_policy.key())

    def counting(env, policy, memo):
        memos.setdefault(id(memo), memo)
        evaluated.setdefault(id(memo), []).append(policy.key())
        return evaluate(env, policy, memo)

    monkeypatch.setattr(harness, "OpmllAgent", Recording)
    monkeypatch.setattr(harness.oracle, "evaluate_markov_policy", counting)
    text = (
        "[experiment]\nepisodes = 150\nseeds = 0,1\n\n"
        "[env builder=random-class1]\nd = 4\nalphabet-size = 2\nd-query = 2\n"
        "horizon = 3\nn-actions = 2\nenv-seed = 1\n\n"
        "[algo name=op-mll]\n\n[algo name=op-mll label=again]\n"
    )
    cfg = load_config(_write(tmp_path, text))
    table = run_suite(cfg)
    assert [len(run.policy_values) for run in table.runs] == [150] * 4
    assert len(memos) == 2 and all(memos.values())
    runs = list(played.values())
    for keys, algo_runs in zip(evaluated.values(), (runs[:2], runs[2:])):
        assert len(keys) == len(set(keys)) == len(set().union(*algo_runs))
    assert not {id(value) for value in vars(cfg.env_model).values()} & set(memos)


def test_agents_are_built_from_what_the_config_load_prepared(tmp_path, monkeypatch):
    calls = []
    fixed_policy, build = harness._fixed_policy, PlanningContext.build

    def counting_fixed(*args):
        calls.append("fixed")
        return fixed_policy(*args)

    def counting_build(*args, **kwargs):
        calls.append("pors")
        return build(*args, **kwargs)

    monkeypatch.setattr(harness, "_fixed_policy", counting_fixed)
    monkeypatch.setattr(PlanningContext, "build", staticmethod(counting_build))
    path = _drift_config(
        tmp_path,
        "[algo name=pors]\ncandidates = {cands}\n\n"
        "[algo name=fixed]\nactions = 0\nquery = 0\n\n[algo name=uniform]\n",
    )
    cfg = load_config(path)
    pors, fixed, uniform = cfg.algos
    assert isinstance(pors.prepared, PlanningContext)
    assert isinstance(fixed.prepared, MarkovEpisodePolicy)
    assert fixed.prepared.query == (0,) and fixed.prepared.first_action == 0
    assert uniform.prepared is None
    assert "prepared" not in repr(pors)
    assert calls == ["pors", "fixed"]
    cfg.seeds = (0, 1, 2)
    assert len(run_suite(cfg).runs) == 9
    assert calls == ["pors", "fixed"]  # once per algorithm, not per run


# ---------------------------------------------------------------------------
# run seeds


def test_derive_run_seed_matches_reference():
    digest = hashlib.sha256(b"0/uni/groups-d2-q1/3").digest()
    expected = int.from_bytes(digest[:8], "little")
    assert derive_run_seed(0, "uni", "groups-d2-q1", 3) == expected


def test_derive_run_seed_separates_coordinates():
    base = derive_run_seed(0, "a", "env", 0)
    assert derive_run_seed(1, "a", "env", 0) != base
    assert derive_run_seed(0, "b", "env", 0) != base
    assert derive_run_seed(0, "a", "env2", 0) != base
    assert derive_run_seed(0, "a", "env", 1) != base
    assert derive_run_seed(0, "a", "env", 0) == base


# ---------------------------------------------------------------------------
# suite execution


def test_run_suite_rows_and_summary(tmp_path):
    cfg = load_config(_write(tmp_path, GROUPS_CFG))
    table = run_suite(cfg)
    assert table.regret_mode == "expected"  # auto resolves to expected
    assert abs(table.v_star - 0.6) < 1e-9
    rows = list(table_rows(table))
    assert len(rows) == 2 * 2 * 10
    # sorted by (algo, seed, episode)
    keys = [(r[0], r[2], r[3]) for r in rows]
    assert keys == sorted(keys)
    for row in rows:
        algo, env_name, seed, episode, reward_v, cum, regret = row
        assert env_name == "groups-d2-q1"
        assert 0.0 <= reward_v <= cfg.env_model.dims.horizon
        assert regret == pytest.approx(regret, nan_ok=False)
    summary = table.summary()
    assert set(summary) == {"uni", "tll"}
    for stats in summary.values():
        assert math.isfinite(stats["mean_final_regret"])


def test_run_order_does_not_change_results(tmp_path):
    cfg_a = load_config(_write(tmp_path, GROUPS_CFG, name="a.cfg"))
    swapped = GROUPS_CFG.replace("seeds = 0,1", "seeds = 1,0")
    cfg_b = load_config(_write(tmp_path, swapped, name="b.cfg"))
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_results_csv(run_suite(cfg_a), path_a)
    write_results_csv(run_suite(cfg_b), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_rerun_is_byte_identical(tmp_path):
    cfg = load_config(_write(tmp_path, GROUPS_CFG))
    path_a = tmp_path / "first.csv"
    path_b = tmp_path / "second.csv"
    write_results_csv(run_suite(cfg), path_a)
    write_results_csv(run_suite(load_config(_write(tmp_path, GROUPS_CFG))), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_master_seed_changes_traces(tmp_path, monkeypatch):
    cfg = load_config(_write(tmp_path, GROUPS_CFG))
    base = run_suite(cfg)
    monkeypatch.setenv("HSILAB_MASTER_SEED", "7")
    other = run_suite(load_config(_write(tmp_path, GROUPS_CFG)))
    base_rewards = np.concatenate([r.rewards for r in base.sorted_runs()])
    other_rewards = np.concatenate([r.rewards for r in other.sorted_runs()])
    assert not np.array_equal(base_rewards, other_rewards)


def _deterministic_env(tmp_path):
    """One-step environment whose fixed best action always pays 1."""
    dims = Dims(d=1, alphabet_size=2, d_query=1, horizon=1, n_actions=2)
    rewards = np.zeros((1, 2, 2))
    rewards[0, 0, 0] = 1.0
    env = EnvModel.from_joint(
        "certain-pay",
        dims,
        "Generic",
        np.array([1.0, 0.0]),
        np.zeros((0, 2, 2, 2)),
        rewards,
    )
    model_path = tmp_path / "certain.cfg"
    dump_model(env, model_path)
    return model_path


def test_fixed_agent_on_file_env(tmp_path):
    model_path = _deterministic_env(tmp_path)
    text = (
        "[experiment]\nepisodes = 3\nseeds = 5\nregret-mode = realized\n\n"
        f"[env builder=file]\npath = {model_path}\n\n"
        "[algo name=fixed label=best]\nactions = 0\nquery = 0\n"
    )
    cfg = load_config(_write(tmp_path, text, name="fixed.cfg"))
    table = run_suite(cfg)
    assert table.v_star == 1.0
    rows = list(table_rows(table))
    assert [r[4] for r in rows] == [1.0, 1.0, 1.0]  # reward
    assert [r[5] for r in rows] == [1.0, 2.0, 3.0]  # cumulative reward
    assert [r[6] for r in rows] == [0.0, 0.0, 0.0]  # realized regret
    summary = table.summary()["best"]
    assert summary["mean_final_regret"] == 0.0
    assert summary["mean_quarter_ratio"] == 1.0  # 0/0 counts as flat


def test_pors_through_harness(tmp_path):
    path = _drift_config(
        tmp_path, "[algo name=pors label=p]\ncandidates = {cands}\n"
    )
    cfg = load_config(path)
    table = run_suite(cfg)
    assert table.regret_mode == "expected"
    assert abs(table.v_star - 0.8) < 1e-9
    rows = list(table_rows(table))
    assert len(rows) == 5
    for row in rows:
        assert row[6] >= -1e-12  # regret never negative for exact values


def test_pors_regret_is_sublinear_at_drift_horizon_3(tmp_path):
    # an open-loop fallback played plans worth 0.5 where V* is 0.8 from
    # horizon 3 on: Reg(2000) / Reg(500) was 4.0 on both seeds
    cand_path = tmp_path / "candidates.cfg"
    dump_candidates(controlled_drift_candidates(horizon=3), cand_path)
    text = (
        "[experiment]\nepisodes = 2000\nseeds = 0,1\n\n"
        "[env builder=controlled-drift]\nhorizon = 3\n\n"
        f"[algo name=pors]\ncandidates = {cand_path}\n"
    )
    table = run_suite(load_config(_write(tmp_path, text)))
    assert table.regret_mode == "expected"
    assert len(table.runs) == 2
    for run in table.runs:
        regret = table.run_regret(run)
        assert regret[1999] <= 2.6 * regret[499]


def test_auto_mode_on_pors_reports_expected(tmp_path):
    path = _drift_config(
        tmp_path, "[algo name=pors label=p]\ncandidates = {cands}\n"
    )
    cfg = load_config(path)
    assert cfg.regret_mode == "auto"
    table = run_suite(cfg)
    assert table.regret_mode == "expected"
    assert table.runs[0].policy_values is not None


def test_agent_builders_cover_every_algorithm_kind():
    assert list(harness._AGENT_BUILDERS) == list(harness._ALGO_SCHEMAS)


def test_verify_on_runs_and_writes_the_same_csv(tmp_path, monkeypatch):
    calls = []
    verify_groups = harness._VERIFIERS["groups"]

    def counting(params, m):
        calls.append((params, m))
        return verify_groups(params, m)

    monkeypatch.setitem(harness._VERIFIERS, "groups", counting)
    off = tmp_path / "off.csv"
    write_results_csv(run_suite(load_config(_write(tmp_path, GROUPS_CFG))), off)
    assert calls == []
    text = GROUPS_CFG.replace("seeds = 0,1", "seeds = 0,1\nverify = on")
    cfg = load_config(_write(tmp_path, text, name="verify.cfg"))
    assert calls == [
        ({"d": 2, "epsilon": 0.1, "d-query": 1, "n-actions": 2}, cfg.env_model)
    ]
    on = tmp_path / "on.csv"
    write_results_csv(run_suite(cfg), on)
    assert len(calls) == 1
    assert on.read_bytes() == off.read_bytes()


@pytest.mark.parametrize("kind, params", [
    ("tree", "alphabet-size = 2\nd = 3\nn-actions = 2\nepsilon = 0.1\n"),
    ("flat-emission", "epsilon = 0.1\n"),
], ids=["tree", "flat-emission"])
def test_verify_on_checks_the_env_the_config_built(tmp_path, monkeypatch, kind, params):
    # the structural checks read the env load_config built: one build per
    # load, and verify_instance builds its own
    builds = []
    build = harness._ENV_BUILDERS[kind]

    def counting(**kwargs):
        builds.append(kwargs)
        return build(**kwargs)

    monkeypatch.setitem(harness._ENV_BUILDERS, kind, counting)
    text = (
        "[experiment]\nepisodes = 2\nseeds = 0\nverify = on\n\n"
        f"[env builder={kind}]\n{params}\n[algo name=uniform]\n"
    )
    assert load_config(_write(tmp_path, text)).env_model is not None
    assert len(builds) == 1
    assert verify_instance(kind, {}).passed
    assert len(builds) == 2


def test_regret_off_mode(tmp_path):
    text = GROUPS_CFG.replace(
        "seeds = 0,1", "seeds = 0,1\nregret-mode = off"
    )
    cfg = load_config(_write(tmp_path, text))
    table = run_suite(cfg)
    assert table.regret_mode == "off"
    assert table.v_star is None
    rows = list(table_rows(table))
    assert all(math.isnan(r[6]) for r in rows)
    with pytest.raises(ConfigError):
        emit_plot_svg(table, tmp_path / "never.svg")


def test_summary_ratio_edge_cases():
    runs = [
        RunResult("a", 0, np.array([1.0, 1.0, 1.0, 1.0])),
        RunResult("b", 0, np.array([1.0, 0.0, 0.0, 0.0])),
    ]
    table = ResultsTable("env", "realized", 1.0, runs)
    summary = table.summary()
    # algo a matches v_star each episode: zero quarter and final regret
    assert summary["a"]["mean_quarter_ratio"] == 1.0
    # algo b incurs no regret in the first quarter but some later
    assert summary["b"]["mean_quarter_ratio"] == math.inf


# ---------------------------------------------------------------------------
# CSV round trips


def test_csv_layout_and_round_trip(tmp_path):
    cfg = load_config(_write(tmp_path, GROUPS_CFG))
    table = run_suite(cfg)
    path = tmp_path / "results.csv"
    write_results_csv(table, path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "# regret_mode=expected"
    assert lines[1].startswith("# v_star=")
    assert lines[2] == CSV_HEADER
    assert sum(1 for l in lines if l.startswith("# summary algo=")) == 2
    assert text.endswith("\n")
    data = read_results_csv(path)
    assert data.regret_mode == "expected"
    assert data.env_name == "groups-d2-q1"
    original = list(table_rows(table))
    parsed = list(data.iter_rows())
    assert len(parsed) == len(original)
    for ours, theirs in zip(original, parsed):
        assert ours[:4] == theirs[:4]
        np.testing.assert_allclose(theirs[4:], ours[4:], rtol=1e-6)


@pytest.mark.parametrize("label", ["a;b", "x=y", "a#b", "\u00fcn\u00ef", "1.5e3"])
@pytest.mark.parametrize("mode", ["expected", "off"])
def test_read_csv_round_trips_written_csv(tmp_path, label, mode):
    text = GROUPS_CFG.replace("label=uni", f"label={label}").replace(
        "seeds = 0,1", f"seeds = 0,1\nregret-mode = {mode}"
    )
    table = run_suite(load_config(_write(tmp_path, text)))
    path = write_results_csv(table, tmp_path / "results.csv")
    data = read_results_csv(path)
    assert data.regret_mode == mode
    written = [
        row[:4] + tuple(float("%.9g" % x) for x in row[4:]) for row in table_rows(table)
    ]
    assert [row[:4] for row in data.iter_rows()] == [row[:4] for row in written]
    np.testing.assert_array_equal(
        [row[4:] for row in data.iter_rows()], [row[4:] for row in written]
    )


def test_env_name_with_comma_is_rejected(tmp_path):
    env = build_controlled_drift_instance()
    env.name = "drift,v2"
    model_path = tmp_path / "model.txt"
    dump_model(env, model_path)
    text = (
        "[experiment]\nepisodes = 3\nseeds = 0\n\n"
        f"[env builder=file]\npath = {model_path}\n\n[algo name=uniform]\n"
    )
    with pytest.raises(ConfigError, match="env name 'drift,v2'"):
        load_config(_write(tmp_path, text))


def test_read_csv_rejects_malformed(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("algo,env\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="header"):
        read_results_csv(bad_header)
    bad_row = tmp_path / "row.csv"
    bad_row.write_text(CSV_HEADER + "\nuni,env,0,1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="row.csv:2"):
        read_results_csv(bad_row)
    with pytest.raises((ConfigError, OSError)):
        read_results_csv(tmp_path / "missing.csv")


# ---------------------------------------------------------------------------
# SVG plots


def test_svg_is_self_contained_xml(tmp_path):
    cfg = load_config(_write(tmp_path, GROUPS_CFG))
    table = run_suite(cfg)
    path = tmp_path / "plot.svg"
    emit_plot_svg(table, path)
    text = path.read_text(encoding="utf-8")
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert "script" not in text
    assert text.count("http://www.w3.org/2000/svg") == 1  # only the namespace
    assert "polyline" in text
    assert "uni" in text and "tll" in text  # legend labels
    assert "cumulative regret" in text


def test_plot_from_reloaded_csv(tmp_path):
    cfg = load_config(_write(tmp_path, GROUPS_CFG))
    table = run_suite(cfg)
    csv_path = tmp_path / "results.csv"
    write_results_csv(table, csv_path)
    data = read_results_csv(csv_path)
    svg_path = tmp_path / "replot.svg"
    emit_plot_svg(data, svg_path)
    ET.fromstring(svg_path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# the column writers against the row-wise references


def _seeded_table(mode, n_episodes):
    """Two algorithms x three seeds of seeded rewards (and policy values in
    expected mode); labels and env name carry '%' to catch a prefix used
    as a format string."""
    rng = np.random.default_rng(n_episodes)
    runs = []
    for algo in ("b%d", "a"):
        for seed in (11, 0, 3):
            if algo == "a":
                rewards = rng.integers(0, 3, n_episodes) * 0.5
            else:
                rewards = rng.uniform(0.0, 2.0, n_episodes)
            values = rng.uniform(0.0, 1.7, n_episodes) if mode == "expected" else None
            runs.append(RunResult(algo, seed, rewards, values))
    return ResultsTable("env-%s", mode, None if mode == "off" else 1.7, runs)


def _data_lines_shuffled(src, dst, seed=0):
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    start = lines.index(CSV_HEADER + "\n") + 1
    stop = next(i for i in range(start, len(lines)) if lines[i].startswith("#"))
    body = lines[start:stop]
    np.random.default_rng(seed).shuffle(body)
    dst.write_text("".join(lines[:start] + body + lines[stop:]), encoding="utf-8")


@pytest.mark.parametrize("n_episodes", [1, 999, 1000, 1001, 2500])
@pytest.mark.parametrize("mode", ["expected", "realized", "off"])
def test_writers_equal_the_row_wise_references(tmp_path, mode, n_episodes):
    # 1000 is MAX_PLOT_POINTS: lines of 1001 and 2500 points are decimated
    table = _seeded_table(mode, n_episodes)
    csv = write_results_csv(table, tmp_path / "results.csv")
    ref_csv = write_results_csv_reference(table, tmp_path / "reference.csv")
    assert csv.read_bytes() == ref_csv.read_bytes()
    if mode == "off":
        return
    svg = emit_plot_svg(table, tmp_path / "results.svg")
    ref_svg = emit_plot_svg_reference(table, tmp_path / "reference.svg")
    assert svg.read_bytes() == ref_svg.read_bytes()

    shuffled = tmp_path / "shuffled.csv"
    _data_lines_shuffled(csv, shuffled)
    replots = []
    for source in (csv, shuffled):
        data = read_results_csv(source)
        replot = emit_plot_svg(data, tmp_path / "replot.svg").read_bytes()
        reference = emit_plot_svg_reference(data, tmp_path / "ref-replot.svg")
        assert replot == reference.read_bytes()
        replots.append(replot)
    assert replots[0] == replots[1]


def test_replot_of_ragged_csv_equals_the_reference(tmp_path):
    # seeds that stop early, a seed with no regret at all and NaN regrets
    # inside a line: each mean point averages the seeds that have it
    table = _seeded_table("realized", 2500)
    csv = write_results_csv(table, tmp_path / "results.csv")
    kept = []
    for line in csv.read_text(encoding="utf-8").splitlines(keepends=True):
        parts = line.split(",")
        if len(parts) == 7 and parts[0] != "algo":
            algo, seed, episode = parts[0], int(parts[2]), int(parts[3])
            if seed == 3 and episode > 1700 or algo == "a" and seed == 0 and episode > 10:
                continue
            if seed == 11 and episode % 7 == 0 or algo == "b%d" and seed == 0:
                line = ",".join(parts[:6] + ["nan\n"])
        kept.append(line)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("".join(kept), encoding="utf-8")
    data = read_results_csv(ragged)
    svg = emit_plot_svg(data, tmp_path / "ragged.svg")
    reference = emit_plot_svg_reference(data, tmp_path / "reference.svg")
    assert svg.read_bytes() == reference.read_bytes()


def test_csv_is_written_one_run_at_a_time(tmp_path):
    # 20 runs x 5000 episodes, the bandit-tree workload's size: the row-wise
    # writer held every line and their join, about five times the file
    rng = np.random.default_rng(7)
    runs = [
        RunResult(algo, seed, rng.integers(0, 2, 5000) * 1.0)
        for algo in ("greedy", "uniform")
        for seed in range(10)
    ]
    table = ResultsTable("tree-a2-d3", "realized", 0.6, runs)
    path = tmp_path / "results.csv"
    tracemalloc.start()
    try:
        write_results_csv(table, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 2_000_000
    assert peak < size / 2, (peak, size)


# ---------------------------------------------------------------------------
# instance verification


def test_verify_groups_passes():
    report = verify_instance("groups", {"d": 3})
    assert report.passed
    text = report.format()
    assert "PASS" in text and "FAIL" not in text


def test_verify_accepts_string_params():
    report = verify_instance("groups", {"d": "3", "d-query": "2"})
    assert report.passed


def test_verify_flat_and_tree():
    assert verify_instance("flat-emission", {}).passed
    assert verify_instance("tree", {"d": 3}).passed


def test_verify_unknown_instance():
    with pytest.raises(ConfigError, match="groups"):
        verify_instance("nonsense", {})
    with pytest.raises(ConfigError, match="epsilon"):
        verify_instance("groups", {"d": 3, "epsilon": 0.1})


def test_verify_rejects_non_integer_param():
    with pytest.raises(ConfigError, match="d must be int"):
        verify_instance("tree", {"d": 3.5})


@pytest.mark.parametrize(
    "args, message",
    [
        (["tree", "epsilon=nan"], "cannot verify tree: epsilon must lie in"),
        (["groups", "d=1"], "cannot verify groups: need d >= 2, got 1"),
        (["tree", "d=0"], "cannot verify tree: need d >= 1, got 0"),
    ],
    ids=["tree-epsilon-nan", "groups-d-1", "tree-d-0"],
)
def test_cli_verify_rejects_builder_errors_without_traceback(args, message):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "hsilab", "verify", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: <params>: {message}")
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# command-line interface


def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg_path = _write(tmp_path, GROUPS_CFG)
    out_dir = tmp_path / "out"
    assert cli.main(["run", cfg_path, "-o", str(out_dir)]) == 0
    captured = capsys.readouterr().out
    assert "groups-d2-q1" in captured
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "results.svg").exists()


def test_cli_oracle_prints_value(tmp_path, capsys):
    cfg_path = _write(tmp_path, GROUPS_CFG)
    assert cli.main(["oracle", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "v_star: 0.6" in out


def test_cli_verify_pass_and_param_errors(capsys):
    assert cli.main(["verify", "groups", "d=3"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert cli.main(["verify", "nonsense"]) == 1
    assert cli.main(["verify", "groups", "d"]) == 1  # not key=value
    assert cli.main(["verify", "groups", "frobnicate=1"]) == 1


def test_cli_verify_failure_exits_two(monkeypatch, capsys):
    from hsilab.harness import CheckResult, VerificationReport

    def failing(instance, params=None):
        return VerificationReport(
            instance="groups",
            checks=[CheckResult("doomed", False, "synthetic failure")],
        )

    monkeypatch.setattr(cli.harness, "verify_instance", failing)
    assert cli.main(["verify", "groups"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_cli_run_and_oracle_stop_on_a_failed_config_verification(
    tmp_path, monkeypatch, capsys
):
    from hsilab.harness import CheckResult, VerificationReport

    def failing(params, m):
        return VerificationReport(
            "groups", [CheckResult("doomed", False, "synthetic failure")]
        )

    monkeypatch.setitem(harness._VERIFIERS, "groups", failing)
    text = GROUPS_CFG.replace("seeds = 0,1", "seeds = 0,1\nverify = on")
    cfg_path = _write(tmp_path, text)
    out_dir = tmp_path / "out"
    assert cli.main(["run", cfg_path, "-o", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("verification failure:")
    assert not (out_dir / "results.csv").exists()
    assert cli.main(["oracle", cfg_path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("verification failure:")
    assert "v_star" not in captured.out


def test_cli_plot_round_trip(tmp_path):
    cfg_path = _write(tmp_path, GROUPS_CFG)
    out_dir = tmp_path / "out"
    assert cli.main(["run", cfg_path, "-o", str(out_dir)]) == 0
    svg = tmp_path / "replot.svg"
    assert cli.main(["plot", str(out_dir / "results.csv"), "-o", str(svg)]) == 0
    assert svg.exists()


def _set_field(lines, lineno, column, value):
    parts = lines[lineno - 1].split(",")
    parts[column] = value
    lines[lineno - 1] = ",".join(parts)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: _set_field(lines, 5, 6, "inf"), "5: regret must be finite, got inf"),
        (lambda lines: _set_field(lines, 6, 6, "-inf"), "6: regret must be finite, got -inf"),
        (lambda lines: _set_field(lines, 7, 3, "-5"), "7: episode must lie in 1..134217728, got -5"),
        (lambda lines: _set_field(lines, 7, 3, "0"), "7: episode must lie in 1..134217728, got 0"),
        (lambda lines: lines.insert(8, lines[4]), "9: repeats episode 2 of algo 'tll', seed 0"),
    ],
    ids=["regret-inf", "regret-minus-inf", "episode-minus-5", "episode-0", "repeated-episode"],
)
def test_cli_plot_refuses_bad_rows_without_traceback(tmp_path, edit, message):
    # these rows drew NaN coordinates, points left of the y axis or a
    # silently dropped point, and hsilab plot exited 0
    table = run_suite(load_config(_write(tmp_path, GROUPS_CFG)))
    lines = write_results_csv(table, tmp_path / "results.csv").read_text().splitlines()
    assert lines[2] == CSV_HEADER and lines[3].startswith("tll,groups-d2-q1,0,1,")
    edit(lines)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _assert_plot_refuses(bad, f"{bad}:{message}")


def _assert_plot_refuses(bad, message):
    """``hsilab plot`` under ``-W error`` exits 1 with exactly this error
    and writes no SVG."""
    svg = bad.with_suffix(".svg")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hsilab", "plot", str(bad), "-o", str(svg)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"
    assert not svg.exists()


@pytest.mark.parametrize(
    "regrets, message",
    [
        ([(0, 1e308), (1, -1e308), (2, 0.0)], "regrets from -1e+308 to 1e+308 over 3 runs"),
        ([(0, 1e308), (1, 1e308)], "regrets from 0.0 to 1e+308 over 2 runs"),
    ],
    ids=["span-overflows", "mean-overflows"],
)
def test_cli_plot_refuses_regrets_that_overflow_the_scale(tmp_path, regrets, message):
    # each regret is finite, but the y span or the mean over seeds is not:
    # the plot drew nan and inf coordinates, and -W error ended in a traceback
    bad = tmp_path / "huge.csv"
    rows = [f"a,e,{seed},1,0,0,{regret!r}" for seed, regret in regrets]
    bad.write_text(
        "\n".join(["# regret_mode=expected", CSV_HEADER, *rows]) + "\n", encoding="utf-8"
    )
    _assert_plot_refuses(bad, f"{bad}: {message} overflow the plot's scale")


def test_cli_run_rejects_file_model_with_nan(tmp_path, capsys):
    env = build_controlled_drift_instance()
    env.rewards[1, 0, 0] = np.nan
    model_path = tmp_path / "model.txt"
    dump_model(env, model_path)
    assert "nan" in model_path.read_text()
    text = (
        "[experiment]\nepisodes = 3\nseeds = 0\n\n"
        f"[env builder=file]\npath = {model_path}\n\n[algo name=uniform]\n"
    )
    assert cli.main(["run", _write(tmp_path, text)]) == 1
    assert "non-finite value in rewards" in capsys.readouterr().err


def test_cli_error_exit_codes(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 1
    assert cli.main(["nonsense-command"]) == 1
    assert cli.main([]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
