import json
import math

import numpy as np
import pytest

from sidnn.data import synth_wiener_hammerstein
from sidnn.errors import BookkeepingError, ParameterError, TrainingError
from sidnn.hpo import (
    Rung,
    SearchEvent,
    SearchSpace,
    _trial_seed,
    asha_decide,
    replay_decisions,
    run_search,
    sample_config,
)
from sidnn.models import ModelSpec
from sidnn.training import TrainConfig


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_degenerate_space_always_same_config():
    space = SearchSpace(lr=(1e-3, 1e-3), weight_decay=(1e-5, 1e-5), hidden=(32,),
                        depth=(2, 2), chunk_len=(256,), residual=(True,))
    configs = [sample_config(space, seed=0, trial_index=i) for i in range(10)]
    assert all(c == configs[0] for c in configs)


def test_log_uniform_draws_stay_in_bounds():
    space = SearchSpace()
    for i in range(200):
        c = sample_config(space, seed=1, trial_index=i)
        assert 1e-4 <= c["lr"] <= 1e-2
        assert 1e-6 <= c["weight_decay"] <= 1e-3
        assert c["hidden"] in space.hidden
        assert space.depth[0] <= c["depth"] <= space.depth[1]


def test_log_uniform_median_near_geometric_mean():
    space = SearchSpace(lr=(1e-4, 1e-2))
    draws = [sample_config(space, seed=2, trial_index=i)["lr"] for i in range(1000)]
    assert 8e-4 <= float(np.median(draws)) <= 1.3e-3


@pytest.mark.parametrize("setting", [{"budget": 0}, {"workers": 0}, {"eta": 1}, {"r_min": 0},
                                     {"num_rungs": 0}],
                         ids=["budget", "workers", "eta", "r_min", "num_rungs"])
def test_run_search_rejects_out_of_range_settings(setting):
    args = {"budget": 3, "workers": 1, "eta": 3, "r_min": 1, "num_rungs": 2, **setting}
    with pytest.raises(ParameterError, match=next(iter(setting))):
        run_search(SearchSpace(), args.pop("budget"), args.pop("workers"), None,
                   trial_runner=lambda config, trial_id, epochs: 1.0, **args)


def test_space_validates_bounds():
    with pytest.raises(ParameterError):
        SearchSpace(lr=(0.0, 1e-2))
    with pytest.raises(ParameterError):
        SearchSpace(depth=(3, 2))


# ---------------------------------------------------------------------------
# asha_decide
# ---------------------------------------------------------------------------


def _rung_with(results):
    rung = Rung(index=0, resource=2)
    rung.results = list(results)
    return rung


def test_decide_min_of_three_is_promoted():
    rung = _rung_with([(0, 0.5), (1, 0.2), (2, 0.9)])
    assert asha_decide([rung], (2, 0, 0.9), eta=3) == "stop"
    assert asha_decide([rung], (1, 0, 0.2), eta=3) == "promote"
    assert asha_decide([rung], (0, 0, 0.5), eta=3) == "stop"


def test_decide_first_result_is_promoted():
    rung = _rung_with([(7, 1.23)])
    assert asha_decide([rung], (7, 0, 1.23), eta=3) == "promote"


def test_decide_tie_break_prefers_lower_trial_id():
    rung = _rung_with([(3, 0.4), (9, 0.4)])
    assert asha_decide([rung], (3, 0, 0.4), eta=2) == "promote"
    assert asha_decide([rung], (9, 0, 0.4), eta=2) == "stop"


def test_decide_unknown_rung_raises():
    with pytest.raises(BookkeepingError):
        asha_decide([_rung_with([])], (0, 5, 1.0), eta=3)


def test_eta2_upfront_promotes_exactly_half():
    for k in (1, 2, 3, 4, 5, 6, 7, 20):
        results = [(i, float(i)) for i in range(k)]
        rung = _rung_with(results)
        promoted = sum(
            asha_decide([rung], (i, 0, float(i)), eta=2) == "promote" for i in range(k)
        )
        assert promoted == math.ceil(k / 2)


# ---------------------------------------------------------------------------
# run_search with an injected objective
# ---------------------------------------------------------------------------


def _rank_table_27():
    """Arrival-ordered quality ranks for which serial ASHA provably matches
    synchronous successive halving (good slots interleaved two-bad-apart)."""
    goods = [1, 4, 5, 2, 6, 7, 3, 8, 9]
    bads = iter(range(10, 28))
    ranks = []
    for g in goods:
        ranks.append(g)
        ranks.append(next(bads))
        ranks.append(next(bads))
    return ranks  # position i (trial id i) has quality rank ranks[i]


def _make_runner(losses_by_trial, seed):
    seed_to_trial = {_trial_seed(seed, t): t for t in range(len(losses_by_trial))}

    def runner(config, epochs, trial_seed):
        return losses_by_trial[seed_to_trial[trial_seed]]

    return runner


def _sync_sha(losses, eta, num_rungs):
    """Independent synchronous successive-halving oracle."""
    alive = list(range(len(losses)))
    for _ in range(num_rungs - 1):
        alive.sort(key=lambda t: (losses[t], t))
        alive = alive[: math.ceil(len(alive) / eta)]
    return set(alive)


def test_serial_asha_top_rung_matches_synchronous_halving():
    ranks = _rank_table_27()
    losses = [r / 100.0 for r in ranks]
    runner = _make_runner(losses, seed=0)
    records, events = run_search(
        SearchSpace(), budget=27, workers=1, data=None,
        eta=3, r_min=2, num_rungs=3, seed=0, trial_runner=runner,
    )
    top_rung = {r.trial_id for r in records if len(r.rungs) == 3}
    expected = _sync_sha(losses, eta=3, num_rungs=3)
    assert top_rung == expected
    # every promote/stop decision replays identically from the event log
    assert replay_decisions(events, eta=3, num_rungs=3, r_min=2)


def test_search_is_deterministic_per_seed():
    losses = [r / 10.0 for r in _rank_table_27()]
    runner = _make_runner(losses, seed=3)
    a = run_search(SearchSpace(), 27, 1, None, eta=3, seed=3, trial_runner=runner)
    b = run_search(SearchSpace(), 27, 1, None, eta=3, seed=3, trial_runner=runner)
    assert [(e.trial_id, e.rung, e.decision) for e in a[1]] == \
           [(e.trial_id, e.rung, e.decision) for e in b[1]]
    assert [(r.trial_id, r.status) for r in a[0]] == \
           [(r.trial_id, r.status) for r in b[0]]


def test_failed_trial_does_not_abort_search():
    losses = [r / 10.0 for r in _rank_table_27()]
    seed = 4
    seed_to_trial = {_trial_seed(seed, t): t for t in range(27)}

    def runner(config, epochs, trial_seed):
        trial = seed_to_trial[trial_seed]
        if trial == 5:
            raise TrainingError("synthetic failure")
        return losses[trial]

    records, events = run_search(SearchSpace(), 27, 1, None, eta=3, seed=seed,
                                 trial_runner=runner)
    by_id = {r.trial_id: r for r in records}
    assert by_id[5].status == "failed"
    assert sum(1 for r in records if r.status != "failed") == 26
    fails = [e for e in events if e.decision == "fail"]
    assert [(e.trial_id, e.error) for e in fails] == [(5, "TrainingError: synthetic failure")]
    assert all(e.error is None for e in events if e.decision != "fail")


def test_untyped_trial_error_neither_hangs_nor_escapes_untyped(tmp_path):
    import json
    import threading

    calls = []
    lock = threading.Lock()

    def runner(config, epochs, trial_seed):
        with lock:
            calls.append(trial_seed)
            first = len(calls) == 1
        if first:
            raise ValueError("synthetic crash")
        return 0.5

    out = tmp_path / "trials.jsonl"
    raised = []

    def search():
        try:
            run_search(SearchSpace(), 9, 2, None, eta=3, seed=8, trial_runner=runner,
                       out_path=out)
        except Exception as exc:  # collected for the asserts below
            raised.append(exc)

    th = threading.Thread(target=search, daemon=True)
    th.start()
    th.join(timeout=30)
    assert not th.is_alive(), "search deadlocked after a trial raised ValueError"
    assert len(raised) == 1 and isinstance(raised[0], TrainingError)
    assert isinstance(raised[0].__cause__, ValueError)
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    fails = [line for line in lines if line["decision"] == "fail"]
    assert fails and fails[0]["error"] == "ValueError: synthetic crash"
    assert all("error" not in line for line in lines if line["decision"] != "fail")


def test_no_trial_runs_a_rung_twice_and_resources_increase():
    losses = [r / 10.0 for r in _rank_table_27()]
    runner = _make_runner(losses, seed=5)
    records, _ = run_search(SearchSpace(), 27, 1, None, eta=3, r_min=2,
                            num_rungs=3, seed=5, trial_runner=runner)
    for rec in records:
        resources = [res for res, _ in rec.rungs]
        assert resources == sorted(set(resources))


def test_event_log_persisted_as_jsonl(tmp_path):
    import json

    losses = [r / 10.0 for r in _rank_table_27()]
    runner = _make_runner(losses, seed=6)
    out = tmp_path / "trials.jsonl"
    _, events = run_search(SearchSpace(), 9, 1, None, eta=3, seed=6,
                           trial_runner=runner, out_path=out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == len(events)
    first = json.loads(lines[0])
    assert set(first) == {"trial_id", "rung", "epochs", "valid_rmse", "decision",
                          "timestamp"}


def test_parallel_workers_complete_all_trials():
    losses = [r / 10.0 for r in _rank_table_27()]
    runner = _make_runner(losses, seed=7)
    records, events = run_search(SearchSpace(), 12, 3, None, eta=3, seed=7,
                                 trial_runner=runner)
    assert len(records) == 12
    assert all(r.status in ("stopped", "promoted", "completed") for r in records)
    assert replay_decisions(events, eta=3)


def test_search_on_synthetic_system_beats_default_config():
    # trial 0 seeds the search with the space's default config and, run
    # serially, always climbs to the top rung; so the search's best result
    # can never be worse than the default-config baseline at equal budget
    data = synth_wiener_hammerstein(2400, seed=0, noise_std=0.02)
    space = SearchSpace(lr=(3e-3, 3e-2), weight_decay=(1e-7, 1e-5),
                        hidden=(8, 16), depth=(1, 2), chunk_len=(64, 128),
                        residual=(True,))
    base_spec = ModelSpec(arch="gru", mode="nar", input_dim=1, hidden=8, depth=1)
    base_config = TrainConfig(window_len=256, chunk_len=128, batch_size=4,
                              lr_max=1e-2, max_epochs=1, plateau_patience=2,
                              seed=0)
    records, _ = run_search(space, budget=16, workers=1, data=data,
                            base_spec=base_spec, base_config=base_config,
                            eta=3, r_min=1, num_rungs=3, seed=0)
    from sidnn.hpo import _default_trial_runner

    baseline_runner = _default_trial_runner(data, base_spec, base_config)
    baseline = baseline_runner(space.default_overlay(), 9, _trial_seed(0, 0))
    best = min(r.best_loss for r in records)
    assert best <= baseline + 1e-12


def _fail_all_but(ok_trials, seed, make_exc):
    seed_to_trial = {_trial_seed(seed, t): t for t in range(27)}

    def runner(config, epochs, trial_seed):
        trial = seed_to_trial[trial_seed]
        if trial not in ok_trials:
            raise make_exc(trial)
        return trial / 10.0

    return runner


def test_system_exit_in_a_worker_ends_the_search_as_training_error(tmp_path):
    import json

    out = tmp_path / "trials.jsonl"
    runner = _fail_all_but(set(range(27)) - {1}, 9, lambda trial: SystemExit(3))
    with pytest.raises(TrainingError, match="trial 1 raised SystemExit: 3") as info:
        run_search(SearchSpace(), 9, 2, None, eta=3, seed=9, trial_runner=runner,
                   out_path=out)
    assert isinstance(info.value.__cause__, SystemExit)
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(e["trial_id"], e["error"]) for e in lines if e["decision"] == "fail"] == \
           [(1, "SystemExit: 3")]
    # the hand-out stopped: at most the other worker's trial ran after trial 1
    assert len({e["trial_id"] for e in lines}) <= 3


def test_budget_below_worker_count_runs_each_trial_once():
    records, events = run_search(SearchSpace(), 2, 3, None, eta=3, num_rungs=2, seed=0,
                                 trial_runner=lambda config, epochs, trial_seed: 1.0)
    assert sorted(r.trial_id for r in records) == [0, 1]
    assert replay_decisions(events, eta=3, num_rungs=2)


def test_event_log_holds_one_search(tmp_path):
    losses = [r / 10.0 for r in _rank_table_27()]
    out = tmp_path / "trials.jsonl"
    run_search(SearchSpace(), 6, 1, None, seed=0, trial_runner=_make_runner(losses, 0),
               out_path=out)
    _, events = run_search(SearchSpace(), 6, 1, None, seed=5,
                           trial_runner=_make_runner(losses, 5), out_path=out)
    logged = [SearchEvent(**json.loads(line)) for line in out.read_text().splitlines()]
    assert [(e.trial_id, e.rung, e.valid_rmse, e.decision) for e in logged] == \
           [(e.trial_id, e.rung, e.valid_rmse, e.decision) for e in events]
    assert replay_decisions(logged)


def test_search_with_no_completed_trial_raises():
    runner = _fail_all_but(set(), 2, lambda trial: ParameterError(f"bad trial {trial}"))
    with pytest.raises(TrainingError, match="trial 0 failed with ParameterError: bad trial 0"):
        run_search(SearchSpace(), 4, 2, None, seed=2, trial_runner=runner)


_INTERRUPTED_SEARCH = """
import sys, time
from sidnn.hpo import SearchSpace, run_search

def runner(config, epochs, trial_seed):
    with open(sys.argv[1], "a") as fh:
        fh.write("start\\n")
    time.sleep(30)
    return 1.0

run_search(SearchSpace(), 9, int(sys.argv[2]), None, trial_runner=runner)
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_interrupt_ends_the_search_at_once(tmp_path, workers):
    import os
    import signal
    import subprocess
    import sys
    import time
    from pathlib import Path

    import sidnn

    starts = tmp_path / "starts.txt"
    env = dict(os.environ, PYTHONPATH=str(Path(sidnn.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", _INTERRUPTED_SEARCH, str(starts),
                             str(workers)], env=env, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (starts.exists() and len(starts.read_text().splitlines()) == workers):
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.02)
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=5)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode != 0
    assert len(starts.read_text().splitlines()) == workers, "a trial started after Ctrl-C"
