import importlib
import json
import math

import numpy as np
import pytest

from eenas.arch import Chromosome, chromosome_hash, decode
from eenas.evaluate import EvaluationReport
from eenas.hwcost import cost_report
from eenas.predict import LabeledRecord
from eenas.search import (
    CostCache,
    EvaluationFailure,
    NasConfig,
    OracleEvaluator,
    SearchError,
    audit_history,
    et_reduction_value,
    filter_exit_ratio,
    ga_generation,
    init_population,
    mac_reduction,
    pareto_front,
    read_history,
    replay_history,
    run_search,
    select_parents,
)
from helpers import enumerate_genes, enumerate_space, save_external_report


def make_report(ratios, accs=None, threshold=0.9, total=1000):
    counts = [round(r * total) for r in ratios]
    counts[-1] += total - sum(counts)
    ratios = tuple(c / total for c in counts)
    if accs is None:
        accs = tuple(80.0 if c else None for c in counts)
    return EvaluationReport(
        accuracy_per_exit=tuple(accs),
        exit_ratios=ratios,
        sample_counts=tuple(counts),
        threshold=threshold,
    )


def record(key_genes, acc, et):
    return LabeledRecord(genes=tuple(key_genes), acc_avg=acc, et_avg=et)


class TestParetoFront:
    def test_dominated_point_removed(self):
        recs = [
            record((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 90.0, 100.0),
            record((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 85.0, 50.0),
            record((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0), 80.0, 200.0),
        ]
        front = pareto_front(recs)
        assert [(r.acc_avg, r.et_avg) for r in front] == [(90.0, 100.0), (85.0, 50.0)]

    def test_single_record_is_its_own_front(self):
        recs = [record((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 70.0, 10.0)]
        assert pareto_front(recs) == recs

    def test_matches_quadratic_dominance_oracle(self):
        rng = np.random.default_rng(0)
        genes = list(enumerate_genes(4, 2, 2))[:100]
        recs = [
            record(g, float(rng.uniform(50, 100)), float(rng.uniform(1, 1000)))
            for g in genes
        ]
        front = {r.key for r in pareto_front(recs)}
        oracle = set()
        for a in recs:
            dominated = False
            for b in recs:
                if (
                    b.acc_avg >= a.acc_avg
                    and b.et_avg <= a.et_avg
                    and (b.acc_avg > a.acc_avg or b.et_avg < a.et_avg)
                ):
                    dominated = True
                    break
            if not dominated:
                oracle.add(a.key)
        assert front == oracle

    def test_duplicate_objectives_all_kept(self):
        recs = [
            record((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 80.0, 10.0),
            record((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 80.0, 10.0),
        ]
        assert len(pareto_front(recs)) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pareto_front([])


class TestReductions:
    def test_identical_static_architecture_reduces_nothing(self, small_space, accel):
        chrom = Chromosome((0, 0, 0) * 4 + (0, 0))
        arch = decode(chrom, small_space)
        static = cost_report(arch, accel)
        report = cost_report(arch, accel, exit_ratios=(1.0,))
        assert et_reduction_value(report.et_avg, static.et_per_exit[-1]) == 0.0

    def test_half_cost_is_half_reduction(self, small_space, accel):
        chrom = Chromosome((1, 0, 0) + (0, 0, 0) * 3 + (0, 0))
        arch = decode(chrom, small_space)
        static = cost_report(arch, accel)
        static_et = static.et_per_exit[-1]
        assert et_reduction_value(static_et / 2, static_et) == pytest.approx(0.5)

    def test_zero_static_baseline_rejected(self):
        with pytest.raises(ValueError):
            et_reduction_value(1.0, 0.0)

    def test_mac_reduction_hand_example(self):
        assert mac_reduction((0.5, 0.5), (100, 300), 300) == pytest.approx(1 / 3)

    def test_mac_reduction_published_row(self):
        er = (0.2549, 0.1531, 0.3114, 0.2806)
        cum = (24_515_584, 48_752_640, 118_307_840, 195_377_152)
        expected = 1 - sum(r * c for r, c in zip(er, cum)) / cum[-1]
        assert expected == pytest.approx(0.46065, abs=1e-4)
        assert mac_reduction(er, cum, cum[-1]) == pytest.approx(expected)

    def test_one_hot_last_is_zero_reduction(self):
        assert mac_reduction((0.0, 1.0), (100, 300), 300) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mac_reduction((1.0,), (100, 200), 200)
        with pytest.raises(ValueError):
            mac_reduction((1.0,), (100,), 0)


class TestSelectParents:
    def estimates(self, table):
        return lambda key, genes: table[key]

    def test_two_stage_hand_trace(self):
        candidates = [(k, (0,)) for k in "abcd"]
        table = {"a": (90, 5), "b": (80, 1), "c": (85, 2), "d": (70, 9)}
        picked = select_parents(candidates, self.estimates(table), n=1)
        assert [k for k, _ in picked] == ["c"]

    def test_ties_break_by_hash_order(self):
        candidates = [(k, (0,)) for k in ("x2", "x1", "x3", "x0")]
        table = {k: (50.0, 10.0) for k, _ in candidates}
        picked = select_parents(candidates, self.estimates(table), n=2)
        assert [k for k, _ in picked] == ["x0", "x1"]

    def test_short_pool_takes_everything_into_second_stage(self):
        candidates = [(k, (0,)) for k in "ab"]
        table = {"a": (90, 9), "b": (10, 1)}
        picked = select_parents(candidates, self.estimates(table), n=2)
        assert {k for k, _ in picked} == {"a", "b"}


class TestNasConfig:
    def test_json_roundtrip_including_disabled_cap(self):
        config = NasConfig(theta=math.inf, seed=9)
        data = config.to_json()
        assert data["theta"] is None
        assert NasConfig.from_json(data) == config
        plain = NasConfig()
        assert NasConfig.from_json(plain.to_json()) == plain

    def test_validation(self):
        with pytest.raises(ValueError):
            NasConfig(mu=0.0)
        with pytest.raises(ValueError):
            NasConfig(theta=0.0)
        with pytest.raises(ValueError):
            NasConfig(mutation_rate=1.5)
        with pytest.raises(ValueError):
            NasConfig.from_json({"bogus_knob": 1})

    def test_run_config_line_keeps_the_fixed_ranking_keys(
        self, small_space, accel, tmp_path
    ):
        """Resume compares headers byte for byte, so the header still
        carries the shortlist keys at their only values."""
        path = tmp_path / "history.jsonl"
        config = NasConfig(iterations=1, n_select=4, init_population=8, seed=2)
        run_search(
            small_space, accel, OracleEvaluator(seed=0), config,
            history_path=str(path),
        )
        line = path.read_text().splitlines()[0]
        assert json.loads(line)["event"] == "run-config"
        assert '"ranking":"lexicographic"' in line
        assert '"weights":[1.0,1.0]' in line
        nas = json.loads(line)["nas"]
        assert NasConfig.from_json(nas) == config
        assert NasConfig.from_json(nas).to_json() == nas
        for field, value in (("ranking", "weighted"), ("weights", [1.0, 2.0])):
            with pytest.raises(ValueError, match=f"field {field} must be"):
                NasConfig.from_json(dict(nas, **{field: value}))


class TestFilters:
    def test_exit_ratio_boundary_inclusive(self):
        population = [
            ("a", make_report((0.7, 0.3))),
            ("b", make_report((0.5, 0.5))),
            ("c", make_report((0.49, 0.51))),
        ]
        kept, removed = filter_exit_ratio(population, 0.5)
        assert [k for k, _ in kept] == ["a", "b"]
        assert [k for k, _ in removed] == ["c"]

    def test_mu_of_one_keeps_everything(self):
        population = [("a", make_report((0.0, 1.0)))]
        kept, removed = filter_exit_ratio(population, 1.0)
        assert len(kept) == 1 and not removed

    def test_empty_survivor_set_is_legal(self):
        population = [("a", make_report((0.2, 0.8)))]
        kept, removed = filter_exit_ratio(population, 0.5)
        assert kept == [] and len(removed) == 1


class TestInitPopulation:
    def test_unconstrained_sampling_reaches_target(self, small_space, accel):
        config = NasConfig(init_population=30, theta=math.inf, seed=1)
        cost = CostCache(small_space, accel)
        rng = np.random.default_rng(1)
        events = []
        accepted = init_population(small_space, config, cost, rng, events.append)
        assert len(accepted) == 30
        assert not [e for e in events if e["event"] == "filtered-theta"]

    def test_deterministic_given_seed(self, small_space, accel):
        config = NasConfig(init_population=20, seed=5)
        cost = CostCache(small_space, accel)
        a = init_population(small_space, config, cost, np.random.default_rng(5))
        b = init_population(small_space, config, cost, np.random.default_rng(5))
        assert a == b

    def test_every_member_passes_overhead_cap_post_hoc(self, small_space, accel):
        config = NasConfig(init_population=25, theta=0.5, seed=2)
        cost = CostCache(small_space, accel)
        accepted = init_population(
            small_space, config, cost, np.random.default_rng(2)
        )
        fresh = CostCache(small_space, accel)
        for genes in accepted.values():
            assert fresh.max_overhead(Chromosome(genes)) <= 0.5

    def test_shortfall_reported(self, small_space, accel):
        config = NasConfig(init_population=50, attempt_factor=1, seed=3)
        cost = CostCache(small_space, accel)
        events = []
        accepted = init_population(
            small_space, config, cost, np.random.default_rng(3), events.append
        )
        shortfall = [e for e in events if e["event"] == "sampling-shortfall"]
        if len(accepted) < 50:
            assert shortfall and shortfall[0]["found"] == len(accepted)


class TestGaGeneration:
    def test_no_mutation_identical_parents_dedup_to_nothing(self, small_space, accel):
        config = NasConfig(mutation_rate=0.0, crossover_rate=1.0, seed=0)
        cost = CostCache(small_space, accel)
        genes = (1, 0, 0) + (0, 0, 0) * 3 + (0, 0)
        parents = [("p1", genes), ("p2", genes)]
        children = ga_generation(
            parents,
            small_space,
            config,
            np.random.default_rng(0),
            cost,
            exclude={chromosome_hash(Chromosome(genes))},
        )
        assert children == {}

    def test_offspring_are_valid_and_capped(self, small_space, accel):
        config = NasConfig(mutation_rate=0.3, seed=4)
        cost = CostCache(small_space, accel)
        rng = np.random.default_rng(4)
        accepted = init_population(
            small_space, NasConfig(init_population=10, seed=4), cost, rng
        )
        parents = sorted(accepted.items())
        children = ga_generation(
            parents, small_space, config, rng, cost, exclude=set(accepted)
        )
        assert children
        for key, genes in children.items():
            arch = decode(Chromosome(genes), small_space)
            assert arch.m >= 1
            assert cost.max_overhead(Chromosome(genes)) <= config.theta
            assert key not in accepted

    def test_single_parent_mutates_alone(self, small_space, accel):
        config = NasConfig(mutation_rate=1.0, seed=6)
        cost = CostCache(small_space, accel)
        genes = (0, 0, 0) * 4 + (0, 0)
        children = ga_generation(
            [("only", genes)],
            small_space,
            config,
            np.random.default_rng(6),
            cost,
            exclude=set(),
        )
        assert all(g != genes for g in children.values())


class TestRunSearch:
    def run(self, space, accel, tmp_path, seed=11, name="history.jsonl", **kw):
        config = NasConfig(
            iterations=3,
            n_select=6,
            init_population=15,
            seed=seed,
            **kw,
        )
        path = tmp_path / name
        state = run_search(
            space,
            accel,
            OracleEvaluator(seed=0),
            config,
            history_path=str(path),
            evaluator_kind="oracle",
        )
        return state, path

    def test_population_and_labels_grow_monotonically(
        self, small_space, accel, tmp_path
    ):
        _, path = self.run(small_space, accel, tmp_path)
        summaries = replay_history(read_history(str(path))).summaries
        s_history = [frozenset(ev["s"]) for ev in summaries]
        p_history = [frozenset(ev["p"]) for ev in summaries]
        for earlier, later in zip(s_history, s_history[1:]):
            assert earlier <= later
        for earlier, later in zip(p_history, p_history[1:]):
            assert earlier <= later

    def test_no_architecture_evaluated_twice(self, small_space, accel, tmp_path):
        calls = {}
        oracle = OracleEvaluator(seed=0)

        def counting(chrom, arch):
            key = chromosome_hash(chrom)
            calls[key] = calls.get(key, 0) + 1
            return oracle(chrom, arch)

        config = NasConfig(iterations=3, n_select=6, init_population=15, seed=11)
        run_search(small_space, accel, counting, config, evaluator_kind="custom")
        assert all(count == 1 for count in calls.values())

    def test_history_bytes_identical_across_runs(self, small_space, accel, tmp_path):
        _, path_a = self.run(small_space, accel, tmp_path, name="a.jsonl")
        _, path_b = self.run(small_space, accel, tmp_path, name="b.jsonl")
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_resume_from_truncated_history(self, small_space, accel, tmp_path):
        state, path = self.run(small_space, accel, tmp_path, name="full.jsonl")
        full_bytes = path.read_bytes()
        lines = path.read_text().splitlines(keepends=True)
        # Cut after the second iteration summary, mid-iteration k=2.
        summaries = [
            i
            for i, line in enumerate(lines)
            if '"event":"iteration-summary"' in line
        ]
        cut = summaries[1] + 3  # leave some partial trailing events
        partial = tmp_path / "partial.jsonl"
        partial.write_text("".join(lines[:cut]))
        config = NasConfig(iterations=3, n_select=6, init_population=15, seed=11)
        resumed = run_search(
            small_space,
            accel,
            OracleEvaluator(seed=0),
            config,
            history_path=str(partial),
            resume=True,
            evaluator_kind="oracle",
        )
        assert partial.read_bytes() == full_bytes
        assert {r.key for r in resumed.front()} == {r.key for r in state.front()}

    def test_resume_discards_full_partial_iteration(
        self, small_space, accel, tmp_path
    ):
        # Cut right before the final summary so the tail carries a whole
        # iteration's worth of offspring/evaluated/filter events; none of
        # it may leak into the resumed state.
        state, path = self.run(small_space, accel, tmp_path, name="f2.jsonl")
        full_bytes = path.read_bytes()
        lines = path.read_text().splitlines(keepends=True)
        summaries = [
            i
            for i, line in enumerate(lines)
            if '"event":"iteration-summary"' in line
        ]
        partial = tmp_path / "partial2.jsonl"
        partial.write_text("".join(lines[: summaries[-1]]))
        config = NasConfig(iterations=3, n_select=6, init_population=15, seed=11)
        run_search(
            small_space,
            accel,
            OracleEvaluator(seed=0),
            config,
            history_path=str(partial),
            resume=True,
            evaluator_kind="oracle",
        )
        assert partial.read_bytes() == full_bytes

    def test_rebuild_ignores_events_past_last_summary(self):
        from eenas.search import _rebuild_state, replay_history

        genes = [list(range(14)), list(range(1, 15)), list(range(2, 16))]
        a, b, c = (chromosome_hash(Chromosome(tuple(g))) for g in genes)
        events = [
            {"event": "run-config", "k": -1},
            {"event": "sampled", "k": 0, "hash": a, "genes": genes[0]},
            {"event": "evaluated", "k": 0, "hash": a, "acc_avg": 70.0,
             "et_avg": 5.0, "exit_ratios": [0.6, 0.4]},
            {"event": "iteration-summary", "k": 0, "s": [a], "p": [a],
             "stats": {"k": 0, "evaluated": 1}},
            # Interrupted iteration 1: all of this must be discarded.
            {"event": "offspring", "k": 1, "hash": b, "genes": genes[1]},
            {"event": "evaluated", "k": 1, "hash": b, "acc_avg": 60.0,
             "et_avg": 9.0, "exit_ratios": [0.2, 0.8]},
            {"event": "filtered-mu", "k": 1, "hash": b, "er_last": 0.8},
            {"event": "eval-failed", "k": 1, "hash": c, "error": "x"},
        ]
        state, cut = _rebuild_state(events)
        assert cut == 4
        assert state.k == 0
        assert set(state.members) == {a}
        assert state.rejected == {}
        assert b not in replay_history(events, complete=True).genes

    def test_genes_that_do_not_hash_to_their_line_are_refused(
        self, small_space, accel, tmp_path
    ):
        """A labeled member's gene line altered so that it still parses:
        resume, the audit and the labeled archive all refuse it. A hash
        can have several gene lines; replay keeps the last one."""
        from eenas.search import HistoryError, _rebuild_state, replay_history

        _, path = self.run(small_space, accel, tmp_path)
        events = read_history(str(path))
        last = [ev for ev in events if ev["event"] == "iteration-summary"][-1]
        key = sorted(set(last["s"]) & set(last["p"]))[0]
        event = [ev for ev in events if "genes" in ev and ev["hash"] == key][-1]
        event["genes"][-1] = 1 - event["genes"][-1]
        for read in (
            _rebuild_state,
            audit_history,
            lambda evs: replay_history(evs).labeled_records(),
        ):
            with pytest.raises(HistoryError, match=f"genes recorded for {key}"):
                read(events)

    def test_genes_are_hashed_once_per_replay(
        self, small_space, accel, tmp_path, monkeypatch
    ):
        """A replay remembers the genes it has checked: members and the
        labeled archive share one check per hash. Genes replaced after the
        check are checked again."""
        from eenas import search
        from eenas.search import HistoryError, replay_history

        _, path = self.run(small_space, accel, tmp_path)
        history = replay_history(read_history(str(path)), complete=True)
        calls = []
        monkeypatch.setattr(
            search, "chromosome_hash",
            lambda chrom: calls.append(chrom) or chromosome_hash(chrom),
        )
        members = history.summaries[-1]["s"]
        for h in members:
            assert history.genes_of(h) == history.genes_of(h)
        history.labeled_records()
        assert len(calls) == len(set(members) | history.labeled)
        key = members[0]
        genes = list(history.genes[key])
        genes[-1] = 1 - genes[-1]
        history.genes[key] = tuple(genes)
        with pytest.raises(HistoryError, match=f"genes recorded for {key}"):
            history.genes_of(key)

    def test_each_candidate_featurized_once_and_predicted_once_per_iteration(
        self, small_space, accel, tmp_path, monkeypatch
    ):
        """Feature rows are cached and estimates fixed within an iteration:
        ``featurize`` runs at most once per distinct chromosome, and each
        iteration predicts each unlabeled key at most once per target."""
        predict_module = importlib.import_module("eenas.predict")
        search_module = importlib.import_module("eenas.search")
        predict_module.feature_row.cache_clear()
        featurized = []
        featurize = predict_module.featurize
        monkeypatch.setattr(
            predict_module, "featurize",
            lambda chrom, space: featurized.append(chrom.genes)
            or featurize(chrom, space),
        )
        iteration = [0]
        nas_iterate = search_module.nas_iterate

        def counted_iterate(state, *args, **kwargs):
            iteration[0] = state.k + 1
            return nas_iterate(state, *args, **kwargs)

        monkeypatch.setattr(search_module, "nas_iterate", counted_iterate)
        predicted = []
        predict = search_module.predict
        monkeypatch.setattr(
            search_module, "predict",
            lambda pred, chrom, space: predicted.append(
                (iteration[0], pred.target, chrom.genes)
            ) or predict(pred, chrom, space),
        )
        self.run(small_space, accel, tmp_path)
        assert featurized and len(featurized) == len(set(featurized))
        assert len(predicted) == len(set(predicted))
        assert {k for k, _, _ in predicted} == {1, 2, 3}

    @staticmethod
    def assert_replays_to(state, path):
        from eenas.search import _rebuild_state

        events = read_history(str(path))
        replayed, cut = _rebuild_state(events)
        assert cut == len(events)
        assert replayed.k == state.k
        assert replayed.members == state.members
        assert replayed.rejected == state.rejected
        assert list(replayed.labeled) == list(state.labeled)
        summaries = replay_history(events).summaries
        assert [ev["k"] for ev in summaries] == list(range(state.k + 1))
        assert summaries[-1]["s"] == sorted(state.members)
        assert summaries[-1]["p"] == sorted(state.labeled.keys())

    def test_replay_rebuilds_the_run_state(self, small_space, accel, tmp_path):
        state, path = self.run(small_space, accel, tmp_path, name="replay.jsonl")
        assert "mu" in state.rejected.values()
        self.assert_replays_to(state, path)

    def test_replay_rebuilds_state_after_failures(
        self, small_space, accel, tmp_path
    ):
        oracle = OracleEvaluator(seed=0)

        def flaky(chrom, arch):
            if chromosome_hash(chrom)[0] in "01234":
                raise EvaluationFailure("simulated failure")
            return oracle(chrom, arch)

        config = NasConfig(iterations=3, n_select=6, init_population=15, seed=11)
        path = tmp_path / "flaky-replay.jsonl"
        state = run_search(
            small_space, accel, flaky, config, history_path=str(path)
        )
        assert "evaluation-failed" in state.rejected.values()
        self.assert_replays_to(state, path)

    def test_resume_requires_matching_config(self, small_space, accel, tmp_path):
        _, path = self.run(small_space, accel, tmp_path, name="c.jsonl")
        other = NasConfig(iterations=3, n_select=6, init_population=15, seed=999)
        with pytest.raises(SearchError):
            run_search(
                small_space,
                accel,
                OracleEvaluator(seed=0),
                other,
                history_path=str(path),
                resume=True,
                evaluator_kind="oracle",
            )

    def test_evaluation_failures_are_recorded_and_skipped(
        self, small_space, accel, tmp_path
    ):
        oracle = OracleEvaluator(seed=0)
        poisoned = set()

        def flaky(chrom, arch):
            key = chromosome_hash(chrom)
            if len(poisoned) < 3 and key not in poisoned:
                poisoned.add(key)
                raise EvaluationFailure("simulated failure")
            return oracle(chrom, arch)

        config = NasConfig(iterations=2, n_select=6, init_population=15, seed=11)
        path = tmp_path / "flaky.jsonl"
        state = run_search(
            small_space,
            accel,
            flaky,
            config,
            history_path=str(path),
            evaluator_kind="custom",
        )
        events = read_history(str(path))
        failures = [e for e in events if e["event"] == "eval-failed"]
        assert len(failures) == 3
        for event in failures:
            assert event["hash"] in state.rejected
            assert event["hash"] not in state.members

    def test_audit_passes_on_clean_run(self, small_space, accel, tmp_path):
        _, path = self.run(small_space, accel, tmp_path, name="audit.jsonl")
        result = audit_history(str(path))
        assert result.ok
        assert result.violations == []
        assert result.members_checked > 0

    def test_audit_detects_tampered_member(self, small_space, accel, tmp_path):
        _, path = self.run(small_space, accel, tmp_path, name="tamper.jsonl")
        events = read_history(str(path))
        # Forge an impossibly tight cap so every member violates it.
        events[0]["nas"]["theta"] = 1e-9
        with open(path, "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")
        result = audit_history(str(path))
        assert not result.ok
        assert any("overhead" in v for v in result.violations)

    def test_read_history_drops_only_a_torn_final_chunk(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"k":0}\n{"k":1}\n{"k":2,"ev')
        assert read_history(str(path)) == [{"k": 0}, {"k": 1}]
        path.write_text('{"k":0}\n{"k":1,"ev\n{"k":2}\n')
        with pytest.raises(json.JSONDecodeError):
            read_history(str(path))

    def test_mu_violations_never_labeled(self, small_space, accel, tmp_path):
        _, path = self.run(small_space, accel, tmp_path, name="mu.jsonl")
        events = read_history(str(path))
        removed = {e["hash"] for e in events if e["event"] == "filtered-mu"}
        final_p = [e for e in events if e["event"] == "iteration-summary"][-1]["p"]
        assert removed.isdisjoint(final_p)

    def test_front_consistency_with_labels(self, small_space, accel, tmp_path):
        state, _ = self.run(small_space, accel, tmp_path, name="front.jsonl")
        front = state.front()
        labeled = list(state.labeled)
        for rec in front:
            assert rec in labeled
        front_again = pareto_front(labeled)
        assert [r.key for r in front_again] == [r.key for r in front]


class TestExternalEvaluator:
    def test_search_consumes_prebuilt_report_files(self, smallconv, accel, tmp_path):
        from eenas.arch import ExitHeadSpec, SpaceConfig
        from eenas.evaluate import synthetic_oracle
        from eenas.search import ExternalEvaluator

        space = SpaceConfig(
            backbone=smallconv,
            head_options=(ExitHeadSpec(depth=1),),
            exit_bit_options=(8,),
        )
        reports = tmp_path / "reports"
        reports.mkdir()
        for chrom in enumerate_space(space):
            key = chromosome_hash(chrom)
            report = synthetic_oracle(decode(chrom, space), seed=0)
            save_external_report(report, key, str(reports / f"{key}.json"))
        config = NasConfig(iterations=2, n_select=4, init_population=8, seed=2)
        external = run_search(
            space,
            accel,
            ExternalEvaluator(str(reports)),
            config,
            evaluator_kind="external",
        )
        oracle = run_search(
            space,
            accel,
            OracleEvaluator(seed=0),
            config,
            evaluator_kind="oracle",
        )
        assert external.labeled.keys() == oracle.labeled.keys()
        for rec in external.labeled:
            twin = oracle.labeled.get(rec.key)
            assert rec.acc_avg == twin.acc_avg
            assert rec.et_avg == twin.et_avg

    def test_missing_report_fails_only_that_architecture(
        self, smallconv, accel, tmp_path
    ):
        from eenas.arch import ExitHeadSpec, SpaceConfig
        from eenas.evaluate import synthetic_oracle
        from eenas.search import ExternalEvaluator

        space = SpaceConfig(
            backbone=smallconv,
            head_options=(ExitHeadSpec(depth=1),),
            exit_bit_options=(8,),
        )
        reports = tmp_path / "sparse"
        reports.mkdir()
        skipped = None
        for i, chrom in enumerate(enumerate_space(space)):
            key = chromosome_hash(chrom)
            if i == 5:
                skipped = key
                continue
            report = synthetic_oracle(decode(chrom, space), seed=0)
            save_external_report(report, key, str(reports / f"{key}.json"))
        config = NasConfig(iterations=1, n_select=4, init_population=8, seed=2)
        path = tmp_path / "sparse.jsonl"
        state = run_search(
            space,
            accel,
            ExternalEvaluator(str(reports)),
            config,
            history_path=str(path),
            evaluator_kind="external",
        )
        events = read_history(str(path))
        failed = {e["hash"] for e in events if e["event"] == "eval-failed"}
        if skipped in state.rejected:
            assert skipped in failed
        assert len(state.labeled) >= 2
