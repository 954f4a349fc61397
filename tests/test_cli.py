import json
import os
import random

import pytest

from eenas.cli import EXIT_CONFIG, EXIT_OK, main


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


@pytest.fixture
def arch_file(tmp_path):
    return write_json(
        tmp_path / "arch.json",
        {
            "backbone_bits": 8,
            "exits": [
                {"mount": "B", "depth": 1, "bits": 8},
                {"mount": "E", "depth": 1, "bits": 8},
            ],
            "exit_ratios": [0.6, 0.4],
        },
    )


@pytest.fixture
def search_config(tmp_path):
    return write_json(
        tmp_path / "run.json",
        {
            "seed": 11,
            "backbone": "builtin:smallconv",
            "accelerator": "default",
            "space": {"head_depths": [1, 2], "exit_bits": [8, 4], "backbone_bits": 8},
            "nas": {"iterations": 2, "n_select": 6, "init_population": 12},
            "evaluator": {"kind": "oracle"},
        },
    )


def drop_labeled_lines(history, dst, kinds):
    """Copy ``history`` to ``dst`` without the ``kinds`` lines of the first
    hash labeled at its last summary; returns that hash."""
    lines = history.read_text().splitlines(keepends=True)
    events = [json.loads(line) for line in lines]
    key = [ev for ev in events if ev["event"] == "iteration-summary"][-1]["p"][0]
    dst.write_text("".join(
        line for line, ev in zip(lines, events)
        if not (ev["event"] in kinds and ev.get("hash") == key)
    ))
    return key


GENE_LINES = ("sampled", "offspring", "filtered-theta")


class TestSpaceCommand:
    def test_default_backbone(self, capsys):
        assert main(["space"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "39062500" in out
        assert "check: OK" in out

    def test_custom_options(self, capsys):
        code = main(
            ["space", "--backbone", "builtin:smallconv", "--head-depths", "1",
             "--exit-bits", "8"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "optional mounts (H): 4" in out
        assert f"closed form pq(1+pq)^H: {1 * (1 + 1) ** 4}" in out

    def test_unknown_backbone(self, capsys):
        assert main(["space", "--backbone", "builtin:nope"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "depths, bits, message",
        [
            ("1,1", "8,8", "duplicate head options"),
            ("7", "0", "head depth must be 1 or 2"),
            ("-1", "99", "head depth must be 1 or 2"),
            ("1", "0", "bit width 0 out of range [2, 32]"),
            ("1,2", "8,99", "bit width 99 out of range [2, 32]"),
            ("1", "8,8", "duplicate quantization options"),
        ],
    )
    def test_invalid_options_rejected(self, depths, bits, message, capsys):
        """The command validates its options as a run config's space would,
        instead of counting them."""
        code = main(
            ["space", "--backbone", "builtin:smallconv", "--head-depths", depths,
             "--exit-bits", bits]
        )
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestParser:
    def test_calls_in_one_process_parse_independently(self, capsys):
        """The parser is built once; no option of one call leaks into the
        next, and a refused command line does not stop the next call."""
        narrow = ["space", "--backbone", "builtin:smallconv", "--head-depths",
                  "1", "--exit-bits", "8"]
        assert main(narrow) == EXIT_OK
        assert f"pq(1+pq)^H: {1 * (1 + 1) ** 4}" in capsys.readouterr().out
        with pytest.raises(SystemExit) as err:
            main(["space", "--no-such-option"])
        assert err.value.code == 2
        assert "unrecognized arguments: --no-such-option" in capsys.readouterr().err
        assert main(["space", "--backbone", "builtin:smallconv"]) == EXIT_OK
        assert f"pq(1+pq)^H: {4 * (1 + 4) ** 4}" in capsys.readouterr().out
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("usage: eenas")


class TestCostCommand:
    def test_writes_csv_and_report(self, tmp_path, arch_file, capsys):
        out = tmp_path / "out"
        code = main(
            ["cost", "--backbone", "builtin:smallconv", "--arch", arch_file,
             "--out", str(out)]
        )
        assert code == EXIT_OK
        csv_lines = (out / "cost.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "exit,mount,energy_pj,cycles,et,overhead"
        assert len(csv_lines) == 1 + 2 + 1  # header, two exits, average row
        et1 = float(csv_lines[1].split(",")[4])
        et2 = float(csv_lines[2].split(",")[4])
        assert et1 < et2
        assert csv_lines[3].startswith("avg,given")
        detail = json.loads((out / "cost_report.json").read_text())
        assert len(detail["et_per_exit"]) == 2
        assert detail["et_avg"] == pytest.approx(0.6 * et1 + 0.4 * et2)

    def test_uniform_ratios_when_missing(self, tmp_path, capsys):
        arch = write_json(
            tmp_path / "arch2.json",
            {"exits": [{"mount": "E", "depth": 1, "bits": 8}]},
        )
        out = tmp_path / "out2"
        assert main(
            ["cost", "--backbone", "builtin:smallconv", "--arch", arch,
             "--out", str(out)]
        ) == EXIT_OK
        assert "avg,uniform" in (out / "cost.csv").read_text()

    def test_genetic_allocation_mode(self, tmp_path, arch_file, capsys):
        out = tmp_path / "genetic"
        code = main(
            ["cost", "--backbone", "builtin:smallconv", "--arch", arch_file,
             "--out", str(out), "--mode", "genetic", "--seed", "3"]
        )
        assert code == EXIT_OK
        detail = json.loads((out / "cost_report.json").read_text())
        assert detail["makespan_cycles"] > 0

    def test_deterministic_bytes(self, tmp_path, arch_file, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            main(
                ["cost", "--backbone", "builtin:smallconv", "--arch", arch_file,
                 "--out", str(out)]
            )
        assert (out_a / "cost.csv").read_bytes() == (out_b / "cost.csv").read_bytes()

    def test_invalid_architecture(self, tmp_path, capsys):
        bad = write_json(
            tmp_path / "bad.json",
            {"exits": [{"mount": "Z", "depth": 1, "bits": 8}]},
        )
        out = tmp_path / "o"
        assert main(
            ["cost", "--backbone", "builtin:smallconv", "--arch", bad,
             "--out", str(out)]
        ) == EXIT_CONFIG
        assert not (out / "cost.csv").exists()

    def test_missing_arch_file(self, tmp_path, capsys):
        assert main(
            ["cost", "--backbone", "builtin:smallconv",
             "--arch", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")]
        ) == EXIT_CONFIG

    @pytest.mark.parametrize("classes", ["1", "0", "-2"])
    def test_fewer_than_two_classes_rejected(
        self, tmp_path, arch_file, classes, capsys
    ):
        out = tmp_path / "never"
        code = main(
            ["cost", "--backbone", "builtin:smallconv", "--arch", arch_file,
             "--out", str(out), "--classes", classes]
        )
        assert code == EXIT_CONFIG
        assert "--classes must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "ratios", [5, [None, 1], [True, False], ["0.6", "0.4"], {"0": 1.0}]
    )
    def test_malformed_exit_ratios_rejected(self, tmp_path, ratios, capsys):
        arch = write_json(
            tmp_path / "arch.json",
            {
                "exits": [
                    {"mount": "B", "depth": 1, "bits": 8},
                    {"mount": "E", "depth": 1, "bits": 8},
                ],
                "exit_ratios": ratios,
            },
        )
        out = tmp_path / "never"
        code = main(
            ["cost", "--backbone", "builtin:smallconv", "--arch", arch,
             "--out", str(out)]
        )
        assert code == EXIT_CONFIG
        assert "exit_ratios must be a list of numbers" in capsys.readouterr().err
        assert not out.exists()


class TestBadAcceleratorFile:
    """An accelerator file with a non-finite energy or a count that is not
    an integer exits 2 before any output, from `eenas cost` and from
    `eenas search`."""

    FILES = {
        "overflowing-energy": '{"e_dram_pj_bit": 1e400}',
        "fractional-count": '{"compute_cores": 2.5}',
        "boolean-count": '{"compute_cores": true}',
        "too-many-cores": '{"compute_cores": 257}',
    }

    def test_core_cap_checked_before_costing(
        self, tmp_path, arch_file, monkeypatch, capsys
    ):
        """Over ``MAX_COMPUTE_CORES`` the file is refused by its own check;
        no layer is costed."""
        import eenas.hwcost

        def forbidden(*args, **kwargs):
            raise AssertionError("a layer was costed")

        monkeypatch.setattr(eenas.hwcost, "layer_cost", forbidden)
        accel = tmp_path / "accel.json"
        accel.write_text(
            json.dumps({"compute_cores": eenas.hwcost.MAX_COMPUTE_CORES + 1})
        )
        code = main(
            ["cost", "--backbone", "builtin:smallconv", "--arch", arch_file,
             "--accelerator", str(accel), "--out", str(tmp_path / "never")]
        )
        assert code == EXIT_CONFIG
        assert "compute_cores must be at most 256" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(FILES))
    def test_cost(self, tmp_path, arch_file, name, capsys):
        accel = tmp_path / "accel.json"
        accel.write_text(self.FILES[name])
        out = tmp_path / "never"
        code = main(
            ["cost", "--backbone", "builtin:smallconv", "--arch", arch_file,
             "--accelerator", str(accel), "--out", str(out)]
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(FILES))
    def test_search(self, tmp_path, name, capsys):
        accel = tmp_path / "accel.json"
        accel.write_text(self.FILES[name])
        config = write_json(
            tmp_path / "run.json",
            {"backbone": "builtin:smallconv", "accelerator": str(accel)},
        )
        out = tmp_path / "never"
        code = main(["search", "--config", config, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestSearchCommand:
    def test_full_run_emits_artifacts(self, tmp_path, search_config, capsys):
        out = tmp_path / "run"
        assert main(["search", "--config", search_config, "--out", str(out)]) == EXIT_OK
        for name in ("history.jsonl", "front.csv", "iterations.csv", "scatter.csv"):
            assert (out / name).exists(), name
        front = (out / "front.csv").read_text().strip().splitlines()
        assert front[0].startswith("rank,hash,acc_avg,et_avg,n_exits")
        assert len(front) > 1
        # Front rows are sorted by accuracy descending.
        accs = [float(line.split(",")[2]) for line in front[1:]]
        assert accs == sorted(accs, reverse=True)
        scatter = (out / "scatter.csv").read_text().strip().splitlines()
        assert scatter[0] == "k,hash,acc_avg,et_reduction"

    def test_seeded_rerun_is_identical(self, tmp_path, search_config, capsys):
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        main(["search", "--config", search_config, "--out", str(out_a)])
        main(["search", "--config", search_config, "--out", str(out_b)])
        for name in ("history.jsonl", "front.csv", "iterations.csv", "scatter.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_search_parses_its_history_once(
        self, tmp_path, search_config, monkeypatch, capsys
    ):
        """The audit and the CSV exports share one parse; a resume parses
        the history it continues once more, in full."""
        import eenas.cli
        import eenas.search

        calls = []
        original = eenas.search.read_history

        def spy(path):
            calls.append(path)
            return original(path)

        monkeypatch.setattr(eenas.cli, "read_history", spy)
        monkeypatch.setattr(eenas.search, "read_history", spy)
        out = tmp_path / "run"
        argv = ["search", "--config", search_config, "--out", str(out)]
        assert main(argv) == EXIT_OK
        history = str(out / "history.jsonl")
        assert calls == [history]
        calls.clear()
        assert main([*argv, "--resume"]) == EXIT_OK
        assert calls == [history, history]

        from_path = eenas.search.audit_history(history)
        from_events = eenas.search.audit_history(original(history))
        assert from_path.ok and from_path.members_checked > 0
        assert from_events == from_path

    def test_path_audit_rejects_a_corrupt_line(self, tmp_path, search_config, capsys):
        from eenas.search import audit_history

        out = tmp_path / "run"
        main(["search", "--config", search_config, "--out", str(out)])
        path = out / "history.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(json.JSONDecodeError):
            audit_history(str(path))

    def test_resume_reproduces_front(self, tmp_path, search_config, capsys):
        full = tmp_path / "full"
        main(["search", "--config", search_config, "--out", str(full)])
        full_front = (full / "front.csv").read_bytes()
        # Truncate the history mid-way and resume in place.
        resumed = tmp_path / "resumed"
        os.makedirs(resumed)
        lines = (full / "history.jsonl").read_text().splitlines(keepends=True)
        summaries = [
            i for i, l in enumerate(lines) if '"event":"iteration-summary"' in l
        ]
        (resumed / "history.jsonl").write_text("".join(lines[: summaries[0] + 2]))
        code = main(
            ["search", "--config", search_config, "--out", str(resumed), "--resume"]
        )
        assert code == EXIT_OK
        assert (resumed / "front.csv").read_bytes() == full_front
        assert (resumed / "history.jsonl").read_bytes() == (
            full / "history.jsonl"
        ).read_bytes()

    def test_resume_keeps_history_when_rewrite_fails(
        self, tmp_path, search_config, monkeypatch, capsys
    ):
        full = tmp_path / "full"
        main(["search", "--config", search_config, "--out", str(full)])
        lines = (full / "history.jsonl").read_text().splitlines(keepends=True)
        summaries = [
            i for i, l in enumerate(lines) if '"event":"iteration-summary"' in l
        ]
        cut = "".join(lines[: summaries[0] + 2]).encode()
        resumed = tmp_path / "resumed"
        os.makedirs(resumed)
        (resumed / "history.jsonl").write_bytes(cut)
        argv = ["search", "--config", search_config, "--out", str(resumed), "--resume"]

        def crash(src, dst):
            raise OSError("crash during rename")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", crash)
            with pytest.raises(OSError, match="crash during rename"):
                main(argv)
        assert (resumed / "history.jsonl").read_bytes() == cut
        assert os.listdir(resumed) == ["history.jsonl"]
        assert main(argv) == EXIT_OK
        for name in ("history.jsonl", "front.csv", "iterations.csv", "scatter.csv"):
            assert (resumed / name).read_bytes() == (full / name).read_bytes(), name

    @pytest.mark.parametrize("keep", ["first byte", "half", "all but newline"])
    def test_resume_after_torn_last_line(self, tmp_path, search_config, keep, capsys):
        full = tmp_path / "full"
        main(["search", "--config", search_config, "--out", str(full)])
        history = (full / "history.jsonl").read_bytes()
        last = history.rstrip(b"\n").rfind(b"\n") + 1
        cut = {
            "first byte": last + 1,
            "half": (last + len(history)) // 2,
            "all but newline": len(history) - 1,
        }[keep]
        resumed = tmp_path / "resumed"
        os.makedirs(resumed)
        (resumed / "history.jsonl").write_bytes(history[:cut])
        code = main(
            ["search", "--config", search_config, "--out", str(resumed), "--resume"]
        )
        assert code == EXIT_OK
        for name in ("history.jsonl", "front.csv", "iterations.csv", "scatter.csv"):
            assert (resumed / name).read_bytes() == (full / name).read_bytes(), name

    @pytest.mark.parametrize(
        "kinds, missing",
        [(GENE_LINES, "member {} has no recorded genes"),
         (("evaluated",), "labeled {} has no recorded evaluation")],
    )
    def test_resume_of_a_labeled_hash_without_its_line(
        self, tmp_path, search_config, kinds, missing, capsys
    ):
        full = tmp_path / "full"
        main(["search", "--config", search_config, "--out", str(full)])
        resumed = tmp_path / "resumed"
        resumed.mkdir()
        key = drop_labeled_lines(
            full / "history.jsonl", resumed / "history.jsonl", kinds
        )
        capsys.readouterr()
        code = main(
            ["search", "--config", search_config, "--out", str(resumed), "--resume"]
        )
        assert code == EXIT_CONFIG
        assert missing.format(key) in capsys.readouterr().err

    def test_resume_of_an_altered_gene_line(self, tmp_path, search_config, capsys):
        full = tmp_path / "full"
        main(["search", "--config", search_config, "--out", str(full)])
        lines = (full / "history.jsonl").read_text().splitlines(keepends=True)
        events = [json.loads(line) for line in lines]
        key = [ev for ev in events if ev["event"] == "iteration-summary"][-1]["p"][0]
        i = [i for i, ev in enumerate(events) if "genes" in ev and ev["hash"] == key][-1]
        events[i]["genes"][-1] = 1 - events[i]["genes"][-1]
        lines[i] = json.dumps(events[i], sort_keys=True, separators=(",", ":")) + "\n"
        resumed = tmp_path / "resumed"
        resumed.mkdir()
        (resumed / "history.jsonl").write_text("".join(lines))
        capsys.readouterr()
        code = main(
            ["search", "--config", search_config, "--out", str(resumed), "--resume"]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"the genes recorded for {key} do not hash to it" in err
        assert sorted(os.listdir(resumed)) == ["history.jsonl"]

    @pytest.mark.parametrize(
        "nas",
        [{"ridge": float("nan")}, {"ridge": -1.0}, {"weights": [float("nan"), 1.0]}],
    )
    def test_bad_nas_numbers_rejected_before_output(self, tmp_path, nas, capsys):
        config = tmp_path / "nas.json"
        # json writes the NaN literal, which json.load reads back as nan.
        config.write_text(json.dumps({"backbone": "builtin:smallconv", "nas": nas}))
        out = tmp_path / "never"
        code = main(["search", "--config", str(config), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "training, message",
        [
            ({"warmup_epochs": 1.5}, "warmup_epochs must be an integer"),
            ({"warmup_epochs": -1}, "warmup epochs must lie in [0, epochs)"),
            ({"epochs": 4, "warmup_epochs": 4}, "warmup epochs must lie in [0, epochs)"),
            ({"epochs": 4, "warmup_epochs": 9}, "warmup epochs must lie in [0, epochs)"),
            ({"epochs": True}, "epochs must be an integer"),
            ({"epochs": 1.5}, "epochs must be an integer"),
            ({"batch_size": 2.5}, "batch_size must be an integer"),
            ({"hidden_width": "16"}, "hidden_width must be an integer"),
            ({"seed": False}, "seed must be an integer"),
        ],
    )
    def test_bad_training_numbers_rejected_before_output(
        self, tmp_path, training, message, capsys
    ):
        """A warm-up that never ends before the last epoch would train and
        score a quantized candidate in full precision; a non-integer count
        would either fail deep inside numpy or be silently truncated."""
        config = tmp_path / "toy.json"
        config.write_text(json.dumps({
            "backbone": "builtin:smallconv",
            "evaluator": {"kind": "toy", "training": training},
        }))
        out = tmp_path / "never"
        code = main(["search", "--config", str(config), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "evaluator",
        [
            {"kind": "oracle", "mac_exponent": float("nan")},
            {"kind": "toy", "training": {"learning_rate": float("nan")}},
        ],
    )
    def test_non_finite_evaluator_literal_rejected_before_output(
        self, tmp_path, evaluator, capsys
    ):
        config = tmp_path / "ev.json"
        config.write_text(
            json.dumps({"backbone": "builtin:smallconv", "evaluator": evaluator})
        )
        out = tmp_path / "never"
        code = main(["search", "--config", str(config), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "NaN: numbers must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "evaluator, field",
        [
            ('{"kind": "oracle", "mac_exponent": 1e999}', "mac_exponent"),
            ('{"kind": "toy", "training": {"learning_rate": 1e999}}', "learning_rate"),
        ],
    )
    def test_overflowing_evaluator_number_rejected_before_output(
        self, tmp_path, evaluator, field, capsys
    ):
        # 1e999 is valid JSON that parses to inf. The loader refuses it,
        # before the evaluator's config (which checks the same) sees it.
        config = tmp_path / "ev.json"
        config.write_text(
            f'{{"backbone": "builtin:smallconv", "evaluator": {evaluator}}}'
        )
        out = tmp_path / "never"
        code = main(["search", "--config", str(config), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config holds 1e999: numbers must be finite" in err
        assert field not in err
        assert not out.exists()

    def test_bad_config_rejected_before_output(self, tmp_path, capsys):
        config = write_json(tmp_path / "bad.json", {"backbone": "missing.txt"})
        out = tmp_path / "never"
        assert main(["search", "--config", config, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_unknown_evaluator_rejected(self, tmp_path, capsys):
        config = write_json(
            tmp_path / "bad2.json",
            {"backbone": "builtin:smallconv", "evaluator": {"kind": "cloud"}},
        )
        assert main(
            ["search", "--config", config, "--out", str(tmp_path / "o")]
        ) == EXIT_CONFIG

    def test_external_evaluator_requires_directory(self, tmp_path, capsys):
        config = write_json(
            tmp_path / "ext.json",
            {"backbone": "builtin:smallconv", "evaluator": {"kind": "external"}},
        )
        assert main(
            ["search", "--config", config, "--out", str(tmp_path / "o")]
        ) == EXIT_CONFIG

    def test_weighted_ranking_config(self, tmp_path, capsys):
        """The shortlist is always the two-stage ranking; a config that
        asks for another exits 2 before any output."""
        for nas in ({"ranking": "weighted"}, {"weights": [1.0, 2.0]}):
            config = write_json(
                tmp_path / "weighted.json",
                {"seed": 11, "backbone": "builtin:smallconv", "nas": nas},
            )
            out = tmp_path / "weighted-run"
            code = main(["search", "--config", config, "--out", str(out)])
            assert code == EXIT_CONFIG
            field = next(iter(nas))
            assert f"search config field {field} must be" in capsys.readouterr().err
            assert not out.exists()

    def test_evaluator_flag_overrides_config(self, tmp_path, capsys):
        config = write_json(
            tmp_path / "override.json",
            {
                "seed": 11,
                "backbone": "builtin:smallconv",
                "space": {"head_depths": [1, 2], "exit_bits": [8, 4]},
                "nas": {"iterations": 1, "n_select": 4, "init_population": 8},
                "evaluator": {"kind": "external"},  # would fail without a dir
            },
        )
        out = tmp_path / "override-run"
        code = main(
            ["search", "--config", config, "--out", str(out),
             "--evaluator", "oracle"]
        )
        assert code == EXIT_OK
        header = json.loads(
            (out / "history.jsonl").read_text().splitlines()[0]
        )
        assert header["evaluator"] == "oracle"

    def test_toy_evaluator_smoke(self, tmp_path, capsys):
        config = write_json(
            tmp_path / "toy.json",
            {
                "seed": 4,
                "backbone": "builtin:smallconv",
                "space": {"head_depths": [1], "exit_bits": [8]},
                "nas": {"iterations": 1, "n_select": 3, "init_population": 5},
                "evaluator": {
                    "kind": "toy",
                    "dataset": {"n": 240, "seed": 1},
                    "training": {"epochs": 8, "learning_rate": 0.05},
                },
            },
        )
        out = tmp_path / "toyrun"
        assert main(["search", "--config", config, "--out", str(out)]) == EXIT_OK
        assert (out / "front.csv").exists()


OUTPUT_FILES = ("history.jsonl", "front.csv", "iterations.csv", "scatter.csv")


class TestResumeFromAnyCut:
    def test_every_cut_resumes_to_the_uninterrupted_outputs(self, tmp_path, capsys):
        """Cut a smallconv oracle history at every byte offset inside its
        last event and at 30 seeded earlier offsets past the header; the
        resume of each cut writes the uninterrupted run's outputs."""
        config = write_json(
            tmp_path / "run.json",
            {
                "seed": 11,
                "backbone": "builtin:smallconv",
                "nas": {
                    "iterations": 1,
                    "n_select": 3,
                    "init_population": 6,
                    "generations": 1,
                },
                "evaluator": {"kind": "oracle"},
            },
        )
        full = tmp_path / "full"
        assert main(["search", "--config", config, "--out", str(full)]) == EXIT_OK
        expected = {name: (full / name).read_bytes() for name in OUTPUT_FILES}
        history = expected["history.jsonl"]
        after_header = history.index(b"\n") + 1
        last = history.rstrip(b"\n").rfind(b"\n") + 1
        assert b'"event":"filtered-mu"' in history[after_header:last]
        earlier = random.Random(0).sample(range(after_header, last), 30)
        resumed = tmp_path / "resumed"
        resumed.mkdir()
        argv = ["search", "--config", config, "--out", str(resumed), "--resume"]
        for cut in [*range(last, len(history)), *earlier]:
            (resumed / "history.jsonl").write_bytes(history[:cut])
            assert main(argv) == EXIT_OK, cut
            for name in OUTPUT_FILES:
                assert (resumed / name).read_bytes() == expected[name], (cut, name)
        capsys.readouterr()


class TestReportCommand:
    def test_summary_of_best_point(self, tmp_path, search_config, capsys):
        out = tmp_path / "run"
        main(["search", "--config", search_config, "--out", str(out)])
        capsys.readouterr()
        code = main(["report", "--history", str(out / "history.jsonl")])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "acc_avg:" in text
        assert "MAC reduction:" in text
        assert "static MACs:" in text

    def test_report_is_reproducible(self, tmp_path, search_config, capsys):
        out = tmp_path / "run"
        main(["search", "--config", search_config, "--out", str(out)])
        capsys.readouterr()
        main(["report", "--history", str(out / "history.jsonl")])
        first = capsys.readouterr().out
        main(["report", "--history", str(out / "history.jsonl")])
        second = capsys.readouterr().out
        assert first == second

    def test_pick_variants(self, tmp_path, search_config, capsys):
        out = tmp_path / "run"
        main(["search", "--config", search_config, "--out", str(out)])
        capsys.readouterr()
        assert main(
            ["report", "--history", str(out / "history.jsonl"), "--pick", "best-et"]
        ) == EXIT_OK
        assert main(
            ["report", "--history", str(out / "history.jsonl"), "--pick", "0"]
        ) == EXIT_OK
        assert main(
            ["report", "--history", str(out / "history.jsonl"), "--pick", "9999"]
        ) == EXIT_CONFIG

    def test_missing_history(self, tmp_path, capsys):
        assert main(
            ["report", "--history", str(tmp_path / "none.jsonl")]
        ) == EXIT_CONFIG

    def test_history_without_header(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        history.write_text(
            '{"event":"iteration-summary","k":0,"p":[],"s":[],"stats":{}}\n'
        )
        assert main(["report", "--history", str(history)]) == EXIT_CONFIG
        assert "history lacks a run-config header" in capsys.readouterr().err

    def test_history_without_labels(self, tmp_path, search_config, capsys):
        out = tmp_path / "run"
        main(["search", "--config", search_config, "--out", str(out)])
        events = [
            json.loads(line)
            for line in (out / "history.jsonl").read_text().splitlines()
        ]
        events[-1]["p"] = []
        history = tmp_path / "unlabeled.jsonl"
        history.write_text("".join(json.dumps(ev) + "\n" for ev in events))
        capsys.readouterr()
        assert main(["report", "--history", str(history)]) == EXIT_CONFIG
        assert "history contains no labeled architectures" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kinds, missing", [(GENE_LINES, "genes"), (("evaluated",), "evaluation")]
    )
    def test_labeled_hash_without_its_line(
        self, tmp_path, search_config, kinds, missing, capsys
    ):
        out = tmp_path / "run"
        main(["search", "--config", search_config, "--out", str(out)])
        history = tmp_path / "dropped.jsonl"
        key = drop_labeled_lines(out / "history.jsonl", history, kinds)
        capsys.readouterr()
        assert main(["report", "--history", str(history)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"labeled {key} has no recorded {missing}" in err
