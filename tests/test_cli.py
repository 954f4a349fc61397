import contextlib
import io
import json
import os
import pathlib
import random
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eenas.cli import EXIT_CONFIG, EXIT_EVAL, EXIT_OK, main
from helpers import README_RUN


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
        assert capsys.readouterr().out.splitlines() == [
            "optional mounts (H): 10",
            "head options (p):    2",
            "quant options (q):   2",
            "closed form pq(1+pq)^H: 39062500",
        ]

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

    @pytest.mark.parametrize("flag", [["--mode", "greedy"], ["--seed", "0"]])
    def test_allocation_has_no_flags(self, tmp_path, arch_file, flag, capsys):
        """Allocation is greedy only, so no flag chooses or seeds it."""
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as err:
            main(["cost", "--backbone", "builtin:smallconv", "--arch", arch_file,
                  "--out", str(out), *flag])
        assert err.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_bytes(self, tmp_path, arch_file, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            main(
                ["cost", "--backbone", "builtin:smallconv", "--arch", arch_file,
                 "--out", str(out)]
            )
        assert (out_a / "cost.csv").read_bytes() == (out_b / "cost.csv").read_bytes()

    def test_invalid_architecture(self, tmp_path, capsys):
        cases = [
            ({"mount": "Z"}, "unknown mount"),
            # Only costing finds that this head cannot pool its input.
            ({"mount": "E", "pooled_size": 64},
             "cannot pool 8x8 activation to 64x64"),
        ]
        for exit_spec, message in cases:
            bad = write_json(
                tmp_path / "bad.json",
                {"exits": [{"depth": 1, "bits": 8, **exit_spec}]},
            )
            out = tmp_path / "o"
            assert main(
                ["cost", "--backbone", "builtin:smallconv", "--arch", bad,
                 "--out", str(out)]
            ) == EXIT_CONFIG
            assert message in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "arch, message",
        [
            ({"exits": [{"mount": "E", "bit": 4}]}, "exits[0] has an unknown key 'bit'"),
            ({"exits": [{"mount": "B"}, {"mount": "E", "activation": "relu"}]},
             "exits[1] has an unknown key 'activation'"),
            ({"exits": [{"mount": "E"}], "exit_ratio": [1.0]},
             "architecture has an unknown key 'exit_ratio'"),
            ({"exits": ["E"]}, "exits[0] must be an object"),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, arch, message, capsys):
        """A mistyped key exits 2, naming it, before ``--out`` is made:
        it is not costed at its default."""
        path = write_json(tmp_path / "arch.json", arch)
        out = tmp_path / "never"
        code = main(
            ["cost", "--backbone", "builtin:smallconv", "--arch", path,
             "--out", str(out)]
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "ratios, message",
        [
            ([1.0], "need one exit ratio per exit"),
            ([0.6, 0.6], "exit ratios must sum to 1"),
            ([-0.5, 1.5], "exit ratios must be finite and lie in [0, 1]"),
        ],
    )
    def test_invalid_exit_ratios_rejected(self, tmp_path, ratios, message, capsys):
        """Ratios that cannot weight the exits exit 2 before ``--out`` is
        made."""
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
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestBadAcceleratorFile:
    """An accelerator file with a non-finite energy, a count that is not
    an integer, or a retired key at another value than its one exits 2
    before any output, from `eenas cost` and from `eenas search`."""

    FILES = {
        "overflowing-energy": '{"e_dram_pj_bit": 1e400}',
        "fractional-count": '{"compute_cores": 2.5}',
        "boolean-count": '{"compute_cores": true}',
        "too-many-cores": '{"compute_cores": 257}',
        "no-pool-core": '{"pool_core": false}',
        "no-simd-core": '{"simd_core": false}',
        "integer-pool-core": '{"pool_core": 1}',
        "float-macs-per-cycle": '{"macs_per_cycle": 512.0}',
        "macs-not-rows-times-cols": '{"array_rows": 8, "macs_per_cycle": 512}',
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
        """A search hands the events it logged to its audit and exports and
        parses no history line; a resume parses each committed line of the
        history it continues exactly once. Every parse goes through a
        ``JSONDecoder``, however it is called."""
        import collections

        decode = json.JSONDecoder.decode
        decoded = []

        def counting(self, text, *args, **kwargs):
            decoded.append(text)
            return decode(self, text, *args, **kwargs)

        monkeypatch.setattr(json.JSONDecoder, "decode", counting)
        out = tmp_path / "run"
        argv = ["search", "--config", search_config, "--out", str(out)]
        assert main(argv) == EXIT_OK
        path = out / "history.jsonl"
        whole = path.read_text().splitlines(keepends=True)
        assert set(decoded).isdisjoint(whole)

        # Cut inside the last iteration: the resume replays its kept prefix
        # and parses, but drops, the events after the last summary.
        summaries = [
            i for i, line in enumerate(whole) if '"event":"iteration-summary"' in line
        ]
        cut = whole[: summaries[-2] + 4]
        path.write_text("".join(cut))
        decoded.clear()
        assert main([*argv, "--resume"]) == EXIT_OK
        assert path.read_text().splitlines(keepends=True) == whole
        history_lines = set(whole)
        parsed = collections.Counter(t for t in decoded if t in history_lines)
        assert parsed == collections.Counter(cut)

        from eenas.search import audit_history, read_history

        from_path = audit_history(str(path))
        from_events = audit_history(read_history(str(path)))
        assert from_path.ok and from_path.members_checked > 0
        assert from_events == from_path

    def test_search_replays_its_history_once(
        self, tmp_path, search_config, monkeypatch, capsys
    ):
        """The closing audit and the three exports share one replay of the
        events a search logged; a resume replays its kept prefix once more
        to rebuild its state."""
        from eenas import cli, search

        replay = search.replay_history
        replayed = []

        def counting(events, *args, **kwargs):
            replayed.append(len(events))
            return replay(events, *args, **kwargs)

        monkeypatch.setattr(search, "replay_history", counting)
        monkeypatch.setattr(cli, "replay_history", counting)
        out = tmp_path / "run"
        argv = ["search", "--config", search_config, "--out", str(out)]
        assert main(argv) == EXIT_OK
        events = search.read_history(str(out / "history.jsonl"))
        assert replayed == [len(events)]
        replayed.clear()
        assert main([*argv, "--resume"]) == EXIT_OK
        assert replayed == [len(events), len(events)]
        monkeypatch.undo()
        from_replay = search.audit_history(search.replay_history(events))
        assert from_replay.ok and from_replay == search.audit_history(events)

    def test_path_audit_rejects_a_corrupt_line(self, tmp_path, search_config, capsys):
        from eenas.search import HistoryError, audit_history, read_history

        out = tmp_path / "run"
        main(["search", "--config", search_config, "--out", str(out)])
        path = out / "history.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
        path.write_text("".join(lines))
        message = re.escape(f"{path} line 2 is not valid JSON: ")
        with pytest.raises(HistoryError, match=message):
            audit_history(str(path))
        with pytest.raises(HistoryError, match=message):
            read_history(str(path))

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
        asks for another, or writes its weights as integers or booleans,
        exits 2 before any output."""
        bad = ({"ranking": "weighted"}, {"weights": [1.0, 2.0]},
               {"weights": [1, 1]}, {"weights": [True, True]})
        for nas in bad:
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


SMALL_RUN = {
    "seed": 11,
    "backbone": "builtin:smallconv",
    "accelerator": "default",
    "space": {"head_depths": [1, 2], "exit_bits": [8, 4], "backbone_bits": 8},
    "nas": {"iterations": 1, "n_select": 3, "init_population": 6, "mu": 1},
    "evaluator": {"kind": "oracle"},
}

TOY = {"kind": "toy", "dataset": {"n": 100}, "training": {"epochs": 2}}


#: Every key set, so that each can be mutated; ``mu`` 1 keeps every seed's
#: tiny archive large enough to fit the surrogates.
MUTABLE_RUN = {
    "seed": 3,
    "backbone": "builtin:smallconv",
    "accelerator": "default",
    "cost_mode": "greedy",
    "space": {
        "head_depths": [1, 2], "pooled_size": 4, "hidden_width": 128,
        "exit_bits": [8, 4], "backbone_bits": 8, "num_classes": 10,
    },
    "nas": {
        "iterations": 1, "n_select": 3, "generations": 1, "init_population": 6,
        "mutation_rate": 0.1, "crossover_rate": 0.9, "theta": 0.5, "mu": 1,
        "ridge": 0.001, "attempt_factor": 200,
    },
    "evaluator": {"kind": "oracle", "seed": 0, "grid": 200, "jitter": 0.04},
}
DELETE = object()
SWAPS = (None, True, False, -1, 0, 2.5, "7", "default", [], {}, [1], {"a": 1})


def json_paths(value, prefix=()):
    """The path of every key and list element below ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from json_paths(child, prefix + (key,))


def mutated(config, path, value):
    """A deep copy of ``config`` with the value at ``path`` (a key or index
    per level) replaced, or deleted for ``DELETE``."""
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return config


class TestRunConfigChecks:
    """A run config with one bad field exits 2 before any output, with a
    message that names the field."""

    @pytest.mark.parametrize(
        "path, value, message",
        [
            ("space", {"head_depths": 1, "exit_bits": [8]},
             "space: head_depths must be a list of integers"),
            ("space", [], "space must be an object"),
            ("nas", None, "nas must be an object"),
            ("nas.n_select", 4.5, "nas: n_select must be an integer"),
            ("backbone", 5, "backbone and accelerator must be strings"),
            ("accelerator", ["default"], "backbone and accelerator must be strings"),
            ("seed", 1.5, "seed must be a non-negative integer"),
            ("seed", True, "seed must be a non-negative integer"),
            ("seed", "7", "seed must be a non-negative integer"),
            ("space.backbone_bits", "8", "space: backbone_bits must be an integer"),
            ("space.exit_bits", [8.5, 4], "space: exit_bits must be a list of integers"),
            ("space.pooled_size", 4.0, "space: pooled_size must be an integer"),
            ("nas.iterations", True, "nas: iterations must be an integer"),
            ("nas.mu", "1", "nas: mu must be finite and numeric"),
            ("nas.theta", "none", "nas: theta must be finite and numeric, or null"),
            ("evaluator", [], "evaluator must be an object"),
            ("evaluator.grid", 10.5, "evaluator: grid must be an integer"),
            ("exit_bit", [4], "config has an unknown key 'exit_bit'"),
            ("space.exit_bit", [4], "space has an unknown key 'exit_bit'"),
            ("cost_mode", "optimal", 'cost_mode must be "greedy"'),
            ("evaluator", dict(TOY, seed=3), "evaluator has an unknown key 'seed'"),
            ("evaluator", dict(TOY, training=[]), "evaluator.training must be an object"),
            ("evaluator", {"kind": "external", "reports_dir": 0},
             "external reports directory not found"),
            ("evaluator", dict(TOY, training={"loss_weights": [1.0, 1.0]}),
             "evaluator.training has an unknown key 'loss_weights'"),
            ("nas.seed", 11, "nas: seed is set by the top-level seed key"),
            ("cost_mode", "genetic", 'cost_mode must be "greedy"'),
        ],
    )
    def test_bad_field_exits_2_naming_it(self, tmp_path, path, value, message, capsys):
        config = mutated(SMALL_RUN, path.split("."), value)
        config = write_json(tmp_path / "run.json", config)
        out = tmp_path / "never"
        code = main(["search", "--config", config, "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, evaluator, message",
        [
            ("seed", None, "error: seed must be a non-negative integer"),
            ("evaluator.seed", None,
             "error: evaluator: seed must be a non-negative integer"),
            ("evaluator.training.seed", TOY,
             "error: evaluator.training: seed must be non-negative"),
            ("evaluator.dataset.seed", TOY,
             "error: evaluator.dataset: seed must be non-negative"),
        ],
    )
    def test_negative_seed_exits_before_any_write(
        self, tmp_path, path, evaluator, message, capsys
    ):
        """``np.random.default_rng`` refuses a negative seed; it used to do
        so only once the search had written its header."""
        config = SMALL_RUN if evaluator is None else dict(SMALL_RUN, evaluator=evaluator)
        config = write_json(tmp_path / "run.json", mutated(config, path.split("."), -1))
        out = tmp_path / "never"
        code = main(["search", "--config", config, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--seed", "5"], ["--evaluator", "oracle"]])
    def test_run_config_keys_have_no_flags(self, tmp_path, flag, capsys):
        config = write_json(tmp_path / "run.json", SMALL_RUN)
        with pytest.raises(SystemExit) as err:
            main(["search", "--config", config, "--out", str(tmp_path / "o"), *flag])
        assert err.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_numbers_reach_the_header_as_written(self, tmp_path, capsys):
        """Readers pass JSON values through: an integer stays an integer."""
        config = write_json(tmp_path / "run.json", SMALL_RUN)
        out = tmp_path / "run"
        assert main(["search", "--config", config, "--out", str(out)]) == EXIT_OK
        header = (out / "history.jsonl").read_text().splitlines()[0]
        assert '"mu":1,' in header
        assert '"seed":11,' in header

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_mutated_field_exits_0_or_2(self, data):
        """Swap one value of a valid config for one of another type, delete
        it, or give it the wrong container: the search runs, or exits 2
        with a message before any output. Never a traceback."""
        path = data.draw(st.sampled_from(sorted(json_paths(MUTABLE_RUN))))
        value = data.draw(st.sampled_from([DELETE, *SWAPS]))
        config = mutated(MUTABLE_RUN, path, value)
        with tempfile.TemporaryDirectory() as tmp:
            config_path = write_json(pathlib.Path(tmp) / "run.json", config)
            out = os.path.join(tmp, "out")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(["search", "--config", config_path, "--out", out])
            assert code in (EXIT_OK, EXIT_CONFIG), (path, value, err.getvalue())
            if code == EXIT_CONFIG:
                assert err.getvalue().startswith("error: ")
                assert not os.path.exists(out)


class TestPathArguments:
    """An input path that names a directory, or an ``--out`` that names a
    file, exits 2 with a message and writes nothing."""

    COST = ["cost", "--backbone", "builtin:smallconv", "--arch", "{arch}"]
    CASES = {
        "config": (["search", "--config", "{dir}", "--out", "{out}"],
                   "config file not found: {dir}"),
        "arch": (["cost", "--backbone", "builtin:smallconv", "--arch", "{dir}",
                  "--out", "{out}"], "architecture file not found: {dir}"),
        "history": (["report", "--history", "{dir}"],
                    "history file not found: {dir}"),
        "backbone": (["cost", "--backbone", "{dir}", "--arch", "{arch}",
                      "--out", "{out}"], "backbone file not found: {dir}"),
        "accelerator": ([*COST, "--accelerator", "{dir}", "--out", "{out}"],
                        "accelerator file not found: {dir}"),
        "config backbone": (["search", "--config", "{bad_backbone}", "--out", "{out}"],
                            "backbone: backbone file not found: {dir}"),
        "config accelerator": (["search", "--config", "{bad_accel}", "--out", "{out}"],
                               "accelerator: accelerator file not found: {dir}"),
        "cost out": ([*COST, "--out", "{file}"],
                     "cannot create output directory {file}: File exists"),
        "search out": (["search", "--config", "{config}", "--out", "{file}"],
                       "cannot create output directory {file}: File exists"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_before_any_output(self, tmp_path, arch_file, case, capsys):
        folder = tmp_path / "folder"
        folder.mkdir()
        (tmp_path / "file").write_text("kept\n")
        paths = {
            "arch": arch_file,
            "dir": str(folder),
            "file": str(tmp_path / "file"),
            "out": str(tmp_path / "never"),
            "config": write_json(tmp_path / "run.json", SMALL_RUN),
            "bad_backbone": write_json(
                tmp_path / "bb.json", dict(SMALL_RUN, backbone=str(folder))
            ),
            "bad_accel": write_json(
                tmp_path / "ac.json", dict(SMALL_RUN, accelerator=str(folder))
            ),
        }

        def tree():
            return {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}

        argv, message = self.CASES[case]
        before = tree()
        assert main([arg.format(**paths) for arg in argv]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
        assert tree() == before


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

    def test_history_without_a_committed_line_starts_afresh(self, tmp_path, capsys):
        """A crash before the header line is flushed leaves no committed
        line: an empty file, blank lines, or a torn first line. Its resume
        writes the uninterrupted run's outputs; a missing history still
        exits 3."""
        config = write_json(tmp_path / "run.json", SMALL_RUN)
        full = tmp_path / "full"
        assert main(["search", "--config", config, "--out", str(full)]) == EXIT_OK
        expected = {name: (full / name).read_bytes() for name in OUTPUT_FILES}
        header = expected["history.jsonl"].split(b"\n")[0]
        resumed = tmp_path / "resumed"
        resumed.mkdir()
        argv = ["search", "--config", config, "--out", str(resumed), "--resume"]
        assert main(argv) == EXIT_EVAL
        assert "cannot resume without an existing history file" in capsys.readouterr().err
        assert os.listdir(resumed) == []
        for text in (b"", b"\n\n", b'{"event":"run-con', header[:1], header):
            (resumed / "history.jsonl").write_bytes(text)
            assert main(argv) == EXIT_OK, text
            for name in OUTPUT_FILES:
                assert (resumed / name).read_bytes() == expected[name], (text, name)
        capsys.readouterr()


def with_field(history, dst, kind, field, value):
    """Copy ``history`` to ``dst`` with ``field`` of one ``kind`` event set
    to ``value``: the first summary, or the first event of a hash labeled
    at the last summary; a callable ``value`` maps the old value to the
    new one. Returns the hash of the edited event, if any."""
    lines = history.read_text().splitlines(keepends=True)
    events = [json.loads(line) for line in lines]
    labeled = set([ev for ev in events if ev["event"] == "iteration-summary"][-1]["p"])
    i = next(
        i for i, ev in enumerate(events)
        if ev["event"] == kind
        and (kind == "iteration-summary" or ev["hash"] in labeled)
    )
    if callable(value):
        value = value(events[i][field])
    edited = dict(events[i], **{field: value})
    lines[i] = json.dumps(edited, sort_keys=True, separators=(",", ":")) + "\n"
    dst.write_text("".join(lines))
    return events[i].get("hash")


def history_edit(name, kind, field, value, message, report_message=None):
    return pytest.param(
        kind, field, value, message, report_message or message, id=name
    )


@pytest.mark.parametrize(
    "kind, field, value, message, report_message",
    [
        history_edit(
            "acc_avg-nan", "evaluated", "acc_avg", float("nan"),
            "evaluation of {key} is not finite",
        ),
        history_edit(
            "et_avg-inf", "evaluated", "et_avg", float("inf"),
            "evaluation of {key} is not finite",
        ),
        history_edit(
            "genes-5", "sampled", "genes", 5,
            "sampled event field genes must be a list",
        ),
        # The report finds a labeled hash's gene line by its hash text.
        history_edit(
            "hash-list", "sampled", "hash", [1],
            "sampled event field hash must be a string",
            "labeled {key} has no recorded genes",
        ),
        history_edit(
            "p-5", "iteration-summary", "p", 5,
            "iteration-summary event field p must be a list",
        ),
        history_edit(
            "exit_ratios-0.5", "evaluated", "exit_ratios", 0.5,
            "evaluated event field exit_ratios must be a list",
        ),
        history_edit(
            "k-string", "iteration-summary", "k", "0",
            "iteration-summary event field k must be an integer",
        ),
        # Digit strings hash like the integers they spell.
        history_edit(
            "genes-digits", "sampled", "genes", lambda genes: list(map(str, genes)),
            "the genes recorded for {key} are not integers",
        ),
        # ``true`` does not spell 1, so bools fail the hash check.
        history_edit(
            "genes-bools", "sampled", "genes", lambda genes: list(map(bool, genes)),
            "the genes recorded for {key} do not hash to it",
        ),
        history_edit(
            "genes-floats", "sampled", "genes", lambda genes: list(map(float, genes)),
            "the genes recorded for {key} are not integers",
        ),
        history_edit(
            "p-item-list", "iteration-summary", "p", lambda p: [[1], *p[1:]],
            "iteration-summary event field p must hold strings",
        ),
        history_edit(
            "s-item-int", "iteration-summary", "s", lambda s: [5, *s[1:]],
            "iteration-summary event field s must hold strings",
        ),
    ],
)
class TestNonFiniteHistory:
    """A history whose evaluation holds a non-finite objective, or whose
    event holds a field of the wrong JSON type, written by older code or by
    hand, is refused by every reader of the replay."""

    @pytest.fixture
    def edited(
        self, tmp_path, search_config, kind, field, value, message,
        report_message, capsys,
    ):
        out = tmp_path / "run"
        main(["search", "--config", search_config, "--out", str(out)])
        capsys.readouterr()
        history = tmp_path / "edited.jsonl"
        key = with_field(out / "history.jsonl", history, kind, field, value)
        return history, message.format(key=key), report_message.format(key=key)

    def test_resume(self, tmp_path, search_config, edited, capsys):
        history, message, _ = edited
        resumed = tmp_path / "resumed"
        resumed.mkdir()
        (resumed / "history.jsonl").write_bytes(history.read_bytes())
        code = main(
            ["search", "--config", search_config, "--out", str(resumed), "--resume"]
        )
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert (resumed / "history.jsonl").read_bytes() == history.read_bytes()

    def test_report(self, edited, capsys):
        history, _, message = edited
        assert main(["report", "--history", str(history)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_audit(self, edited):
        from eenas.search import HistoryError, audit_history

        history, message, _ = edited
        with pytest.raises(HistoryError, match=re.escape(message)):
            audit_history(str(history))


class TestOneCostCachePerCommand:
    """The README config on smallconv: one ``eenas search``, and one
    ``--resume``, builds one cost cache, shared by the search, its audit and
    the scatter export; it places fewer heads than it costs exits (the head
    memo), and auditing the history again with it places no head."""

    def test_search_and_resume(self, tmp_path, monkeypatch, capsys):
        from eenas import hwcost, search

        config = write_json(
            tmp_path / "run.json",
            {
                "seed": 7,
                "backbone": "builtin:smallconv",
                "accelerator": "default",
                "space": {"head_depths": [1, 2], "exit_bits": [8, 4], "backbone_bits": 8},
                "nas": {"iterations": 6, "n_select": 20, "init_population": 50},
                "evaluator": {"kind": "oracle"},
            },
        )
        caches, placed = [], []
        init, place_head = search.CostCache.__init__, hwcost.place_head

        def counting_init(self, *args):
            caches.append(self)
            init(self, *args)

        def counting_place(*args):
            placed.append(args)
            return place_head(*args)

        monkeypatch.setattr(search.CostCache, "__init__", counting_init)
        monkeypatch.setattr(hwcost, "place_head", counting_place)
        out = tmp_path / "run"
        history = out / "history.jsonl"
        assert main(["search", "--config", config, "--out", str(out)]) == EXIT_OK
        assert len(caches) == 1
        exits = sum(len(v) for v in caches[0]._costs.values())
        assert 0 < len(placed) < exits
        placed.clear()
        assert search.audit_history(str(history), caches[0]).ok
        assert placed == []

        lines = history.read_text().splitlines(keepends=True)
        summaries = [i for i, line in enumerate(lines) if "iteration-summary" in line]
        cut = (summaries[-2] + summaries[-1]) // 2
        history.write_text("".join(lines[:cut]))
        caches.clear()
        code = main(["search", "--config", config, "--out", str(out), "--resume"])
        assert code == EXIT_OK
        assert len(caches) == 1
        assert history.read_text() == "".join(lines)
        placed.clear()
        assert search.audit_history(str(history), caches[0]).ok
        assert placed == []
        capsys.readouterr()

    def test_readme_search_places_each_head_once(self, tmp_path, monkeypatch, capsys):
        """The README search (seed 7) costs 979 architectures with 5,031
        exits in its one cache and places 1,521 heads: the head memo alone
        places each head once."""
        from eenas import hwcost, search

        config = write_json(tmp_path / "run.json", {**README_RUN, "seed": 7})
        caches, placed = [], []
        init, place_head = search.CostCache.__init__, hwcost.place_head

        def counting_init(self, *args):
            caches.append(self)
            init(self, *args)

        def counting_place(*args):
            placed.append(args)
            return place_head(*args)

        monkeypatch.setattr(search.CostCache, "__init__", counting_init)
        monkeypatch.setattr(hwcost, "place_head", counting_place)
        out = tmp_path / "run"
        assert main(["search", "--config", config, "--out", str(out)]) == EXIT_OK
        [cache] = caches
        assert len(cache._costs) == 979
        assert sum(len(v) for v in cache._costs.values()) == 5031
        assert len(placed) == 1521
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

    @pytest.mark.parametrize(
        "p, message",
        [
            (5, "field p must be a list"),
            ([[1]], "field p must hold strings"),
        ],
    )
    def test_malformed_last_summary(self, tmp_path, search_config, p, message, capsys):
        """The report picks its gene lines by the last summary's ``p``; a
        malformed one is named, as in any other summary, not a crash."""
        out = tmp_path / "run"
        main(["search", "--config", search_config, "--out", str(out)])
        capsys.readouterr()
        history = out / "history.jsonl"
        lines = history.read_text().splitlines()
        last = max(i for i, line in enumerate(lines) if "iteration-summary" in line)
        lines[last] = json.dumps(
            dict(json.loads(lines[last]), p=p), sort_keys=True, separators=(",", ":")
        )
        history.write_text("\n".join(lines) + "\n")
        assert main(["report", "--history", str(history)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

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
