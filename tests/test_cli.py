"""End-to-end command tests: every subcommand, its files, and exit codes."""
import csv
import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

import synth
from nulog.cli import main
from nulog.extraction import PLACEHOLDER, constant_masks
from nulog.ingest import load_loghub_csv
from nulog.persistence import load_model
from nulog.tokenizer import WHITESPACE_FILTER, frame, tokenize

TINY_DIMS = ["--d", "16", "--heads", "2", "--ffn-hidden", "32",
             "--batch-size", "16"]


def read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A trained model over the synthetic corpus plus its input files."""
    root = tmp_path_factory.mktemp("cli")
    corpus = synth.make_corpus(per_template=30, seed=11)
    data = root / "synth.csv"
    truth = root / "synth_structured.csv"
    synth.write_content_csv(data, corpus)
    synth.write_structured_csv(truth, corpus)
    config = root / "synth.conf"
    config.write_text("name=synth\ntokenization_filter=([ ])\n"
                      "epochs=2\nepsilon=12\n", encoding="utf-8")
    model = root / "model.nulog"
    code = main(["train", "--data", str(data), "--config", str(config),
                 "--out-model", str(model), *TINY_DIMS])
    assert code == 0
    return {"root": root, "data": data, "truth": truth, "config": config,
            "model": model, "messages": len(corpus.contents)}


class TestTrain:
    def test_archive_and_manifest_written(self, workspace):
        assert workspace["model"].exists()
        manifest = json.loads(
            Path(f"{workspace['model']}.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["dataset"] == "synth"
        assert manifest["seed"] == 7
        assert manifest["config"]["epochs"] == 2
        assert manifest["config"]["epsilon"] == 12
        assert manifest["config"]["d"] == 16
        assert isinstance(manifest["config"]["final_loss"], float)
        assert manifest["config"]["vocab_size"] > 4
        assert manifest["elapsed_seconds"] >= 0

    def test_manifest_records_loss_per_epoch(self, workspace):
        manifest = json.loads(
            Path(f"{workspace['model']}.manifest.json").read_text())
        losses = manifest["config"]["losses"]
        assert len(losses) == manifest["config"]["epochs"]
        assert losses[-1] == manifest["config"]["final_loss"]

    def test_deterministic_archives(self, workspace, tmp_path):
        first = tmp_path / "a.nulog"
        second = tmp_path / "b.nulog"
        for out in (first, second):
            code = main(["train", "--data", str(workspace["data"]),
                         "--config", str(workspace["config"]),
                         "--out-model", str(out), "--seed", "7", *TINY_DIMS])
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_seed_env_fallback(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("NULOG_SEED", "21")
        out = tmp_path / "env.nulog"
        code = main(["train", "--data", str(workspace["data"]),
                     "--config", str(workspace["config"]),
                     "--out-model", str(out), *TINY_DIMS])
        assert code == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["seed"] == 21

    def test_invalid_seed_env_is_config_error(self, workspace, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("NULOG_SEED", "lucky")
        code = main(["train", "--data", str(workspace["data"]),
                     "--out-model", str(tmp_path / "x.nulog"), *TINY_DIMS])
        assert code == 3

    def test_frame_length_override_rejected(self, workspace, tmp_path):
        config = tmp_path / "short.conf"
        config.write_text("name=synth\ntokenization_filter=([ ])\n"
                          "epochs=1\nframe_length_override=5\n",
                          encoding="utf-8")
        out = tmp_path / "short.nulog"
        code = main(["train", "--data", str(workspace["data"]),
                     "--config", str(config), "--out-model", str(out),
                     *TINY_DIMS])
        assert code == 3
        assert not out.exists()
        assert not Path(f"{out}.manifest.json").exists()

    def test_empty_training_data_is_validation_error(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("LineId,Content\n", encoding="utf-8")
        code = main(["train", "--data", str(data),
                     "--out-model", str(tmp_path / "m.nulog"), *TINY_DIMS])
        assert code == 4


class TestParse:
    def parse(self, workspace, out, extra=()):
        return main(["parse", "--data", str(workspace["data"]),
                     "--model", str(workspace["model"]),
                     "--out", str(out), *extra])

    def test_writes_rows_templates_and_manifest(self, workspace):
        out = workspace["root"] / "parsed.csv"
        assert self.parse(workspace, out) == 0
        rows = read_csv(out)
        assert len(rows) == workspace["messages"]
        assert list(rows[0]) == ["line_id", "template_id", "template",
                                 "variables"]
        for row in rows:
            assert isinstance(json.loads(row["variables"]), list)
        templates = read_csv(Path(out).with_suffix(".templates.csv"))
        assert sum(int(r["count"]) for r in templates) == workspace["messages"]
        ids = [int(r["template_id"]) for r in templates]
        assert ids == list(range(len(templates)))

    def test_epsilon_defaults_from_training_manifest(self, workspace):
        out = workspace["root"] / "parsed_chain.csv"
        assert self.parse(workspace, out) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["epsilon"] == 12
        assert manifest["config"]["tokenization_filter"] == "([ ])"

    def test_epsilon_flag_overrides_manifest(self, workspace):
        out = workspace["root"] / "parsed_eps3.csv"
        assert self.parse(workspace, out, extra=["--epsilon", "3"]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["epsilon"] == 3

    @pytest.mark.parametrize("manifest, key", [
        ("[1, 2]", "not a JSON object"),
        ('{"config": "x"}', "'config' is not a JSON object"),
        ('{"config": {"epsilon": "12"}}', "'epsilon' must be of type int"),
        ('{"config": {"epsilon": 12.0}}', "'epsilon' must be of type int"),
        ('{"config": {"epsilon": true}}', "'epsilon' must be of type int"),
        ('{"config": {"tokenization_filter": 5}}',
         "'tokenization_filter' must be of type str"),
    ])
    def test_malformed_training_manifest_is_config_error(self, workspace, tmp_path,
                                                         capsys, manifest, key):
        model = tmp_path / "model.nulog"
        shutil.copyfile(workspace["model"], model)
        Path(f"{model}.manifest.json").write_text(manifest, encoding="utf-8")
        out = tmp_path / "parsed.csv"
        # the data file is absent: the manifest is checked before it is read
        code = main(["parse", "--data", str(tmp_path / "absent.csv"),
                     "--model", str(model), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{model}.manifest.json" in err and key in err
        assert not out.exists()
        assert not Path(f"{out}.manifest.json").exists()

    def test_deterministic_output(self, workspace, tmp_path):
        first = tmp_path / "p1.csv"
        second = tmp_path / "p2.csv"
        assert self.parse(workspace, first) == 0
        assert self.parse(workspace, second) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_empty_dataset_gives_empty_outputs(self, workspace, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("LineId,Content\n", encoding="utf-8")
        out = tmp_path / "parsed.csv"
        code = main(["parse", "--data", str(data),
                     "--model", str(workspace["model"]), "--out", str(out)])
        assert code == 0
        assert read_csv(out) == []
        assert read_csv(Path(out).with_suffix(".templates.csv")) == []

    def test_manifest_counts_truncated_lines(self, tmp_path):
        train_data = tmp_path / "short.csv"
        train_data.write_text("LineId,Content\n1,a b c\n2,a d c\n",
                              encoding="utf-8")
        model = tmp_path / "short.nulog"
        assert main(["train", "--data", str(train_data),
                     "--out-model", str(model), *TINY_DIMS]) == 0
        parse_data = tmp_path / "long.csv"
        parse_data.write_text("LineId,Content\n1,a b c x y z w\n2,a b c\n",
                              encoding="utf-8")
        out = tmp_path / "parsed.csv"
        assert main(["parse", "--data", str(parse_data), "--model", str(model),
                     "--epsilon", "1", "--out", str(out)]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["messages_truncated"] == 1

    def test_repeated_lines_match_a_line_by_line_reference(self, workspace,
                                                           tmp_path):
        contents = [r.content for r in load_loghub_csv(workspace["data"])]
        long_line = contents[1] + " tail" * 40
        lines = (contents[:40] + contents[5:15] + [long_line]
                 + [contents[0].replace(" ", "  ", 1)] + [long_line]
                 + contents[:3])
        data = tmp_path / "repeats.csv"
        with open(data, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["LineId", "Content"])
            writer.writerows(enumerate(lines, start=1))
        out, expected = tmp_path / "parsed.csv", tmp_path / "expected.csv"
        assert main(["parse", "--data", str(data), "--model", str(workspace["model"]),
                     "--out", str(out)]) == 0
        parse_line_by_line(data, workspace["model"], 12, expected)
        assert out.read_bytes() == expected.read_bytes()
        assert (out.with_suffix(".templates.csv").read_bytes()
                == expected.with_suffix(".templates.csv").read_bytes())
        config = json.loads(Path(f"{out}.manifest.json").read_text())["config"]
        assert config["messages_truncated"] == 2
        assert config["lines"] == len(lines)
        assert config["distinct_lines"] == len(set(lines))
        assert config["masked_samples"] == sum(
            min(len(tokenize(line, WHITESPACE_FILTER)),
                load_model(workspace["model"]).config.frame_length - 2)
            for line in lines)
        assert 0 < config["masked_inputs_scored"] < config["masked_samples"]

    def test_missing_model_is_io_error(self, workspace, tmp_path):
        code = main(["parse", "--data", str(workspace["data"]),
                     "--model", str(tmp_path / "absent.nulog"),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2


def parse_line_by_line(data, model_path, epsilon, out):
    """Reference parse: every line scored on its own, no caching."""
    model = load_model(model_path)
    rows, template_ids, counts = [], {}, Counter()
    for record in load_loghub_csv(data):
        seq = frame(tokenize(record.content, WHITESPACE_FILTER),
                    model.config.frame_length, model.vocab)
        keep = constant_masks(model, [seq], epsilon)[0][0]
        template = " ".join(t if k else PLACEHOLDER for t, k in zip(seq.tokens, keep))
        variables = [t for t, k in zip(seq.tokens, keep) if not k]
        template_id = template_ids.setdefault(template, len(template_ids))
        counts[template_id] += 1
        rows.append((record.line_id, template_id, template,
                     json.dumps(variables, ensure_ascii=False)))
    for path, header, body in (
            (out, ["line_id", "template_id", "template", "variables"], rows),
            (Path(out).with_suffix(".templates.csv"),
             ["template_id", "template", "count"],
             [(i, t, counts[i]) for t, i in template_ids.items()])):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(body)


def write_eval_fixture(root):
    """Hand-built parsed/truth pair with known accuracy 1/3: the prediction
    merges the truth groups of lines 2 and 3."""
    parsed = root / "parsed.csv"
    with open(parsed, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["line_id", "template_id", "template", "variables"])
        writer.writerow([1, 0, "boot ⟨*⟩", '["fast"]'])
        writer.writerow([2, 1, "stop now", "[]"])
        writer.writerow([3, 1, "stop now", "[]"])
    truth = root / "truth.csv"
    with open(truth, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["LineId", "Content", "EventId", "EventTemplate"])
        writer.writerow([1, "boot fast", "e1", "boot <*>"])
        writer.writerow([2, "stop now", "e4", "stop now"])
        writer.writerow([3, "stop off", "e5", "stop <*>"])
    return parsed, truth


class TestEval:
    def test_single_pair_report(self, tmp_path):
        parsed, truth = write_eval_fixture(tmp_path)
        out = tmp_path / "report.csv"
        code = main(["eval", "--parsed", str(parsed), "--truth", str(truth),
                     "--dataset", "demo", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["dataset"] == "demo"
        assert float(rows[0]["parsing_accuracy"]) == pytest.approx(1 / 3)
        # line 3: 'stop now' vs 'stop ⟨*⟩' is 3 edits; others match
        assert float(rows[0]["mean_edit_distance"]) == pytest.approx(1.0)

    def test_batch_report_and_robustness(self, tmp_path):
        parsed, truth = write_eval_fixture(tmp_path)
        jobs = tmp_path / "jobs.csv"
        with open(jobs, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["dataset", "parsed", "truth"])
            writer.writerow(["one", parsed, truth])
            writer.writerow(["two", parsed, truth])
        out = tmp_path / "report.csv"
        code = main(["eval", "--batch", str(jobs), "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert [r["dataset"] for r in rows] == ["one", "two"]
        summary = read_csv(Path(out).with_suffix(".robustness.csv"))[0]
        assert float(summary["min"]) == pytest.approx(1 / 3)
        assert float(summary["median"]) == pytest.approx(1 / 3)
        assert float(summary["max"]) == pytest.approx(1 / 3)

    def test_coverage_mismatch_is_validation_error(self, tmp_path):
        parsed, truth = write_eval_fixture(tmp_path)
        lines = parsed.read_text(encoding="utf-8").splitlines()
        parsed.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        code = main(["eval", "--parsed", str(parsed), "--truth", str(truth),
                     "--out", str(tmp_path / "report.csv")])
        assert code == 4

    @pytest.mark.parametrize("repeated", ["parsed", "truth"])
    def test_repeated_line_id_is_schema_error(self, tmp_path, capsys, repeated):
        # lines 1, 1, 2 in one file and 1, 2 in the other used to pass,
        # scored over whichever row of line 1 came last
        parsed = tmp_path / "parsed.csv"
        truth = tmp_path / "truth.csv"
        parsed_ids = [1, 1, 2] if repeated == "parsed" else [1, 2]
        truth_ids = [1, 1, 2] if repeated == "truth" else [1, 2]
        with open(parsed, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["line_id", "template_id", "template", "variables"])
            writer.writerows((i, 0, "stop now", "[]") for i in parsed_ids)
        with open(truth, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["LineId", "Content", "EventId", "EventTemplate"])
            writer.writerows((i, "stop now", "e1", "stop now") for i in truth_ids)
        code = main(["eval", "--parsed", str(parsed), "--truth", str(truth),
                     "--out", str(tmp_path / "report.csv")])
        assert code == 4
        column = "line_id" if repeated == "parsed" else "LineId"
        assert f"{column} 1 appears more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("short", ["parsed", "batch"])
    def test_short_row_is_schema_error(self, tmp_path, capsys, short):
        parsed, truth = write_eval_fixture(tmp_path)
        out = tmp_path / "report.csv"
        if short == "parsed":
            parsed.write_text("line_id,template_id,template\n1,0,a b c\n2\n3,1,a x c\n",
                              encoding="utf-8")
            argv = ["eval", "--parsed", str(parsed), "--truth", str(truth)]
            expected = f"{parsed}: data row 2 has no template_id cell"
        else:
            jobs = tmp_path / "jobs.csv"
            jobs.write_text("dataset,parsed,truth\nx,p.csv\n", encoding="utf-8")
            argv = ["eval", "--batch", str(jobs)]
            expected = f"{jobs}: data row 1 has no truth cell"
        assert main([*argv, "--out", str(out)]) == 4
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_batch_job_may_leave_config_out(self, tmp_path):
        parsed, truth = write_eval_fixture(tmp_path)
        jobs = tmp_path / "jobs.csv"
        jobs.write_text(f"dataset,parsed,truth,config\none,{parsed},{truth}\n",
                        encoding="utf-8")
        out = tmp_path / "report.csv"
        assert main(["eval", "--batch", str(jobs), "--out", str(out)]) == 0
        assert [r["dataset"] for r in read_csv(out)] == ["one"]

    def test_missing_pair_flags_is_config_error(self, tmp_path):
        code = main(["eval", "--out", str(tmp_path / "report.csv")])
        assert code == 3

    def test_truth_without_event_id_is_validation_error(self, tmp_path):
        parsed, truth = write_eval_fixture(tmp_path)
        rows = read_csv(truth)
        with open(truth, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["LineId", "Content"])
            for i, row in enumerate(rows, start=1):
                writer.writerow([i, row["Content"]])
        code = main(["eval", "--parsed", str(parsed), "--truth", str(truth),
                     "--out", str(tmp_path / "report.csv")])
        assert code == 4


def write_alert_log(path):
    """Normal traffic, then a tail where even lines carry novel tokens."""
    lines = []
    for i in range(1, 41):
        lines.append(f"- service heartbeat ok status green seq{i}")
    for i in range(41, 51):
        if i % 2:
            lines.append(f"- service heartbeat ok status green seq{i}")
        else:
            lines.append(f"KERNPANIC panic{i} blown{i} fuse{i} smoke{i}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestDetect:
    def run(self, tmp_path, extra=()):
        data = tmp_path / "alerts.log"
        write_alert_log(data)
        out = tmp_path / "verdicts.csv"
        code = main(["detect", "--data", str(data), "--mode", "unsupervised",
                     "--epsilon", "12", "--filter", "([ ])", "--out", str(out),
                     *TINY_DIMS, *extra])
        return code, out

    def test_unsupervised_outputs(self, tmp_path):
        code, out = self.run(tmp_path)
        assert code == 0
        verdicts = read_csv(out)
        assert len(verdicts) == 10  # the 20% tail
        assert list(verdicts[0]) == ["line_id", "fraction", "verdict", "label"]
        for row in verdicts:
            assert 0.0 <= float(row["fraction"]) <= 1.0
            assert row["verdict"] in ("normal", "anomaly")
            assert row["label"] in ("normal", "anomaly")
        metrics = read_csv(Path(out).with_suffix(".metrics.csv"))[0]
        for column in ("accuracy", "precision", "recall", "f1"):
            assert 0.0 <= float(metrics[column]) <= 1.0
        total = sum(int(metrics[c]) for c in
                    ("true_positives", "false_positives", "true_negatives",
                     "false_negatives"))
        assert total == 10

    def test_sweep_covers_the_grid(self, tmp_path):
        code, out = self.run(tmp_path, extra=["--sweep"])
        assert code == 0
        sweep = read_csv(Path(out).with_suffix(".sweep.csv"))
        assert [row["delta"] for row in sweep] == [
            "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9"]

    def test_manifest_records_study_settings(self, tmp_path):
        code, out = self.run(tmp_path, extra=["--train-normal-only"])
        assert code == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["command"] == "detect"
        assert manifest["config"]["mode"] == "unsupervised"
        assert manifest["config"]["train_normal_only"] is True
        assert manifest["config"]["tokenization_filter"] == "([ ])"
        assert manifest["config"]["batch_size"] == 16
        assert manifest["seed"] == 7

    def test_supervised_mode_runs(self, tmp_path):
        data = tmp_path / "alerts.log"
        write_alert_log(data)
        out = tmp_path / "verdicts.csv"
        code = main(["detect", "--data", str(data), "--mode", "supervised",
                     "--filter", "([ ])", "--out", str(out), *TINY_DIMS,
                     "--sweep"])
        assert code == 0
        assert len(read_csv(out)) == 10
        assert Path(out).with_suffix(".metrics.csv").exists()
        # the delta sweep only applies to threshold verdicts
        assert not Path(out).with_suffix(".sweep.csv").exists()

    def test_fraction_limits_the_study(self, tmp_path):
        data = tmp_path / "alerts.log"
        write_alert_log(data)
        out = tmp_path / "verdicts.csv"
        code = main(["detect", "--data", str(data), "--mode", "unsupervised",
                     "--fraction", "0.4", "--filter", "([ ])",
                     "--out", str(out), *TINY_DIMS])
        assert code == 0
        assert len(read_csv(out)) == 4  # 20 lines kept, 20% tail


class TestExitCodes:
    def test_missing_required_flag_is_config_error(self, capsys):
        assert main(["train", "--out-model", "x.nulog"]) == 3
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_config_error(self):
        assert main(["transmogrify"]) == 3

    def test_no_subcommand_is_config_error(self):
        assert main([]) == 3

    def test_missing_data_file_is_io_error(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "absent.csv"),
                     "--out-model", str(tmp_path / "m.nulog")]) == 2

    def test_bad_config_file_is_config_error(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("LineId,Content\n1,hello world\n", encoding="utf-8")
        config = tmp_path / "bad.conf"
        config.write_text("name=x\nturbo=yes\n", encoding="utf-8")
        assert main(["train", "--data", str(data), "--config", str(config),
                     "--out-model", str(tmp_path / "m.nulog")]) == 3

    def test_bad_delta_is_validation_error(self, tmp_path):
        data = tmp_path / "alerts.log"
        write_alert_log(data)
        assert main(["detect", "--data", str(data), "--mode", "unsupervised",
                     "--delta", "1.5", "--out", str(tmp_path / "v.csv"),
                     *TINY_DIMS]) == 4

    @pytest.mark.parametrize("command", ["train", "parse"])
    def test_repeated_line_id_is_schema_error(self, workspace, tmp_path, capsys,
                                              command):
        # ids 1, 1, 2 used to train, and to parse into two rows for line 1
        data = tmp_path / "repeated.csv"
        data.write_text("LineId,Content\n1,stop now\n1,start now\n2,stop now\n",
                        encoding="utf-8")
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", "--data", str(data), "--out-model", str(out), *TINY_DIMS]
        else:
            argv = ["parse", "--data", str(data), "--model", str(workspace["model"]),
                    "--out", str(out)]
        assert main(argv) == 4
        assert "LineId 1 appears more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "parse"])
    def test_row_without_content_is_schema_error(self, workspace, tmp_path, capsys,
                                                 command):
        data = tmp_path / "short_row.csv"
        data.write_text("LineId,Content\n1,hello world\n2\n", encoding="utf-8")
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", "--data", str(data), "--out-model", str(out), *TINY_DIMS]
        else:
            argv = ["parse", "--data", str(data), "--model", str(workspace["model"]),
                    "--out", str(out)]
        assert main(argv) == 4
        assert "data row 2 has no Content cell" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "4294967296"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("command", ["train", "detect"])
    def test_seed_outside_u32_is_config_error(self, workspace, tmp_path, capsys,
                                              monkeypatch, command, source, seed):
        out = tmp_path / "out" / "result"
        out.parent.mkdir()
        if command == "train":
            argv = ["train", "--data", str(workspace["data"]), "--out-model", str(out),
                    *TINY_DIMS]
        else:
            data = tmp_path / "alerts.log"
            write_alert_log(data)
            argv = ["detect", "--data", str(data), "--mode", "unsupervised",
                    "--out", str(out), *TINY_DIMS]
        if source == "flag":
            argv += ["--seed", seed]
        else:
            monkeypatch.setenv("NULOG_SEED", seed)
        assert main(argv) == 3
        assert f"seed must be in [0, 2**32), got {seed}" in capsys.readouterr().err
        assert list(out.parent.iterdir()) == []

    def test_seed_is_checked_before_the_data_is_read(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "absent.csv"),
                     "--out-model", str(tmp_path / "m.nulog"), "--seed", "-1"]) == 3

    @pytest.mark.parametrize("seed", ["0", "4294967295"])
    def test_seed_range_ends_are_accepted(self, workspace, tmp_path, seed):
        out = tmp_path / "edge.nulog"
        code = main(["train", "--data", str(workspace["data"]),
                     "--config", str(workspace["config"]), "--out-model", str(out),
                     "--seed", seed, *TINY_DIMS])
        assert code == 0
        assert load_model(out).config.seed == int(seed)
