"""End-to-end command tests: every subcommand, its files, and exit codes."""
import csv
import json
import os
import shutil
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import nulog
import synth
from nulog import anomaly, cli, extraction
from nulog.anomaly import AnomalyConfig
from nulog.cli import main
from nulog.errors import ShapeError
from nulog.extraction import PLACEHOLDER, constant_masks
from nulog.ingest import load_loghub_csv
from nulog.model import Model, ModelConfig
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


@pytest.fixture(scope="module")
def keyed(tmp_path_factory):
    """A model trained with a filter that splits key=value:pairs, and
    epsilon 3, on lines that whitespace alone would not split."""
    root = tmp_path_factory.mktemp("keyed")
    data = root / "keyed.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["LineId", "Content"])
        writer.writerows((i, f"user={user}:id={i} ok") for i, user in enumerate(
            ["alice", "bob", "carol", "dave"] * 6, start=1))
    config = root / "keyed.conf"
    config.write_text("name=keyed\ntokenization_filter=([ |:|=])\n"
                      "epochs=2\nepsilon=3\n", encoding="utf-8")
    model = root / "model.nulog"
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out-model", str(model), *TINY_DIMS]) == 0
    return {"data": data, "model": model}


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

    def test_default_dims_reach_the_archive_and_manifest(self, workspace, tmp_path):
        model = tmp_path / "defaults.nulog"
        assert main(["train", "--data", str(workspace["data"]), "--config",
                     str(workspace["config"]), "--out-model", str(model)]) == 0
        config = load_model(model).config
        defaults = ModelConfig()
        assert (config.d, config.heads, config.ffn_hidden, config.blocks) == \
            (defaults.d, defaults.heads, defaults.ffn_hidden, defaults.blocks) == (64, 4, 128, 1)
        recorded = json.loads(Path(f"{model}.manifest.json").read_text())["config"]
        assert (recorded["d"], recorded["ffn_hidden"]) == (64, 128)

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

    def test_manifest_records_the_blas_threads(self, workspace, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "4")
        out = tmp_path / "blas.nulog"
        assert main(["train", "--data", str(workspace["data"]),
                     "--config", str(workspace["config"]),
                     "--out-model", str(out), *TINY_DIMS]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
            "MKL_NUM_THREADS": "4"}

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

    def test_manifest_records_what_the_vocabulary_kept(self, workspace):
        config = json.loads(
            Path(f"{workspace['model']}.manifest.json").read_text())["config"]
        assert config["min_count"] == ModelConfig.min_count
        # every synthetic value is seen once: 30 lines per event
        tokens = [t for r in load_loghub_csv(workspace["data"])
                  for t in tokenize(r.content, WHITESPACE_FILTER)]
        values = sum(1 for t in tokens if t.startswith("val"))
        assert config["unknown_share"] == values / len(tokens)
        assert config["vocab_size"] == 4 + len(set(tokens)) - values

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
        recorded = json.loads(
            Path(f"{workspace['model']}.manifest.json").read_text())["config"]
        assert manifest["config"]["epsilon"] == recorded["epsilon"] == 12
        assert manifest["config"]["tokenization_filter"] == "([ ])"
        assert load_model(workspace["model"]).config.epsilon == 12

    def test_epsilon_flag_overrides_manifest(self, workspace):
        out = workspace["root"] / "parsed_eps3.csv"
        assert self.parse(workspace, out, extra=["--epsilon", "3"]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["epsilon"] == 3

    @pytest.mark.parametrize("manifest", [None, "{not json"],
                             ids=["no-manifest", "garbage-manifest"])
    def test_archive_alone_parses_as_with_its_manifest(self, keyed, tmp_path,
                                                       manifest):
        # parse settings travel in the archive; a manifest next to it,
        # absent or unreadable, changes nothing
        alone = tmp_path / "alone"
        alone.mkdir()
        model = alone / "model.nulog"
        shutil.copyfile(keyed["model"], model)
        if manifest is not None:
            Path(f"{model}.manifest.json").write_text(manifest, encoding="utf-8")
        with_manifest, without = tmp_path / "with.csv", tmp_path / "without.csv"
        for archive, out in ((keyed["model"], with_manifest), (model, without)):
            assert main(["parse", "--data", str(keyed["data"]),
                         "--model", str(archive), "--out", str(out)]) == 0
        assert without.read_bytes() == with_manifest.read_bytes()
        assert (without.with_suffix(".templates.csv").read_bytes()
                == with_manifest.with_suffix(".templates.csv").read_bytes())
        config = json.loads(Path(f"{without}.manifest.json").read_text())["config"]
        assert (config["tokenization_filter"], config["epsilon"]) == ("([ |:|=])", 3)

    @pytest.mark.parametrize("field", ["filter", "epsilon"])
    def test_archive_with_a_bad_parse_setting_is_validation_error(
            self, workspace, tmp_path, capsys, field):
        blob = workspace["model"].read_bytes()
        at = 4 + 4 + 9 * 4  # epsilon, then the filter's length and bytes
        if field == "epsilon":
            blob = blob[:at] + struct.pack("<I", 0) + blob[at + 4:]
        else:
            at += 8
            assert blob[at:at + 5] == b"([ ])"
            blob = blob[:at] + b"([ ](" + blob[at + 5:]
        model = tmp_path / "patched.nulog"
        model.write_bytes(blob)
        out = tmp_path / "parsed.csv"
        assert main(["parse", "--data", str(workspace["data"]), "--model", str(model),
                     "--out", str(out)]) == 4
        assert str(model) in capsys.readouterr().err
        assert not out.exists()

    def test_filter_flag_is_a_usage_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "parsed.csv"
        assert self.parse(workspace, out, extra=["--filter", "([ ])"]) == 3
        assert "unrecognized arguments: --filter" in capsys.readouterr().err
        assert not out.exists()

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

    def test_tokens_past_the_frame_are_variables(self, tmp_path):
        train_data = tmp_path / "short.csv"
        train_data.write_text("LineId,Content\n1,a b c\n2,a b d\n3,a b e\n",
                              encoding="utf-8")
        model = tmp_path / "short.nulog"
        assert main(["train", "--data", str(train_data),
                     "--out-model", str(model), *TINY_DIMS]) == 0
        parse_data = tmp_path / "long.csv"
        parse_data.write_text("LineId,Content\n1,a b c x y z\n", encoding="utf-8")
        out = tmp_path / "parsed.csv"
        assert main(["parse", "--data", str(parse_data), "--model", str(model),
                     "--out", str(out)]) == 0
        [row] = read_csv(out)
        parts, variables = row["template"].split(" "), json.loads(row["variables"])
        assert parts[3:] == [PLACEHOLDER] * 3
        assert variables[-3:] == ["x", "y", "z"]
        # the row rebuilds its line
        values = iter(variables)
        assert [next(values) if p == PLACEHOLDER else p for p in parts] == \
            ["a", "b", "c", "x", "y", "z"]
        assert next(values, None) is None
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
        assert 0 < config["masked_inputs_scored"] <= config["masked_inputs"] \
            < config["masked_samples"]

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
        tokens = tokenize(record.content, WHITESPACE_FILTER)
        seq = frame(tokens, model.config.frame_length, model.vocab)
        # tokens past the frame are variables, never scored
        keep = [*constant_masks(model, [seq], epsilon)[0][0],
                *[False] * (len(tokens) - len(seq.tokens))]
        template = " ".join(t if k else PLACEHOLDER for t, k in zip(tokens, keep))
        variables = [t for t, k in zip(tokens, keep) if not k]
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

    @pytest.mark.parametrize("table, body, expected", [
        ("parsed", "line_id,template_id,template\n1,0,a b c\n2\n3,1,a x c\n",
         "data row 2 has no template_id cell"),
        ("batch", "dataset,parsed,truth\nx,p.csv\n", "data row 1 has no truth cell"),
        # both long rows used to pass, exit 0: the parsed one scored as
        # template "stop", the job with its fourth cell dropped
        ("parsed", "line_id,template_id,template,variables\n1,0,boot ⟨*⟩,[]\n"
                   "2,1,stop, now,[]\n3,1,stop now,[]\n",
         "data row 2 has more cells than the header"),
        ("batch", "dataset,parsed,truth\none,{parsed},{truth},extra\n",
         "data row 1 has more cells than the header"),
    ], ids=["parsed", "batch", "parsed-long", "batch-long"])
    def test_short_row_is_schema_error(self, tmp_path, capsys, table, body, expected):
        # a row must fit its header: too few cells or too many
        parsed, truth = write_eval_fixture(tmp_path)
        out = tmp_path / "report.csv"
        if table == "parsed":
            parsed.write_text(body, encoding="utf-8")
            argv = ["eval", "--parsed", str(parsed), "--truth", str(truth)]
            expected = f"{parsed}: {expected}"
        else:
            jobs = tmp_path / "jobs.csv"
            jobs.write_text(body.format(parsed=parsed, truth=truth), encoding="utf-8")
            argv = ["eval", "--batch", str(jobs)]
            expected = f"{jobs}: {expected}"
        assert main([*argv, "--out", str(out)]) == 4
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_pair_is_a_batch_of_one(self, tmp_path):
        parsed, truth = write_eval_fixture(tmp_path)
        jobs = tmp_path / "jobs.csv"
        jobs.write_text(f"dataset,parsed,truth\ndemo,{parsed},{truth}\n",
                        encoding="utf-8")
        pair, batch = tmp_path / "pair.csv", tmp_path / "batch.csv"
        assert main(["eval", "--parsed", str(parsed), "--truth", str(truth),
                     "--dataset", "demo", "--out", str(pair)]) == 0
        assert main(["eval", "--batch", str(jobs), "--out", str(batch)]) == 0
        assert pair.read_bytes() == batch.read_bytes()
        # only a batch summarizes the spread
        assert not pair.with_suffix(".robustness.csv").exists()
        assert batch.with_suffix(".robustness.csv").exists()

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

    @pytest.mark.parametrize("flag", ["--parsed", "--truth", "--dataset"])
    def test_batch_with_a_pair_flag_is_config_error(self, tmp_path, capsys, flag):
        # used to exit 0 with the flag ignored; no file is read, the jobs
        # file included
        out = tmp_path / "report.csv"
        code = main(["eval", "--batch", str(tmp_path / "absent.csv"),
                     flag, str(tmp_path / "x"), "--out", str(out)])
        assert code == 3
        assert "--batch takes" in capsys.readouterr().err
        assert not out.exists()

    def test_truth_needs_line_id_and_event_id_only(self, tmp_path):
        parsed, truth = write_eval_fixture(tmp_path)
        rows = read_csv(truth)
        with open(truth, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["LineId", "EventId", "EventTemplate"])
            writer.writerows((r["LineId"], r["EventId"], r["EventTemplate"])
                             for r in rows)
        out = tmp_path / "report.csv"
        assert main(["eval", "--parsed", str(parsed), "--truth", str(truth),
                     "--out", str(out)]) == 0
        report = read_csv(out)[0]
        assert float(report["parsing_accuracy"]) == pytest.approx(1 / 3)
        assert float(report["mean_edit_distance"]) == pytest.approx(1.0)

    def test_truth_without_line_id_is_schema_error(self, tmp_path, capsys):
        # rows used to be numbered by position
        parsed, truth = write_eval_fixture(tmp_path)
        rows = read_csv(truth)
        with open(truth, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["Content", "EventId", "EventTemplate"])
            writer.writerows((r["Content"], r["EventId"], r["EventTemplate"])
                             for r in rows)
        assert main(["eval", "--parsed", str(parsed), "--truth", str(truth),
                     "--out", str(tmp_path / "report.csv")]) == 4
        assert "missing columns ['LineId']" in capsys.readouterr().err

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


THREAD_COUNTS = """
import sys, threading
counts = [threading.active_count()]
from nulog.cli import main
counts.append(threading.active_count())
data, config, model, truth, work = sys.argv[1:6]
assert main(["eval", "--parsed", work + "/p0.csv", "--truth", truth,
             "--out", work + "/r.csv"]) == 0
counts.append(threading.active_count())
assert main(["parse", "--data", data, "--model", model, "--out", work + "/p.csv"]) == 0
counts.append(threading.active_count())
for i in range(2):
    assert main(["train", "--data", data, "--config", config,
                 "--out-model", f"{work}/m{i}.nulog", *sys.argv[6:]]) == 0
    counts.append(threading.active_count())
print(counts)
"""


def test_no_command_starts_a_thread(workspace, tmp_path):
    # eval's parsed file comes from this interpreter; the counts come from a
    # fresh one, so no thread another test started is counted
    assert main(["parse", "--data", str(workspace["data"]), "--model",
                 str(workspace["model"]), "--out", str(tmp_path / "p0.csv")]) == 0
    done = subprocess.run(
        [sys.executable, "-c", THREAD_COUNTS, str(workspace["data"]),
         str(workspace["config"]), str(workspace["model"]), str(workspace["truth"]),
         str(tmp_path), *TINY_DIMS],
        env={**os.environ, "PYTHONPATH": str(Path(nulog.__file__).parents[1])},
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    # import, eval, parse and two trainings: the main thread alone
    assert json.loads(done.stdout.splitlines()[-1]) == [1, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("error, code", [(ShapeError("scored the second chunk"), 4),
                                         (OSError("scored the second chunk"), 2)])
def test_parse_keeps_its_exit_code_when_a_chunk_fails(workspace, tmp_path, monkeypatch,
                                                      error, code):
    predict = Model.predict_masked_batch
    chunks = []

    def fails_on_the_second_chunk(self, ids):
        chunks.append(len(ids))
        if len(chunks) == 2:
            raise error
        return predict(self, ids)

    monkeypatch.setattr(Model, "predict_masked_batch", fails_on_the_second_chunk)
    monkeypatch.setattr(extraction, "CHUNK_ELEMS", 1)  # one input per chunk
    out = tmp_path / "p.csv"
    assert main(["parse", "--data", str(workspace["data"]), "--model",
                 str(workspace["model"]), "--out", str(out)]) == code
    assert chunks == [1, 1]
    assert not out.exists()


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
        # the 40 training lines are 5 constants and a once-seen seq<i>
        assert manifest["config"]["min_count"] == ModelConfig.min_count
        assert manifest["config"]["vocab_size"] == 4 + 5
        assert manifest["config"]["frame_length"] == 6 + 2

    def test_flags_set_the_pretrained_model(self, tmp_path, monkeypatch):
        studied = []

        def study(records, config):
            studied.append(config)
            return (anomaly.DetectionMetrics(0.0, 0.0, 0.0, 0.0), [],
                    SimpleNamespace(config=config.model))

        monkeypatch.setattr(anomaly, "run_unsupervised_study", study)
        code, _ = self.run(tmp_path, extra=["--delta", "0.25", "--seed", "3",
                                            "--train-normal-only"])
        assert code == 0
        assert studied == [AnomalyConfig(
            delta=0.25, normal_only=True,
            model=ModelConfig(epochs=3, epsilon=12, seed=3, tokenization_filter="([ ])",
                              d=16, heads=2, ffn_hidden=32, batch_size=16))]

    def test_supervised_mode_runs(self, tmp_path):
        data = tmp_path / "alerts.log"
        write_alert_log(data)
        out = tmp_path / "verdicts.csv"
        code = main(["detect", "--data", str(data), "--mode", "supervised",
                     "--filter", "([ ])", "--out", str(out), *TINY_DIMS])
        assert code == 0
        assert len(read_csv(out)) == 10
        assert Path(out).with_suffix(".metrics.csv").exists()
        config = json.loads(Path(f"{out}.manifest.json").read_text())["config"]
        assert (config["min_count"], config["vocab_size"], config["frame_length"]) == \
            (ModelConfig.min_count, 4 + 5, 6 + 2)

    def test_supervised_sweep_is_config_error(self, tmp_path, capsys):
        # the delta sweep only applies to threshold verdicts; the flag is
        # refused before the (absent) data is opened
        code = main(["detect", "--data", str(tmp_path / "absent.log"),
                     "--mode", "supervised", "--sweep",
                     "--out", str(tmp_path / "verdicts.csv")])
        assert code == 3
        assert "--sweep applies to unsupervised mode only" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fraction_limits_the_study(self, tmp_path):
        data = tmp_path / "alerts.log"
        write_alert_log(data)
        out = tmp_path / "verdicts.csv"
        code = main(["detect", "--data", str(data), "--mode", "unsupervised",
                     "--fraction", "0.4", "--filter", "([ ])",
                     "--out", str(out), *TINY_DIMS])
        assert code == 0
        assert len(read_csv(out)) == 4  # 20 lines kept, 20% tail


class TestNamesTheBenchmarkWraps:
    """The benchmark's untraced run reads the final loss by wrapping
    nulog.cli.train and nulog.anomaly.train, counts truncated lines by
    wrapping nulog.cli.frame and nulog.anomaly.frame, and derives
    bgl-longtail's training rate from AnomalyConfig's defaults. A command
    that stops calling these names goes unmeasured without an error."""

    @staticmethod
    def spy(monkeypatch, module, name) -> list[dict]:
        calls, original = [], getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_train_goes_through_cli_train(self, workspace, tmp_path, monkeypatch):
        calls = self.spy(monkeypatch, cli, "train")
        assert main(["train", "--data", str(workspace["data"]),
                     "--config", str(workspace["config"]),
                     "--out-model", str(tmp_path / "m.nulog"), *TINY_DIMS]) == 0
        assert len(calls) == 1

    def test_parse_frames_through_cli_frame(self, workspace, tmp_path, monkeypatch):
        calls = self.spy(monkeypatch, cli, "frame")
        assert main(["parse", "--data", str(workspace["data"]),
                     "--model", str(workspace["model"]),
                     "--out", str(tmp_path / "parsed.csv")]) == 0
        distinct = {r.content for r in load_loghub_csv(workspace["data"])}
        assert len(calls) == len(distinct)

    def test_detect_trains_and_frames_its_test_split_through_anomaly(
            self, tmp_path, monkeypatch):
        trains = self.spy(monkeypatch, anomaly, "train")
        frames = self.spy(monkeypatch, anomaly, "frame")
        code, _ = TestDetect().run(tmp_path)
        assert code == 0
        assert len(trains) == 1
        assert [f["message_index"] for f in frames][-10:] == list(range(41, 51))

    def test_anomaly_config_defaults(self):
        config = AnomalyConfig()
        assert (config.train_fraction, config.epochs_unsupervised,
                config.epochs_finetune) == (0.8, 3, 2)


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

    @pytest.mark.parametrize("row, expected", [
        ("2,alpha beta, gamma delta,e2,alpha <*>",
         "data row 2 has more cells than the header"),
        ("2,alpha beta,e2", "data row 2 has no EventTemplate cell"),
    ], ids=["long", "short"])
    @pytest.mark.parametrize("command", ["train", "parse", "eval"])
    def test_row_that_does_not_fit_the_header_is_schema_error(
            self, workspace, tmp_path, capsys, command, row, expected):
        # the long row used to lose " gamma delta", and the short one made
        # eval report an empty edit distance
        data = tmp_path / "rows.csv"
        data.write_text("LineId,Content,EventId,EventTemplate\n"
                        f"1,alpha beta,e1,alpha beta\n{row}\n", encoding="utf-8")
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", "--data", str(data), "--out-model", str(out), *TINY_DIMS]
        elif command == "parse":
            argv = ["parse", "--data", str(data), "--model", str(workspace["model"]),
                    "--out", str(out)]
        else:
            parsed = tmp_path / "parsed.csv"
            parsed.write_text("line_id,template_id,template,variables\n"
                              "1,0,alpha beta,[]\n2,0,alpha beta,[]\n",
                              encoding="utf-8")
            argv = ["eval", "--parsed", str(parsed), "--truth", str(data),
                    "--out", str(out)]
        assert main(argv) == 4
        assert f"{data}: {expected}" in capsys.readouterr().err
        assert list(tmp_path.glob("out*")) == []

    @staticmethod
    def data_argv(command, data, out, workspace):
        if command == "train":
            return ["train", "--data", str(data), "--out-model", str(out), *TINY_DIMS]
        return ["parse", "--data", str(data), "--model", str(workspace["model"]),
                "--out", str(out)]

    @pytest.mark.parametrize("command", ["train", "parse"])
    def test_undecodable_csv_byte_is_schema_error(self, workspace, tmp_path, capsys,
                                                  command):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"LineId,Content\n1,hello world\n2,caf\xe9 open\n")
        out = tmp_path / "out"
        assert main(self.data_argv(command, data, out, workspace)) == 4
        assert f"{data}:3: not UTF-8" in capsys.readouterr().err
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("command", ["train", "parse"])
    def test_oversized_cell_is_schema_error(self, workspace, tmp_path, capsys, command):
        data = tmp_path / "huge.csv"
        data.write_text(f"LineId,Content\n1,hello world\n2,{'x' * 140_000}\n",
                        encoding="utf-8")
        out = tmp_path / "out"
        assert main(self.data_argv(command, data, out, workspace)) == 4
        assert f"{data}:3: field larger than field limit" in capsys.readouterr().err
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_undecodable_config_byte_is_config_error(self, workspace, tmp_path, capsys,
                                                     command):
        # parse takes its filter from the archive and reads no config file
        config = tmp_path / "latin1.conf"
        config.write_bytes(b"# caf\xe9\nname=x\ntokenization_filter=([ ])\n")
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", "--data", str(workspace["data"]), "--config", str(config),
                    "--out-model", str(out), *TINY_DIMS]
        else:
            argv = ["eval", "--parsed", str(workspace["data"]), "--truth",
                    str(workspace["truth"]), "--config", str(config), "--out", str(out)]
        assert main(argv) == 3
        assert f"{config}:1: not UTF-8" in capsys.readouterr().err
        assert list(tmp_path.glob("out*")) == []

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
