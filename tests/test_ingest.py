"""Tests for dataset configs, benchmark CSV loading, and labeled raw logs."""
import pytest

from nulog.errors import ConfigError, SchemaError, ValidationError
from nulog.ingest import (ANOMALY, NORMAL, DatasetConfig, LogRecord,
                          load_config, load_labeled_bgl, load_loghub_csv)

ALERT_FILTER = r"([ |:|\(|\)|=|,])|(core.)|(\.{2,})"


class TestDatasetConfig:
    def test_defaults(self):
        config = DatasetConfig(name="x", tokenization_filter=r"([ ])")
        assert config.epochs == 5
        assert config.epsilon == 50

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            DatasetConfig(name="", tokenization_filter=r"([ ])")

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_nonpositive_epochs_rejected(self, epochs):
        with pytest.raises(ValidationError):
            DatasetConfig(name="x", tokenization_filter=r"([ ])", epochs=epochs)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValidationError):
            DatasetConfig(name="x", tokenization_filter=r"([ ])", epsilon=0)

    def test_invalid_filter_rejected(self):
        with pytest.raises(ConfigError):
            DatasetConfig(name="x", tokenization_filter="([ ]")


class TestLoadConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "dataset.conf"
        path.write_text(text, encoding="utf-8")
        return path

    def test_full_file(self, tmp_path):
        path = self.write(tmp_path, (
            "# alert-prefixed system log\n"
            "name=bgl\n"
            f"tokenization_filter={ALERT_FILTER}\n"
            "\n"
            "epochs=3\n"
            "epsilon=50\n"
        ))
        config = load_config(path)
        assert config.name == "bgl"
        assert config.tokenization_filter == ALERT_FILTER
        assert config.epochs == 3
        assert config.epsilon == 50

    def test_integer_defaults(self, tmp_path):
        path = self.write(tmp_path, "name=tiny\ntokenization_filter=([ ])\n")
        config = load_config(path)
        assert config.epochs == 5
        assert config.epsilon == 50

    def test_value_may_contain_equals(self, tmp_path):
        # only the first '=' separates key from value
        path = self.write(tmp_path,
                          "name=hpc\ntokenization_filter=([ |=])\nepochs=3\n")
        assert load_config(path).tokenization_filter == "([ |=])"

    def test_frame_length_override_rejected(self, tmp_path):
        path = self.write(tmp_path, ("name=x\ntokenization_filter=([ ])\n"
                                     "frame_length_override=12\n"))
        with pytest.raises(ConfigError, match=r":3:.*frame_length_override"):
            load_config(path)

    def test_unknown_key_reports_line(self, tmp_path):
        path = self.write(tmp_path,
                          "name=x\ntokenization_filter=([ ])\nturbo=yes\n")
        with pytest.raises(ConfigError, match=r":3:.*turbo"):
            load_config(path)

    def test_duplicate_key_reports_line(self, tmp_path):
        path = self.write(tmp_path,
                          "name=x\nname=y\ntokenization_filter=([ ])\n")
        with pytest.raises(ConfigError, match=r":2:.*name"):
            load_config(path)

    def test_line_without_equals(self, tmp_path):
        path = self.write(tmp_path, "name=x\njust words\n")
        with pytest.raises(ConfigError, match=":2:"):
            load_config(path)

    @pytest.mark.parametrize("text,missing", [
        ("tokenization_filter=([ ])\n", "name"),
        ("name=x\n", "tokenization_filter"),
    ])
    def test_missing_required_key(self, tmp_path, text, missing):
        path = self.write(tmp_path, text)
        with pytest.raises(ConfigError, match=missing):
            load_config(path)

    def test_non_integer_epochs(self, tmp_path):
        path = self.write(tmp_path,
                          "name=x\ntokenization_filter=([ ])\nepochs=many\n")
        with pytest.raises(ConfigError, match="epochs"):
            load_config(path)

    def test_invalid_range_surfaces_as_config_error(self, tmp_path):
        path = self.write(tmp_path,
                          "name=x\ntokenization_filter=([ ])\nepsilon=0\n")
        with pytest.raises(ConfigError, match="epsilon"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "absent.conf")

    def test_shipped_configs_load(self):
        from pathlib import Path
        config_dir = Path(__file__).resolve().parent.parent / "configs"
        names = sorted(p.stem for p in config_dir.glob("*.conf"))
        assert len(names) == 10
        for name in names:
            config = load_config(config_dir / f"{name}.conf")
            assert config.name.lower() == name


class TestLoadLoghubCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "log_structured.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_reads_rows_in_order(self, tmp_path):
        path = self.write(tmp_path, (
            "LineId,Content,EventId,EventTemplate\n"
            "1,jk2_init() found child 1566,E1,jk2_init() found child <*>\n"
            "2,workerEnv.init() ok,E2,workerEnv.init() ok\n"
        ))
        records = load_loghub_csv(path)
        assert records == [
            LogRecord(1, "jk2_init() found child 1566", "E1",
                      "jk2_init() found child <*>"),
            LogRecord(2, "workerEnv.init() ok", "E2", "workerEnv.init() ok"),
        ]

    def test_quoted_commas_stay_in_content(self, tmp_path):
        path = self.write(tmp_path,
                          'LineId,Content,EventId\n1,"a, b",E1\n')
        records = load_loghub_csv(path)
        assert records[0].content == "a, b"

    def test_content_only_header(self, tmp_path):
        path = self.write(tmp_path, "Content\nalpha\nbeta\n")
        records = load_loghub_csv(path)
        assert [r.line_id for r in records] == [1, 2]
        assert [r.content for r in records] == ["alpha", "beta"]
        assert records[0].event_id is None
        assert records[0].template is None

    def test_header_only_file_is_empty_dataset(self, tmp_path):
        path = self.write(tmp_path, "LineId,Content\n")
        assert load_loghub_csv(path) == []

    def test_missing_content_column(self, tmp_path):
        path = self.write(tmp_path, "LineId,Message\n1,hello\n")
        with pytest.raises(SchemaError, match="Content"):
            load_loghub_csv(path)

    def test_non_integer_line_id(self, tmp_path):
        path = self.write(tmp_path, "LineId,Content\nfirst,hello\n")
        with pytest.raises(SchemaError, match="first"):
            load_loghub_csv(path)

    def test_row_without_content_cell_names_the_row(self, tmp_path):
        path = self.write(tmp_path, "LineId,Content\n1,hello world\n2\n")
        with pytest.raises(SchemaError, match="data row 2 has no Content cell"):
            load_loghub_csv(path)

    def test_empty_content_cell_is_an_empty_message(self, tmp_path):
        path = self.write(tmp_path, "LineId,Content\n1,hello world\n2,\n")
        assert [r.content for r in load_loghub_csv(path)] == ["hello world", ""]

    def test_reload_gives_equal_records(self, tmp_path):
        path = self.write(tmp_path, "LineId,Content\n1,a\n2,b\n3,c\n")
        assert load_loghub_csv(path) == load_loghub_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_loghub_csv(tmp_path / "absent.csv")


class TestLoadLabeledBgl:
    def write(self, tmp_path, lines):
        path = tmp_path / "raw.log"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_dash_means_normal(self, tmp_path):
        path = self.write(tmp_path, [
            "- 1117838570 2005.06.03 R02-M1 instruction cache parity error corrected",
            "APPREAD 1117869872 2005.06.04 R23-M0 ciod: failed to read message prefix",
        ])
        records = load_labeled_bgl(path)
        assert [r.label for r in records] == [NORMAL, ANOMALY]

    def test_alert_field_stripped_from_content(self, tmp_path):
        path = self.write(tmp_path, ["KERNDTLB 111 node-42 data TLB error"])
        records = load_labeled_bgl(path)
        assert records[0].content == "111 node-42 data TLB error"

    def test_line_ids_sequential_from_one(self, tmp_path):
        path = self.write(tmp_path, ["- a", "- b", "- c"])
        assert [r.line_id for r in load_labeled_bgl(path)] == [1, 2, 3]

    def test_fraction_keeps_leading_lines(self, tmp_path):
        path = self.write(tmp_path, [f"- message {i}" for i in range(100)])
        records = load_labeled_bgl(path, fraction=0.1)
        assert len(records) == 10
        assert records[-1].content == "message 9"

    def test_tiny_fraction_keeps_at_least_one(self, tmp_path):
        path = self.write(tmp_path, ["- a", "- b"])
        assert len(load_labeled_bgl(path, fraction=0.01)) == 1

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_fraction_out_of_range(self, tmp_path, fraction):
        path = self.write(tmp_path, ["- a"])
        with pytest.raises(ValidationError):
            load_labeled_bgl(path, fraction=fraction)

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, ["- a", "", "  ", "- b"])
        records = load_labeled_bgl(path)
        assert [r.content for r in records] == ["a", "b"]
        assert [r.line_id for r in records] == [1, 2]

    def test_alert_only_line_has_empty_content(self, tmp_path):
        path = self.write(tmp_path, ["FATAL"])
        records = load_labeled_bgl(path)
        assert records[0].content == ""
        assert records[0].label == ANOMALY

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "raw.log"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_labeled_bgl(path)
