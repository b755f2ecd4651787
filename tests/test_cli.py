import json
import struct
from dataclasses import fields

import numpy as np
import pytest

from quatkge import evaluation, train
from quatkge.cli import _train_config_from_args, build_parser, main
from quatkge.data import HEAD, TAIL, load_dataset
from quatkge.model import init_embeddings, load_checkpoint, save_checkpoint
from quatkge.synthetic import planted_graph
from quatkge.train import TrainConfig

from test_model import header_of, with_header


@pytest.fixture
def dataset_dir(tmp_path):
    graph = planted_graph(n_entities=30, sym_pairs=20, seed=3)
    graph.write(tmp_path / "data")
    return tmp_path / "data"


def data_flags(dataset_dir):
    return ["--train", str(dataset_dir / "train.txt"),
            "--valid", str(dataset_dir / "valid.txt"),
            "--test", str(dataset_dir / "test.txt")]


def read_keyvalue(path):
    out = {}
    for line in path.read_text().splitlines():
        key, value = line.split("=", 1)
        out[key] = value
    return out


def write_dataset(directory, train, valid, test):
    """Write three triple files into `directory`; return their flags."""
    directory.mkdir()
    for split, rows in (("train", train), ("valid", valid), ("test", test)):
        (directory / f"{split}.txt").write_text("".join("\t".join(row) + "\n"
                                                        for row in rows))
    return data_flags(directory)


def nan_checkpoint(flags, path, entity):
    """A k = 4 checkpoint for the dataset of `flags` whose row of `entity` is
    NaN, written in the checkpoint format directly (``save_checkpoint``
    refuses a non-finite table)."""
    store = load_dataset(*flags[1::2])
    table = init_embeddings(store.n_entities, store.n_relations, 4, seed=0)
    table.entities[store.entity_names.index(entity), 0, 0] = np.nan
    path.write_bytes(with_header(table, json.dumps(header_of(table)).encode()))
    return store


class TestStats:
    def test_stats_stdout_and_files(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["stats", *data_flags(dataset_dir), "--out", str(out),
                     "--format", "keyvalue"])
        assert code == 0
        doc = read_keyvalue(out / "stats.keyvalue")
        assert doc["entities"] == "30" and doc["relations"] == "4"
        printed = capsys.readouterr().out
        assert "entities=30" in printed
        assert (out / "stats.txt").exists()

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["stats", "--train", str(tmp_path / "none.txt"),
                     "--valid", str(tmp_path / "none.txt"),
                     "--test", str(tmp_path / "none.txt")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats"])
        assert exc.value.code == 1

    def test_training_other_scorers_rejected(self, dataset_dir):
        with pytest.raises(SystemExit) as exc:
            main(["train", *data_flags(dataset_dir), "--scorer", "rotate",
                  "--epochs", "1"])
        assert exc.value.code == 1


class TestTrainCommand:
    def run_train(self, dataset_dir, out, extra=()):
        return main(["train", *data_flags(dataset_dir), "--out", str(out),
                     "--k", "6", "--epochs", "4", "--eval-every", "2",
                     "--neg", "2", "--seed", "5", "--format", "keyvalue",
                     *extra])

    def test_non_finite_training_exits_3_without_checkpoint(self, dataset_dir, tmp_path,
                                                            monkeypatch, capsys):
        store = load_dataset(*(dataset_dir / f"{s}.txt"
                               for s in ("train", "valid", "test")))
        broken = init_embeddings(store.n_entities, store.n_relations, 6, seed=5)
        broken.entities[store.train[0, 0]] = np.nan
        monkeypatch.setattr(train, "init_embeddings", lambda *args: broken)
        out = tmp_path / "run"
        assert self.run_train(dataset_dir, out, ["--eval-every", "0"]) == 3
        assert "error" in capsys.readouterr().err
        assert not list(out.glob("checkpoint.bin*"))

    def test_writes_checkpoint_log_and_report(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        assert self.run_train(dataset_dir, out) == 0
        table, meta = load_checkpoint(out / "checkpoint.bin")
        assert table.k == 6 and meta["scorer"] == "quate_d"
        assert meta["config_hash"]
        log = (out / "train_log.txt").read_text().splitlines()
        assert len(log) == 4 and log[0].startswith("epoch=1 loss=")
        keys = [[field.split("=")[0] for field in line.split()] for line in log]
        assert keys[0] == ["epoch", "loss", "active_fraction", "wall_time"]
        assert keys[1] == ["epoch", "loss", "val_mrr", "active_fraction", "wall_time"]
        assert all(0.0 <= float(line.split()[-2].split("=")[1]) <= 1.0 for line in log)
        report = read_keyvalue(out / "report_valid.keyvalue")
        assert report["seed"] == "5"
        assert "mrr" in report

    def test_zero_epochs_checkpoint_is_init(self, dataset_dir, tmp_path):
        out = tmp_path / "run0"
        code = main(["train", *data_flags(dataset_dir), "--out", str(out),
                     "--k", "4", "--epochs", "0", "--seed", "9"])
        assert code == 0
        table, _ = load_checkpoint(out / "checkpoint.bin")
        store = load_dataset(*(dataset_dir / f"{s}.txt"
                               for s in ("train", "valid", "test")))
        init = init_embeddings(store.n_entities, store.n_relations, 4, 9)
        np.testing.assert_array_equal(table.entities, init.entities)

    def test_empty_train_split_is_usage_error(self, dataset_dir, tmp_path, capsys):
        (dataset_dir / "train.txt").write_text("")
        code = main(["train", *data_flags(dataset_dir), "--out", str(tmp_path / "e"),
                     "--k", "4", "--epochs", "2"])
        assert code == 1
        assert capsys.readouterr().err == "error: split 'train' is empty\n"

    @pytest.mark.parametrize("eval_every", ["1", "0"])
    def test_empty_valid_split_is_usage_error(self, dataset_dir, tmp_path, capsys,
                                              eval_every):
        (dataset_dir / "valid.txt").write_text("")
        out = tmp_path / "e"
        code = main(["train", *data_flags(dataset_dir), "--out", str(out),
                     "--k", "4", "--epochs", "2", "--eval-every", eval_every])
        assert code == 1
        assert capsys.readouterr().err == "error: split 'valid' is empty\n"
        assert not (out / "checkpoint.bin").exists()

    def test_reruns_byte_identical(self, dataset_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        self.run_train(dataset_dir, out_a)
        self.run_train(dataset_dir, out_b)
        assert ((out_a / "checkpoint.bin").read_bytes()
                == (out_b / "checkpoint.bin").read_bytes())
        assert ((out_a / "report_valid.keyvalue").read_text()
                == (out_b / "report_valid.keyvalue").read_text())

    def test_grid_records_selection(self, dataset_dir, tmp_path):
        out = tmp_path / "grid"
        code = self.run_train(dataset_dir, out, extra=["--grid", "k=4,6"])
        assert code == 0
        doc = read_keyvalue(out / "grid.keyvalue")
        assert doc["runs"] == "2"
        assert doc["run.0.k"] == "4" and doc["run.1.k"] == "6"
        selected = int(doc["selected.index"])
        best = max(float(doc["run.0.val_mrr"]), float(doc["run.1.val_mrr"]))
        assert float(doc[f"run.{selected}.val_mrr"]) == best
        table, _ = load_checkpoint(out / "checkpoint.bin")
        assert table.k == int(doc[f"run.{selected}.k"])

    @pytest.mark.parametrize("extra, rankings", [
        ([], 2), (["--eval-every", "0"], 1), (["--grid", "k=4,6"], 4),
    ], ids=["validated", "never_validated", "grid"])
    def test_validation_ranked_once_per_evaluation(self, dataset_dir, tmp_path,
                                                   monkeypatch, extra, rankings):
        # 4 epochs validated every 2: fit's two evaluations give report_valid.
        splits = []
        rank = evaluation.link_prediction

        def counted(*args, **kwargs):
            splits.append(kwargs["split"])
            return rank(*args, **kwargs)

        monkeypatch.setattr(evaluation, "link_prediction", counted)
        assert self.run_train(dataset_dir, tmp_path / "run", extra=extra) == 0
        assert splits == ["valid"] * rankings

    def test_flag_defaults_are_train_config_defaults(self):
        args = build_parser().parse_args(["train", "--train", "a", "--valid", "b",
                                          "--test", "c"])
        config = _train_config_from_args(args)
        for field in fields(TrainConfig):
            value, default = getattr(config, field.name), field.default
            assert (value, type(value)) == (default, type(default)), field.name

    def test_flags_set_train_config_fields(self):
        args = build_parser().parse_args([
            "train", "--train", "a", "--valid", "b", "--test", "c",
            "--k", "7", "--margin", "2.5", "--lr", "0.1", "--l1", "0.3",
            "--l2", "0.4", "--neg", "3", "--batch", "8", "--epochs", "9",
            "--seed", "11", "--type-constraints", "on", "--eval-every", "2",
            "--patience", "4", "--loss-form", "pointwise"])
        assert _train_config_from_args(args) == TrainConfig(
            k=7, margin=2.5, lr=0.1, l1=0.3, l2=0.4, neg_rate=3, batch_size=8,
            epochs=9, seed=11, constraint_mode="type_constrained", eval_every=2,
            patience=4, loss_form="pointwise")

    def test_config_file_with_flag_override(self, dataset_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 4\nepochs = 2\nseed = 3\n"
                       f"train = {dataset_dir / 'train.txt'}\n"
                       f"valid = {dataset_dir / 'valid.txt'}\n"
                       f"test = {dataset_dir / 'test.txt'}\n")
        out = tmp_path / "cfgrun"
        code = main(["train", "--config", str(cfg), "--out", str(out),
                     "--k", "6"])
        assert code == 0
        table, _ = load_checkpoint(out / "checkpoint.bin")
        assert table.k == 6   # flag beats config file

    @pytest.mark.parametrize("body, message", [
        (b"k = 4\n# caf\xc3\xa9\nepochs = \xff2\n", "3: byte 0xff is not valid UTF-8"),
        (b"k = 4\r\n\r\nepochs 2\r\n", "3: expected key=value"),
    ], ids=["not-utf8", "no-equals"])
    def test_bad_config_line_is_data_error(self, tmp_path, capsys, body, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(body)
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:{message}\n"


@pytest.fixture
def trained(dataset_dir, tmp_path):
    out = tmp_path / "trained"
    main(["train", *data_flags(dataset_dir), "--out", str(out), "--k", "6",
          "--epochs", "6", "--eval-every", "3", "--neg", "2", "--seed", "1"])
    return out / "checkpoint.bin"


class TestEvalCommand:
    def test_reports_both_modes(self, dataset_dir, trained, tmp_path):
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(trained),
                     *data_flags(dataset_dir), "--out", str(out),
                     "--format", "keyvalue"])
        assert code == 0
        raw = read_keyvalue(out / "report_test_raw.keyvalue")
        filt = read_keyvalue(out / "report_test_filtered.keyvalue")
        assert raw["mode"] == "raw" and filt["mode"] == "filtered"
        assert float(filt["mr"]) <= float(raw["mr"])

    def test_matches_library_call(self, dataset_dir, trained, tmp_path):
        from quatkge.evaluation import link_prediction
        out = tmp_path / "eval2"
        main(["eval", "--checkpoint", str(trained), *data_flags(dataset_dir),
              "--out", str(out), "--mode", "filtered"])
        doc = read_keyvalue(out / "report_test_filtered.keyvalue")
        store = load_dataset(*(dataset_dir / f"{s}.txt"
                               for s in ("train", "valid", "test")))
        table, _ = load_checkpoint(trained)
        report = link_prediction(table, store, mode="filtered")
        assert float(doc["mrr"]) == report.mrr
        assert float(doc["mr"]) == report.mr

    def test_undecodable_bytes_are_data_error(self, dataset_dir, trained, capsys):
        train = dataset_dir / "train.txt"
        lines = train.read_bytes().splitlines(keepends=True)
        train.write_bytes(b"".join(lines[:2]) + b"caf\xe9\tr\tx\n" + b"".join(lines[2:]))
        code = main(["eval", "--checkpoint", str(trained), *data_flags(dataset_dir)])
        assert code == 2
        assert f"{train}:3: byte 0xe9 is not valid UTF-8" in capsys.readouterr().err

    def test_shape_mismatch_is_data_error(self, dataset_dir, tmp_path, capsys):
        bad = init_embeddings(7, 2, 4, seed=0)
        path = tmp_path / "bad.bin"
        save_checkpoint(bad, path)
        code = main(["eval", "--checkpoint", str(path), *data_flags(dataset_dir)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_zero_relation_is_numeric_error(self, dataset_dir, tmp_path, capsys):
        store = load_dataset(*(dataset_dir / f"{s}.txt"
                               for s in ("train", "valid", "test")))
        broken = init_embeddings(store.n_entities, store.n_relations, 4, seed=0)
        broken.relations[0] = 0.0
        path = tmp_path / "broken.bin"
        save_checkpoint(broken, path)
        code = main(["eval", "--checkpoint", str(path), *data_flags(dataset_dir)])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_nan_entity_is_numeric_error(self, dataset_dir, tmp_path, capsys):
        store = load_dataset(*(dataset_dir / f"{s}.txt"
                               for s in ("train", "valid", "test")))
        broken = init_embeddings(store.n_entities, store.n_relations, 4, seed=0)
        broken.entities[5, 0, 1] = np.nan
        # save_checkpoint refuses a non-finite table, so the file is written
        # in the checkpoint format directly
        path = tmp_path / "nan.bin"
        path.write_bytes(with_header(broken, json.dumps(header_of(broken)).encode()))
        code = main(["eval", "--checkpoint", str(path), *data_flags(dataset_dir)])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_unknown_scorer_is_data_error(self, dataset_dir, tmp_path, capsys):
        store = load_dataset(*(dataset_dir / f"{s}.txt"
                               for s in ("train", "valid", "test")))
        table = init_embeddings(store.n_entities, store.n_relations, 4, seed=0)
        meta = {**header_of(table), "scorer": "bogus"}
        path = tmp_path / "bogus.bin"
        path.write_bytes(with_header(table, json.dumps(meta).encode()))
        code = main(["eval", "--checkpoint", str(path), *data_flags(dataset_dir)])
        assert code == 2
        assert "scorer" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [
        b"QKGE\x01",
        b"QKGE" + struct.pack("<II", 1, 8) + b'{"k": 4}',
    ], ids=["five_bytes", "no_n_entities"])
    def test_malformed_checkpoint_is_data_error(self, dataset_dir, tmp_path,
                                                capsys, raw):
        path = tmp_path / "malformed.bin"
        path.write_bytes(raw)
        code = main(["eval", "--checkpoint", str(path), *data_flags(dataset_dir)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_nan_row_outside_every_pool_is_numeric_error(self, tmp_path, capsys):
        # The test split's relation r has pools e0, e2, e4 and e1, e3, e5, so
        # type-constrained ranking reads 6 of 20 rows; e10 occurs only in a
        # self-loop of relation pad, which the split does not rank.
        names = [f"e{i}" for i in range(20)]
        flags = write_dataset(
            tmp_path / "data",
            [(e, "pad", e) for e in names] + [("e0", "r", "e1"), ("e2", "r", "e3"),
                                              ("e4", "r", "e5")],
            [("e0", "r", "e3")], [("e2", "r", "e1"), ("e4", "r", "e3")])
        path = tmp_path / "nan.bin"
        store = nan_checkpoint(flags, path, "e10")
        relation = store.relation_names.index("r")
        pooled = store.type_pools(TAIL)[relation] | store.type_pools(HEAD)[relation]
        assert [store.entity_names[e] for e in np.flatnonzero(pooled)] == names[:6]
        code = main(["eval", "--checkpoint", str(path), *flags, "--type-constraints", "on"])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err


class TestClassifyCommand:
    def test_report_written(self, dataset_dir, trained, tmp_path):
        out = tmp_path / "cls"
        code = main(["classify", "--checkpoint", str(trained),
                     *data_flags(dataset_dir), "--out", str(out),
                     "--seed", "3", "--format", "keyvalue"])
        assert code == 0
        doc = read_keyvalue(out / "classification.keyvalue")
        assert 0.0 <= float(doc["accuracy"]) <= 1.0
        assert doc["seed"] == "3"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nan_row_is_numeric_error_at_every_seed(self, tmp_path, capsys, seed):
        # x occurs in one training triple only, so whether a seeded negative
        # draws it varies with the seed; the checkpoint is refused at load
        names = [f"e{i}" for i in range(21)]
        flags = write_dataset(
            tmp_path / "data",
            [(names[i], f"r{i % 2}", names[i + 1]) for i in range(20)] + [("e3", "r0", "x")],
            [(names[i], f"r{i % 2}", names[i + 2]) for i in range(0, 8, 2)],
            [(names[i], f"r{i % 2}", names[i + 3]) for i in range(1, 9, 2)])
        path = tmp_path / "nan.bin"
        nan_checkpoint(flags, path, "x")
        code = main(["classify", "--checkpoint", str(path), *flags, "--seed", str(seed)])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err


class TestPropertiesCommand:
    def test_standard_checks(self, tmp_path, capsys):
        out = tmp_path / "props"
        code = main(["properties", "--trials", "500", "--dim", "4",
                     "--seed", "0", "--out", str(out), "--format", "keyvalue"])
        assert code == 0
        doc = read_keyvalue(out / "properties.keyvalue")
        assert doc["check.inversion.passed"] == "true"
        assert doc["check.symmetry.passed"] == "true"
        assert doc["check.noncommutativity.passed"] == "true"

    def test_trained_diagnostics(self, dataset_dir, trained, tmp_path):
        out = tmp_path / "props2"
        code = main(["properties", "--trials", "200", "--dim", "4",
                     "--checkpoint", str(trained), *data_flags(dataset_dir),
                     "--out", str(out)])
        assert code == 0
        doc = read_keyvalue(out / "properties.keyvalue")
        assert "trained.sym.imaginary_energy" in doc


class TestInspectCommand:
    def test_prints_metadata(self, trained, capsys):
        code = main(["inspect", "--checkpoint", str(trained),
                     "--format", "keyvalue"])
        assert code == 0
        out = capsys.readouterr().out
        assert "n_entities=30" in out and "k=6" in out


class TestExportCurves:
    def test_rows_sorted_and_missing_skipped(self, dataset_dir, tmp_path, capsys):
        store = load_dataset(*(dataset_dir / f"{s}.txt"
                               for s in ("train", "valid", "test")))
        paths = []
        for k in (8, 4, 6):
            table = init_embeddings(store.n_entities, store.n_relations, k,
                                    seed=k)
            path = tmp_path / f"ck{k}.bin"
            save_checkpoint(table, path)
            paths.append(str(path))
        out = tmp_path / "curves"
        malformed = tmp_path / "malformed.bin"
        malformed.write_bytes(b"QKGE\x01")
        code = main(["export-curves", "--checkpoints", *paths,
                     str(tmp_path / "missing.bin"), str(malformed),
                     *data_flags(dataset_dir),
                     "--out", str(out), "--seed", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert "skipping" in captured.err
        rows = (out / "curves.csv").read_text().splitlines()
        assert rows[0] == "k,accuracy"
        dims = [int(r.split(",")[0]) for r in rows[1:]]
        assert dims == [4, 6, 8]

    def test_accuracy_matches_classify(self, dataset_dir, tmp_path):
        from quatkge.evaluation import triple_classification
        store = load_dataset(*(dataset_dir / f"{s}.txt"
                               for s in ("train", "valid", "test")))
        table = init_embeddings(store.n_entities, store.n_relations, 5, seed=4)
        path = tmp_path / "one.bin"
        save_checkpoint(table, path)
        out = tmp_path / "curve1"
        main(["export-curves", "--checkpoints", str(path),
              *data_flags(dataset_dir), "--out", str(out), "--seed", "6"])
        rows = (out / "curves.csv").read_text().splitlines()
        accuracy = float(rows[1].split(",")[1])
        assert accuracy == triple_classification(table, store, seed=6).accuracy
