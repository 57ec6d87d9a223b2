import csv
import dataclasses
import filecmp
import hashlib
import json
import math
import pathlib
import platform
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from oracles import naive_hits, naive_shrec
from viewgraph import cli, dataio, evalmetrics
from viewgraph.cli import build_parser, main
import viewgraph.model as vgm
from viewgraph.geometry import build_view_graph
from viewgraph.model import BLOCK_NAMES, TrainConfig, init_model, load_checkpoint, save_checkpoint


def make_dataset(path, classes=2, per_class=4, views=4, input_dim=6, seed=5,
                 split="train"):
    code = main([
        "synth", "--out", str(path), "--classes", str(classes),
        "--per-class", str(per_class), "--views", str(views),
        "--input-dim", str(input_dim), "--seed", str(seed), "--split", split,
    ])
    assert code == 0
    return path


def train_model(data_path, model_path, *extra, epochs=3, seed=1):
    code = main([
        "train", "--data", str(data_path), "--out", str(model_path),
        "--n-patterns", "4", "--feature-dim", "8",
        "--learning-rate", "0.02", "--epochs", str(epochs),
        "--batch-size", "4", "--seed", str(seed),
        "--plateau-patience", "0", *extra,
    ])
    assert code == 0
    return model_path


class TestSynthCommand:
    def test_writes_loadable_dataset(self, tmp_path):
        path = make_dataset(tmp_path / "d.3dvgd", classes=3, per_class=2)
        ds = dataio.load(path)
        assert ds.num_classes == 3
        assert ds.num_samples == 6
        assert ds.views == 4
        assert ds.feature_dim == 6
        assert ds.split == "train"

    def test_split_flag_stored(self, tmp_path):
        path = make_dataset(tmp_path / "d.3dvgd", split="test")
        assert dataio.load(path).split == "test"

    def test_manifest_records_output_hash(self, tmp_path):
        out = tmp_path / "d.3dvgd"
        manifest = tmp_path / "run.json"
        code = main([
            "synth", "--out", str(out), "--classes", "2", "--per-class", "2",
            "--views", "4", "--input-dim", "5", "--manifest", str(manifest),
        ])
        assert code == 0
        payload = json.loads(manifest.read_text())
        assert payload["command"] == "synth"
        assert payload["outputs"] == [str(out)]
        assert payload["wall_seconds"] >= 0.0
        recorded = payload["inputs"]["dataset"]["sha256"]
        assert recorded == hashlib.sha256(out.read_bytes()).hexdigest()


class TestTrainCommand:
    def test_writes_checkpoint_log_and_manifest(self, tmp_path):
        data = make_dataset(tmp_path / "d.3dvgd")
        model = tmp_path / "m.3dvgm"
        log_file = tmp_path / "epochs.jsonl"
        manifest = tmp_path / "train.json"
        code = main([
            "train", "--data", str(data), "--out", str(model),
            "--n-patterns", "4", "--feature-dim", "8",
            "--learning-rate", "0.02", "--epochs", "3", "--batch-size", "4",
            "--seed", "1", "--plateau-patience", "0",
            "--log-file", str(log_file), "--manifest", str(manifest),
        ])
        assert code == 0

        params, config = load_checkpoint(model)
        assert config.n_patterns == 4
        assert config.feature_dim == 8
        assert config.num_classes == 2
        assert config.views == 4
        assert config.input_dim == 6

        lines = [json.loads(line) for line in log_file.read_text().splitlines()]
        assert [entry["epoch"] for entry in lines] == [0, 1, 2]
        for entry in lines:
            assert set(entry) == {"epoch", "loss", "accuracy", "seconds"}
            assert entry["loss"] > 0.0

        payload = json.loads(manifest.read_text())
        assert payload["command"] == "train"
        assert payload["config"]["n_patterns"] == 4
        assert str(model) in payload["outputs"]
        assert str(log_file) in payload["outputs"]

    def test_manifest_records_software_and_peak_memory(self, tmp_path):
        data = make_dataset(tmp_path / "d.3dvgd")
        manifest = tmp_path / "train.json"
        train_model(data, tmp_path / "m.3dvgm", "--manifest", str(manifest))
        payload = json.loads(manifest.read_text())
        assert payload["python"] == platform.python_version()
        assert payload["numpy"] == np.__version__
        assert isinstance(payload["blas"], str) and payload["blas"]
        # None outside a git checkout
        assert payload["git_describe"] is None or isinstance(payload["git_describe"], str)
        assert payload["peak_rss_mb"] > 0.0

    def test_git_that_cannot_start_leaves_no_describe(self, monkeypatch):
        def no_git(*args, **kwargs):
            raise OSError("git not found")

        monkeypatch.setattr(cli.subprocess, "run", no_git)
        cli._software.cache_clear()
        try:
            assert cli._software()["git_describe"] is None
        finally:
            cli._software.cache_clear()  # later runs look git up again

    def test_same_seed_reproduces_checkpoint_bytes(self, tmp_path):
        data = make_dataset(tmp_path / "d.3dvgd")
        a = train_model(data, tmp_path / "a.3dvgm")
        b = train_model(data, tmp_path / "b.3dvgm")
        assert filecmp.cmp(a, b, shallow=False)

    def test_resume_continues_from_checkpoint(self, tmp_path):
        data = make_dataset(tmp_path / "d.3dvgd")
        first = train_model(data, tmp_path / "first.3dvgm")
        second = tmp_path / "second.3dvgm"
        code = main([
            "train", "--data", str(data), "--out", str(second),
            "--resume", str(first),
            "--n-patterns", "4", "--feature-dim", "8",
            "--learning-rate", "0.02", "--epochs", "2", "--batch-size", "4",
            "--seed", "1", "--plateau-patience", "0",
        ])
        assert code == 0
        assert not filecmp.cmp(first, second, shallow=False)

    def test_ablation_flag_round_trips_through_checkpoint(self, tmp_path):
        data = make_dataset(tmp_path / "d.3dvgd")
        model = train_model(data, tmp_path / "m.3dvgm", "--mean-pool")
        _, config = load_checkpoint(model)
        assert config.mean_pool

    @pytest.mark.parametrize("pool", ["mean_pool", "max_pool"])
    def test_every_option_reaches_the_checkpoint_config(self, tmp_path, pool):
        # mean_pool and max_pool exclude each other, so each run sets one
        data = make_dataset(tmp_path / "d.3dvgd")
        model = tmp_path / "m.3dvgm"
        options = dict(n_patterns=3, feature_dim=5, sigma=2.5, learning_rate=0.01,
                       epochs=2, batch_size=3, seed=7, plateau_patience=4)
        flags = [f.name for f in dataclasses.fields(TrainConfig)
                 if f.type is bool and (f.name == pool or not f.name.endswith("_pool"))]
        argv = ["train", "--data", str(data), "--out", str(model)]
        for name, value in options.items():
            argv += ["--" + name.replace("_", "-"), str(value)]
        argv += ["--" + name.replace("_", "-") for name in flags]
        assert main(argv) == 0
        _, config = load_checkpoint(model)
        dims = dict(num_classes=2, views=4, input_dim=6)
        want = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
        assert dataclasses.asdict(config) == {**want, **dims, **options,
                                              **dict.fromkeys(flags, True)}

    def test_option_defaults_are_the_config_defaults(self):
        args = vars(build_parser().parse_args(["train", "--data", "d", "--out", "m"]))
        defaults = {f.name: f.default for f in dataclasses.fields(TrainConfig)
                    if f.name not in ("num_classes", "views", "input_dim")}
        assert len(defaults) == 14
        assert {name: args[name] for name in defaults} == defaults

    def test_threads_flag_is_gone(self, tmp_path):
        data = make_dataset(tmp_path / "d.3dvgd")
        with pytest.raises(SystemExit) as excinfo:
            train_model(data, tmp_path / "m.3dvgm", "--threads", "2")
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag", ["--no-attention-wf", "--drop-eq10-second-term",
                                      "--no-attention-c"])
    def test_no_op_flags_are_gone(self, tmp_path, flag):
        # all three only touched a score term shared by all views, which
        # softmax cancels: the first two could change nothing, and
        # --no-attention-c was --no-attention under another name
        data = make_dataset(tmp_path / "d.3dvgd")
        with pytest.raises(SystemExit) as excinfo:
            train_model(data, tmp_path / "m.3dvgm", flag)
        assert excinfo.value.code == 2

    def test_gradcheck_no_attention_c_is_gone(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gradcheck", "--no-attention-c"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag", ["--sigma", "--learning-rate"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_float_fails_before_training(self, tmp_path, capsys, flag, value):
        data = make_dataset(tmp_path / "d.3dvgd")
        log_file = tmp_path / "epochs.jsonl"
        code = main([
            "train", "--data", str(data), "--out", str(tmp_path / "m.3dvgm"),
            "--epochs", "1", "--log-file", str(log_file), flag, value,
        ])
        assert code == 1
        err = capsys.readouterr().err
        field = flag[2:].replace("-", "_")
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert f"{field} must be finite and >= 0, got {value}" in errors[0]
        assert "epoch" not in err
        assert not log_file.exists()


    def test_negative_sigma_is_named_as_the_sigma(self, tmp_path, capsys):
        data = make_dataset(tmp_path / "d.3dvgd")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.3dvgm"),
                     "--sigma", "-1"])
        assert code == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == ["error: sigma must be finite and >= 0, got -1.0"]
        assert "directions" not in err

    def test_diverging_run_exits_1_with_the_divergence_line(self, tmp_path, capsys):
        data = make_dataset(tmp_path / "d.3dvgd")
        model = tmp_path / "m.3dvgm"
        code = main(["train", "--data", str(data), "--out", str(model), "--n-patterns", "4",
                     "--feature-dim", "8", "--epochs", "3", "--batch-size", "4",
                     "--learning-rate", "1e3"])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith("error: training diverged: epoch loss ")
        assert errors[0].endswith(" is over 100 ln 2 in epoch 0 (learning rate 1000.0)")
        assert not model.exists()


class TestEvalCommand:
    def test_reports_accuracy_json(self, tmp_path, capsys):
        data = make_dataset(tmp_path / "d.3dvgd")
        model = train_model(data, tmp_path / "m.3dvgm")
        code = main(["eval", "--model", str(model), "--data", str(data)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["num_samples"] == 8
        assert 0.0 <= summary["accuracy"] <= 1.0
        assert summary["mean_loss"] > 0.0

    def test_incompatible_dataset_fails_cleanly(self, tmp_path, capsys):
        data = make_dataset(tmp_path / "d.3dvgd")
        other = make_dataset(tmp_path / "other.3dvgd", input_dim=9)
        model = train_model(data, tmp_path / "m.3dvgm")
        code = main(["eval", "--model", str(model), "--data", str(other)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value", [("n_patterns", 4.0), ("threads", 2.0), ("no_latent", "no")]
    )
    def test_mistyped_checkpoint_config_fails_cleanly(self, tmp_path, capsys, field, value):
        data = make_dataset(tmp_path / "d.3dvgd")
        model = train_model(data, tmp_path / "m.3dvgm")
        blob = model.read_bytes()
        (cfg_len,) = struct.unpack_from("<I", blob, 10)
        config = json.loads(blob[14 : 14 + cfg_len])
        new = json.dumps({**config, field: value}, sort_keys=True).encode()
        model.write_bytes(blob[:10] + struct.pack("<I", len(new)) + new + blob[14 + cfg_len :])
        code = main(["eval", "--model", str(model), "--data", str(data)])
        assert code == 1
        assert f"error: checkpoint config field {field}" in capsys.readouterr().err


class TestRetrieveCommand:
    def setup_run(self, tmp_path):
        data = make_dataset(tmp_path / "d.3dvgd")
        model = train_model(data, tmp_path / "m.3dvgm")
        return data, model

    def test_self_retrieval_with_csv_outputs(self, tmp_path, capsys):
        data, model = self.setup_run(tmp_path)
        metrics = tmp_path / "metrics.csv"
        per_query = tmp_path / "per_query.csv"
        pr = tmp_path / "pr.csv"
        code = main([
            "retrieve", "--model", str(model), "--data", str(data),
            "--metrics-csv", str(metrics), "--per-query-csv", str(per_query),
            "--pr-csv", str(pr), "--pr-points", "5",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["num_queries"] == 8
        assert set(summary["micro"]) == {"precision", "recall", "f1", "map", "ndcg"}

        with open(metrics, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["scope", "precision", "recall", "f1", "map", "ndcg"]
        assert [r[0] for r in rows[1:]] == ["micro", "macro"]

        with open(per_query, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 8

        with open(pr, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["recall", "precision"]
        assert len(rows) == 1 + 5
        # interpolated precision can only fall as the recall grid rises
        precisions = [float(r[1]) for r in rows[1:]]
        assert all(b <= a for a, b in zip(precisions, precisions[1:]))

    def test_ranks_once(self, tmp_path, capsys, monkeypatch):
        data, model = self.setup_run(tmp_path)
        calls = []
        rank = evalmetrics.rank_gallery

        def counted(run):
            calls.append(run)
            return rank(run)

        monkeypatch.setattr(evalmetrics, "rank_gallery", counted)
        code = main([
            "retrieve", "--model", str(model), "--data", str(data),
            "--metrics-csv", str(tmp_path / "m.csv"),
            "--per-query-csv", str(tmp_path / "q.csv"),
            "--pr-csv", str(tmp_path / "pr.csv"),
        ])
        assert code == 0
        assert len(calls) == 1
        capsys.readouterr()

        run = calls[0]
        report = evalmetrics.shrec_metrics(run)
        assert evalmetrics.mean_average_precision(run) == report.micro.map
        assert len(calls) == 1

    def test_separate_gallery(self, tmp_path, capsys):
        data, model = self.setup_run(tmp_path)
        gallery = make_dataset(tmp_path / "g.3dvgd", seed=9, split="gallery")
        code = main([
            "retrieve", "--model", str(model), "--data", str(data),
            "--gallery", str(gallery),
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["num_queries"] == 8

    @pytest.mark.parametrize("separate_gallery", [False, True])
    def test_frees_the_model_before_ranking(self, tmp_path, capsys, monkeypatch,
                                            separate_gallery):
        data, model = self.setup_run(tmp_path)
        extra = []
        if separate_gallery:
            extra = ["--gallery", str(make_dataset(tmp_path / "g.3dvgd", seed=9))]
        payloads, alive = [], []
        load, rank = cli.load_checkpoint, evalmetrics.rank_gallery

        def load_and_watch(*args, **kwargs):
            params, config = load(*args, **kwargs)
            payloads.append(weakref.ref(params.cls.feat_weights.base))
            return params, config

        def rank_and_check(run):
            alive.append([ref() is not None for ref in payloads])
            return rank(run)

        monkeypatch.setattr(cli, "load_checkpoint", load_and_watch)
        monkeypatch.setattr(evalmetrics, "rank_gallery", rank_and_check)
        assert main(["retrieve", "--model", str(model), "--data", str(data), *extra]) == 0
        capsys.readouterr()
        assert alive == [[False]]

    def test_gallery_without_a_query_class(self, tmp_path, capsys, monkeypatch):
        data = make_dataset(tmp_path / "d.3dvgd", classes=3, per_class=3)
        model = train_model(data, tmp_path / "m.3dvgm")
        gallery = make_dataset(tmp_path / "g.3dvgd", classes=2, per_class=4, seed=9)
        per_query = tmp_path / "q.csv"
        ranked = []
        rank = evalmetrics.rank_gallery

        def rank_and_keep(run):
            ranked.append((run, *rank(run)))
            return ranked[-1][1:]

        monkeypatch.setattr(evalmetrics, "rank_gallery", rank_and_keep)
        assert main(["retrieve", "--model", str(model), "--data", str(data),
                     "--gallery", str(gallery), "--per-query-csv", str(per_query)]) == 0
        capsys.readouterr()
        [(run, _, relevant)] = ranked
        assert [a.tolist() for a in run.hits] == list(naive_hits(relevant.tolist()))
        assert np.diff(run.hits.starts).tolist() == [4] * 6 + [0] * 3
        want, _, _ = naive_shrec(run.query_features, run.query_labels,
                                 run.gallery_features, run.gallery_labels)
        with open(per_query, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert [r["cutoff"] for r in got] == ["4"] * 6 + ["0"] * 3
        for row, expected in zip(got, want):
            assert {key: type(value)(row[key]) for key, value in expected.items()} == expected

    def test_cosine_distance_flag(self, tmp_path, capsys):
        data, model = self.setup_run(tmp_path)
        code = main([
            "retrieve", "--model", str(model), "--data", str(data),
            "--distance", "cosine",
        ])
        assert code == 0
        capsys.readouterr()

    def test_bad_cutoff_fails_cleanly(self, tmp_path, capsys):
        data, model = self.setup_run(tmp_path)
        code = main([
            "retrieve", "--model", str(model), "--data", str(data),
            "--cutoff", "0",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestManifestHashes:
    """Each manifest input hash is the SHA-256 of the bytes the command read."""

    @staticmethod
    def file_hash(path) -> str:
        return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()

    def test_every_input_hash_is_the_file_hash(self, tmp_path, capsys):
        data = make_dataset(tmp_path / "d.3dvgd")
        gallery = make_dataset(tmp_path / "g.3dvgd", seed=9, split="gallery")
        model = train_model(data, tmp_path / "m.3dvgm", "--manifest", str(tmp_path / "train.json"))
        runs = {
            "eval": (["eval"], {"model", "data"}),
            "retrieve": (["retrieve"], {"model", "data"}),
            "gallery": (["retrieve", "--gallery", str(gallery)], {"model", "data", "gallery"}),
        }
        for name, (command, _) in runs.items():
            assert main([*command, "--model", str(model), "--data", str(data),
                         "--manifest", str(tmp_path / f"{name}.json")]) == 0
        train_model(data, tmp_path / "resumed.3dvgm", "--resume", str(model),
                    "--manifest", str(tmp_path / "resume.json"), epochs=1)
        capsys.readouterr()
        runs["train"] = ([], {"data"})
        runs["resume"] = ([], {"data", "resume"})
        for name, (_, expected) in runs.items():
            inputs = json.loads((tmp_path / f"{name}.json").read_text())["inputs"]
            assert set(inputs) == expected
            for entry in inputs.values():
                assert entry["sha256"] == self.file_hash(entry["path"])

    def test_checkpoint_replaced_after_load_keeps_the_hash_of_the_bytes_read(
            self, tmp_path, capsys, monkeypatch):
        data = make_dataset(tmp_path / "d.3dvgd")
        model = train_model(data, tmp_path / "m.3dvgm")
        other = train_model(data, tmp_path / "other.3dvgm", seed=2)
        read = self.file_hash(model)
        infer = cli.infer

        def replace_then_infer(*args, **kwargs):
            model.write_bytes(other.read_bytes())
            return infer(*args, **kwargs)

        monkeypatch.setattr(cli, "infer", replace_then_infer)
        manifest = tmp_path / "eval.json"
        assert main(["eval", "--model", str(model), "--data", str(data),
                     "--manifest", str(manifest)]) == 0
        capsys.readouterr()
        recorded = json.loads(manifest.read_text())["inputs"]["model"]["sha256"]
        assert recorded == read != self.file_hash(model)


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        # one line per parameter block plus the summary line
        assert len(out.strip().splitlines()) == len(BLOCK_NAMES) + 1 == 10

    def test_fails_at_unreachable_tolerance(self, capsys):
        assert main(["gradcheck", "--seed", "0", "--tol", "1e-18"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("option", ["--learning-rate", "--epochs", "--batch-size",
                                        "--plateau-patience"])
    def test_training_only_options_are_usage_errors(self, capsys, option):
        # the check never trains, so these options could change nothing
        with pytest.raises(SystemExit) as excinfo:
            main(["gradcheck", option, "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_bad_tolerance_is_rejected_before_the_check(self, capsys, tol):
        assert main(["gradcheck", "--seed", "0", "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: --tol must be finite and > 0, got {float(tol)}"]


class TestAttentionDumpCommand:
    def test_writes_alpha_table(self, tmp_path):
        data = make_dataset(tmp_path / "d.3dvgd")
        model = train_model(data, tmp_path / "m.3dvgm")
        out = tmp_path / "alpha.csv"
        code = main([
            "attention-dump", "--model", str(model), "--data", str(data),
            "--out", str(out),
        ])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["shape_index", "view_index", "alpha", "is_max", "is_min"]
        body = rows[1:]
        assert len(body) == 8 * 4
        for shape in range(8):
            chunk = [r for r in body if int(r[0]) == shape]
            weights = [float(r[2]) for r in chunk]
            assert abs(math.fsum(weights) - 1.0) < 1e-9
            assert sum(int(r[3]) for r in chunk) == 1
            assert sum(int(r[4]) for r in chunk) == 1

    def test_pooled_model_rejected(self, tmp_path, capsys):
        data = make_dataset(tmp_path / "d.3dvgd")
        model = train_model(data, tmp_path / "m.3dvgm", "--mean-pool")
        code = main([
            "attention-dump", "--model", str(model), "--data", str(data),
            "--out", str(tmp_path / "alpha.csv"),
        ])
        assert code == 1
        assert "attention" in capsys.readouterr().err


class TestStreamedCommands:
    """``eval``, ``retrieve`` and ``attention-dump`` read their file one
    planned ``infer`` block at a time."""

    CONFIG = TrainConfig(num_classes=3, input_dim=64, views=12, n_patterns=8, feature_dim=16)
    RECORD_BYTES = 4 + 12 * 64 * 4  # a label and 12 x 64 float32 features

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # 32-shape feature-layer blocks at K = 64
        monkeypatch.setattr(vgm, "INFER_BLOCK_BYTES", 8 * 64 * vgm.EVAL_CHUNK)

    def _files(self, tmp_path, count):
        """A checkpoint, and a file of ``count`` shapes on a random rig each."""
        model = tmp_path / "m.3dvgm"
        save_checkpoint(model, init_model(self.CONFIG, np.random.default_rng(0)), self.CONFIG)
        rng = np.random.default_rng(count)
        raw = rng.standard_normal((count, 12, 3))
        graphs = build_view_graph(raw / np.linalg.norm(raw, axis=2, keepdims=True), 10.0)
        data = tmp_path / f"d{count}.3dvgd"
        dataio.save(dataio.Dataset(
            [dataio.ShapeSample(i % 3, rng.standard_normal((12, 64)).astype(np.float32), g)
             for i, g in enumerate(graphs)], ["a", "b", "c"]), data)
        return model, data

    def _eval_peak(self, model, data, capsys) -> int:
        tracemalloc.start()
        try:
            assert main(["eval", "--model", str(model), "--data", str(data)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    def test_eval_memory_does_not_grow_with_the_file(self, tmp_path, capsys):
        # What eval keeps of a shape is its logits, probabilities and label,
        # 56 bytes at 3 classes, held twice while infer joins its blocks and a
        # few times more in sample_loss's temporaries: about 0.1 of the
        # 3,076-byte record. A file held whole grows the peak by its records
        # and more (graphs, samples): 1.9 times the extra records when this
        # test was written. A quarter leaves room for allocator noise and
        # still fails when any whole-file array stays alive.
        model, small = self._files(tmp_path, 150)
        _, large = self._files(tmp_path, 600)
        growth = self._eval_peak(model, large, capsys) - self._eval_peak(model, small, capsys)
        extra_records = (600 - 150) * self.RECORD_BYTES
        assert growth <= 0.25 * extra_records, f"{growth / extra_records:.2f} of the records"

    def test_eval_equals_inference_over_the_loaded_file(self, tmp_path, capsys):
        model, data = self._files(tmp_path, 100)
        params, config = load_checkpoint(model)
        samples = dataio.load(data).samples
        trace = vgm.infer(samples, params, config, "logits", "probs", "labels")
        assert main(["eval", "--model", str(model), "--data", str(data)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "num_samples": 100,
            "accuracy": vgm.count_hits(trace) / 100,
            "mean_loss": float(np.mean(vgm.sample_loss(trace, samples))),
        }

    def test_per_shape_graphs_are_built_once_per_block(self, tmp_path, capsys, monkeypatch):
        model, data = self._files(tmp_path, 100)
        rigs = []
        build = dataio.build_view_graph

        def counted(directions, sigma):
            rigs.append(len(directions))
            return build(directions, sigma)

        monkeypatch.setattr(dataio, "build_view_graph", counted)
        assert main(["eval", "--model", str(model), "--data", str(data)]) == 0
        capsys.readouterr()
        assert rigs == [32, 32, 32, 4]

    @pytest.mark.parametrize("command,output", [
        (["eval"], None),
        (["retrieve"], "--metrics-csv"),
        (["attention-dump"], "--out"),
    ])
    def test_a_bad_sample_of_a_later_block_fails_before_any_output(
            self, tmp_path, capsys, command, output):
        model, data = self._files(tmp_path, 100)
        blob = bytearray(data.read_bytes())
        struct.pack_into("<I", blob, len(blob) - (100 - 70) * self.RECORD_BYTES, 3)
        data.write_bytes(bytes(blob))
        out = tmp_path / "out"
        argv = [*command, "--model", str(model), "--data", str(data),
                "--manifest" if output is None else output, str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: sample 70: label 3 out of range [0, 3)\n"
        assert not out.exists()


class TestUsageAndErrors:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--out", "x", "--classes", "2", "--per-class", "1",
                  "--bogus"])
        assert excinfo.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--classes", "2", "--per-class", "1"])
        assert excinfo.value.code == 2

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        code = main([
            "train", "--data", str(tmp_path / "missing.3dvgd"),
            "--out", str(tmp_path / "m.3dvgm"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_corrupt_checkpoint_exits_one(self, tmp_path, capsys):
        data = make_dataset(tmp_path / "d.3dvgd")
        bogus = tmp_path / "bogus.3dvgm"
        bogus.write_bytes(b"not a checkpoint at all")
        code = main(["eval", "--model", str(bogus), "--data", str(data)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "bad magic" in err


    @pytest.mark.parametrize("command", ["synth", "train", "gradcheck"])
    def test_negative_seed_is_named(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        if command == "synth":
            argv = ["synth", "--out", str(out), "--classes", "2", "--per-class", "1"]
        elif command == "train":
            argv = ["train", "--data", str(make_dataset(tmp_path / "d.3dvgd")),
                    "--out", str(out)]
        else:
            argv = ["gradcheck"]
        assert main([*argv, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert errors == ["error: seed must be >= 0, got -1"]
        assert captured.out == "" and not out.exists()


class TestLogging:
    def test_quiet_silences_progress(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("THREEDVG_LOG", "quiet")
        make_dataset(tmp_path / "d.3dvgd")
        assert capsys.readouterr().err == ""

    def test_info_reports_progress(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("THREEDVG_LOG", "info")
        make_dataset(tmp_path / "d.3dvgd")
        err = capsys.readouterr().err
        assert "wrote" in err

    def test_unknown_level_falls_back_to_info(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("THREEDVG_LOG", "shouty")
        make_dataset(tmp_path / "d.3dvgd")
        assert "wrote" in capsys.readouterr().err
