"""Dataset container round trips, validation, and the synthetic generator."""

import argparse
import errno
import hashlib
import json
import os
import re
import struct

import numpy as np
import pytest

import viewgraph.dataio as vgd
from viewgraph import cli, evalmetrics
from viewgraph.dataio import (
    DATASET_MAGIC,
    Dataset,
    ShapeSample,
    generate_synthetic,
    import_csv,
    load,
    save,
    validate_dataset,
)
from viewgraph.errors import DataIOError, FormatError, ValidationError
from viewgraph.geometry import ViewGraph, build_view_graph, default_viewpoints
from viewgraph.model import TrainConfig, init_model, load_checkpoint, save_checkpoint


class TestRoundTrip:
    def test_save_load_save_is_bit_identical(self, tmp_path):
        ds = generate_synthetic(3, 4, 6, 5, 0.2, 1)
        a, b = tmp_path / "a.3dvgd", tmp_path / "b.3dvgd"
        save(ds, a)
        save(load(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_contents_survive(self, tmp_path):
        ds = generate_synthetic(3, 4, 6, 5, 0.2, 1, split="test")
        path = tmp_path / "d.3dvgd"
        save(ds, path)
        back = load(path)
        assert back.split == "test"
        assert back.class_names == ds.class_names
        assert back.num_samples == ds.num_samples
        for orig, copy in zip(ds.samples, back.samples):
            assert orig.label == copy.label
            assert copy.features.dtype == np.float32
            np.testing.assert_array_equal(orig.features, copy.features)
            np.testing.assert_array_equal(
                orig.graph.directions, copy.graph.directions
            )

    def test_shared_rig_is_shared_after_load(self, tmp_path):
        ds = generate_synthetic(2, 3, 4, 3, 0.1, 0)
        path = tmp_path / "d.3dvgd"
        save(ds, path)
        back = load(path)
        graphs = {id(s.graph) for s in back.samples}
        assert len(graphs) == 1

    def test_per_shape_rigs_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        samples = []
        for i in range(4):
            raw = rng.standard_normal((5, 3))
            dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            samples.append(
                ShapeSample(
                    label=i % 2,
                    features=rng.standard_normal((5, 3)).astype(np.float32),
                    graph=build_view_graph(dirs, 10.0),
                )
            )
        ds = Dataset(samples=samples, class_names=["a", "b"], split="train")
        path = tmp_path / "d.3dvgd"
        save(ds, path)
        back = load(path)
        assert len({id(s.graph) for s in back.samples}) == 4
        for orig, copy in zip(ds.samples, back.samples):
            np.testing.assert_allclose(
                orig.graph.directions, copy.graph.directions, atol=1e-15
            )

    def test_load_honors_sigma(self, tmp_path):
        ds = generate_synthetic(2, 2, 4, 3, 0.1, 0)
        path = tmp_path / "d.3dvgd"
        save(ds, path)
        assert load(path, sigma=3.5).samples[0].graph.sigma == 3.5


class _HalfWriteThenFail:
    """File stand-in that passes its first ``whole`` writes through, then
    writes half the bytes of the next one and fails like a full disk."""

    def __init__(self, fh, whole=0):
        self.fh = fh
        self.whole = whole

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if self.whole:
            self.whole -= 1
            return self.fh.write(data)
        raw = memoryview(data).cast("B")
        self.fh.write(raw[: len(raw) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


class _FailingRead:
    """A file opened for reading whose reads then fail with EIO."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def fileno(self):
        return self.fh.fileno()

    def read(self, *args):
        raise OSError(errno.EIO, "Input/output error")

    readinto = read


def _save_dataset(seed, path):
    save(generate_synthetic(2, 2, 3, 4, 0.1, seed), path)


def _save_checkpoint(seed, path):
    cfg = TrainConfig(num_classes=2, input_dim=4, views=3, n_patterns=3, feature_dim=5)
    save_checkpoint(path, init_model(cfg, np.random.default_rng(seed)), cfg)


def _retrieval_report(seed):
    rng = np.random.default_rng(seed)
    run = evalmetrics.RetrievalRun.self_retrieval(
        rng.standard_normal((6, 3)), [0, 0, 0, 1, 1, 1]
    )
    return evalmetrics.shrec_metrics(run)


def _write_metrics_csv(seed, path):
    evalmetrics.write_metrics_csv(path, _retrieval_report(seed))


def _write_per_query_csv(seed, path):
    evalmetrics.write_per_query_csv(path, _retrieval_report(seed))


def _write_pr_csv(seed, path):
    evalmetrics.write_pr_csv(path, np.linspace(0.0, 1.0, 5), np.full(5, 1.0 / seed))


def _write_manifest(seed, path):
    args = argparse.Namespace(manifest=path, command="synth", started=0.0)
    cli._write_manifest(args, None, {}, [f"out{seed}"])


class TestPinnedBytes:
    """SHA-256 of ``save``'s output for three sets, so that a rewrite of the
    writer keeps every byte of the container."""

    @staticmethod
    def rotated_rigs():
        # one rig per shape, each turned about z by elementwise products, so
        # the directions' bytes do not depend on a BLAS kernel
        rng = np.random.default_rng(5)
        x, y, z = default_viewpoints(6).T
        samples = []
        for i in range(4):
            c, s = np.cos(0.3 * (i + 1)), np.sin(0.3 * (i + 1))
            dirs = np.stack([c * x - s * y, s * x + c * y, z], axis=1)
            feats = rng.standard_normal((6, 5)).astype(np.float32)
            samples.append(ShapeSample(i % 2, feats, build_view_graph(dirs, 10.0)))
        return Dataset(samples, ["a", "b"], "rotated")

    @staticmethod
    def float64_features():
        ds = generate_synthetic(3, 2, 8, 4, 0.5, 3, split="test")
        rng = np.random.default_rng(9)
        for s in ds.samples:
            s.features = rng.standard_normal(s.features.shape)
        return ds

    @pytest.mark.parametrize("case,expected", [
        ("shared rig", "4482f0c3b64b8e5c143b246cf809b806660f7d6de42fb75c9e96129c780494dd"),
        ("rotated rigs", "d302358e02549540d3a131494aac900f5b3c8b02ea4b7850a9d9850c5fbedb73"),
        ("float64 features",
         "932798b6b827f0010dac630fd7293dc0c7c06443a779763967556256271d051e"),
    ])
    def test_save_bytes_are_pinned(self, tmp_path, case, expected):
        if case == "shared rig":
            ds = generate_synthetic(3, 4, 12, 5, 0.2, 1)
        elif case == "rotated rigs":
            ds = self.rotated_rigs()
        else:
            ds = self.float64_features()
        save(ds, tmp_path / "d.3dvgd")
        assert hashlib.sha256((tmp_path / "d.3dvgd").read_bytes()).hexdigest() == expected


class TestAtomicWrite:
    @staticmethod
    def _fail_and_check(tmp_path, monkeypatch, writer, whole):
        path = tmp_path / "out.bin"
        writer(1, path)
        before = path.read_bytes()
        monkeypatch.setattr(
            vgd, "open", lambda *a, **k: _HalfWriteThenFail(open(*a, **k), whole),
            raising=False,
        )
        with pytest.raises(DataIOError):
            writer(2, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    @pytest.mark.parametrize(
        "writer",
        [_save_dataset, _save_checkpoint, _write_metrics_csv, _write_per_query_csv,
         _write_pr_csv, _write_manifest],
    )
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, writer):
        self._fail_and_check(tmp_path, monkeypatch, writer, 0)

    @pytest.mark.parametrize("writer", [_save_dataset, _save_checkpoint])
    def test_failed_later_write_keeps_previous_file(self, tmp_path, monkeypatch, writer):
        # the containers are written part by part: the fault comes on the
        # fourth write, after the header and some blocks are in the temp file
        self._fail_and_check(tmp_path, monkeypatch, writer, 3)


class TestFailedRead:
    @pytest.mark.parametrize("writer,loader", [(_save_dataset, load),
                                               (_save_checkpoint, load_checkpoint)])
    def test_read_error_is_a_data_io_error_naming_the_path(
        self, tmp_path, monkeypatch, writer, loader
    ):
        path = tmp_path / "in.bin"
        writer(1, path)
        monkeypatch.setattr(
            vgd, "open", lambda *a, **k: _FailingRead(open(*a, **k)), raising=False
        )
        with pytest.raises(DataIOError, match=re.escape(str(path))):
            loader(path)


class TestGenerator:
    def test_deterministic(self):
        a = generate_synthetic(3, 5, 6, 4, 0.3, 9)
        b = generate_synthetic(3, 5, 6, 4, 0.3, 9)
        for x, y in zip(a.samples, b.samples):
            np.testing.assert_array_equal(x.features, y.features)

    def test_splits_share_prototypes_but_not_noise(self):
        # at zero noise the splits coincide; with noise they must differ
        clean_train = generate_synthetic(3, 2, 6, 4, 0.0, 9, split="train")
        clean_test = generate_synthetic(3, 2, 6, 4, 0.0, 9, split="test")
        for x, y in zip(clean_train.samples, clean_test.samples):
            np.testing.assert_array_equal(x.features, y.features)
        noisy_train = generate_synthetic(3, 2, 6, 4, 0.2, 9, split="train")
        noisy_test = generate_synthetic(3, 2, 6, 4, 0.2, 9, split="test")
        assert not np.array_equal(
            noisy_train.samples[0].features, noisy_test.samples[0].features
        )

    def test_zero_noise_collapses_classes_to_prototypes(self):
        ds = generate_synthetic(2, 4, 5, 3, 0.0, 3)
        by_label = {}
        for s in ds.samples:
            by_label.setdefault(s.label, []).append(s.features)
        for feats in by_label.values():
            for f in feats[1:]:
                np.testing.assert_array_equal(f, feats[0])
        assert not np.array_equal(by_label[0][0], by_label[1][0])

    def test_features_depend_on_view_direction(self):
        ds = generate_synthetic(2, 1, 6, 4, 0.0, 3)
        feats = ds.samples[0].features
        assert not np.array_equal(feats[0], feats[1])

    def test_grouped_by_class(self):
        ds = generate_synthetic(3, 4, 5, 3, 0.1, 0)
        assert list(ds.labels) == sorted(ds.labels)
        assert ds.num_samples == 12 and ds.num_classes == 3

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 5, 6, 4, 0.1, 0)
        with pytest.raises(ValueError):
            generate_synthetic(2, 5, 1, 4, 0.1, 0)
        with pytest.raises(ValueError):
            generate_synthetic(2, 5, 6, 4, -0.1, 0)


class TestValidation:
    def _dataset(self):
        return generate_synthetic(2, 2, 4, 3, 0.1, 0)

    def test_label_out_of_range(self):
        ds = self._dataset()
        ds.samples[1].label = 7
        with pytest.raises(ValidationError, match="sample 1"):
            validate_dataset(ds)

    def test_non_finite_features(self):
        ds = self._dataset()
        feats = ds.samples[2].features.copy()
        feats[0, 0] = np.nan
        ds.samples[2] = ShapeSample(0, feats, ds.samples[2].graph)
        with pytest.raises(ValidationError, match="sample 2"):
            validate_dataset(ds)

    def test_inconsistent_shapes(self):
        ds = self._dataset()
        short = ds.samples[0].features[:, :2]
        ds.samples[3] = ShapeSample(0, short, ds.samples[3].graph)
        with pytest.raises(ValidationError):
            validate_dataset(ds)

    def test_empty_rejected(self):
        with pytest.raises(FormatError):
            validate_dataset(Dataset(samples=[], class_names=["a"], split="x"))

    def test_graph_of_another_view_count(self):
        ds = self._dataset()
        other = build_view_graph(default_viewpoints(5), 10.0)
        ds.samples[3] = ShapeSample(0, ds.samples[3].features, other)
        with pytest.raises(ValidationError, match="sample 3: graph has 5 views"):
            validate_dataset(ds)

    def test_no_class_names(self):
        ds = self._dataset()
        ds.class_names = []
        with pytest.raises(FormatError, match="dataset has no classes"):
            validate_dataset(ds)


class TestLoaderErrors:
    def _valid_bytes(self, tmp_path):
        path = tmp_path / "d.3dvgd"
        save(generate_synthetic(2, 2, 4, 3, 0.1, 0), path)
        return path, bytearray(path.read_bytes())

    def test_bad_magic(self, tmp_path):
        path, data = self._valid_bytes(tmp_path)
        data[:6] = b"WRONG!"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            load(path)

    def test_bad_version(self, tmp_path):
        path, data = self._valid_bytes(tmp_path)
        struct.pack_into("<I", data, 6, 9)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            load(path)

    def test_every_truncation_point_is_typed(self, tmp_path):
        path, data = self._valid_bytes(tmp_path)
        for cut in reversed(range(len(data))):
            os.truncate(path, cut)
            with pytest.raises(DataIOError):
                load(path)

    def test_trailing_garbage(self, tmp_path):
        path, data = self._valid_bytes(tmp_path)
        path.write_bytes(bytes(data) + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load(path)

    def test_zero_counts_rejected(self, tmp_path):
        path, data = self._valid_bytes(tmp_path)
        struct.pack_into("<I", data, 10, 0)  # class count
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load(path)

    def test_label_out_of_range_rejected(self, tmp_path):
        path, data = self._valid_bytes(tmp_path)
        # first sample's label sits right after the shared directions block
        ds = load(path)
        offset = len(data) - 4 * (4 + 4 * 3 * 4)
        struct.pack_into("<I", data, offset, 99)
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match="label"):
            load(path)

    def test_non_unit_direction_rejected(self, tmp_path):
        path, data = self._valid_bytes(tmp_path)
        header_end = 6 + 4 + 17 + (2 + 5) + (2 + 7) + (2 + 7)
        struct.pack_into("<d", data, header_end, 9.0)
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError):
            load(path)

    def _per_shape_file(self, tmp_path, bad):
        """A five-sample file with one rig per sample; ``bad`` maps
        (sample, direction) to the vector written in its place."""
        rigs = np.random.default_rng(3).standard_normal((5, 6, 3))
        rigs /= np.linalg.norm(rigs, axis=2, keepdims=True)
        for (k, j), vector in bad.items():
            rigs[k, j] = vector
        samples = [ShapeSample(label=k % 2, features=np.zeros((6, 2), np.float32),
                               graph=ViewGraph(rig, np.eye(6), 10.0))
                   for k, rig in enumerate(rigs)]
        path = tmp_path / "per-shape.3dvgd"
        save(Dataset(samples, ["a", "b"]), path)
        return path

    def test_per_shape_off_unit_direction_names_sample_and_direction(self, tmp_path):
        path = self._per_shape_file(tmp_path, {(3, 2): [0.0, 1.5, 0.0]})
        with pytest.raises(ValidationError, match=re.escape(
                "directions of sample 3: direction 2 is not unit norm (|v| = 1.5)")):
            load(path)

    def test_per_shape_nan_direction_names_sample_and_direction(self, tmp_path):
        path = self._per_shape_file(tmp_path, {(2, 1): [0.0, 0.0, 1.2],
                                               (2, 4): [np.nan, 0.0, 1.0]})
        with pytest.raises(ValidationError, match=re.escape(
                "directions of sample 2: direction 4 is not unit norm (|v| = nan)")):
            load(path)

    def test_per_shape_first_bad_sample_in_file_order_is_named(self, tmp_path):
        path = self._per_shape_file(tmp_path, {(1, 5): [1.1, 0.0, 0.0],
                                               (4, 0): [9.0, 0.0, 0.0]})
        with pytest.raises(ValidationError, match=re.escape(
                "directions of sample 1: direction 5 is not unit norm (|v| = 1.1)")):
            load(path)

    def test_shared_rig_error_names_the_shared_directions(self, tmp_path):
        path, data = self._valid_bytes(tmp_path)
        header_end = 6 + 4 + 17 + (2 + 5) + (2 + 7) + (2 + 7)
        struct.pack_into("<d", data, header_end + 24, 9.0)
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match=r"^shared directions: direction 1 is not"):
            load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataIOError):
            load(tmp_path / "nope.3dvgd")

    def test_magic_constant(self):
        assert DATASET_MAGIC == b"3DVG-D"


class TestCsvImport:
    def _write_manifest(self, tmp_path, **overrides):
        rng = np.random.default_rng(0)
        dirs = default_viewpoints(4)
        np.savetxt(tmp_path / "dirs.csv", dirs, delimiter=",")
        shapes = []
        for i in range(3):
            feats = rng.standard_normal((4, 5))
            np.savetxt(tmp_path / f"s{i}.csv", feats, delimiter=",")
            shapes.append({"features_csv": f"s{i}.csv", "label": i % 2})
        manifest = {
            "split": "train",
            "class_names": ["first", "second"],
            "views": 4,
            "feature_dim": 5,
            "directions_csv": "dirs.csv",
            "shapes": shapes,
        }
        manifest.update(overrides)
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        return mpath

    def test_import_round_trip(self, tmp_path):
        mpath = self._write_manifest(tmp_path)
        ds = import_csv(mpath, sigma=4.0)
        assert ds.num_samples == 3
        assert ds.views == 4 and ds.feature_dim == 5
        assert ds.class_names == ["first", "second"]
        assert ds.samples[0].graph.sigma == 4.0
        raw = np.loadtxt(tmp_path / "s1.csv", delimiter=",")
        np.testing.assert_array_equal(
            ds.samples[1].features, raw.astype(np.float32)
        )

    def test_inline_directions(self, tmp_path):
        dirs = default_viewpoints(4).tolist()
        mpath = self._write_manifest(tmp_path, directions=dirs)
        assert import_csv(mpath).num_samples == 3

    def test_missing_fields(self, tmp_path):
        mpath = self._write_manifest(tmp_path)
        blob = json.loads(mpath.read_text())
        del blob["views"]
        mpath.write_text(json.dumps(blob))
        with pytest.raises(FormatError, match="views"):
            import_csv(mpath)

    def test_wrong_feature_shape(self, tmp_path):
        mpath = self._write_manifest(tmp_path, feature_dim=9)
        with pytest.raises(ValidationError):
            import_csv(mpath)

    def test_non_numeric_csv(self, tmp_path):
        mpath = self._write_manifest(tmp_path)
        (tmp_path / "s1.csv").write_text("a,b,c,d,e\n" * 4)
        with pytest.raises(FormatError):
            import_csv(mpath)

    def test_missing_csv_file(self, tmp_path):
        mpath = self._write_manifest(tmp_path)
        (tmp_path / "s2.csv").unlink()
        with pytest.raises(DataIOError):
            import_csv(mpath)

    def test_bad_json(self, tmp_path):
        mpath = tmp_path / "m.json"
        mpath.write_text("{not json")
        with pytest.raises(FormatError):
            import_csv(mpath)

    # manifest values of the wrong JSON type, by case: each edits the manifest
    MISTYPED = {
        "views a string": lambda m: m.update(views="four"),
        "views null": lambda m: m.update(views=None),
        "views true": lambda m: m.update(views=True),
        "label a string": lambda m: m["shapes"][0].update(label="x"),
        "label a float": lambda m: m["shapes"][0].update(label=1.5),
        "label true": lambda m: m["shapes"][0].update(label=True),
        "ragged inline directions": lambda m: m.update(directions=[[1.0, 0.0, 0.0], [0.0, 1.0]]),
        "entry not an object": lambda m: m.update(shapes=[3]),
        "shapes not a list": lambda m: m.update(shapes=5),
        "split a number": lambda m: m.update(split=7),
        "class names a string": lambda m: m.update(class_names="ab"),
    }

    @pytest.mark.parametrize("case,error,message", [
        ("absent manifest", DataIOError, "cannot read manifest"),
        ("manifest is a directory", DataIOError, "cannot read manifest"),
        ("directions of the wrong shape", ValidationError,
         r"manifest directions: shape \(3, 3\), expected \(4, 3\)"),
        ("non-unit directions", ValidationError,
         r"manifest directions: direction 2 is not unit norm \(\|v\| = 2\)"),
        ("no directions", FormatError, "manifest needs 'directions' or 'directions_csv'"),
        ("entry without features_csv", FormatError,
         "shape entry 1 needs 'features_csv' and 'label'"),
        ("entry without label", FormatError, "shape entry 2 needs 'features_csv' and 'label'"),
        ("views a string", FormatError, "manifest field views must be int, got 'four'"),
        ("views null", FormatError, "manifest field views must be int, got None"),
        ("views true", FormatError, "manifest field views must be int, got True"),
        ("label a string", FormatError, "shape entry 0 field label must be int, got 'x'"),
        ("label a float", FormatError, "shape entry 0 field label must be int, got 1.5"),
        ("label true", FormatError, "shape entry 0 field label must be int, got True"),
        ("ragged inline directions", FormatError,
         "manifest directions are not a numeric array"),
        ("entry not an object", FormatError, "shape entry 0 needs 'features_csv' and 'label'"),
        ("shapes not a list", FormatError, "manifest field shapes must be list, got 5"),
        ("split a number", FormatError, "manifest field split must be str, got 7"),
        ("class names a string", FormatError,
         "manifest field class_names must be list, got 'ab'"),
    ])
    def test_rejects_bad_manifest(self, tmp_path, case, error, message):
        mpath = self._write_manifest(tmp_path)
        blob = json.loads(mpath.read_text())
        dirs = default_viewpoints(4)
        if case == "absent manifest":
            mpath = tmp_path / "absent.json"
        elif case == "manifest is a directory":
            mpath = tmp_path / "dir.json"
            mpath.mkdir()
        elif case == "directions of the wrong shape":
            blob["directions"] = dirs[:3].tolist()
        elif case == "non-unit directions":
            dirs[2] *= 2.0
            blob["directions"] = dirs.tolist()
        elif case == "no directions":
            del blob["directions_csv"]
        elif case == "entry without features_csv":
            del blob["shapes"][1]["features_csv"]
        elif case == "entry without label":
            del blob["shapes"][2]["label"]
        else:
            self.MISTYPED[case](blob)
        if mpath.is_file():
            mpath.write_text(json.dumps(blob))
        with pytest.raises(error, match=message):
            import_csv(mpath)


class TestSaveErrors:
    @pytest.mark.parametrize("field", ["split", "class name"])
    @pytest.mark.parametrize("text", ["x" * 65536, "\u00e9" * 32768])
    def test_string_over_65535_bytes_leaves_the_target(self, tmp_path, field, text):
        # 65,536 ASCII characters, and 32,768 two-byte ones: the limit is on
        # the UTF-8 bytes, not the characters
        path = tmp_path / "d.3dvgd"
        ds = generate_synthetic(2, 2, 4, 3, 0.1, 0)
        save(ds, path)
        before = path.read_bytes()
        if field == "split":
            ds.split = text
        else:
            ds.class_names[1] = text
        with pytest.raises(FormatError, match="string field longer than 65535 bytes"):
            save(ds, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["d.3dvgd"]

    def test_string_of_65535_bytes_round_trips(self, tmp_path):
        ds = generate_synthetic(2, 2, 4, 3, 0.1, 0, split="\u00e9" * 32767 + "x")
        save(ds, tmp_path / "d.3dvgd")
        assert load(tmp_path / "d.3dvgd").split == ds.split
