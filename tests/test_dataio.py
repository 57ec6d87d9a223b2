"""Dataset container round trips, validation, and the synthetic generator."""

import argparse
import dataclasses
import errno
import hashlib
import json
import os
import re
import stat
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
)
from viewgraph.errors import DataIOError, FormatError, ValidationError
from viewgraph.geometry import ViewGraph, build_view_graph, default_viewpoints
from viewgraph.model import TrainConfig, init_model, load_checkpoint, save_checkpoint
from viewgraph.numeric import row_blocks


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
        return Dataset([dataclasses.replace(s, features=rng.standard_normal(s.features.shape))
                        for s in ds.samples], ds.class_names, ds.split)

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

    # A power loss cannot be simulated here, so these tests check the order
    # of the calls that make a write durable, and what a failed fsync leaves.
    @staticmethod
    def _record_syncs(monkeypatch, fail=None):
        """Log each fsync (of a file or a directory) and replace, in order;
        the fsync named by ``fail`` raises EIO instead."""
        calls = []
        fsync, replace = os.fsync, os.replace

        def logged_fsync(fd):
            kind = "directory fsync" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file fsync"
            calls.append(kind)
            if kind == fail:
                raise OSError(errno.EIO, "Input/output error")
            fsync(fd)

        def logged_replace(src, dst):
            calls.append("replace")
            replace(src, dst)

        monkeypatch.setattr(vgd.os, "fsync", logged_fsync)
        monkeypatch.setattr(vgd.os, "replace", logged_replace)
        return calls

    @pytest.mark.parametrize(
        "writer",
        [_save_dataset, _save_checkpoint, _write_metrics_csv, _write_per_query_csv,
         _write_pr_csv, _write_manifest],
    )
    def test_file_is_synced_before_the_rename_and_the_directory_after(
        self, tmp_path, monkeypatch, writer
    ):
        calls = self._record_syncs(monkeypatch)
        writer(1, tmp_path / "out.bin")
        assert calls == ["file fsync", "replace", "directory fsync"]

    def test_failed_file_sync_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.bin"
        _save_dataset(1, path)
        before = path.read_bytes()
        calls = self._record_syncs(monkeypatch, fail="file fsync")
        with pytest.raises(DataIOError, match="^cannot write dataset .*Input/output error"):
            _save_dataset(2, path)
        assert calls == ["file fsync"]
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_failed_directory_sync_says_the_new_bytes_may_not_be_durable(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "out.bin"
        _save_dataset(1, path)
        before = path.read_bytes()
        calls = self._record_syncs(monkeypatch, fail="directory fsync")
        with pytest.raises(DataIOError, match="^wrote dataset .*may not be durable"):
            _save_dataset(2, path)
        assert calls == ["file fsync", "replace", "directory fsync"]
        assert path.read_bytes() != before
        assert os.listdir(tmp_path) == ["out.bin"]


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
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            generate_synthetic(2, 5, 6, 4, 0.1, -1)
        for noise in (np.nan, np.inf, -0.1):
            with pytest.raises(ValueError, match=f"noise must be finite and >= 0, got {noise}"):
                generate_synthetic(2, 5, 6, 4, noise, 0)

    def test_output_is_validated_like_a_loaded_dataset(self):
        # a finite noise whose features overflow float32 in the cast
        with np.errstate(over="ignore"), pytest.raises(
                ValidationError, match="sample 0: non-finite feature values"):
            generate_synthetic(2, 2, 4, 3, 1e300, 0)


def assert_features_read_only(ds):
    """Every sample's features refuse an in-place write, and refuse to be made
    writable again, with numpy's errors."""
    for sample in ds.samples:
        with pytest.raises(ValueError, match="read-only"):
            sample.features[0, 0] = np.nan
        with pytest.raises(ValueError, match="WRITEABLE"):
            sample.features.flags.writeable = True


class TestValidation:
    """A Dataset checks its content when it is made, whether loaded or built."""

    @staticmethod
    def _samples(index, **changes):
        """The 4 samples of a 2-class set, sample ``index`` with ``changes``."""
        samples = list(generate_synthetic(2, 2, 4, 3, 0.1, 0).samples)
        samples[index] = dataclasses.replace(samples[index], **changes)
        return samples

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError, match="sample 1"):
            Dataset(self._samples(1, label=7), ["a", "b"])

    @pytest.mark.parametrize("label", [0.5, 1.0, True])
    def test_label_that_is_not_an_integer(self, label):
        with pytest.raises(ValidationError,
                           match=f"^sample 1: label {label} is not an integer$"):
            Dataset(self._samples(1, label=label), ["a", "b"])

    def test_numpy_integer_label_is_accepted(self):
        ds = Dataset(self._samples(1, label=np.int64(1)), ["a", "b"])
        assert ds.labels.tolist() == [0, 1, 1, 1]

    def test_non_finite_features(self):
        feats = np.zeros((4, 3), np.float32)
        feats[0, 0] = np.nan
        with pytest.raises(ValidationError, match="sample 2"):
            Dataset(self._samples(2, features=feats), ["a", "b"])

    def test_inconsistent_shapes(self):
        short = np.zeros((4, 2), np.float32)
        with pytest.raises(ValidationError):
            Dataset(self._samples(3, features=short), ["a", "b"])

    def test_empty_rejected(self):
        with pytest.raises(FormatError):
            Dataset(samples=[], class_names=["a"], split="x")

    def test_graph_of_another_view_count(self):
        other = build_view_graph(default_viewpoints(5), 10.0)
        with pytest.raises(ValidationError, match="sample 3: graph has 5 views"):
            Dataset(self._samples(3, graph=other), ["a", "b"])

    def test_no_class_names(self):
        with pytest.raises(FormatError, match="dataset has no classes"):
            Dataset(self._samples(0), [])

    def test_zero_feature_dimension(self):
        graph = build_view_graph(default_viewpoints(4), 10.0)
        with pytest.raises(FormatError, match="feature dimension must be >= 1"):
            Dataset([ShapeSample(0, np.zeros((4, 0), np.float32), graph)], ["a"])

    @pytest.mark.parametrize("field", ["samples", "class_names", "split"])
    def test_dataset_cannot_be_changed(self, field):
        ds = generate_synthetic(2, 2, 4, 3, 0.1, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ds, field, getattr(ds, field))
        assert isinstance(ds.samples, tuple) and isinstance(ds.class_names, tuple)

    def test_sample_label_cannot_be_changed(self):
        ds = generate_synthetic(2, 2, 4, 3, 0.1, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.samples[1].label = 7

    def test_class_names_that_are_one_str_are_rejected(self):
        with pytest.raises(FormatError, match="^class names must be a sequence of str, got 'ab'$"):
            Dataset(self._samples(0), "ab")
        for names in (["a", "b"], ("a", "b")):
            assert Dataset(self._samples(0), names).class_names == ("a", "b")

    @pytest.mark.parametrize("source", ["synthetic", "load"])
    def test_library_made_features_are_read_only(self, tmp_path, source):
        ds = generate_synthetic(2, 2, 4, 3, 0.1, 0)
        if source == "load":
            save(ds, tmp_path / "d.3dvgd")
            ds = load(tmp_path / "d.3dvgd")
            with pytest.raises(ValueError, match="WRITEABLE"):  # its records are read-only
                ds.samples[0].features.flags.writeable = True
        assert_features_read_only(ds)

    def test_hand_built_samples_keep_the_callers_arrays(self):
        samples = self._samples(0)
        feats = np.zeros((4, 3), np.float32)
        samples[1] = dataclasses.replace(samples[1], features=feats)
        assert Dataset(samples, ["a", "b"]).samples[1].features is feats
        assert feats.flags.writeable

    def test_hand_built_samples_keep_the_callers_read_only_arrays(self):
        samples = self._samples(0)
        feats = np.zeros((4, 3), np.float32)
        feats.flags.writeable = False
        samples[1] = dataclasses.replace(samples[1], features=feats)
        assert Dataset(samples, ["a", "b"]).samples[1].features is feats
        feats.flags.writeable = True  # the caller's own array: still theirs to unseal

    def test_synthetic_features_are_rows_of_one_float32_stack(self):
        ds = generate_synthetic(2, 3, 4, 3, 0.1, 0)
        stack = ds.samples[0].features.base
        assert stack.shape == (6, 4, 3) and stack.dtype == np.float32
        assert all(s.features.base is stack for s in ds.samples)
        np.testing.assert_array_equal(ds.samples[5].features, stack[5])


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

    @pytest.mark.parametrize("sigma", [-1.0, np.nan])
    def test_bad_sigma_is_the_graph_builds_value_error(self, tmp_path, sigma):
        path, _ = self._valid_bytes(tmp_path)
        with pytest.raises(ValueError, match="^sigma must be finite and >= 0") as excinfo:
            load(path, sigma=sigma)
        assert not isinstance(excinfo.value, ValidationError)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataIOError):
            load(tmp_path / "nope.3dvgd")

    def test_magic_constant(self):
        assert DATASET_MAGIC == b"3DVG-D"


def rig_dataset(count, views=5, dim=3, classes=3, seed=0, per_shape=True):
    """``count`` shapes, each on its own random rig or all on one shared rig."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count if per_shape else 1, views, 3))
    graphs = build_view_graph(raw / np.linalg.norm(raw, axis=2, keepdims=True), 10.0)
    graphs *= count // len(graphs)
    return Dataset([ShapeSample(i % classes, rng.standard_normal((views, dim)).astype(np.float32),
                                graph) for i, graph in enumerate(graphs)],
                   [f"class_{i}" for i in range(classes)])


def blocks_of_four(count):
    """10 shapes run as 4 + 4 + 2, the last block short."""
    return row_blocks(count, 4)


class TestBlockReader:
    """``read_blocks`` yields a file's planned blocks; ``load`` is its one
    whole-file block."""

    @staticmethod
    def _file(tmp_path, per_shape=True, name="d.3dvgd"):
        path = tmp_path / name
        save(rig_dataset(10, per_shape=per_shape), path)
        return path

    @staticmethod
    def _patched(path, sample, fmt, value, offset=0, count=10, record=4 + 5 * 3 * 4):
        """Write ``value`` into sample ``sample``'s record, ``offset`` bytes in."""
        data = bytearray(path.read_bytes())
        struct.pack_into(fmt, data, len(data) - (count - sample) * record + offset, value)
        path.write_bytes(bytes(data))
        return path

    @pytest.mark.parametrize("per_shape", [True, False], ids=["per-shape", "shared"])
    def test_load_is_the_blocks_joined(self, tmp_path, per_shape):
        path = self._file(tmp_path, per_shape)
        whole = load(path, sigma=3.0)
        blocks = list(vgd.read_blocks(path, blocks_of_four, sigma=3.0))
        assert [b.num_samples for b in blocks] == [4, 4, 2]
        joined = [s for b in blocks for s in b.samples]
        for block in blocks:
            assert (block.class_names, block.split) == (whole.class_names, whole.split)
            assert_features_read_only(block)
        assert [s.label for s in joined] == [s.label for s in whole.samples]
        assert all(s.features.dtype == np.float32 for s in joined)
        assert (b"".join(s.features.tobytes() for s in joined)
                == b"".join(s.features.tobytes() for s in whole.samples))
        for got, want in zip(joined, whole.samples):
            assert got.graph.sigma == want.graph.sigma == 3.0
            assert got.graph.directions.tobytes() == want.graph.directions.tobytes()
            assert got.graph.similarity.tobytes() == want.graph.similarity.tobytes()
        assert len({id(s.graph) for s in joined}) == (10 if per_shape else 1)

    @pytest.mark.parametrize("fmt,value,offset,error,message", [
        ("<f", np.nan, 4 + 7 * 4, ValidationError, "sample 5: non-finite feature values"),
        ("<I", 3, 0, ValidationError, "sample 5: label 3 out of range [0, 3)"),
    ], ids=["nan-feature", "label-out-of-range"])
    def test_bad_sample_of_a_later_block_is_named_by_its_index_in_the_file(
            self, tmp_path, fmt, value, offset, error, message):
        path = self._patched(self._file(tmp_path), 5, fmt, value, offset)
        with pytest.raises(error, match=re.escape(message)) as loaded:
            load(path)
        blocks = vgd.read_blocks(path, blocks_of_four)
        assert next(blocks).num_samples == 4
        with pytest.raises(type(loaded.value)) as streamed:
            next(blocks)
        assert str(streamed.value) == str(loaded.value) == message

    def test_bad_rig_of_a_later_block_is_named_by_its_index_in_the_file(self, tmp_path):
        path = self._file(tmp_path)
        data = bytearray(path.read_bytes())
        rigs = len(data) - 10 * (4 + 5 * 3 * 4) - 10 * 5 * 3 * 8
        struct.pack_into("<d", data, rigs + (6 * 5 + 2) * 3 * 8, 9.0)  # sample 6, direction 2
        path.write_bytes(bytes(data))
        message = "directions of sample 6: direction 2 is not unit norm"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load(path)
        blocks = vgd.read_blocks(path, blocks_of_four)
        next(blocks)
        with pytest.raises(ValidationError, match=re.escape(message)):
            next(blocks)

    @pytest.mark.parametrize("cut,error,message", [
        (-7, DataIOError, "file truncated while reading sample records"),
        (None, FormatError, "trailing bytes: 1 past end of layout"),
    ], ids=["cut-in-the-records", "one-trailing-byte"])
    def test_a_file_of_the_wrong_length_fails_before_the_first_block(
            self, tmp_path, cut, error, message):
        path = self._file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:cut] if cut else data + b"\0")
        with pytest.raises(error, match=re.escape(message)) as loaded:
            load(path)
        planned = []
        with pytest.raises(error) as streamed:
            next(vgd.read_blocks(path, lambda count: planned.append(count) or [slice(0, count)]))
        assert str(streamed.value) == str(loaded.value)
        assert planned == []

    @pytest.mark.parametrize("per_shape", [True, False], ids=["per-shape", "shared"])
    def test_digest_after_the_last_block_is_the_file_hash(self, tmp_path, per_shape):
        path = self._file(tmp_path, per_shape)
        digest = hashlib.sha256()
        for _ in vgd.read_blocks(path, blocks_of_four, digest=digest):
            pass
        assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("per_shape,builds", [(True, [4, 4, 2]), (False, [1])],
                             ids=["per-shape", "shared"])
    def test_graphs_are_built_once_per_file_or_once_per_block(
            self, tmp_path, monkeypatch, per_shape, builds):
        path = self._file(tmp_path, per_shape)
        rigs = []
        build = vgd.build_view_graph

        def counted(directions, sigma):
            rigs.append(len(directions))
            return build(directions, sigma)

        monkeypatch.setattr(vgd, "build_view_graph", counted)
        assert sum(b.num_samples for b in vgd.read_blocks(path, blocks_of_four)) == 10
        assert rigs == builds
        rigs.clear()
        load(path)
        assert rigs == [10 if per_shape else 1]

    def test_the_file_is_closed_on_every_exit_path(self, tmp_path, monkeypatch):
        path = self._file(tmp_path)
        bad = self._patched(self._file(tmp_path, name="bad.3dvgd"), 5, "<I", 3)
        opened = []

        def watched(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(vgd, "open", watched, raising=False)
        list(vgd.read_blocks(path, blocks_of_four))  # read to the end
        blocks = vgd.read_blocks(path, blocks_of_four)
        next(blocks)
        blocks.close()  # abandoned after the first block
        with pytest.raises(ValidationError):  # a bad sample in the second block
            list(vgd.read_blocks(bad, blocks_of_four))
        assert len(opened) == 3 and all(fh.closed for fh in opened)


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
        assert ds.class_names == ("first", "second")
        assert ds.samples[0].graph.sigma == 4.0
        raw = np.loadtxt(tmp_path / "s1.csv", delimiter=",")
        np.testing.assert_array_equal(
            ds.samples[1].features, raw.astype(np.float32)
        )

    def test_imported_features_are_read_only(self, tmp_path):
        assert_features_read_only(import_csv(self._write_manifest(tmp_path)))

    def test_inline_directions(self, tmp_path):
        dirs = default_viewpoints(4).tolist()
        mpath = self._write_manifest(tmp_path, directions=dirs)
        assert import_csv(mpath).num_samples == 3

    def test_bad_sigma_is_the_graph_builds_value_error(self, tmp_path):
        mpath = self._write_manifest(tmp_path)
        with pytest.raises(ValueError, match="^sigma must be finite and >= 0") as excinfo:
            import_csv(mpath, sigma=-1)
        assert not isinstance(excinfo.value, ValidationError)

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
        "class names not strings": lambda m: m.update(class_names=[1, None]),
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
        ("class names not strings", FormatError,
         r"manifest class names must be str, got \[1, None\]"),
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
            ds = dataclasses.replace(ds, split=text)
        else:
            ds = dataclasses.replace(ds, class_names=(ds.class_names[0], text))
        with pytest.raises(FormatError, match="string field longer than 65535 bytes"):
            save(ds, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["d.3dvgd"]

    @pytest.mark.parametrize("field", ["split", "class name"])
    def test_name_that_is_not_a_str_leaves_the_target(self, tmp_path, field):
        path = tmp_path / "d.3dvgd"
        ds = generate_synthetic(2, 2, 4, 3, 0.1, 0)
        save(ds, path)
        before = path.read_bytes()
        names = dict(split=None) if field == "split" else dict(class_names=[1, 2])
        with pytest.raises(FormatError, match="split and class names must be str, got "):
            save(dataclasses.replace(ds, **names), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["d.3dvgd"]

    def test_features_that_overflow_float32_leave_the_target(self, tmp_path):
        # finite as float64, so the Dataset holds them; +inf as float32
        path = tmp_path / "d.3dvgd"
        ds = generate_synthetic(2, 2, 4, 3, 0.1, 0)
        save(ds, path)
        before = path.read_bytes()
        samples = list(ds.samples)
        samples[2] = dataclasses.replace(samples[2], features=np.full((4, 3), 1e39))
        with pytest.raises(FormatError, match="^sample 2: features overflow float32$"):
            save(Dataset(samples, ds.class_names), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["d.3dvgd"]

    def test_string_of_65535_bytes_round_trips(self, tmp_path):
        ds = generate_synthetic(2, 2, 4, 3, 0.1, 0, split="\u00e9" * 32767 + "x")
        save(ds, tmp_path / "d.3dvgd")
        assert load(tmp_path / "d.3dvgd").split == ds.split
