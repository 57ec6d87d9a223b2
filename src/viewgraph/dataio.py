"""Dataset container for per-shape view features, plus a synthetic generator.

Binary layout (little-endian throughout), container tag ``3DVG-D``::

    magic   6 bytes  b"3DVG-D"
    version u32      currently 1
    header  u32 x4   num_classes, views, feature_dim, num_samples
            u8       per_shape_dirs (0 = one shared camera rig, 1 = per shape)
    split   u16 length + UTF-8 bytes
    names   num_classes x (u16 length + UTF-8 bytes)
    dirs    float64 x views x 3          (x num_samples when per_shape_dirs)
    shapes  num_samples x (u32 label + float32 x views x feature_dim)

``save`` and ``load`` share the header's ``struct.Struct`` and the record dtype.

Features are stored as 32-bit floats (the precision upstream CNN features
come in) and kept as float32 in memory, so a save/load round trip is
bit-identical. View directions are stored as float64: they are tiny next to
the features and exact storage keeps reloaded unit vectors exactly unit.

The loader never trusts the header: every count is checked against the
bytes left in the file before anything is read or allocated, so corrupt or
truncated files fail with a typed error instead of an allocation blow-up.
The checkpoint container (``model.load_checkpoint``) is read by the same
``_Reader``.
"""

import contextlib
import csv
import io
import json
import os
import struct
import uuid
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataIOError, FormatError, ValidationError
from .geometry import ViewGraph, build_view_graph, default_viewpoints

DATASET_MAGIC = b"3DVG-D"
DATASET_VERSION = 1
DEFAULT_SIGMA = 10.0
# num_classes, views, feature_dim, num_samples, per-shape-rigs flag
_HEADER = struct.Struct("<IIIIB")


def _record_dtype(views: int, feature_dim: int) -> np.dtype:
    """One sample's record: its label, then its (views, feature_dim) features."""
    return np.dtype([("label", "<u4"), ("features", "<f4", (views, feature_dim))])


@dataclass
class ShapeSample:
    """One labeled shape: its view features (V, D_low) float32 and its view graph."""

    label: int
    features: np.ndarray
    graph: ViewGraph


@dataclass
class Dataset:
    """A list of shape samples with shared class names and a split tag."""

    samples: list
    class_names: list
    split: str = "train"

    @property
    def num_samples(self) -> int:
        return len(self.samples)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def views(self) -> int:
        return self.samples[0].features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.samples[0].features.shape[1]

    @property
    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.int64)


def validate_dataset(dataset: Dataset) -> None:
    """Check the cross-sample invariants; raises FormatError/ValidationError."""
    if dataset.num_samples == 0:
        raise FormatError("dataset has no samples")
    if dataset.num_classes == 0:
        raise FormatError("dataset has no classes")
    views, dim = dataset.samples[0].features.shape
    if dim < 1:
        raise FormatError("feature dimension must be >= 1")
    for i, s in enumerate(dataset.samples):
        if s.features.shape != (views, dim):
            raise ValidationError(
                f"sample {i}: features {s.features.shape}, expected ({views}, {dim})"
            )
        if not 0 <= s.label < dataset.num_classes:
            raise ValidationError(
                f"sample {i}: label {s.label} out of range [0, {dataset.num_classes})"
            )
        if not np.isfinite(s.features).all():
            raise ValidationError(f"sample {i}: non-finite feature values")
        if s.graph.num_views != views:
            raise ValidationError(f"sample {i}: graph has {s.graph.num_views} views")


class _Reader:
    """Front-to-back reader of an open container file. Each count is checked
    against the bytes left (``os.fstat``) before anything is read or
    allocated: a short file is a DataIOError, never a short read. Every byte
    read also goes into ``digest`` (a hashlib object) when one is given, so
    after ``finish`` it holds the hash of the whole file as read."""

    def __init__(self, fh, digest=None):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size
        self.digest = digest

    def take(self, count: int, what: str) -> bytes:
        return self.array(np.uint8, count, what).tobytes()

    def u32(self, what: str) -> int:
        return int.from_bytes(self.take(4, what), "little")

    def u16(self, what: str) -> int:
        return int.from_bytes(self.take(2, what), "little")

    def string(self, what: str) -> str:
        raw = self.take(self.u16(f"{what} length"), what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{what} is not valid UTF-8") from exc

    def header(self, magic: bytes, versions, what: str) -> int:
        """Check the magic and return the version, which must be in ``versions``."""
        if self.take(len(magic), "magic") != magic:
            raise FormatError(f"not a {what} file (bad magic)")
        version = self.u32("version")
        if version not in versions:
            raise FormatError(f"unsupported {what} version {version}")
        return version

    def array(self, dtype, count: int, what: str) -> np.ndarray:
        """The next ``count`` values, read straight into a new 1-D array."""
        nbytes = count * np.dtype(dtype).itemsize
        if count < 0 or nbytes > self.left:
            raise DataIOError(f"file truncated while reading {what}")
        self.left -= nbytes
        out = np.empty(count, dtype)
        if self.fh.readinto(out) != nbytes:
            raise DataIOError(f"file truncated while reading {what}")
        if self.digest is not None:
            self.digest.update(out)
        return out

    def finish(self) -> None:
        if self.left:
            raise FormatError(f"trailing bytes: {self.left} past end of layout")


@contextlib.contextmanager
def read_container(path, what: str, digest=None):
    """A _Reader over ``path`` that feeds ``digest``; an OSError while reading
    is a DataIOError naming ``what`` and the path."""
    try:
        with open(path, "rb") as fh:
            yield _Reader(fh, digest)
    except OSError as exc:
        raise DataIOError(f"cannot read {what} {path}: {exc}") from exc


def write_atomic(path, parts, what: str, digest=None) -> None:
    """Replace ``path`` with the bytes-like ``parts``, written in order, so that
    readers see the old or the new bytes.

    Each part (bytes, or an array through the buffer protocol) is one write to
    a temporary file beside the target, which is then renamed over it; a
    process killed mid-write leaves the previous file untouched. Each part
    also goes into ``digest`` (a hashlib object) when one is given.
    Raises DataIOError, naming ``what`` (say "dataset") in the message.
    """
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            for part in parts:
                fh.write(part)
                if digest is not None:
                    digest.update(part)
        os.replace(tmp, path)
    except OSError as exc:
        raise DataIOError(f"cannot write {what} {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)  # already gone after a successful rename


def write_csv(path, rows, what: str) -> None:
    """Render ``rows`` (header first) as CSV text and write it atomically."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    write_atomic(path, [text.getvalue().encode()], what)


def save(dataset: Dataset, path, digest=None) -> None:
    """Write the dataset container atomically; bytes are deterministic per
    content. The bytes written also go into ``digest`` when one is given."""
    validate_dataset(dataset)
    rigs = np.stack([s.graph.directions for s in dataset.samples]).astype("<f8", copy=False)
    shared = bool((rigs == rigs[0]).all())
    records = np.empty(dataset.num_samples, _record_dtype(dataset.views, dataset.feature_dim))
    records["label"] = dataset.labels
    records["features"] = [s.features for s in dataset.samples]
    parts = [DATASET_MAGIC, struct.pack("<I", DATASET_VERSION), _HEADER.pack(
        dataset.num_classes, dataset.views, dataset.feature_dim, dataset.num_samples,
        0 if shared else 1)]
    for text in [dataset.split, *dataset.class_names]:
        raw = text.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise FormatError("string field longer than 65535 bytes")
        parts += [struct.pack("<H", len(raw)), raw]
    parts += [rigs[:1] if shared else rigs, records]
    write_atomic(path, parts, "dataset", digest)


def load(path, sigma: float = DEFAULT_SIGMA, digest=None) -> Dataset:
    """Read and validate a dataset container, building graphs at ``sigma``.

    The directions and the sample records are each read straight into one
    array; a sample's features are a view of the records. The graphs of all
    rigs are built in one call. Every byte read goes into ``digest`` when
    one is given.
    """
    with read_container(path, "dataset", digest) as r:
        r.header(DATASET_MAGIC, (DATASET_VERSION,), "dataset")
        num_classes, views, feature_dim, num_samples, per_shape = _HEADER.unpack(
            r.take(_HEADER.size, "header"))
        if per_shape not in (0, 1):
            raise FormatError(f"per-shape-dirs flag must be 0 or 1, got {per_shape}")
        if num_classes < 1 or views < 1 or feature_dim < 1 or num_samples < 1:
            raise FormatError("header counts must all be >= 1")
        split = r.string("split tag")
        class_names = [r.string(f"class name {i}") for i in range(num_classes)]
        rigs = num_samples if per_shape else 1
        dirs = r.array("<f8", rigs * views * 3, "view directions")
        # claimed as bytes first: a subarray dtype of a corrupt size raises
        # an untyped ValueError
        records = r.array(np.uint8, num_samples * (4 + views * feature_dim * 4),
                          "sample records")
        r.finish()
    records = records.view(_record_dtype(views, feature_dim))

    try:
        graphs = build_view_graph(dirs.reshape(rigs, views, 3), sigma)
    except ValueError as exc:
        rig = getattr(exc, "rig", 0)  # a bad sigma is the first rig's error
        what = f"directions of sample {rig}" if per_shape else "shared directions"
        raise ValidationError(f"{what}: {exc}") from exc
    graphs *= num_samples // rigs  # one graph per rig, shared by its samples
    samples = [
        ShapeSample(label=int(label), features=feats, graph=graph)
        for label, feats, graph in zip(records["label"], records["features"], graphs)
    ]
    dataset = Dataset(samples=samples, class_names=class_names, split=split)
    validate_dataset(dataset)
    return dataset


def generate_synthetic(
    num_classes: int,
    shapes_per_class: int,
    views: int,
    feature_dim: int,
    noise: float,
    seed: int,
    split: str = "train",
    sigma: float = DEFAULT_SIGMA,
) -> Dataset:
    """Direction-dependent synthetic view features with class structure.

    Each class gets a prototype response matrix A (D_low, 3) and offset mu
    (D_low,); shape features are ``A @ dir_j + mu`` plus isotropic Gaussian
    noise, so viewpoints genuinely matter and classes are exactly separable
    at noise 0. Prototypes depend only on the seed, while the noise stream
    also depends on the split tag: generating "train" and "test" with the
    same seed yields the same task with independent noise draws.
    """
    if num_classes < 1 or shapes_per_class < 1 or feature_dim < 1:
        raise ValueError("counts must all be >= 1")
    if views < 2:
        raise ValueError("need at least 2 views")
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    dirs = default_viewpoints(views)
    graph = build_view_graph(dirs, sigma)
    proto_rng = np.random.default_rng([seed, 0])
    response = proto_rng.standard_normal((num_classes, feature_dim, 3))
    offsets = proto_rng.standard_normal((num_classes, feature_dim))
    noise_rng = np.random.default_rng([seed, 1, zlib.crc32(split.encode("utf-8"))])
    samples = []
    for label in range(num_classes):
        clean = dirs @ response[label].T + offsets[label]
        for _ in range(shapes_per_class):
            feats = clean + noise * noise_rng.standard_normal((views, feature_dim))
            samples.append(
                ShapeSample(label=label, features=feats.astype(np.float32), graph=graph)
            )
    names = [f"class_{i}" for i in range(num_classes)]
    return Dataset(samples=samples, class_names=names, split=split)


# JSON types a value may have, by the Python type it stands for.
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), list: (list,)}


def check_json_types(values: dict, types: dict, what: str) -> None:
    """FormatError unless each of ``values`` named in ``types`` (name -> type)
    has a JSON type that stands for that type; other names are not checked."""
    for name, value in values.items():
        ftype = types.get(name)
        # bool is a subclass of int, so it is told apart explicitly
        if ftype is not None and (isinstance(value, bool) != (ftype is bool)
                                  or not isinstance(value, _JSON_TYPES[ftype])):
            raise FormatError(f"{what} field {name} must be {ftype.__name__}, got {value!r}")


_MANIFEST_TYPES = {"split": str, "class_names": list, "views": int, "feature_dim": int,
                   "directions": list, "directions_csv": str, "shapes": list}


def import_csv(manifest_path, sigma: float = DEFAULT_SIGMA) -> Dataset:
    """Plain-text ingestion: a JSON manifest plus one feature CSV per shape.

    Manifest fields: ``split``, ``class_names``, ``views``, ``feature_dim``,
    ``directions`` (inline list of [x, y, z]) or ``directions_csv`` (path),
    and ``shapes``, a list of ``{"features_csv": path, "label": int}``.
    Relative paths resolve against the manifest's directory; each CSV holds
    views rows of feature_dim comma-separated values. A value whose JSON type
    is not the one ``_MANIFEST_TYPES`` names is a FormatError.
    """
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text("utf-8"))
    except OSError as exc:
        raise DataIOError(f"cannot read manifest {manifest_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"manifest is not valid JSON: {exc}") from exc
    required = {"split", "class_names", "views", "feature_dim", "shapes"}
    missing = required - set(manifest)
    if missing:
        raise FormatError(f"manifest missing fields: {sorted(missing)}")
    check_json_types(manifest, _MANIFEST_TYPES, "manifest")
    views, feature_dim = manifest["views"], manifest["feature_dim"]
    base = manifest_path.parent

    def load_csv(rel, what: str, columns: int) -> np.ndarray:
        csv_path = base / rel
        try:
            arr = np.loadtxt(csv_path, delimiter=",", dtype=np.float64, ndmin=2)
        except OSError as exc:
            raise DataIOError(f"cannot read {what} {csv_path}: {exc}") from exc
        except ValueError as exc:
            raise FormatError(f"{what} {csv_path} is not numeric CSV: {exc}") from exc
        if arr.shape != (views, columns):
            raise ValidationError(
                f"{what} {csv_path}: shape {arr.shape}, expected ({views}, {columns})"
            )
        return arr

    if "directions" in manifest:
        try:
            dirs = np.asarray(manifest["directions"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"manifest directions are not a numeric array: {exc}") from exc
        if dirs.shape != (views, 3):
            raise ValidationError(
                f"manifest directions: shape {dirs.shape}, expected ({views}, 3)"
            )
    elif "directions_csv" in manifest:
        dirs = load_csv(manifest["directions_csv"], "directions CSV", 3)
    else:
        raise FormatError("manifest needs 'directions' or 'directions_csv'")
    try:
        graph = build_view_graph(dirs, sigma)
    except ValueError as exc:
        raise ValidationError(f"manifest directions: {exc}") from exc

    samples = []
    for i, entry in enumerate(manifest["shapes"]):
        if not isinstance(entry, dict) or "features_csv" not in entry or "label" not in entry:
            raise FormatError(f"shape entry {i} needs 'features_csv' and 'label'")
        check_json_types(entry, {"features_csv": str, "label": int}, f"shape entry {i}")
        feats = load_csv(entry["features_csv"], f"features of shape {i}", feature_dim)
        samples.append(
            ShapeSample(label=entry["label"], features=feats.astype(np.float32), graph=graph)
        )
    dataset = Dataset(
        samples=samples,
        class_names=[str(n) for n in manifest["class_names"]],
        split=manifest["split"],
    )
    validate_dataset(dataset)
    return dataset
