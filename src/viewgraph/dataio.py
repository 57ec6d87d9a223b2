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

``save`` and ``read_blocks`` (``load``) share the header's struct and the record dtype.

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
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np

from .errors import DataIOError, FormatError, ValidationError
from .geometry import DirectionError, ViewGraph, build_view_graph, default_viewpoints

DATASET_MAGIC = b"3DVG-D"
DATASET_VERSION = 1
DEFAULT_SIGMA = 10.0
# num_classes, views, feature_dim, num_samples, per-shape-rigs flag
_HEADER = struct.Struct("<IIIIB")


def _record_dtype(views: int, feature_dim: int) -> np.dtype:
    """One sample's record: its label, then its (views, feature_dim) features."""
    return np.dtype([("label", "<u4"), ("features", "<f4", (views, feature_dim))])


@dataclass(frozen=True)
class ShapeSample:
    """One labeled shape: its view features (V, D_low) float32 and its view graph."""

    label: int
    features: np.ndarray
    graph: ViewGraph


@dataclass(frozen=True)
class Dataset:
    """Shape samples with shared class names and a split tag; the samples and
    the names are stored as tuples. A Dataset checks its invariants when it is
    made, so every one in existence has passed them; a bad one raises
    FormatError or ValidationError naming the first bad sample, counted from ``first``."""

    samples: tuple
    class_names: tuple
    split: str = "train"
    first: InitVar[int] = 0

    def __post_init__(self, first):
        if isinstance(self.class_names, str):
            raise FormatError(f"class names must be a sequence of str, got {self.class_names!r}")
        object.__setattr__(self, "samples", tuple(self.samples))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if not self.samples:
            raise FormatError("dataset has no samples")
        if not self.class_names:
            raise FormatError("dataset has no classes")
        for text in [self.split, *self.class_names]:
            if not isinstance(text, str):
                raise FormatError(f"split and class names must be str, got {text!r}")
        for i, s in enumerate(self.samples, first):
            if not isinstance(s.features, np.ndarray) or s.features.ndim != 2:
                got = getattr(s.features, "shape", type(s.features).__name__)
                raise ValidationError(f"sample {i}: features must be a 2-D array, got {got}")
            if i == first:
                views, dim = s.features.shape
                if dim < 1:
                    raise FormatError("feature dimension must be >= 1")
            if s.features.shape != (views, dim):
                raise ValidationError(
                    f"sample {i}: features {s.features.shape}, expected ({views}, {dim})"
                )
            if isinstance(s.label, bool) or not isinstance(s.label, (int, np.integer)):
                raise ValidationError(f"sample {i}: label {s.label} is not an integer")
            if not 0 <= s.label < self.num_classes:
                raise ValidationError(
                    f"sample {i}: label {s.label} out of range [0, {self.num_classes})"
                )
            if not np.isfinite(s.features).all():
                raise ValidationError(f"sample {i}: non-finite feature values")
            if s.graph.num_views != views:
                raise ValidationError(f"sample {i}: graph has {s.graph.num_views} views")

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


class _Reader:
    """Front-to-back reader of an open container file; ``uint`` reads every
    little-endian count. A count is checked against the bytes left
    (``os.fstat``) before anything is read or allocated: a short file is a
    DataIOError, never a short read. Every byte read also goes into ``digest``
    (a hashlib object) when given, so after the last read it hashes the file."""

    def __init__(self, fh, digest=None):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size
        self.digest = digest

    def take(self, count: int, what: str) -> bytes:
        return self.array(np.uint8, count, what).tobytes()

    def uint(self, size: int, what: str) -> int:
        return int.from_bytes(self.take(size, what), "little")

    def string(self, what: str) -> str:
        raw = self.take(self.uint(2, f"{what} length"), what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{what} is not valid UTF-8") from exc

    def header(self, magic: bytes, versions, what: str) -> int:
        """Check the magic and return the version, which must be in ``versions``."""
        if self.take(len(magic), "magic") != magic:
            raise FormatError(f"not a {what} file (bad magic)")
        version = self.uint(4, "version")
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

    def finish(self, rest: int = 0, what: str = "") -> None:
        """Check that exactly ``rest`` bytes of ``what`` are left."""
        if rest > self.left:
            raise DataIOError(f"file truncated while reading {what}")
        if self.left > rest:
            raise FormatError(f"trailing bytes: {self.left - rest} past end of layout")


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
    a temporary file beside the target. The file is flushed and fsynced, then
    renamed over the target, and on POSIX the directory is fsynced so that the
    rename itself survives a power loss; a process killed mid-write leaves the
    previous file untouched. Each part also goes into ``digest`` (a hashlib
    object) when one is given. Raises DataIOError, naming ``what`` (say
    "dataset") in the message; if only the directory fsync fails, the target
    already holds the new bytes, which may not be durable.
    """
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            for part in parts:
                fh.write(part)
                if digest is not None:
                    digest.update(part)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise DataIOError(f"cannot write {what} {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)  # already gone after a successful rename
    if os.name != "posix":  # a directory cannot be opened for fsync
        return
    try:
        fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError as exc:
        raise DataIOError(
            f"wrote {what} {path}, but the new bytes may not be durable: {exc}") from exc


def write_csv(path, rows, what: str) -> None:
    """Write ``rows``, any iterable of rows with the header first, as UTF-8 CSV
    atomically; each row is encoded as it comes, so the bytes are held once.
    Every float gets 17 significant digits, enough to read it back exactly."""
    text = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    writer = csv.writer(text)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    write_atomic(path, [text.detach().getbuffer()], what)


def save(dataset: Dataset, path, digest=None) -> None:
    """Write the dataset container atomically; bytes are deterministic per
    content. The bytes written also go into ``digest`` when one is given.
    Features that overflow float32, and a split or class name longer than
    65,535 UTF-8 bytes, are a FormatError before anything is written."""
    rigs = np.stack([s.graph.directions for s in dataset.samples]).astype("<f8", copy=False)
    shared = bool((rigs == rigs[0]).all())
    records = np.empty(dataset.num_samples, _record_dtype(dataset.views, dataset.feature_dim))
    records["label"] = dataset.labels
    with np.errstate(over="ignore"):
        records["features"] = [s.features for s in dataset.samples]
    finite = np.isfinite(records["features"]).reshape(dataset.num_samples, -1).all(axis=1)
    if not finite.all():
        raise FormatError(f"sample {np.argmin(finite)}: features overflow float32")
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


def read_blocks(path, plan, sigma: float = DEFAULT_SIGMA, digest=None):
    """Read and validate a dataset container, building graphs at ``sigma``:
    one Dataset per slice of ``plan(num_samples)``, slices that cover the
    samples in order. The header, names, directions and the records' exact
    byte count are checked before the first block (a short file is a
    DataIOError, trailing bytes a FormatError). A shared rig's graph is built
    once, per-shape rigs in one call per block; features are read-only views
    of the block's records. A bad sample or rig is named by its index in the
    file. Every byte read goes into ``digest``, in file order, if given."""
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
        rigs = r.array("<f8", (num_samples if per_shape else 1) * views * 3, "view directions")
        rigs = rigs.reshape(-1, views, 3)
        # sized first: a subarray dtype of a corrupt size is an untyped ValueError
        r.finish(num_samples * (4 + views * feature_dim * 4), "sample records")
        record = _record_dtype(views, feature_dim)
        shared = None if per_shape else _graphs(rigs, sigma, "shared directions")
        for block in plan(num_samples):
            records = r.array(np.uint8, (block.stop - block.start) * record.itemsize,
                              "sample records")
            records.flags.writeable = False  # so no sample's view of it can be made writable
            records = records.view(record)
            graphs = shared or _graphs(rigs[block], sigma, "directions of sample {}", block.start)
            yield _assemble(records["label"], records["features"], graphs, class_names, split,
                            block.start)


def load(path, sigma: float = DEFAULT_SIGMA, digest=None) -> Dataset:
    """``read_blocks``'s one whole-file block: the validated dataset container
    at ``path``, graphs built at ``sigma``, every byte read fed to ``digest``."""
    [dataset] = read_blocks(path, lambda count: [slice(0, count)], sigma, digest)
    return dataset


def _graphs(rigs, sigma, where, first=0) -> list:
    """The graphs of ``rigs``, (M, V, 3), built at ``sigma`` in one call; a
    direction off unit norm is a ValidationError naming its rig by ``where``,
    formatted with ``first`` plus the rig's index."""
    try:
        return build_view_graph(rigs, sigma)
    except DirectionError as exc:
        raise ValidationError(f"{where.format(first + exc.rig)}: {exc}") from exc


def _assemble(labels, features, graphs, class_names, split, first=0) -> Dataset:
    """The Dataset of the samples ``labels`` and ``features``, one (M, V, D)
    float32 stack that is sealed here, in place, so that no sample's row of it
    can be made writable again, and ``graphs``, one per sample or one that all
    share; ``first`` is the index of the first sample in its file."""
    features.flags.writeable = False
    samples = [ShapeSample(label=int(label), features=feats, graph=graph) for label, feats, graph
               in zip(labels, features, graphs * (len(labels) // len(graphs)))]
    return Dataset(samples, class_names, split, first)


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
    if not 0.0 <= noise < np.inf:
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    dirs = default_viewpoints(views)
    proto_rng = np.random.default_rng([seed, 0])
    response = proto_rng.standard_normal((num_classes, feature_dim, 3))
    offsets = proto_rng.standard_normal((num_classes, feature_dim))
    noise_rng = np.random.default_rng([seed, 1, zlib.crc32(split.encode("utf-8"))])
    clean = [dirs @ r.T + mu for r, mu in zip(response, offsets)]
    labels = [label for label in range(num_classes) for _ in range(shapes_per_class)]
    features = np.empty((len(labels), views, feature_dim), np.float32)
    for i, label in enumerate(labels):
        features[i] = clean[label] + noise * noise_rng.standard_normal((views, feature_dim))
    names = [f"class_{i}" for i in range(num_classes)]
    return _assemble(labels, features, _graphs(dirs[None], sigma, "synthetic directions"),
                     names, split)


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
    if not all(isinstance(name, str) for name in manifest["class_names"]):
        raise FormatError(f"manifest class names must be str, got {manifest['class_names']!r}")
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
    features = np.empty(0, np.float32)  # no shapes: Dataset names the error
    for i, entry in enumerate(manifest["shapes"]):
        if not isinstance(entry, dict) or "features_csv" not in entry or "label" not in entry:
            raise FormatError(f"shape entry {i} needs 'features_csv' and 'label'")
        check_json_types(entry, {"features_csv": str, "label": int}, f"shape entry {i}")
        feats = load_csv(entry["features_csv"], f"features of shape {i}", feature_dim)
        if not i:  # sized once a CSV has shown that the shape is real
            features = np.empty((len(manifest["shapes"]), views, feature_dim), np.float32)
        features[i] = feats
    labels = [entry["label"] for entry in manifest["shapes"]]
    graphs = _graphs(dirs[None], sigma, "manifest directions")
    return _assemble(labels, features, graphs, manifest["class_names"], manifest["split"])
