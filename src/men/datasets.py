"""Dataset ingestion and synthetic generators.

Two input formats, told apart by the path: a CSV matrix (one sample per
row, last column an integer label) and directories or manifests of
8-bit binary graymap images (each image flattened row-major and scaled
to [0, 1]). The bundled generators produce labelled Gaussian-class
data for tests and demos; the face-like generator embeds smooth class
prototypes in a 40 x 40 pixel space with pixel-correlated noise.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from .alignment import SampleSet
from .errors import DataError

__all__ = [
    "read_pgm",
    "write_pgm",
    "ingest",
    "make_informative_classes",
    "make_face_like",
]

_INT64 = np.iinfo(np.int64)


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary graymap (P5, maxval 255) into a 2-D uint8 array."""
    path = Path(path)
    data = path.read_bytes()
    if not data.startswith(b"P5"):
        raise DataError(f"{path}: not a binary graymap (expected P5 header)")
    # header tokens: magic, width, height, maxval; '#' comments allowed
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"{path}: truncated graymap header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise DataError(f"{path}: bad graymap header") from exc
    if maxval != 255:
        raise DataError(f"{path}: only 8-bit graymaps supported (maxval {maxval})")
    if width < 1 or height < 1:
        raise DataError(f"{path}: bad graymap size {width}x{height}")
    if len(data) - pos < width * height:
        raise DataError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return pixels.reshape(height, width).copy()


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-D uint8 array as a binary graymap (P5, maxval 255)."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise DataError(f"graymap image must be 2-D, got shape {image.shape}")
    height, width = image.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.tobytes())


def _parse_label(path: Path, lineno: int, text: str) -> int:
    """The integer label on line `lineno` of `path`; it must fit in int64."""
    try:
        label = int(text)
    except ValueError:
        label = None
    if label is None or not _INT64.min <= label <= _INT64.max:
        raise DataError(f"{path}:{lineno}: bad label {text.strip()!r}")
    return label


def _ingest_csv(path: Path) -> SampleSet:
    labels: list[int] = []
    with path.open("r", encoding="utf-8") as handle:
        lines = ((lineno, raw.strip()) for lineno, raw in enumerate(handle, start=1))
        lines = ((lineno, line.split(",")) for lineno, line in lines if line)
        first = next(lines, None)
        if first is None:
            raise DataError(f"{path}: no samples")
        width = len(first[1])
        if width < 2:
            raise DataError(f"{path}:{first[0]}: need features plus a label column")

        def rows():
            for lineno, parts in itertools.chain([first], lines):
                if len(parts) != width:
                    raise DataError(
                        f"{path}:{lineno}: ragged row ({len(parts)} fields, expected {width})"
                    )
                try:
                    row = np.fromiter(map(float, parts[:-1]), np.float64, width - 1)
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: bad feature value ({exc})") from exc
                labels.append(_parse_label(path, lineno, parts[-1]))
                yield row

        # one n x p array, grown as rows arrive
        data = np.fromiter(rows(), np.dtype((np.float64, (width - 1,))))
    return SampleSet.compacted(data, labels)


def _class_dir_entries(path: Path):
    """(image path, label) per file; labels follow the sorted class subdirectories."""
    class_dirs = sorted(d for d in path.iterdir() if d.is_dir())
    if not class_dirs:
        raise DataError(f"{path}: no class subdirectories")
    for label, class_dir in enumerate(class_dirs):
        files = sorted(f for f in class_dir.iterdir() if f.is_file())
        if not files:
            raise DataError(f"{class_dir}: empty class directory")
        for f in files:
            yield f, label


def _manifest_entries(path: Path):
    """(image path, label) per line; image paths are relative to the manifest."""
    with path.open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "," not in line:
                raise DataError(f"{path}:{lineno}: expected image-path,label")
            image_path, label_text = line.rsplit(",", 1)
            label = _parse_label(path, lineno, label_text)
            yield (path.parent / image_path.strip()).resolve(), label


def _ingest_images(path: Path, entries) -> SampleSet:
    rows, labels = [], []
    shape = None
    for image_path, label in entries:
        image = read_pgm(image_path)
        if shape is not None and image.shape != shape:
            raise DataError(
                f"{image_path}: image shape {image.shape} differs from first image {shape}"
            )
        shape = image.shape
        rows.append(image.reshape(-1).astype(np.float64) / 255.0)
        labels.append(label)
    if not rows:
        raise DataError(f"{path}: no entries")
    return SampleSet.compacted(np.asarray(rows), labels)


def ingest(path) -> SampleSet:
    """Load a labelled dataset in the format its path names.

    A directory holds one subdirectory of binary graymaps per class. A
    file whose name ends in .csv (any case) is a matrix: one sample per
    row, last column an integer label. Any other file is a manifest of
    image-path,label lines. Labels are compacted to 0..c-1 in ascending
    order.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: no such file or directory")
    try:
        if path.is_dir():
            return _ingest_images(path, _class_dir_entries(path))
        if path.suffix.lower() == ".csv":
            return _ingest_csv(path)
        return _ingest_images(path, _manifest_entries(path))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc


def make_informative_classes(
    n_per_class: int,
    p: int,
    informative_dims,
    *,
    n_classes: int = 3,
    separation: float = 3.0,
    noise: float = 0.3,
    seed: int = 0,
) -> SampleSet:
    """Gaussian classes whose mean differences live only on the given dims.

    Class prototypes are `separation` times near-orthogonal sign patterns
    over the informative dimensions; isotropic noise of the given scale
    is added on every dimension.
    """
    dims = np.asarray(informative_dims, dtype=np.int64)
    if dims.size < 1 or dims.max() >= p:
        raise DataError("informative_dims must be nonempty and within range(p)")
    if n_classes - 1 > dims.size:
        raise DataError(
            f"{n_classes} classes need at least {n_classes - 1} informative dims"
        )
    rng = np.random.default_rng(seed)
    # orthonormal directions over the informative dims, every entry nonzero
    raw = np.array(
        [
            [1.0 if (k >> j) & 1 == 0 else -1.0 for k in range(dims.size)]
            for j in range(n_classes - 1)
        ]
    )
    directions, _ = np.linalg.qr(raw.T)
    directions = directions.T
    # Helmert contrasts: zero column sums (no grand-mean component) and
    # distinct column norms, so the class-center second moment has a clean,
    # nondegenerate spectrum aligned with the chosen directions
    contrasts = np.zeros((n_classes, n_classes - 1))
    for j in range(n_classes - 1):
        contrasts[: j + 1, j] = 1.0
        contrasts[j + 1, j] = -(j + 1.0)
    means = separation * contrasts @ directions
    data = rng.normal(scale=noise, size=(n_per_class * n_classes, p))
    labels = np.repeat(np.arange(n_classes), n_per_class)
    for k in range(n_classes):
        rows = np.flatnonzero(labels == k)
        data[np.ix_(rows, dims)] += means[k]
    return SampleSet(data, labels)


def _cosine_modes(side: int, count: int) -> np.ndarray:
    """First `count` smooth 2-D cosine basis images, flattened."""
    grid = (np.arange(side) + 0.5) / side
    modes = []
    freq = 0
    while len(modes) < count:
        freq += 1
        for fx in range(freq + 1):
            fy = freq - fx
            img = np.cos(np.pi * fx * grid)[:, None] * np.cos(np.pi * fy * grid)[None, :]
            modes.append(img.reshape(-1))
            if len(modes) == count:
                break
    return np.asarray(modes)


def make_face_like(
    n_per_class: int,
    *,
    n_classes: int = 5,
    side: int = 40,
    modes: int = 12,
    within_scale: float = 0.15,
    pixel_noise: float = 0.02,
    seed: int = 0,
) -> SampleSet:
    """Face-like images: smooth class prototypes plus correlated variation.

    Prototypes combine low-frequency cosine modes (a low-dimensional
    manifold in pixel space); per-sample variation reuses the same smooth
    modes and a little white pixel noise is added. Values land in [0, 1]
    and p = side * side.
    """
    rng = np.random.default_rng(seed)
    basis = _cosine_modes(side, modes)
    prototypes = rng.normal(size=(n_classes, modes)) @ basis
    rows, labels = [], []
    for k in range(n_classes):
        for _ in range(n_per_class):
            wobble = within_scale * rng.normal(size=modes) @ basis
            img = prototypes[k] + wobble + pixel_noise * rng.normal(size=side * side)
            rows.append(img)
            labels.append(k)
    data = np.asarray(rows)
    low, high = data.min(), data.max()
    data = (data - low) / (high - low)
    return SampleSet(data, np.asarray(labels))
