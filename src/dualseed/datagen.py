"""Synthetic instance generators, dual-label construction, and file formats.

Generators are pure functions of (params, seed): dense uniform matrices,
block-structured matrices with group-pair base costs plus Gaussian noise,
and a sparsifier that replaces edges with a sentinel cost while protecting
a hidden perfect matching so every instance stays feasible.

Labels come from the exact solver. Row potentials are centered inside their
feasible intervals (so seeding with them leaves slack against rounding) and
gauge-fixed to mean-zero u. Binary formats round-trip bit-exactly; a CSV
import path accepts externally produced matrices.
"""

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    DualseedError,
    InfeasibleMask,
    MalformedCsv,
    NonFinite,
    NonSquare,
    TruncatedFile,
    VersionMismatch,
)
from ._rng import STREAM_BLOCK, STREAM_DENSE, STREAM_SPARSIFY, substream
from .lap_core import CostMatrix, center_duals, reduced_costs, solve_cold
from .warmstart import extract_features

MATRIX_MAGIC = b"LAPM"
DATASET_MAGIC = b"LAPD"
FORMAT_VERSION = 1
FLAG_HAS_SENTINEL = 0x01

GENERATORS = ("dense", "block")
DEFAULT_LEVELS = (1.0, 2.0, 4.0, 8.0, 16.0)
DEFAULT_LEVEL_PROBS = (0.45, 0.25, 0.15, 0.10, 0.05)


@dataclass
class BlockParams:
    """Settings for block-structured instances.

    Rows and columns fall into `num_groups` contiguous groups; each group
    pair gets a base cost drawn from a skewed discrete distribution, with
    the same-group pair restricted to the two cheapest levels so that
    within-group assignments are favored. Entry-level Gaussian noise is
    clamped at zero.
    """

    n: int
    num_groups: int | None = None
    levels: tuple = DEFAULT_LEVELS
    level_probs: tuple = DEFAULT_LEVEL_PROBS
    noise_sigma: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.num_groups is None:
            self.num_groups = max(1, self.n // 10)
        if self.num_groups < 1:
            raise ValueError("num_groups must be >= 1")
        if len(self.levels) != len(self.level_probs) or len(self.levels) < 2:
            raise ValueError("levels and level_probs must align, with >= 2 levels")
        if abs(sum(self.level_probs) - 1.0) > 1e-9:
            raise ValueError("level_probs must sum to 1")
        if self.noise_sigma is None:
            self.noise_sigma = 0.05 * (max(self.levels) - min(self.levels))
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


def gen_dense(n: int, seed: int, stream_index: int = 0) -> CostMatrix:
    """n x n matrix of i.i.d. uniform(0,1) costs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = substream(seed, STREAM_DENSE, stream_index)
    return CostMatrix.from_array(rng.random((n, n)))


def gen_block(params: BlockParams, stream_index: int = 0) -> CostMatrix:
    """Block-structured matrix: group-pair base costs plus clamped noise."""
    n = params.n
    levels = np.asarray(params.levels, dtype=np.float64)
    probs = np.asarray(params.level_probs, dtype=np.float64)
    cheap = np.argsort(levels, kind="stable")[:2]
    cheap_probs = probs[cheap] / probs[cheap].sum()

    rng = substream(params.seed, STREAM_BLOCK, stream_index)
    num_groups = params.num_groups
    block = -(-n // num_groups)  # ceil
    group = np.arange(n) // block

    base = rng.choice(levels, size=(num_groups, num_groups), p=probs)
    np.fill_diagonal(base, rng.choice(levels[cheap], size=num_groups, p=cheap_probs))
    values = base[np.ix_(group, group)].astype(np.float64)
    if params.noise_sigma > 0:
        values = values + rng.normal(0.0, params.noise_sigma, (n, n))
        values = np.maximum(values, 0.0)
    return CostMatrix.from_array(values)


def generate(generator: str, n: int, seed: int, stream_index: int = 0,
             block_groups: int | None = None, block_noise: float | None = None) -> CostMatrix:
    """One instance of a named family in GENERATORS; the block settings
    (BlockParams defaults when None) apply to "block" only."""
    if generator == "dense":
        return gen_dense(n, seed, stream_index)
    if generator == "block":
        params = BlockParams(n=n, num_groups=block_groups, noise_sigma=block_noise, seed=seed)
        return gen_block(params, stream_index)
    raise ValueError(f"unknown generator {generator!r} (choose from {GENERATORS})")


def default_sentinel(values: np.ndarray) -> float:
    """Cost large enough that no optimal assignment touches a masked edge."""
    spread = float(values.max() - values.min())
    return float(values.max() + values.shape[0] * max(spread, 1.0))


def sparsify(c: CostMatrix, mask_fraction: float, seed: int, stream_index: int = 0) -> CostMatrix:
    """Replace a random fraction of edges with the sentinel cost.

    A hidden random perfect matching is protected from masking, so each row
    and column keeps at least one real edge and the instance stays feasible.
    """
    if not 0.0 <= mask_fraction <= 0.9:
        raise ValueError("mask_fraction must be in [0, 0.9]")
    n = c.n
    mask_count = int(round(mask_fraction * n * n))
    if mask_count == 0:
        return CostMatrix(c.values.copy(), c.sentinel)
    if mask_count > n * n - n:
        raise InfeasibleMask(
            f"cannot mask {mask_count} of {n * n} edges while protecting a perfect matching"
        )
    rng = substream(seed, STREAM_SPARSIFY, stream_index)
    protected_cols = rng.permutation(n)
    flat = np.arange(n * n)
    candidates = flat[flat % n != protected_cols[flat // n]]
    chosen = rng.choice(candidates.shape[0], size=mask_count, replace=False)
    sentinel = c.sentinel if c.sentinel is not None else default_sentinel(c.values)
    values = c.values.copy()
    values.flat[candidates[chosen]] = sentinel
    return CostMatrix(values, sentinel)


@dataclass
class LabeledInstance:
    """A cost matrix with optimal dual labels and the optimal edge set."""

    c: CostMatrix
    features: np.ndarray  # extract_features(c); no columns when n == 1
    u_star: np.ndarray
    v_star: np.ndarray
    optimal_edges: np.ndarray  # (n, 2) int64 rows (i, sigma*(i))


def gen_labels(c: CostMatrix, center: bool = True, center_sweeps: int = 3) -> LabeledInstance:
    """Solve exactly and package gauge-fixed dual labels with features.

    With center=True the row potentials are moved to the midpoints of their
    feasible intervals before gauge fixing; centered labels make far better
    warm-start targets than the solver's boundary duals, and more sweeps
    push them deeper into the interior. The gauge shift u <- u - mean(u),
    v <- v + mean(u) leaves all reduced costs unchanged.
    """
    assignment, duals, _ = solve_cold(c)
    if center:
        duals = center_duals(c, assignment, duals, sweeps=center_sweeps)
    shift = duals.u.mean()
    u_star = duals.u - shift
    v_star = duals.v + shift
    edges = np.stack([np.arange(c.n, dtype=np.int64), assignment.row_to_col.astype(np.int64)], axis=1)

    r = reduced_costs(c.values, u_star, v_star)
    if r.min() < -1e-9 or np.abs(r[edges[:, 0], edges[:, 1]]).max() > 1e-9:
        raise DualseedError("label generation produced infeasible or slack duals")
    return LabeledInstance(c, _features(c), u_star, v_star, edges)


def _features(c: CostMatrix) -> np.ndarray:
    """extract_features, or no columns for a 1 x 1 instance."""
    return extract_features(c) if c.n >= 2 else np.zeros((c.n, 0))


def transpose_instance(inst: LabeledInstance) -> LabeledInstance:
    """The same labeled problem viewed from the column side.

    Transposing the cost matrix swaps the two sides of the matching: the
    optimal column potentials become optimal row potentials of the transpose
    (re-centered to the zero-mean gauge), the assignment inverts, and every
    reduced cost transposes with it. This doubles a training corpus without
    generating or solving any new instance.
    """
    n = inst.c.n
    c_t = CostMatrix(np.ascontiguousarray(inst.c.values.T), inst.c.sentinel)
    inverse = np.empty(n, dtype=np.int64)
    inverse[inst.optimal_edges[:, 1]] = inst.optimal_edges[:, 0]
    edges = np.stack([np.arange(n, dtype=np.int64), inverse], axis=1)
    shift = inst.v_star.mean()
    return LabeledInstance(
        c=c_t,
        features=extract_features(c_t),
        u_star=inst.v_star - shift,
        v_star=inst.u_star + shift,
        optimal_edges=edges,
    )


def _pack_matrix(c: CostMatrix) -> bytes:
    flags = FLAG_HAS_SENTINEL if c.sentinel is not None else 0
    sentinel = c.sentinel if c.sentinel is not None else 0.0
    head = MATRIX_MAGIC + struct.pack("<BIBd", FORMAT_VERSION, c.n, flags, sentinel)
    return head + np.ascontiguousarray(c.values, dtype="<f8").tobytes()


def _unpack_matrix(data: bytes, offset: int, source: str) -> tuple[CostMatrix, int]:
    head_len = 4 + struct.calcsize("<BIBd")
    if len(data) < offset + head_len:
        raise TruncatedFile(f"{source}: header cut short")
    if data[offset : offset + 4] != MATRIX_MAGIC:
        raise BadMagic(f"{source}: expected {MATRIX_MAGIC!r}")
    version, n, flags, sentinel = struct.unpack_from("<BIBd", data, offset + 4)
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"{source}: matrix format version {version}")
    offset += head_len
    nbytes = n * n * 8
    if len(data) < offset + nbytes:
        raise TruncatedFile(f"{source}: matrix payload cut short")
    values = np.frombuffer(data, dtype="<f8", count=n * n, offset=offset).astype(np.float64)
    sentinel = float(sentinel) if flags & FLAG_HAS_SENTINEL else None
    try:
        c = CostMatrix.from_array(values.reshape(n, n), sentinel)
    except (NonSquare, NonFinite) as exc:
        raise type(exc)(f"{source}: {exc}") from None
    return c, offset + nbytes


def write_matrix(path: str, c: CostMatrix):
    with open(path, "wb") as fh:
        fh.write(_pack_matrix(c))


def read_matrix(path: str) -> CostMatrix:
    with open(path, "rb") as fh:
        data = fh.read()
    c, offset = _unpack_matrix(data, 0, str(path))
    if offset != len(data):
        raise TruncatedFile(f"{path}: trailing bytes after matrix payload")
    return c


def write_dataset(path: str, dataset: list, aux: dict | None = None):
    """Labeled corpus: count header, (matrix, u*, v*, assignment) records,
    then named auxiliary float arrays (fitted weights, median vectors, ...)."""
    aux = aux or {}
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC + struct.pack("<BI", FORMAT_VERSION, len(dataset)))
        for inst in dataset:
            fh.write(_pack_matrix(inst.c))
            fh.write(np.ascontiguousarray(inst.u_star, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(inst.v_star, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(inst.optimal_edges[:, 1], dtype="<u4").tobytes())
        fh.write(struct.pack("<I", len(aux)))
        for name, arr in aux.items():
            blob = name.encode("utf-8")
            arr = np.asarray(arr, dtype=np.float64)
            fh.write(struct.pack("<H", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_dataset(path: str, return_aux: bool = False):
    """Read a labeled corpus, recomputing features deterministically."""
    with open(path, "rb") as fh:
        data = fh.read()
    head_len = 4 + struct.calcsize("<BI")
    if len(data) < head_len:
        raise TruncatedFile(f"{path}: dataset header cut short")
    if data[:4] != DATASET_MAGIC:
        raise BadMagic(f"{path}: expected {DATASET_MAGIC!r}")
    version, count = struct.unpack_from("<BI", data, 4)
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"{path}: dataset format version {version}")
    offset = head_len
    out = []
    for k in range(count):
        c, offset = _unpack_matrix(data, offset, f"{path}[{k}]")
        n = c.n
        need = n * 8 * 2 + n * 4
        if len(data) < offset + need:
            raise TruncatedFile(f"{path}[{k}]: label payload cut short")
        u_star = np.frombuffer(data, dtype="<f8", count=n, offset=offset).astype(np.float64)
        offset += n * 8
        v_star = np.frombuffer(data, dtype="<f8", count=n, offset=offset).astype(np.float64)
        offset += n * 8
        cols = np.frombuffer(data, dtype="<u4", count=n, offset=offset).astype(np.int64)
        offset += n * 4
        edges = np.stack([np.arange(n, dtype=np.int64), cols], axis=1)
        out.append(LabeledInstance(c, _features(c), u_star, v_star, edges))

    aux = {}
    if len(data) >= offset + 4:
        (aux_count,) = struct.unpack_from("<I", data, offset)
        offset += 4
        for _ in range(aux_count):
            if len(data) < offset + 2:
                raise TruncatedFile(f"{path}: auxiliary record name cut short")
            (name_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            if len(data) < offset + name_len + 4:
                raise TruncatedFile(f"{path}: auxiliary record header cut short")
            name = data[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (ndim,) = struct.unpack_from("<I", data, offset)
            offset += 4
            if len(data) < offset + 4 * ndim:
                raise TruncatedFile(f"{path}: auxiliary record shape cut short")
            shape = struct.unpack_from(f"<{ndim}I", data, offset) if ndim else ()
            offset += 4 * ndim
            total = int(np.prod(shape)) if shape else 1
            if len(data) < offset + total * 8:
                raise TruncatedFile(f"{path}: auxiliary record payload cut short")
            arr = np.frombuffer(data, dtype="<f8", count=total, offset=offset)
            aux[name] = arr.astype(np.float64).reshape(shape)
            offset += total * 8
    if offset != len(data):
        raise TruncatedFile(f"{path}: trailing bytes after final record")
    return (out, aux) if return_aux else out


def read_csv(path: str) -> CostMatrix:
    """Import a comma-separated matrix: decimal floats, no header row.

    A cell that is not a number, or a row whose length differs from the
    first row's, raises MalformedCsv.
    """
    rows = []
    with open(path, newline="") as fh:
        for lineno, line in enumerate(csv.reader(fh), 1):
            if not line:
                continue
            try:
                rows.append([float(cell) for cell in line])
            except ValueError as exc:
                raise MalformedCsv(f"{path}: line {lineno}: {exc}") from None
            if len(line) != len(rows[0]):
                raise MalformedCsv(f"{path}: line {lineno} has {len(line)} cells, not {len(rows[0])}")
    if not rows:
        raise TruncatedFile(f"{path}: no rows")
    values = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(values).all():
        raise NonFinite(f"{path}: CSV contains NaN or infinity")
    return CostMatrix.from_array(values)
