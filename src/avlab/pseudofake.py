"""Temporally-local sequence manipulations.

A manipulation rewrites one contiguous chunk ``[i, i+l-1]`` of a
sequence and leaves everything outside untouched.  Four families are
supported, all expressed as exact index transforms on the temporal
axis so they apply identically to video frames and waveform samples:

    replace    chunk taken from the same window of a donor sequence
    repeat     every run of ``p`` positions holds the run's first frame
    flip       every block of ``f`` positions is reversed in place
    translate  chunk content shifted left/right by ``v`` with edge clamp

Indices are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import ChunkRejected, ConfigError, DonorError
from .schema import decode

KINDS = ("replace", "repeat", "flip", "translate")
DIRECTIONS = ("left", "right")

# "r_min approximately zero": the lower ratio is kept strictly positive
# and the hard floor of 2 frames takes over at practical lengths.
R_MIN_TINY = 1e-6
HARD_MIN = 2  # the shortest chunk: every manipulation needs l >= 2


@dataclass(frozen=True)
class ChunkParams:
    """Bounds for the chunk-length law ``l ~ U[max(HARD_MIN, floor(r_min*T)), floor(r_max*T)]``."""

    r_min: float = R_MIN_TINY
    r_max: float = 1.0

    def validate(self) -> None:
        if not (0.0 < self.r_min <= 1.0) or not (0.0 < self.r_max <= 1.0):
            raise ConfigError(f"chunk ratios must lie in (0, 1], got {self}")
        if self.r_min > self.r_max:
            raise ConfigError(f"r_min must not exceed r_max, got {self}")


@dataclass
class ManipulationSpec:
    """Fully determined description of one temporal manipulation.

    ``param`` is the repetition period ``p``, flip block size ``f`` or
    translation step ``v`` depending on ``kind``; it is unused for
    ``replace``.  ``direction`` applies to ``translate`` only and
    ``donor_id`` to ``replace`` only.
    """

    kind: str
    i: int
    l: int
    param: int | None = None
    direction: str | None = None
    donor_id: str | None = None

    def validate(self, T: int | None = None) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown manipulation kind {self.kind!r}")
        if self.l < 2 or self.i < 0:
            raise ConfigError(f"need i >= 0 and l >= 2, got i={self.i}, l={self.l}")
        if T is not None and self.i + self.l > T:
            raise ConfigError(f"chunk [{self.i}, {self.i + self.l}) exceeds length {T}")
        if self.kind == "replace":
            if self.param is not None:
                raise ConfigError("replace takes no param")
        else:
            if self.param is None or not (2 <= self.param <= self.l):
                raise ConfigError(f"param must lie in [2, l={self.l}], got {self.param}")
        if self.kind == "translate":
            if self.direction not in DIRECTIONS:
                raise ConfigError(f"translate needs direction in {DIRECTIONS}, got {self.direction}")
        elif self.direction is not None:
            raise ConfigError(f"direction is only valid for translate, got kind={self.kind}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ManipulationSpec":
        return decode(cls, d, "manipulation spec")


def chunk_lengths(T: int, cp: ChunkParams) -> tuple[int, int]:
    """The bounds ``(l_min, l_max)`` of a chunk's length in a length-``T`` sequence;
    :class:`ChunkRejected` when no legal chunk exists."""
    cp.validate()
    l_max = int(np.floor(cp.r_max * T))
    l_min = max(HARD_MIN, int(np.floor(cp.r_min * T)))
    if l_max < l_min:  # also every T < HARD_MIN, as l_max <= T
        raise ChunkRejected(f"no legal chunk for T={T} under {cp}")
    return l_min, l_max


def sample_chunk(T: int, cp: ChunkParams, rng: np.random.Generator) -> tuple[int, int]:
    """Draw a chunk ``(i, l)`` lying fully inside a length-``T`` sequence.

    Raises :class:`ChunkRejected` when no legal chunk exists; callers
    skip augmentation for that sample.
    """
    l_min, l_max = chunk_lengths(T, cp)
    l = int(rng.integers(l_min, l_max + 1))
    i = int(rng.integers(0, T - l + 1))
    return i, l


def index_map(spec: ManipulationSpec, T: int) -> np.ndarray:
    """Return ``g`` with ``out[t] = seq[g[t]]`` realizing ``spec`` on a length-``T`` sequence.

    Outside the chunk ``g[t] = t``.  Inside, with ``a = t - i``:

        repeat     g = i + floor(a/p)*p
        flip       g = i + 2f*floor(a/f) + f - 1 - a, clamped to the chunk
        translate  g = i + min(l-1, a+v)   (left)
                   g = i + max(0, a-v)     (right)

    Flip can address past the chunk end when ``l % f != 0``; those
    entries are clamped into ``[i, i+l-1]`` so locality always holds.
    """
    spec.validate(T)
    if spec.kind == "replace":
        raise ConfigError("replace has no index map; it copies donor content")
    i, l, p = spec.i, spec.l, spec.param
    g = np.arange(T, dtype=np.int64)
    a = np.arange(l, dtype=np.int64)
    if spec.kind == "repeat":
        chunk = i + (a // p) * p
    elif spec.kind == "flip":
        chunk = i + 2 * p * (a // p) + p - 1 - a
        chunk = np.clip(chunk, i, i + l - 1)
    elif spec.direction == "left":
        chunk = i + np.minimum(l - 1, a + p)
    else:
        chunk = i + np.maximum(0, a - p)
    g[i : i + l] = chunk
    return g


def apply_manipulation(seq, spec: ManipulationSpec, donor=None):
    """Apply ``spec`` to a clip along its temporal axis (axis 0).

    ``seq`` and ``donor`` may be numpy arrays or any object with a
    ``.data`` array and a ``.replace_data(arr)`` constructor (the clip
    types in :mod:`avlab.avdata`).  ``donor`` is required iff
    ``spec.kind == "replace"`` and must cover the chunk window.
    """
    data = seq.data if hasattr(seq, "replace_data") else np.asarray(seq)
    T = data.shape[0]
    spec.validate(T)
    if spec.kind == "replace":
        if donor is None:
            raise DonorError("replace requires a donor sequence")
        ddata = donor.data if hasattr(donor, "replace_data") else np.asarray(donor)
        if ddata.shape[0] < spec.i + spec.l:
            raise DonorError(
                f"donor length {ddata.shape[0]} < chunk end {spec.i + spec.l}"
            )
        if ddata.shape[1:] != data.shape[1:]:
            raise DonorError(f"donor frame shape {ddata.shape[1:]} != {data.shape[1:]}")
        out = data.copy()
        out[spec.i : spec.i + spec.l] = ddata[spec.i : spec.i + spec.l]
    else:
        if donor is not None:
            raise DonorError(f"{spec.kind} takes no donor")
        out = data[index_map(spec, T)]
    if hasattr(seq, "replace_data"):
        return seq.replace_data(out)
    return out


def check_weights(what: str, weights: dict, names) -> None:
    """ConfigError unless ``weights`` maps names among ``names`` to ints or floats >= 0 summing to 1."""
    numbers = all(type(w) is not bool and isinstance(w, (int, float)) and w >= 0 for w in weights.values())
    if not (numbers and weights.keys() <= set(names) and abs(sum(weights.values()) - 1.0) <= 1e-6):
        raise ConfigError(f"{what} must map names among {names} to numbers >= 0 summing to 1, got {weights}")


def sample_manipulation(
    kind_policy: dict[str, float],
    T: int,
    cp: ChunkParams,
    rng: np.random.Generator,
) -> ManipulationSpec:
    """Draw a fully determined spec: kind by policy, chunk by :func:`sample_chunk`,
    ``param`` uniform on ``[2, l]`` and direction uniform on {left, right}.

    Draw order is fixed (kind, chunk, param, direction) so a given rng
    state maps to exactly one spec.
    """
    check_weights("kind_policy", kind_policy, KINDS)
    kinds = sorted(kind_policy)
    p = np.array([kind_policy[k] for k in kinds], dtype=np.float64)
    kind = kinds[int(rng.choice(len(kinds), p=p / p.sum()))]  # rng.choice wants the sum within ~1e-8
    i, l = sample_chunk(T, cp, rng)
    param = None
    direction = None
    if kind != "replace":
        param = int(rng.integers(2, l + 1))
    if kind == "translate":
        direction = DIRECTIONS[int(rng.integers(0, 2))]
    return ManipulationSpec(kind=kind, i=i, l=l, param=param, direction=direction)
