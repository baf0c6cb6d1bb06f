"""Extension experiment: WAH, PLWAH and Roaring sizes across densities.

The paper's cost model is library-specific (§2.2.1: the thresholds and
constants "are specific to the implementation of the bitmap library"),
and it depends on a codec only through its density→size curve.  This
experiment measures that curve for WAH, the index's codec, computes the
PLWAH and Roaring sizes of the same bitmaps from their WAH words and
set-bit positions, and fits a cost model per scheme, showing how the
cut-selection inputs would change under another codec.
"""

from __future__ import annotations

import numpy as np

from ..bitmap.kernels import (
    FILL_COUNT_MASK,
    FILL_FLAG,
    FILL_VALUE_BIT,
    LITERAL_PAYLOAD_MASK,
)
from ..bitmap.serialization import (
    HEADER_SIZE_BYTES,
    TRAILER_SIZE_BYTES,
    serialize_wah,
)
from ..bitmap.wah import WahBitmap
from ..errors import CalibrationError
from ..storage.calibration import DEFAULT_CALIBRATION_DENSITIES
from ..storage.costmodel import MB, CostModel
from .common import ExperimentResult

__all__ = [
    "run",
    "measure_scheme_sizes",
    "plwah_size_bytes",
    "roaring_size_bytes",
]

#: Groups one PLWAH fill word counts (25 bits; 5 more hold the dirty-bit
#: position of an absorbed literal).
_PLWAH_MAX_FILL_GROUPS = (1 << 25) - 1

#: Rows per Roaring chunk, and the bytes of a chunk's header (key u32,
#: kind u16, cardinality u16) and of its bitmap container.
_ROARING_CHUNK_SHIFT = 16
_ROARING_CHUNK_HEADER_BYTES = 8
_ROARING_BITMAP_CONTAINER_BYTES = (1 << _ROARING_CHUNK_SHIFT) // 8


def plwah_size_bytes(words) -> int:
    """Framed size of the 32-bit PLWAH encoding of canonical WAH words.

    PLWAH (Deliège & Pedersen, EDBT 2010, the paper's reference [20])
    keeps WAH's literals and fills with two changes.  A maximal run of
    same-value fill words covering ``C`` groups becomes
    ``⌈C / (2^25 − 1)⌉`` fill words.  A literal that directly follows
    such a run with ``C ≤ 2^25 − 1`` and differs from the fill pattern
    in exactly one bit is absorbed into the run's fill word.  The size
    counts the frame's header and CRC trailer around 4 bytes per word,
    as :attr:`~repro.bitmap.wah.WahBitmap.serialized_size_bytes` does.
    """
    w = np.asarray(words, dtype=np.int64)
    frame = HEADER_SIZE_BYTES + TRAILER_SIZE_BYTES
    fill = (w & FILL_FLAG) != 0
    fill_at = np.flatnonzero(fill)
    if not fill_at.size:
        return frame + 4 * w.size
    value = (w & FILL_VALUE_BIT) != 0
    # A fill word continues a run when the word before it is a fill of
    # the same value.
    continues = np.zeros(w.size, dtype=bool)
    continues[1:] = fill[1:] & fill[:-1] & (value[1:] == value[:-1])
    starts = np.flatnonzero(~continues[fill_at])
    groups = np.add.reduceat(w[fill_at] & FILL_COUNT_MASK, starts)
    fill_words = -(-groups // _PLWAH_MAX_FILL_GROUPS)
    # The word after each run's last fill word; a run that ends the
    # array points back at that fill word, which is no literal.
    last = fill_at[np.append(starts[1:], fill_at.size) - 1]
    after = np.minimum(last + 1, w.size - 1)
    dirty = w[after] ^ np.where(value[last], LITERAL_PAYLOAD_MASK, 0)
    absorbed = (
        ~fill[after]
        & (dirty != 0)
        & ((dirty & (dirty - 1)) == 0)
        & (groups <= _PLWAH_MAX_FILL_GROUPS)
    )
    literals = w.size - fill_at.size - int(absorbed.sum())
    return frame + 4 * (int(fill_words.sum()) + literals)


def roaring_size_bytes(positions) -> int:
    """Framed size of a Roaring bitmap over distinct set-bit
    ``positions``.

    Each non-empty 2^16-bit chunk holding ``card`` rows costs an 8-byte
    header plus ``min(2 · card, 8192)`` bytes: sorted 16-bit offsets up
    to 4,096 rows, a packed bitset above.  The size counts the frame's
    header and CRC trailer around the chunks, as the WAH and PLWAH
    sizes do.
    """
    positions = np.asarray(positions, dtype=np.int64)
    cards = np.bincount(positions >> _ROARING_CHUNK_SHIFT)
    cards = cards[cards > 0]
    chunks = (
        _ROARING_CHUNK_HEADER_BYTES
        + np.minimum(2 * cards, _ROARING_BITMAP_CONTAINER_BYTES)
    )
    return HEADER_SIZE_BYTES + TRAILER_SIZE_BYTES + int(chunks.sum())


def measure_scheme_sizes(
    num_bits: int,
    densities: tuple[float, ...] = DEFAULT_CALIBRATION_DENSITIES,
    seed: int = 0,
) -> dict[str, dict[float, float]]:
    """Measured size (MB) per density for each compression scheme.

    The complement trick is applied to every scheme (a denser-than-0.5
    bitmap is stored negated), matching §2.2.1.
    """
    rng = np.random.default_rng(seed)
    sizes: dict[str, dict[float, float]] = {
        "wah": {},
        "plwah": {},
        "roaring": {},
    }
    for density in densities:
        effective = min(density, 1.0 - density)
        target = int(round(effective * num_bits))
        positions = rng.choice(num_bits, size=target, replace=False)
        wah = WahBitmap.from_positions(positions, num_bits)
        sizes["wah"][density] = len(serialize_wah(wah)) / MB
        sizes["plwah"][density] = plwah_size_bytes(wah.words) / MB
        sizes["roaring"][density] = roaring_size_bytes(positions) / MB
    return sizes


def run(
    num_bits: int = 2_000_000,
    densities: tuple[float, ...] = DEFAULT_CALIBRATION_DENSITIES,
    seed: int = 0,
) -> ExperimentResult:
    """Tabulate per-scheme sizes and the fitted cost-model constants."""
    sizes = measure_scheme_sizes(num_bits, densities, seed)
    raw_mb = num_bits / 8 / MB
    result = ExperimentResult(
        title=(
            "Extension: compression-scheme comparison "
            "(WAH vs PLWAH vs Roaring)"
        ),
        columns=[
            "density",
            "wah_mb",
            "plwah_mb",
            "roaring_mb",
            "raw_mb",
            "roaring_over_wah",
        ],
        notes=[f"num_bits={num_bits} seed={seed}"],
    )
    for density in densities:
        wah_mb = sizes["wah"][density]
        roaring_mb = sizes["roaring"][density]
        result.add_row(
            density=density,
            wah_mb=wah_mb,
            plwah_mb=sizes["plwah"][density],
            roaring_mb=roaring_mb,
            raw_mb=raw_mb,
            roaring_over_wah=(
                roaring_mb / wah_mb if wah_mb else float("nan")
            ),
        )
    for scheme in ("wah", "plwah", "roaring"):
        try:
            model = CostModel.fitted(sizes[scheme])
        except CalibrationError:
            continue
        result.notes.append(
            f"{scheme} fitted: a={model.a:.2f} b={model.b:.5f} "
            f"k1={model.k1:.4f} k2={model.k2:.4f} k3={model.k3:.4f}"
        )
    return result
