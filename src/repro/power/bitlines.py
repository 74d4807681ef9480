"""Kamble & Ghose analytical cache energy model.

"The per-access costs of the cache-structures are calculated based on
the model presented in [Kamble & Ghose 97, Wattch]" (Section 2).  The
model decomposes one cache access into the classic components:

* row decode,
* wordline assertion across the selected row,
* bitline precharge + swing (reads swing a fraction of Vdd before the
  sense amps fire; writes swing fully),
* sense amplification,
* tag read + comparators (one comparator per way),
* output drivers for the bits actually delivered.

Energies are computed from the cache geometry and the 0.35 um
capacitance constants in :mod:`repro.config.technology`, once per
model: the read and write energies are plain attributes set at
construction.
"""

from __future__ import annotations

import dataclasses

from repro.config.system import CacheConfig
from repro.config.technology import (
    C_BITLINE_PER_CELL,
    C_DECODER_PER_ROW,
    C_OUTPUT_DRIVER_PER_BIT,
    C_PRECHARGE_PER_BITLINE,
    C_SENSE_AMP,
    C_TAG_COMPARATOR_PER_BIT,
    C_WORDLINE_PER_CELL,
    Technology,
    DEFAULT_TECHNOLOGY,
)

READ_BITLINE_SWING = 0.25
"""Fraction of Vdd the bitlines swing on a read before sensing."""

WRITE_BITLINE_SWING = 1.0
"""Writes drive the bitlines rail to rail."""


@dataclasses.dataclass(frozen=True)
class CacheEnergyBreakdown:
    """Per-access energy decomposition (joules)."""

    decode_j: float
    wordline_j: float
    bitline_j: float
    sense_j: float
    tag_j: float
    output_j: float

    @property
    def total_j(self) -> float:
        """Total energy of one access."""
        return (
            self.decode_j
            + self.wordline_j
            + self.bitline_j
            + self.sense_j
            + self.tag_j
            + self.output_j
        )


class CacheEnergyModel:
    """Per-access energy for one set-associative cache."""

    def __init__(
        self,
        config: CacheConfig,
        *,
        output_bits: int,
        technology: Technology = DEFAULT_TECHNOLOGY,
        max_subarray_rows: int = 256,
        serial_tag_data: bool | None = None,
    ) -> None:
        if output_bits <= 0:
            raise ValueError(f"output_bits must be positive, got {output_bits}")
        if max_subarray_rows <= 0:
            raise ValueError(f"max_subarray_rows must be positive")
        self.config = config
        self.output_bits = output_bits
        self.technology = technology
        self.max_subarray_rows = max_subarray_rows
        # Large (L2-class) caches probe tags first and read only the
        # matching way; small L1s read all ways in parallel for speed.
        if serial_tag_data is None:
            serial_tag_data = config.size_bytes > 256 * 1024
        self.serial_tag_data = serial_tag_data
        # Geometry and technology are frozen: the read and write
        # energies are constants of this model, computed once here.
        self.read_j = self.breakdown(write=False).total_j
        self.write_j = self.breakdown(write=True).total_j

    @property
    def rows(self) -> int:
        """Total data-array rows (one per set)."""
        return self.config.num_sets

    @property
    def subarray_rows(self) -> int:
        """Rows per subarray: only one subarray's bitlines swing."""
        return min(self.rows, self.max_subarray_rows)

    @property
    def data_columns(self) -> int:
        """Active data bitline pairs per access.

        Parallel-read caches activate every way; serial tag-data caches
        activate only the selected way's line."""
        per_way = self.config.line_bytes * 8
        if self.serial_tag_data:
            return per_way
        return per_way * self.config.associativity

    @property
    def tag_columns(self) -> int:
        """Tag-array bitline pairs."""
        return self.config.tag_bits * self.config.associativity

    def breakdown(self, *, write: bool = False) -> CacheEnergyBreakdown:
        """Energy decomposition of one access."""
        tech = self.technology
        swing = WRITE_BITLINE_SWING if write else READ_BITLINE_SWING
        columns = self.data_columns + self.tag_columns
        if write:
            # A write drives only the written word's bitlines rail to
            # rail (plus the tag lookup); unwritten columns stay
            # precharged.
            columns = min(self.output_bits, self.data_columns) + self.tag_columns

        decode_c = self.rows * C_DECODER_PER_ROW
        wordline_c = columns * C_WORDLINE_PER_CELL
        # Each bitline carries one diffusion cap per row of the active
        # subarray plus its precharge driver; energy scales with the
        # swing fraction.
        bitline_c = columns * (
            self.subarray_rows * C_BITLINE_PER_CELL + C_PRECHARGE_PER_BITLINE
        )
        sense_c = 0.0 if write else columns * C_SENSE_AMP
        tag_c = self.config.tag_bits * self.config.associativity * C_TAG_COMPARATOR_PER_BIT
        output_c = self.output_bits * C_OUTPUT_DRIVER_PER_BIT

        return CacheEnergyBreakdown(
            decode_j=tech.switching_energy(decode_c),
            wordline_j=tech.switching_energy(wordline_c),
            bitline_j=tech.switching_energy(bitline_c) * swing,
            sense_j=tech.switching_energy(sense_c),
            tag_j=tech.switching_energy(tag_c),
            output_j=tech.switching_energy(output_c),
        )

    def read_energy_j(self) -> float:
        """Energy of one read access."""
        return self.read_j

    def write_energy_j(self) -> float:
        """Energy of one write access."""
        return self.write_j

    def access_energy_j(self, write_fraction: float = 0.3) -> float:
        """Blended per-access energy for a given write mix."""
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError(f"write fraction must be in [0, 1]: {write_fraction}")
        return (1.0 - write_fraction) * self.read_j + write_fraction * self.write_j
