"""Wattch-style array and CAM structure energy models.

"The associative structures of the processor are modeled as given in
[Palacharla 97, Wattch]" (Section 2).  Two building blocks cover the
out-of-order engine:

* :class:`ArrayEnergyModel` — a RAM array with decoded rows (register
  file, rename map, ROB, branch predictor tables),
* :class:`CAMEnergyModel` — a content-addressed structure whose access
  drives matchlines across every entry (the unified TLB, the issue
  window's wakeup path, the LSQ address-match path).

Geometry and technology are frozen, so each per-access energy is a
constant of its model: computed once, at construction, and kept as a
plain attribute that the access methods return.
"""

from __future__ import annotations

from repro.config.technology import (
    C_BITLINE_PER_CELL,
    C_CAM_MATCHLINE_PER_BIT,
    C_DECODER_PER_ROW,
    C_OUTPUT_DRIVER_PER_BIT,
    C_PRECHARGE_PER_BITLINE,
    C_SENSE_AMP,
    C_WORDLINE_PER_CELL,
    DEFAULT_TECHNOLOGY,
    Technology,
)
from repro.power.bitlines import READ_BITLINE_SWING, WRITE_BITLINE_SWING


class ArrayEnergyModel:
    """Per-port-access energy of a decoded RAM array."""

    def __init__(
        self,
        name: str,
        rows: int,
        bits_per_row: int,
        *,
        technology: Technology = DEFAULT_TECHNOLOGY,
    ) -> None:
        if rows <= 0 or bits_per_row <= 0:
            raise ValueError(f"array {name}: rows and bits must be positive")
        self.name = name
        self.rows = rows
        self.bits_per_row = bits_per_row
        self.technology = technology
        self.read_j = self._port_energy_j(write=False)
        self.write_j = self._port_energy_j(write=True)

    def access_energy_j(self, *, write: bool = False) -> float:
        """Energy of one port access (read or write)."""
        return self.write_j if write else self.read_j

    def _port_energy_j(self, *, write: bool) -> float:
        tech = self.technology
        swing = WRITE_BITLINE_SWING if write else READ_BITLINE_SWING
        decode_c = self.rows * C_DECODER_PER_ROW
        wordline_c = self.bits_per_row * C_WORDLINE_PER_CELL
        bitline_c = self.bits_per_row * (
            self.rows * C_BITLINE_PER_CELL + C_PRECHARGE_PER_BITLINE
        )
        sense_c = 0.0 if write else self.bits_per_row * C_SENSE_AMP
        output_c = 0.0 if write else self.bits_per_row * C_OUTPUT_DRIVER_PER_BIT
        return (
            tech.switching_energy(decode_c)
            + tech.switching_energy(wordline_c)
            + tech.switching_energy(bitline_c) * swing
            + tech.switching_energy(sense_c)
            + tech.switching_energy(output_c)
        )

    @property
    def latch_bits(self) -> int:
        """Storage bits, used for the clock-loading estimate."""
        return self.rows * self.bits_per_row


class CAMEnergyModel:
    """Per-search energy of a fully-associative structure."""

    def __init__(
        self,
        name: str,
        entries: int,
        tag_bits: int,
        data_bits: int = 0,
        *,
        technology: Technology = DEFAULT_TECHNOLOGY,
    ) -> None:
        if entries <= 0 or tag_bits <= 0 or data_bits < 0:
            raise ValueError(f"CAM {name}: invalid geometry")
        self.name = name
        self.entries = entries
        self.tag_bits = tag_bits
        self.data_bits = data_bits
        self.technology = technology
        self.search_j = self._search_energy_j()
        self.write_j = self._write_energy_j()

    def search_energy_j(self) -> float:
        """Energy of one associative search: every matchline switches."""
        return self.search_j

    def write_energy_j(self) -> float:
        """Energy of installing one entry."""
        return self.write_j

    def _search_energy_j(self) -> float:
        tech = self.technology
        matchline_c = self.entries * self.tag_bits * C_CAM_MATCHLINE_PER_BIT
        # Broadcasting the search key down the tag columns.
        taglines_c = self.tag_bits * self.entries * C_BITLINE_PER_CELL * 0.5
        energy = tech.switching_energy(matchline_c) + tech.switching_energy(taglines_c)
        if self.data_bits:
            # Reading the matched entry's payload.
            read_c = self.data_bits * (C_SENSE_AMP + C_OUTPUT_DRIVER_PER_BIT)
            energy += tech.switching_energy(read_c) + (
                tech.switching_energy(self.data_bits * C_BITLINE_PER_CELL * self.entries)
                * READ_BITLINE_SWING
            )
        return energy

    def _write_energy_j(self) -> float:
        tech = self.technology
        bits = self.tag_bits + self.data_bits
        write_c = bits * (C_BITLINE_PER_CELL * self.entries + C_PRECHARGE_PER_BITLINE)
        return tech.switching_energy(write_c) * WRITE_BITLINE_SWING

    @property
    def latch_bits(self) -> int:
        """Storage bits, used for the clock-loading estimate."""
        return self.entries * (self.tag_bits + self.data_bits)
