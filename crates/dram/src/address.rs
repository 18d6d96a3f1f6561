//! Physical-address ↔ DRAM-coordinate mapping.
//!
//! The mapper slices the physical address (above the cache-line offset)
//! into channel, rank, bank, row and column fields. Two standard layouts
//! are provided, plus an optional XOR bank permutation (as in
//! permutation-based page interleaving) that spreads row-conflict traffic
//! across banks.

use crate::command::{BankLoc, RowId};
use crate::config::Organization;

/// Fully decoded DRAM coordinates of one cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct DramAddress {
    /// Bank coordinates.
    pub loc: BankLoc,
    /// Row within the bank.
    pub row: RowId,
    /// Column at cache-line granularity.
    pub col: u32,
}

fasthash::impl_state!(DramAddress { loc, row, col });

/// Field order of the sliced address, from least- to most-significant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingScheme {
    /// `row : rank : bank : column : channel` (LSB → channel).
    ///
    /// Consecutive lines interleave across channels, then fill a row —
    /// the row-locality-friendly baseline layout used for the paper's
    /// experiments.
    RoRaBaCoCh,
    /// `row : column : rank : bank : channel` (LSB → channel).
    ///
    /// Consecutive lines interleave across channels and then banks —
    /// maximizes bank-level parallelism for streaming.
    RoCoRaBaCh,
}

/// Address mapper for a fixed organization and scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMapper {
    org: Organization,
    scheme: MappingScheme,
    /// XOR the bank index with the low row bits (permutation-based
    /// interleaving) to spread row conflicts across banks.
    xor_bank: bool,
}

impl AddressMapper {
    /// Creates a mapper.
    ///
    /// # Panics
    ///
    /// Panics if the organization fails [`Organization::validate`].
    pub fn new(org: Organization, scheme: MappingScheme, xor_bank: bool) -> Self {
        org.validate().expect("invalid organization");
        Self {
            org,
            scheme,
            xor_bank,
        }
    }

    /// The paper-baseline mapper for an organization.
    pub fn paper_default(org: Organization) -> Self {
        Self::new(org, MappingScheme::RoRaBaCoCh, false)
    }

    /// The organization this mapper addresses.
    pub fn organization(&self) -> &Organization {
        &self.org
    }

    /// Total addressable bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.org.capacity_bytes()
    }

    /// Decodes a physical byte address into DRAM coordinates.
    ///
    /// The address is taken modulo the device capacity, so any `u64` is
    /// valid input (synthetic trace generators rely on this).
    pub fn decode(&self, phys_addr: u64) -> DramAddress {
        let line = (phys_addr % self.capacity_bytes()) / u64::from(self.org.line_bytes);
        let (ch_bits, ra_bits, ba_bits, ro_bits, co_bits) = self.field_bits();
        let mut rest = line;
        let mut take = |bits: u32| -> u64 {
            let v = rest & ((1 << bits) - 1);
            rest >>= bits;
            v
        };
        let (channel, rank, bank, row, col) = match self.scheme {
            MappingScheme::RoRaBaCoCh => {
                let ch = take(ch_bits);
                let co = take(co_bits);
                let ba = take(ba_bits);
                let ra = take(ra_bits);
                let ro = take(ro_bits);
                (ch, ra, ba, ro, co)
            }
            MappingScheme::RoCoRaBaCh => {
                let ch = take(ch_bits);
                let ba = take(ba_bits);
                let ra = take(ra_bits);
                let co = take(co_bits);
                let ro = take(ro_bits);
                (ch, ra, ba, ro, co)
            }
        };
        let bank = if self.xor_bank {
            bank ^ (row & (u64::from(self.org.banks) - 1))
        } else {
            bank
        };
        DramAddress {
            loc: BankLoc {
                channel: channel as u8,
                rank: rank as u8,
                bank: bank as u8,
            },
            row: row as RowId,
            col: col as u32,
        }
    }

    /// Encodes DRAM coordinates back into a physical byte address
    /// (line-aligned). Inverse of [`Self::decode`].
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range for the organization.
    pub fn encode(&self, addr: DramAddress) -> u64 {
        assert!(u32::from(addr.loc.channel) < u32::from(self.org.channels));
        assert!(u32::from(addr.loc.rank) < u32::from(self.org.ranks));
        assert!(u32::from(addr.loc.bank) < u32::from(self.org.banks));
        assert!(addr.row < self.org.rows);
        assert!(addr.col < self.org.columns);
        let (ch_bits, ra_bits, ba_bits, ro_bits, co_bits) = self.field_bits();
        let bank = if self.xor_bank {
            u64::from(addr.loc.bank) ^ (u64::from(addr.row) & (u64::from(self.org.banks) - 1))
        } else {
            u64::from(addr.loc.bank)
        };
        let mut line = 0u64;
        let mut shift = 0u32;
        let mut put = |v: u64, bits: u32| {
            line |= v << shift;
            shift += bits;
        };
        match self.scheme {
            MappingScheme::RoRaBaCoCh => {
                put(u64::from(addr.loc.channel), ch_bits);
                put(u64::from(addr.col), co_bits);
                put(bank, ba_bits);
                put(u64::from(addr.loc.rank), ra_bits);
                put(u64::from(addr.row), ro_bits);
            }
            MappingScheme::RoCoRaBaCh => {
                put(u64::from(addr.loc.channel), ch_bits);
                put(bank, ba_bits);
                put(u64::from(addr.loc.rank), ra_bits);
                put(u64::from(addr.col), co_bits);
                put(u64::from(addr.row), ro_bits);
            }
        }
        line * u64::from(self.org.line_bytes)
    }

    fn field_bits(&self) -> (u32, u32, u32, u32, u32) {
        (
            u32::from(self.org.channels).trailing_zeros(),
            u32::from(self.org.ranks).trailing_zeros(),
            u32::from(self.org.banks).trailing_zeros(),
            self.org.rows.trailing_zeros(),
            self.org.columns.trailing_zeros(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn org() -> Organization {
        Organization::paper(2)
    }

    #[test]
    fn consecutive_lines_interleave_channels() {
        let m = AddressMapper::paper_default(org());
        let a = m.decode(0);
        let b = m.decode(64);
        assert_ne!(a.loc.channel, b.loc.channel);
        assert_eq!(a.row, b.row);
    }

    #[test]
    fn lines_within_row_share_bank_and_row() {
        let m = AddressMapper::paper_default(org());
        // Same channel: step by 2 lines (2 channels).
        let a = m.decode(0);
        let b = m.decode(128);
        assert_eq!(a.loc, b.loc);
        assert_eq!(a.row, b.row);
        assert_eq!(b.col, a.col + 1);
    }

    #[test]
    fn roundtrip_is_bijective_on_samples() {
        for scheme in [MappingScheme::RoRaBaCoCh, MappingScheme::RoCoRaBaCh] {
            for xor in [false, true] {
                let m = AddressMapper::new(org(), scheme, xor);
                for i in 0..4096u64 {
                    let phys = i * 64 * 7919 % m.capacity_bytes();
                    let line_aligned = phys & !63;
                    let d = m.decode(line_aligned);
                    assert_eq!(m.encode(d), line_aligned, "scheme {scheme:?} xor {xor}");
                }
            }
        }
    }

    #[test]
    fn decode_wraps_modulo_capacity() {
        let m = AddressMapper::paper_default(org());
        let cap = m.capacity_bytes();
        assert_eq!(m.decode(64), m.decode(cap + 64));
    }

    #[test]
    fn bank_interleaved_scheme_spreads_consecutive_lines() {
        let m = AddressMapper::new(org(), MappingScheme::RoCoRaBaCh, false);
        // Two consecutive same-channel lines land in different banks.
        let a = m.decode(0);
        let b = m.decode(128);
        assert_ne!(a.loc.bank, b.loc.bank);
    }

    #[test]
    fn xor_permutation_changes_bank_not_row() {
        let plain = AddressMapper::new(org(), MappingScheme::RoRaBaCoCh, false);
        let xored = AddressMapper::new(org(), MappingScheme::RoRaBaCoCh, true);
        // Pick an address whose row has low bits set.
        let phys = plain.encode(DramAddress {
            loc: BankLoc {
                channel: 0,
                rank: 0,
                bank: 2,
            },
            row: 5,
            col: 7,
        });
        let a = plain.decode(phys);
        let b = xored.decode(phys);
        assert_eq!(a.row, b.row);
        assert_eq!(a.col, b.col);
        assert_eq!(b.loc.bank, a.loc.bank ^ (5 & 7));
    }
}
