//! SWAR (SIMD-within-a-register) register write sets for the engine's
//! hot loop.
//!
//! A task's **register write set** is at most [`NUM_REGS`] (= 64) dense
//! register indices, one bit each in a `u64` mask. The engine ORs a bit
//! in per write, intersects the mask with the exit block's live-out
//! mask when dead register analysis filters ring forwards, and iterates
//! the surviving bits at commit ([`set_bits`]).

use ms_ir::NUM_REGS;

// The write-set mask kernels pack one dense register per bit.
const _: () = assert!(NUM_REGS <= 64, "register write-set masks are single u64s");

/// Iterates the set bits of a register write-set mask in ascending
/// dense-register order (the order the engine publishes forwards in).
#[inline]
pub(crate) fn set_bits(mask: u64) -> SetBits {
    SetBits { mask }
}

/// Iterator over the set bit positions of a `u64`, ascending.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SetBits {
    mask: u64,
}

impl Iterator for SetBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.mask == 0 {
            return None;
        }
        let bit = self.mask.trailing_zeros() as usize;
        self.mask &= self.mask - 1;
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_ir::SplitMix64;

    #[test]
    fn set_bits_ascends() {
        let mask = (1u64 << 3) | (1 << 17) | (1 << 63);
        assert_eq!(set_bits(mask).collect::<Vec<_>>(), vec![3, 17, 63]);
        assert_eq!(set_bits(0).count(), 0);
    }

    /// Scalar twin of [`set_bits`]: test all 64 positions in order.
    fn set_bits_ref(mask: u64) -> Vec<usize> {
        (0..64).filter(|&b| mask & (1u64 << b) != 0).collect()
    }

    #[test]
    fn set_bits_matches_scalar_reference() {
        let mut rng = SplitMix64::seed_from_u64(0x5a_0005);
        for case in 0..4_000 {
            let mask = match case % 4 {
                0 => rng.next_u64(),
                1 => rng.next_u64() & rng.next_u64(), // sparse
                2 => rng.next_u64() | rng.next_u64(), // dense
                _ => 1u64.checked_shl((rng.next_u64() % 64) as u32).unwrap(),
            };
            assert_eq!(
                set_bits(mask).collect::<Vec<_>>(),
                set_bits_ref(mask),
                "case {case}: mask {mask:#018x}"
            );
        }
        assert_eq!(set_bits(0).count(), 0);
        assert_eq!(set_bits(u64::MAX).count(), 64);
    }
}
