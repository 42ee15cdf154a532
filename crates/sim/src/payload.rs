use crate::util::word_bits;

/// A message payload with an explicit bit-size accounting.
///
/// The congested-clique model (§2 of the paper) limits each message to
/// `O(log n)` bits — "a constant number of integer numbers that are
/// polynomially bounded in n". Every payload type declares the number of
/// bits its encoding occupies on the wire; the engine sums these per
/// directed edge per round and enforces the configured budget.
///
/// Implementations must return an upper bound on the size of an actual
/// encoding of the value (the [`wire`](crate::wire) module is used in tests
/// to validate this). Sizes may depend on `n` because node identifiers and
/// counts occupy `Θ(log n)` bits.
///
/// Payloads are `Send`: messages move between stepping workers when the
/// engine runs nodes on multiple threads (see
/// [`ExecMode`](crate::ExecMode)).
pub trait Payload: Clone + std::fmt::Debug + Send {
    /// Number of bits this message occupies on an edge of an `n`-clique.
    fn size_bits(&self, n: usize) -> u64;
}

/// Unit payload: a pure synchronization pulse of one bit.
impl Payload for () {
    fn size_bits(&self, _n: usize) -> u64 {
        1
    }
}

/// A bare machine word (`⌈log₂ n⌉` bits).
impl Payload for u64 {
    fn size_bits(&self, n: usize) -> u64 {
        word_bits(n)
    }
}

/// A pair of machine words.
impl Payload for (u64, u64) {
    fn size_bits(&self, n: usize) -> u64 {
        2 * word_bits(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_is_one_bit() {
        assert_eq!(().size_bits(1024), 1);
    }

    #[test]
    fn word_sizes_scale_with_n() {
        assert_eq!(7u64.size_bits(1024), 10);
        assert_eq!((7u64, 9u64).size_bits(1024), 20);
        assert_eq!(7u64.size_bits(16), 4);
    }
}
