//! Bit-granular writer and reader used by the entropy coder.

/// Accumulates bits most-significant-first into a byte vector.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits currently buffered in `acc` (0..8).
    acc: u8,
    acc_len: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the `count` least-significant bits of `value`, most significant first.
    ///
    /// # Panics
    /// Panics if `count > 32`.
    pub fn write_bits(&mut self, value: u32, count: u8) {
        assert!(count <= 32, "cannot write more than 32 bits at once");
        for i in (0..count).rev() {
            let bit = ((value >> i) & 1) as u8;
            self.acc = (self.acc << 1) | bit;
            self.acc_len += 1;
            if self.acc_len == 8 {
                self.bytes.push(self.acc);
                self.acc = 0;
                self.acc_len = 0;
            }
        }
    }

    /// Number of complete bytes plus any partial byte written so far.
    pub fn byte_len(&self) -> usize {
        self.bytes.len() + usize::from(self.acc_len > 0)
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.acc_len as usize
    }

    /// Finishes the stream, padding the final partial byte with ones (JPEG convention),
    /// and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if self.acc_len > 0 {
            let pad = 8 - self.acc_len;
            self.acc = (self.acc << pad) | ((1u16 << pad) - 1) as u8;
            self.bytes.push(self.acc);
        }
        self.bytes
    }
}

/// Reads bits most-significant-first from a byte slice.
///
/// Bits are buffered a word at a time: `acc` holds the next unconsumed bits left-aligned,
/// so reading, peeking and skipping are shifts rather than per-bit byte lookups — the
/// entropy decoder peeks one word and takes a code and the amplitude bits after it from
/// that word. While eight bytes remain, a refill is one big-endian 8-byte load; only the
/// last seven bytes of a stream are loaded byte by byte.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Index of the next byte not yet counted in `acc`.
    next: usize,
    /// Unconsumed bits, left-aligned (bit 63 is the next bit of the stream). Below the
    /// top `count` bits it holds the stream's following bits or zeros: a word refill
    /// loads eight bytes but counts only the whole bytes that fit, so the top bits of
    /// byte `next` may already be there, where every later refill ORs the same bits
    /// again. Past the end of the stream it holds zeros.
    acc: u64,
    /// Number of valid bits in `acc`.
    count: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, next: 0, acc: 0, count: 0 }
    }

    /// Tops the accumulator up to at least 56 bits, or to everything the stream has left.
    ///
    /// While eight bytes remain this is one load, with no branch on how much is buffered:
    /// the whole bytes that fit are counted (at most 63 bits are ever counted on this
    /// path, so the shift stays in range). Only the stream's last seven bytes go through
    /// the byte loop, and once they do the word path never runs again.
    #[inline]
    fn refill(&mut self) {
        if let Some(word) = self.bytes.get(self.next..self.next + 8) {
            let word = u64::from_be_bytes(word.try_into().expect("a range of eight bytes"));
            self.acc |= word >> self.count;
            let whole_bytes = (63 - self.count) / 8;
            self.next += whole_bytes as usize;
            self.count += whole_bytes * 8;
            return;
        }
        while self.count <= 56 {
            let Some(&byte) = self.bytes.get(self.next) else { break };
            self.acc |= u64::from(byte) << (56 - self.count);
            self.count += 8;
            self.next += 1;
        }
    }

    /// The next 64 bits of the stream, left-aligned, without consuming them, and how many
    /// of them are really there: at least 56 unless the stream ends first, enough for a
    /// code (at most 16 bits) and the amplitude bits after it (at most 17). The bits past
    /// that count are the stream's following bits, or zeros past its end.
    #[inline]
    pub(crate) fn peek(&mut self) -> (u64, u32) {
        self.refill();
        (self.acc, self.count)
    }

    /// Skips `bits` bits, which a preceding [`peek`](Self::peek) reported available.
    #[inline]
    pub(crate) fn consume(&mut self, bits: u32) {
        debug_assert!(bits <= self.count && bits < 64, "consume past the peeked window");
        self.acc <<= bits;
        self.count -= bits;
    }

    /// Reads a single bit, or `None` at end of stream.
    #[inline]
    pub fn read_bit(&mut self) -> Option<u8> {
        self.read_bits(1).map(|bit| bit as u8)
    }

    /// Reads `count` bits into the low bits of a `u32`, or `None` if the stream ends first
    /// (the rest of the stream is consumed, as if read bit by bit).
    ///
    /// # Panics
    /// Panics if `count > 32`.
    #[inline]
    pub fn read_bits(&mut self, count: u8) -> Option<u32> {
        assert!(count <= 32, "cannot read more than 32 bits at once");
        let count = u32::from(count);
        if count == 0 {
            return Some(0);
        }
        if self.count < count {
            self.refill();
            if self.count < count {
                self.acc = 0;
                self.count = 0;
                return None;
            }
        }
        let value = (self.acc >> (64 - count)) as u32;
        self.consume(count);
        Some(value)
    }

    /// Number of bits remaining in the stream.
    pub fn remaining_bits(&self) -> usize {
        self.count as usize + (self.bytes.len() - self.next) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_various_widths() {
        let mut w = BitWriter::new();
        let values: Vec<(u32, u8)> =
            vec![(1, 1), (0, 1), (5, 3), (255, 8), (1023, 10), (0, 4), (0x1234, 16), (7, 3)];
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        let total_bits: usize = values.iter().map(|&(_, n)| n as usize).sum();
        assert_eq!(w.bit_len(), total_bits);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            assert_eq!(r.read_bits(n), Some(v), "width {n}");
        }
    }

    #[test]
    fn byte_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.byte_len(), 0);
        w.write_bits(1, 1);
        assert_eq!(w.byte_len(), 1);
        w.write_bits(0xFF, 8);
        assert_eq!(w.byte_len(), 2);
        assert_eq!(w.finish().len(), 2);
    }

    #[test]
    fn reader_detects_end_of_stream() {
        let bytes = vec![0b1010_0000];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining_bits(), 8);
        assert_eq!(r.read_bits(4), Some(0b1010));
        assert_eq!(r.remaining_bits(), 4);
        assert_eq!(r.read_bits(4), Some(0));
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(1), None);
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    fn padding_is_ones() {
        let mut w = BitWriter::new();
        w.write_bits(0, 3);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0001_1111]);
    }

    #[test]
    #[should_panic(expected = "32 bits")]
    fn oversized_write_panics() {
        BitWriter::new().write_bits(0, 33);
    }

    #[test]
    #[should_panic(expected = "32 bits")]
    fn oversized_read_panics() {
        BitReader::new(&[0; 8]).read_bits(33);
    }

    /// The pre-word-buffer reader: one byte lookup per bit.
    struct BitwiseReader<'a> {
        bytes: &'a [u8],
        bit: usize,
    }

    impl BitwiseReader<'_> {
        fn read_bits(&mut self, count: u8) -> Option<u32> {
            let mut out = 0u32;
            for _ in 0..count {
                let byte = *self.bytes.get(self.bit / 8)?;
                out = (out << 1) | u32::from((byte >> (7 - self.bit % 8)) & 1);
                self.bit += 1;
            }
            Some(out)
        }

        fn remaining_bits(&self) -> usize {
            self.bytes.len() * 8 - self.bit
        }

        /// The next 64 bits, left-aligned and zero-padded past the end, not consumed.
        fn peek64(&self) -> u64 {
            let mut ahead = BitwiseReader { bytes: self.bytes, bit: self.bit };
            let mut out = 0u64;
            for _ in 0..64 {
                out = (out << 1) | u64::from(ahead.read_bits(1).unwrap_or(0));
            }
            out
        }
    }

    #[test]
    fn word_buffered_reads_match_bit_at_a_time_reads() {
        // Every mix of read widths, peeks and skips over streams of every length up to
        // 200 bytes, including reads that run off the end, must agree with the bitwise
        // reference on each value and on the position afterwards. Every stream of eight
        // bytes or more is walked across the point where fewer than eight bytes remain,
        // so word refills, byte refills and the switch between them all meet the
        // reference, at every alignment the random widths produce.
        let mut rng = crate::Xorshift(0x9e37_79b9_7f4a_7c15);
        for len in 0..=200usize {
            for _ in 0..20 {
                let bytes = rng.bytes(len);
                let mut fast = BitReader::new(&bytes);
                let mut slow = BitwiseReader { bytes: &bytes, bit: 0 };
                loop {
                    let width = rng.below(33) as u8;
                    if rng.below(4) == 0 {
                        // Peek, then skip part of what is there.
                        let (window, avail) = fast.peek();
                        let left = slow.remaining_bits();
                        assert!(avail as usize == left || (avail >= 56 && avail as usize <= left));
                        // The window is the stream's next bits up to some point at or
                        // past `avail`, and zeros after it (zeros past the stream's end).
                        let reference = slow.peek64();
                        let agree = (window ^ reference).leading_zeros();
                        assert!(agree >= avail, "len {len}: peeked bits differ");
                        assert!(agree == 64 || window << agree == 0, "len {len}: bits past avail");
                        let skip = u32::from(width).min(avail);
                        let expected = slow.read_bits(skip as u8).unwrap();
                        if skip > 0 {
                            assert_eq!((window >> (64 - skip)) as u32, expected);
                        }
                        fast.consume(skip);
                    } else {
                        let got = fast.read_bits(width);
                        let expected = slow.read_bits(width);
                        if expected.is_none() {
                            slow.bit = bytes.len() * 8;
                        }
                        assert_eq!(got, expected, "len {len} width {width}");
                    }
                    assert_eq!(fast.remaining_bits(), slow.remaining_bits());
                    if slow.remaining_bits() == 0 {
                        assert_eq!(fast.read_bit(), None);
                        break;
                    }
                }
            }
        }
    }
}
