//! Canonical Huffman coding for the entropy stage of the progressive codec.
//!
//! Each scan builds its own code from the symbol histogram of that scan (a "two-pass"
//! encoder), stores the 256-entry code-length table in the scan header, and then emits the
//! coded symbol stream. This mirrors the optimized-Huffman mode of libjpeg and makes the
//! per-scan byte counts honest: they reflect the actual entropy of each spectral band.

use crate::bits::{BitReader, BitWriter};

/// Maximum code length permitted (same limit as JPEG).
const MAX_CODE_LEN: u8 = 16;

/// Codes of at most this many bits decode with one lookup of the next `LUT_BITS` bits.
const LUT_BITS: u8 = 9;

/// A canonical Huffman code over byte-valued symbols.
#[derive(Debug, Clone)]
pub struct HuffmanCode {
    /// Code length per symbol (0 = symbol absent).
    lengths: [u8; 256],
    /// Code value per symbol (valid when length > 0).
    codes: [u16; 256],
    /// Decode table over the next [`LUT_BITS`] bits of the stream: `length << 8 | symbol`
    /// of the code that is a prefix of the index, or 0 when no code of at most `LUT_BITS`
    /// bits is.
    lut: Box<[u16; 1 << LUT_BITS]>,
    /// `(length, code, symbol)` of every code longer than [`LUT_BITS`], ascending.
    long_codes: Vec<(u8, u16, u8)>,
}

impl HuffmanCode {
    /// Builds a length-limited canonical code from symbol frequencies.
    ///
    /// Symbols with zero frequency get no code. If only one distinct symbol occurs it is
    /// assigned a one-bit code. Package-merge would be optimal; we use the simpler
    /// "sort by frequency, assign by Shannon length, then rebalance" approach which is
    /// close to optimal for the skewed distributions produced by DCT coefficients.
    pub fn from_frequencies(freqs: &[u64; 256]) -> Self {
        let mut lengths = [0u8; 256];
        let total: u64 = freqs.iter().sum();
        if total == 0 {
            return Self::assign_codes(lengths);
        }
        let present: Vec<usize> = (0..256).filter(|&s| freqs[s] > 0).collect();
        if present.len() == 1 {
            lengths[present[0]] = 1;
            return Self::assign_codes(lengths);
        }

        // Initial lengths from the Shannon bound, clamped to [1, MAX_CODE_LEN].
        for &s in &present {
            let p = freqs[s] as f64 / total as f64;
            let ideal = (-p.log2()).ceil().max(1.0);
            lengths[s] = ideal.min(MAX_CODE_LEN as f64) as u8;
        }
        Self::rebalance(&mut lengths, &present, freqs);
        Self::assign_codes(lengths)
    }

    /// Adjusts lengths until the Kraft inequality is satisfied with equality-or-less, so a
    /// prefix code of those lengths exists.
    fn rebalance(lengths: &mut [u8; 256], present: &[usize], freqs: &[u64; 256]) {
        // Kraft sum in units of 2^-MAX_CODE_LEN.
        let unit = |len: u8| 1u64 << (MAX_CODE_LEN - len);
        let kraft = |lengths: &[u8; 256], present: &[usize]| -> u64 {
            present.iter().map(|&s| unit(lengths[s])).sum()
        };
        let budget = 1u64 << MAX_CODE_LEN;

        // If over budget, lengthen the least frequent symbols first.
        let mut order: Vec<usize> = present.to_vec();
        order.sort_by_key(|&s| freqs[s]);
        let mut guard = 0;
        while kraft(lengths, present) > budget && guard < 1_000_000 {
            guard += 1;
            let mut changed = false;
            for &s in &order {
                if lengths[s] < MAX_CODE_LEN {
                    lengths[s] += 1;
                    changed = true;
                    if kraft(lengths, present) <= budget {
                        break;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // If under budget, shorten the most frequent symbols (improves efficiency but is
        // not required for correctness).
        let mut guard = 0;
        loop {
            guard += 1;
            if guard > 10_000 {
                break;
            }
            let mut improved = false;
            for &s in order.iter().rev() {
                if lengths[s] > 1 {
                    let gain = unit(lengths[s] - 1) - unit(lengths[s]);
                    if kraft(lengths, present) + gain <= budget {
                        lengths[s] -= 1;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }

    /// Assigns canonical code values given per-symbol lengths.
    fn assign_codes(lengths: [u8; 256]) -> Self {
        let mut codes = [0u16; 256];
        // Canonical order: by (length, symbol).
        let mut symbols: Vec<usize> = (0..256).filter(|&s| lengths[s] > 0).collect();
        symbols.sort_by_key(|&s| (lengths[s], s));
        let mut code = 0u32;
        let mut prev_len = 0u8;
        for &s in &symbols {
            let len = lengths[s];
            code <<= len - prev_len;
            codes[s] = code as u16;
            code += 1;
            prev_len = len;
        }

        // Decode tables, from the `(length, code)` pairs assigned above whatever the lengths
        // were: a table read from a corrupt header can be over-subscribed, and then some
        // codes do not fit their length (those can never match and are left out) and a
        // 16-bit-truncated long code can repeat a shorter one (decode searches lengths in
        // ascending order, as a bit-by-bit search would). Codes that do fit are assigned in
        // ascending order of their left-aligned value, so the short ones claim disjoint
        // ranges of the lookup table.
        let mut lut = Box::new([0u16; 1 << LUT_BITS]);
        let mut long_codes = Vec::new();
        for &s in &symbols {
            let (len, code) = (lengths[s], codes[s]);
            if len > MAX_CODE_LEN || u32::from(code) >> len != 0 {
                continue;
            }
            if len > LUT_BITS {
                long_codes.push((len, code, s as u8));
                continue;
            }
            let spare = LUT_BITS - len;
            let first = usize::from(code) << spare;
            let range = &mut lut[first..first + (1 << spare)];
            debug_assert!(range.iter().all(|&slot| slot == 0), "short codes are prefix-free");
            range.fill(u16::from(len) << 8 | s as u16);
        }
        long_codes.sort_unstable();
        HuffmanCode { lengths, codes, lut, long_codes }
    }

    /// Reconstructs a code from a stored length table (as written by [`Self::write_table`]).
    pub fn from_lengths(lengths: [u8; 256]) -> Self {
        Self::assign_codes(lengths)
    }

    /// Per-symbol code lengths.
    pub fn lengths(&self) -> &[u8; 256] {
        &self.lengths
    }

    /// Encodes one symbol into the writer.
    ///
    /// # Panics
    /// Panics if the symbol has no code (zero frequency at build time).
    pub fn encode(&self, symbol: u8, writer: &mut BitWriter) {
        let len = self.lengths[symbol as usize];
        assert!(len > 0, "symbol {symbol} has no code");
        writer.write_bits(u32::from(self.codes[symbol as usize]), len);
    }

    /// Decodes one symbol from the reader, or `None` on end of stream / unknown code.
    ///
    /// Entropy decoding is the larger part of applying a scan, so this is table-driven
    /// (the crate-private `lookup`). For every table and every byte string the result — and
    /// the number of bits consumed, also on `None` — is what matching the stream bit by
    /// bit against all 256 codes gives (the test-only `decode_linear`, which this
    /// replaced): `None` after consuming what is left when the stream ends inside a code,
    /// `None` after 16 bits when no code matches.
    #[inline]
    pub fn decode(&self, reader: &mut BitReader<'_>) -> Option<u8> {
        let (window, available) = reader.peek();
        match self.lookup(window, available) {
            Ok((symbol, len)) => {
                reader.consume(len);
                Some(symbol)
            }
            Err(skipped) => {
                reader.consume(skipped);
                None
            }
        }
    }

    /// Matches the code at the top of `window` (left-aligned stream bits, of which
    /// `available` are really there and the rest read as zeros past the stream's end):
    /// `Ok((symbol, code length))`, or `Err(bits)` with the bits [`decode`](Self::decode)
    /// consumes when nothing matches. Nothing is consumed here, so a caller can take the
    /// amplitude bits that follow the code from the same window.
    ///
    /// One lookup of the next `LUT_BITS` (9) bits resolves every code that short; longer
    /// codes are searched by length in a sorted list.
    #[inline]
    pub(crate) fn lookup(&self, window: u64, available: u32) -> Result<(u8, u32), u32> {
        let entry = self.lut[(window >> (64 - LUT_BITS)) as usize];
        let len = u32::from(entry >> 8);
        if len != 0 {
            if len <= available {
                return Ok((entry as u8, len));
            }
            // The shortest match leans on the zero padding past the end of the stream, so
            // no code matches the bits that are really there.
            return Err(available);
        }
        for len in LUT_BITS + 1..=MAX_CODE_LEN {
            if u32::from(len) > available {
                return Err(available);
            }
            let code = (window >> (64 - len)) as u16;
            let at = self.long_codes.partition_point(|&(l, c, _)| (l, c) < (len, code));
            if let Some(&(l, c, symbol)) = self.long_codes.get(at) {
                if (l, c) == (len, code) {
                    return Ok((symbol, u32::from(len)));
                }
            }
        }
        Err(u32::from(MAX_CODE_LEN))
    }

    /// Serializes the table in the compact JPEG `DHT` layout: 16 bytes holding the number
    /// of codes of each length (1–16) followed by the symbols in canonical order.
    pub fn write_table(&self, out: &mut Vec<u8>) {
        let mut counts = [0u8; MAX_CODE_LEN as usize];
        let mut symbols: Vec<usize> = (0..256).filter(|&s| self.lengths[s] > 0).collect();
        symbols.sort_by_key(|&s| (self.lengths[s], s));
        for &s in &symbols {
            counts[self.lengths[s] as usize - 1] += 1;
        }
        out.extend_from_slice(&counts);
        out.extend(symbols.iter().map(|&s| s as u8));
    }

    /// Reads a table previously written by [`Self::write_table`], returning the code and
    /// the number of bytes consumed.
    pub fn read_table(bytes: &[u8]) -> Option<(Self, usize)> {
        if bytes.len() < MAX_CODE_LEN as usize {
            return None;
        }
        let counts = &bytes[..MAX_CODE_LEN as usize];
        let total: usize = counts.iter().map(|&c| c as usize).sum();
        let needed = MAX_CODE_LEN as usize + total;
        if bytes.len() < needed {
            return None;
        }
        let mut lengths = [0u8; 256];
        let mut idx = MAX_CODE_LEN as usize;
        for (len_minus_one, &count) in counts.iter().enumerate() {
            for _ in 0..count {
                lengths[bytes[idx] as usize] = len_minus_one as u8 + 1;
                idx += 1;
            }
        }
        Some((Self::from_lengths(lengths), needed))
    }

    /// Total coded size in bits for a symbol histogram (excluding the table header).
    pub fn coded_bits(&self, freqs: &[u64; 256]) -> u64 {
        freqs.iter().enumerate().map(|(s, &f)| f * u64::from(self.lengths[s])).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xorshift;

    fn histogram(symbols: &[u8]) -> [u64; 256] {
        let mut freqs = [0u64; 256];
        for &s in symbols {
            freqs[s as usize] += 1;
        }
        freqs
    }

    fn round_trip(symbols: &[u8]) {
        let freqs = histogram(symbols);
        let code = HuffmanCode::from_frequencies(&freqs);
        let mut writer = BitWriter::new();
        for &s in symbols {
            code.encode(s, &mut writer);
        }
        let bytes = writer.finish();
        let mut reader = BitReader::new(&bytes);
        for &s in symbols {
            assert_eq!(code.decode(&mut reader), Some(s));
        }
    }

    #[test]
    fn round_trip_skewed_distribution() {
        let mut symbols = vec![0u8; 400];
        symbols.extend(vec![1u8; 100]);
        symbols.extend(vec![7u8; 30]);
        symbols.extend(vec![200u8; 3]);
        symbols.extend((0..50u8).collect::<Vec<_>>());
        round_trip(&symbols);
    }

    #[test]
    fn round_trip_single_symbol() {
        round_trip(&[42u8; 64]);
    }

    #[test]
    fn round_trip_uniform_all_symbols() {
        let symbols: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        round_trip(&symbols);
    }

    #[test]
    fn empty_histogram_has_no_codes() {
        let code = HuffmanCode::from_frequencies(&[0; 256]);
        assert!(code.lengths().iter().all(|&l| l == 0));
    }

    #[test]
    fn skewed_code_is_shorter_than_fixed_width() {
        let mut symbols = vec![0u8; 1000];
        symbols.extend(vec![1u8; 10]);
        symbols.extend(vec![2u8; 5]);
        let freqs = histogram(&symbols);
        let code = HuffmanCode::from_frequencies(&freqs);
        let bits = code.coded_bits(&freqs);
        // Fixed 8-bit coding would take 8 * 1015 bits; entropy coding must beat 2 bits/symbol.
        assert!(bits < 2 * 1015, "coded bits {bits}");
    }

    #[test]
    fn prefix_property_holds() {
        let mut symbols: Vec<u8> = Vec::new();
        for s in 0..40u8 {
            symbols.extend(std::iter::repeat_n(s, 1 + (s as usize % 9) * 11));
        }
        let code = HuffmanCode::from_frequencies(&histogram(&symbols));
        // No code may be a prefix of another.
        for a in 0..256usize {
            if code.lengths[a] == 0 {
                continue;
            }
            for b in 0..256usize {
                if a == b || code.lengths[b] == 0 || code.lengths[a] > code.lengths[b] {
                    continue;
                }
                let shift = code.lengths[b] - code.lengths[a];
                assert!((code.codes[b] >> shift) != code.codes[a], "code {a} is a prefix of {b}");
            }
        }
    }

    #[test]
    fn table_round_trip() {
        let freqs = histogram(&[1, 1, 1, 2, 2, 3, 9, 9, 9, 9]);
        let code = HuffmanCode::from_frequencies(&freqs);
        let mut table = Vec::new();
        code.write_table(&mut table);
        // 16 count bytes + one byte per distinct symbol (4 distinct symbols here).
        assert_eq!(table.len(), 16 + 4);
        let (decoded, consumed) = HuffmanCode::read_table(&table).unwrap();
        assert_eq!(consumed, table.len());
        assert_eq!(decoded.lengths(), code.lengths());
        assert!(HuffmanCode::read_table(&table[..10]).is_none());
        assert!(HuffmanCode::read_table(&table[..17]).is_none());
    }

    #[test]
    fn decode_rejects_garbage() {
        let freqs = histogram(&[5, 5, 6]);
        let code = HuffmanCode::from_frequencies(&freqs);
        // A stream of bits that cannot all resolve to symbols eventually returns None.
        let garbage = vec![0xAA; 1];
        let mut reader = BitReader::new(&garbage);
        let mut decoded = 0;
        while code.decode(&mut reader).is_some() {
            decoded += 1;
            assert!(decoded < 64, "decode must terminate");
        }
    }

    impl HuffmanCode {
        /// The decoder `decode` replaced, kept as its oracle: extend the code one bit at a
        /// time and scan all 256 symbols for a match at each length.
        fn decode_linear(&self, reader: &mut BitReader<'_>) -> Option<u8> {
            let mut code = 0u32;
            for len in 1..=MAX_CODE_LEN {
                code = (code << 1) | u32::from(reader.read_bit()?);
                for s in 0..256usize {
                    if self.lengths[s] == len && u32::from(self.codes[s]) == code {
                        return Some(s as u8);
                    }
                }
            }
            None
        }
    }

    /// Decodes `bytes` to exhaustion with both decoders: same symbol or `None` at every
    /// step, and the reader left at the same bit after each.
    fn assert_decoders_agree(code: &HuffmanCode, bytes: &[u8], context: &str) {
        let mut fast = BitReader::new(bytes);
        let mut slow = BitReader::new(bytes);
        for step in 0.. {
            let got = code.decode(&mut fast);
            let expected = code.decode_linear(&mut slow);
            assert_eq!(got, expected, "{context}: symbol {step}");
            assert_eq!(fast.remaining_bits(), slow.remaining_bits(), "{context}: after {step}");
            if slow.remaining_bits() == 0 {
                assert_eq!(code.decode(&mut fast), code.decode_linear(&mut slow), "{context}");
                break;
            }
        }
    }

    /// Random bitstreams for `code`: noise of every short length, and — when the code can
    /// encode at all — valid symbol streams cut at a random byte.
    fn assert_agree_on_streams(code: &HuffmanCode, rng: &mut Xorshift, context: &str) {
        for len in 0..24 {
            assert_decoders_agree(code, &rng.bytes(len), &format!("{context} noise {len}"));
        }
        let present: Vec<u8> = (0..=255u8).filter(|&s| code.lengths[s as usize] > 0).collect();
        if present.is_empty() || present.iter().any(|&s| code.lengths[s as usize] > MAX_CODE_LEN) {
            return;
        }
        for case in 0..8 {
            let mut writer = BitWriter::new();
            for _ in 0..rng.below(200) {
                code.encode(present[rng.below(present.len() as u64) as usize], &mut writer);
            }
            let mut bytes = writer.finish();
            assert_decoders_agree(code, &bytes, &format!("{context} valid {case}"));
            bytes.truncate(rng.below(bytes.len() as u64 + 1) as usize);
            assert_decoders_agree(code, &bytes, &format!("{context} truncated {case}"));
        }
    }

    #[test]
    fn table_decoder_matches_linear_scan_on_encoder_tables() {
        // Kraft-satisfying tables as the encoder builds them: skewed, flat, sparse, and
        // with codes on both sides of the lookup width.
        let mut rng = Xorshift(0x5eed_0001);
        for case in 0..40 {
            let mut freqs = [0u64; 256];
            let distinct = 1 + rng.below(256);
            for _ in 0..distinct {
                let skew = rng.below(20);
                freqs[rng.below(256) as usize] += 1 + rng.below(1 << skew);
            }
            let code = HuffmanCode::from_frequencies(&freqs);
            assert_agree_on_streams(&code, &mut rng, &format!("encoder table {case}"));
        }
    }

    #[test]
    fn table_decoder_matches_linear_scan_on_arbitrary_length_tables() {
        // `from_lengths` accepts what no encoder writes: over-subscribed lengths make codes
        // collide, nest inside one another, and overflow their own width.
        let mut rng = Xorshift(0x5eed_0002);
        for case in 0..60 {
            let mut lengths = [0u8; 256];
            let max_len = 1 + rng.below(u64::from(MAX_CODE_LEN));
            for _ in 0..1 + rng.below(256) {
                lengths[rng.below(256) as usize] = 1 + rng.below(max_len) as u8;
            }
            let code = HuffmanCode::from_lengths(lengths);
            assert_agree_on_streams(&code, &mut rng, &format!("length table {case}"));
        }
        // All 256 symbols at one length, for every length.
        for len in 1..=MAX_CODE_LEN {
            let code = HuffmanCode::from_lengths([len; 256]);
            assert_agree_on_streams(&code, &mut rng, &format!("flat table {len}"));
        }
    }

    #[test]
    fn table_decoder_matches_linear_scan_on_corrupt_headers() {
        // What `read_table` makes of a damaged scan header: counts that no longer describe
        // a prefix code, and symbols listed twice (the later length wins).
        let mut rng = Xorshift(0x5eed_0003);
        let mut parsed = 0;
        for case in 0..120 {
            let mut header = vec![0u8; MAX_CODE_LEN as usize];
            for count in &mut header {
                if rng.below(3) == 0 {
                    *count = rng.below(40) as u8;
                }
            }
            let listed: usize = header.iter().map(|&c| c as usize).sum();
            let alphabet = 1 + rng.below(256);
            header.extend((0..listed).map(|_| rng.below(alphabet) as u8));
            if let Some(bit) = rng.below(header.len() as u64 * 8).checked_sub(64) {
                header[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
            header.extend(rng.bytes(32));
            let Some((code, _)) = HuffmanCode::read_table(&header) else { continue };
            parsed += 1;
            assert_agree_on_streams(&code, &mut rng, &format!("corrupt header {case}"));
        }
        assert!(parsed > 60, "only {parsed} corrupt headers parsed");
    }
}
