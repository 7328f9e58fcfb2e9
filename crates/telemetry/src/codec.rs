//! A small LZ77 block codec (Ziv & Lempel, 1977) for the flight recorder's
//! sealed chunks of trace lines.
//!
//! A block is a run of sequences in LZ4's layout.  Each sequence starts
//! with a token byte: its high nibble counts the literal bytes that follow,
//! its low nibble the match length minus [`MIN_MATCH`].  A nibble of 15
//! means "15 plus the extension bytes": bytes of 255 and one final byte
//! under 255, all added up.  The token is followed by the literal count's
//! extension, the literals, the match's offset back from the end of the
//! output so far (two bytes, little-endian, 1 to [`MAX_OFFSET`]) and the
//! match length's extension.  The last sequence may stop right after its
//! literals, and an empty input is an empty block.
//!
//! A match may overlap the bytes it produces (an offset shorter than its
//! length repeats the last `offset` bytes), so the decoder copies such a
//! match byte by byte, front to back.

/// The shortest match the encoder emits.
const MIN_MATCH: usize = 4;

/// The farthest back a match may reach.
const MAX_OFFSET: usize = u16::MAX as usize;

/// The positions one match search can reach, and the length of the
/// encoder's ring of chain links.
const WINDOW: usize = MAX_OFFSET + 1;

/// The encoder's hash table has `1 << HASH_BITS` heads, each the latest
/// position whose next four bytes hashed there.  Its stack pages stay
/// resident once touched, and 14 bits pack the trace below only 0.2%
/// tighter for 48 KiB more of them.
const HASH_BITS: u32 = 12;

/// The most earlier positions the encoder tries for one match.
const CHAIN_DEPTH: usize = 16;

/// The nibble value that says extension bytes follow.
const NIBBLE_MAX: usize = 15;

/// Appends the block encoding `input` to `out`.
///
/// The encoder parses as DEFLATE does (RFC 1951, section 4): it links
/// every position to the previous one whose next four bytes hash alike,
/// and at each position it tries it walks that chain back, at most
/// [`CHAIN_DEPTH`] links and [`MAX_OFFSET`] bytes, for the longest match.
/// Before it takes a match it tries the next position too (a one-step
/// lazy check): when that one matches longer, the byte at this position
/// joins the literals and the longer match is checked against its own
/// next position in turn.  The chains' depth and the lazy check are measured
/// on the 14.2 MB trace of a seed-42 fleetbench `diurnal-traced` run, in
/// its recorder's 64 KiB chunks, on one x86-64 core: 16 links with the
/// check pack 11.9x at about 100 MB/s; 8 links pack 11.6x, 32 links
/// 12.1x at three quarters of the speed, and 16 links without the check
/// 10.8x.  Keeping only the latest position per hash and taking its
/// match greedily packs 8.8x at about 700 MB/s.
///
/// # Panics
///
/// Panics if `input` is longer than `u32::MAX` bytes.
pub(crate) fn compress(input: &[u8], out: &mut Vec<u8>) {
    assert!(u32::try_from(input.len()).is_ok(), "a block holds at most u32::MAX bytes");
    let mut chains = Chains { head: [0; 1 << HASH_BITS], links: [0; WINDOW], linked: 0 };
    let mut anchor = 0;
    let mut at = 0;
    let mut ahead = None;
    while at + MIN_MATCH <= input.len() {
        let Some(here) = ahead.take().or_else(|| chains.longest(input, at)) else {
            at += 1;
            continue;
        };
        let next = chains.longest(input, at + 1);
        if next.is_some_and(|(_, len)| len > here.1) {
            ahead = next;
            at += 1;
            continue;
        }
        write_sequence(out, &input[anchor..at], Some(here));
        at += here.1;
        anchor = at;
    }
    if anchor < input.len() {
        write_sequence(out, &input[anchor..], None);
    }
}

/// The encoder's match finder: hash chains over every position of one
/// input, linked in order as the search moves forward.  Its 144 KiB live
/// on the stack of one [`compress`] call, so the flight recorder holds no
/// heap for them.
struct Chains {
    /// Per hash, the latest linked position plus one (zero: none yet).
    head: [u32; 1 << HASH_BITS],
    /// Per position modulo [`WINDOW`], how far back the previous position
    /// with the same hash lies (zero: none within [`MAX_OFFSET`]).  A
    /// position's link is overwritten only [`WINDOW`] bytes later, when
    /// no search can reach it any more.
    links: [u16; WINDOW],
    /// Positions before this one are linked.
    linked: usize,
}

impl Chains {
    /// The longest match for the bytes at `at`, as `(offset, length)`,
    /// among the [`CHAIN_DEPTH`] nearest earlier positions on its chain;
    /// the nearest of equally long ones.  Links every position before
    /// `at` first.
    fn longest(&mut self, input: &[u8], at: usize) -> Option<(usize, usize)> {
        if at + MIN_MATCH > input.len() {
            return None;
        }
        for position in self.linked..at {
            let head = &mut self.head[hash(quad(input, position))];
            let back = position + 1 - *head as usize;
            self.links[position % WINDOW] =
                if *head != 0 && back <= MAX_OFFSET { back as u16 } else { 0 };
            *head = position as u32 + 1;
        }
        self.linked = self.linked.max(at);
        let key = quad(input, at);
        let mut best: Option<(usize, usize)> = None;
        let mut candidate = (self.head[hash(key)] as usize).checked_sub(1);
        for _ in 0..CHAIN_DEPTH {
            let Some(from) = candidate.filter(|&from| at - from <= MAX_OFFSET) else {
                break;
            };
            let best_len = best.map_or(0, |(_, len)| len);
            // Only a match that also agrees on the byte just past the best
            // one can be longer, and none can once the best reaches the end.
            let Some(&after) = input.get(at + best_len) else {
                break;
            };
            if input[from + best_len] == after && quad(input, from) == key {
                let len =
                    MIN_MATCH + common_prefix(&input[from + MIN_MATCH..], &input[at + MIN_MATCH..]);
                if len > best_len {
                    best = Some((at - from, len));
                }
            }
            let back = usize::from(self.links[from % WINDOW]);
            candidate = (back != 0).then(|| from - back);
        }
        best
    }
}

/// Decodes `block` into the front of `out` and returns the decoded length,
/// or `None` if the block is malformed or decodes to more than `out` holds.
pub(crate) fn decompress(block: &[u8], out: &mut [u8]) -> Option<usize> {
    let mut at = 0;
    let mut written = 0;
    while at < block.len() {
        let token = usize::from(block[at]);
        at += 1;
        let literals = read_length(block, &mut at, token >> 4)?;
        let source = block.get(at..at.checked_add(literals)?)?;
        out.get_mut(written..written + literals)?.copy_from_slice(source);
        at += literals;
        written += literals;
        if at == block.len() {
            break;
        }
        let offset = usize::from(u16::from_le_bytes([*block.get(at)?, *block.get(at + 1)?]));
        at += 2;
        let len = read_length(block, &mut at, token & NIBBLE_MAX)? + MIN_MATCH;
        if offset == 0 || offset > written || len > out.len() - written {
            return None;
        }
        let from = written - offset;
        if offset >= len {
            out.copy_within(from..from + len, written);
        } else {
            for i in 0..len {
                out[written + i] = out[from + i];
            }
        }
        written += len;
    }
    Some(written)
}

/// Appends one sequence: `literals`, then the `(offset, length)` match if
/// there is one.
fn write_sequence(out: &mut Vec<u8>, literals: &[u8], matched: Option<(usize, usize)>) {
    let extra = matched.map_or(0, |(_, len)| len - MIN_MATCH);
    out.push((literals.len().min(NIBBLE_MAX) << 4 | extra.min(NIBBLE_MAX)) as u8);
    write_length(out, literals.len());
    out.extend_from_slice(literals);
    if let Some((offset, _)) = matched {
        let offset = u16::try_from(offset).expect("a match reaches back at most MAX_OFFSET");
        out.extend_from_slice(&offset.to_le_bytes());
        write_length(out, extra);
    }
}

/// Appends the extension bytes of a length whose nibble was `n.min(15)`.
fn write_length(out: &mut Vec<u8>, n: usize) {
    let Some(mut rest) = n.checked_sub(NIBBLE_MAX) else {
        return;
    };
    while rest >= 255 {
        out.push(255);
        rest -= 255;
    }
    out.push(rest as u8);
}

/// Reads the length a token `nibble` starts, with its extension bytes.
fn read_length(block: &[u8], at: &mut usize, nibble: usize) -> Option<usize> {
    let mut n = nibble;
    if nibble == NIBBLE_MAX {
        loop {
            let byte = *block.get(*at)?;
            *at += 1;
            n = n.checked_add(usize::from(byte))?;
            if byte != 255 {
                break;
            }
        }
    }
    Some(n)
}

/// The four bytes at `at`.
fn quad(input: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([input[at], input[at + 1], input[at + 2], input[at + 3]])
}

/// The match-table slot of four bytes (Knuth's multiplicative hash).
fn hash(quad: u32) -> usize {
    (quad.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

/// How many leading bytes `a` and `b` share, compared eight at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("eight bytes"));
        let differ = word(x) ^ word(y);
        if differ != 0 {
            return n + differ.trailing_zeros() as usize / 8;
        }
        n += 8;
    }
    n + a[n..].iter().zip(&b[n..]).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_sim::SimRng;

    /// Compresses `input`, decodes it into a buffer of exactly its size and
    /// returns the block.
    fn round_trip(input: &[u8]) -> Vec<u8> {
        let mut block = Vec::new();
        compress(input, &mut block);
        let mut out = vec![0u8; input.len()];
        assert_eq!(decompress(&block, &mut out), Some(input.len()), "decoded length");
        assert!(out == input, "the block of {} bytes decodes to other bytes", input.len());
        block
    }

    /// Bytes drawn from `alphabet` symbols, `len` of them.
    fn random_bytes(rng: &mut SimRng, len: usize, alphabet: usize) -> Vec<u8> {
        (0..len).map(|_| rng.index(alphabet) as u8).collect()
    }

    #[test]
    fn empty_and_single_byte_inputs_round_trip() {
        assert!(round_trip(b"").is_empty());
        for byte in [0u8, b'{', 255] {
            assert_eq!(round_trip(&[byte]), vec![0x10, byte]);
        }
    }

    #[test]
    fn arbitrary_bytes_round_trip() {
        let mut rng = SimRng::new(7);
        for case in 0..400 {
            let len = rng.index(if case % 10 == 0 { 70_000 } else { 600 });
            // From incompressible noise down to long runs of one byte.
            let alphabet = [256, 16, 4, 2, 1][case % 5];
            round_trip(&random_bytes(&mut rng, len, alphabet));
        }
    }

    #[test]
    fn incompressible_data_grows_by_its_framing_only() {
        let mut rng = SimRng::new(11);
        let input = random_bytes(&mut rng, 50_000, 256);
        let block = round_trip(&input);
        assert!(block.len() <= input.len() + input.len() / 255 + 16, "{} B", block.len());
    }

    #[test]
    fn long_literal_runs_and_matches_use_extension_bytes() {
        let mut rng = SimRng::new(13);
        for len in [14, 15, 16, 15 + 254, 15 + 255, 15 + 256, 15 + 3 * 255, 5000] {
            // Literals alone: every length of extension.
            let noise = random_bytes(&mut rng, len, 256);
            round_trip(&noise);
            // A match of `len + MIN_MATCH` bytes after the noise.
            let mut repeated = noise.clone();
            repeated.extend_from_slice(&noise[..len.min(noise.len())]);
            repeated.extend_from_slice(&random_bytes(&mut rng, MIN_MATCH, 256));
            round_trip(&repeated);
        }
    }

    #[test]
    fn overlapping_matches_repeat_their_last_bytes() {
        for period in [1, 2, 3, 7, 64] {
            for len in [MIN_MATCH, 15 + MIN_MATCH, 15 + 255 + MIN_MATCH, 10_000] {
                let input: Vec<u8> = (0..period + len).map(|i| b'a' + (i % period) as u8).collect();
                let block = round_trip(&input);
                assert!(
                    block.len() <= period + 8 + len / 250,
                    "period {period}: {} B",
                    block.len()
                );
            }
        }
    }

    #[test]
    fn matches_reach_the_largest_offset_and_no_farther() {
        let mut rng = SimRng::new(17);
        let head = random_bytes(&mut rng, 64, 256);
        // `head`, a run of zeros (one overlapping match) and `head` again,
        // whose repeat starts `offset` bytes after the first.
        let block_at = |offset: usize| {
            let mut input = head.clone();
            input.resize(offset, 0);
            input.extend_from_slice(&head);
            round_trip(&input).len()
        };
        let (nearer, largest, beyond) =
            (block_at(MAX_OFFSET - 1), block_at(MAX_OFFSET), block_at(MAX_OFFSET + 1));
        assert!(
            largest <= nearer + 1,
            "at the largest offset: {largest} B, one nearer: {nearer} B"
        );
        assert!(beyond >= largest + 50, "one past it: {beyond} B, at it: {largest} B");
    }

    #[test]
    fn malformed_blocks_are_rejected_not_trusted() {
        let mut out = [0u8; 8];
        // A match before any output, a zero offset, a truncated offset.
        assert_eq!(decompress(&[0x00, 1, 0], &mut out), None);
        assert_eq!(decompress(&[0x10, b'a', 0, 0], &mut out), None);
        assert_eq!(decompress(&[0x10, b'a', 1], &mut out), None);
        // More literals than the block holds, more output than fits.
        assert_eq!(decompress(&[0x30, b'a'], &mut out), None);
        assert_eq!(decompress(&[0x1f, b'a', 1, 0, 10], &mut out), None);
        assert_eq!(decompress(&[0x10, b'a', 1, 0], &mut out), Some(5));
        assert_eq!(&out[..5], b"aaaaa");
    }

    #[test]
    fn trace_lines_compress_several_fold() {
        let mut text = String::new();
        for i in 0..500 {
            text.push_str(&format!(
                "{{\"t\":{}.000000,\"scope\":\"fleet\",\"kind\":\"wake\",\"server\":{},\
                 \"reasons\":\"load-delta\",\"full_windows\":4,\"fast_windows\":0}}\n",
                15 * (i / 40),
                i * 37 % 200
            ));
        }
        let block = round_trip(text.as_bytes());
        // 20.0x; a one-slot greedy parse packs 14.7x and fails this.
        assert!(block.len() * 18 < text.len(), "{} B of {} B", block.len(), text.len());
    }

    /// The `i`-th line of a fleet-shaped trace: leaf wakes and controller
    /// decisions at a time that steps every 40 lines.
    fn trace_line(rng: &mut SimRng, i: usize) -> String {
        let t = 15 * (i / 40);
        let server = rng.index(10_000);
        match rng.index(3) {
            0 => format!(
                "{{\"t\":{t}.000000,\"scope\":\"fleet\",\"kind\":\"wake\",\"server\":{server},\
                 \"reasons\":\"{}\",\"full_windows\":{},\"fast_windows\":{}}}\n",
                ["load-delta", "job-arrival+load-delta", "controller-poll"][rng.index(3)],
                rng.index(5),
                rng.index(5)
            ),
            1 => format!(
                "{{\"t\":{t}.000000,\"scope\":\"core\",\"kind\":\"core_mem\",\"server\":{server},\
                 \"be_cores\":{},\"be_ways\":{},\"phase\":\"grow_cores\",\"slack\":{:.6}}}\n",
                rng.index(30),
                rng.index(20),
                rng.uniform()
            ),
            _ => format!(
                "{{\"t\":{t}.000000,\"scope\":\"core\",\"kind\":\"network\",\"server\":{server},\
                 \"net_ceil_gbps\":{:.6},\"shaped\":{}}}\n",
                10.0 * rng.uniform(),
                rng.index(2) == 1
            ),
        }
    }

    #[test]
    fn full_chunks_of_trace_lines_round_trip() {
        let mut rng = SimRng::new(19);
        let mut i = 0;
        for _ in 0..4 {
            // Whole lines up to a recorder chunk of 64 KiB.
            let mut chunk = String::new();
            loop {
                let line = trace_line(&mut rng, i);
                if chunk.len() + line.len() > 64 << 10 {
                    break;
                }
                chunk.push_str(&line);
                i += 1;
            }
            assert!(chunk.len() > (64 << 10) - 200, "{} B", chunk.len());
            let block = round_trip(chunk.as_bytes());
            // 6.7-6.8x; a one-slot greedy parse packs 4.6-4.7x.
            assert!(block.len() * 6 < chunk.len(), "{} B of {} B", block.len(), chunk.len());
        }
    }

    #[test]
    fn the_longest_match_is_found_down_the_chain() {
        let mut rng = SimRng::new(23);
        let target = random_bytes(&mut rng, 300, 256);
        // The target, then a five-byte decoy of each of its positions,
        // each followed by noise: the latest position sharing any of the
        // target's four-byte keys is a decoy, a match of at most 5 bytes.
        let mut input = target.clone();
        for k in 0..target.len() - 5 {
            input.extend_from_slice(&target[k..k + 5]);
            input.extend_from_slice(&random_bytes(&mut rng, 3, 256));
        }
        let before = round_trip(&input).len();
        input.extend_from_slice(&target);
        let after = round_trip(&input).len();
        // One match back to the first copy adds an offset and two length
        // extension bytes to the token the trailing noise already has; a
        // parse taking decoys pays a sequence per five bytes.
        assert!(after <= before + 4, "the repeat costs {} B", after - before);
    }
}
