//! A small LZ77 block codec (Ziv & Lempel, 1977) whose symbols are
//! Huffman-coded (Huffman, 1952), for the flight recorder's sealed chunks
//! of trace lines.  It lays the parse out as DEFLATE's dynamic blocks do
//! (RFC 1951, section 3.2.7), with distances that reach 64 KiB.
//!
//! A block is one stream of bits, packed into bytes from the least
//! significant bit up; a Huffman code is sent from its first bit.  It
//! holds, in order:
//!
//! 1. the code lengths of the code-length code: 3 bits for each of its 19
//!    symbols;
//! 2. through that code, the code lengths of the literal/length code
//!    ([`LITLEN_SYMBOLS`] symbols) and then of the distance code
//!    ([`BUCKETS`] symbols), each from 0 (unused) to
//!    [`MAX_CODE_LEN`].  Symbols 0–15 are a length; 16 repeats the last
//!    length 3–6 times (2 extra bits), 17 writes 3–10 zeros (3 extra bits)
//!    and 18 writes 11–138 zeros (7 extra bits);
//! 3. the parse: a literal byte is its literal/length symbol (0–255); a
//!    match is a length symbol (from 257) and its extra bits, then a
//!    distance symbol and its extra bits; symbol 256 ends the block;
//! 4. zero bits up to the next byte boundary.
//!
//! Each code is canonical: its code lengths alone define it.  A length
//! symbol or distance symbol names a bucket of values and the extra bits
//! say which value: see [`bucket`].  A match may overlap the bytes it
//! produces (an offset shorter than its length repeats the last `offset`
//! bytes), so the decoder copies such a match byte by byte, front to back.

/// The shortest match the encoder emits.
const MIN_MATCH: usize = 4;

/// The longest match: its length less [`MIN_MATCH`] fits 16 bits.
const MAX_MATCH: usize = MIN_MATCH + u16::MAX as usize;

/// The farthest back a match may reach.
const MAX_OFFSET: usize = u16::MAX as usize;

/// The positions one match search can reach, and the length of the
/// encoder's ring of chain links.
const WINDOW: usize = MAX_OFFSET + 1;

/// The encoder's hash table has `1 << HASH_BITS` heads, each the latest
/// position whose next four bytes hashed there.  Its stack pages stay
/// resident once touched, and 14 bits packed the trace below only 0.2%
/// tighter (in LZ4's byte layout) for 48 KiB more of them.
const HASH_BITS: u32 = 12;

/// The most earlier positions the encoder tries for one match.
const CHAIN_DEPTH: usize = 16;

/// The longest code of the literal/length and distance codes.
const MAX_CODE_LEN: usize = 15;

/// The longest code of the code-length code, which a block sends in 3 bits.
const MAX_CODE_LEN_LEN: usize = 7;

/// The literal/length symbol that ends a block.
const END: usize = 256;

/// A match length (less [`MIN_MATCH`]) or distance (less one) is sent as
/// its bucket's symbol and extra bits (see [`bucket`]); each power of two
/// splits into `1 << FINE` buckets.  On the trace below, finer buckets for
/// both pack 0.4% tighter than DEFLATE's split of four per power of two
/// for lengths and two for distances.
const FINE: u32 = 2;

/// The buckets of a value below 2^16.
const BUCKETS: usize = (17 - FINE as usize) << FINE;

/// The symbols of the literal/length code: 256 literals, [`END`] and the
/// length buckets.  The distance code's symbols are the [`BUCKETS`].
const LITLEN_SYMBOLS: usize = END + 1 + BUCKETS;

/// The symbols of the code-length code.
const CODE_LEN_SYMBOLS: usize = 19;

/// Codes up to this long decode through one table lookup; longer ones walk
/// the code's canonical counts.
const FAST_BITS: usize = 10;

/// Appends the block encoding `input` to `out`.
///
/// The encoder parses as DEFLATE does (RFC 1951, section 4): it links
/// every position to the previous one whose next four bytes hash alike,
/// and at each position it tries it walks that chain back, at most
/// [`CHAIN_DEPTH`] links and [`MAX_OFFSET`] bytes, for the longest match.
/// Before it takes a match it tries the next position too (a one-step
/// lazy check): when that one matches longer, the byte at this position
/// joins the literals and the longer match is checked against its own
/// next position in turn.  It then counts the parse's symbols and codes
/// them with the block's own Huffman codes.  Measured on the 14.2 MB
/// trace of a seed-42 fleetbench `diurnal-traced` run, in its recorder's
/// 64 KiB chunks, on one x86-64 core: the chunks pack 16.8x (844,016 B)
/// at 80-120 MB/s, where the same parse in LZ4's byte layout packed 11.9x
/// at the same speed and zlib at level 9 packs 16.9x.  In LZ4's layout, 8
/// links packed 11.6x, 32 links 12.1x at three quarters of the speed, and
/// 16 links without the lazy check 10.8x.
///
/// # Panics
///
/// Panics if `input` is longer than `u32::MAX` bytes.
pub(crate) fn compress(input: &[u8], out: &mut Vec<u8>) {
    assert!(u32::try_from(input.len()).is_ok(), "a block holds at most u32::MAX bytes");
    let sequences = parse(input);
    let mut litlen = [0u32; LITLEN_SYMBOLS];
    let mut distance = [0u32; BUCKETS];
    for token in tokens(input, &sequences) {
        match token {
            Token::Literal(byte) => litlen[usize::from(byte)] += 1,
            Token::Match { len, offset } => {
                litlen[END + 1 + bucket(len - MIN_MATCH).0] += 1;
                distance[bucket(offset - 1).0] += 1;
            }
            Token::End => litlen[END] += 1,
        }
    }
    let mut lengths = [0u8; LITLEN_SYMBOLS + BUCKETS];
    code_lengths(&litlen, MAX_CODE_LEN, &mut lengths[..LITLEN_SYMBOLS]);
    code_lengths(&distance, MAX_CODE_LEN, &mut lengths[LITLEN_SYMBOLS..]);
    let mut bits = BitWriter { out, acc: 0, filled: 0 };
    write_lengths(&mut bits, &runs_of(&lengths));
    let codes = Codes::new(&lengths);
    tokens(input, &sequences).for_each(|token| codes.put(&mut bits, token));
    bits.flush();
}

/// One step of a parse: literal bytes, then a match of `len` bytes
/// `offset` back (none when `len` is zero).
struct Sequence {
    literals: u32,
    offset: u32,
    len: u32,
}

/// The parse of `input` into sequences, its last one without a match.
fn parse(input: &[u8]) -> Vec<Sequence> {
    let mut sequences = Vec::new();
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
        let (offset, len) = here;
        let literals = (at - anchor) as u32;
        sequences.push(Sequence { literals, offset: offset as u32, len: len as u32 });
        at += len;
        anchor = at;
    }
    sequences.push(Sequence { literals: (input.len() - anchor) as u32, offset: 0, len: 0 });
    sequences
}

/// One symbol of a block's parse, with its extra bits.
#[derive(Debug, Clone, Copy)]
enum Token {
    Literal(u8),
    /// `len` bytes copied from `offset` bytes back.
    Match {
        len: usize,
        offset: usize,
    },
    /// The end of the block.
    End,
}

/// The tokens of `input` as `sequences` parse it, ending in [`Token::End`].
fn tokens<'a>(input: &'a [u8], sequences: &'a [Sequence]) -> impl Iterator<Item = Token> + 'a {
    let mut at = 0;
    let steps = sequences.iter().flat_map(move |sequence| {
        let literals = &input[at..at + sequence.literals as usize];
        at += (sequence.literals + sequence.len) as usize;
        let matched = (sequence.len != 0).then_some(Token::Match {
            len: sequence.len as usize,
            offset: sequence.offset as usize,
        });
        literals.iter().map(|&byte| Token::Literal(byte)).chain(matched)
    });
    steps.chain(std::iter::once(Token::End))
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
    /// the nearest of equally long ones, and at most [`MAX_MATCH`] long.
    /// Links every position before `at` first.
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
            // one can be longer, and none can once the best reaches the
            // end or the longest match.
            let Some(&after) = input.get(at + best_len).filter(|_| best_len < MAX_MATCH) else {
                break;
            };
            if input[from + best_len] == after && quad(input, from) == key {
                let len =
                    MIN_MATCH + common_prefix(&input[from + MIN_MATCH..], &input[at + MIN_MATCH..]);
                if len > best_len {
                    best = Some((at - from, len.min(MAX_MATCH)));
                }
            }
            let back = usize::from(self.links[from % WINDOW]);
            candidate = (back != 0).then(|| from - back);
        }
        best
    }
}

/// The bucket of `value` and its count of extra bits, which carry the
/// value's low bits.  Values below `2 << FINE` have a bucket each; above,
/// each power of two splits into `1 << FINE` buckets, named by the value's
/// leading `FINE + 1` bits.
fn bucket(value: usize) -> (usize, u32) {
    if value < 2 << FINE {
        return (value, 0);
    }
    let extra = value.ilog2() - FINE;
    (((extra as usize) << FINE) + (value >> extra), extra)
}

/// The least value of bucket `code` and its count of extra bits.
fn bucket_base(code: usize) -> (usize, u32) {
    if code < 2 << FINE {
        return (code, 0);
    }
    let extra = (code >> FINE) as u32 - 1;
    ((1 << FINE | code & ((1 << FINE) - 1)) << extra, extra)
}

/// Writes the Huffman code lengths of symbols with frequencies `freq` into
/// `lengths`, none longer than `limit`: 0 for an unused symbol, 1 for a
/// lone used one.  When the optimal code is too deep, the frequencies are
/// halved (rounding up) until it is not.
fn code_lengths(freq: &[u32], limit: usize, lengths: &mut [u8]) {
    lengths.fill(0);
    // The used symbols by ascending frequency, ties by symbol.
    let mut leaves: Vec<(u32, usize)> =
        freq.iter().enumerate().filter(|(_, &f)| f > 0).map(|(s, &f)| (f, s)).collect();
    leaves.sort_unstable();
    if let [(_, symbol)] = leaves[..] {
        lengths[symbol] = 1;
    }
    if leaves.len() < 2 {
        return;
    }
    let n = leaves.len();
    let mut weight = vec![0u64; 2 * n - 1];
    let mut parent = vec![0usize; 2 * n - 1];
    let mut depth = vec![0usize; 2 * n - 1];
    loop {
        // Two queues: the leaves, and the inner nodes in the order they are
        // made, whose weights never fall; each merge takes the lighter
        // heads of the two.
        weight.iter_mut().zip(&leaves).for_each(|(w, &(f, _))| *w = u64::from(f));
        let (mut leaf, mut inner) = (0, n);
        for node in n..2 * n - 1 {
            let mut lightest = || {
                let take_leaf = leaf < n && (inner == node || weight[leaf] <= weight[inner]);
                let taken = if take_leaf { &mut leaf } else { &mut inner };
                *taken += 1;
                *taken - 1
            };
            let (a, b) = (lightest(), lightest());
            weight[node] = weight[a] + weight[b];
            (parent[a], parent[b]) = (node, node);
        }
        for node in (0..2 * n - 2).rev() {
            depth[node] = depth[parent[node]] + 1;
        }
        if depth[..n].iter().all(|&d| d <= limit) {
            break;
        }
        leaves.iter_mut().for_each(|(f, _)| *f = f.div_ceil(2));
    }
    for (&(_, symbol), &d) in leaves.iter().zip(&depth) {
        lengths[symbol] = d as u8;
    }
}

/// The first `len` bits of `code`, reversed: a Huffman code as the bit
/// stream sends it, first bit lowest.
fn reversed(code: usize, len: usize) -> usize {
    (0..len).fold(0, |r, i| r | (code >> i & 1) << (len - 1 - i))
}

/// Each length's first code in a canonical code with these lengths: the
/// codes of one length are consecutive numbers, given to its symbols in
/// order, and each length's first code is twice the last length's next.
fn canonical_firsts(lengths: &[u8]) -> [usize; MAX_CODE_LEN + 1] {
    let mut count = [0usize; MAX_CODE_LEN + 1];
    lengths.iter().for_each(|&len| count[usize::from(len)] += 1);
    count[0] = 0;
    let mut first = [0usize; MAX_CODE_LEN + 1];
    for len in 1..=MAX_CODE_LEN {
        first[len] = (first[len - 1] + count[len - 1]) << 1;
    }
    first
}

/// A canonical Huffman code's codes, each as the bit stream sends it.
struct Encoder {
    /// Per symbol, its reversed code and its length.
    codes: [(u16, u8); LITLEN_SYMBOLS],
}

impl Encoder {
    fn new(lengths: &[u8]) -> Self {
        let mut next = canonical_firsts(lengths);
        let mut codes = [(0, 0); LITLEN_SYMBOLS];
        for (code, &len) in codes.iter_mut().zip(lengths) {
            if len != 0 {
                let len = usize::from(len);
                *code = (reversed(next[len], len) as u16, len as u8);
                next[len] += 1;
            }
        }
        Encoder { codes }
    }

    fn put(&self, bits: &mut BitWriter<'_>, symbol: usize) {
        let (code, len) = self.codes[symbol];
        bits.put(usize::from(code), u32::from(len));
    }
}

/// A block's literal/length and distance codes.
struct Codes {
    litlen: Encoder,
    distance: Encoder,
}

impl Codes {
    /// The codes with these lengths: the literal/length code's, then the
    /// distance code's.
    fn new(lengths: &[u8]) -> Self {
        let (litlen, distance) = lengths.split_at(LITLEN_SYMBOLS);
        Codes { litlen: Encoder::new(litlen), distance: Encoder::new(distance) }
    }

    fn put(&self, bits: &mut BitWriter<'_>, token: Token) {
        match token {
            Token::Literal(byte) => self.litlen.put(bits, usize::from(byte)),
            Token::Match { len, offset } => {
                let (code, extra) = bucket(len - MIN_MATCH);
                self.litlen.put(bits, END + 1 + code);
                bits.put(len - MIN_MATCH, extra);
                let (code, extra) = bucket(offset - 1);
                self.distance.put(bits, code);
                bits.put(offset - 1, extra);
            }
            Token::End => self.litlen.put(bits, END),
        }
    }
}

/// Writes the code-length code and, through it, the code-length `runs`.
fn write_lengths(bits: &mut BitWriter<'_>, runs: &[(u8, u8)]) {
    let mut freq = [0u32; CODE_LEN_SYMBOLS];
    runs.iter().for_each(|&(symbol, _)| freq[usize::from(symbol)] += 1);
    let mut lengths = [0u8; CODE_LEN_SYMBOLS];
    code_lengths(&freq, MAX_CODE_LEN_LEN, &mut lengths);
    lengths.iter().for_each(|&len| bits.put(usize::from(len), 3));
    let code = Encoder::new(&lengths);
    for &(symbol, extra) in runs {
        code.put(bits, usize::from(symbol));
        bits.put(usize::from(extra), run_extra_bits(symbol));
    }
}

/// The extra bits of a code-length symbol: those of the three run symbols
/// count the run's length beyond its least.
fn run_extra_bits(symbol: u8) -> u32 {
    match symbol {
        16 => 2,
        17 => 3,
        18 => 7,
        _ => 0,
    }
}

/// Packs bits into bytes, lowest first.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    filled: u32,
}

impl BitWriter<'_> {
    /// Appends the low `n` bits of `bits`, `n` at most 32.
    fn put(&mut self, bits: usize, n: u32) {
        self.acc |= ((bits & ((1 << n) - 1)) as u64) << self.filled;
        self.filled += n;
        while self.filled >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.filled -= 8;
        }
    }

    /// Writes the last partial byte, its high bits zero.
    fn flush(&mut self) {
        if self.filled > 0 {
            self.out.push(self.acc as u8);
        }
    }
}

/// Reads a block's bits, lowest first.
struct BitReader<'a> {
    block: &'a [u8],
    /// Bits read so far.
    at: usize,
}

impl BitReader<'_> {
    /// The next 25 bits or more, zeros past the end of the block.
    fn peek(&self) -> u32 {
        let byte = self.at / 8;
        let word = match self.block.get(byte..byte + 4) {
            Some(four) => u32::from_le_bytes(four.try_into().expect("four bytes")),
            None => (0..4).fold(0, |w, i| {
                w | u32::from(self.block.get(byte + i).map_or(0, |&b| b)) << (8 * i)
            }),
        };
        word >> (self.at % 8)
    }

    /// Skips `n` bits, or `None` past the end of the block.
    fn skip(&mut self, n: usize) -> Option<()> {
        self.at += n;
        (self.at <= 8 * self.block.len()).then_some(())
    }

    /// The next `n` bits as a number, `n` at most 25.
    fn take(&mut self, n: u32) -> Option<usize> {
        let value = self.peek() as usize & ((1 << n) - 1);
        self.skip(n as usize)?;
        Some(value)
    }
}

/// Decodes a canonical Huffman code: a table of every code up to
/// [`FAST_BITS`] long, indexed by the next bits of the stream, and the
/// code's count of codes per length and symbols in code order, walked for
/// a longer code.
struct Decoder {
    /// Per `FAST_BITS` bits of stream, the symbol whose code starts them
    /// (shifted up 4) and that code's length; 0 when no code that short
    /// does.
    fast: [u16; 1 << FAST_BITS],
    count: [u16; MAX_CODE_LEN + 1],
    symbols: [u16; LITLEN_SYMBOLS],
}

impl Decoder {
    /// The decoder of the code with these lengths, or `None` when a length
    /// exceeds [`MAX_CODE_LEN`] or the lengths oversubscribe the code
    /// space (more codes than their lengths leave room for).  A code that
    /// leaves room unused is accepted; its unused bit patterns do not
    /// decode.
    fn new(lengths: &[u8]) -> Option<Self> {
        let mut count = [0u16; MAX_CODE_LEN + 1];
        for &len in lengths {
            *count.get_mut(usize::from(len))? += 1;
        }
        count[0] = 0;
        let mut room = 1i32;
        for &n in &count[1..] {
            room = 2 * room - i32::from(n);
            if room < 0 {
                return None;
            }
        }
        let mut offset = [0usize; MAX_CODE_LEN + 2];
        for len in 1..=MAX_CODE_LEN {
            offset[len + 1] = offset[len] + usize::from(count[len]);
        }
        let mut symbols = [0u16; LITLEN_SYMBOLS];
        let mut fast = [0u16; 1 << FAST_BITS];
        let mut first = canonical_firsts(lengths);
        for (symbol, &len) in lengths.iter().enumerate() {
            let len = usize::from(len);
            if len == 0 {
                continue;
            }
            symbols[offset[len]] = symbol as u16;
            offset[len] += 1;
            if len <= FAST_BITS {
                let code = reversed(first[len], len);
                for slot in (code..1 << FAST_BITS).step_by(1 << len) {
                    fast[slot] = (symbol as u16) << 4 | len as u16;
                }
            }
            first[len] += 1;
        }
        Some(Decoder { fast, count, symbols })
    }

    /// The next symbol, or `None` for a bit pattern no code starts or a
    /// code that runs past the end of the block.
    fn decode(&self, bits: &mut BitReader<'_>) -> Option<usize> {
        let window = bits.peek() as usize;
        let entry = self.fast[window & ((1 << FAST_BITS) - 1)];
        if entry != 0 {
            bits.skip(usize::from(entry & 15))?;
            return Some(usize::from(entry >> 4));
        }
        // Canonical codes of one length are consecutive numbers, each
        // length's first one twice the last length's next.
        let (mut code, mut first, mut index) = (0, 0, 0);
        for len in 1..=MAX_CODE_LEN {
            code |= window >> (len - 1) & 1;
            let count = usize::from(self.count[len]);
            if code < first + count {
                bits.skip(len)?;
                return Some(usize::from(self.symbols[index + code - first]));
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        None
    }
}

/// Decodes `block` into the front of `out` and returns the decoded length,
/// or `None` if the block is malformed or decodes to more than `out` holds.
pub(crate) fn decompress(block: &[u8], out: &mut [u8]) -> Option<usize> {
    let mut bits = BitReader { block, at: 0 };
    let mut code_len_lengths = [0u8; CODE_LEN_SYMBOLS];
    for len in &mut code_len_lengths {
        *len = bits.take(3)? as u8;
    }
    let code_len_code = Decoder::new(&code_len_lengths)?;
    let mut lengths = [0u8; LITLEN_SYMBOLS + BUCKETS];
    let mut filled = 0;
    while filled < lengths.len() {
        let symbol = code_len_code.decode(&mut bits)?;
        let (len, least) = match symbol {
            0..=15 => (symbol as u8, 1),
            16 => (*lengths[..filled].last()?, 3),
            17 => (0, 3),
            _ => (0, 11),
        };
        let times = least + bits.take(run_extra_bits(symbol as u8))?;
        lengths.get_mut(filled..filled + times)?.fill(len);
        filled += times;
    }
    let litlen_code = Decoder::new(&lengths[..LITLEN_SYMBOLS])?;
    let distance_code = Decoder::new(&lengths[LITLEN_SYMBOLS..])?;
    let mut written = 0;
    loop {
        let symbol = litlen_code.decode(&mut bits)?;
        if symbol < END {
            *out.get_mut(written)? = symbol as u8;
            written += 1;
            continue;
        }
        if symbol == END {
            break;
        }
        let (base, extra) = bucket_base(symbol - END - 1);
        let len = MIN_MATCH + base + bits.take(extra)?;
        let (base, extra) = bucket_base(distance_code.decode(&mut bits)?);
        let offset = 1 + base + bits.take(extra)?;
        if offset > written || len > out.len() - written {
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
    // Only the padding of the last byte may follow the end symbol.
    (bits.at.div_ceil(8) == block.len()).then_some(written)
}

/// The runs of code lengths that encode `lengths`, as code-length symbols
/// and their extra bits' values.
fn runs_of(lengths: &[u8]) -> Vec<(u8, u8)> {
    let mut runs = Vec::new();
    let mut at = 0;
    while at < lengths.len() {
        let len = lengths[at];
        let mut run = lengths[at..].iter().take_while(|&&l| l == len).count();
        at += run;
        if len == 0 {
            while run >= 11 {
                let n = run.min(138);
                runs.push((18, (n - 11) as u8));
                run -= n;
            }
            if run >= 3 {
                runs.push((17, (run - 3) as u8));
                run = 0;
            }
        } else {
            runs.push((len, 0));
            run -= 1;
            while run >= 3 {
                let n = run.min(6);
                runs.push((16, (n - 3) as u8));
                run -= n;
            }
        }
        runs.extend(std::iter::repeat_n((len, 0), run));
    }
    runs
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
    use proptest::collection::vec;
    use proptest::prelude::*;

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
        // The code-length code and one code length per run of them.
        assert_eq!(round_trip(b"").len(), 11);
        for byte in [0u8, b'{', 255] {
            let block = round_trip(&[byte]);
            assert!(block.len() <= 12, "{} B", block.len());
            assert_eq!(decompress(&block, &mut []), None, "the byte fits no buffer of none");
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
    fn long_literal_runs_and_matches_use_extra_bits() {
        let mut rng = SimRng::new(13);
        // A match of each length bucket's least and largest length, after
        // as many bytes of noise, and a run longer than the longest match.
        for code in 0..BUCKETS {
            let (base, extra) = bucket_base(code);
            for len in [base, base + (1 << extra) - 1].map(|v| MIN_MATCH + v) {
                assert_eq!(bucket(len - MIN_MATCH), (code, extra));
                let noise = random_bytes(&mut rng, len, 256);
                let mut repeated = noise.clone();
                repeated.extend_from_slice(&noise);
                round_trip(&repeated);
            }
        }
        round_trip(&vec![7; MAX_MATCH + 100]);
        // A match at each distance bucket's least and largest distance.
        let head = random_bytes(&mut rng, 16, 256);
        for code in 0..BUCKETS {
            let (base, extra) = bucket_base(code);
            for distance in [base, base + (1 << extra) - 1].map(|v| v + 1) {
                assert_eq!(bucket(distance - 1), (code, extra));
                let mut input = head.clone();
                input.extend(random_bytes(&mut rng, distance.saturating_sub(head.len()), 256));
                input.extend_from_slice(&head);
                round_trip(&input);
            }
        }
    }

    #[test]
    fn overlapping_matches_repeat_their_last_bytes() {
        for period in [1, 2, 3, 7, 64] {
            for len in [MIN_MATCH, 15 + MIN_MATCH, 15 + 255 + MIN_MATCH, 10_000] {
                let input: Vec<u8> = (0..period + len).map(|i| b'a' + (i % period) as u8).collect();
                let block = round_trip(&input);
                // The code tables take 11-20 B; the match itself a few bits.
                assert!(
                    block.len() <= period + 16 + len / 2500,
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
        // One past it, the 64 bytes are literals again, about 6 bits each.
        assert!(beyond >= largest + 40, "one past it: {beyond} B, at it: {largest} B");
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
        // 35.7x; the same parse in LZ4's byte layout packs 20.0x and fails
        // this.
        assert!(block.len() * 30 < text.len(), "{} B of {} B", block.len(), text.len());
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

    /// Whole lines of a fleet-shaped trace drawn from `seed`, up to `limit`
    /// bytes.
    fn trace_text(seed: u64, limit: usize) -> String {
        let mut rng = SimRng::new(seed);
        let mut text = String::new();
        for i in 0.. {
            let line = trace_line(&mut rng, i);
            if text.len() + line.len() > limit {
                break;
            }
            text.push_str(&line);
        }
        text
    }

    #[test]
    fn full_chunks_of_trace_lines_round_trip() {
        for seed in 19..23 {
            // Whole lines up to a recorder chunk of 64 KiB.
            let chunk = trace_text(seed, 64 << 10);
            assert!(chunk.len() > (64 << 10) - 200, "{} B", chunk.len());
            let block = round_trip(chunk.as_bytes());
            // 9.9-10.2x; the same parse in LZ4's byte layout packs 6.7-6.8x.
            assert!(block.len() * 9 < chunk.len(), "{} B of {} B", block.len(), chunk.len());
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
        // One match back to the first copy costs a length and a distance
        // symbol neither code had before, with their extra bits and code
        // lengths: 15 B.  A parse taking decoys pays a match per five
        // bytes, about 100 B.
        assert!(after <= before + 20, "the repeat costs {} B", after - before);
    }

    /// A block written by hand: the code-length symbols `runs`, then
    /// `tokens` through the codes of `lengths` (literal/length, then
    /// distance), whether or not they make a code.
    fn handmade(runs: &[(u8, u8)], lengths: &[u8], tokens: &[Token]) -> Vec<u8> {
        let mut block = Vec::new();
        let mut bits = BitWriter { out: &mut block, acc: 0, filled: 0 };
        write_lengths(&mut bits, runs);
        let codes = Codes::new(lengths);
        tokens.iter().for_each(|&token| codes.put(&mut bits, token));
        bits.flush();
        block
    }

    /// Code lengths giving each of `symbols` (literal/length symbols, then
    /// distance symbols from [`LITLEN_SYMBOLS`]) `len` bits.
    fn lengths_of(symbols: &[usize], len: u8) -> Vec<u8> {
        let mut lengths = vec![0; LITLEN_SYMBOLS + BUCKETS];
        symbols.iter().for_each(|&symbol| lengths[symbol] = len);
        lengths
    }

    #[test]
    fn malformed_blocks_are_rejected_not_trusted() {
        let mut out = [0u8; 8];
        let ab =
            lengths_of(&[usize::from(b'a'), usize::from(b'b'), END, END + 1, LITLEN_SYMBOLS], 2);
        let ab_runs = runs_of(&ab);
        let aaaaa = [Token::Literal(b'a'), Token::Match { len: 4, offset: 1 }, Token::End];
        let good = handmade(&ab_runs, &ab, &aaaaa);
        assert_eq!(decompress(&good, &mut out), Some(5));
        assert_eq!(&out[..5], b"aaaaa");
        // More output than fits, a trailing byte, no bytes at all.
        assert_eq!(decompress(&good, &mut out[..4]), None);
        assert_eq!(decompress(&[&good[..], &[0]].concat(), &mut out), None);
        assert_eq!(decompress(&[], &mut out), None);
        // A match before any output, a match reaching before the output,
        // and a block that never ends.
        let early = [Token::Match { len: 4, offset: 1 }, Token::End];
        assert_eq!(decompress(&handmade(&ab_runs, &ab, &early), &mut out), None);
        let far = [Token::Literal(b'a'), Token::Match { len: 4, offset: 2 }, Token::End];
        assert_eq!(decompress(&handmade(&ab_runs, &ab, &far), &mut out), None);
        let endless = [Token::Literal(b'a'), Token::Literal(b'b')];
        assert_eq!(decompress(&handmade(&ab_runs, &ab, &endless), &mut out), None);
        // A literal/length code of five 2-bit codes (oversubscribed), a
        // distance with no distance code.
        let over = lengths_of(&[0, 1, 2, 3, END], 2);
        let tokens = [Token::Literal(0), Token::End];
        assert_eq!(decompress(&handmade(&runs_of(&over), &over, &tokens), &mut out), None);
        let nodistance = lengths_of(&[usize::from(b'a'), END, END + 1], 2);
        assert_eq!(
            decompress(&handmade(&runs_of(&nodistance), &nodistance, &aaaaa), &mut out),
            None
        );
        // Code-length runs that repeat before any length, that run past
        // the last length, or that stop short of it.
        let mut repeat_first = ab_runs.clone();
        repeat_first.insert(0, (16, 0));
        assert_eq!(decompress(&handmade(&repeat_first, &ab, &aaaaa), &mut out), None);
        let mut overrun = ab_runs.clone();
        overrun.push((17, 0));
        assert_eq!(decompress(&handmade(&overrun, &ab, &aaaaa), &mut out), None);
        assert_eq!(
            decompress(&handmade(&ab_runs[..ab_runs.len() - 1], &ab, &aaaaa), &mut out),
            None
        );
        // A code-length code of three 1-bit codes.
        let mut block = Vec::new();
        let mut bits = BitWriter { out: &mut block, acc: 0, filled: 0 };
        (0..CODE_LEN_SYMBOLS).for_each(|symbol| bits.put(usize::from(symbol < 3), 3));
        bits.flush();
        assert_eq!(decompress(&block, &mut out), None);
    }

    /// Decodes `block` into the front `room` bytes of a larger buffer and
    /// checks that it reports at most `room` bytes and writes nothing past
    /// them.
    fn decode_within(block: &[u8], room: usize) -> Option<usize> {
        let mut buffer = vec![0xa5; room + 64];
        let decoded = decompress(block, &mut buffer[..room]);
        assert!(decoded.is_none_or(|n| n <= room), "{decoded:?} B decoded into {room} B");
        assert!(buffer[room..].iter().all(|&b| b == 0xa5), "decoded past its buffer");
        decoded
    }

    /// An input of `kind`: empty, one byte, all one byte, random bytes, or
    /// trace lines, up to `len` bytes drawn from `seed`.
    fn input_of(kind: usize, len: usize, seed: u64) -> Vec<u8> {
        let mut rng = SimRng::new(seed);
        match kind {
            0 => Vec::new(),
            1 => vec![rng.index(256) as u8],
            2 => vec![rng.index(256) as u8; len],
            3 => {
                let alphabet = 1 + rng.index(256);
                random_bytes(&mut rng, len, alphabet)
            }
            _ => trace_text(seed, len).into_bytes(),
        }
    }

    proptest! {
        #[test]
        fn every_kind_of_input_round_trips(kind in 0usize..5, len in 0usize..6000, seed in 0u64..1 << 32) {
            round_trip(&input_of(kind, len, seed));
        }

        #[test]
        fn arbitrary_bytes_never_decode_past_their_buffer(
            bytes in vec(0u16..256, 0..400),
            room in 0usize..3000,
        ) {
            let block: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
            decode_within(&block, room);
        }

        #[test]
        fn truncated_or_flipped_blocks_never_decode_past_their_buffer(
            kind in 0usize..5,
            len in 0usize..800,
            seed in 0u64..1 << 32,
        ) {
            let input = input_of(kind, len, seed);
            let mut block = Vec::new();
            compress(&input, &mut block);
            for cut in 0..block.len() {
                prop_assert_eq!(decode_within(&block[..cut], input.len()), None);
            }
            // Every bit of the code tables' first 32 bytes, then about 200
            // more spread over the block.
            let bits = 8 * block.len();
            let spread = (bits / 200).max(1);
            for bit in (0..bits.min(256)).chain((256..bits).step_by(spread)) {
                block[bit / 8] ^= 1 << (bit % 8);
                decode_within(&block, input.len());
                block[bit / 8] ^= 1 << (bit % 8);
            }
        }

        #[test]
        fn codes_that_oversubscribe_or_exceed_fifteen_bits_are_rejected(
            lengths in vec(0u16..18, 1..40),
        ) {
            let lengths: Vec<u8> = lengths.iter().map(|&len| len as u8).collect();
            let fits = lengths.iter().all(|&len| usize::from(len) <= MAX_CODE_LEN);
            let used: usize = lengths
                .iter()
                .filter(|&&len| len != 0)
                .map(|&len| 1 << MAX_CODE_LEN.saturating_sub(usize::from(len)))
                .sum();
            prop_assert_eq!(Decoder::new(&lengths).is_some(), fits && used <= 1 << MAX_CODE_LEN);
            if fits && used > 1 << MAX_CODE_LEN && lengths.len() <= LITLEN_SYMBOLS {
                // The same lengths as a block's literal/length code.
                let mut all = vec![0; LITLEN_SYMBOLS + BUCKETS];
                all[..lengths.len()].copy_from_slice(&lengths);
                all[END] = 15;
                let block = handmade(&runs_of(&all), &all, &[Token::End]);
                prop_assert_eq!(decode_within(&block, 64), None);
            }
        }
    }
}
