//! SHA-256 (FIPS 180-4): the one-way hash `h(.)` under every digest in
//! the authentication framework (truncated to 128 bits by
//! [`crate::Digest`]).
//!
//! The compression function runs on the x86 SHA extensions when the CPU
//! has them (checked on each call through std's cached feature
//! detection) and on the portable scalar [`compress_scalar`] otherwise;
//! the scalar function is also the differential-test oracle for the
//! SHA-NI kernel. Both produce the same bits, so nothing selects a
//! backend: every caller gets the fastest one the CPU runs.
//!
//! Messages are compressed straight from the caller's buffer, whole
//! blocks at a time. A one-shot [`Sha256::digest`] of at most
//! [`ONE_BLOCK_MAX`] bytes (every leaf encoding and signed message in
//! the framework) pads into one stack block and compresses it once, with
//! no streaming state. Test vectors come from FIPS 180-4 and NIST CAVP.

#[cfg(target_arch = "x86_64")]
mod x86;

/// Per-round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Longest message that fits, with its padding, in one 64-byte block.
pub const ONE_BLOCK_MAX: usize = 55;

/// Compress whole 64-byte `blocks` (`blocks.len()` a multiple of 64;
/// a trailing partial block is ignored) into `state` on the fastest
/// backend this CPU runs.
pub fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    if blocks.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if x86::compress(state, blocks) {
        return;
    }
    compress_scalar(state, blocks);
}

/// The portable FIPS 180-4 compression function over whole 64-byte
/// `blocks`: the fallback on CPUs without SHA extensions and the
/// reference the SHA-NI kernel is tested against.
pub fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = big_s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// SHA-256 of a message whose leading whole blocks are already in
/// `state`: pad the `tail` (under one block) and the total `len` in bytes
/// into one or two blocks, compress, and serialize.
fn finish(mut state: [u32; 8], tail: &[u8], len: u64) -> [u8; 32] {
    debug_assert!(tail.len() < 64);
    let mut pad = [0u8; 128];
    pad[..tail.len()].copy_from_slice(tail);
    pad[tail.len()] = 0x80;
    let end = if tail.len() <= ONE_BLOCK_MAX { 64 } else { 128 };
    pad[end - 8..end].copy_from_slice(&len.wrapping_mul(8).to_be_bytes());
    compress(&mut state, &pad[..end]);
    state_bytes(&state)
}

/// SHA-256 of a message that `block` already holds together with its
/// padding and length word (so one of at most [`ONE_BLOCK_MAX`] bytes).
pub(crate) fn digest_padded_block(block: &[u8; 64]) -> [u8; 32] {
    let mut state = H0;
    compress(&mut state, block);
    state_bytes(&state)
}

/// The big-endian serialization of a final state: the digest.
fn state_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partially filled message block.
    buffer: [u8; 64],
    buffer_len: usize,
    /// Total message length in bytes (SHA-256 caps at 2^61 bytes; plenty).
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One-shot convenience: `Sha256::digest(msg)` returns the 32-byte
    /// hash. Whole blocks are compressed in place and the tail padded on
    /// the stack; a message of at most [`ONE_BLOCK_MAX`] bytes costs
    /// exactly one compression.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let whole = data.len() - data.len() % 64;
        let mut state = H0;
        compress(&mut state, &data[..whole]);
        finish(state, &data[whole..], data.len() as u64)
    }

    /// Absorb more message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        // Top up a partially filled buffer first.
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        // Whole blocks straight from the input.
        let whole = data.len() - data.len() % 64;
        compress(&mut self.state, &data[..whole]);
        // Stash the tail.
        let tail = &data[whole..];
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Finish and return the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        finish(self.state, &self.buffer[..self.buffer_len], self.total_len)
    }
}

#[cfg(test)]
mod tests {
    //! Differential tests: the SHA-NI kernel against the scalar oracle,
    //! the one-shot and streaming paths against a textbook (materialized
    //! padding) reference, and the NIST vectors on every backend.

    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Backend = fn(&mut [u32; 8], &[u8]);

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The SHA-NI kernel, or `None` — announced on the test's output, so
    /// a run on a CPU without the extensions says what it did not check.
    fn shani() -> Option<Backend> {
        #[cfg(target_arch = "x86_64")]
        if x86::available() {
            return Some(|state, blocks| assert!(x86::compress(state, blocks)));
        }
        println!("skipped: the SHA-NI half (this CPU lacks the SHA extensions)");
        None
    }

    /// Every backend this CPU can run, scalar first.
    fn backends() -> Vec<(&'static str, Backend)> {
        let mut out: Vec<(&'static str, Backend)> = vec![("scalar", compress_scalar)];
        out.extend(shani().map(|k| ("sha-ni", k)));
        out
    }

    /// FIPS 180-4 the textbook way: materialize the padded message, then
    /// compress it on `backend`.
    fn reference_digest(backend: Backend, msg: &[u8]) -> [u8; 32] {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        padded.resize(padded.len().next_multiple_of(64), 0);
        if padded.len() - msg.len() < 9 {
            padded.resize(padded.len() + 64, 0);
        }
        let at = padded.len() - 8;
        padded[at..].copy_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        backend(&mut state, &padded);
        state_bytes(&state)
    }

    fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        rng.fill(&mut out);
        out
    }

    #[test]
    fn fips_vectors_on_every_backend() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        let backends = backends();
        for (msg, want) in vectors {
            for &(name, backend) in &backends {
                assert_eq!(
                    hex(&reference_digest(backend, msg)),
                    want,
                    "{name}, {} bytes",
                    msg.len()
                );
            }
            assert_eq!(hex(&Sha256::digest(msg)), want, "dispatched one-shot");
        }
    }

    #[test]
    fn shani_compression_matches_scalar() {
        let Some(shani) = shani() else { return };
        let mut rng = StdRng::seed_from_u64(0x5a_256);
        for round in 0..2000 {
            let state: [u32; 8] = std::array::from_fn(|_| rng.gen());
            let num_blocks = rng.gen_range(1..=4usize);
            let blocks = random_bytes(&mut rng, 64 * num_blocks);
            let mut want = state;
            compress_scalar(&mut want, &blocks);
            let mut got = state;
            shani(&mut got, &blocks);
            assert_eq!(got, want, "round {round}");
        }
    }

    #[test]
    fn every_length_matches_the_scalar_reference() {
        let shani = shani();
        let mut rng = StdRng::seed_from_u64(300);
        for len in 0..=300usize {
            for _ in 0..4 {
                let msg = random_bytes(&mut rng, len);
                let want = reference_digest(compress_scalar, &msg);
                if let Some(shani) = shani {
                    assert_eq!(reference_digest(shani, &msg), want, "sha-ni, len={len}");
                }
                assert_eq!(Sha256::digest(&msg), want, "one-shot, len={len}");
                // Streaming, split at a random point and then fed in
                // chunk sizes that straddle block and padding boundaries.
                let cut = rng.gen_range(0..=len);
                for chunk in [1usize, 7, 55, 56, 63, 64, 65] {
                    let mut h = Sha256::new();
                    h.update(&msg[..cut]);
                    for c in msg[cut..].chunks(chunk) {
                        h.update(c);
                    }
                    assert_eq!(h.finalize(), want, "streaming, len={len} cut={cut}");
                }
            }
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        // Feed in awkward chunk sizes crossing block boundaries.
        for chunk in [1usize, 3, 63, 64, 65, 127, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "chunk={chunk}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the padding boundary (55/56/64) are the classic
        // off-by-one traps for Merkle-Damgård padding.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "len={len}");
        }
    }
}
