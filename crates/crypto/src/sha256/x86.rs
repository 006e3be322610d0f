//! The SHA-256 compression function on the x86 SHA extensions
//! (`sha256rnds2`, `sha256msg1`, `sha256msg2`).
//!
//! Four rounds per `rnds2` pair, the message schedule four words at a
//! time, and the working state held in two registers (`ABEF`, `CDGH`)
//! across every block of one call. [`compress`] checks the CPU on each
//! call through std's cached feature detection and reports `false`
//! when the extensions are missing, so the caller falls back to the
//! scalar function.

use super::K;
use std::arch::x86_64::*;

/// Does this CPU have everything [`compress_shani`] executes?
pub(super) fn available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Compress whole 64-byte `blocks` into `state` with the SHA extensions;
/// `false` (state untouched) when the CPU lacks them.
pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    if !available() {
        return false;
    }
    // SAFETY: `compress_shani` needs sha, ssse3 and sse4.1 (SSE2 is
    // baseline on x86_64); `available()` has just confirmed all three.
    unsafe { compress_shani(state, blocks) };
    true
}

/// Four rounds: message words `w` (plus round constants `K[4i..4i+4]`)
/// through two `rnds2` steps.
macro_rules! rounds4 {
    ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
        let wk = _mm_add_epi32(
            $w,
            _mm_set_epi32(
                K[4 * $i + 3] as i32,
                K[4 * $i + 2] as i32,
                K[4 * $i + 1] as i32,
                K[4 * $i] as i32,
            ),
        );
        $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
        $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }};
}

/// The next four schedule words from the previous sixteen
/// (`w0` oldest), then four rounds with them; `w0` is overwritten.
macro_rules! schedule_rounds4 {
    ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $i:expr) => {{
        $w0 = _mm_sha256msg2_epu32(
            _mm_add_epi32(
                _mm_sha256msg1_epu32($w0, $w1),
                _mm_alignr_epi8::<4>($w3, $w2),
            ),
            $w3,
        );
        rounds4!($abef, $cdgh, $w0, $i);
    }};
}

/// The kernel proper: whole 64-byte `blocks` into `state` (a trailing
/// partial block is ignored).
///
/// # Safety
///
/// Outside code compiled with these target features, calling it is
/// `unsafe`: the CPU must support sha, ssse3 and sse4.1, which
/// [`compress`] checks with [`available`] first.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_shani(state: &mut [u32; 8], blocks: &[u8]) {
    // Reverses the bytes of every 32-bit lane: SHA-256 reads its message
    // big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // SAFETY: `state` is 32 readable bytes; `loadu` has no alignment
    // requirement.
    let (dcba, hgfe) = unsafe {
        (
            _mm_loadu_si128(state.as_ptr().cast()),
            _mm_loadu_si128(state.as_ptr().add(4).cast()),
        )
    };
    // The rounds instructions want the state as {A,B,E,F} and {C,D,G,H}.
    let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let p = block.as_ptr();
        // SAFETY: `block` is exactly 64 readable bytes, read as four
        // 16-byte chunks; `loadu` has no alignment requirement.
        let [c0, c1, c2, c3] = unsafe {
            [
                _mm_loadu_si128(p.cast()),
                _mm_loadu_si128(p.add(16).cast()),
                _mm_loadu_si128(p.add(32).cast()),
                _mm_loadu_si128(p.add(48).cast()),
            ]
        };
        let mut w0 = _mm_shuffle_epi8(c0, bswap);
        let mut w1 = _mm_shuffle_epi8(c1, bswap);
        let mut w2 = _mm_shuffle_epi8(c2, bswap);
        let mut w3 = _mm_shuffle_epi8(c3, bswap);
        rounds4!(abef, cdgh, w0, 0);
        rounds4!(abef, cdgh, w1, 1);
        rounds4!(abef, cdgh, w2, 2);
        rounds4!(abef, cdgh, w3, 3);
        schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 4);
        schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 5);
        schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 6);
        schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 7);
        schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 8);
        schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 9);
        schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 10);
        schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 11);
        schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 12);
        schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 13);
        schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 14);
        schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 15);
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1b>(abef);
    let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
    let dcba = _mm_blend_epi16::<0xf0>(feba, dchg);
    let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
    // SAFETY: `state` is 32 writable bytes; `storeu` has no alignment
    // requirement.
    unsafe {
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
    }
}
