//! Direct timings of the cryptographic primitives every layer sits on.

use authsearch_crypto::{Digest, RsaPrivateKey};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Bytes hashed per `Digest::hash` call.
const HASH_INPUT: usize = 4096;

#[derive(Debug, Clone, Copy)]
pub struct CryptoRates {
    pub sha256_mib_s: f64,
    pub combine_ns: f64,
    pub rsa_verify_us: f64,
    pub rsa_sign_us: f64,
}

/// Seconds per call of `op`, repeated in batches for at least `budget`.
fn per_call_s(budget: Duration, mut op: impl FnMut()) -> f64 {
    let mut calls = 0u64;
    let mut batch = 1u64;
    let start = Instant::now();
    loop {
        for _ in 0..batch {
            op();
        }
        calls += batch;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return elapsed.as_secs_f64() / calls as f64;
        }
        batch = (batch * 2).min(1 << 16);
    }
}

/// Time SHA-256 on 4 KiB, one Merkle `combine`, and 1024-bit RSA
/// verify and sign with `key`, each for about `budget`.
pub fn probe(key: &RsaPrivateKey, budget: Duration) -> Result<CryptoRates, String> {
    let input: Vec<u8> = (0..HASH_INPUT).map(|i| (i * 31 % 251) as u8).collect();
    let hash_s = per_call_s(budget, || {
        black_box(Digest::hash(black_box(&input)));
    });

    let right = Digest::hash(b"right");
    let mut acc = Digest::hash(b"left");
    let combine_s = per_call_s(budget, || {
        acc = Digest::combine(black_box(&acc), &right);
    });
    black_box(acc);

    let message = b"perfbench signed message";
    let signature = key.sign(message).map_err(|e| format!("sign: {e:?}"))?;
    let public = key.public_key();
    public
        .verify(message, &signature)
        .map_err(|e| format!("verify: {e:?}"))?;
    let mut verify_err = None;
    let verify_s = per_call_s(budget, || {
        if let Err(e) = public.verify(black_box(message), black_box(&signature)) {
            verify_err = Some(e);
        }
    });
    let mut sign_err = None;
    let sign_s = per_call_s(budget, || {
        if let Err(e) = key.sign(black_box(message)) {
            sign_err = Some(e);
        }
    });
    if let Some(e) = verify_err.or(sign_err) {
        return Err(format!("RSA probe: {e:?}"));
    }
    Ok(CryptoRates {
        sha256_mib_s: HASH_INPUT as f64 / hash_s / (1024.0 * 1024.0),
        combine_ns: combine_s * 1e9,
        rsa_verify_us: verify_s * 1e6,
        rsa_sign_us: sign_s * 1e6,
    })
}
