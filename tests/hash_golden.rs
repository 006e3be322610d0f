//! Golden digests: fixed hex constants for the hash-derived bytes the
//! owner publishes and the client checks.
//!
//! The bit-identity tests elsewhere compare two builds of the *same*
//! code (pool widths, cached vs paper serving); a hash backend that
//! changed every digest consistently would still pass them. These
//! constants were recorded from the scalar SHA-256 implementation and
//! must never change: a new compression function, a one-block fast path,
//! or a padding rewrite that alters a single output bit fails here.

use authsearch_core::{AuthConfig, AuthenticatedIndex, DataOwner, Mechanism, Query};
use authsearch_corpus::SyntheticConfig;
use authsearch_crypto::keys::{cached_keypair, TEST_KEY_BITS};
use authsearch_crypto::{reconstruct_root, ChainMht, Digest, MerkleTree};
use authsearch_index::{build_index, persist};

const COMBINE: &str = "28ff4303d423587b1899f80279733d2e";
const MERKLE_7_ROOT: &str = "8b4d9e2bc5e02447daa556d3450a8e29";
const CHAIN_10_RHO4_HEAD: &str = "4902da31794189fefb0ecf24c8a30eca";
const DICT_ROOT: &str = "fdc438552b8b3e2e8fe979d3875bbe96";
const TERM_0_SIGNATURE: &str = "49dcf689d9c6a66314df54f5bbfde604c8f6315172eea12821075c054b97e24a32332df3088fb6b00d8d812820518dbd83991d8c8bb9f1ca4c2c79360b501f6f";
const SNAPSHOT_AUTH_SECTION_DIGEST: &str = "873cac617f28e972467adc472e4d7597";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The tiny fixed-seed corpus every artifact pin below is built from.
fn corpus() -> authsearch_corpus::Corpus {
    SyntheticConfig::tiny(60, 7).generate()
}

fn publish(dict_mht: bool) -> (authsearch_corpus::Corpus, AuthenticatedIndex) {
    let corpus = corpus();
    let index = build_index(&corpus, Default::default());
    let config = AuthConfig {
        key_bits: TEST_KEY_BITS,
        dict_mht,
        ..AuthConfig::new(Mechanism::TnraCmht)
    };
    let auth = DataOwner::with_cached_key(TEST_KEY_BITS)
        .publish_index(index, config, &corpus)
        .auth;
    (corpus, auth)
}

#[test]
fn golden_digests_match_recorded_constants() {
    // Merkle internal-node combiner.
    let combine = Digest::combine(&Digest::hash(b"left"), &Digest::hash(b"right"));
    assert_eq!(combine.to_hex(), COMBINE, "Digest::combine");

    // A 7-leaf MHT exercises odd-node promotion at two levels.
    let leaves: Vec<Vec<u8>> = (0..7u8).map(|i| vec![i; 8]).collect();
    let root = MerkleTree::from_leaves(&leaves).root();
    assert_eq!(root.to_hex(), MERKLE_7_ROOT, "7-leaf MerkleTree root");

    // A chain-MHT of three blocks (4 + 4 + 2 leaves).
    let chain_leaves: Vec<Digest> = (0..10u32).map(|i| Digest::hash(&i.to_le_bytes())).collect();
    let head = ChainMht::build(chain_leaves, 4).head_digest();
    assert_eq!(head.to_hex(), CHAIN_10_RHO4_HEAD, "ChainMht head (10, ρ=4)");

    // Per-list deployment: term 0's list signature, as a VO carries it.
    let (corpus, auth) = publish(false);
    let query = Query::from_term_ids(auth.index(), &[0]);
    let response = auth.query(&query, 5, &corpus);
    let signature = response.vo.terms[0]
        .signature
        .as_ref()
        .expect("per-list deployments sign every list");
    assert_eq!(hex(signature), TERM_0_SIGNATURE, "term 0 signature");

    // Snapshot container: the `ASAU` section (term roots and signatures)
    // is the last section, so its digest trailer closes the file.
    let dir = std::env::temp_dir().join(format!("authsearch-hash-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("auth.snap");
    auth.save_snapshot(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let sections = persist::read_snapshot(&mut bytes.as_slice()).unwrap();
    assert_eq!(&sections.last().unwrap().0, b"ASAU");
    assert_eq!(
        hex(&bytes[bytes.len() - 16..]),
        SNAPSHOT_AUTH_SECTION_DIGEST,
        "ASAU section digest"
    );

    // Dictionary-MHT deployment: rebuild the signed root from a query's
    // dictionary proof, and check the owner's signature covers it.
    let (corpus, auth) = publish(true);
    let terms = [0u32, 3];
    let response = auth.query(&Query::from_term_ids(auth.index(), &terms), 5, &corpus);
    let dict = response.vo.dict.as_ref().expect("dictionary proof");
    let revealed: Vec<(usize, Digest)> = terms
        .iter()
        .map(|&t| {
            let mut msg = b"authsearch:term:v1|".to_vec();
            msg.extend_from_slice(&t.to_le_bytes());
            msg.extend_from_slice(&auth.index().ft(t).to_le_bytes());
            msg.extend_from_slice(auth.term_root(t).as_bytes());
            (t as usize, Digest::hash(&msg))
        })
        .collect();
    let dict_root = reconstruct_root(dict.num_terms as usize, &revealed, &dict.proof).unwrap();
    let mut signed = b"authsearch:dict:v1|".to_vec();
    signed.extend_from_slice(&dict.num_terms.to_le_bytes());
    signed.extend_from_slice(dict_root.as_bytes());
    cached_keypair(TEST_KEY_BITS)
        .public_key()
        .verify(&signed, &dict.signature)
        .expect("the reconstructed root is the signed one");
    assert_eq!(dict_root.to_hex(), DICT_ROOT, "dictionary-MHT root");
}
