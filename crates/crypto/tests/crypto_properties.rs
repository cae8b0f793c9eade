//! Property-based tests of the cryptographic substrate: algebraic laws of
//! the Ed25519 field/scalar arithmetic, group laws on the curve, signature
//! round-trips across backends, and Merkle proof soundness.
//!
//! Randomized inputs come from a seeded splitmix64 generator, so every run
//! exercises the same cases (the workspace carries no external test deps).

use smartchain_crypto::ed25519::field::Fe;
use smartchain_crypto::ed25519::point::Point;
use smartchain_crypto::ed25519::scalar::Scalar;
use smartchain_crypto::ed25519::{self, SigningKey};
use smartchain_crypto::keys::{Backend, SecretKey};
use smartchain_crypto::sha256;
use smartchain_crypto::sha512::Sha512;
use smartchain_merkle as merkle;

use smartchain_sim::rng::SimRng;

/// Seeded generator helpers over the simulator's RNG (no external crates).
struct Gen(SimRng);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(SimRng::seed_from_u64(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn array32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.0.fill_bytes(&mut out);
        out
    }

    fn bytes(&mut self, min: usize, max: usize) -> Vec<u8> {
        let len = min + self.0.gen_range((max - min + 1) as u64) as usize;
        self.0.gen_bytes(len)
    }

    fn fe(&mut self) -> Fe {
        let mut b = self.array32();
        b[31] &= 0x7f;
        Fe::from_bytes(&b)
    }

    fn scalar(&mut self) -> Scalar {
        Scalar::from_bytes_mod_order(&self.array32())
    }
}

const CASES: usize = 64;

#[test]
fn fe_add_commutes() {
    let mut g = Gen::new(0xf1);
    for _ in 0..CASES {
        let (a, b) = (g.fe(), g.fe());
        assert!(a.add(b).ct_eq(b.add(a)));
    }
}

#[test]
fn fe_mul_commutes_and_associates() {
    let mut g = Gen::new(0xf2);
    for _ in 0..CASES {
        let (a, b, c) = (g.fe(), g.fe(), g.fe());
        assert!(a.mul(b).ct_eq(b.mul(a)));
        assert!(a.mul(b).mul(c).ct_eq(a.mul(b.mul(c))));
    }
}

#[test]
fn fe_distributes() {
    let mut g = Gen::new(0xf3);
    for _ in 0..CASES {
        let (a, b, c) = (g.fe(), g.fe(), g.fe());
        assert!(a.mul(b.add(c)).ct_eq(a.mul(b).add(a.mul(c))));
    }
}

#[test]
fn fe_sub_is_add_neg() {
    let mut g = Gen::new(0xf4);
    for _ in 0..CASES {
        let (a, b) = (g.fe(), g.fe());
        assert!(a.sub(b).ct_eq(a.add(b.neg())));
    }
}

#[test]
fn fe_inverse_law() {
    let mut g = Gen::new(0xf5);
    for _ in 0..CASES {
        let a = g.fe();
        if a.is_zero() {
            continue;
        }
        assert!(a.mul(a.invert()).ct_eq(Fe::ONE));
    }
}

#[test]
fn fe_canonical_roundtrip() {
    let mut g = Gen::new(0xf6);
    for _ in 0..CASES {
        let canon = g.fe().to_bytes();
        assert_eq!(Fe::from_bytes(&canon).to_bytes(), canon);
    }
}

#[test]
fn scalar_ring_laws() {
    let mut g = Gen::new(0xf7);
    for _ in 0..CASES {
        let (a, b, c) = (g.scalar(), g.scalar(), g.scalar());
        assert_eq!(a.add(b), b.add(a));
        assert_eq!(a.mul(b), b.mul(a));
        assert_eq!(a.mul(b).mul(c), a.mul(b.mul(c)));
        assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
    }
}

#[test]
fn scalar_bytes_roundtrip() {
    let mut g = Gen::new(0xf8);
    for _ in 0..CASES {
        let a = g.scalar();
        assert_eq!(Scalar::from_bytes_mod_order(&a.to_bytes()), a);
    }
}

#[test]
fn point_scalar_homomorphism() {
    let mut g = Gen::new(0xf9);
    let base = Point::basepoint();
    for _ in 0..16 {
        // [a]B + [b]B == [a+b]B
        let a = g.next_u64() % 1000;
        let b = g.next_u64() % 1000;
        let left = base
            .mul(&Scalar::from_u64(a))
            .add(&base.mul(&Scalar::from_u64(b)));
        let right = base.mul(&Scalar::from_u64(a + b));
        assert!(left.eq_point(&right));
    }
}

#[test]
fn point_compress_roundtrip() {
    let mut g = Gen::new(0xfa);
    for _ in 0..16 {
        let k = 1 + g.next_u64() % 5000;
        let p = Point::basepoint().mul(&Scalar::from_u64(k));
        let enc = p.compress();
        let q = Point::decompress(&enc).expect("valid encoding");
        assert!(p.eq_point(&q));
        assert_eq!(q.compress(), enc);
    }
}

#[test]
fn fixed_base_mul_matches_windowed_mul() {
    let mut g = Gen::new(0x101);
    let base = Point::basepoint();
    let edge = [Scalar::ZERO, Scalar::ONE, Scalar::order_minus_one()];
    let random: Vec<Scalar> = (0..CASES).map(|_| g.scalar()).collect();
    for k in edge.iter().chain(&random) {
        assert!(Point::mul_base(k).eq_point(&base.mul(k)), "k = {k:?}");
    }
}

#[test]
fn straus_pass_matches_two_separate_muls() {
    let mut g = Gen::new(0x102);
    let base = Point::basepoint();
    let torsion = eight_torsion();
    for i in 0..CASES {
        let (a, b) = (g.scalar(), g.scalar());
        // A mix of prime-order points and points with a small-order part.
        let point = base.mul(&g.scalar()).add(&torsion[i % 8]);
        let expected = point.mul(&a).add(&base.mul(&b));
        assert!(Point::double_scalar_mul(&a, &point, &b).eq_point(&expected));
    }
    let edge = [Scalar::ZERO, Scalar::ONE, Scalar::order_minus_one()];
    for a in &edge {
        for b in &edge {
            let expected = base.mul(a).add(&base.mul(b));
            assert!(Point::double_scalar_mul(a, &base, b).eq_point(&expected));
        }
    }
}

/// The eight points of order dividing 8, `[j]T` for a point `T` of order
/// exactly 8, found as the small-order part `[L]P` of a curve point `P`
/// outside the prime-order subgroup.
fn eight_torsion() -> Vec<Point> {
    let l_minus_one = Scalar::order_minus_one();
    let t = (2u64..)
        .filter_map(|y| Point::decompress(&Fe::from_u64(y).to_bytes()))
        .map(|p| p.mul(&l_minus_one).add(&p))
        .find(|t| !t.double().double().is_identity())
        .expect("some curve point has a component of order 8");
    let mut points = vec![Point::identity()];
    for j in 1..8 {
        points.push(points[j - 1].add(&t));
    }
    assert!(points[7].add(&t).is_identity());
    points
}

/// Reference verification: canonical `s`, then `[8][s]B == [8]R + [8][k]A`
/// with two separate windowed scalar multiplications and no fixed-base
/// table. The differential test checks [`ed25519::verify`] against it.
fn reference_verify(public_key: &[u8; 32], msg: &[u8], sig: &[u8; 64]) -> bool {
    let r_bytes: [u8; 32] = sig[..32].try_into().expect("32 bytes");
    let s_bytes: [u8; 32] = sig[32..].try_into().expect("32 bytes");
    let Some(s) = Scalar::from_canonical_bytes(&s_bytes) else {
        return false;
    };
    let (Some(a), Some(big_r)) = (Point::decompress(public_key), Point::decompress(&r_bytes))
    else {
        return false;
    };
    let k = challenge(&r_bytes, public_key, msg);
    let sb = Point::basepoint().mul(&s);
    let rhs = big_r.add(&a.mul(&k));
    sb.mul_by_cofactor().eq_point(&rhs.mul_by_cofactor())
}

/// `k = SHA-512(R || A || M) mod L` (RFC 8032 §5.1.7).
fn challenge(r: &[u8; 32], public_key: &[u8; 32], msg: &[u8]) -> Scalar {
    let mut h = Sha512::new();
    h.update(r);
    h.update(public_key);
    h.update(msg);
    Scalar::from_wide_bytes(&h.finalize())
}

/// The clamped secret scalar of a seed (RFC 8032 §5.1.5).
fn secret_scalar(seed: &[u8; 32]) -> Scalar {
    let mut h = Sha512::new();
    h.update(seed);
    let mut bytes: [u8; 32] = h.finalize()[..32].try_into().expect("32 bytes");
    bytes[0] &= 0xf8;
    bytes[31] &= 0x7f;
    bytes[31] |= 0x40;
    Scalar::from_bytes_mod_order(&bytes)
}

fn signature(r: &[u8; 32], s: &[u8; 32]) -> [u8; 64] {
    let mut sig = [0u8; 64];
    sig[..32].copy_from_slice(r);
    sig[32..].copy_from_slice(s);
    sig
}

/// `s + L` as 32 little-endian bytes (it fits: `s < L < 2^253`).
fn plus_order(s: &[u8; 32]) -> [u8; 32] {
    let mut l = Scalar::order_minus_one().to_bytes();
    l[0] += 1; // L - 1 ends in 0xec: no carry
    let mut out = [0u8; 32];
    let mut carry = 0u16;
    for i in 0..32 {
        let v = u16::from(s[i]) + u16::from(l[i]) + carry;
        out[i] = v as u8;
        carry = v >> 8;
    }
    out
}

/// Non-canonical field encodings: `p + y` for `y` in `0..19`, with either
/// sign bit.
fn non_canonical_encodings() -> Vec<[u8; 32]> {
    let mut out = Vec::new();
    for y in 0u8..19 {
        let mut enc = [0xffu8; 32];
        enc[0] = 0xed + y;
        enc[31] = 0x7f;
        out.push(enc);
        enc[31] |= 0x80;
        out.push(enc);
    }
    out
}

#[test]
fn verify_agrees_with_reference_on_adversarial_corpus() {
    let mut g = Gen::new(0x103);
    let torsion = eight_torsion();
    let torsion_enc: Vec<[u8; 32]> = torsion.iter().map(Point::compress).collect();
    let mut corpus: Vec<([u8; 32], Vec<u8>, [u8; 64])> = Vec::new();

    for _ in 0..8 {
        let seed = g.array32();
        let key = SigningKey::from_seed(&seed);
        let pk = key.public_key();
        let msg = g.bytes(1, 120);
        let sig = key.sign(&msg);
        let (r, s): ([u8; 32], [u8; 32]) = (
            sig[..32].try_into().expect("32 bytes"),
            sig[32..].try_into().expect("32 bytes"),
        );
        // Valid, then tampered message and tampered signature bytes.
        corpus.push((pk, msg.clone(), sig));
        let mut tampered = msg.clone();
        tampered[0] ^= 0x01;
        corpus.push((pk, tampered, sig));
        for byte in [0usize, 31, 32, 63] {
            let mut bad = sig;
            bad[byte] ^= 1 << (g.next_u64() % 8);
            corpus.push((pk, msg.clone(), bad));
        }
        // Non-canonical s.
        corpus.push((pk, msg.clone(), signature(&r, &plus_order(&s))));
        // Small-order parts added to R or A of a finished signature: the
        // challenge hash changes, so these reject.
        let big_r = Point::decompress(&r).expect("R decodes");
        let big_a = Point::decompress(&pk).expect("A decodes");
        for t in &torsion {
            corpus.push((pk, msg.clone(), signature(&big_r.add(t).compress(), &s)));
            corpus.push((big_a.add(t).compress(), msg.clone(), sig));
        }
        // Signatures made with the secret scalar over a mixed-order R or A:
        // `[s]B - [k]A - R` is a small-order point, which the cofactored
        // check accepts and a cofactorless one would reject.
        let secret = secret_scalar(&seed);
        let nonce = g.scalar();
        for t in &torsion {
            let mixed_r = Point::mul_base(&nonce).add(t).compress();
            let k = challenge(&mixed_r, &pk, &msg);
            let s = k.mul_add(secret, nonce).to_bytes();
            corpus.push((pk, msg.clone(), signature(&mixed_r, &s)));
            let r = Point::mul_base(&nonce).compress();
            let mixed_a = big_a.add(t).compress();
            let k = challenge(&r, &mixed_a, &msg);
            let s = k.mul_add(secret, nonce).to_bytes();
            corpus.push((mixed_a, msg.clone(), signature(&r, &s)));
        }
        // Non-canonical y encodings as R and as A.
        for enc in non_canonical_encodings() {
            corpus.push((pk, msg.clone(), signature(&enc, &s)));
            corpus.push((enc, msg.clone(), sig));
        }
    }
    // Small-order A and R: identity and order-2/4/8 points. With a
    // small-order A, `R = [s]B + T` passes the cofactored check for any s.
    for a_enc in &torsion_enc {
        for (j, t) in torsion.iter().enumerate() {
            let msg = g.bytes(0, 40);
            let s = g.scalar();
            corpus.push((
                *a_enc,
                msg.clone(),
                signature(&torsion_enc[j], &s.to_bytes()),
            ));
            let r_enc = Point::mul_base(&s).add(t).compress();
            corpus.push((*a_enc, msg, signature(&r_enc, &s.to_bytes())));
        }
    }
    for enc in non_canonical_encodings() {
        let s = g.scalar();
        corpus.push((enc, b"m".to_vec(), signature(&enc, &s.to_bytes())));
        let r_enc = Point::mul_base(&s).compress();
        corpus.push((enc, b"m".to_vec(), signature(&r_enc, &s.to_bytes())));
    }

    let mut accepted = 0usize;
    for (i, (pk, msg, sig)) in corpus.iter().enumerate() {
        let expected = reference_verify(pk, msg, sig);
        assert_eq!(ed25519::verify(pk, msg, sig), expected, "corpus case {i}");
        accepted += usize::from(expected);
    }
    // Both outcomes occur, including acceptances beyond plain valid
    // signatures (mixed-order R and A, small-order A).
    assert!(
        accepted > 8 + 8 * 8 * 2,
        "accepted {accepted} of {}",
        corpus.len()
    );
    assert!(accepted < corpus.len(), "nothing rejected");
}

#[test]
fn signatures_roundtrip_any_message() {
    let mut g = Gen::new(0xfb);
    for _ in 0..8 {
        let msg = g.bytes(0, 200);
        let seed = g.array32();
        for backend in [Backend::Ed25519, Backend::Sim] {
            let sk = SecretKey::from_seed(backend, &seed);
            let sig = sk.sign(&msg);
            assert!(sk.public_key().verify(&msg, &sig));
        }
    }
}

#[test]
fn tampered_messages_never_verify() {
    let mut g = Gen::new(0xfc);
    let sk = SecretKey::from_seed(Backend::Ed25519, &[5u8; 32]);
    for _ in 0..8 {
        let msg = g.bytes(1, 100);
        let sig = sk.sign(&msg);
        let mut tampered = msg.clone();
        let idx = (g.next_u64() as usize) % tampered.len();
        tampered[idx] ^= 0x01;
        assert!(!sk.public_key().verify(&tampered, &sig));
    }
}

#[test]
fn merkle_proofs_sound() {
    let mut g = Gen::new(0xfd);
    for _ in 0..CASES {
        let n = 1 + (g.next_u64() as usize) % 23;
        let leaves: Vec<Vec<u8>> = (0..n).map(|_| g.bytes(0, 40)).collect();
        let root = merkle::root(&leaves);
        let index = (g.next_u64() as usize) % leaves.len();
        let proof = merkle::prove(&leaves, index);
        assert!(merkle::verify(&root, &leaves[index], &proof));
        // A proof never validates different content.
        let mut other = leaves[index].clone();
        other.push(0xff);
        assert!(!merkle::verify(&root, &other, &proof));
    }
}

#[test]
fn sha256_incremental_equals_oneshot() {
    let mut g = Gen::new(0xfe);
    for _ in 0..CASES {
        let chunk_count = (g.next_u64() as usize) % 8;
        let chunks: Vec<Vec<u8>> = (0..chunk_count).map(|_| g.bytes(0, 200)).collect();
        let mut hasher = sha256::Sha256::new();
        let mut all = Vec::new();
        for c in &chunks {
            hasher.update(c);
            all.extend_from_slice(c);
        }
        assert_eq!(hasher.finalize(), sha256::digest(&all));
    }
}
