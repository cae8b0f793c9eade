//! Ed25519 signatures per RFC 8032, implemented from scratch.
//!
//! It is used for end-to-end correctness (certificates, chain
//! self-verification, fork prevention) and on the signed client path of the
//! real deployment, while large-scale simulations may swap in the cheap
//! [`crate::sim_signer`] backend with identical semantics. Three techniques
//! keep it off the critical path:
//!
//! * **Fixed curve constants** — `d`, `2d`, `sqrt(-1)` and the base point
//!   are compile-time limbs, and squaring has its own 15-product kernel.
//! * **A fixed-base table** — `[k]B` for key generation and signing is 64
//!   additions from a table of `[j·16^i]B` built once, with no doublings.
//! * **One-pass Straus verification** — `[s]B - [k]A` walks both scalars'
//!   radix-16 digits together, sharing every doubling; the check stays
//!   cofactored (`[8]([s]B - [k]A - R) = 0`) and rejects non-canonical `s`.
//!
//! Signing a 310-byte message takes ≈35–55 µs and verifying it ≈115–170 µs
//! on a shared 2-core Xeon VM (`cargo bench -p smartchain-bench --bench
//! crypto`).
//!
//! Verified against the RFC 8032 test vectors in the unit tests below.

pub mod field;
pub mod point;
pub mod scalar;

use crate::sha512::Sha512;
use point::Point;
use scalar::Scalar;

/// Length of a public key in bytes.
pub const PUBLIC_KEY_LEN: usize = 32;
/// Length of a signature in bytes.
pub const SIGNATURE_LEN: usize = 64;
/// Length of a secret seed in bytes.
pub const SEED_LEN: usize = 32;

/// An Ed25519 signing key, expanded from a 32-byte seed.
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; SEED_LEN],
    scalar: Scalar,
    prefix: [u8; 32],
    public: [u8; PUBLIC_KEY_LEN],
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print secret material.
        f.debug_struct("SigningKey")
            .field("public", &crate::hex(&self.public))
            .finish_non_exhaustive()
    }
}

impl SigningKey {
    /// Derives the signing key from a 32-byte seed (RFC 8032 §5.1.5).
    pub fn from_seed(seed: &[u8; SEED_LEN]) -> SigningKey {
        let mut h = Sha512::new();
        h.update(seed);
        let digest = h.finalize();
        let mut scalar_bytes = [0u8; 32];
        scalar_bytes.copy_from_slice(&digest[..32]);
        // Clamp per RFC 8032.
        scalar_bytes[0] &= 0xf8;
        scalar_bytes[31] &= 0x7f;
        scalar_bytes[31] |= 0x40;
        let scalar = Scalar::from_bytes_mod_order(&scalar_bytes);
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&digest[32..]);
        let public = Point::mul_base(&scalar).compress();
        SigningKey {
            seed: *seed,
            scalar,
            prefix,
            public,
        }
    }

    /// The corresponding 32-byte public key.
    pub fn public_key(&self) -> [u8; PUBLIC_KEY_LEN] {
        self.public
    }

    /// The seed this key was derived from.
    pub fn seed(&self) -> &[u8; SEED_LEN] {
        &self.seed
    }

    /// Signs `msg`, producing a 64-byte signature (RFC 8032 §5.1.6).
    pub fn sign(&self, msg: &[u8]) -> [u8; SIGNATURE_LEN] {
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(msg);
        let r = Scalar::from_wide_bytes(&h.finalize());
        let big_r = Point::mul_base(&r).compress();

        let mut h = Sha512::new();
        h.update(&big_r);
        h.update(&self.public);
        h.update(msg);
        let k = Scalar::from_wide_bytes(&h.finalize());

        let s = k.mul_add(self.scalar, r);
        let mut sig = [0u8; SIGNATURE_LEN];
        sig[..32].copy_from_slice(&big_r);
        sig[32..].copy_from_slice(&s.to_bytes());
        sig
    }
}

/// Verifies an Ed25519 signature (RFC 8032 §5.1.7, with the canonical-`s`
/// malleability check).
pub fn verify(public_key: &[u8; PUBLIC_KEY_LEN], msg: &[u8], sig: &[u8; SIGNATURE_LEN]) -> bool {
    let mut r_bytes = [0u8; 32];
    r_bytes.copy_from_slice(&sig[..32]);
    let mut s_bytes = [0u8; 32];
    s_bytes.copy_from_slice(&sig[32..]);

    let s = match Scalar::from_canonical_bytes(&s_bytes) {
        Some(s) => s,
        None => return false,
    };
    let a = match Point::decompress(public_key) {
        Some(a) => a,
        None => return false,
    };
    let big_r = match Point::decompress(&r_bytes) {
        Some(r) => r,
        None => return false,
    };

    let mut h = Sha512::new();
    h.update(&r_bytes);
    h.update(public_key);
    h.update(msg);
    let k = Scalar::from_wide_bytes(&h.finalize());

    // Check [8]([s]B - [k]A - R) == 0, i.e. [8][s]B == [8]R + [8][k]A, to
    // tolerate small-order components the same way batchable verifiers do.
    let sb_minus_ka = Point::double_scalar_mul(&k, &a.neg(), &s);
    sb_minus_ka
        .add(&big_r.neg())
        .mul_by_cofactor()
        .is_identity()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    fn arr32(v: &[u8]) -> [u8; 32] {
        v.try_into().expect("32 bytes")
    }

    fn arr64(v: &[u8]) -> [u8; 64] {
        v.try_into().expect("64 bytes")
    }

    /// RFC 8032 §7.1 TEST 1 (empty message).
    #[test]
    fn rfc8032_test1() {
        let seed = arr32(&unhex(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        ));
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            key.public_key().to_vec(),
            unhex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
        );
        let sig = key.sign(b"");
        assert_eq!(
            sig.to_vec(),
            unhex(
                "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
                 5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
            )
        );
        assert!(verify(&key.public_key(), b"", &sig));
    }

    /// RFC 8032 §7.1 TEST 2 (one-byte message).
    #[test]
    fn rfc8032_test2() {
        let seed = arr32(&unhex(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        ));
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            key.public_key().to_vec(),
            unhex("3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c")
        );
        let msg = unhex("72");
        let sig = key.sign(&msg);
        assert_eq!(
            sig.to_vec(),
            unhex(
                "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
                 085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
            )
        );
        assert!(verify(&key.public_key(), &msg, &sig));
    }

    /// RFC 8032 §7.1 TEST 3 (two-byte message).
    #[test]
    fn rfc8032_test3() {
        let seed = arr32(&unhex(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        ));
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            key.public_key().to_vec(),
            unhex("fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025")
        );
        let msg = unhex("af82");
        let sig = key.sign(&msg);
        assert_eq!(
            sig.to_vec(),
            unhex(
                "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
                 18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
            )
        );
        assert!(verify(&key.public_key(), &msg, &sig));
    }

    #[test]
    fn tampered_message_fails() {
        let key = SigningKey::from_seed(&[7u8; 32]);
        let sig = key.sign(b"pay alice 10 coins");
        assert!(verify(&key.public_key(), b"pay alice 10 coins", &sig));
        assert!(!verify(&key.public_key(), b"pay alice 99 coins", &sig));
    }

    #[test]
    fn tampered_signature_fails() {
        let key = SigningKey::from_seed(&[9u8; 32]);
        let mut sig = key.sign(b"message");
        sig[10] ^= 0x01;
        assert!(!verify(&key.public_key(), b"message", &sig));
    }

    #[test]
    fn wrong_key_fails() {
        let key_a = SigningKey::from_seed(&[1u8; 32]);
        let key_b = SigningKey::from_seed(&[2u8; 32]);
        let sig = key_a.sign(b"message");
        assert!(!verify(&key_b.public_key(), b"message", &sig));
    }

    #[test]
    fn non_canonical_s_rejected() {
        // Take a valid signature and add L to s: must be rejected.
        let key = SigningKey::from_seed(&[3u8; 32]);
        let sig = key.sign(b"m");
        let mut s = [0u8; 32];
        s.copy_from_slice(&sig[32..]);
        // s + L (little-endian addition). L < 2^253 so this fits 32 bytes for
        // most s; if it overflows, the test would wrap, so only run the check
        // when it does not.
        let l_bytes = unhex("edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
        let mut carry = 0u16;
        let mut s_plus_l = [0u8; 32];
        for i in 0..32 {
            let v = s[i] as u16 + l_bytes[i] as u16 + carry;
            s_plus_l[i] = v as u8;
            carry = v >> 8;
        }
        if carry == 0 {
            let mut bad = sig;
            bad[32..].copy_from_slice(&s_plus_l);
            assert!(!verify(&key.public_key(), b"m", &arr64(&bad)));
        }
    }

    #[test]
    fn signing_is_deterministic() {
        let key = SigningKey::from_seed(&[5u8; 32]);
        assert_eq!(key.sign(b"x"), key.sign(b"x"));
        assert_ne!(key.sign(b"x"), key.sign(b"y"));
    }
}
