//! Group operations on edwards25519 in extended twisted-Edwards coordinates.
//!
//! A point (x, y) is stored as (X : Y : Z : T) with x = X/Z, y = Y/Z and
//! T = XY/Z. The unified addition formulas used here are complete for
//! edwards25519 (they have no exceptional cases), which keeps the logic simple
//! and branch-free.
//!
//! Three scalar multiplications share one radix-16 digit decomposition:
//! [`Point::mul`] (any point, 4-bit windows), [`Point::mul_base`] (the base
//! point, from a table built once) and [`Point::double_scalar_mul`] (the
//! two-scalar Straus pass that signature verification runs).

use super::field::{Fe, D, D2, SQRT_M1};
use super::scalar::Scalar;
use std::sync::OnceLock;

/// A point on edwards25519 in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// The standard base point B: y = 4/5 and x even (RFC 8032 §5.1).
const BASEPOINT: Point = Point {
    x: Fe([
        0x62d608f25d51a,
        0x412a4b4f6592a,
        0x75b7171a4b31d,
        0x1ff60527118fe,
        0x216936d3cd6e5,
    ]),
    y: Fe([
        0x6666666666658,
        0x4cccccccccccc,
        0x1999999999999,
        0x3333333333333,
        0x6666666666666,
    ]),
    z: Fe::ONE,
    t: Fe([
        0x68ab3a5b7dda3,
        0xeea2a5eadbb,
        0x2af8df483c27e,
        0x332b375274732,
        0x67875f0fd78b7,
    ]),
};

/// `[j·16^i]B` for every radix-16 digit position `i` (row) and digit value
/// `j` (column), so `[k]B` is one table addition per digit of `k`.
type BaseTable = Vec<[Point; 16]>;

/// The fixed-base table, built on first use (64 rows, 960 additions).
fn base_table() -> &'static BaseTable {
    static TABLE: OnceLock<BaseTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut rows = Vec::with_capacity(64);
        let mut position = BASEPOINT; // 16^i B
        for _ in 0..64 {
            let row = position.multiples();
            position = row[15].add(&position);
            rows.push(row);
        }
        rows
    })
}

impl Point {
    /// The neutral element (0, 1).
    pub fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The standard base point B (with y = 4/5 and x even).
    pub fn basepoint() -> Point {
        BASEPOINT
    }

    /// Point addition (complete formulas; works for any pair of points).
    pub fn add(&self, other: &Point) -> Point {
        let a = self.y.sub(self.x).mul(other.y.sub(other.x));
        let b = self.y.add(self.x).mul(other.y.add(other.x));
        let c = self.t.mul(D2).mul(other.t);
        let dd = self.z.add(self.z).mul(other.z);
        let e = b.sub(a);
        let f = dd.sub(c);
        let g = dd.add(c);
        let h = b.add(a);
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// Point doubling.
    pub fn double(&self) -> Point {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let c = zz.add(zz);
        let h = a.add(b);
        let e = h.sub(self.x.add(self.y).square());
        let g = a.sub(b);
        let f = c.add(g);
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// Additive inverse.
    pub fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// `[0]P, [1]P, ..., [15]P`: the window table for one radix-16 digit.
    fn multiples(&self) -> [Point; 16] {
        let mut table = [Point::identity(); 16];
        for i in 1..16 {
            table[i] = table[i - 1].add(self);
        }
        table
    }

    /// Scalar multiplication `[k]P` via 4-bit windowed double-and-add.
    pub fn mul(&self, k: &Scalar) -> Point {
        let table = self.multiples();
        let nibbles = k.to_nibbles();
        let mut acc = Point::identity();
        for (i, nib) in nibbles.iter().enumerate().rev() {
            if i != nibbles.len() - 1 {
                acc = acc.double().double().double().double();
            }
            acc = acc.add(&table[*nib as usize]);
        }
        acc
    }

    /// `[k]B` for the base point B: one addition from the fixed-base table
    /// per radix-16 digit of `k` and no doublings. A zero digit adds the
    /// table's identity entry instead of being skipped, so the operation
    /// count never depends on `k` (table reads are indexed, though, so this
    /// is not hardened against cache-timing observers).
    pub fn mul_base(k: &Scalar) -> Point {
        k.to_nibbles()
            .iter()
            .zip(base_table())
            .fold(Point::identity(), |acc, (nib, row)| {
                acc.add(&row[*nib as usize])
            })
    }

    /// Computes `[a]A + [b]B` for the base point B (the double-scalar
    /// multiplication of signature verification) in one Straus pass: both
    /// scalars walk their radix-16 digits together, so the four doublings
    /// per digit are shared. B's window table is the fixed-base table's
    /// first row. Not constant time; verification inputs are public.
    pub fn double_scalar_mul(a: &Scalar, point_a: &Point, b: &Scalar) -> Point {
        let table_a = point_a.multiples();
        let table_b = &base_table()[0];
        let (digits_a, digits_b) = (a.to_nibbles(), b.to_nibbles());
        let mut acc = Point::identity();
        for i in (0..64).rev() {
            if i != 63 {
                acc = acc.double().double().double().double();
            }
            acc = acc
                .add(&table_a[digits_a[i] as usize])
                .add(&table_b[digits_b[i] as usize]);
        }
        acc
    }

    /// Compresses to the 32-byte RFC 8032 wire format.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses a 32-byte encoding; `None` if it is not a curve point.
    pub fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let y = Fe::from_bytes(bytes);
        let sign = (bytes[31] >> 7) == 1;
        // Solve x^2 = (y^2 - 1) / (d*y^2 + 1).
        let y2 = y.square();
        let u = y2.sub(Fe::ONE);
        let v = D.mul(y2).add(Fe::ONE);
        // Candidate root: x = u * v^3 * (u * v^7)^((p-5)/8)
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut x = u.mul(v3).mul(u.mul(v7).pow_p58());
        let vx2 = v.mul(x.square());
        if !vx2.ct_eq(u) {
            if vx2.ct_eq(u.neg()) {
                x = x.mul(SQRT_M1);
            } else {
                return None;
            }
        }
        if x.is_zero() && sign {
            // -0 is a non-canonical encoding.
            return None;
        }
        if x.is_negative() != sign {
            x = x.neg();
        }
        let t = x.mul(y);
        Some(Point {
            x,
            y,
            z: Fe::ONE,
            t,
        })
    }

    /// Equality in the group (projective comparison).
    pub fn eq_point(&self, other: &Point) -> bool {
        // X1/Z1 == X2/Z2  <=>  X1*Z2 == X2*Z1, likewise for Y.
        self.x.mul(other.z).ct_eq(other.x.mul(self.z))
            && self.y.mul(other.z).ct_eq(other.y.mul(self.z))
    }

    /// True if this is the neutral element.
    pub fn is_identity(&self) -> bool {
        self.eq_point(&Point::identity())
    }

    /// Multiplies by the cofactor (8) — used to reject small-order components.
    pub fn mul_by_cofactor(&self) -> Point {
        self.double().double().double()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basepoint_constant_matches_rfc_encoding() {
        // The canonical compressed encoding of B from RFC 8032.
        let mut enc = [0x66u8; 32];
        enc[0] = 0x58;
        let decoded = Point::decompress(&enc).expect("the standard basepoint decompresses");
        assert!(decoded.eq_point(&Point::basepoint()));
        assert_eq!(Point::basepoint().compress(), enc);
        // T = XY/Z holds for the constant.
        assert!(BASEPOINT.t.ct_eq(BASEPOINT.x.mul(BASEPOINT.y)));
    }

    #[test]
    fn identity_is_neutral() {
        let b = Point::basepoint();
        assert!(b.add(&Point::identity()).eq_point(&b));
        assert!(Point::identity().add(&b).eq_point(&b));
    }

    #[test]
    fn double_matches_add() {
        let b = Point::basepoint();
        assert!(b.double().eq_point(&b.add(&b)));
        let b4 = b.double().double();
        assert!(b4.eq_point(&b.add(&b).add(&b).add(&b)));
    }

    #[test]
    fn neg_cancels() {
        let b = Point::basepoint();
        assert!(b.add(&b.neg()).is_identity());
    }

    #[test]
    fn compress_roundtrip() {
        let b = Point::basepoint();
        let p = b.double().add(&b); // 3B
        let enc = p.compress();
        let q = Point::decompress(&enc).expect("valid point");
        assert!(p.eq_point(&q));
        assert_eq!(q.compress(), enc);
    }

    #[test]
    fn basepoint_has_order_l() {
        // [L]B == identity.
        let l_bytes = Scalar::order_minus_one();
        let lb = Point::basepoint().mul(&l_bytes);
        // [L-1]B == -B
        assert!(lb.eq_point(&Point::basepoint().neg()));
    }

    #[test]
    fn scalar_mul_matches_repeated_add() {
        let b = Point::basepoint();
        let k = Scalar::from_u64(17);
        let mut acc = Point::identity();
        for _ in 0..17 {
            acc = acc.add(&b);
        }
        assert!(b.mul(&k).eq_point(&acc));
    }

    #[test]
    fn mul_distributes_over_add() {
        let b = Point::basepoint();
        let k5 = Scalar::from_u64(5);
        let k7 = Scalar::from_u64(7);
        let k12 = Scalar::from_u64(12);
        assert!(b.mul(&k5).add(&b.mul(&k7)).eq_point(&b.mul(&k12)));
    }

    #[test]
    fn decompress_rejects_non_points() {
        // y = 7 does not correspond to a curve point on edwards25519... check
        // by construction: flip through candidate ys and require decompress to
        // be internally consistent when it succeeds.
        let mut found_invalid = false;
        for yv in 2u64..40 {
            let mut enc = Fe::from_u64(yv).to_bytes();
            enc[31] &= 0x7f;
            match Point::decompress(&enc) {
                Some(p) => assert_eq!(p.compress()[..31], enc[..31]),
                None => found_invalid = true,
            }
        }
        assert!(found_invalid, "expected at least one non-point y in range");
    }
}
