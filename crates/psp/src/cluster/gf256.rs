//! GF(2⁸) arithmetic for the Shamir layer: the AES field
//! (x⁸ + x⁴ + x³ + x + 1, reduction polynomial `0x11B`) with log/exp
//! tables built at compile time, so a multiply is two table loads and a
//! modular add — the per-byte cost behind perfbench's
//! `shamir.split_mib_s` / `shamir.reconstruct_mib_s` rows on the `sis`
//! workload.
//!
//! [`mul_naive`] keeps the bitwise Russian-peasant product as the
//! reference implementation: the exhaustive unit test and the proptests
//! pin `mul == mul_naive` over the whole field.

/// The field's reduction polynomial, x⁸ + x⁴ + x³ + x + 1.
pub const POLY: u16 = 0x11B;

/// Generator used to build the tables (0x03 generates the full
/// multiplicative group of this field).
pub const GENERATOR: u8 = 0x03;

const fn build_tables() -> ([u8; 256], [u8; 256]) {
    let mut exp = [0u8; 256];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        // x *= GENERATOR (0x03), i.e. x ^ (x << 1), reduced mod POLY.
        let mut nx = x ^ (x << 1);
        if nx & 0x100 != 0 {
            nx ^= POLY;
        }
        x = nx;
        i += 1;
    }
    // exp[255] aliases exp[0] so `inv` can use `exp[255 - log]` without a
    // branch for log == 0.
    exp[255] = exp[0];
    (exp, log)
}

const TABLES: ([u8; 256], [u8; 256]) = build_tables();
/// `EXP[i]` = GENERATOR^i (with `EXP[255] == EXP[0] == 1`).
pub const EXP: [u8; 256] = TABLES.0;
/// `LOG[x]` = discrete log of `x` base GENERATOR (`LOG[0]` is unused).
pub const LOG: [u8; 256] = TABLES.1;

/// Field addition (== subtraction): XOR.
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Table-driven field multiplication.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let s = LOG[a as usize] as usize + LOG[b as usize] as usize;
    EXP[if s >= 255 { s - 255 } else { s }]
}

/// Multiplicative inverse. `inv(0)` is undefined; this returns 0 so a
/// corrupted-input path cannot panic (callers validate first).
#[inline]
pub fn inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    EXP[255 - LOG[a as usize] as usize]
}

/// Field division `a / b` (returns 0 for `b == 0`; callers validate).
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    mul(a, inv(b))
}

/// Exponentiation by squaring over the table logs.
pub fn pow(a: u8, e: u32) -> u8 {
    if e == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let l = (LOG[a as usize] as u64 * e as u64) % 255;
    EXP[l as usize]
}

/// Bitwise reference multiplication (Russian peasant with modular
/// reduction) — the reference the table implementation is
/// differential-tested against.
pub fn mul_naive(a: u8, b: u8) -> u8 {
    let mut a = a as u16;
    let mut b = b as u16;
    let mut acc: u16 = 0;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= POLY;
        }
        b >>= 1;
    }
    acc as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_naive_over_whole_field() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul_naive(a, b), "mul({a}, {b})");
            }
        }
    }

    #[test]
    fn multiplicative_inverses() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
        }
        assert_eq!(inv(0), 0);
    }

    #[test]
    fn identity_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(add(a, a), 0);
            assert_eq!(add(a, 0), a);
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for a in [0u8, 1, 2, 3, 0x53, 0xCA, 255] {
            let mut acc = 1u8;
            for e in 0..20u32 {
                assert_eq!(pow(a, e), acc, "a = {a}, e = {e}");
                acc = mul(acc, a);
            }
        }
    }

    #[test]
    fn division_undoes_multiplication() {
        for a in 0..=255u8 {
            for b in 1..=255u8 {
                assert_eq!(div(mul(a, b), b), a);
            }
        }
    }

    #[test]
    fn generator_has_full_order() {
        // EXP must enumerate all 255 nonzero elements before wrapping.
        let mut seen = [false; 256];
        for &e in EXP[..255].iter() {
            assert!(!seen[e as usize], "generator order < 255");
            seen[e as usize] = true;
        }
        assert!(!seen[0], "0 is not in the multiplicative group");
    }
}
