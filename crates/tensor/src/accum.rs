//! Order-independent, error-free floating-point accumulation.
//!
//! The engine's scatter phase reduces many partial sums into each output
//! element. Plain FP32 `+=` makes the result depend on the order the
//! addends arrive, which historically pinned the scatter to one fixed
//! serial order for bitwise determinism — the Amdahl ceiling on the
//! parallel fraction. This module removes the ordering constraint at the
//! arithmetic level:
//!
//! - [`two_sum`]: Knuth's error-free transformation — the classical
//!   building block of compensated (Kahan–Babuška–Neumaier) and
//!   expansion-based (Shewchuk) summation. Exposed as a primitive and used
//!   by [`NeumaierSum`].
//! - [`NeumaierSum`]: the Neumaier cascade. Far more accurate than naive
//!   summation, but **not** order-independent — reordering the addends can
//!   still change the final bits. Provided for comparison and as the
//!   lightweight option when reproducibility across orders is not needed.
//! - [`ExactAccumulator`]: a fixed-point *superaccumulator*. Every finite
//!   `f32` is an integer multiple of 2⁻¹⁴⁹ with magnitude below 2²⁷⁷, so
//!   the sum of any number of them is held **exactly** in a wide
//!   two's-complement integer. Integer addition is associative and
//!   commutative, so the state after adding a multiset of values is
//!   identical for *every* summation order and *every* split/merge
//!   partitioning — and the single final conversion back to `f32`
//!   ([`ExactAccumulator::round`]) is correctly rounded
//!   (round-to-nearest, ties-to-even). This is what makes the parallel
//!   scatter deterministic at any thread count.
//! - [`Binary16Lane`]: the same exact, order-independent sum for the
//!   common case of *binary16-valued* addends, held in one plain `f64`
//!   (8 bytes instead of 56, one add per addend instead of a multi-limb
//!   carry chain). [`Binary16Lane::round_with`] folds in an arbitrary
//!   `f32` seed and returns bits identical to an [`ExactAccumulator`] fed
//!   the seed and the same addends.
//!
//! # Precision paths
//!
//! The engine stores features in FP32, FP16, or INT8, but *accumulates* in
//! FP32 in every mode (tensor-core semantics; §4.3.1 of the paper). Each
//! output element receives one f32 *seed* (zero, or the §4.2.1 center
//! shortcut's GEMM result) plus at most one partial sum per kernel offset:
//!
//! - **FP32**: partial sums are arbitrary finite `f32`s; the
//!   superaccumulator sums them exactly.
//! - **FP16 and INT8**: partial sums are f16-rounded before accumulation
//!   (the 16-bit psum store; INT8 dequantizes into the same FP16-class
//!   psums). Every finite binary16 value is an integer multiple of 2⁻²⁴
//!   with magnitude below 2¹⁶, so fewer than
//!   [`Binary16Lane::ADDEND_LIMIT`] = 2¹³ of them sum to an integer
//!   multiple of 2⁻²⁴ below 2²⁹ in magnitude — and so does every partial
//!   sum on the way, in any order. All of those are exactly representable
//!   in `f64` (53-bit significand), so plain `f64` addition never rounds:
//!   the lane is exact and order-independent by construction. Infinities
//!   and NaN propagate through `f64` addition the same way in every order.
//!   The final combine with the seed is one error-free `f64` two-sum,
//!   rounded to odd (Boldo–Melquiond) and converted to `f32`: rounding to
//!   odd at 53 bits preserves every tie and sticky bit the 24-bit
//!   round-to-nearest-even needs, so the double rounding is innocuous and
//!   the result is the correctly rounded `f32` of the exact total. The
//!   engine picks this path per layer from the partial-sum format and the
//!   kernel volume (the bound on addends per element); FP32 partial sums
//!   and kernels of 2¹³ or more offsets keep the superaccumulator.
//!
//! # Special values
//!
//! Non-finite inputs are tracked by flags, mirroring what an IEEE-754
//! addition chain would produce regardless of order: any NaN — or both
//! +∞ and −∞ — yields the canonical quiet NaN; otherwise a seen infinity
//! wins. A zero integer sum rounds to −0.0 only when every addend was
//! −0.0 (the IEEE round-to-nearest rule for sums of zeros); any other
//! cancellation to zero yields +0.0. Overflow of the rounded magnitude
//! past the largest finite `f32` returns ±∞, exactly as a correctly
//! rounded conversion must.
//!
//! # Capacity
//!
//! The accumulator is 384 bits wide against a maximum addend magnitude
//! below 2²⁷⁷, leaving 2¹⁰⁶ addends of headroom before wraparound could
//! occur — unreachable in practice (the engine sums at most a few hundred
//! values per element; even a u64-indexed stream cannot exhaust it).

/// Knuth's two-sum: returns `(s, e)` with `s = fl(a + b)` and
/// `a + b = s + e` **exactly** (for finite inputs whose sum does not
/// overflow). The error term `e` is what compensated and expansion-based
/// summation algorithms carry forward.
#[inline]
#[must_use]
pub fn two_sum(a: f32, b: f32) -> (f32, f32) {
    let s = a + b;
    let a_virtual = s - b;
    let b_virtual = s - a_virtual;
    let a_roundoff = a - a_virtual;
    let b_roundoff = b - b_virtual;
    (s, a_roundoff + b_roundoff)
}

/// Kahan–Babuška–Neumaier compensated summation.
///
/// Tracks a running sum plus a separate compensation term fed by
/// [`two_sum`]-style error recovery. Much tighter than naive summation
/// (error independent of the addend count for well-scaled data), but the
/// result still depends on the order of [`add`](NeumaierSum::add) calls —
/// use [`ExactAccumulator`] where bitwise order-independence is required.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeumaierSum {
    sum: f32,
    compensation: f32,
}

impl NeumaierSum {
    /// A fresh, empty sum.
    #[must_use]
    pub const fn new() -> NeumaierSum {
        NeumaierSum { sum: 0.0, compensation: 0.0 }
    }

    /// Adds one value.
    #[inline]
    pub fn add(&mut self, v: f32) {
        let (s, e) = two_sum(self.sum, v);
        self.sum = s;
        self.compensation += e;
    }

    /// The compensated total.
    #[must_use]
    pub fn total(&self) -> f32 {
        self.sum + self.compensation
    }
}

/// Number of 64-bit limbs in the superaccumulator (384 bits).
const LIMBS: usize = 6;

/// Exponent-field bias offset: a normal `f32` with biased exponent `e`
/// contributes its 24-bit significand shifted left by `e - 1` in units of
/// 2⁻¹⁴⁹; subnormals (`e == 0`) contribute their raw 23-bit mantissa with
/// shift 0.
const UNIT_EXP: i32 = -149;

/// A fixed-point superaccumulator: the exact sum of any multiset of `f32`
/// values, independent of addition order and of how the work is split
/// across [`merge`](ExactAccumulator::merge)d partial accumulators.
///
/// State is a 384-bit two's-complement integer counting units of 2⁻¹⁴⁹
/// (the smallest positive subnormal), plus flags for non-finite inputs and
/// the signed-zero rule. [`round`](ExactAccumulator::round) converts back
/// to the nearest `f32` (ties to even) in one correctly rounded step.
///
/// ```
/// use torchsparse_tensor::accum::ExactAccumulator;
///
/// let vals = [1.0e30_f32, 1.0, -1.0e30, 2.5e-12];
/// let mut fwd = ExactAccumulator::new();
/// let mut rev = ExactAccumulator::new();
/// for v in vals {
///     fwd.add(v);
/// }
/// for v in vals.iter().rev() {
///     rev.add(*v);
/// }
/// // Naive f32 summation loses the small addends entirely; the exact
/// // accumulator recovers the correctly rounded sum in every order.
/// assert_eq!(fwd.round().to_bits(), rev.round().to_bits());
/// assert_eq!(fwd.round(), 1.0 + 2.5e-12_f32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactAccumulator {
    /// Little-endian two's-complement integer value, in units of 2⁻¹⁴⁹.
    limbs: [u64; LIMBS],
    /// Any NaN addend was seen.
    saw_nan: bool,
    /// A +∞ addend was seen.
    saw_pos_inf: bool,
    /// A −∞ addend was seen.
    saw_neg_inf: bool,
    /// At least one addend was seen (empty sums round to +0.0).
    saw_any: bool,
    /// An addend other than −0.0 was seen (clears the all-negative-zeros
    /// rule that makes a zero sum round to −0.0).
    saw_non_neg_zero: bool,
}

impl Default for ExactAccumulator {
    fn default() -> ExactAccumulator {
        ExactAccumulator::new()
    }
}

impl ExactAccumulator {
    /// A fresh, empty accumulator (rounds to +0.0).
    #[must_use]
    pub const fn new() -> ExactAccumulator {
        ExactAccumulator {
            limbs: [0; LIMBS],
            saw_nan: false,
            saw_pos_inf: false,
            saw_neg_inf: false,
            saw_any: false,
            saw_non_neg_zero: false,
        }
    }

    /// Resets to the empty state (cheaper than reallocating when a scratch
    /// accumulator is reused across output elements).
    pub fn reset(&mut self) {
        *self = ExactAccumulator::new();
    }

    /// Adds one `f32` value exactly.
    #[inline]
    pub fn add(&mut self, v: f32) {
        self.saw_any = true;
        let bits = v.to_bits();
        let negative = bits >> 31 == 1;
        let exp = (bits >> 23) & 0xFF;
        let mantissa = bits & 0x007F_FFFF;
        if exp == 0xFF {
            self.saw_non_neg_zero = true;
            if mantissa != 0 {
                self.saw_nan = true;
            } else if negative {
                self.saw_neg_inf = true;
            } else {
                self.saw_pos_inf = true;
            }
            return;
        }
        if exp == 0 && mantissa == 0 {
            // ±0.0 contributes nothing to the integer value; only the
            // signed-zero rule observes it.
            if !negative {
                self.saw_non_neg_zero = true;
            }
            return;
        }
        self.saw_non_neg_zero = true;
        // Finite nonzero: value = ±m * 2^(shift) units, m < 2^24.
        let (m, shift) = if exp == 0 {
            (u64::from(mantissa), 0u32)
        } else {
            (u64::from(mantissa | 0x0080_0000), exp - 1)
        };
        if negative {
            self.sub_magnitude(m, shift);
        } else {
            self.add_magnitude(m, shift);
        }
    }

    /// Folds another accumulator into this one. The combined state is
    /// bitwise identical to having added both accumulators' inputs to a
    /// single accumulator, in any order — the chunk-split invariance the
    /// parallel scatter relies on.
    pub fn merge(&mut self, other: &ExactAccumulator) {
        let mut carry = false;
        for (dst, &src) in self.limbs.iter_mut().zip(&other.limbs) {
            let (s, c1) = dst.overflowing_add(src);
            let (s, c2) = s.overflowing_add(u64::from(carry));
            *dst = s;
            carry = c1 || c2;
        }
        self.saw_nan |= other.saw_nan;
        self.saw_pos_inf |= other.saw_pos_inf;
        self.saw_neg_inf |= other.saw_neg_inf;
        self.saw_any |= other.saw_any;
        self.saw_non_neg_zero |= other.saw_non_neg_zero;
    }

    /// Adds `m << shift` to the integer value.
    #[inline]
    fn add_magnitude(&mut self, m: u64, shift: u32) {
        let limb = (shift / 64) as usize;
        let bit = shift % 64;
        let wide = u128::from(m) << bit;
        let (lo, hi) = (wide as u64, (wide >> 64) as u64);
        let (s, mut carry) = self.limbs[limb].overflowing_add(lo);
        self.limbs[limb] = s;
        let mut extra = hi;
        let mut i = limb + 1;
        while i < LIMBS && (extra != 0 || carry) {
            let (s, c1) = self.limbs[i].overflowing_add(extra);
            let (s, c2) = s.overflowing_add(u64::from(carry));
            self.limbs[i] = s;
            carry = c1 || c2;
            extra = 0;
            i += 1;
        }
        // A carry out of the top limb wraps mod 2^384 — exactly
        // two's-complement addition against a negative running sum.
    }

    /// Subtracts `m << shift` from the integer value.
    #[inline]
    fn sub_magnitude(&mut self, m: u64, shift: u32) {
        let limb = (shift / 64) as usize;
        let bit = shift % 64;
        let wide = u128::from(m) << bit;
        let (lo, hi) = (wide as u64, (wide >> 64) as u64);
        let (d, mut borrow) = self.limbs[limb].overflowing_sub(lo);
        self.limbs[limb] = d;
        let mut extra = hi;
        let mut i = limb + 1;
        while i < LIMBS && (extra != 0 || borrow) {
            let (d, b1) = self.limbs[i].overflowing_sub(extra);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            self.limbs[i] = d;
            borrow = b1 || b2;
            extra = 0;
            i += 1;
        }
    }

    /// Converts the exact sum to the nearest `f32` (round-to-nearest,
    /// ties-to-even) in one correctly rounded step.
    #[must_use]
    pub fn round(&self) -> f32 {
        if self.saw_nan || (self.saw_pos_inf && self.saw_neg_inf) {
            return f32::NAN;
        }
        if self.saw_pos_inf {
            return f32::INFINITY;
        }
        if self.saw_neg_inf {
            return f32::NEG_INFINITY;
        }
        let negative = self.limbs[LIMBS - 1] >> 63 == 1;
        let mut mag = self.limbs;
        if negative {
            negate(&mut mag);
        }
        let Some(high_bit) = highest_set_bit(&mag) else {
            // Exact zero: −0.0 only if every addend was −0.0.
            return if self.saw_any && !self.saw_non_neg_zero { -0.0 } else { 0.0 };
        };
        let (mut mantissa, mut shift) = if high_bit <= 23 {
            // Fits in 24 bits: exact, no rounding (subnormal or the lowest
            // normal binade).
            (mag[0] as u32, 0u32)
        } else {
            let sh = high_bit - 23;
            let mantissa = extract_24_bits(&mag, sh);
            let round_up = {
                let guard = bit_at(&mag, sh - 1);
                guard && (mantissa & 1 == 1 || any_bit_below(&mag, sh - 1))
            };
            (mantissa + u32::from(round_up), sh)
        };
        if mantissa == 1 << 24 {
            // Rounding carried into the next binade.
            mantissa = 1 << 23;
            shift += 1;
        }
        // With the implicit bit folded in, the f32 bit pattern of
        // mantissa * 2^(shift + UNIT_EXP) is simply (shift << 23) + mantissa
        // — valid across the subnormal/normal boundary. Values past the
        // largest finite pattern overflow to infinity, as correct rounding
        // requires.
        let _ = UNIT_EXP;
        let pattern = (u64::from(shift) << 23) + u64::from(mantissa);
        if pattern >= 0x7F80_0000 {
            return if negative { f32::NEG_INFINITY } else { f32::INFINITY };
        }
        let pattern = pattern as u32 | if negative { 0x8000_0000 } else { 0 };
        f32::from_bits(pattern)
    }
}

/// Two's-complement negation of a multi-limb integer.
fn negate(limbs: &mut [u64; LIMBS]) {
    let mut carry = true;
    for limb in limbs.iter_mut() {
        let (v, c) = (!*limb).overflowing_add(u64::from(carry));
        *limb = v;
        carry = c;
    }
}

/// Index of the highest set bit, or `None` for zero.
fn highest_set_bit(limbs: &[u64; LIMBS]) -> Option<u32> {
    for (i, &limb) in limbs.iter().enumerate().rev() {
        if limb != 0 {
            return Some(i as u32 * 64 + 63 - limb.leading_zeros());
        }
    }
    None
}

/// The 24 bits starting at bit `sh` (the rounded-down significand). The
/// caller guarantees `sh + 23` is the highest set bit.
fn extract_24_bits(limbs: &[u64; LIMBS], sh: u32) -> u32 {
    let limb = (sh / 64) as usize;
    let bit = sh % 64;
    let mut v = limbs[limb] >> bit;
    if bit > 40 && limb + 1 < LIMBS {
        v |= limbs[limb + 1] << (64 - bit);
    }
    (v & 0x00FF_FFFF) as u32
}

/// Whether bit `pos` is set.
fn bit_at(limbs: &[u64; LIMBS], pos: u32) -> bool {
    limbs[(pos / 64) as usize] >> (pos % 64) & 1 == 1
}

/// Whether any bit strictly below `pos` is set.
fn any_bit_below(limbs: &[u64; LIMBS], pos: u32) -> bool {
    let limb = (pos / 64) as usize;
    let bit = pos % 64;
    if bit > 0 && limbs[limb] & ((1u64 << bit) - 1) != 0 {
        return true;
    }
    limbs[..limb].iter().any(|&l| l != 0)
}

/// Exact, order-independent sum of a slice (convenience wrapper).
#[must_use]
pub fn exact_sum(values: &[f32]) -> f32 {
    let mut acc = ExactAccumulator::new();
    for &v in values {
        acc.add(v);
    }
    acc.round()
}

/// An exact, order-independent sum of *binary16-valued* addends in one
/// `f64`: the cheap path to [`ExactAccumulator`]'s bits when every addend
/// is an f16-rounded value.
///
/// Every finite binary16 value is an integer multiple of 2⁻²⁴ below 2¹⁶
/// in magnitude, so any sum of fewer than [`ADDEND_LIMIT`] of them — and
/// every intermediate sum, in any order — is a multiple of 2⁻²⁴ below 2²⁹,
/// exactly representable in `f64`. Plain `f64` addition therefore never
/// rounds here. Non-finite addends propagate as IEEE addition propagates
/// them, identically in every order: NaN (or +∞ with −∞) poisons the
/// lane, a lone infinity wins. The lane starts at −0.0, so it stays −0.0
/// exactly when every addend was −0.0 — the signed-zero rule
/// [`ExactAccumulator`] tracks by flag.
///
/// The caller guarantees the addend contract (binary16 values, fewer than
/// [`ADDEND_LIMIT`] per lane); outside it the lane silently rounds.
///
/// ```
/// use torchsparse_tensor::accum::{exact_sum, Binary16Lane};
///
/// // Binary16 values: the f16 maximum, the smallest f16 subnormal, ...
/// let addends = [65504.0_f32, 2.0f32.powi(-24), -65504.0, 0.5];
/// let mut lane = Binary16Lane::new();
/// for v in addends {
///     lane.add(v);
/// }
/// let seed = 3.0e7_f32;
/// let mut all = vec![seed];
/// all.extend(addends);
/// assert_eq!(lane.round_with(seed).to_bits(), exact_sum(&all).to_bits());
/// ```
///
/// [`ADDEND_LIMIT`]: Binary16Lane::ADDEND_LIMIT
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct Binary16Lane(f64);

impl Default for Binary16Lane {
    fn default() -> Binary16Lane {
        Binary16Lane::new()
    }
}

impl Binary16Lane {
    /// Exclusive bound on addends per lane: `n < 2¹³` binary16 values of
    /// magnitude at most 65504 = (2¹¹ − 1)·2⁵ sum to below 2²⁹, i.e. to an
    /// integer count of 2⁻²⁴ units below 2⁵³ — `f64`'s exact-integer range.
    pub const ADDEND_LIMIT: usize = 1 << 13;

    /// An empty lane (−0.0).
    #[must_use]
    pub const fn new() -> Binary16Lane {
        Binary16Lane(-0.0)
    }

    /// Adds one binary16-valued addend exactly.
    #[inline]
    pub fn add(&mut self, v: f32) {
        self.0 += f64::from(v);
    }

    /// The correctly rounded `f32` of `seed` plus this lane's exact sum —
    /// bitwise equal to [`ExactAccumulator::round`] after adding `seed`
    /// and the lane's addends, for any `f32` seed.
    ///
    /// An `f64` two-sum splits `seed + lane` into its rounded value and
    /// exact error; rounding to odd on the error's sign (Boldo–Melquiond)
    /// keeps every tie and sticky bit the 24-bit round-to-nearest-even
    /// needs (53 ≥ 24 + 2), so the final `f64 -> f32` conversion rounds
    /// correctly, overflowing to ±∞ exactly where it must. NaN results
    /// become the canonical [`f32::NAN`].
    #[must_use]
    pub fn round_with(self, seed: f32) -> f32 {
        let a = f64::from(seed);
        let b = self.0;
        let s = a + b;
        if s.is_nan() {
            return f32::NAN;
        }
        if s.is_infinite() {
            // Finite inputs are below 2¹²⁸ and 2²⁹, so only an infinite
            // input gets here.
            return s as f32;
        }
        let b_virtual = s - a;
        let a_virtual = s - b_virtual;
        let err = (a - a_virtual) + (b - b_virtual);
        let bits = s.to_bits();
        let odd = if err == 0.0 || bits & 1 == 1 {
            bits
        } else if (err > 0.0) == (s > 0.0) {
            // The exact sum lies above |s|: step the magnitude up one ulp.
            bits + 1
        } else {
            bits - 1
        };
        f64::from_bits(odd) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: f32) -> u32 {
        v.to_bits()
    }

    #[test]
    fn two_sum_recovers_roundoff() {
        let (s, e) = two_sum(1.0e8, 1.0);
        assert_eq!(s, 1.0e8 + 1.0);
        // The exact sum is s + e.
        assert_eq!(f64::from(s) + f64::from(e), 1.0e8f64 + 1.0);
    }

    #[test]
    fn neumaier_beats_naive() {
        let vals = [1.0e8_f32, 1.0, -1.0e8];
        let naive: f32 = vals.iter().sum();
        let mut n = NeumaierSum::new();
        for v in vals {
            n.add(v);
        }
        assert_eq!(n.total(), 1.0);
        assert_ne!(naive, 1.0, "naive summation must actually lose the small addend");
    }

    #[test]
    fn exact_simple_sums() {
        assert_eq!(exact_sum(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(exact_sum(&[]), 0.0);
        assert_eq!(exact_sum(&[0.5; 7]), 3.5);
        assert_eq!(exact_sum(&[-1.5, 1.0]), -0.5);
    }

    #[test]
    fn exact_catastrophic_cancellation() {
        // Naive summation returns 0.0 here; the exact sum is 1.0.
        assert_eq!(exact_sum(&[1.0e30, 1.0, -1.0e30]), 1.0);
        // Cancellation down to the smallest subnormal.
        let tiny = f32::from_bits(1); // 2^-149
        assert_eq!(bits(exact_sum(&[1.0, tiny, -1.0])), bits(tiny));
    }

    #[test]
    fn exact_subnormal_arithmetic() {
        let tiny = f32::from_bits(1);
        assert_eq!(bits(exact_sum(&[tiny, tiny, tiny])), bits(f32::from_bits(3)));
        assert_eq!(bits(exact_sum(&[tiny, -tiny])), bits(0.0));
        // Subnormals summing up into the normal range.
        let sub = f32::from_bits(0x007F_FFFF); // largest subnormal
        let sum2 = exact_sum(&[sub, sub]);
        assert_eq!(f64::from(sum2), 2.0 * f64::from(sub));
    }

    #[test]
    fn exact_ties_round_to_even() {
        // 2^24 + 1 is exactly halfway between 2^24 and 2^24 + 2: RN-even
        // keeps 2^24 (even mantissa).
        let big = (1u32 << 24) as f32;
        assert_eq!(exact_sum(&[big, 1.0]), big);
        // 2^24 + 2 + 1 rounds up to 2^24 + 4 (ties to even again).
        let odd = big + 2.0;
        assert_eq!(exact_sum(&[odd, 1.0]), big + 4.0);
        // A sticky bit below the guard breaks the tie upward.
        assert_eq!(exact_sum(&[big, 1.0, f32::from_bits(1)]), big + 2.0);
    }

    #[test]
    fn exact_overflow_to_infinity() {
        assert_eq!(exact_sum(&[f32::MAX, f32::MAX]), f32::INFINITY);
        assert_eq!(exact_sum(&[f32::MIN, f32::MIN]), f32::NEG_INFINITY);
        // MAX + MAX - MAX is exactly MAX again: no spurious overflow.
        assert_eq!(exact_sum(&[f32::MAX, f32::MAX, -f32::MAX]), f32::MAX);
        // Just past the rounding boundary overflows; exactly at MAX stays.
        let half_ulp = 2.0f32.powi(103); // 0.5 * ulp(MAX) = 2^103
        assert_eq!(exact_sum(&[f32::MAX, half_ulp]), f32::INFINITY, "tie rounds to even (inf)");
        assert_eq!(exact_sum(&[f32::MAX, half_ulp * 0.5]), f32::MAX);
    }

    #[test]
    fn exact_special_values() {
        assert!(exact_sum(&[f32::NAN, 1.0]).is_nan());
        assert!(exact_sum(&[f32::INFINITY, f32::NEG_INFINITY]).is_nan());
        assert_eq!(exact_sum(&[f32::INFINITY, -1.0e38]), f32::INFINITY);
        assert_eq!(exact_sum(&[f32::NEG_INFINITY, f32::MAX]), f32::NEG_INFINITY);
    }

    #[test]
    fn exact_signed_zero_rules() {
        assert_eq!(bits(exact_sum(&[-0.0, -0.0])), bits(-0.0));
        assert_eq!(bits(exact_sum(&[-0.0])), bits(-0.0));
        assert_eq!(bits(exact_sum(&[-0.0, 0.0])), bits(0.0));
        assert_eq!(bits(exact_sum(&[0.0, -0.0])), bits(0.0));
        assert_eq!(bits(exact_sum(&[1.0, -1.0])), bits(0.0), "cancellation yields +0");
        assert_eq!(bits(exact_sum(&[-0.0, 1.0, -1.0])), bits(0.0));
    }

    #[test]
    fn exact_order_independent_with_specials() {
        let vals = [f32::INFINITY, 1.0, -0.0, f32::MAX, -f32::MAX];
        let fwd = exact_sum(&vals);
        let rev: Vec<f32> = vals.iter().rev().copied().collect();
        assert_eq!(bits(fwd), bits(exact_sum(&rev)));
    }

    #[test]
    fn merge_matches_single_pass() {
        let vals = [3.5e12_f32, -1.0, 7.25e-30, 1.0e38, -9.9e37, 0.125];
        let mut whole = ExactAccumulator::new();
        for v in vals {
            whole.add(v);
        }
        for split in 0..=vals.len() {
            let mut a = ExactAccumulator::new();
            let mut b = ExactAccumulator::new();
            for &v in &vals[..split] {
                a.add(v);
            }
            for &v in &vals[split..] {
                b.add(v);
            }
            a.merge(&b);
            assert_eq!(a, whole, "split at {split}");
            assert_eq!(bits(a.round()), bits(whole.round()));
        }
    }

    #[test]
    fn reset_restores_empty_state() {
        let mut acc = ExactAccumulator::new();
        acc.add(f32::NAN);
        acc.add(123.0);
        acc.reset();
        assert_eq!(acc, ExactAccumulator::new());
        assert_eq!(bits(acc.round()), bits(0.0));
    }

    #[test]
    fn round_matches_f64_when_f64_is_exact() {
        // Sums whose exact value fits f64 round identically to the f64
        // route (f64 -> f32 of an exactly represented value is correctly
        // rounded by definition).
        let cases: &[&[f32]] = &[
            &[1.0e8, 1.0, 1.0, 1.0],
            &[0.1, 0.2, 0.3],
            &[1.5e-45, 1.0e-40, -2.0e-41],
            &[123456.78, -0.0012345, 9.0e-8],
        ];
        for vals in cases {
            let exact: f64 = vals.iter().map(|&v| f64::from(v)).sum();
            assert_eq!(bits(exact_sum(vals)), bits(exact as f32), "{vals:?}");
        }
    }

    /// The reference: an [`ExactAccumulator`] fed the seed and addends.
    fn superaccumulated(seed: f32, addends: &[f32]) -> f32 {
        let mut acc = ExactAccumulator::new();
        acc.add(seed);
        for &v in addends {
            acc.add(v);
        }
        acc.round()
    }

    fn lane_folded(seed: f32, addends: &[f32]) -> f32 {
        let mut lane = Binary16Lane::new();
        for &v in addends {
            lane.add(v);
        }
        lane.round_with(seed)
    }

    fn f16(bits: u16) -> f32 {
        crate::half::Half::from_bits(bits).to_f32()
    }

    #[test]
    fn lane_exact_just_below_the_addend_limit() {
        // 8191 * 65504 + 2^-24 needs all 53 bits of the lane; cancelling
        // the big part against the seed exposes the lowest one.
        let n = Binary16Lane::ADDEND_LIMIT - 1;
        let mut addends = vec![65504.0_f32; n - 1];
        addends.push(2.0f32.powi(-24));
        let seed = -(65504.0 * (n - 1) as f32);
        assert_eq!(f64::from(seed), -65504.0 * (n - 1) as f64, "seed is exact");
        assert_eq!(bits(lane_folded(seed, &addends)), bits(2.0f32.powi(-24)));
        assert_eq!(bits(lane_folded(seed, &addends)), bits(superaccumulated(seed, &addends)));
    }

    #[test]
    fn lane_special_values_and_zeros() {
        let (inf, nan) = (f32::INFINITY, f32::NAN);
        let cases: &[(f32, &[f32])] = &[
            (-0.0, &[]),
            (0.0, &[]),
            (-0.0, &[-0.0, -0.0]),
            (0.0, &[-0.0]),
            (-0.0, &[-0.0, 0.0]),
            (-0.0, &[1.0, -1.0]),
            (1.0, &[-1.0, -0.0]),
            (nan, &[1.0]),
            (1.0, &[nan]),
            (inf, &[-inf]),
            (1.0, &[inf, -inf]),
            (-inf, &[65504.0]),
            (f32::MAX, &[inf]),
            (f32::MIN, &[-65504.0]),
            (f32::from_bits(1), &[-0.0]),
            (-f32::from_bits(1), &[2.0f32.powi(-24), -2.0f32.powi(-24)]),
        ];
        for &(seed, addends) in cases {
            assert_eq!(
                bits(lane_folded(seed, addends)),
                bits(superaccumulated(seed, addends)),
                "seed {seed:e} addends {addends:?}"
            );
        }
        assert_eq!(bits(lane_folded(-0.0, &[-0.0])), bits(-0.0));
    }

    #[test]
    fn lane_combine_rounds_ties_to_even_and_overflows() {
        // Seed 2^24 + 2k plus the half-ulp 1.0: a tie, resolved to even.
        let big = (1u32 << 24) as f32;
        assert_eq!(lane_folded(big, &[1.0]), big);
        assert_eq!(lane_folded(big + 2.0, &[1.0]), big + 4.0);
        // A sticky bit below the half-ulp breaks the tie upward.
        assert_eq!(lane_folded(big, &[1.0, 2.0f32.powi(-24)]), big + 2.0);
        assert_eq!(lane_folded(-big, &[-1.0, -2.0f32.powi(-24)]), -big - 2.0);
        // The combine rounds correctly for any f64-exact lane, so it also
        // overflows exactly where the superaccumulator does.
        let half_ulp_max = 2.0f32.powi(103);
        for lane in [half_ulp_max, half_ulp_max * 0.5] {
            assert_eq!(
                bits(Binary16Lane(f64::from(lane)).round_with(f32::MAX)),
                bits(exact_sum(&[f32::MAX, lane])),
            );
        }
    }

    /// Decodes `(bits, selector)` pairs into binary16 addends: mostly
    /// finite values (subnormals included, about one in 32), with the
    /// non-finite ones kept out unless `allow_specials` so most cases
    /// exercise the exact-arithmetic path.
    fn decode_binary16(raw: &[(u16, u8)], allow_specials: bool) -> Vec<f32> {
        const SPECIALS: [u16; 8] = [0x0000, 0x8000, 0x7C00, 0xFC00, 0x7E00, 0x7BFF, 0x0001, 0x8400];
        raw.iter()
            .map(|&(b, sel)| {
                if allow_specials && sel == 0 {
                    f16(SPECIALS[usize::from(b) % SPECIALS.len()])
                } else if b & 0x7C00 == 0x7C00 {
                    // Infinity or NaN: drop one exponent bit to stay finite.
                    f16(b ^ 0x4000)
                } else {
                    f16(b)
                }
            })
            .collect()
    }

    /// Seeds: arbitrary f32 bit patterns, with one in four a hand-picked
    /// edge (signed zeros, infinities, NaN, f32 subnormals, +-MAX).
    fn decode_seed(bits: u32, sel: u8) -> f32 {
        const SEEDS: [f32; 10] = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            1.0e-45,
            -1.1e-38,
        ];
        if sel == 0 {
            SEEDS[bits as usize % SEEDS.len()]
        } else {
            f32::from_bits(bits)
        }
    }

    /// Deterministic in-place shuffle.
    fn shuffle(values: &mut [f32], mut state: u64) {
        for i in (1..values.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            values.swap(i, (state % (i as u64 + 1)) as usize);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Lane fold + combine is bitwise equal to the superaccumulator for
        /// any f32 seed and up to 125 binary16 addends, in any order.
        #[test]
        fn prop_lane_matches_superaccumulator(
            raw in proptest::collection::vec((0u16..u16::MAX, 0u8..5), 0..126),
            seed_bits in 0u32..u32::MAX,
            seed_sel in 0u8..4,
            specials in 0u8..4,
            order in 1u64..u64::MAX,
        ) {
            let seed = decode_seed(seed_bits, seed_sel);
            let mut addends = decode_binary16(&raw, specials == 0);
            let want = bits(superaccumulated(seed, &addends));
            proptest::prop_assert_eq!(bits(lane_folded(seed, &addends)), want);
            shuffle(&mut addends, order);
            proptest::prop_assert_eq!(bits(lane_folded(seed, &addends)), want);
        }

        /// Ties: a seed with a random 24-bit significand plus exactly half
        /// its ulp (a binary16 value), buried among cancelling pairs.
        /// Round-half-even must pick the even neighbour — unless a 2^-24
        /// sticky addend breaks the tie. Past a seed exponent of about 29
        /// the sticky bit falls below the `f64` sum's last bit, so only
        /// the round-to-odd step keeps it.
        #[test]
        fn prop_lane_ties_round_half_even(
            mantissa in 0u32..(1 << 23),
            exponent in 0i32..40,
            negative in 0u8..2,
            sticky in 0u8..3,
            noise in proptest::collection::vec(0u16..0x7C00, 0..40),
            order in 1u64..u64::MAX,
        ) {
            let sign = if negative == 1 { -1.0 } else { 1.0 };
            let seed_mag = f64::from((1 << 23) | mantissa) * 2f64.powi(exponent - 23);
            let seed = (sign * seed_mag) as f32;
            let half_ulp = (sign * 2f64.powi(exponent - 24)) as f32;
            let tiny = sign as f32 * 2.0f32.powi(-24);
            let mut addends = vec![half_ulp];
            match sticky {
                1 => addends.push(tiny),
                2 => addends.push(-tiny),
                _ => {}
            }
            for &b in &noise {
                addends.push(f16(b));
                addends.push(-f16(b));
            }
            shuffle(&mut addends, order);
            let want = superaccumulated(seed, &addends);
            let away = seed + 2.0 * half_ulp;
            let expected = match sticky {
                1 => away,
                2 => seed,
                _ if mantissa & 1 == 0 => seed,
                _ => away,
            };
            proptest::prop_assert_eq!(bits(want), bits(expected));
            proptest::prop_assert_eq!(bits(lane_folded(seed, &addends)), bits(want));
        }
    }

    #[test]
    fn lane_all_negative_zero_sums_in_any_count() {
        for n in [0, 1, 2, 125] {
            let addends = vec![-0.0_f32; n];
            for seed in [-0.0_f32, 0.0] {
                assert_eq!(
                    bits(lane_folded(seed, &addends)),
                    bits(superaccumulated(seed, &addends)),
                    "{n} addends, seed {seed}"
                );
            }
        }
    }
}
