//! Little-endian binary (de)serialization for checkpoint payloads.
//!
//! The workspace has no serialization framework, so durable formats are
//! hand-rolled. This module provides the primitive writers and readers
//! every checkpoint codec shares: fixed-width little-endian integers,
//! `f32`/`f64` bit patterns, one-byte booleans and `Option` tags, and
//! length-prefixed [`Tensor`] payloads. Readers never panic on malformed
//! input — they return `None` so callers can surface a typed corruption error
//! instead — which lets a decoder be written as one `?` chain.

use crate::Tensor;

/// Appends a `u32` in little-endian byte order.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian byte order.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f32` as its little-endian IEEE-754 bit pattern.
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends an `f64` as its little-endian IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a boolean as one byte, `0` or `1`.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends an optional `u64`: a presence byte ([`put_bool`]), then the value
/// when present.
pub fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    put_bool(out, v.is_some());
    if let Some(v) = v {
        put_u64(out, v);
    }
}

/// Appends an optional tensor: a presence byte ([`put_bool`]), then the
/// [`put_tensor`] payload when present.
pub fn put_opt_tensor(out: &mut Vec<u8>, t: Option<&Tensor>) {
    put_bool(out, t.is_some());
    if let Some(t) = t {
        put_tensor(out, t);
    }
}

/// Appends a tensor as a `u64` length followed by raw `f32` bit patterns.
///
/// The payload goes through the bulk byte view in [`crate::simd`], so
/// checkpoint writes and the process world's socket hop move tensors at
/// memcpy speed instead of one element at a time.
pub fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    put_u64(out, t.len() as u64);
    crate::simd::f32s_to_le_bytes(t.as_slice(), out);
}

/// A bounds-checked forward reader over a byte slice.
///
/// # Examples
///
/// ```
/// use rna_tensor::wire::{put_u64, Reader};
///
/// let mut buf = Vec::new();
/// put_u64(&mut buf, 42);
/// let mut r = Reader::new(&buf);
/// assert_eq!(r.u64(), Some(42));
/// assert_eq!(r.u64(), None); // exhausted, not a panic
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// Reads a little-endian `u32`, or `None` if the input is truncated.
    pub fn u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`, or `None` if the input is truncated.
    pub fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        Some(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f32` bit pattern, or `None` if the input is truncated.
    pub fn f32(&mut self) -> Option<f32> {
        self.u32().map(f32::from_bits)
    }

    /// Reads an `f64` bit pattern, or `None` if the input is truncated.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a one-byte boolean written by [`put_bool`]; `None` on
    /// truncation or any byte other than `0`/`1`.
    pub fn bool(&mut self) -> Option<bool> {
        match self.take(1)?[0] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads an optional `u64` written by [`put_opt_u64`]. The outer
    /// `Option` is the decode verdict, the inner one the value.
    pub fn opt_u64(&mut self) -> Option<Option<u64>> {
        Some(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    /// Reads an optional tensor written by [`put_opt_tensor`]. The outer
    /// `Option` is the decode verdict, the inner one the value.
    pub fn opt_tensor(&mut self) -> Option<Option<Tensor>> {
        Some(if self.bool()? {
            Some(self.tensor()?)
        } else {
            None
        })
    }

    /// Borrows the next `n` bytes verbatim, or `None` if fewer remain.
    pub fn bytes_exact(&mut self, n: usize) -> Option<&'a [u8]> {
        self.take(n)
    }

    /// Reads a length-prefixed tensor written by [`put_tensor`], or `None`
    /// if the input is truncated or the declared length is implausible.
    pub fn tensor(&mut self) -> Option<Tensor> {
        let len = usize::try_from(self.u64()?).ok()?;
        // A declared length that exceeds the remaining bytes is corruption,
        // not a reason to attempt a giant allocation.
        if len.checked_mul(4)? > self.remaining() {
            return None;
        }
        let payload = self.take(len * 4)?;
        let mut data = vec![0.0f32; len];
        crate::simd::le_bytes_to_f32s(payload, &mut data);
        Some(Tensor::from_vec(data))
    }
}

/// FNV-1a 64-bit hash, the integrity checksum of the checkpoint format.
///
/// Not cryptographic — it defends against truncation and bit rot, which is
/// all a local crash-recovery file needs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 3);
        put_f32(&mut buf, -0.0);
        put_f64(&mut buf, f64::NAN);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32(), Some(0xdead_beef));
        assert_eq!(r.u64(), Some(u64::MAX - 3));
        assert_eq!(r.f32().map(f32::to_bits), Some((-0.0f32).to_bits()));
        assert_eq!(r.f64().map(f64::is_nan), Some(true));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn tensor_roundtrip_preserves_bits() {
        let t: Tensor = [1.0f32, -2.5, 0.0, f32::MIN_POSITIVE].into_iter().collect();
        let mut buf = Vec::new();
        put_tensor(&mut buf, &t);
        let back = Reader::new(&buf).tensor().unwrap();
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&t), bits(&back));
    }

    #[test]
    fn truncated_input_yields_none() {
        let mut buf = Vec::new();
        put_tensor(&mut buf, &Tensor::filled(8, 1.5));
        for cut in 0..buf.len() {
            assert!(Reader::new(&buf[..cut]).tensor().is_none(), "cut={cut}");
        }
    }

    #[test]
    fn absurd_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX); // claims ~2^64 elements
        assert!(Reader::new(&buf).tensor().is_none());
    }

    #[test]
    fn bool_and_option_fields_roundtrip_and_reject_bad_tags_and_truncation() {
        let t = Tensor::filled(4, 1.5);
        let mut buf = Vec::new();
        put_bool(&mut buf, true);
        put_bool(&mut buf, false);
        put_opt_u64(&mut buf, None);
        put_opt_tensor(&mut buf, None);
        let values = buf.len();
        put_opt_u64(&mut buf, Some(u64::MAX));
        put_opt_tensor(&mut buf, Some(&t));
        let mut r = Reader::new(&buf);
        assert_eq!(r.bool(), Some(true));
        assert_eq!(r.bool(), Some(false));
        assert_eq!(r.opt_u64(), Some(None));
        assert_eq!(r.opt_tensor(), Some(None));
        assert_eq!(r.opt_u64(), Some(Some(u64::MAX)));
        assert_eq!(r.opt_tensor(), Some(Some(t)));
        assert_eq!(r.remaining(), 0);
        // Every strict prefix of the two present values fails one of them.
        for cut in values..buf.len() {
            let mut r = Reader::new(&buf[values..cut]);
            assert!(
                r.opt_u64().and_then(|_| r.opt_tensor()).is_none(),
                "cut={cut}"
            );
        }
        // A tag other than 0/1 is corruption for all three readers, even
        // with a well-formed value behind it; and a present tensor claiming
        // ~2^64 elements is rejected before any buffer is sized by it.
        let mut tagged = vec![2u8];
        put_u64(&mut tagged, 7);
        assert_eq!(Reader::new(&tagged).bool(), None);
        assert_eq!(Reader::new(&tagged).opt_u64(), None);
        assert_eq!(Reader::new(&tagged).opt_tensor(), None);
        let mut absurd = vec![1u8];
        put_u64(&mut absurd, u64::MAX);
        assert_eq!(Reader::new(&absurd).opt_tensor(), None);
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        let a = fnv1a(b"checkpoint");
        let mut flipped = b"checkpoint".to_vec();
        flipped[3] ^= 1;
        assert_ne!(a, fnv1a(&flipped));
    }
}
