//! Binary wire encoding for monitor verdicts.
//!
//! `napmon-wire` serves verdicts over a framed TCP protocol; the payload
//! encoding of the core types lives here, next to the types themselves, so
//! the serving layer and any future transport share one definition. The
//! format is little-endian, length-prefixed at every variable-size point,
//! and fully self-delimiting: a decoder either consumes exactly one value
//! or fails with a typed [`WireDecodeError`] — malformed bytes never panic
//! and never read past the buffer (the decoder property tests in
//! `napmon-wire` pin this against arbitrary byte strings).
//!
//! Layout of one [`Verdict`]:
//!
//! ```text
//! u8           warning (0 | 1)
//! u32          violation count
//! per violation:
//!   u8         tag: 0 BelowMin, 1 AboveMax, 2 UnknownPattern
//!   BelowMin / AboveMax:  u32 neuron, f64 value, f64 bound
//!   UnknownPattern:       u32 bit count, ceil(n/8) packed bytes (LSB-first)
//! ```

use crate::monitor::{Verdict, Violation};

/// A decode failure: the bytes do not spell a value of the expected type.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireDecodeError {
    /// The buffer ended before the value did.
    Truncated,
    /// The bytes are structurally invalid for the expected type.
    Malformed(&'static str),
}

impl std::fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireDecodeError::Truncated => write!(f, "truncated value"),
            WireDecodeError::Malformed(what) => write!(f, "malformed value: {what}"),
        }
    }
}

impl std::error::Error for WireDecodeError {}

/// Violation tags on the wire.
const TAG_BELOW_MIN: u8 = 0;
const TAG_ABOVE_MAX: u8 = 1;
const TAG_UNKNOWN_PATTERN: u8 = 2;

/// A decoded count no honest peer would send; bounds speculative
/// allocation before the buffer length proves the count false.
const SANE_COUNT: usize = 1 << 24;

// ---- primitives ---------------------------------------------------------

/// Appends a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its little-endian IEEE-754 bits.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a `u32`, advancing `bytes`.
///
/// # Errors
///
/// [`WireDecodeError::Truncated`] if fewer than four bytes remain.
pub fn get_u32(bytes: &mut &[u8]) -> Result<u32, WireDecodeError> {
    let (head, rest) = bytes
        .split_first_chunk::<4>()
        .ok_or(WireDecodeError::Truncated)?;
    *bytes = rest;
    Ok(u32::from_le_bytes(*head))
}

/// Reads a `u64`, advancing `bytes`.
///
/// # Errors
///
/// [`WireDecodeError::Truncated`] if fewer than eight bytes remain.
pub fn get_u64(bytes: &mut &[u8]) -> Result<u64, WireDecodeError> {
    let (head, rest) = bytes
        .split_first_chunk::<8>()
        .ok_or(WireDecodeError::Truncated)?;
    *bytes = rest;
    Ok(u64::from_le_bytes(*head))
}

/// Reads an `f64` from its little-endian IEEE-754 bits, advancing `bytes`.
///
/// # Errors
///
/// [`WireDecodeError::Truncated`] if fewer than eight bytes remain.
pub fn get_f64(bytes: &mut &[u8]) -> Result<f64, WireDecodeError> {
    Ok(f64::from_bits(get_u64(bytes)?))
}

fn get_u8(bytes: &mut &[u8]) -> Result<u8, WireDecodeError> {
    let (&head, rest) = bytes.split_first().ok_or(WireDecodeError::Truncated)?;
    *bytes = rest;
    Ok(head)
}

// ---- feature vectors ----------------------------------------------------

/// Appends a feature/input vector: `u32` length then the raw `f64`s.
pub fn put_features(out: &mut Vec<u8>, features: &[f64]) {
    put_u32(out, features.len() as u32);
    for &x in features {
        put_f64(out, x);
    }
}

/// Reads a vector written by [`put_features`], advancing `bytes`.
///
/// # Errors
///
/// [`WireDecodeError::Truncated`] if the declared length outruns the
/// buffer; [`WireDecodeError::Malformed`] if any element is NaN or
/// infinite. A monitor fails closed: a non-finite input is refused at the
/// boundary rather than answered with a verdict (a min-max monitor, for
/// one, would pass an all-NaN input without a warning).
pub fn get_features(bytes: &mut &[u8]) -> Result<Vec<f64>, WireDecodeError> {
    let n = get_u32(bytes)? as usize;
    // Cheap length proof before allocating: each element needs 8 bytes.
    if bytes.len() / 8 < n {
        return Err(WireDecodeError::Truncated);
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let x = get_f64(bytes)?;
        if !x.is_finite() {
            return Err(WireDecodeError::Malformed("non-finite feature value"));
        }
        out.push(x);
    }
    Ok(out)
}

// ---- verdicts -----------------------------------------------------------

/// Appends one verdict (see the [module docs](self) for the layout).
pub fn put_verdict(out: &mut Vec<u8>, verdict: &Verdict) {
    out.push(u8::from(verdict.warning));
    put_u32(out, verdict.violations.len() as u32);
    for violation in &verdict.violations {
        match violation {
            Violation::BelowMin {
                neuron,
                value,
                bound,
            } => {
                out.push(TAG_BELOW_MIN);
                put_u32(out, *neuron as u32);
                put_f64(out, *value);
                put_f64(out, *bound);
            }
            Violation::AboveMax {
                neuron,
                value,
                bound,
            } => {
                out.push(TAG_ABOVE_MAX);
                put_u32(out, *neuron as u32);
                put_f64(out, *value);
                put_f64(out, *bound);
            }
            Violation::UnknownPattern { word } => {
                out.push(TAG_UNKNOWN_PATTERN);
                put_u32(out, word.len() as u32);
                let mut byte = 0u8;
                for (i, &bit) in word.iter().enumerate() {
                    byte |= u8::from(bit) << (i % 8);
                    if i % 8 == 7 {
                        out.push(byte);
                        byte = 0;
                    }
                }
                if word.len() % 8 != 0 {
                    out.push(byte);
                }
            }
        }
    }
}

/// Reads one verdict written by [`put_verdict`], advancing `bytes`.
///
/// # Errors
///
/// [`WireDecodeError::Truncated`] on a short buffer,
/// [`WireDecodeError::Malformed`] on an unknown violation tag or a
/// non-boolean warning byte.
pub fn get_verdict(bytes: &mut &[u8]) -> Result<Verdict, WireDecodeError> {
    let warning = match get_u8(bytes)? {
        0 => false,
        1 => true,
        _ => return Err(WireDecodeError::Malformed("warning byte is not 0 or 1")),
    };
    let count = get_u32(bytes)? as usize;
    if count > SANE_COUNT {
        return Err(WireDecodeError::Malformed("violation count out of range"));
    }
    let mut violations = Vec::with_capacity(count.min(bytes.len()));
    for _ in 0..count {
        let violation = match get_u8(bytes)? {
            TAG_BELOW_MIN => Violation::BelowMin {
                neuron: get_u32(bytes)? as usize,
                value: get_f64(bytes)?,
                bound: get_f64(bytes)?,
            },
            TAG_ABOVE_MAX => Violation::AboveMax {
                neuron: get_u32(bytes)? as usize,
                value: get_f64(bytes)?,
                bound: get_f64(bytes)?,
            },
            TAG_UNKNOWN_PATTERN => {
                let bits = get_u32(bytes)? as usize;
                let len = bits.div_ceil(8);
                if bytes.len() < len {
                    return Err(WireDecodeError::Truncated);
                }
                let (packed, rest) = bytes.split_at(len);
                *bytes = rest;
                let word = (0..bits)
                    .map(|i| packed[i / 8] >> (i % 8) & 1 == 1)
                    .collect();
                Violation::UnknownPattern { word }
            }
            _ => return Err(WireDecodeError::Malformed("unknown violation tag")),
        };
        violations.push(violation);
    }
    if warning == violations.is_empty() {
        // `Verdict::ok`/`Verdict::warn` are the only shapes the encoder
        // produces; anything else is a forged buffer.
        return Err(WireDecodeError::Malformed(
            "warning flag disagrees with violation count",
        ));
    }
    Ok(Verdict {
        warning,
        violations,
    })
}

/// Appends a batch of verdicts: `u32` count then each verdict.
pub fn put_verdicts(out: &mut Vec<u8>, verdicts: &[Verdict]) {
    put_u32(out, verdicts.len() as u32);
    for verdict in verdicts {
        put_verdict(out, verdict);
    }
}

/// Reads a batch written by [`put_verdicts`], advancing `bytes`.
///
/// # Errors
///
/// Any [`get_verdict`] error.
pub fn get_verdicts(bytes: &mut &[u8]) -> Result<Vec<Verdict>, WireDecodeError> {
    let count = get_u32(bytes)? as usize;
    // A verdict is at least 5 bytes; reject counts the buffer cannot hold.
    if bytes.len() / 5 < count {
        return Err(WireDecodeError::Truncated);
    }
    // An in-memory `Verdict` is ~10x its minimum wire size, so a hostile
    // count that passes the length proof could still reserve far more
    // than the buffer's worth of memory up front — cap the speculative
    // reservation and let the vector grow with what actually decodes.
    let mut out = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        out.push(get_verdict(bytes)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_verdicts() -> Vec<Verdict> {
        vec![
            Verdict::ok(),
            Verdict::warn(vec![Violation::BelowMin {
                neuron: 3,
                value: -1.5,
                bound: 0.0,
            }]),
            Verdict::warn(vec![
                Violation::AboveMax {
                    neuron: 7,
                    value: 9.25,
                    bound: 2.0,
                },
                Violation::UnknownPattern {
                    word: (0..13).map(|i| i % 3 == 0).collect(),
                },
            ]),
        ]
    }

    #[test]
    fn verdict_round_trip_is_lossless() {
        for verdict in sample_verdicts() {
            let mut buf = Vec::new();
            put_verdict(&mut buf, &verdict);
            let mut bytes = buf.as_slice();
            assert_eq!(get_verdict(&mut bytes).unwrap(), verdict);
            assert!(bytes.is_empty(), "decoder left {} bytes", bytes.len());
        }
    }

    #[test]
    fn verdict_batch_round_trip_is_lossless() {
        let verdicts = sample_verdicts();
        let mut buf = Vec::new();
        put_verdicts(&mut buf, &verdicts);
        let mut bytes = buf.as_slice();
        assert_eq!(get_verdicts(&mut bytes).unwrap(), verdicts);
        assert!(bytes.is_empty());
    }

    #[test]
    fn features_round_trip_is_lossless() {
        let features = vec![0.0, -1.25, f64::MAX, f64::MIN_POSITIVE, 3.5];
        let mut buf = Vec::new();
        put_features(&mut buf, &features);
        let mut bytes = buf.as_slice();
        assert_eq!(get_features(&mut bytes).unwrap(), features);
        assert!(bytes.is_empty());
    }

    #[test]
    fn truncated_buffers_fail_typed() {
        let mut buf = Vec::new();
        put_verdict(&mut buf, &sample_verdicts()[2]);
        for cut in 0..buf.len() {
            let mut bytes = &buf[..cut];
            assert!(
                get_verdict(&mut bytes).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn forged_counts_fail_without_allocating() {
        // A count of u32::MAX with a 4-byte body must fail on the length
        // proof, not attempt a 4-billion-element allocation.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        put_u32(&mut buf, 7);
        let mut bytes = buf.as_slice();
        assert_eq!(get_features(&mut bytes), Err(WireDecodeError::Truncated));
        let mut bytes = buf.as_slice();
        assert_eq!(get_verdicts(&mut bytes), Err(WireDecodeError::Truncated));
    }

    #[test]
    fn inconsistent_warning_flag_is_malformed() {
        let mut buf = Vec::new();
        put_verdict(&mut buf, &Verdict::ok());
        buf[0] = 1; // claim a warning with zero violations
        let mut bytes = buf.as_slice();
        assert!(matches!(
            get_verdict(&mut bytes),
            Err(WireDecodeError::Malformed(_))
        ));
        buf[0] = 2; // not a boolean at all
        let mut bytes = buf.as_slice();
        assert!(matches!(
            get_verdict(&mut bytes),
            Err(WireDecodeError::Malformed(_))
        ));
    }
}
