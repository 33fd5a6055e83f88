//! # sonic-dsp
//!
//! Digital signal processing primitives for the SONIC stack.
//!
//! Everything in this crate is implemented from scratch (no external DSP
//! crates) and is deliberately *sans-IO*: every routine operates on
//! caller-provided slices and returns plain data, so the modem and radio
//! layers built on top stay deterministic and unit-testable.
//!
//! Contents:
//!
//! * [`complex`] — minimal `C32` complex type used throughout the stack.
//! * [`fft`] — radix-2 iterative Cooley-Tukey FFT with cached plans.
//! * [`window`] — Hann / Hamming / Blackman / rectangular window functions.
//! * [`fir`] — windowed-sinc FIR design and streaming filters.
//! * [`iir`] — biquad sections and first-order shelves (FM de-/pre-emphasis).
//! * [`resample`] — polyphase rational resampler.
//! * [`osc`] — numerically controlled oscillator and quadrature mixer.
//! * [`goertzel`] — single-bin DFT power detector (used by the FSK modem).
//! * [`measure`] — power, RMS, dB conversions and SNR estimation helpers.
//! * [`split`] — structure-of-arrays complex buffers ([`split::SplitC32`]).
//! * [`simd`] — runtime-dispatched SIMD kernels with scalar twins.
//! * [`plan`] — planned transforms ([`plan::FftPlan`], [`plan::FirPlan`]).

// `unsafe` is denied everywhere except the `simd` kernel module, which opts
// back in item-by-item; every unsafe block there carries a `// SAFETY:`
// comment (enforced by sonic-lint R6).
#![deny(unsafe_code)]
#![warn(missing_docs)]
// Decode paths must degrade, not die: unwrap is a typed-error escape hatch
// we only permit in tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod complex;
pub mod fft;
pub mod fir;
pub mod goertzel;
pub mod iir;
pub mod measure;
pub mod osc;
pub mod plan;
pub mod resample;
#[allow(unsafe_code)]
pub mod simd;
pub mod split;
pub mod window;

pub use complex::C32;
pub use fft::Fft;
pub use plan::{FftPlan, FirPlan};
pub use split::SplitC32;
