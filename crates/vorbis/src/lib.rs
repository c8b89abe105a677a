//! # bcl-vorbis — the Ogg Vorbis back-end evaluation application
//!
//! The paper's running example and first benchmark (§2, §4, §7.1): the
//! back-end of an Ogg Vorbis decoder — IMDCT pre-twiddle, 64-point IFFT,
//! post-twiddle with bit reversal, and overlap windowing, in 32-bit fixed
//! point with 24 fractional bits — written in BCL and partitioned six
//! different ways between hardware and software (Figure 12), plus the
//! hand-written software (F2) and SystemC-style (F1) baselines of
//! Figure 13.
//!
//! All implementations share the same generic kernels
//! ([`kernel`]), so every partition, the native baseline, and the
//! event-driven baseline produce **bit-identical PCM**; what varies is
//! where the work happens and what the movement costs.
//!
//! ```
//! use bcl_vorbis::frames::frame_stream;
//! use bcl_vorbis::native::NativeBackend;
//! use bcl_vorbis::partitions::{run_partition, VorbisPartition};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let frames = frame_stream(2, 42);
//! let golden = NativeBackend::new().run(&frames);
//! let run = run_partition(VorbisPartition::E, &frames)?;
//! assert_eq!(run.output, golden);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bcl;
pub mod frames;
pub mod kernel;
pub mod native;
pub mod partitions;
pub mod sysc;
