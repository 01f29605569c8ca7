#![warn(missing_docs)]

//! # rcbr-traffic — traffic models for the RCBR reproduction
//!
//! The paper's evaluation rests on two kinds of workload, and this crate
//! provides both:
//!
//! * **Frame traces** ([`trace::FrameTrace`]) — sequences of per-frame bit
//!   counts at a fixed frame interval, the representation of the MPEG-1
//!   *Star Wars* trace the paper uses. Since the original trace is
//!   proprietary, [`mpeg::SyntheticMpegSource`] generates statistically
//!   equivalent traces: an I/B/P GoP structure provides the fast
//!   (intra-scene) time scale and a heavy-tailed scene process provides the
//!   slow time scale, calibrated to the paper's reported statistics (mean
//!   374 kb/s, sustained peaks of 4–5x the mean lasting 10–30 s).
//! * **Markov-modulated models** ([`markov`], [`mts`], [`onoff`]) — the
//!   analytical source models of Section V-A, including the
//!   multiple-time-scale subchain construction of Fig. 4 whose equivalent
//!   bandwidth the theory predicts.
//!
//! [`shaping`] adds the leaky/token-bucket machinery of the Section II
//! discussion (the "one-shot traffic descriptor" RCBR replaces), and
//! [`stats`] computes the multi-time-scale statistics used to validate that
//! the synthetic traces look like the paper's.

pub mod fit;
pub mod interactive;
pub mod io;
pub mod markov;
pub mod mpeg;
pub mod mts;
pub mod onoff;
pub mod shaping;
pub mod squaring;
pub mod stats;
pub mod trace;

pub use fit::{fit_mts, MtsFit, MtsFitConfig};
pub use interactive::{interactive_session, InteractiveConfig, InteractiveSession, VcrState};
pub use markov::{MarkovChain, MarkovModulatedSource};
pub use mpeg::{SyntheticMpegConfig, SyntheticMpegSource};
pub use mts::{MtsModel, Subchain};
pub use onoff::OnOffSource;
pub use shaping::TokenBucket;
pub use stats::TraceStats;
pub use trace::FrameTrace;
