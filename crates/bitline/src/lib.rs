//! Analytic DRAM bitline / sense-amplifier model.
//!
//! This crate is the reproduction's substitute for the SPICE simulations in
//! Section 4.3 of the ChargeCache paper (Hassan et al., HPCA 2016). The
//! paper uses a 55nm DDR3 sense-amplifier circuit with PTM low-power
//! transistor models to answer one question: *how much can `tRCD` and
//! `tRAS` be reduced when the accessed cell was recently replenished?*
//!
//! We answer the same question with a three-phase analytic model of a row
//! activation (see [`activation`]):
//!
//! 1. **Charge sharing** — a capacitive divider between the cell capacitor
//!    and the bitline lifts the bitline from `Vdd/2` by a deviation `δ`
//!    proportional to the remaining cell charge ([`cell`]).
//! 2. **Regenerative sensing** — the cross-coupled sense amplifier grows the
//!    deviation exponentially until the bitline reaches the
//!    ready-to-access level (`3·Vdd/4`); the time this takes is logarithmic
//!    in `δ`, so depleted cells sense slower ([`senseamp`]).
//! 3. **Restore** — the bitline approaches the rail while recharging the
//!    cell through the access transistor; its duration grows with the charge
//!    deficit of the cell.
//!
//! The model constants are calibrated (see [`consts`]) so that the published
//! anchor points of the paper hold exactly:
//!
//! * a fully-charged cell reaches ready-to-access in **10 ns**, a cell that
//!   has leaked for 64 ms (the DDR3 refresh window) needs **14.5 ns** —
//!   the paper's Figure 6, a 4.5 ns `tRCD` opportunity;
//! * full restore completes 9.6 ns earlier for a fully-charged cell — the
//!   paper's `tRAS` opportunity.
//!
//! For the *operative* timing tables (the paper's Table 2: caching duration
//! → reduced `tRCD`/`tRAS`), use [`mod@derive`], which interpolates the paper's
//! published SPICE results exactly at the anchors and quantizes them to
//! DRAM bus cycles.
//!
//! # Example
//!
//! ```
//! use bitline::{activation::ActivationModel, derive::ReducedTimings};
//!
//! let model = ActivationModel::calibrated();
//! // A freshly replenished cell senses faster than a worst-case one.
//! assert!(model.ready_time_ns(0.0) < model.ready_time_ns(64.0));
//!
//! // Paper Table 2: a 1 ms caching duration allows tRCD = 8 ns.
//! let t = ReducedTimings::for_duration_ms(1.0);
//! assert!((t.trcd_ns - 8.0).abs() < 1e-9);
//! ```

pub mod activation;
pub mod cell;
pub mod consts;
pub mod derive;
pub mod senseamp;

pub use activation::ActivationModel;
pub use cell::CellModel;
pub use derive::{CycleQuantized, ReducedTimings};
pub use senseamp::SenseAmpModel;
