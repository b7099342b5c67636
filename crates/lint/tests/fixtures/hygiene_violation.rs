//! Fixture: a crate root without `#![forbid(unsafe_code)]` — the
//! commented-out attribute below must not satisfy the check.

// #![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::dbg_macro
)]

pub fn noop() {}
