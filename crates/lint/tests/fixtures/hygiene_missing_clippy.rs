//! Fixture: a crate root that forbids unsafe code but warns only on the
//! unwrap/expect half of the clippy panic set — the panicking macros,
//! placeholders and `dbg!` would go unchecked in this crate.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub fn noop() {}
