//! Shared support for the integration suites.

pub mod two_host;
