//! Shared support for the integration suites.

pub mod cs_id_poisson;
pub mod two_host;
