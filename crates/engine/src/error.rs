//! The engine's unified error type.
//!
//! Every fallible public operation — simulated-cluster accessors, live-cluster
//! calls, consistency checks — returns [`EngineError`] instead of panicking,
//! so embedding code can react to a bad site id or an unsettled item the same
//! way it reacts to a live-runtime timeout.

use pv_core::ItemId;
use pv_store::SiteId;
use std::fmt;

/// Anything that can go wrong when interacting with a cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// No reply arrived within the deadline (socket runtime).
    Timeout,
    /// The site closed the connection: the cluster is shutting down
    /// (socket runtime).
    Disconnected,
    /// The given site id does not name a site of this cluster.
    UnknownSite(SiteId),
    /// The given client index does not name a client of this cluster.
    UnknownClient(usize),
    /// The directory places this item at no site.
    UnplacedItem(ItemId),
    /// The item's home site does not hold it.
    MissingItem(ItemId),
    /// The item was expected to be a settled integer but is not (it is
    /// polyvalued, or holds a different type).
    NotAnInt(ItemId),
    /// The static checks rejected the transaction before submission (the
    /// `static_checks` gate). Carries the rendered diagnostics.
    Rejected(String),
    /// A message failed to encode for the wire (networked runtime). Carries
    /// the rendered `pv_net::wire::EncodeError`.
    Encode(String),
    /// Received bytes failed to decode as a wire frame (networked runtime).
    /// Carries the rendered `pv_net::wire::DecodeError`.
    Decode(String),
    /// A socket operation failed in the networked runtime.
    Io(String),
    /// A peer site could not be reached within the configured retry budget
    /// (networked runtime). Carries what was being attempted.
    Unreachable {
        /// The unreachable site.
        site: SiteId,
        /// What failed (address, attempt count, last OS error).
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Timeout => write!(f, "no reply within the deadline"),
            EngineError::Disconnected => write!(f, "cluster is shut down"),
            EngineError::UnknownSite(s) => write!(f, "no such site: s{s}"),
            EngineError::UnknownClient(i) => write!(f, "no such client: index {i}"),
            EngineError::UnplacedItem(item) => write!(f, "{item} is placed at no site"),
            EngineError::MissingItem(item) => write!(f, "{item} is absent from its home site"),
            EngineError::NotAnInt(item) => write!(f, "{item} is not a settled integer"),
            EngineError::Rejected(report) => {
                write!(f, "rejected by static checks: {report}")
            }
            EngineError::Encode(e) => write!(f, "wire encode failed: {e}"),
            EngineError::Decode(e) => write!(f, "wire decode failed: {e}"),
            EngineError::Io(e) => write!(f, "network I/O failed: {e}"),
            EngineError::Unreachable { site, detail } => {
                write!(f, "site s{site} unreachable: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_subject() {
        assert_eq!(
            EngineError::UnknownSite(3).to_string(),
            "no such site: s3"
        );
        assert_eq!(
            EngineError::MissingItem(ItemId(7)).to_string(),
            "item7 is absent from its home site"
        );
        assert_eq!(EngineError::Timeout.to_string(), "no reply within the deadline");
    }

    #[test]
    fn wire_variants_display_their_detail() {
        assert_eq!(
            EngineError::Decode("bad magic 0xdead".into()).to_string(),
            "wire decode failed: bad magic 0xdead"
        );
        assert_eq!(
            EngineError::Encode("frame too large".into()).to_string(),
            "wire encode failed: frame too large"
        );
        assert_eq!(
            EngineError::Io("connection reset".into()).to_string(),
            "network I/O failed: connection reset"
        );
        let e = EngineError::Unreachable {
            site: 2,
            detail: "127.0.0.1:7102 after 5 attempts".into(),
        };
        assert_eq!(
            e.to_string(),
            "site s2 unreachable: 127.0.0.1:7102 after 5 attempts"
        );
    }

    #[test]
    fn implements_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&EngineError::Disconnected);
    }
}
