//! Engine configuration: commit protocol, timeouts, output policy.

use pv_simnet::SimDuration;

/// Which commit protocol sites run. The three correspond to the approaches
/// of §2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommitProtocol {
    /// §2.4/§3: two-phase commit; a wait-phase timeout installs in-doubt
    /// polyvalues and releases locks, so processing continues.
    Polyvalue,
    /// §2.2 baseline (Gray-style window minimisation only): a wait-phase
    /// timeout keeps locks and blocks conflicting transactions until the
    /// outcome is learned.
    Blocking2pc,
    /// §2.3 baseline: a wait-phase timeout makes an arbitrary unilateral
    /// decision — completing with the given probability — which may violate
    /// atomicity. Violations are counted, not prevented.
    Relaxed {
        /// Probability that the unilateral decision is *complete*.
        complete_prob: f64,
    },
    /// Gray & Lamport's Paxos Commit: every site doubles as an acceptor, a
    /// participant's vote is a ballot-0 phase-2a message for its own Paxos
    /// instance, and a wait-phase (or coordinator ready) timeout triggers a
    /// higher-ballot takeover instead of installing polyvalues or blocking.
    /// Non-blocking whenever a majority of acceptors is reachable; never
    /// creates polyvalues.
    PaxosCommit,
}

impl CommitProtocol {
    /// A short label for metrics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            CommitProtocol::Polyvalue => "polyvalue",
            CommitProtocol::Blocking2pc => "blocking-2pc",
            CommitProtocol::Relaxed { .. } => "relaxed",
            CommitProtocol::PaxosCommit => "paxos-commit",
        }
    }
}

/// Reads back exactly the spellings [`CommitProtocol::label`] prints;
/// `relaxed` completes its unilateral decisions with probability 0.5.
impl std::str::FromStr for CommitProtocol {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        [
            CommitProtocol::Polyvalue,
            CommitProtocol::Blocking2pc,
            CommitProtocol::Relaxed { complete_prob: 0.5 },
            CommitProtocol::PaxosCommit,
        ]
        .into_iter()
        .find(|p| p.label() == s)
        .ok_or_else(|| format!("unknown protocol: {s}"))
    }
}

/// How participants resolve lock conflicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockPolicy {
    /// Conflicts refuse immediately; the coordinator aborts and the client
    /// retries with backoff. Simple and livelock-prone under contention.
    NoWait,
    /// Wound-wait: an older transaction *wounds* (locally aborts) younger
    /// non-staged lock holders and proceeds; a younger one queues behind the
    /// holders until they finish. Deadlock-free by timestamp ordering, and
    /// far fewer client-visible aborts under contention.
    WoundWait,
}

impl LockPolicy {
    /// Short label for metrics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            LockPolicy::NoWait => "no-wait",
            LockPolicy::WoundWait => "wound-wait",
        }
    }
}

/// How a coordinator reports uncertain outputs to clients (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UncertainOutputPolicy {
    /// Present polyvalued outputs to the client as-is.
    Present,
    /// Withhold: the coordinator holds the reply back until every output is
    /// certain, then sends it; the commit itself is not delayed. Held
    /// replies are volatile, so a coordinator crash surfaces to the client
    /// as a response timeout.
    Withhold,
}

/// Static configuration shared by every site of a cluster.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The commit protocol.
    pub protocol: CommitProtocol,
    /// Coordinator patience for read responses before aborting.
    pub read_timeout: SimDuration,
    /// Coordinator patience for readies before aborting.
    pub ready_timeout: SimDuration,
    /// Participant patience in the wait phase before acting per protocol
    /// (installing polyvalues / blocking / deciding unilaterally).
    pub wait_timeout: SimDuration,
    /// Participant patience holding read locks for a transaction that never
    /// progresses (lease), after which the lease is revoked.
    pub read_lease: SimDuration,
    /// Period of the outcome-inquiry timer while in-doubt transactions are
    /// tracked.
    pub inquire_interval: SimDuration,
    /// Output policy for uncertain results (§3.4).
    pub uncertain_outputs: UncertainOutputPolicy,
    /// Participant lock-conflict resolution.
    pub lock_policy: LockPolicy,
    /// Run the `pv-analysis` static checks on every submitted transaction
    /// and reject (non-retryably) those with `Error`-severity findings
    /// before evaluation starts. Off by default: well-tested workloads
    /// need not pay the analysis cost on every submit.
    pub static_checks: bool,
    /// Floor of the WAL checkpoint rule. After applying a decision a site
    /// rewrites its log as a snapshot of its state once the records appended
    /// since the last checkpoint reach what that checkpoint wrote (the log
    /// has doubled) and at least this many. Log length, and so recovery
    /// replay, stays within twice the last checkpoint plus this floor.
    pub compact_threshold: usize,
    /// No effect; kept for the frozen benchmark; deleted with its last caller by ROADMAP item 1.
    pub memtable_threshold: usize,
    /// No effect; kept for the frozen benchmark; deleted with its last caller by ROADMAP item 1.
    pub run_threshold: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            protocol: CommitProtocol::Polyvalue,
            read_timeout: SimDuration::from_millis(100),
            ready_timeout: SimDuration::from_millis(100),
            wait_timeout: SimDuration::from_millis(150),
            read_lease: SimDuration::from_millis(400),
            inquire_interval: SimDuration::from_millis(500),
            uncertain_outputs: UncertainOutputPolicy::Present,
            lock_policy: LockPolicy::NoWait,
            static_checks: false,
            compact_threshold: 4096,
            memtable_threshold: 512,
            run_threshold: 4,
        }
    }
}

impl EngineConfig {
    /// Default configuration with a different protocol.
    pub fn with_protocol(protocol: CommitProtocol) -> Self {
        EngineConfig {
            protocol,
            ..EngineConfig::default()
        }
    }
}

/// A bare protocol converts to a default-everything-else configuration, so
/// builders can take `impl Into<EngineConfig>` and accept either.
impl From<CommitProtocol> for EngineConfig {
    fn from(protocol: CommitProtocol) -> Self {
        EngineConfig::with_protocol(protocol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(CommitProtocol::Polyvalue.label(), "polyvalue");
        assert_eq!(CommitProtocol::Blocking2pc.label(), "blocking-2pc");
        assert_eq!(
            CommitProtocol::Relaxed { complete_prob: 1.0 }.label(),
            "relaxed"
        );
        assert_eq!(CommitProtocol::PaxosCommit.label(), "paxos-commit");
    }

    #[test]
    fn protocols_round_trip_through_label_and_parse() {
        for p in [
            CommitProtocol::Polyvalue,
            CommitProtocol::Blocking2pc,
            CommitProtocol::Relaxed { complete_prob: 0.5 },
            CommitProtocol::PaxosCommit,
        ] {
            assert_eq!(p.label().parse::<CommitProtocol>(), Ok(p));
        }
        assert!("blocking2pc".parse::<CommitProtocol>().is_err());
    }

    #[test]
    fn lock_policy_labels() {
        assert_eq!(LockPolicy::NoWait.label(), "no-wait");
        assert_eq!(LockPolicy::WoundWait.label(), "wound-wait");
    }

    #[test]
    fn default_is_polyvalue_lazy() {
        let c = EngineConfig::default();
        assert_eq!(c.protocol, CommitProtocol::Polyvalue);
        assert!(!c.static_checks);
        assert_eq!(c.lock_policy, LockPolicy::NoWait);
        assert!(c.wait_timeout > SimDuration::ZERO);
        assert_eq!(c.uncertain_outputs, UncertainOutputPolicy::Present);
    }

    #[test]
    fn with_protocol_overrides_only_protocol() {
        let c = EngineConfig::with_protocol(CommitProtocol::Blocking2pc);
        assert_eq!(c.protocol, CommitProtocol::Blocking2pc);
        assert_eq!(c.read_timeout, EngineConfig::default().read_timeout);
    }
}
