//! The client actor: submits a workload, retries aborts, records outcomes.

use crate::directory::Directory;
use crate::messages::{AbortReason, Msg, TxnResult};
use crate::site::site_node;
use crate::workload::Workload;
use pv_core::TransactionSpec;
use pv_simnet::{Actor, Ctx, NodeId, SimDuration, TraceEvent};
use pv_store::SiteId;
use std::collections::BTreeMap;

/// Client behaviour knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// How many times an aborted transaction is retried before giving up.
    pub max_retries: u32,
    /// Keep every `(spec, result)` pair for later inspection (tests); turn
    /// off for long benchmark runs.
    pub record_results: bool,
    /// How long to wait for a reply before giving the request up (covers a
    /// crashed or unreachable coordinator). Re-submission would risk running
    /// the transaction twice, so the client abandons instead.
    pub response_timeout: SimDuration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_retries: 8,
            record_results: true,
            response_timeout: SimDuration::from_secs(2),
        }
    }
}

/// One outstanding request.
#[derive(Debug)]
struct Outstanding {
    spec: TransactionSpec,
    coordinator: SiteId,
    first_submit: Option<pv_simnet::SimTime>,
    retries: u32,
    /// True while a submit is in flight; false while backing off.
    awaiting: bool,
    /// Timer generation: a timer whose generation does not match is stale.
    gen: u8,
}

/// Base backoff before a retry; doubles per attempt, with jitter.
const BACKOFF: SimDuration = SimDuration::from_millis(40);

/// Timer key for the next workload arrival.
const ARRIVAL_KEY: u64 = 0;

/// A client of the distributed database.
///
/// The client pulls transactions from its [`Workload`], submits each to a
/// coordinator site (the home site of the transaction's first written item,
/// or its first read item for queries), and retries aborted transactions
/// with exponential backoff.
pub struct Client {
    config: ClientConfig,
    directory: Directory,
    sites: u32,
    workload: Box<dyn Workload>,
    staged: Option<TransactionSpec>,
    outstanding: BTreeMap<u64, Outstanding>,
    next_req: u64,
    results: Vec<(TransactionSpec, TxnResult)>,
}

impl Client {
    /// Creates a client over `sites` sites (site `s` = node `s`).
    pub fn new(
        config: ClientConfig,
        directory: Directory,
        sites: u32,
        workload: Box<dyn Workload>,
    ) -> Self {
        assert!(sites > 0, "a cluster needs at least one site");
        Client {
            config,
            directory,
            sites,
            workload,
            staged: None,
            outstanding: BTreeMap::new(),
            next_req: 1,
            results: Vec::new(),
        }
    }

    /// Completed `(spec, result)` pairs, in completion order (only when
    /// `record_results` is on).
    pub fn results(&self) -> &[(TransactionSpec, TxnResult)] {
        &self.results
    }

    /// Requests still awaiting a reply (or scheduled for retry).
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.len()
    }

    /// Picks a coordinator for a spec: home of the first write, else of the
    /// first read, else site 0.
    fn coordinator_for(&self, spec: &TransactionSpec) -> SiteId {
        let first_item = spec
            .write_set()
            .into_iter()
            .next()
            .or_else(|| spec.read_set().into_iter().next());
        first_item
            .and_then(|item| self.directory.site_of(item))
            .map(|s| s % self.sites)
            .unwrap_or(0)
    }

    fn pull_next_arrival(&mut self, ctx: &mut Ctx<Msg>) {
        if let Some((spec, gap)) = self.workload.next(ctx.rng()) {
            self.staged = Some(spec);
            ctx.set_timer(gap, ARRIVAL_KEY);
        }
    }

    fn submit(&mut self, ctx: &mut Ctx<Msg>, req_id: u64) {
        let response_timeout = self.config.response_timeout;
        let Some(out) = self.outstanding.get_mut(&req_id) else {
            return;
        };
        if out.first_submit.is_none() {
            out.first_submit = Some(ctx.now());
            ctx.trace(TraceEvent::TxnSubmitted {
                req_id,
                coordinator: out.coordinator,
            });
        }
        out.awaiting = true;
        out.gen = out.gen.wrapping_add(1);
        let key = (req_id << 8) | u64::from(out.gen);
        let coordinator = out.coordinator;
        let spec = out.spec.clone();
        ctx.metrics().inc("client.submits");
        ctx.send(site_node(coordinator), Msg::Submit { req_id, spec });
        ctx.set_timer(response_timeout, key);
    }
}

impl Actor for Client {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        self.pull_next_arrival(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, _from: NodeId, msg: Msg) {
        let Msg::Reply { req_id, result } = msg else {
            return; // clients only consume replies
        };
        let Some(out) = self.outstanding.get(&req_id) else {
            return; // duplicate or post-giveup reply
        };
        let retryable = matches!(
            result,
            TxnResult::Aborted {
                reason: AbortReason::LockConflict | AbortReason::Timeout
            }
        );
        if retryable && out.retries < self.config.max_retries {
            let out = self.outstanding.get_mut(&req_id).expect("present");
            out.retries += 1;
            out.awaiting = false;
            out.gen = out.gen.wrapping_add(1);
            let key = (req_id << 8) | u64::from(out.gen);
            let factor = 1 << out.retries.min(10);
            let jitter = ctx.rng().uniform(0.5, 1.5);
            let delay = BACKOFF.mul_f64(factor as f64 * jitter);
            ctx.metrics().inc("client.retries");
            ctx.trace(TraceEvent::TxnRetried {
                req_id,
                attempt: out.retries,
            });
            ctx.set_timer(delay, key);
            return;
        }
        let out = self.outstanding.remove(&req_id).expect("present");
        match &result {
            TxnResult::Committed { .. } => {
                ctx.metrics().inc("client.committed");
                if let Some(t0) = out.first_submit {
                    let latency = ctx.now().since(t0).as_secs_f64();
                    ctx.metrics().observe("client.latency", latency);
                }
                if result.has_uncertain_output() {
                    ctx.metrics().inc("client.uncertain_output");
                }
                if result.fully_granted() {
                    ctx.metrics().inc("client.granted");
                }
            }
            TxnResult::Aborted { .. } if retryable => {
                ctx.metrics().inc("client.gave_up");
            }
            TxnResult::Aborted { .. } => {
                ctx.metrics().inc("client.failed");
            }
        }
        if self.config.record_results {
            self.results.push((out.spec, result));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, key: u64) {
        if key == ARRIVAL_KEY {
            if let Some(spec) = self.staged.take() {
                let req_id = self.next_req;
                self.next_req += 1;
                let coordinator = self.coordinator_for(&spec);
                self.outstanding.insert(
                    req_id,
                    Outstanding {
                        spec,
                        coordinator,
                        first_submit: None,
                        retries: 0,
                        awaiting: false,
                        gen: 0,
                    },
                );
                self.submit(ctx, req_id);
            }
            self.pull_next_arrival(ctx);
        } else {
            let req_id = key >> 8;
            let gen = (key & 0xFF) as u8;
            let Some(out) = self.outstanding.get(&req_id) else {
                return;
            };
            if out.gen != gen {
                return; // stale timer from a superseded state
            }
            if out.awaiting {
                // No reply within patience: the coordinator is unreachable.
                // Re-submitting could run the transaction twice, so abandon.
                self.outstanding.remove(&req_id);
                ctx.metrics().inc("client.no_reply");
            } else {
                // Backoff elapsed: retry.
                self.submit(ctx, req_id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Script;
    use pv_core::{Expr, ItemId};

    fn client_with(spec: TransactionSpec) -> Client {
        Client::new(
            ClientConfig::default(),
            Directory::Mod(3),
            3,
            Box::new(Script::new(vec![spec], SimDuration::from_millis(1))),
        )
    }

    #[test]
    fn coordinator_prefers_first_write_site() {
        let spec = TransactionSpec::new()
            .update(ItemId(4), Expr::read(ItemId(2)))
            .output("r", Expr::read(ItemId(2)));
        let c = client_with(spec.clone());
        // Item 4 lives at site 4 % 3 == 1.
        assert_eq!(c.coordinator_for(&spec), 1);
    }

    #[test]
    fn coordinator_falls_back_to_read_site_then_zero() {
        let read_only = TransactionSpec::new().output("r", Expr::read(ItemId(2)));
        let c = client_with(read_only.clone());
        assert_eq!(c.coordinator_for(&read_only), 2);
        let empty = TransactionSpec::new().output("r", Expr::int(1));
        assert_eq!(c.coordinator_for(&empty), 0);
    }

    #[test]
    fn starts_with_no_results() {
        let c = client_with(TransactionSpec::new());
        assert!(c.results().is_empty());
        assert_eq!(c.outstanding_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn zero_sites_rejected() {
        let _ = Client::new(
            ClientConfig::default(),
            Directory::Mod(1),
            0,
            Box::new(Script::new(vec![], SimDuration::from_millis(1))),
        );
    }
}
