//! §6.3: counting and ordering keys of `o(log n)` bits with 1–2-bit
//! messages in two rounds.
//!
//! With `b`-bit keys there are only `K = 2^b` distinct values, so each
//! value κ is statically assigned a block of `L²` nodes, `L = ⌈log₂(n+1)⌉`
//! (requires `K·L² ≤ n`). In round 1, node `v` sends, for each κ and each
//! set bit `i` of its count of κ, a one-bit message to the `L` nodes
//! `(κ, i, ·)`. In round 2, node `(κ, i, j)` counts the ones it received
//! (call it `q`), and transmits to every node `k` two bits: the `j`-th
//! bit of `q`, and the `j`-th bit of `|{v < k : v sent a one}|`. From
//! these, every node reconstructs the exact multiplicity of every κ, and
//! additionally the number of copies held by smaller-id nodes — enough to
//! assign every one of its own copies its global index.

use crate::error::CoreError;
use cc_sim::util::ceil_log2;
use cc_sim::{CliqueSession, CliqueSpec, Ctx, Inbox, Metrics, NodeId, NodeMachine, Payload, Step};

/// Messages of the small-key census: presence bits and report bits.
#[derive(Clone, Debug)]
pub enum SkMsg {
    /// Round 1: "bit `i` of my count of κ is one" (addressing encodes
    /// κ and `i`).
    BitOne,
    /// Round 2: the `j`-th bits of the block's total and of the
    /// receiver's prefix count.
    Report {
        /// `j`-th bit of the number of nodes whose count-bit was one.
        total_bit: bool,
        /// `j`-th bit of the receiver-specific prefix count.
        prefix_bit: bool,
    },
}

impl Payload for SkMsg {
    fn size_bits(&self, _n: usize) -> u64 {
        match self {
            SkMsg::BitOne => 1,
            SkMsg::Report { .. } => 2,
        }
    }
}

struct SmallKeyMachine {
    n: usize,
    me: NodeId,
    num_values: usize,
    l: usize,
    counts: Vec<u64>,
    call: u32,
    /// Round-1 receivers: which senders set the bit (block role).
    ones: Vec<NodeId>,
    totals: Vec<u64>,
    prefix: Vec<u64>,
}

impl SmallKeyMachine {
    fn block_node(&self, kappa: usize, i: usize, j: usize) -> NodeId {
        NodeId::new(kappa * self.l * self.l + i * self.l + j)
    }

    /// Decodes my block role, if any.
    fn my_role(&self) -> Option<(usize, usize, usize)> {
        let v = self.me.index();
        if v >= self.num_values * self.l * self.l {
            return None;
        }
        let kappa = v / (self.l * self.l);
        let rem = v % (self.l * self.l);
        Some((kappa, rem / self.l, rem % self.l))
    }
}

impl NodeMachine for SmallKeyMachine {
    type Msg = SkMsg;
    type Output = (Vec<u64>, Vec<u64>);

    fn on_start(&mut self, ctx: &mut Ctx<'_, SkMsg>) {
        for (kappa, &c) in self.counts.iter().enumerate() {
            for i in 0..self.l {
                if (c >> i) & 1 == 1 {
                    for j in 0..self.l {
                        ctx.send(self.block_node(kappa, i, j), SkMsg::BitOne);
                    }
                }
            }
        }
        ctx.charge_work((self.num_values * self.l) as u64);
    }

    fn on_round(
        &mut self,
        ctx: &mut Ctx<'_, SkMsg>,
        inbox: &mut Inbox<SkMsg>,
    ) -> Step<Self::Output> {
        self.call += 1;
        match self.call {
            1 => {
                // Block role: record who set the bit, report both counts.
                self.ones = inbox
                    .drain()
                    .map(|(src, msg)| {
                        let SkMsg::BitOne = msg else {
                            panic!("unexpected message in round 1: {msg:?}");
                        };
                        src
                    })
                    .collect();
                if let Some((_, _, j)) = self.my_role() {
                    let q = self.ones.len() as u64;
                    let mut it = self.ones.iter().peekable();
                    let mut before = 0u64;
                    for k in 0..self.n {
                        while it.peek().is_some_and(|s| s.index() < k) {
                            it.next();
                            before += 1;
                        }
                        ctx.send(
                            NodeId::new(k),
                            SkMsg::Report {
                                total_bit: (q >> j) & 1 == 1,
                                prefix_bit: (before >> j) & 1 == 1,
                            },
                        );
                    }
                    ctx.charge_work(self.n as u64);
                }
                Step::Continue
            }
            2 => {
                // Reconstruct: q_{κ,i} from total bits, prefix counts from
                // prefix bits; then multiplicities via Σ 2^i · q_{κ,i}.
                let mut q = vec![0u64; self.num_values * self.l];
                let mut p = vec![0u64; self.num_values * self.l];
                for (src, msg) in inbox.drain() {
                    let SkMsg::Report {
                        total_bit,
                        prefix_bit,
                    } = msg
                    else {
                        panic!("unexpected message in round 2: {msg:?}");
                    };
                    let v = src.index();
                    let kappa = v / (self.l * self.l);
                    let i = (v % (self.l * self.l)) / self.l;
                    let j = v % self.l;
                    if total_bit {
                        q[kappa * self.l + i] |= 1 << j;
                    }
                    if prefix_bit {
                        p[kappa * self.l + i] |= 1 << j;
                    }
                }
                self.totals = (0..self.num_values)
                    .map(|kappa| (0..self.l).map(|i| q[kappa * self.l + i] << i).sum())
                    .collect();
                self.prefix = (0..self.num_values)
                    .map(|kappa| (0..self.l).map(|i| p[kappa * self.l + i] << i).sum())
                    .collect();
                ctx.charge_work((self.num_values * self.l) as u64);
                Step::Done((
                    std::mem::take(&mut self.totals),
                    std::mem::take(&mut self.prefix),
                ))
            }
            _ => panic!("SmallKeyMachine stepped past completion"),
        }
    }
}

/// Outcome of a small-key census.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmallKeyOutcome {
    /// `totals[κ]` — global multiplicity of value κ (identical on all
    /// nodes; returned once).
    pub totals: Vec<u64>,
    /// `prefix[v][κ]` — copies of κ held by nodes with id `< v`; together
    /// with its own counts, node `v` knows the global rank interval of
    /// every copy it holds.
    pub prefix: Vec<Vec<u64>>,
    /// Measurements (2 rounds, 1–2-bit messages).
    pub metrics: Metrics,
}

/// Runs the §6.3 two-round census of `key_bits`-bit keys.
///
/// `keys[v]` are node `v`'s key values, each `< 2^key_bits`.
///
/// # Errors
///
/// Rejects instances with `2^key_bits · ⌈log₂(n+1)⌉² > n` (the protocol's
/// block assignment needs that many dedicated nodes) or out-of-domain
/// keys; propagates simulation failures.
pub fn small_key_census(keys: &[Vec<u64>], key_bits: u32) -> Result<SmallKeyOutcome, CoreError> {
    // `.max(1)`: empty input must reach the graceful n == 0 error below,
    // not the spec builder's panic.
    small_key_census_with_spec(keys, key_bits, spec_for_census(keys.len().max(1)))
}

/// The simulator spec for the census: two-bit messages, so the budget can
/// be minuscule.
pub fn spec_for_census(n: usize) -> CliqueSpec {
    CliqueSpec::new(n)
        .expect("n >= 1")
        .with_bits_per_edge(2)
        .with_max_rounds(8)
}

/// As [`small_key_census`] with a caller-provided spec (notably its
/// [`ExecMode`](cc_sim::ExecMode)).
///
/// # Errors
///
/// See [`small_key_census`].
pub fn small_key_census_with_spec(
    keys: &[Vec<u64>],
    key_bits: u32,
    spec: CliqueSpec,
) -> Result<SmallKeyOutcome, CoreError> {
    small_key_census_on(keys, key_bits, spec, &mut CliqueSession::new())
}

/// The shared driver: the stateless entry point runs it on a fresh
/// session, [`CliqueService`](crate::CliqueService) on its own.
///
/// # Errors
///
/// See [`small_key_census`].
pub(crate) fn small_key_census_on(
    keys: &[Vec<u64>],
    key_bits: u32,
    spec: CliqueSpec,
    session: &mut CliqueSession,
) -> Result<SmallKeyOutcome, CoreError> {
    let n = keys.len();
    if n == 0 {
        return Err(CoreError::invalid("at least one node required"));
    }
    let num_values = 1usize << key_bits;
    let l = ceil_log2(n + 1) as usize;
    if num_values * l * l > n {
        return Err(CoreError::invalid(format!(
            "{num_values} values × {l}² block nodes exceed n = {n}"
        )));
    }
    for (v, list) in keys.iter().enumerate() {
        if list.len() > n {
            return Err(CoreError::invalid(format!(
                "node {v} holds {} keys, more than n = {n}",
                list.len()
            )));
        }
        if let Some(&k) = list.iter().find(|&&k| k >= num_values as u64) {
            return Err(CoreError::invalid(format!(
                "key {k} exceeds the {key_bits}-bit domain"
            )));
        }
    }
    let machines = (0..n)
        .map(|v| {
            let mut counts = vec![0u64; num_values];
            for &k in &keys[v] {
                counts[k as usize] += 1;
            }
            SmallKeyMachine {
                n,
                me: NodeId::new(v),
                num_values,
                l,
                counts,
                call: 0,
                ones: Vec::new(),
                totals: Vec::new(),
                prefix: Vec::new(),
            }
        })
        .collect();
    let report = session.run(spec, machines)?;
    let totals = report.outputs[0].0.clone();
    for (v, (t, _)) in report.outputs.iter().enumerate() {
        if t != &totals {
            return Err(CoreError::VerificationFailed {
                reason: format!("node {v} reconstructed different totals"),
            });
        }
    }
    let prefix = report.outputs.into_iter().map(|(_, p)| p).collect();
    Ok(SmallKeyOutcome {
        totals,
        prefix,
        metrics: report.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_counts_exactly() {
        let n = 128; // L = 8, K = 2 → 2·64 = 128 ≤ n
        let keys: Vec<Vec<u64>> = (0..n).map(|v| vec![(v % 2) as u64; v % 5]).collect();
        let out = small_key_census(&keys, 1).unwrap();
        assert_eq!(out.metrics.comm_rounds(), 2);
        assert_eq!(out.metrics.max_edge_bits(), 2);
        let mut expected = vec![0u64; 2];
        for list in &keys {
            for &k in list {
                expected[k as usize] += 1;
            }
        }
        assert_eq!(out.totals, expected);
    }

    #[test]
    fn prefixes_give_global_ranks() {
        let n = 128;
        let keys: Vec<Vec<u64>> = (0..n)
            .map(|v| (0..3).map(|t| ((v + t) % 2) as u64).collect())
            .collect();
        let out = small_key_census(&keys, 1).unwrap();
        for v in 0..n {
            for kappa in 0..2 {
                let expected: u64 = keys[..v]
                    .iter()
                    .map(|l| l.iter().filter(|&&k| k == kappa as u64).count() as u64)
                    .sum();
                assert_eq!(out.prefix[v][kappa as usize], expected, "v={v} κ={kappa}");
            }
        }
    }

    #[test]
    fn rejects_oversized_domain() {
        let keys: Vec<Vec<u64>> = vec![vec![]; 16];
        assert!(small_key_census(&keys, 4).is_err());
    }

    #[test]
    fn rejects_out_of_domain_key() {
        let mut keys: Vec<Vec<u64>> = vec![vec![]; 128];
        keys[0] = vec![2];
        assert!(small_key_census(&keys, 1).is_err());
    }

    #[test]
    fn empty_census() {
        let keys: Vec<Vec<u64>> = vec![vec![]; 128];
        let out = small_key_census(&keys, 1).unwrap();
        assert!(out.totals.iter().all(|&t| t == 0));
    }
}
