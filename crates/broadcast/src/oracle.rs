//! Reference check for witness counting: IDB and RB against reference
//! machines that count witnesses with `HashMap<V, HashSet<ProcessId>>`.
//!
//! The reference machines restate Fig. 3 (IDB) and Bracha's thresholds (RB)
//! with the plainest possible witness sets. Over arbitrary
//! (instance, sender, value) streams — duplicate senders, equivocating
//! senders, many distinct values per instance, and system sizes on both
//! sides of the 64-process bitset word — the real machines must emit the
//! same actions in the same order and report the same witness counts.

use crate::{Action, IdbMessage, IdenticalBroadcast, RbMessage, ReliableBroadcast};
use dex_types::{ProcessId, SystemConfig};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

type Key = ProcessId;
type Counts = HashMap<u64, HashSet<ProcessId>>;

/// Records `from` for `value`; returns the number of distinct witnesses.
fn witness(map: &mut Counts, value: u64, from: ProcessId) -> usize {
    let set = map.entry(value).or_default();
    set.insert(from);
    set.len()
}

fn count(map: Option<&Counts>, value: u64) -> usize {
    map.and_then(|m| m.get(&value)).map_or(0, HashSet::len)
}

#[derive(Default)]
struct RefIdbState {
    echoed: bool,
    accepted: bool,
    witnesses: Counts,
}

/// Fig. 3 with hash-set witness counting.
struct RefIdb {
    config: SystemConfig,
    instances: HashMap<Key, RefIdbState>,
}

impl RefIdb {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &IdbMessage<Key, u64>,
    ) -> Vec<Action<Key, IdbMessage<Key, u64>, u64>> {
        match *msg {
            IdbMessage::Init { key, value } => {
                let state = self.instances.entry(key).or_default();
                if from != key || state.echoed {
                    return Vec::new();
                }
                state.echoed = true;
                vec![Action::Broadcast(IdbMessage::Echo { key, value })]
            }
            IdbMessage::Echo { key, value } => {
                let state = self.instances.entry(key).or_default();
                let num = witness(&mut state.witnesses, value, from);
                let mut actions = Vec::new();
                if num >= self.config.echo_threshold() && !state.echoed {
                    state.echoed = true;
                    actions.push(Action::Broadcast(IdbMessage::Echo { key, value }));
                }
                if num >= self.config.quorum() && !state.accepted {
                    state.accepted = true;
                    actions.push(Action::Deliver { key, value });
                }
                actions
            }
        }
    }

    fn witness_count(&self, key: Key, value: u64) -> usize {
        count(self.instances.get(&key).map(|s| &s.witnesses), value)
    }
}

#[derive(Default)]
struct RefRbState {
    echoed: bool,
    readied: bool,
    delivered: bool,
    echoes: Counts,
    readies: Counts,
}

/// Bracha's reliable broadcast with hash-set witness counting.
struct RefRb {
    config: SystemConfig,
    instances: HashMap<Key, RefRbState>,
}

impl RefRb {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &RbMessage<Key, u64>,
    ) -> Vec<Action<Key, RbMessage<Key, u64>, u64>> {
        let (n, t) = (self.config.n(), self.config.t());
        match *msg {
            RbMessage::Init { key, value } => {
                let state = self.instances.entry(key).or_default();
                if from != key || state.echoed {
                    return Vec::new();
                }
                state.echoed = true;
                vec![Action::Broadcast(RbMessage::Echo { key, value })]
            }
            RbMessage::Echo { key, value } => {
                let state = self.instances.entry(key).or_default();
                let num = witness(&mut state.echoes, value, from);
                if num > (n + t) / 2 && !state.readied {
                    state.readied = true;
                    return vec![Action::Broadcast(RbMessage::Ready { key, value })];
                }
                Vec::new()
            }
            RbMessage::Ready { key, value } => {
                let state = self.instances.entry(key).or_default();
                let num = witness(&mut state.readies, value, from);
                let mut actions = Vec::new();
                if num > t && !state.readied {
                    state.readied = true;
                    actions.push(Action::Broadcast(RbMessage::Ready { key, value }));
                }
                if num > 2 * t && !state.delivered {
                    state.delivered = true;
                    actions.push(Action::Deliver { key, value });
                }
                actions
            }
        }
    }

    fn witness_counts(&self, key: Key, value: u64) -> (usize, usize) {
        let state = self.instances.get(&key);
        (
            count(state.map(|s| &s.echoes), value),
            count(state.map(|s| &s.readies), value),
        )
    }
}

/// System sizes on both sides of the 64-bit word boundary, each with the
/// largest `t` IDB tolerates (`n > 4t`).
const SIZES: [(usize, usize); 4] = [(7, 1), (64, 15), (65, 16), (127, 31)];
/// Instances (origins) per stream: few, so thresholds get crossed.
const ORIGINS: usize = 3;

/// One step of a generated stream. Process indices are reduced modulo `n`.
#[derive(Clone, Debug)]
enum Op {
    /// One message: `kind` 0 = init, 1 = echo, 2 = ready.
    Single {
        kind: u8,
        from: usize,
        origin: usize,
        value: u64,
    },
    /// `count` consecutive senders from `start` (wrapping, so a long sweep
    /// repeats senders) all vouch for `value`.
    Sweep {
        kind: u8,
        start: usize,
        count: usize,
        origin: usize,
        value: u64,
    },
    /// One sender equivocates over `count` distinct values.
    Spray {
        kind: u8,
        from: usize,
        origin: usize,
        base: u64,
        count: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u8..8,
        0u8..3,
        0usize..127,
        1usize..160,
        0usize..ORIGINS,
        0u64..3,
        1000u64..1_000_000,
    )
        .prop_map(|(shape, kind, who, count, origin, small, large)| {
            // Mostly a few contested values, sometimes a fresh one.
            let value = if shape % 4 == 3 { large } else { small };
            match shape {
                0..=3 => Op::Single {
                    kind,
                    from: who,
                    origin,
                    value,
                },
                4..=6 => Op::Sweep {
                    kind,
                    start: who,
                    count,
                    origin,
                    value,
                },
                _ => Op::Spray {
                    kind,
                    from: who,
                    origin,
                    base: large,
                    count: count % 24 + 1,
                },
            }
        })
}

/// Expands `ops` into `(kind, sender, origin, value)` messages for size `n`.
fn expand(ops: &[Op], n: usize) -> Vec<(u8, ProcessId, ProcessId, u64)> {
    let p = |i: usize| ProcessId::new(i % n);
    let mut msgs = Vec::new();
    for op in ops {
        match *op {
            Op::Single {
                kind,
                from,
                origin,
                value,
            } => msgs.push((kind, p(from), p(origin), value)),
            Op::Sweep {
                kind,
                start,
                count,
                origin,
                value,
            } => msgs.extend((0..count).map(|i| (kind, p(start + i), p(origin), value))),
            Op::Spray {
                kind,
                from,
                origin,
                base,
                count,
            } => msgs.extend((0..count as u64).map(|i| (kind, p(from), p(origin), base + i))),
        }
    }
    msgs
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// IDB emits the reference machine's actions, in order, and reports its
    /// witness counts.
    #[test]
    fn idb_matches_hash_set_reference(
        size in 0usize..SIZES.len(),
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let (n, t) = SIZES[size];
        let config = SystemConfig::new(n, t).unwrap();
        let mut idb: IdenticalBroadcast<Key, u64> = IdenticalBroadcast::new(config);
        let mut reference = RefIdb { config, instances: HashMap::new() };
        for (kind, from, key, value) in expand(&ops, n) {
            let msg = if kind == 0 {
                IdbMessage::Init { key, value }
            } else {
                IdbMessage::Echo { key, value }
            };
            prop_assert_eq!(idb.on_message(from, &msg), reference.on_message(from, &msg));
            prop_assert_eq!(idb.witness_count(&key, &value), reference.witness_count(key, value));
        }
        for (key, state) in &reference.instances {
            for value in state.witnesses.keys() {
                prop_assert_eq!(idb.witness_count(key, value), reference.witness_count(*key, *value));
            }
        }
    }

    /// RB emits the reference machine's actions, in order, and reports its
    /// echo and ready witness counts.
    #[test]
    fn rb_matches_hash_set_reference(
        size in 0usize..SIZES.len(),
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let (n, t) = SIZES[size];
        let config = SystemConfig::new(n, t).unwrap();
        let mut rb: ReliableBroadcast<Key, u64> = ReliableBroadcast::new(config);
        let mut reference = RefRb { config, instances: HashMap::new() };
        for (kind, from, key, value) in expand(&ops, n) {
            let msg = match kind {
                0 => RbMessage::Init { key, value },
                1 => RbMessage::Echo { key, value },
                _ => RbMessage::Ready { key, value },
            };
            prop_assert_eq!(rb.on_message(from, &msg), reference.on_message(from, &msg));
            prop_assert_eq!(rb.witness_counts(&key, &value), reference.witness_counts(key, value));
        }
        for (key, state) in &reference.instances {
            for value in state.echoes.keys().chain(state.readies.keys()) {
                prop_assert_eq!(rb.witness_counts(key, value), reference.witness_counts(*key, *value));
            }
        }
    }
}

/// The generated streams actually reach the interesting regions: both
/// thresholds fire for some `n` above 64, and instances hold many values.
#[test]
fn streams_cross_thresholds_past_the_word_boundary() {
    let mut rng = proptest::test_rng("oracle::coverage");
    let (n, t) = SIZES[3];
    let config = SystemConfig::new(n, t).unwrap();
    let (mut delivered, mut max_values) = (0, 0);
    for _ in 0..64 {
        let ops = proptest::collection::vec(op_strategy(), 1..60).sample(&mut rng);
        let mut reference = RefIdb {
            config,
            instances: HashMap::new(),
        };
        for (kind, from, key, value) in expand(&ops, n) {
            let msg = if kind == 0 {
                IdbMessage::Init { key, value }
            } else {
                IdbMessage::Echo { key, value }
            };
            delivered += reference
                .on_message(from, &msg)
                .iter()
                .filter(|a| matches!(a, Action::Deliver { .. }))
                .count();
        }
        max_values = reference
            .instances
            .values()
            .map(|s| s.witnesses.len())
            .fold(max_values, usize::max);
    }
    assert!(delivered > 0, "no stream reached the n - t quorum");
    assert!(max_values >= 16, "no instance saw many distinct values");
}
