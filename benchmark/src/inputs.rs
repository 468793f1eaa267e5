//! Seeded inputs: every flow, source value, request order and arrival
//! time is a pure function of `--seed`. The program under test sees
//! only the schemas and source values made here.

use std::sync::Arc;

use decisionflow::prelude::*;
use dflowgen::{generate, GeneratedFlow, PatternParams};

/// SplitMix64. The benchmark owns its generator so that its request
/// sequences do not shift when the repository's `rand` stand-in does.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// One independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is far below what
    /// any metric here resolves).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// `count` generated flows of the paper's Table 1 pattern (`nb_rows`
/// 4, everything else default) at one `%enabled`.
///
/// The populations are large on purpose: Work differs by several
/// percent from one generated flow to the next, and the mean over a
/// few hundred of them is what stays put when `--seed` changes.
pub fn grid_flows(
    seed: u64,
    nb_nodes: usize,
    pct_enabled: u32,
    count: usize,
) -> Vec<GeneratedFlow> {
    let params = PatternParams {
        nb_nodes,
        nb_rows: 4,
        pct_enabled,
        ..Default::default()
    };
    let mut rng = Rng::new(seed, (nb_nodes as u64) << 8 | u64::from(pct_enabled));
    (0..count)
        .map(|_| generate(params, rng.next_u64()).expect("Table 1 defaults generate"))
        .collect()
}

/// Arrival offsets (seconds, ascending) of `n` requests over
/// `window_s`: `n` sorted uniform points, which is a Poisson process
/// conditioned on its count. Fixing the count keeps the offered rate
/// identical across seeds; the gaps still burst like Poisson gaps.
pub fn arrival_offsets(rng: &mut Rng, n: usize, window_s: f64) -> Vec<f64> {
    let mut at: Vec<f64> = (0..n).map(|_| rng.unit() * window_s).collect();
    at.sort_by(f64::total_cmp);
    at
}

/// What the oracle mandates for one instance's targets.
#[derive(Clone, Debug, PartialEq)]
pub struct Expect(Vec<(AttrId, FinalState, Value)>);

impl Expect {
    /// The complete snapshot's verdict on every target of `schema`
    /// under exactly `sources`.
    pub fn of(schema: &Schema, sources: &SourceValues) -> Expect {
        let snap = complete_snapshot(schema, sources).expect("generated sources bind every source");
        Expect(
            schema
                .targets()
                .iter()
                .map(|&t| (t, snap.state(t), snap.value(t).clone()))
                .collect(),
        )
    }

    /// Do the target outcomes `outcome` reports agree with the oracle?
    pub fn matches_with(&self, outcome: impl Fn(AttrId) -> (AttrState, Option<Value>)) -> bool {
        self.0
            .iter()
            .all(|(t, state, value)| match (outcome(*t), state) {
                ((AttrState::Value, Some(got)), FinalState::Value) => got == *value,
                ((AttrState::Disabled, _), FinalState::Disabled) => true,
                _ => false,
            })
    }

    /// Does a server-produced record carry these target values?
    pub fn matches_record(&self, record: &decisionflow::report::ExecutionRecord) -> bool {
        self.matches_with(|t| {
            let out = &record.attrs[t.index()];
            (out.state, out.value.clone())
        })
    }

    /// Does a finished in-process runtime carry these target values?
    pub fn matches_runtime(&self, rt: &InstanceRuntime) -> bool {
        self.matches_with(|t| (rt.state(t), rt.stable_value(t).cloned()))
    }

    /// A copy that no correct execution can satisfy, for showing that
    /// the gate is live (`DFBENCH_BREAK_ORACLE=1`).
    pub fn corrupted(&self) -> Expect {
        Expect(
            self.0
                .iter()
                .map(|(t, _, _)| {
                    (
                        *t,
                        FinalState::Value,
                        Value::str("not what the flow computes"),
                    )
                })
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------
// delta_mixed: the many-input flow and its request stream
// ---------------------------------------------------------------------

pub const ARMS: usize = 16;
pub const ARM_DEPTH: usize = 4;
/// Distinct values each arm's source is drawn from.
pub const VALUES_PER_ARM: usize = 64;
/// Labels seeded cold during set-up and resubmitted as deltas after.
pub const DELTA_LABELS: usize = 1024;
/// Cold submissions cycle through this many further labels, so the
/// snapshot store stops growing once set-up has been round the ring and
/// memory no longer depends on how many operations a run gets through.
pub const COLD_RING: usize = 2048;
const TASK_COST: u64 = 2;

/// `ARMS` independent source → chain arms of `ARM_DEPTH` queries each,
/// joined by one synthesis target: the `delta_speedup` shape, where
/// rebinding one source invalidates one arm and the join and leaves
/// the other arms to be adopted from the prior snapshot.
pub fn armed_flow() -> Arc<Schema> {
    let mut b = SchemaBuilder::new();
    let mut tips = Vec::with_capacity(ARMS);
    for arm in 0..ARMS {
        let mut prev = b.source(format!("s{arm}"));
        for depth in 0..ARM_DEPTH {
            let salt = (arm * 131 + depth) as u64;
            prev = b.query(
                format!("a{arm}_{depth}"),
                TASK_COST,
                vec![prev],
                Expr::Lit(true),
                move |ins| {
                    let mut h = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    for v in ins {
                        h = h.rotate_left(13) ^ v.fingerprint();
                    }
                    Value::Int((h % 100_000) as i64)
                },
            );
        }
        tips.push(prev);
    }
    let join = b.query("synthesis", TASK_COST, tips, Expr::Lit(true), |ins| {
        Value::Int(ins.iter().map(|v| (v.fingerprint() % 1000) as i64).sum())
    });
    b.mark_target(join);
    Arc::new(b.build().expect("armed flow is well-formed"))
}

/// One label's current binding: the value index of each arm.
pub type Binding = [u8; ARMS];

/// One operation of the `delta_mixed` stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaOp {
    pub label: String,
    /// Every source's value index after this operation.
    pub binding: Binding,
    /// Resubmit against the label's prior snapshot (`true`) or run
    /// cold (`false`).
    pub delta: bool,
}

/// The seeded `delta_mixed` request stream: of every five consecutive
/// operations four are `delta_by_label` resubmissions that rebind one
/// source of a seeded label to a *different* value, and one — at a
/// seeded position — is a cold submission under a ring label.
///
/// No label recurs within 512 operations (the delta labels are walked
/// in alternating shuffled halves, the ring in order), so with 16
/// requests outstanding a resubmission always finds the snapshot of
/// its label's previous request committed and Work repeats exactly.
pub struct DeltaStream {
    rng: Rng,
    bindings: Vec<Binding>,
    order: Vec<u32>,
    order_pos: usize,
    next_half: usize,
    cold_slot: usize,
    in_block: usize,
    ring_pos: usize,
}

impl DeltaStream {
    pub fn new(seed: u64) -> DeltaStream {
        let mut rng = Rng::new(seed, 0xDE17A);
        let bindings = (0..DELTA_LABELS)
            .map(|_| random_binding(&mut rng))
            .collect();
        DeltaStream {
            rng,
            bindings,
            order: Vec::new(),
            order_pos: 0,
            next_half: 0,
            cold_slot: 0,
            in_block: 0,
            ring_pos: 0,
        }
    }

    /// The cold submissions that seed every delta label, in order.
    pub fn seeding(&self) -> impl Iterator<Item = DeltaOp> + '_ {
        self.bindings.iter().enumerate().map(|(i, b)| DeltaOp {
            label: format!("L{i}"),
            binding: *b,
            delta: false,
        })
    }

    fn next_delta_label(&mut self) -> usize {
        if self.order_pos == self.order.len() {
            let half = DELTA_LABELS / 2;
            let base = (self.next_half * half) as u32;
            self.order = self.rng.permutation(half);
            self.order.iter_mut().for_each(|l| *l += base);
            self.order_pos = 0;
            self.next_half ^= 1;
        }
        self.order_pos += 1;
        self.order[self.order_pos - 1] as usize
    }
}

fn random_binding(rng: &mut Rng) -> Binding {
    std::array::from_fn(|_| rng.below(VALUES_PER_ARM) as u8)
}

impl Iterator for DeltaStream {
    type Item = DeltaOp;

    fn next(&mut self) -> Option<DeltaOp> {
        if self.in_block == 0 {
            self.cold_slot = self.rng.below(5);
        }
        let cold = self.in_block == self.cold_slot;
        self.in_block = (self.in_block + 1) % 5;
        Some(if cold {
            self.ring_pos = (self.ring_pos + 1) % COLD_RING;
            DeltaOp {
                label: format!("C{}", self.ring_pos),
                binding: random_binding(&mut self.rng),
                delta: false,
            }
        } else {
            let label = self.next_delta_label();
            let arm = self.rng.below(ARMS);
            let step = 1 + self.rng.below(VALUES_PER_ARM - 1);
            let b = &mut self.bindings[label];
            b[arm] = ((b[arm] as usize + step) % VALUES_PER_ARM) as u8;
            DeltaOp {
                label: format!("L{label}"),
                binding: *b,
                delta: true,
            }
        })
    }
}

/// The value pool of the armed flow's sources, drawn once per seed.
pub struct ArmValues {
    sources: Vec<AttrId>,
    pool: Vec<Value>,
}

impl ArmValues {
    pub fn new(schema: &Schema, seed: u64) -> ArmValues {
        let mut rng = Rng::new(seed, 0xA2_3500);
        ArmValues {
            sources: schema.sources().to_vec(),
            pool: (0..ARMS * VALUES_PER_ARM)
                .map(|_| Value::Int(rng.below(1_000_000_000) as i64))
                .collect(),
        }
    }

    /// The source values a binding stands for.
    pub fn sources(&self, binding: &Binding) -> SourceValues {
        let mut sv = SourceValues::new();
        for (arm, &idx) in binding.iter().enumerate() {
            sv.set(
                self.sources[arm],
                self.pool[arm * VALUES_PER_ARM + idx as usize].clone(),
            );
        }
        sv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_repeat_per_seed_and_differ_across_seeds() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7, 1);
            move || r.next_u64()
        })
        .take(8)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7, 1);
            move || r.next_u64()
        })
        .take(8)
        .collect();
        let c: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(8, 1);
            move || r.next_u64()
        })
        .take(8)
        .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1, 2);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
        let mut p = Rng::new(3, 3).permutation(100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<u32>>());
    }

    fn conditions(flows: &[GeneratedFlow]) -> Vec<String> {
        flows
            .iter()
            .flat_map(|f| {
                f.schema
                    .attr_ids()
                    .map(|a| f.schema.attr(a).enabling.to_string())
            })
            .collect()
    }

    #[test]
    fn flows_repeat_per_seed_and_differ_across_seeds() {
        let a = grid_flows(20000301, 16, 75, 4);
        let b = grid_flows(20000301, 16, 75, 4);
        let c = grid_flows(20000302, 16, 75, 4);
        assert_eq!(conditions(&a), conditions(&b));
        assert_ne!(conditions(&a), conditions(&c));
        assert_eq!(
            a.iter()
                .map(|f| f.sources.get(f.schema.sources()[0]).cloned())
                .collect::<Vec<_>>(),
            b.iter()
                .map(|f| f.sources.get(f.schema.sources()[0]).cloned())
                .collect::<Vec<_>>(),
        );
        // Populations at different %enabled share nothing.
        assert_ne!(conditions(&a), conditions(&grid_flows(20000301, 16, 25, 4)));
    }

    #[test]
    fn arrivals_repeat_per_seed_are_sorted_and_fill_the_window() {
        let a = arrival_offsets(&mut Rng::new(5, 9), 300, 2.0);
        let b = arrival_offsets(&mut Rng::new(5, 9), 300, 2.0);
        let c = arrival_offsets(&mut Rng::new(6, 9), 300, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 300);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a[0] >= 0.0 && a[299] < 2.0);
    }

    #[test]
    fn delta_stream_repeats_per_seed_and_differs_across_seeds() {
        let a: Vec<DeltaOp> = DeltaStream::new(11).take(5000).collect();
        let b: Vec<DeltaOp> = DeltaStream::new(11).take(5000).collect();
        let c: Vec<DeltaOp> = DeltaStream::new(12).take(5000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            DeltaStream::new(11).seeding().collect::<Vec<_>>(),
            DeltaStream::new(11).seeding().collect::<Vec<_>>()
        );
    }

    #[test]
    fn delta_stream_mix_is_exact_and_labels_never_collide_in_flight() {
        let ops: Vec<DeltaOp> = DeltaStream::new(3).take(20_000).collect();
        for block in ops.chunks(5) {
            assert_eq!(block.iter().filter(|op| !op.delta).count(), 1);
        }
        let mut last_seen = std::collections::HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            if let Some(prev) = last_seen.insert(op.label.clone(), i) {
                assert!(
                    i - prev >= 512,
                    "label {} reused after {} ops",
                    op.label,
                    i - prev
                );
            }
        }
    }

    #[test]
    fn every_delta_rebinds_exactly_one_source_to_a_new_value() {
        let mut stream = DeltaStream::new(9);
        let mut current: std::collections::HashMap<String, Binding> =
            stream.seeding().map(|op| (op.label, op.binding)).collect();
        for op in stream.by_ref().take(10_000).filter(|op| op.delta) {
            let before = current
                .insert(op.label.clone(), op.binding)
                .expect("seeded label");
            let changed = before
                .iter()
                .zip(&op.binding)
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(changed, 1);
        }
    }

    #[test]
    fn armed_flow_has_the_advertised_shape_and_oracle() {
        let schema = armed_flow();
        assert_eq!(schema.sources().len(), ARMS);
        assert_eq!(schema.len(), ARMS * (1 + ARM_DEPTH) + 1);
        assert_eq!(
            schema.total_cost(),
            (ARMS * ARM_DEPTH + 1) as u64 * TASK_COST
        );
        let values = ArmValues::new(&schema, 1);
        let binding: Binding = [0; ARMS];
        let sources = values.sources(&binding);
        let expect = Expect::of(&schema, &sources);
        let report = Request::with_schema(Arc::clone(&schema))
            .sources(sources)
            .strategy("PCE100".parse().unwrap())
            .run()
            .unwrap();
        assert!(expect.matches_runtime(&report.outcome.runtime));
        assert!(!expect.corrupted().matches_runtime(&report.outcome.runtime));
    }
}
