//! Engine-throughput bench: rounds/sec of the flat delivery engine vs the
//! naive reference executor on gnp(50k, avg deg 8).
//!
//! The workload is a "blinker" protocol that alternates two letters every
//! round, so every delivery overwrites a port with a *different* letter —
//! the worst case for the incremental count maintenance and a full-fan-out
//! stress of the reverse-slot delivery path. The protocol never
//! terminates; each measured run executes exactly `ROUNDS` rounds and
//! ends in the expected round-limit error.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stoneage_core::{Alphabet, AsMulti, Letter, TableProtocol, TableProtocolBuilder, Transitions};
use stoneage_graph::generators;
use stoneage_sim::{run_sync_reference, ExecError, Simulation};

const ROUNDS: u64 = 20;

/// Never-terminating protocol: broadcast A, then B, then A, ...
fn blinker() -> TableProtocol {
    let alphabet = Alphabet::new(["a", "b"]);
    let mut builder = TableProtocolBuilder::new("blinker", alphabet, 1, Letter(0));
    let s0 = builder.add_state("s0", Letter(0));
    let s1 = builder.add_state("s1", Letter(1));
    builder.add_input_state(s0);
    builder.set_transition_all(s0, Transitions::det(s1, Some(Letter(0))));
    builder.set_transition_all(s1, Transitions::det(s0, Some(Letter(1))));
    builder.build().unwrap()
}

fn bench_engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    for &n in &[10_000usize, 50_000] {
        let g = generators::gnp(n, 8.0 / n as f64, 7);
        let p = AsMulti(blinker());
        let inputs = vec![0usize; n];
        group.bench_with_input(BenchmarkId::new("flat", n), &g, |b, g| {
            b.iter(|| {
                let err = Simulation::sync(&p, g)
                    .seed(1)
                    .budget(ROUNDS)
                    .run()
                    .unwrap_err();
                assert!(matches!(err, ExecError::RoundLimit { .. }));
            });
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &g, |b, g| {
            b.iter(|| {
                let err = run_sync_reference(&p, g, &inputs, 1, ROUNDS).unwrap_err();
                assert!(matches!(err, ExecError::RoundLimit { .. }));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_throughput);
criterion_main!(benches);
