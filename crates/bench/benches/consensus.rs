//! Consensus-substrate benches: simulated Paxos lock-service commits and
//! RS-Paxos coded writes, measured as wall-clock cost of the simulation
//! (the substrate must be fast enough for week-scale service replays).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paxos::{ClientOp, Cluster, LockCmd, LockService, ReplicaConfig};
use simnet::{NetworkConfig, SimTime};
use storage::{ShardStore, StoreCmd};

fn lock_commits(c: &mut Criterion) {
    let mut g = c.benchmark_group("paxos_lock_commits");
    g.sample_size(10);
    for n in [3usize, 5, 7] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut cluster = Cluster::new(
                    n,
                    LockService::new(),
                    ReplicaConfig::default(),
                    NetworkConfig::ideal(),
                    42,
                );
                let client = cluster.add_client();
                for i in 0..20 {
                    cluster.submit(
                        client,
                        ClientOp::App(LockCmd::Acquire {
                            name: format!("l{i}"),
                            owner: client,
                        }),
                    );
                }
                assert!(cluster.run_until_drained(client, SimTime::from_secs(120)));
                cluster.sim.messages_delivered()
            })
        });
    }
    g.finish();
}

fn leader_failover(c: &mut Criterion) {
    let mut g = c.benchmark_group("paxos_failover");
    g.sample_size(10);
    g.bench_function("crash_and_recover_5", |b| {
        b.iter(|| {
            let mut cluster = Cluster::new(
                5,
                LockService::new(),
                ReplicaConfig::default(),
                NetworkConfig::ideal(),
                7,
            );
            let client = cluster.add_client();
            cluster.submit(
                client,
                ClientOp::App(LockCmd::Acquire {
                    name: "x".into(),
                    owner: client,
                }),
            );
            assert!(cluster.run_until_drained(client, SimTime::from_secs(60)));
            let leader = cluster.leader().expect("leader");
            cluster.crash(leader);
            cluster.submit(
                client,
                ClientOp::App(LockCmd::Acquire {
                    name: "y".into(),
                    owner: client,
                }),
            );
            assert!(cluster.run_until_drained(client, SimTime::from_secs(120)));
            cluster.sim.now()
        })
    });
    g.finish();
}

fn rs_paxos_puts(c: &mut Criterion) {
    let mut g = c.benchmark_group("rs_paxos_puts");
    g.sample_size(10);
    for size in [1024usize, 16 * 1024] {
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            b.iter(|| {
                let mut cluster = Cluster::new(
                    5,
                    ShardStore::new(),
                    ReplicaConfig::rs_paxos(3),
                    NetworkConfig::ideal(),
                    3,
                );
                let client = cluster.add_client();
                for i in 0..10 {
                    cluster.submit(
                        client,
                        StoreCmd::Put {
                            key: format!("k{i}"),
                            object: Bytes::from(vec![i as u8; size]),
                        },
                    );
                }
                assert!(cluster.run_until_drained(client, SimTime::from_secs(120)));
            })
        });
    }
    g.finish();
}

criterion_group!(benches, lock_commits, leader_failover, rs_paxos_puts);
criterion_main!(benches);
