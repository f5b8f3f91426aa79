//! The conservation-audit suite: every layer's counters must balance
//! against its neighbours', on clean runs and under fault injection, and
//! the batch / streaming / replay pipelines must agree on the fact
//! tables at beyond-smoke scale.

use nt_study::{differential_check, ReplayConfig, ShardOptions, Study, StudyConfig};

#[test]
fn smoke_run_reconciles_every_ledger() {
    let config = StudyConfig::smoke_test(2024);
    let audited = Study::run_sharded_audited(&config, &ShardOptions::default())
        .unwrap_or_else(|failure| panic!("{failure}"));
    assert_eq!(audited.ledgers.len(), audited.data.data.machines.len());
    // The audit is only meaningful if the accounts saw real traffic.
    let l = &audited.ledgers[0];
    assert!(
        l.entry(nt_audit::accounts::READ_DISPATCH)
            .expect("reads happened")
            .debit
            > 0
    );
    assert!(
        audited
            .fleet
            .entry(nt_audit::accounts::POOL_RECORDS)
            .expect("records flowed")
            .debit
            > 0
    );
    let report = audited.report();
    assert!(report.contains("ledger machine-0"));
    assert!(report.contains("ledger fleet"));
    assert!(!report.contains("DRIFT"), "{report}");
}

#[test]
fn seeded_drift_is_caught_and_named() {
    // Sanity-check the failure path: cook a ledger with one bad account
    // and make sure reconciliation points at it.
    let mut ledger = nt_audit::Ledger::new("machine-9");
    ledger.debit(nt_audit::accounts::PAGING_READ_BYTES, 4096);
    ledger.credit(nt_audit::accounts::PAGING_READ_BYTES, 0);
    let imbalance = ledger.reconcile().unwrap_err();
    assert_eq!(imbalance.account, nt_audit::accounts::PAGING_READ_BYTES);
    assert_eq!(imbalance.scope, "machine-9");
}

#[test]
fn faulted_fleet_run_reconciles_to_zero_drift() {
    // The acceptance bar: 45 machines, multi-day trace window, lossy
    // fault plan active — every machine ledger and the fleet ledger must
    // still balance, because the accounts charge loss to explicit buckets
    // (suspension, overflow) rather than letting it vanish.
    let mut config = StudyConfig::evaluation(77);
    config.duration = nt_sim::SimDuration::from_secs(900);
    config.snapshot_interval = nt_sim::SimDuration::from_secs(300);
    config.files_per_volume = 400;
    config.web_cache_files = 60;
    config.faults = nt_study::FaultPlan::lossy();
    assert_eq!(config.machines.len(), 45, "paper fleet");
    let audited = Study::run_sharded_audited(&config, &ShardOptions::default())
        .unwrap_or_else(|failure| panic!("{failure}"));
    // Fault injection really happened …
    assert!(
        audited.data.data.total_lost() > 0,
        "the lossy plan should drop records"
    );
    // … and still every account balances, fleet-wide.
    assert!(!audited.report().contains("DRIFT"));
    // Loss shows up in the books as the gap between dispatch and intake
    // never existing: trace.events balances because suspension drops are
    // an explicit credit, not an unexplained deficit.
    let drops: u64 = audited
        .data
        .data
        .machines
        .iter()
        .map(|m| m.loss.dropped_suspended)
        .sum();
    assert!(drops > 0, "suspension windows should have dropped events");
}

#[test]
fn sharded_run_reconciles_every_tier() {
    // The three-tier books: machine ledgers, one ledger per shard
    // collector, and the fleet root carrying both the flat pool account
    // and the sharded roll-up account. A faulted 4-shard run must
    // balance at every tier — loss is charged to explicit buckets on
    // the machine, so nothing the shards forward can go missing.
    let mut config = StudyConfig::smoke_test(404);
    config.faults = nt_study::FaultPlan::lossy();
    let audited = Study::run_sharded_audited(
        &config,
        &ShardOptions {
            shards: 4,
            ..ShardOptions::default()
        },
    )
    .unwrap_or_else(|failure| panic!("{failure}"));
    assert_eq!(audited.ledgers.len(), audited.data.data.machines.len());
    assert_eq!(audited.shard_ledgers.len(), 4);
    for (k, ledger) in audited.shard_ledgers.iter().enumerate() {
        let entry = ledger
            .entry(nt_audit::accounts::SHARD_RECORDS)
            .expect("shard pool saw traffic");
        assert!(entry.debit > 0, "shard {k} collected nothing");
        assert_eq!(entry.drift(), 0, "shard {k} drifted");
    }
    let rollup = audited
        .fleet
        .entry(nt_audit::accounts::FLEET_ROLLUP_RECORDS)
        .expect("roll-up account posted");
    assert!(rollup.debit > 0);
    assert_eq!(rollup.drift(), 0);
}

#[test]
fn drifting_shard_is_named_by_the_rollup() {
    // Injected drift: pretend shard 2's collector over-reported its
    // head-count by 7 records. Rebuilding the books from the perturbed
    // reports must flag the shard tier — and name shard 2 — while every
    // machine ledger (built from untouched machine state) stays clean.
    let config = StudyConfig::smoke_test(405);
    let mut data = Study::run_sharded(
        &config,
        &ShardOptions {
            shards: 4,
            ..ShardOptions::default()
        },
    );
    data.shards[2].total_records += 7;
    let (machines, shards, fleet) = nt_study::sharded_ledgers(&data);
    for ledger in &machines {
        ledger.reconcile().expect("machine tier untouched");
    }
    let imbalance = shards
        .iter()
        .map(|l| l.reconcile())
        .find_map(Result::err)
        .expect("the cooked head-count must surface");
    assert_eq!(imbalance.scope, "shard-2");
    assert_eq!(imbalance.account, nt_audit::accounts::SHARD_RECORDS);
    assert_eq!(
        imbalance.credit - imbalance.debit,
        7,
        "credit exceeds the machines' deliveries by exactly the injection"
    );
    // The same lie is visible from the root: the roll-up leg debits the
    // perturbed shard totals against the true fleet head-count.
    let root = fleet.reconcile().unwrap_err();
    assert_eq!(root.scope, "fleet");
    assert_eq!(root.account, nt_audit::accounts::FLEET_ROLLUP_RECORDS);
}

#[test]
fn differential_harness_is_clean_under_faults() {
    // Batch, streaming and replay legs over a faulted multi-machine run,
    // the streaming leg on one shard and on three: per-table drift must
    // be zero and the two replays identical.
    let mut config = StudyConfig::smoke_test(31);
    config.faults = nt_study::FaultPlan::lossy();
    for shards in [1, 3] {
        let report = differential_check(&config, shards, &ReplayConfig::default())
            .unwrap_or_else(|fault| panic!("{fault}"));
        assert_eq!(report.tables.len(), 3);
        assert!(
            report.clean(),
            "shards={shards} drift:\n{}",
            report.render()
        );
        assert_eq!(report.batch_records, report.streaming_records);
        assert!(report.render().contains("records"));
    }
}
