//! Property-based tests over the core data structures and invariants.

use nt_cache::RangeSet;
use nt_fs::NtPath;
use nt_sim::{Engine, SimTime};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// RangeSet vs a naive bit-set model.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RangeOp {
    Insert(u16, u16),
    Remove(u16, u16),
}

fn range_ops() -> impl Strategy<Value = Vec<RangeOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u16..512, 0u16..512).prop_map(|(a, b)| RangeOp::Insert(a.min(b), a.max(b))),
            (0u16..512, 0u16..512).prop_map(|(a, b)| RangeOp::Remove(a.min(b), a.max(b))),
        ],
        0..60,
    )
}

proptest! {
    #[test]
    fn range_set_matches_naive_model(ops in range_ops()) {
        let mut rs = RangeSet::new();
        let mut model = [false; 512];
        for op in &ops {
            match *op {
                RangeOp::Insert(s, e) => {
                    rs.insert(s as u64, e as u64);
                    for x in s..e {
                        model[x as usize] = true;
                    }
                }
                RangeOp::Remove(s, e) => {
                    rs.remove(s as u64, e as u64);
                    for x in s..e {
                        model[x as usize] = false;
                    }
                }
            }
        }
        // Covered bytes agree.
        let naive: u64 = model.iter().filter(|&&b| b).count() as u64;
        prop_assert_eq!(rs.covered_bytes(), naive);
        // Ranges are disjoint, sorted and non-adjacent.
        let ranges: Vec<(u64, u64)> = rs.iter().collect();
        for w in ranges.windows(2) {
            prop_assert!(w[0].1 < w[1].0, "coalesced and ordered: {:?}", ranges);
        }
        // covers() agrees with the model at a few probes.
        for probe in [0u64, 7, 100, 255, 300, 511] {
            prop_assert_eq!(
                rs.covers(probe, probe + 1),
                model[probe as usize],
                "probe {}", probe
            );
        }
        // gaps() of the full domain complements the coverage.
        let gap_total: u64 = rs.gaps(0, 512).iter().map(|(s, e)| e - s).sum();
        prop_assert_eq!(gap_total, 512 - naive);
    }

    #[test]
    fn covers_and_intersects_match_naive_model(
        ops in range_ops(),
        probes in prop::collection::vec((0u16..512, 1u16..64), 1..20),
    ) {
        let mut rs = RangeSet::new();
        let mut model = [false; 600];
        for op in &ops {
            match *op {
                RangeOp::Insert(s, e) => {
                    rs.insert(s as u64, e as u64);
                    for x in s..e {
                        model[x as usize] = true;
                    }
                }
                RangeOp::Remove(s, e) => {
                    rs.remove(s as u64, e as u64);
                    for x in s..e {
                        model[x as usize] = false;
                    }
                }
            }
        }
        for &(start, len) in &probes {
            let (s, e) = (start as u64, start as u64 + len as u64);
            let bytes = &model[s as usize..e as usize];
            prop_assert_eq!(
                rs.covers(s, e),
                bytes.iter().all(|&b| b),
                "covers({}, {})", s, e
            );
            prop_assert_eq!(
                rs.intersects(s, e),
                bytes.iter().any(|&b| b),
                "intersects({}, {})", s, e
            );
        }
        // Degenerate probes: an empty range is covered and intersects
        // nothing, and clear() really empties the set.
        prop_assert!(rs.covers(10, 10));
        prop_assert!(!rs.intersects(10, 10));
        rs.clear();
        prop_assert!(rs.is_empty());
        prop_assert_eq!(rs.covered_bytes(), 0);
    }

    #[test]
    fn take_front_conserves_bytes(ops in range_ops(), budget in 0u64..600) {
        let mut rs = RangeSet::new();
        for op in &ops {
            if let RangeOp::Insert(s, e) = *op {
                rs.insert(s as u64, e as u64);
            }
        }
        let before = rs.covered_bytes();
        let taken: u64 = rs.take_front(budget).iter().map(|(s, e)| e - s).sum();
        prop_assert!(taken <= budget);
        prop_assert_eq!(rs.covered_bytes() + taken, before);
    }
}

// ---------------------------------------------------------------------
// Trace-record encode/decode roundtrip.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn trace_record_roundtrips(
        code in 0u8..54,
        flags in 0u8..16,
        fo in any::<u64>(),
        fcb in any::<u64>(),
        process in any::<u32>(),
        offset in any::<u64>(),
        length in any::<u64>(),
        start in 0u64..u64::MAX / 2,
        lat in 0u64..1_000_000_000,
    ) {
        use nt_trace::TraceRecord;
        let rec = TraceRecord {
            code,
            flags,
            status: nt_io::NtStatus::Success,
            set_info: None,
            access: None,
            disposition: None,
            options: None,
            file_object: fo,
            fcb,
            process,
            volume: 0,
            offset,
            length,
            transferred: length / 2,
            file_size: length,
            byte_offset: offset,
            start_ticks: start,
            end_ticks: start + lat,
        };
        let mut buf = bytes::BytesMut::new();
        rec.encode(&mut buf);
        prop_assert_eq!(buf.len(), nt_trace::RECORD_SIZE);
        let back = TraceRecord::decode(&mut buf.freeze()).expect("valid record");
        prop_assert_eq!(back, rec);
    }

    #[test]
    fn record_batches_roundtrip(n in 1usize..400, seed in any::<u64>()) {
        use nt_trace::{RecordBatch, TraceRecord};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut t = 0u64;
        let records: Vec<TraceRecord> = (0..n)
            .map(|i| {
                t += rng.gen_range(0..1_000_000);
                TraceRecord {
                    code: rng.gen_range(0..54),
                    flags: rng.gen_range(0..16),
                    status: nt_io::NtStatus::Success,
                    set_info: None,
                    access: None,
                    disposition: None,
                    options: None,
                    file_object: i as u64,
                    fcb: rng.gen(),
                    process: rng.gen(),
                    volume: rng.gen_range(0..3),
                    offset: rng.gen(),
                    length: rng.gen_range(0..1 << 20),
                    transferred: 0,
                    file_size: 0,
                    byte_offset: 0,
                    start_ticks: t,
                    end_ticks: t + rng.gen_range(0..100_000),
                }
            })
            .collect();
        let batch = RecordBatch::compress(&records);
        prop_assert_eq!(batch.decompress(), records);
    }
}

// ---------------------------------------------------------------------
// NTT warehouse segments: arbitrary batch streams roundtrip through the
// zero-copy format exactly, and corrupted or truncated segments are
// rejected with a typed error — never a panic.
// ---------------------------------------------------------------------

/// Deterministic record stream for a seed: varied kinds, monotone ticks.
fn ntt_random_batches(batch_lens: &[usize], seed: u64) -> Vec<Vec<nt_trace::TraceRecord>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut t = 0u64;
    batch_lens
        .iter()
        .map(|&n| {
            (0..n)
                .map(|_| {
                    t += rng.gen_range(1..1_000_000);
                    nt_trace::TraceRecord {
                        code: rng.gen_range(0..54),
                        flags: rng.gen_range(0..16),
                        status: nt_io::NtStatus::Success,
                        set_info: None,
                        access: None,
                        disposition: None,
                        options: None,
                        file_object: rng.gen_range(0..50),
                        fcb: rng.gen(),
                        process: rng.gen(),
                        volume: rng.gen_range(0..3),
                        offset: rng.gen(),
                        length: rng.gen_range(0..1 << 24),
                        transferred: rng.gen_range(0..1 << 24),
                        file_size: rng.gen(),
                        byte_offset: rng.gen(),
                        start_ticks: t,
                        end_ticks: t + rng.gen_range(0..100_000),
                    }
                })
                .collect()
        })
        .collect()
}

proptest! {
    #[test]
    fn ntt_segment_roundtrips_arbitrary_batches(
        batch_lens in prop::collection::vec(0usize..40, 0..12),
        n_names in 0usize..10,
        seed in any::<u64>(),
        machine in any::<u32>(),
    ) {
        use nt_warehouse::{Segment, SegmentWriter};
        let batches = ntt_random_batches(&batch_lens, seed);
        let names: Vec<nt_trace::NameRecord> = (0..n_names)
            .map(|i| nt_trace::NameRecord {
                file_object: i as u64,
                volume: (i % 3) as u32,
                process: i as u32,
                // Half the paths repeat, exercising the interner.
                path: format!(r"\prop\file-{}.dat", i / 2),
                at_ticks: i as u64 * 100,
            })
            .collect();
        let mut w = SegmentWriter::new(machine);
        for b in &batches {
            w.push_batch(b).unwrap();
        }
        for name in &names {
            w.push_name(name).unwrap();
        }
        let seg = Segment::parse(w.finish()).expect("fresh segment is valid");
        prop_assert_eq!(seg.machine(), machine);
        let reader = seg.reader();
        let flat: Vec<nt_trace::TraceRecord> =
            batches.iter().flatten().copied().collect();
        prop_assert_eq!(flat.len() as u64, reader.record_count());
        let decoded: Vec<nt_trace::TraceRecord> = reader
            .records()
            .map(|v| v.to_record().expect("valid record"))
            .collect();
        prop_assert_eq!(decoded, flat);
        let lens: Vec<u32> = reader.batch_lens().collect();
        let expected: Vec<u32> = batch_lens.iter().map(|&n| n as u32).collect();
        prop_assert_eq!(lens, expected, "batch boundaries survive");
        let back: Vec<nt_trace::NameRecord> = reader
            .names()
            .map(|n| n.to_name().expect("valid name"))
            .collect();
        prop_assert_eq!(back, names);
    }

    #[test]
    fn ntt_corruption_is_an_error_never_a_panic(
        batch_lens in prop::collection::vec(0usize..20, 0..6),
        seed in any::<u64>(),
        flip_at in any::<usize>(),
        flip_with in 1u8..=255,
        trunc_to in any::<usize>(),
    ) {
        use nt_warehouse::{Segment, SegmentWriter};
        let mut w = SegmentWriter::new(1);
        for b in ntt_random_batches(&batch_lens, seed) {
            w.push_batch(&b).unwrap();
        }
        let good = w.finish();
        prop_assert!(Segment::parse(good.clone()).is_ok());
        // Any single corrupted byte is detected.
        let mut bad = good.clone();
        let at = flip_at % bad.len();
        bad[at] ^= flip_with;
        prop_assert!(
            Segment::parse(bad).is_err(),
            "corruption at byte {} went undetected", at
        );
        // Any truncation is detected.
        let keep = trunc_to % good.len();
        prop_assert!(Segment::parse(good[..keep].to_vec()).is_err());
    }
}

// ---------------------------------------------------------------------
// Engine ordering under random schedules.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn engine_fires_in_nondecreasing_time_order(times in prop::collection::vec(0u64..10_000, 1..80)) {
        let mut engine: Engine<Vec<u64>> = Engine::new();
        for &t in &times {
            engine.schedule_at(SimTime::from_millis(t), move |world, eng| {
                world.push(eng.now().as_millis());
            });
        }
        let mut fired = Vec::new();
        engine.run(&mut fired);
        prop_assert_eq!(fired.len(), times.len());
        for w in fired.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(fired, sorted);
    }
}

// ---------------------------------------------------------------------
// CDF properties.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn cdf_quantiles_are_monotone(samples in prop::collection::vec(0.0f64..1e9, 2..200)) {
        let cdf = nt_analysis::Cdf::from_samples(samples.clone());
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = cdf.quantile(q).expect("non-empty");
            prop_assert!(v >= last, "quantiles decrease at q={q}");
            last = v;
        }
        let (lo, hi) = cdf.range().expect("non-empty");
        prop_assert_eq!(cdf.fraction_at_or_below(hi), 1.0);
        prop_assert!(cdf.fraction_at_or_below(lo - 1.0) == 0.0);
    }
}

// ---------------------------------------------------------------------
// Path parsing.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn path_display_parse_roundtrip(parts in prop::collection::vec("[a-z0-9]{1,8}(\\.[a-z0-9]{1,3})?", 0..6)) {
        let mut p = NtPath::root();
        for part in &parts {
            p.push(part);
        }
        let shown = p.to_string();
        let back = NtPath::parse(&shown);
        prop_assert_eq!(back, p);
    }

    #[test]
    fn path_parent_reduces_depth(parts in prop::collection::vec("[a-z]{1,6}", 1..6)) {
        let mut p = NtPath::root();
        for part in &parts {
            p.push(part);
        }
        prop_assert_eq!(p.depth(), parts.len());
        prop_assert_eq!(p.parent().depth(), parts.len() - 1);
        prop_assert!(p.starts_with(&p.parent()));
    }
}

// ---------------------------------------------------------------------
// Cache-manager invariants under arbitrary operation sequences.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CacheOp {
    Read { key: u8, offset: u32, len: u16 },
    Write { key: u8, offset: u32, len: u16 },
    Flush { key: u8 },
    LazyScan,
    Purge { key: u8 },
    Trim { budget: u32 },
}

fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..4, 0u32..1_000_000, 1u16..u16::MAX)
                .prop_map(|(key, offset, len)| CacheOp::Read { key, offset, len }),
            (0u8..4, 0u32..1_000_000, 1u16..u16::MAX)
                .prop_map(|(key, offset, len)| CacheOp::Write { key, offset, len }),
            (0u8..4).prop_map(|key| CacheOp::Flush { key }),
            Just(CacheOp::LazyScan),
            (0u8..4).prop_map(|key| CacheOp::Purge { key }),
            (0u32..2_000_000).prop_map(|budget| CacheOp::Trim { budget }),
        ],
        0..80,
    )
}

proptest! {
    #[test]
    fn cache_manager_invariants_hold(ops in cache_ops()) {
        use nt_cache::{CacheManager, CacheOpenHints};
        let mut m: CacheManager<u8> = CacheManager::with_defaults();
        let hints = CacheOpenHints::default();
        let file_size = 1 << 20;
        let mut scan = 1u64;
        for op in &ops {
            match *op {
                CacheOp::Read { key, offset, len } => {
                    let out = m.read(&key, offset as u64, len as u64, file_size, hints);
                    // Paging reads are page aligned and never empty.
                    for io in &out.ios {
                        prop_assert!(io.offset % nt_cache::PAGE_SIZE == 0);
                        prop_assert!(io.len > 0 && io.len % nt_cache::PAGE_SIZE == 0);
                        prop_assert!(!io.write);
                        m.complete_paging_read(&key, io.offset, io.len);
                    }
                    // After completing the paging I/O, the same read hits.
                    if !out.hit {
                        let again = m.read(&key, offset as u64, len as u64, file_size, hints);
                        prop_assert!(
                            again.ios.iter().all(|io| io.readahead),
                            "demand range must now be resident"
                        );
                    }
                }
                CacheOp::Write { key, offset, len } => {
                    let out = m.write(&key, offset as u64, len as u64, file_size, hints);
                    prop_assert!(out.ios.is_empty(), "write-behind by default");
                }
                CacheOp::Flush { key } => {
                    m.flush(&key);
                    prop_assert_eq!(m.file_dirty_bytes(&key), 0);
                }
                CacheOp::LazyScan => {
                    let before = m.dirty_bytes();
                    let (actions, _) = m.lazy_scan(nt_sim::SimTime::from_secs(scan));
                    scan += 1;
                    let written: u64 = actions.iter().map(|a| a.io.len).sum();
                    prop_assert_eq!(m.dirty_bytes() + written, before);
                }
                CacheOp::Purge { key } => {
                    m.purge(&key);
                    prop_assert!(!m.is_cached(&key));
                }
                CacheOp::Trim { budget } => {
                    let dirty_before = m.dirty_bytes();
                    m.trim(budget as u64);
                    prop_assert_eq!(m.dirty_bytes(), dirty_before, "trim never drops dirty data");
                }
            }
            // Global invariant: dirty data is always resident.
            prop_assert!(m.dirty_bytes() <= m.resident_bytes());
        }
    }
}

// ---------------------------------------------------------------------
// Share-mode arbitration is symmetric and self-consistent.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn share_arbitration_is_consistent(
        seq in prop::collection::vec((0u8..3, 0u8..8), 1..20)
    ) {
        use nt_io::sharing::ShareRegistry;
        use nt_io::{AccessMode, ArenaHandle, HandleId, ShareMode};
        let decode_access = |a: u8| match a {
            0 => AccessMode::Read,
            1 => AccessMode::Write,
            _ => AccessMode::ReadWrite,
        };
        let decode_share = |s: u8| ShareMode {
            read: s & 1 != 0,
            write: s & 2 != 0,
            delete: s & 4 != 0,
        };
        let mut reg = ShareRegistry::new();
        let fcb = ArenaHandle::from_parts(1, 1);
        let mut granted: Vec<(HandleId, AccessMode, ShareMode)> = Vec::new();
        for (i, (a, sh)) in seq.iter().enumerate() {
            let access = decode_access(*a);
            let share = decode_share(*sh);
            let h = HandleId(i as u64);
            let compatible = reg.compatible(fcb, access, share);
            let opened = reg.try_open(fcb, h, access, share);
            prop_assert_eq!(compatible, opened, "check and open agree");
            if opened {
                // The grant must be pairwise consistent with every
                // already-granted opener.
                for (_, ga, gs) in &granted {
                    if access.can_read() { prop_assert!(gs.read); }
                    if access.can_write() { prop_assert!(gs.write); }
                    if ga.can_read() { prop_assert!(share.read); }
                    if ga.can_write() { prop_assert!(share.write); }
                }
                granted.push((h, access, share));
            }
        }
        // Closing everything resets arbitration.
        for (h, _, _) in &granted {
            reg.close(fcb, *h);
        }
        prop_assert!(reg.try_open(fcb, HandleId(999), AccessMode::ReadWrite, ShareMode::default()));
    }
}

// ---------------------------------------------------------------------
// Heavy-tail estimator sanity.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn hill_estimator_tracks_pareto_alpha(seed in any::<u64>(), alpha_x10 in 11u32..25) {
        use rand::{Rng, SeedableRng};
        let alpha = alpha_x10 as f64 / 10.0;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let sample: Vec<f64> = (0..30_000)
            .map(|_| {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                1.0 / u.powf(1.0 / alpha)
            })
            .collect();
        let est = nt_analysis::tails::hill_alpha(&sample);
        prop_assert!(
            (est - alpha).abs() < 0.4,
            "alpha {} estimated {}", alpha, est
        );
    }
}

// ---------------------------------------------------------------------
// Triple-buffer delivery: never duplicated, never reordered, fully
// accounted — at the paper's capacity and under fault-plan squeezes.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum BufferOp {
    /// Push this many records.
    Push(u16),
    /// Take the queued full buffers (a shipping opportunity).
    Ship,
}

fn buffer_ops() -> impl Strategy<Value = Vec<BufferOp>> {
    prop::collection::vec(
        prop_oneof![(1u16..200).prop_map(BufferOp::Push), Just(BufferOp::Ship),],
        1..40,
    )
}

proptest! {
    #[test]
    fn triple_buffer_never_duplicates_or_reorders(
        ops in buffer_ops(),
        capacity in 1usize..120,
    ) {
        use nt_trace::{TraceRecord, TripleBuffer};

        fn rec(i: u64) -> TraceRecord {
            TraceRecord {
                code: 0,
                flags: 0,
                status: nt_io::NtStatus::Success,
                set_info: None,
                access: None,
                disposition: None,
                options: None,
                file_object: i,
                fcb: 0,
                process: 0,
                volume: 0,
                offset: 0,
                length: 0,
                transferred: 0,
                file_size: 0,
                byte_offset: 0,
                start_ticks: i,
                end_ticks: i + 1,
            }
        }

        let mut tb = TripleBuffer::with_capacity(capacity);
        let mut pushed = 0u64;
        let mut delivered: Vec<u64> = Vec::new();
        for op in &ops {
            match *op {
                BufferOp::Push(n) => {
                    for _ in 0..n {
                        tb.push(rec(pushed));
                        pushed += 1;
                    }
                }
                BufferOp::Ship => {
                    for batch in tb.take_queued() {
                        prop_assert!(batch.len() <= capacity);
                        delivered.extend(batch.iter().map(|r| r.file_object));
                    }
                }
            }
        }
        delivered.extend(tb.drain_all().iter().map(|r| r.file_object));

        // Every accepted record arrived exactly once, in push order.
        prop_assert_eq!(delivered.len() as u64, tb.recorded());
        for w in delivered.windows(2) {
            prop_assert!(w[0] < w[1], "shipped stream reordered or duplicated");
        }
        prop_assert!(delivered.iter().all(|&id| id < pushed));
        // Accounting closes: accepted plus overflow-dropped is everything.
        prop_assert_eq!(tb.recorded() + tb.dropped(), pushed);
        prop_assert_eq!(tb.overflowed(), tb.dropped() > 0);
        prop_assert_eq!(tb.pending(), 0, "drain_all leaves nothing behind");
    }
}

// ---------------------------------------------------------------------
// Engine cancellation under faulted schedules: cancelling the events a
// fault window covers removes exactly those, preserving order and the
// FIFO tie break for the survivors.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn engine_cancellation_removes_exactly_the_faulted_events(
        times in prop::collection::vec(0u64..5_000, 1..80),
        window in (0u64..5_000, 1u64..2_000),
    ) {
        use nt_trace::{any_contains, TickWindow};

        // The fault window in milliseconds; events inside it are the
        // work an outage would cancel.
        let windows = [TickWindow::new(window.0, window.0 + window.1)];
        let mut engine: Engine<Vec<(u64, usize)>> = Engine::new();
        let mut cancelled = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let id = engine.schedule_at(SimTime::from_millis(t), move |w: &mut Vec<(u64, usize)>, eng: &mut Engine<Vec<(u64, usize)>>| {
                w.push((eng.now().as_millis(), i));
            });
            if any_contains(&windows, t) {
                prop_assert!(engine.cancel(id));
                prop_assert!(!engine.cancel(id), "double cancel reports false");
                cancelled.push(i);
            }
        }
        let mut fired = Vec::new();
        engine.run(&mut fired);

        // The survivors are exactly the out-of-window events, in time
        // order with scheduling order breaking ties.
        let mut expected: Vec<(u64, usize)> = times
            .iter()
            .enumerate()
            .filter(|(_, &t)| !any_contains(&windows, t))
            .map(|(i, &t)| (t, i))
            .collect();
        expected.sort();
        prop_assert_eq!(fired, expected);
        prop_assert_eq!(
            engine.events_fired() as usize + cancelled.len(),
            times.len()
        );
    }
}

// ---------------------------------------------------------------------
// Volume namespace vs a flat-map model.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum NsOp {
    CreateFile {
        dir: u8,
        name: u8,
    },
    Mkdir {
        parent: u8,
        name: u8,
    },
    Remove {
        dir: u8,
        name: u8,
    },
    Rename {
        dir: u8,
        name: u8,
        to_dir: u8,
        to_name: u8,
    },
    SetSize {
        dir: u8,
        name: u8,
        size: u32,
    },
}

fn ns_ops() -> impl Strategy<Value = Vec<NsOp>> {
    let dir = 0u8..4;
    let name = 0u8..12;
    prop::collection::vec(
        prop_oneof![
            (dir.clone(), name.clone()).prop_map(|(dir, name)| NsOp::CreateFile { dir, name }),
            (dir.clone(), name.clone()).prop_map(|(parent, name)| NsOp::Mkdir { parent, name }),
            (dir.clone(), name.clone()).prop_map(|(dir, name)| NsOp::Remove { dir, name }),
            (dir.clone(), name.clone(), dir.clone(), name.clone()).prop_map(
                |(dir, name, to_dir, to_name)| NsOp::Rename {
                    dir,
                    name,
                    to_dir,
                    to_name
                }
            ),
            (dir, name, 0u32..10_000_000).prop_map(|(dir, name, size)| NsOp::SetSize {
                dir,
                name,
                size
            }),
        ],
        0..120,
    )
}

proptest! {
    #[test]
    fn volume_matches_flat_model(ops in ns_ops()) {
        use nt_fs::{FsError, Volume, VolumeConfig};
        use nt_sim::SimTime;
        use std::collections::HashMap;

        let now = SimTime::from_secs(1);
        let mut vol = Volume::new(VolumeConfig::local_ntfs(1 << 30));
        // Four fixed directories d0..d3 under the root.
        let dirs: Vec<nt_fs::NodeId> = (0..4)
            .map(|i| vol.mkdir(vol.root(), &format!("d{i}"), now).expect("fresh"))
            .collect();
        // Model: (dir index, name index) -> size.
        let mut model: HashMap<(u8, u8), u64> = HashMap::new();

        for op in &ops {
            match *op {
                NsOp::CreateFile { dir, name } => {
                    let r = vol.create_file(dirs[dir as usize], &format!("f{name}"), now);
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry((dir, name)) {
                        prop_assert!(r.is_ok());
                        e.insert(0);
                    } else {
                        prop_assert_eq!(r.unwrap_err(), FsError::AlreadyExists);
                    }
                }
                NsOp::Mkdir { parent, name } => {
                    // Directory names collide with files in the same dir.
                    let r = vol.mkdir(dirs[parent as usize], &format!("f{name}"), now);
                    if model.contains_key(&(parent, name)) {
                        prop_assert_eq!(r.unwrap_err(), FsError::AlreadyExists);
                    } else {
                        // Created a directory occupying the name; remove it
                        // again to keep the model files-only.
                        let id = r.expect("fresh directory");
                        vol.remove(id, now).expect("empty directory removes");
                    }
                }
                NsOp::Remove { dir, name } => {
                    match vol.child(dirs[dir as usize], &format!("f{name}")) {
                        Ok(id) => {
                            prop_assert!(model.contains_key(&(dir, name)));
                            vol.remove(id, now).expect("file removes");
                            model.remove(&(dir, name));
                        }
                        Err(e) => {
                            prop_assert_eq!(e, FsError::NotFound);
                            prop_assert!(!model.contains_key(&(dir, name)));
                        }
                    }
                }
                NsOp::Rename { dir, name, to_dir, to_name } => {
                    let src = vol.child(dirs[dir as usize], &format!("f{name}"));
                    match src {
                        Ok(id) => {
                            let same = (dir, name) == (to_dir, to_name);
                            let r = vol.rename(
                                id,
                                dirs[to_dir as usize],
                                &format!("f{to_name}"),
                                now,
                            );
                            if model.contains_key(&(to_dir, to_name)) && !same {
                                prop_assert_eq!(r.unwrap_err(), FsError::AlreadyExists);
                            } else if same {
                                // Renaming onto itself collides with its own
                                // entry in this model's semantics.
                                prop_assert!(r.is_err());
                            } else {
                                prop_assert!(r.is_ok());
                                let size = model.remove(&(dir, name)).expect("tracked");
                                model.insert((to_dir, to_name), size);
                            }
                        }
                        Err(_) => prop_assert!(!model.contains_key(&(dir, name))),
                    }
                }
                NsOp::SetSize { dir, name, size } => {
                    match vol.child(dirs[dir as usize], &format!("f{name}")) {
                        Ok(id) => {
                            vol.set_file_size(id, size as u64, now).expect("fits");
                            model.insert((dir, name), size as u64);
                        }
                        Err(_) => prop_assert!(!model.contains_key(&(dir, name))),
                    }
                }
            }
        }

        // Final state agrees: every model entry resolves with its size,
        // and the stats add up.
        let mut total = 0u64;
        for (&(dir, name), &size) in &model {
            let id = vol
                .child(dirs[dir as usize], &format!("f{name}"))
                .expect("model entry exists");
            prop_assert_eq!(vol.file_size(id).expect("is a file"), size);
            total += size;
        }
        prop_assert_eq!(vol.stats().files as usize, model.len());
        prop_assert_eq!(vol.stats().used_bytes, total);
        // The snapshot walker sees exactly the model's files.
        let snap = nt_trace::SnapshotWalker::walk_volume(
            nt_fs::VolumeId(0),
            &vol,
            SimTime::from_secs(2),
        );
        prop_assert_eq!(snap.file_count(), model.len());
    }
}

// ---------------------------------------------------------------------
// Hierarchical merge: the sharded collection tree reduces per-machine
// aggregates shard → aggregator → fleet, so the merge must be exactly
// associative and insensitive to how machines are partitioned into
// shards — not merely close up to float reassociation.
// ---------------------------------------------------------------------

use nt_analysis::schema::test_support::synthetic_trace_set;
use nt_analysis::sizes::SizeAccumulator;
use nt_analysis::{HistogramSketch, SpillRuns};

/// Weighted samples tagged with an owning group (machine).
fn tagged_samples() -> impl Strategy<Value = Vec<(f64, u64, u8)>> {
    prop::collection::vec((1e-3f64..1e9, 1u64..1_000, 0u8..5), 0..200)
}

/// Merges group sketches `order`-wise with an arbitrary association:
/// `splits` picks where the fold restarts a fresh sub-tree.
fn merge_tree(groups: &[HistogramSketch], splits: &[bool]) -> HistogramSketch {
    let mut subtrees: Vec<HistogramSketch> = Vec::new();
    for (i, g) in groups.iter().enumerate() {
        let fresh = subtrees.is_empty() || *splits.get(i).unwrap_or(&false);
        if fresh {
            subtrees.push(g.clone());
        } else {
            subtrees.last_mut().unwrap().merge(g);
        }
    }
    let mut root = HistogramSketch::new();
    for s in &subtrees {
        root.merge(s);
    }
    root
}

proptest! {
    #[test]
    fn histogram_merge_is_associative_and_order_insensitive(
        samples in tagged_samples(),
        splits_a in prop::collection::vec(any::<bool>(), 5..6),
        splits_b in prop::collection::vec(any::<bool>(), 5..6),
    ) {
        let mut groups = vec![HistogramSketch::new(); 5];
        let mut whole = HistogramSketch::new();
        for &(v, w, g) in &samples {
            groups[g as usize].record_weighted(v, w);
            whole.record_weighted(v, w);
        }
        // merge(a, merge(b, c)) == merge(merge(a, b), c), generalized:
        // any two association trees over the same group order agree.
        let a = merge_tree(&groups, &splits_a);
        let b = merge_tree(&groups, &splits_b);
        prop_assert_eq!(&a, &b);
        // Order-insensitive: reversing the shard order changes nothing.
        let reversed: Vec<HistogramSketch> = groups.iter().rev().cloned().collect();
        let c = merge_tree(&reversed, &splits_a);
        prop_assert_eq!(&a, &c);
        // And the hierarchy is invisible: any tree equals the flat
        // single-sketch ingest, fixed-point sum included.
        prop_assert_eq!(&a, &whole);
        prop_assert_eq!(a.sum(), whole.sum());
    }

    #[test]
    fn accumulator_merge_is_shard_partition_insensitive(
        shards_a in prop::collection::vec(0usize..4, 6..7),
        shards_b in prop::collection::vec(0usize..4, 6..7),
    ) {
        // Six "machines", each with its own accumulator over its own
        // slice of instances — the per-machine state the sinks build.
        let ts = synthetic_trace_set(240, 97);
        let instances = &ts.instances;
        let machines: Vec<SizeAccumulator> = (0..6)
            .map(|m| {
                let mut acc = SizeAccumulator::new();
                for inst in instances.iter().skip(m).step_by(6) {
                    acc.push_instance(inst);
                }
                acc
            })
            .collect();
        // Partitioning machines into shards, merging within each shard,
        // then across shards in shard order must equal the flat
        // machine-order merge — for *any* partition assignment.
        let reduce = |assign: &[usize]| {
            let mut shards: Vec<SizeAccumulator> =
                (0..4).map(|_| SizeAccumulator::new()).collect();
            for (m, acc) in machines.iter().enumerate() {
                shards[assign[m]].merge(acc);
            }
            let mut fleet = SizeAccumulator::new();
            for s in &shards {
                fleet.merge(s);
            }
            fleet
        };
        let mut flat = SizeAccumulator::new();
        for acc in &machines {
            flat.merge(acc);
        }
        prop_assert_eq!(&reduce(&shards_a), &flat);
        prop_assert_eq!(&reduce(&shards_b), &flat);
    }

    #[test]
    fn spill_absorb_is_order_insensitive(
        parts in prop::collection::vec(
            prop::collection::vec(0.001f64..1e6, 0..40), 1..6),
        order in any::<u64>(),
    ) {
        // The tail spills are merged shard-by-shard; the k-way sorted
        // stream (and hence every order statistic the Hill estimator
        // reads) must not depend on absorb order.
        let build = |indices: &[usize]| {
            let mut all = SpillRuns::new(16, None, "prop-absorb");
            for &i in indices {
                let mut one = SpillRuns::new(16, None, "prop-part");
                for &v in &parts[i] {
                    one.push(v);
                }
                all.absorb(one);
            }
            let mut out = Vec::new();
            all.for_each_sorted(|v| out.push(v));
            out
        };
        let forward: Vec<usize> = (0..parts.len()).collect();
        let mut shuffled = forward.clone();
        // Cheap deterministic shuffle from the seed.
        for i in (1..shuffled.len()).rev() {
            let j = (order.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        prop_assert_eq!(build(&forward), build(&shuffled));
    }
}

// ---------------------------------------------------------------------
// Generational arena vs a naive live/retired model: ABA safety.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ArenaOp {
    /// Insert a fresh value.
    Insert(u32),
    /// Remove one of the currently live handles (chosen by modulo).
    Remove(usize),
    /// Probe one of the retired handles (chosen by modulo) through every
    /// accessor — the ABA attack surface.
    ProbeStale(usize),
}

fn arena_ops() -> impl Strategy<Value = Vec<ArenaOp>> {
    prop::collection::vec(
        prop_oneof![
            any::<u32>().prop_map(ArenaOp::Insert),
            any::<usize>().prop_map(ArenaOp::Remove),
            any::<usize>().prop_map(ArenaOp::ProbeStale),
        ],
        0..120,
    )
}

proptest! {
    // The dispatch arena's whole reason to exist: a handle freed and
    // its slot reused — any number of times — must never resolve to
    // the slot's new occupant. The model keeps every retired handle
    // forever and re-probes them all at the end, so reuse at any depth
    // is exercised, not just the first generation bump.
    #[test]
    fn arena_stale_handles_never_resolve(ops in arena_ops()) {
        use nt_io::{Arena, ArenaHandle};

        let mut arena: Arena<u32> = Arena::new();
        let mut live: Vec<(ArenaHandle, u32)> = Vec::new();
        let mut retired: Vec<ArenaHandle> = Vec::new();
        for op in &ops {
            match *op {
                ArenaOp::Insert(v) => {
                    let h = arena.insert(v);
                    prop_assert_ne!(h.pack(), 0);
                    prop_assert_eq!(ArenaHandle::unpack(h.pack()), h);
                    live.push((h, v));
                }
                ArenaOp::Remove(pick) if !live.is_empty() => {
                    let (h, v) = live.swap_remove(pick % live.len());
                    prop_assert_eq!(arena.remove(h), Some(v));
                    retired.push(h);
                }
                ArenaOp::ProbeStale(pick) if !retired.is_empty() => {
                    let h = retired[pick % retired.len()];
                    prop_assert!(!arena.contains(h));
                    prop_assert_eq!(arena.get(h), None);
                    prop_assert_eq!(arena.get_mut(h), None);
                    prop_assert_eq!(arena.remove(h), None);
                    prop_assert!(!arena.contains_raw(h.pack()));
                    prop_assert_eq!(arena.get_raw(h.pack()), None);
                }
                _ => {}
            }
            prop_assert_eq!(arena.len(), live.len());
        }
        // Every live handle still resolves to exactly its value...
        for &(h, v) in &live {
            prop_assert_eq!(arena.get(h).copied(), Some(v));
        }
        // ...iteration shows precisely the live set, slot-ordered...
        let mut expected: Vec<(ArenaHandle, u32)> = live.clone();
        expected.sort_by_key(|(h, _)| h.index());
        let seen: Vec<(ArenaHandle, u32)> =
            arena.iter().map(|(h, v)| (h, *v)).collect();
        prop_assert_eq!(seen, expected);
        // ...and no retired handle ever came back to life, no matter
        // how many times its slot was recycled since.
        for &h in &retired {
            prop_assert!(!arena.contains(h), "stale handle {h:?} resolved");
            prop_assert_eq!(arena.get_raw(h.pack()), None);
        }
    }
}

// ---------------------------------------------------------------------
// TraceSet::build vs the sorted concatenation it replaces.
// ---------------------------------------------------------------------

/// One generated machine stream: a (possibly repeated) machine id, its
/// records and its name records.
type Stream = (u32, Vec<nt_trace::TraceRecord>, Vec<nt_trace::NameRecord>);

/// A record from a small alphabet of session events over few file
/// objects and few distinct timestamps, so ties and whole sessions are
/// common.
fn build_record() -> impl Strategy<Value = nt_trace::TraceRecord> {
    use nt_io::{EventKind, FastIoKind, MajorFunction, NtStatus, SetInfoKind};
    (0u8..9, 0u64..4, 0u64..6, 0u8..16, 0u64..4).prop_map(|(kind, fo, start, bits, blocks)| {
        let kind = match kind {
            0 | 1 => EventKind::Irp(MajorFunction::Create),
            2 => EventKind::Irp(MajorFunction::Read),
            3 => EventKind::FastIo(FastIoKind::Read),
            4 => EventKind::Irp(MajorFunction::Write),
            5 => EventKind::Irp(MajorFunction::SetInformation),
            6 => EventKind::Irp(MajorFunction::QueryInformation),
            7 => EventKind::Irp(MajorFunction::Cleanup),
            _ => EventKind::Irp(MajorFunction::Close),
        };
        nt_trace::TraceRecord {
            code: kind.code(),
            flags: bits & 0b11,
            status: if bits & 0b1100 == 0b1100 {
                NtStatus::ObjectNameNotFound
            } else {
                NtStatus::Success
            },
            set_info: (bits & 0b100 != 0).then_some(SetInfoKind::Disposition),
            access: None,
            disposition: None,
            options: None,
            file_object: fo,
            fcb: fo * 7,
            process: (bits % 3) as u32,
            volume: 0,
            offset: blocks * 512,
            length: 512,
            transferred: 512,
            file_size: 4 * 512,
            byte_offset: blocks * 512,
            start_ticks: start * 1_000,
            end_ticks: start * 1_000 + u64::from(bits),
        }
    })
}

fn build_streams() -> impl Strategy<Value = Vec<Stream>> {
    prop::collection::vec(
        (
            0u32..4,
            prop::collection::vec(build_record(), 0..40),
            prop::collection::vec((0u64..4, 0u8..3), 0..5),
        )
            .prop_map(|(machine, records, names)| {
                let names = names
                    .into_iter()
                    .map(|(fo, pick)| nt_trace::NameRecord {
                        file_object: fo,
                        volume: 0,
                        process: 0,
                        path: format!(
                            r"\m{machine}\f{fo}.{}",
                            ["txt", "dll", "tmp"][pick as usize]
                        ),
                        at_ticks: 0,
                    })
                    .collect();
                (machine, records, names)
            }),
        0..6,
    )
}

/// The reference build: concatenate the streams, then stably sort the
/// rows by `(start_ticks, machine, file_object)` and the instances by
/// `(open_start_ticks, machine, file_object)`; names fill one map in
/// stream order and every path is resolved from the final map.
fn reference_build(
    streams: Vec<Stream>,
) -> (
    nt_analysis::FactTable,
    Vec<nt_analysis::Instance>,
    std::collections::HashMap<(u32, u64), String>,
) {
    use nt_analysis::InstanceBuilder;
    let mut rows = Vec::new();
    let mut instances = Vec::new();
    let mut names = std::collections::HashMap::new();
    for (machine, records, name_records) in streams {
        for n in name_records {
            names.insert((machine, n.file_object), n.path);
        }
        let mut builder = InstanceBuilder::new(machine);
        for r in &records {
            builder.push(r);
        }
        instances.extend(builder.finish());
        rows.extend(records.into_iter().map(|r| (machine, r)));
    }
    InstanceBuilder::assign_paths(&mut instances, &names);
    rows.sort_by_key(|(m, r)| (r.start_ticks, *m, r.file_object));
    instances.sort_by_key(|i| (i.open_start_ticks, i.machine, i.file_object));
    (rows.into_iter().collect(), instances, names)
}

proptest! {
    // The per-machine presort and k-way merge must reproduce the sorted
    // concatenation exactly: across machines whose timestamps tie, within
    // a machine whose (start_ticks, file_object) keys tie, with empty
    // streams, with streams that share a machine id, and with a file
    // object named more than once.
    #[test]
    fn fact_table_build_equals_the_sorted_concatenation(streams in build_streams()) {
        let ts = nt_analysis::TraceSet::build(streams.clone());
        let (records, instances, names) = reference_build(streams);
        prop_assert!(ts.records.start_ticks().windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(ts.records.len(), records.len());
        for i in 0..records.len() {
            prop_assert_eq!(ts.records.machine_at(i), records.machine_at(i), "row {} machine", i);
            prop_assert_eq!(ts.records.get(i), records.get(i), "row {} stayed intact", i);
        }
        prop_assert!(ts.records == records);
        prop_assert_eq!(ts.instances, instances);
        prop_assert_eq!(ts.names, names);
    }
}
