//! Property tests for the storage layer: compression round-trips,
//! series/query invariants, decoded-tail cache transparency and the
//! data-version rewrite counter over arbitrary inputs.

use caladrius_tsdb::encoding::{compress, decompress};
use caladrius_tsdb::query::{bucketed, Aggregation};
use caladrius_tsdb::{MetricBatch, MetricsDb, Sample, Series, SeriesKey};
use proptest::prelude::*;

fn arb_samples() -> impl Strategy<Value = Vec<Sample>> {
    prop::collection::vec(
        (any::<i32>(), any::<f64>()).prop_map(|(ts, value)| Sample::new(i64::from(ts), value)),
        1..300,
    )
}

/// Realistic metric streams: mostly-regular minute cadence, bounded values.
fn arb_metric_stream() -> impl Strategy<Value = Vec<Sample>> {
    (
        0i64..1_000_000_000,
        prop::collection::vec((0i64..5_000, -1e12f64..1e12), 1..400),
    )
        .prop_map(|(start, deltas)| {
            let mut ts = start;
            deltas
                .into_iter()
                .map(|(jitter, value)| {
                    ts += 60_000 + jitter - 2_500;
                    Sample::new(ts, value)
                })
                .collect()
        })
}

/// One step of a series' life: in-order pushes, late samples, explicit
/// seals and retention truncations, with a range read after every step.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push { gap: i64, value: f64 },
    Late { back: i64, value: f64 },
    Seal,
    Truncate { frac: f64 },
}

fn arb_schedule() -> impl Strategy<Value = Vec<(Op, u8, f64)>> {
    let op =
        (0u8..10, 1i64..120_000, -1e9f64..1e9, 0.0f64..1.0).prop_map(|(kind, dt, value, frac)| {
            match kind {
                0..=5 => Op::Push { gap: dt, value },
                6 | 7 => Op::Late {
                    back: dt * 8,
                    value,
                },
                8 => Op::Seal,
                _ => Op::Truncate { frac: frac * 0.5 },
            }
        });
    prop::collection::vec((op, 0u8..3, 0.0f64..1.0), 1..200)
}

/// Mirror of the series' sealed-chunk layout (timestamps only), so the
/// property can aim reads at the newest sealed chunk.
#[derive(Default)]
struct Layout {
    chunks: Vec<Vec<i64>>,
    head: Vec<i64>,
}

impl Layout {
    fn push(&mut self, ts: i64, chunk_size: usize) {
        let idx = self.head.partition_point(|&t| t <= ts);
        self.head.insert(idx, ts);
        if self.head.len() >= chunk_size {
            self.seal();
        }
    }

    fn seal(&mut self) {
        if !self.head.is_empty() {
            self.chunks.push(std::mem::take(&mut self.head));
        }
    }

    fn truncate_before(&mut self, cutoff: i64) {
        for chunk in &mut self.chunks {
            chunk.retain(|&t| t >= cutoff);
        }
        self.chunks.retain(|c| !c.is_empty());
        self.head.retain(|&t| t >= cutoff);
    }
}

/// Newest timestamp of each mirrored series, for the rewrite contract.
fn is_rewrite(newest: &[Option<i64>], series: usize, ts: i64) -> bool {
    newest[series].is_some_and(|n| ts <= n)
}

proptest! {
    /// `Series::push` reports a rewrite exactly when the sample lands at
    /// or before the series' newest timestamp, wherever that sample sits:
    /// in the head, in the newest sealed chunk, or in an older chunk.
    #[test]
    fn push_reports_rewrites_across_seals(
        schedule in arb_schedule(),
        chunk_size in 2usize..24,
    ) {
        let mut series = Series::with_chunk_size(chunk_size);
        let mut newest = [None];
        let mut clock = 0i64;
        for (op, _, _) in schedule {
            let ts = match op {
                Op::Push { gap, .. } => { clock += gap; clock }
                Op::Late { back, .. } => clock - back,
                Op::Seal => { series.seal_head(); continue; }
                Op::Truncate { frac } => {
                    let cutoff = (clock as f64 * frac) as i64;
                    series.truncate_before(cutoff).unwrap();
                    newest[0] = newest[0].filter(|&n| n >= cutoff);
                    continue;
                }
            };
            let want = is_rewrite(&newest, 0, ts);
            prop_assert_eq!(series.push(Sample::new(ts, 1.0)), want, "push at {}", ts);
            newest[0] = newest[0].max(Some(ts));
            prop_assert_eq!(series.latest_ts(), newest[0]);
        }
    }

    /// `MetricsDb`'s rewrite counter moves exactly when a write lands at
    /// or before its series' newest timestamp, or a truncation drops
    /// samples, through every ingest path: `append`, `ingest_batch` rows
    /// and `append_series` columns (the simulator's commit path).
    /// In-order writes never move it.
    #[test]
    fn rewrite_counter_moves_exactly_on_rewrites(schedule in arb_schedule()) {
        let db = MetricsDb::new();
        let handles: Vec<_> = (0..3)
            .map(|i| db.register(&SeriesKey::new("m").with_tag("i", i.to_string())))
            .collect();
        // Writes `column` to series `which` through the ingest path
        // `pick` selects (a batch carries one row per sample).
        let write = |which: usize, column: &[Sample], pick: f64| {
            if pick < 0.3 {
                for s in column {
                    db.append(&handles[which], s.ts, s.value);
                }
            } else if pick < 0.6 {
                for s in column {
                    let mut batch = MetricBatch::new(s.ts);
                    batch.push(&handles[which], s.value);
                    db.ingest_batch(&batch);
                }
            } else {
                db.append_series(&handles[which], column);
            }
        };
        let mut stored: Vec<Vec<i64>> = vec![Vec::new(); 3];
        let mut clock = 0i64;
        // One per rewriting sample, one per truncation that drops data.
        let mut rewrites = 0u64;
        for (op, which, pick) in schedule {
            let which = usize::from(which);
            let newest: Vec<Option<i64>> =
                stored.iter().map(|s| s.iter().copied().max()).collect();
            match op {
                Op::Push { gap, .. } if pick < 0.2 => {
                    // One batch at a fresh timestamp with a row per series.
                    clock += gap;
                    let mut batch = MetricBatch::new(clock);
                    for (h, s) in handles.iter().zip(&mut stored) {
                        batch.push(h, 1.0);
                        s.push(clock);
                    }
                    db.ingest_batch(&batch);
                }
                Op::Push { gap, .. } => {
                    let column: Vec<Sample> =
                        (1..=3).map(|k| Sample::new(clock + k * gap, 1.0)).collect();
                    clock += 3 * gap;
                    write(which, &column, pick);
                    stored[which].extend(column.iter().map(|s| s.ts));
                }
                Op::Late { back, value } => {
                    // Negative values duplicate the series' newest sample;
                    // the second sample duplicates the first.
                    let ts = if value < 0.0 { newest[which].unwrap_or(0) } else { clock - back };
                    write(which, &[Sample::new(ts, 1.0), Sample::new(ts, 2.0)], pick);
                    stored[which].extend([ts, ts]);
                    rewrites += u64::from(is_rewrite(&newest, which, ts)) + 1;
                }
                Op::Seal => continue,
                Op::Truncate { frac } => {
                    let cutoff = (clock as f64 * frac) as i64;
                    let dropped = db.truncate_before(cutoff).unwrap();
                    let want: usize = stored.iter().map(|s| s.iter().filter(|&&t| t < cutoff).count()).sum();
                    prop_assert_eq!(dropped, want);
                    for s in &mut stored {
                        s.retain(|&t| t >= cutoff);
                    }
                    rewrites += u64::from(dropped > 0);
                }
            }
            let version = db.data_version();
            let watermark = stored.iter().flatten().copied().max();
            prop_assert_eq!(version.map(|v| v.watermark), watermark);
            if let Some(version) = version {
                prop_assert_eq!(version.rewrites, rewrites, "after {:?}", op);
            }
        }
    }

    /// A range read served through a warm decoded-tail cache returns
    /// bit-for-bit what the same read returns on a cold clone, whether
    /// `from` lies before, inside or after the newest sealed chunk.
    #[test]
    fn tail_cache_reads_match_cold_reads(
        schedule in arb_schedule(),
        chunk_size in 2usize..24,
    ) {
        let mut warm = Series::with_chunk_size(chunk_size);
        let mut layout = Layout::default();
        let mut newest = 0i64;
        for (op, placement, pick) in schedule {
            match op {
                Op::Push { gap, value } => {
                    newest += gap;
                    warm.push(Sample::new(newest, value));
                    layout.push(newest, chunk_size);
                }
                Op::Late { back, value } => {
                    let ts = newest - back;
                    warm.push(Sample::new(ts, value));
                    layout.push(ts, chunk_size);
                }
                Op::Seal => {
                    warm.seal_head();
                    layout.seal();
                }
                Op::Truncate { frac } => {
                    let cutoff = (newest as f64 * frac) as i64;
                    warm.truncate_before(cutoff).unwrap();
                    layout.truncate_before(cutoff);
                }
            }
            let (start, end) = match layout.chunks.last() {
                Some(c) => (c[0], c[c.len() - 1]),
                None => (0, 0),
            };
            let span = ((end - start) as f64 * pick) as i64;
            let from = match placement {
                0 => start - 1 - span,
                1 => start + span,
                _ => end + 1 + span,
            };
            let to = if pick < 0.25 { from + span } else { i64::MAX };
            let cold = warm.clone();
            let got = warm.samples(from, to).unwrap();
            let want = cold.samples(from, to).unwrap();
            prop_assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                prop_assert_eq!(a.ts, b.ts);
                prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
            }
        }
    }

    /// Gorilla compression is lossless for arbitrary (even hostile) data.
    #[test]
    fn gorilla_roundtrip_arbitrary(samples in arb_samples()) {
        let block = compress(&samples);
        let back = decompress(&block).unwrap();
        prop_assert_eq!(back.len(), samples.len());
        for (a, b) in samples.iter().zip(&back) {
            prop_assert_eq!(a.ts, b.ts);
            prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    /// ... and for realistic metric cadences it also compresses.
    #[test]
    fn gorilla_roundtrip_metric_stream(samples in arb_metric_stream()) {
        let block = compress(&samples);
        let back = decompress(&block).unwrap();
        prop_assert_eq!(&back, &samples);
        if samples.len() > 50 {
            prop_assert!(block.payload_len() < samples.len() * 16);
        }
    }

    /// Series storage returns exactly what was written, in time order,
    /// regardless of chunk sealing and insertion order.
    #[test]
    fn series_returns_everything_sorted(
        samples in arb_metric_stream(),
        chunk_size in 2usize..64,
    ) {
        let mut series = Series::with_chunk_size(chunk_size);
        for s in &samples {
            series.push(*s);
        }
        let all = series.all().unwrap();
        prop_assert_eq!(all.len(), samples.len());
        prop_assert!(all.windows(2).all(|w| w[0].ts <= w[1].ts));
        let mut expected = samples.clone();
        expected.sort_by_key(|s| s.ts);
        for (a, b) in expected.iter().zip(&all) {
            prop_assert_eq!(a.ts, b.ts);
        }
    }

    /// Range queries agree with a naive filter.
    #[test]
    fn range_query_matches_naive(
        samples in arb_metric_stream(),
        from_frac in 0.0f64..1.0,
        width_frac in 0.0f64..1.0,
    ) {
        let lo = samples.iter().map(|s| s.ts).min().unwrap();
        let hi = samples.iter().map(|s| s.ts).max().unwrap();
        let from = lo + ((hi - lo) as f64 * from_frac) as i64;
        let to = from + ((hi - from) as f64 * width_frac) as i64;
        let mut series = Series::with_chunk_size(16);
        for s in &samples {
            series.push(*s);
        }
        let got = series.samples(from, to).unwrap();
        let naive = samples.iter().filter(|s| s.ts >= from && s.ts <= to).count();
        prop_assert_eq!(got.len(), naive);
    }

    /// Bucketed sums preserve total mass.
    #[test]
    fn bucketing_conserves_sum(samples in arb_metric_stream(), width in 1i64..1_000_000) {
        let finite: Vec<Sample> =
            samples.into_iter().filter(|s| s.value.is_finite()).collect();
        prop_assume!(!finite.is_empty());
        let total: f64 = finite.iter().map(|s| s.value).sum();
        let bucket_total: f64 =
            bucketed(&finite, width, Aggregation::Sum).iter().map(|s| s.value).sum();
        let scale = finite.iter().map(|s| s.value.abs()).sum::<f64>().max(1.0);
        prop_assert!((total - bucket_total).abs() <= 1e-9 * scale);
    }

    /// truncate_before removes exactly the samples before the cutoff.
    #[test]
    fn truncation_is_exact(samples in arb_metric_stream(), cut_frac in 0.0f64..1.0) {
        let lo = samples.iter().map(|s| s.ts).min().unwrap();
        let hi = samples.iter().map(|s| s.ts).max().unwrap();
        let cutoff = lo + ((hi - lo) as f64 * cut_frac) as i64;
        let mut series = Series::with_chunk_size(8);
        for s in &samples {
            series.push(*s);
        }
        let dropped = series.truncate_before(cutoff).unwrap();
        let expected_dropped = samples.iter().filter(|s| s.ts < cutoff).count();
        prop_assert_eq!(dropped, expected_dropped);
        prop_assert!(series.all().unwrap().iter().all(|s| s.ts >= cutoff));
    }
}
