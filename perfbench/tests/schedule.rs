//! The seeded generator is deterministic: one seed, one byte-identical
//! schedule; another seed, another schedule.

use lkp_perfbench::schedule::{dataset, Schedule, REFRESHES, WORKLOADS};

#[test]
fn same_seed_gives_a_byte_identical_schedule_and_another_seed_differs() {
    let data = dataset();
    for profile in &WORKLOADS {
        let a = Schedule::build(7, profile, 2.0, &data).to_bytes();
        let b = Schedule::build(7, profile, 2.0, &data).to_bytes();
        let c = Schedule::build(8, profile, 2.0, &data).to_bytes();
        assert_eq!(a, b, "{}: same seed, different bytes", profile.name);
        assert_ne!(a, c, "{}: different seeds, same bytes", profile.name);
    }
}

#[test]
fn every_scheduled_request_and_delta_is_valid() {
    let data = dataset();
    for profile in &WORKLOADS {
        let s = Schedule::build(3, profile, 2.0, &data);
        for a in s.nominal.iter().chain(&s.saturation).chain(&s.background) {
            let set = &s.sets[a.set];
            assert!(a.user < data.n_users());
            let mut sorted = set.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                set.len(),
                "{}: duplicate candidates",
                profile.name
            );
            assert!(set.iter().all(|&i| i < data.n_items()));
        }
        assert!(s.nominal.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert_eq!(s.deltas.len(), REFRESHES);
        // Latency comes from exactly one stream: a nominal window on an
        // idle system, or the reads beside the refreshes.
        assert_eq!(s.nominal.is_empty(), profile.reads_beside_refresh);
        assert_eq!(s.background.is_empty(), !profile.reads_beside_refresh);
        for delta in &s.deltas {
            assert!(!delta.is_empty());
            assert!(delta.iter().all(|&(u, i)| !data.is_observed(u, i)));
        }
    }
}
