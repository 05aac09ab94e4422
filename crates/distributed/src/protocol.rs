//! Protocol-level checks: the paper's algorithms executed as distributed
//! protocols over [`ClusterRuntime`] sessions, against their in-memory
//! runs and the paper's message-count argument (Section 5).

#[cfg(test)]
mod tests {
    use topk_core::examples_paper::{figure1_database, figure2_database};
    use topk_core::{AlgorithmKind, TopKError, TopKQuery, TopKResult};
    use topk_lists::source::SourceSet;
    use topk_lists::Database;

    use crate::{ClusterRuntime, NetworkStats};

    /// The algorithms the paper discusses as distributed protocols.
    const PROTOCOLS: [AlgorithmKind; 4] = [
        AlgorithmKind::Naive,
        AlgorithmKind::Ta,
        AlgorithmKind::Bpa,
        AlgorithmKind::Bpa2,
    ];

    /// One run on a fresh session: the result, the accesses the owners
    /// served and the session's network statistics.
    fn execute(db: &Database, kind: AlgorithmKind, k: usize) -> (TopKResult, u64, NetworkStats) {
        let runtime = ClusterRuntime::spawn(db);
        let mut session = runtime.connect();
        let result = kind
            .create()
            .run_on(&mut session, &TopKQuery::top(k))
            .unwrap();
        (result, session.accesses_served(), session.network())
    }

    #[test]
    fn all_protocols_agree_with_the_centralized_algorithms() {
        for db in [figure1_database(), figure2_database()] {
            for k in [1, 3, 6, 12] {
                let query = TopKQuery::top(k);
                let reference = AlgorithmKind::Ta.create().run(&db, &query).unwrap();
                for kind in PROTOCOLS {
                    let (result, _, _) = execute(&db, kind, k);
                    assert_eq!(result.scores(), reference.scores(), "{kind:?} k = {k}");
                }
            }
        }
    }

    #[test]
    fn message_counts_are_proportional_to_accesses() {
        // "The number of messages … is proportional to the number of
        // accesses done to the lists": one request + one response each.
        let db = figure1_database();
        for kind in PROTOCOLS {
            let (_, accesses, network) = execute(&db, kind, 3);
            assert_eq!(network.messages, 2 * accesses, "{kind:?}");
        }
    }

    #[test]
    fn distributed_runs_match_centralized_access_counts() {
        let db = figure1_database();
        for kind in [AlgorithmKind::Ta, AlgorithmKind::Bpa] {
            let local = kind.create().run(&db, &TopKQuery::top(3)).unwrap();
            let (_, accesses, _) = execute(&db, kind, 3);
            assert_eq!(accesses, local.stats().total_accesses(), "{kind:?}");
        }
        let (_, naive_accesses, _) = execute(&db, AlgorithmKind::Naive, 3);
        assert_eq!(naive_accesses, 3 * 12);
    }

    #[test]
    fn distributed_bpa2_matches_centralized_bpa2_on_figure2() {
        let db = figure2_database();
        let local = AlgorithmKind::Bpa2
            .create()
            .run(&db, &TopKQuery::top(3))
            .unwrap();
        let (result, accesses, network) = execute(&db, AlgorithmKind::Bpa2, 3);
        assert_eq!(accesses, local.stats().total_accesses());
        assert_eq!(accesses, 36);
        assert_eq!(result.stats().rounds, 4);
        // Per-round accounting: one bucket per round, summing to the total.
        assert_eq!(network.rounds(), 4);
        let sum: u64 = network.per_round.iter().map(|r| r.messages).sum();
        assert_eq!(sum, network.messages);
    }

    #[test]
    fn bpa2_ships_less_payload_than_bpa() {
        // BPA ships item positions back to the originator on every random
        // access; BPA2 does not. On top of doing fewer accesses, each BPA2
        // response is therefore smaller.
        let db = figure2_database();
        let (_, bpa_accesses, bpa) = execute(&db, AlgorithmKind::Bpa, 3);
        let (_, bpa2_accesses, bpa2) = execute(&db, AlgorithmKind::Bpa2, 3);
        assert!(bpa2_accesses < bpa_accesses);
        assert!(bpa2.payload_units < bpa.payload_units);
        assert!(bpa2.messages < bpa.messages);
    }

    #[test]
    fn a_cluster_serves_repeated_executions_independently() {
        // A session reset clears owner trackers and network tallies, so a
        // second run on the same session reports the same answers and
        // figures as the first (BPA2's owner-side trackers would otherwise
        // start out exhausted).
        let db = figure2_database();
        let query = TopKQuery::top(3);
        let runtime = ClusterRuntime::spawn(&db);
        let mut session = runtime.connect();
        let bpa2 = AlgorithmKind::Bpa2.create();
        let first = bpa2.run_on(&mut session, &query).unwrap();
        let first_network = session.network();
        session.reset();
        let second = bpa2.run_on(&mut session, &query).unwrap();
        assert_eq!(first.items(), second.items());
        assert_eq!(first.stats().accesses, second.stats().accesses);
        assert_eq!(first.stats().rounds, second.stats().rounds);
        assert_eq!(session.network(), first_network);
        assert_eq!(session.accesses_served(), 36);
        assert_eq!(session.network().messages, 72);
    }

    #[test]
    fn protocols_expose_names_and_validate_k() {
        let names: Vec<&str> = PROTOCOLS.iter().map(|kind| kind.create().name()).collect();
        assert_eq!(names, ["naive", "ta", "bpa", "bpa2"]);
        let db = figure1_database();
        let runtime = ClusterRuntime::spawn(&db);
        let mut session = runtime.connect();
        for (kind, k) in [(AlgorithmKind::Ta, 0), (AlgorithmKind::Bpa2, 100)] {
            assert!(matches!(
                kind.create().run_on(&mut session, &TopKQuery::top(k)),
                Err(TopKError::InvalidK { .. })
            ));
        }
    }
}
