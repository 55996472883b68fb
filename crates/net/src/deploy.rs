//! [`SiesDeployment`]: the SIES scheme plugged into the
//! [`crate::scheme::AggregationScheme`] abstraction so the epoch engine
//! can drive it alongside the baselines.

use crate::scheme::{AggregationScheme, EvaluatedSum, SchemeError};
use rand::RngCore;
use sies_core::scheme::{setup, Aggregator, Psr, Querier, Source};
use sies_core::{Epoch, SiesError, SourceId, SystemParams};
use sies_crypto::u256::U256;

/// A full SIES deployment: all source credentials, the aggregator
/// configuration, and the querier's key material.
pub struct SiesDeployment {
    sources: Vec<Source>,
    aggregator: Aggregator,
    querier: Querier,
}

impl SiesDeployment {
    /// Runs the setup phase for `params.num_sources()` sources.
    pub fn new(rng: &mut dyn RngCore, params: SystemParams) -> Self {
        let (querier, creds, aggregator) = setup(rng, params);
        let sources = creds.into_iter().map(Source::new).collect();
        SiesDeployment {
            sources,
            aggregator,
            querier,
        }
    }

    /// Direct access to the querier (for API-level tests).
    pub fn querier(&self) -> &Querier {
        &self.querier
    }

    /// Direct access to a source.
    pub fn source(&self, id: SourceId) -> &Source {
        &self.sources[id as usize]
    }

    /// Number of deployed sources.
    pub fn num_sources(&self) -> u64 {
        self.sources.len() as u64
    }
}

impl AggregationScheme for SiesDeployment {
    type Psr = Psr;

    fn name(&self) -> &'static str {
        "SIES"
    }

    fn source_init(&self, source: SourceId, epoch: Epoch, value: u64) -> Psr {
        self.sources[source as usize]
            .initialize(epoch, value)
            .expect("value fits the configured result width")
    }

    fn try_source_init(
        &self,
        source: SourceId,
        epoch: Epoch,
        value: u64,
    ) -> Result<Psr, SchemeError> {
        let src = self
            .sources
            .get(source as usize)
            .ok_or_else(|| SchemeError::Malformed(format!("unknown source {source}")))?;
        src.initialize(epoch, value)
            .map_err(|e| SchemeError::Malformed(e.to_string()))
    }

    fn batch_source_init(
        &self,
        epoch: Epoch,
        jobs: &[(SourceId, u64)],
    ) -> Vec<Result<Psr, SchemeError>> {
        // Hoist the epoch-shared work: K_t derived once and entered into
        // the Montgomery domain once per shard, so each job costs one
        // HM256, one HM1 and a single CIOS multiply. Ciphertexts are
        // bit-identical to `try_source_init` (the EpochCipher contract).
        let Some(&(first, _)) = jobs.first() else {
            return Vec::new();
        };
        let Some(template) = self.sources.get(first as usize) else {
            // Fall back to the per-job path, which reports the error in
            // the same shape as the serial loop.
            return jobs
                .iter()
                .map(|&(s, v)| self.try_source_init(s, epoch, v))
                .collect();
        };
        let cipher = template.epoch_cipher(epoch);
        // Resolve ids first (unknown ids keep the per-job error shape),
        // then derive every resolved job's k_{i,t} and ss_{i,t} through
        // the lane-batched PRF pass in `Source::initialize_batch`.
        let resolved: Vec<Option<&Source>> = jobs
            .iter()
            .map(|&(s, _)| self.sources.get(s as usize))
            .collect();
        let batch_jobs: Vec<(&Source, u64)> = jobs
            .iter()
            .zip(&resolved)
            .filter_map(|(&(_, v), src)| src.map(|s| (s, v)))
            .collect();
        let mut batched = Source::initialize_batch(&cipher, epoch, &batch_jobs).into_iter();
        jobs.iter()
            .zip(&resolved)
            .map(|(&(source, _), src)| match src {
                None => Err(SchemeError::Malformed(format!("unknown source {source}"))),
                Some(_) => batched
                    .next()
                    .expect("one result per resolved job")
                    .map_err(|e| SchemeError::Malformed(e.to_string())),
            })
            .collect()
    }

    fn merge(&self, psrs: &[Psr]) -> Psr {
        self.aggregator
            .merge(psrs)
            .expect("merge called with children")
    }

    fn try_merge(&self, psrs: &[Psr]) -> Result<Psr, SchemeError> {
        self.aggregator
            .merge(psrs)
            .ok_or_else(|| SchemeError::Malformed("merge called with no inputs".into()))
    }

    fn evaluate(
        &self,
        final_psr: &Psr,
        epoch: Epoch,
        contributors: &[SourceId],
    ) -> Result<EvaluatedSum, SchemeError> {
        match self
            .querier
            .evaluate_with_contributors(final_psr, epoch, contributors)
        {
            Ok(v) => Ok(EvaluatedSum {
                sum: v.sum as f64,
                integrity_checked: true,
            }),
            Err(SiesError::IntegrityViolation { epoch }) => Err(SchemeError::VerificationFailed(
                format!("secret mismatch at epoch {epoch}"),
            )),
            Err(e) => Err(SchemeError::Malformed(e.to_string())),
        }
    }

    fn evaluate_par(
        &self,
        final_psr: &Psr,
        epoch: Epoch,
        contributors: &[SourceId],
        threads: usize,
    ) -> Result<EvaluatedSum, SchemeError> {
        match self.querier.evaluate_with_contributors_threaded(
            final_psr,
            epoch,
            contributors,
            threads,
        ) {
            Ok(v) => Ok(EvaluatedSum {
                sum: v.sum as f64,
                integrity_checked: true,
            }),
            Err(SiesError::IntegrityViolation { epoch }) => Err(SchemeError::VerificationFailed(
                format!("secret mismatch at epoch {epoch}"),
            )),
            Err(e) => Err(SchemeError::Malformed(e.to_string())),
        }
    }

    fn psr_wire_size(&self, _psr: &Psr) -> usize {
        Psr::wire_size()
    }

    fn tamper(&self, psr: &mut Psr) {
        // Add 1 to the ciphertext — the attack that silently corrupts CMT.
        let p = self.querier.params().prime();
        let c = psr.ciphertext().add_mod(&U256::ONE, p);
        *psr = Psr::from_ciphertext(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Attack, Engine};
    use crate::topology::Topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn deployment(n: u64) -> SiesDeployment {
        let mut rng = StdRng::seed_from_u64(1234);
        SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap())
    }

    #[test]
    fn engine_runs_sies_end_to_end() {
        let dep = deployment(64);
        let topo = Topology::complete_tree(64, 4);
        let mut engine = Engine::new(&dep, &topo);
        let values: Vec<u64> = (0..64).map(|i| 1800 + i * 13).collect();
        let expected: u64 = values.iter().sum();
        let out = engine.run_epoch(7, &values);
        let res = out.result.unwrap();
        assert_eq!(res.sum, expected as f64);
        assert!(res.integrity_checked);
        // SIES PSRs are 32 bytes on every edge class.
        assert!((out.stats.bytes.per_sa_edge() - 32.0).abs() < 1e-9);
        assert!((out.stats.bytes.per_aa_edge() - 32.0).abs() < 1e-9);
        assert_eq!(out.stats.bytes.agg_to_querier, 32);
    }

    #[test]
    fn all_covert_attacks_detected() {
        let dep = deployment(16);
        let topo = Topology::complete_tree(16, 4);
        let node = topo.source_node(5).unwrap();
        let agg = topo.node(topo.root()).children[0];
        for attacks in [
            vec![Attack::TamperAtNode(node)],
            vec![Attack::DropAtNode(node)],
            vec![Attack::DuplicateAtNode(node)],
            vec![Attack::TamperAtNode(agg)],
            vec![Attack::DropAtNode(agg)],
        ] {
            let mut engine = Engine::new(&dep, &topo);
            let out = engine.run_epoch_with(3, &[100; 16], &HashSet::new(), &attacks);
            assert!(
                matches!(out.result, Err(SchemeError::VerificationFailed(_))),
                "attack {attacks:?} went undetected"
            );
        }
    }

    #[test]
    fn replay_detected() {
        let dep = deployment(8);
        let topo = Topology::complete_tree(8, 2);
        let mut engine = Engine::new(&dep, &topo);
        assert!(engine.run_epoch(0, &[5; 8]).result.is_ok());
        let out = engine.run_epoch_with(1, &[5; 8], &HashSet::new(), &[Attack::ReplayFinal]);
        assert!(matches!(
            out.result,
            Err(SchemeError::VerificationFailed(_))
        ));
    }

    #[test]
    fn honest_failures_still_verify() {
        let dep = deployment(16);
        let topo = Topology::complete_tree(16, 4);
        let mut engine = Engine::new(&dep, &topo);
        let failed: HashSet<_> =
            [topo.source_node(2).unwrap(), topo.source_node(9).unwrap()].into();
        let out = engine.run_epoch_with(2, &[10; 16], &failed, &[]);
        let res = out.result.unwrap();
        assert_eq!(res.sum, 140.0);
    }

    #[test]
    fn random_topology_works() {
        let dep = deployment(33);
        let mut rng = StdRng::seed_from_u64(9);
        let topo = Topology::random_tree(&mut rng, 33, 5);
        let mut engine = Engine::new(&dep, &topo);
        let out = engine.run_epoch(11, &[7; 33]);
        assert_eq!(out.result.unwrap().sum, 231.0);
    }
}
