//! Property-based tests for the SIES core: codec field separation, the
//! scheme's end-to-end exactness/rejection behaviour, and μTesla chain
//! authentication under random schedules.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sies_core::codec::{decode_final, encode_message, share_to_u256, sum_shares, SecretShare};
use sies_core::mutesla::{Broadcaster, Disclosure, Receiver};
use sies_core::params::{ResultWidth, SystemParams};
use sies_core::scheme::{setup, Psr, Source};
use sies_crypto::u256::U256;
use sies_crypto::DEFAULT_PRIME_256;

proptest! {
    // ---- Codec ----------------------------------------------------------

    #[test]
    fn codec_round_trips(n in 1u64..1_000_000, value in 0u64..=u32::MAX as u64, share in any::<[u8; 20]>()) {
        let params = SystemParams::new(n).unwrap();
        let m = encode_message(&params, value, &share).unwrap();
        let dec = decode_final(&params, &m);
        prop_assert_eq!(dec.result, value);
        prop_assert_eq!(dec.secret, share_to_u256(&share));
    }

    /// The Figure-2 claim: summing up to N messages never lets share
    /// carries cross into the result field.
    #[test]
    fn field_separation_under_maximal_shares(
        k in 1usize..64,
        values in proptest::collection::vec(0u64..=1000, 64),
    ) {
        let params = SystemParams::new(64).unwrap();
        let share: SecretShare = [0xFF; 20]; // worst-case carries
        let mut acc = U256::ZERO;
        let mut expected_sum = 0u64;
        for &v in values.iter().take(k) {
            acc = acc.checked_add(&encode_message(&params, v, &share).unwrap()).unwrap();
            expected_sum += v;
        }
        let dec = decode_final(&params, &acc);
        prop_assert_eq!(dec.result, expected_sum);
        prop_assert_eq!(dec.secret, sum_shares(std::iter::repeat_n(&share, k)));
    }

    #[test]
    fn codec_rejects_out_of_range_under_u32(value in (u32::MAX as u64 + 1)..u64::MAX) {
        let params =
            SystemParams::with_prime(1024, DEFAULT_PRIME_256, ResultWidth::U32).unwrap();
        prop_assert!(encode_message(&params, value, &[0; 20]).is_err());
    }

    // ---- Scheme ----------------------------------------------------------

    #[test]
    fn scheme_exactness(
        seed in any::<u64>(),
        epoch in any::<u64>(),
        values in proptest::collection::vec(0u64..1_000_000, 1..24),
    ) {
        let n = values.len() as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let (querier, creds, aggregator) = setup(&mut rng, SystemParams::new(n).unwrap());
        let sources: Vec<Source> = creds.into_iter().map(Source::new).collect();
        let psrs: Vec<Psr> = sources
            .iter()
            .zip(&values)
            .map(|(s, &v)| s.initialize(epoch, v).unwrap())
            .collect();
        let merged = aggregator.merge(&psrs).unwrap();
        let res = querier.evaluate(&merged, epoch).unwrap();
        prop_assert_eq!(res.sum, values.iter().sum::<u64>());
    }

    /// Random single-bit ciphertext corruption is always rejected.
    #[test]
    fn bitflips_always_detected(
        seed in any::<u64>(),
        values in proptest::collection::vec(0u64..10_000, 2..10),
        flip_bit in 0usize..256,
    ) {
        let n = values.len() as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let (querier, creds, aggregator) = setup(&mut rng, SystemParams::new(n).unwrap());
        let sources: Vec<Source> = creds.into_iter().map(Source::new).collect();
        let psrs: Vec<Psr> = sources
            .iter()
            .zip(&values)
            .map(|(s, &v)| s.initialize(0, v).unwrap())
            .collect();
        let merged = aggregator.merge(&psrs).unwrap();
        let mut bytes = merged.to_bytes();
        bytes[flip_bit / 8] ^= 1 << (flip_bit % 8);
        let corrupted = Psr::from_bytes(&bytes);
        prop_assume!(corrupted != merged); // (always true, defensive)
        prop_assert!(querier.evaluate(&corrupted, 0).is_err());
    }

    /// Evaluating with a wrong contributor subset never silently passes:
    /// either it is the right subset, or verification fails.
    #[test]
    fn wrong_contributor_sets_rejected(
        seed in any::<u64>(),
        n in 3u64..12,
        missing in 0u32..12,
    ) {
        let missing = missing % n as u32;
        let mut rng = StdRng::seed_from_u64(seed);
        let (querier, creds, aggregator) = setup(&mut rng, SystemParams::new(n).unwrap());
        let sources: Vec<Source> = creds.into_iter().map(Source::new).collect();
        // All sources contribute…
        let psrs: Vec<Psr> =
            sources.iter().map(|s| s.initialize(1, 5).unwrap()).collect();
        let merged = aggregator.merge(&psrs).unwrap();
        // …but the querier is told one of them failed.
        let claimed: Vec<u32> = (0..n as u32).filter(|&i| i != missing).collect();
        prop_assert!(querier
            .evaluate_with_contributors(&merged, 1, &claimed)
            .is_err());
    }

    // ---- muTesla ---------------------------------------------------------

    /// No disclosure an attacker can put on the channel panics a
    /// receiver, and every forged one is rejected; afterwards the
    /// receiver still authenticates the genuine chain.
    #[test]
    fn mutesla_arbitrary_disclosures_never_panic(
        seed in any::<u64>(),
        raw in proptest::collection::vec(any::<u64>(), 1..8),
        small_mask in any::<u8>(),
        genuine_mask in any::<u8>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let broadcaster = Broadcaster::new(&mut rng, 16, 2);
        let mut receiver = Receiver::new(broadcaster.commitment(), 16, 2);
        for (i, &r) in raw.iter().enumerate() {
            // Half the draws land near the chain so genuine keys, stale
            // intervals and the chain end all get exercised.
            let interval = if small_mask >> i & 1 == 1 { r % 20 } else { r };
            let genuine = genuine_mask >> i & 1 == 1 && (1..=16).contains(&interval);
            let key = if genuine {
                broadcaster.disclose(interval).key
            } else {
                let mut key = [0u8; 32];
                rng.fill_bytes(&mut key);
                key
            };
            let fresh = interval > receiver.auth_interval();
            let d = Disclosure { interval, key };
            prop_assert_eq!(receiver.on_disclosure(d).is_ok(), genuine && fresh);
        }
        let next = receiver.auth_interval() + 1;
        if next <= 16 {
            receiver
                .receive(next, broadcaster.broadcast(next, b"still live"))
                .unwrap();
            prop_assert_eq!(
                receiver.on_disclosure(broadcaster.disclose(next)).unwrap(),
                vec![b"still live".to_vec()]
            );
        }
    }

    /// Any subset of broadcast intervals, disclosed in order, verifies
    /// all and only the packets MACed under the authentic chain.
    #[test]
    fn mutesla_random_schedules(
        seed in any::<u64>(),
        sent_mask in 1u16..0x3FF, // which of intervals 1..=10 carry a packet
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let broadcaster = Broadcaster::new(&mut rng, 12, 2);
        let mut receiver = Receiver::new(broadcaster.commitment(), 12, 2);
        let mut expected = 0usize;
        for interval in 1..=10u64 {
            if sent_mask >> (interval - 1) & 1 == 1 {
                let payload = format!("query-{interval}");
                receiver
                    .receive(interval, broadcaster.broadcast(interval, payload.as_bytes()))
                    .unwrap();
                expected += 1;
            }
        }
        let mut verified = 0usize;
        for interval in 1..=10u64 {
            if sent_mask >> (interval - 1) & 1 == 1 {
                verified += receiver.on_disclosure(broadcaster.disclose(interval)).unwrap().len();
            }
        }
        prop_assert_eq!(verified, expected);
    }
}
