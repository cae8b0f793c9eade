//! The four workloads, their seeded inputs, and the result checker.
//!
//! Every input is a pure function of the workload and `--seed`: client ids,
//! counter payloads, client keys and every pre-signed coin transaction.

use crate::stats::Rng;
use smartchain_codec::{from_bytes, to_bytes};
use smartchain_coin::tx::{coin_id, CoinId, CoinTx, Output, TxResult};
use smartchain_crypto::keys::{Backend, PublicKey, SecretKey};
use smartchain_smr::types::Request;

/// Which traffic a workload sends and what happens to the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Signed SmartCoin MINT→SPEND pairs, closed loop, Ed25519 everywhere.
    Coin,
    /// 1-byte counter ops, closed loop.
    CounterClosed,
    /// 1-byte counter ops, open loop at a fixed rate.
    CounterOpen,
    /// `CounterOpen`'s load while the leader is killed and restarted.
    LeaderCrash,
}

/// Closed-loop client count of `coin_ed25519` and `counter_closed`.
pub const CLOSED_CLIENTS: usize = 16;
/// Offered rate of the open-loop workloads, ops/s (about a fifth of
/// `counter_closed`'s throughput on a 2-core machine, so batches stay
/// near one request and one fsync lies on every op's path).
pub const OPEN_RATE: f64 = 1000.0;
/// Logical clients the open-loop generator spreads due requests over. A
/// client carries one request at a time (the replicas' duplicate filter is
/// per-client sequence numbers); requests due while every client is busy
/// wait in the generator and are timed from their due time.
pub const OPEN_POOL: usize = 32;
/// MINT payloads are padded to this size (paper §VI-A: 180 B requests).
pub const MINT_PAD: usize = 180;
/// SPEND payloads are padded to this size (paper §VI-A: 310 B requests).
pub const SPEND_PAD: usize = 310;

/// A workload: name plus the parameters `BENCHMARK.json` records.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Closed loop: client count. Open loop: client pool size.
    pub clients: usize,
    /// Open loop: offered ops/s.
    pub rate: Option<f64>,
    /// Key scheme of clients and consensus.
    pub backend: Backend,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "coin_ed25519",
        kind: Kind::Coin,
        clients: CLOSED_CLIENTS,
        rate: None,
        backend: Backend::Ed25519,
    },
    Workload {
        name: "counter_closed",
        kind: Kind::CounterClosed,
        clients: CLOSED_CLIENTS,
        rate: None,
        backend: Backend::Sim,
    },
    Workload {
        name: "counter_open",
        kind: Kind::CounterOpen,
        clients: OPEN_POOL,
        rate: Some(OPEN_RATE),
        backend: Backend::Sim,
    },
    Workload {
        name: "leader_crash",
        kind: Kind::LeaderCrash,
        clients: OPEN_POOL,
        rate: Some(OPEN_RATE),
        backend: Backend::Sim,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }
}

/// What a correct reply to one operation decodes to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expected {
    /// The client's running counter sum after this op.
    Counter(u64),
    /// `TxResult::Created` with exactly this one coin.
    Coin(CoinId),
}

/// Whether a quorum result is the correct reply.
pub fn check(expected: &Expected, result: &[u8]) -> bool {
    match expected {
        Expected::Counter(sum) => result == sum.to_le_bytes(),
        Expected::Coin(id) => matches!(
            from_bytes::<TxResult>(result),
            Ok(TxResult::Created { coins }) if coins == [*id]
        ),
    }
}

/// Logical client ids of a run: a seed-dependent block of `count` ids.
pub fn client_ids(seed: u64, count: usize) -> Vec<u64> {
    let base = ((Rng::new(seed).next_u64() >> 24) | 1) << 8;
    (0..count as u64).map(|i| base + i).collect()
}

/// Payload byte of the `k`-th counter op of a run (never 0, so every op
/// changes the sum).
pub fn counter_payload(seed: u64, k: u64) -> u8 {
    let mut rng = Rng::new(seed ^ k.wrapping_mul(0xA24B_AED4_963E_E407));
    1 + (rng.next_u64() % 255) as u8
}

/// A client's wallet key.
fn coin_key(seed: u64, client: u64) -> SecretKey {
    let mut material = [0u8; 32];
    Rng::new(seed ^ client.rotate_left(17)).fill(&mut material);
    SecretKey::from_seed(Backend::Ed25519, &material)
}

/// The pre-signed coin traffic of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct CoinInputs {
    /// Authorized minters (every client's wallet key), for the genesis app.
    pub minters: Vec<PublicKey>,
    /// Per client, its requests in sequence order (seq 1, 2, …): odd seqs
    /// MINT one coin to the client, even seqs SPEND the coin minted just
    /// before to the neighbouring client.
    pub requests: Vec<Vec<(Request, Expected)>>,
}

/// Derives the client keys and signs `per_client` requests for each client,
/// spread over `threads` threads.
pub fn coin_inputs(seed: u64, ids: &[u64], per_client: usize, threads: usize) -> CoinInputs {
    let keys: Vec<SecretKey> = ids.iter().map(|&c| coin_key(seed, c)).collect();
    let minters: Vec<PublicKey> = keys.iter().map(SecretKey::public_key).collect();
    let sign_client = |i: usize| -> Vec<(Request, Expected)> {
        let client = ids[i];
        let peer = minters[(i + 1) % minters.len()];
        (1..=per_client as u64)
            .map(|seq| coin_request(&keys[i], peer, client, seq))
            .collect()
    };
    let threads = threads.clamp(1, ids.len().max(1));
    let mut requests: Vec<Vec<(Request, Expected)>> = vec![Vec::new(); ids.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let sign_client = &sign_client;
                scope.spawn(move || {
                    (t..ids.len())
                        .step_by(threads)
                        .map(|i| (i, sign_client(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, list) in handle.join().expect("signing thread panicked") {
                requests[i] = list;
            }
        }
    });
    CoinInputs { minters, requests }
}

fn coin_request(key: &SecretKey, peer: PublicKey, client: u64, seq: u64) -> (Request, Expected) {
    let (tx, pad) = if seq % 2 == 1 {
        let outputs = vec![Output {
            owner: key.public_key(),
            value: 1,
        }];
        (CoinTx::Mint { outputs }, MINT_PAD)
    } else {
        let spend = CoinTx::Spend {
            inputs: vec![coin_id(client, seq - 1, 0)],
            outputs: vec![Output {
                owner: peer,
                value: 1,
            }],
        };
        (spend, SPEND_PAD)
    };
    let mut payload = to_bytes(&tx);
    if payload.len() < pad {
        payload.resize(pad, 0);
    }
    let signature = key.sign(&Request::sign_payload(client, seq, &payload));
    let request = Request {
        client,
        seq,
        payload,
        signature: Some((key.public_key(), signature)),
    };
    (request, Expected::Coin(coin_id(client, seq, 0)))
}

/// An unsigned counter request and the sum it must produce.
pub fn counter_request(client: u64, seq: u64, payload: u8, sum_before: u64) -> (Request, Expected) {
    let request = Request {
        client,
        seq,
        payload: vec![payload],
        signature: None,
    };
    (request, Expected::Counter(sum_before + u64::from(payload)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartchain_coin::app::SmartCoinApp;
    use smartchain_coin::tx::RejectReason;
    use smartchain_smr::app::{Application, CounterApp};

    #[test]
    fn identical_seeds_give_identical_inputs() {
        let ids = client_ids(7, 2);
        assert_eq!(ids, client_ids(7, 2));
        assert_ne!(ids, client_ids(8, 2));
        let a = coin_inputs(7, &ids, 2, 2);
        let b = coin_inputs(7, &ids, 2, 1);
        assert_eq!(a, b, "same seed, same keys and signed bytes");
        let c = coin_inputs(8, &client_ids(8, 2), 2, 2);
        assert_ne!(a.minters, c.minters);
        let stream = |seed| {
            (0..64)
                .map(|k| counter_payload(seed, k))
                .collect::<Vec<u8>>()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        assert!(stream(7).iter().all(|&b| b != 0));
    }

    #[test]
    fn coin_inputs_execute_as_expected_and_are_padded() {
        let ids = client_ids(3, 2);
        let inputs = coin_inputs(3, &ids, 4, 2);
        let mut app = SmartCoinApp::new(inputs.minters.clone());
        for list in &inputs.requests {
            for (seq, (request, expected)) in list.iter().enumerate() {
                assert!(request.verify_signature());
                let pad = if seq % 2 == 0 { MINT_PAD } else { SPEND_PAD };
                assert_eq!(request.payload.len(), pad);
                assert!(check(expected, &app.execute(request)), "seq {}", seq + 1);
            }
        }
        assert_eq!(app.rejected(), 0);
    }

    #[test]
    fn checker_rejects_wrong_or_forged_replies() {
        let (request, expected) = counter_request(9, 1, 5, 10);
        let mut app = CounterApp::new();
        app.execute(&counter_request(9, 0, 10, 0).0);
        assert!(check(&expected, &app.execute(&request)));
        assert!(!check(&expected, &14u64.to_le_bytes()));
        assert!(!check(&expected, &15u32.to_le_bytes()), "truncated reply");
        assert!(!check(&expected, &[]));

        let id = coin_id(9, 1, 0);
        let good = to_bytes(&TxResult::Created { coins: vec![id] });
        assert!(check(&Expected::Coin(id), &good));
        let other_coin = to_bytes(&TxResult::Created {
            coins: vec![coin_id(9, 2, 0)],
        });
        assert!(!check(&Expected::Coin(id), &other_coin));
        let extra_coin = to_bytes(&TxResult::Created {
            coins: vec![id, id],
        });
        assert!(!check(&Expected::Coin(id), &extra_coin));
        let rejected = to_bytes(&TxResult::Rejected {
            reason: RejectReason::UnknownInput,
        });
        assert!(!check(&Expected::Coin(id), &rejected));
        assert!(!check(&Expected::Coin(id), &[0xFF, 1, 2]), "garbage");
        assert!(!check(&Expected::Coin(id), &15u64.to_le_bytes()));
    }
}
