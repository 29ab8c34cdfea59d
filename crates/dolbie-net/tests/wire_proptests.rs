//! Wire-protocol robustness: round-trip property tests over every frame
//! type, strict rejection of malformed bytes, and a worker machine fed
//! arbitrary frame sequences by an adversarial shard-master.

use dolbie_net::env::{EnvKind, WireEnvSpec};
use dolbie_net::wire::{CursorPhase, Frame, WireError, MAX_FRAME_BYTES, VERSION};
use dolbie_net::worker::{Step, WorkerMachine};
use dolbie_net::NetError;
use proptest::prelude::*;

/// Builds one frame of each kind from fuzzed scalars. `f64` fields come
/// from raw bit patterns so the whole value space (subnormals, infinities,
/// NaNs) crosses the codec.
fn frame_zoo(seq: u64, a: u64, b: u64, flag: bool, members: &[bool]) -> Vec<Frame> {
    let (x, y) = (f64::from_bits(a), f64::from_bits(b));
    vec![
        Frame::Hello { version: VERSION },
        Frame::Welcome {
            worker_id: (seq % 1024) as u32,
            num_workers: (a % 4096) as u32,
            rounds: b,
            env: WireEnvSpec {
                kind: if flag { EnvKind::ChaosMix } else { EnvKind::StaticRamp },
                seed: a ^ b,
            },
            initial_share: x,
            drop_probability: y,
            duplicate_probability: x,
            fault_seed: seq,
            frame_timeout_us: a,
            retry_ack_timeout: x,
            retry_backoff: y,
            retry_max_attempts: (b % 64) as u32,
        },
        Frame::RoundStart { epoch: (a % 97) as u32, round: b },
        Frame::LocalCost { epoch: (b % 97) as u32, round: a, cost: y },
        Frame::Coordination { round: seq, global_cost: x, alpha: y, is_straggler: flag },
        Frame::Decision { epoch: (a % 7) as u32, round: seq, share: x, gain: y },
        Frame::Assignment { round: a, share: y },
        Frame::Adjust { round: b, scale: x },
        Frame::Epoch { epoch: (seq % 31) as u32, round: a, share: y, members: members.to_vec() },
        Frame::Shutdown,
        Frame::ShardHello { shard: (seq % 64) as u32, num_shards: (a % 64) as u32 },
        Frame::ShardAggregate { round: seq, max_cost: x, straggler: a % 4096, share: y },
        Frame::ShardCoord { round: seq, global_cost: y, alpha: x, straggler: b % 4096 },
        Frame::ShardCursor {
            round: seq,
            phase: if flag { CursorPhase::Gains } else { CursorPhase::Shares },
            partial_sum: x,
            partial_compensation: y,
            partial_len: (a % 65536) as u32,
            stack: vec![(a % 1024, y), (b % 1024, x)],
        },
        Frame::ShardRescale { round: seq, scale: x },
        Frame::ShardCommit { round: seq, straggler: a % 4096, straggler_share: y, refresh: flag },
        Frame::ShardDead { round: seq, workers: vec![a % 4096, b % 4096, seq % 4096] },
        Frame::ShardEpoch { epoch: (a % 97) as u32, round: seq, members: members.to_vec() },
        Frame::ShardSlice { epoch: (b % 97) as u32, start: (a % 4096) as u32, shares: vec![x, y] },
    ]
}

/// One frame from an adversarial shard-master: any `frame_zoo` kind if
/// `stray`, else one of the five a worker is sent before `Shutdown`, a
/// `RoundStart` or a `Coordination` twice as often as the rest. An
/// epoch-carrying frame gets epoch `epoch − 4`, floored at 0 — epoch 0 five
/// times in eight. A non-stray in-round frame gets a round in `0..3`, so
/// its round and the worker's open round often agree, and often not.
fn adversary_frame(stray: bool, pick: usize, epoch: u32, a: u64, b: u64, flag: bool) -> Frame {
    let mut zoo = frame_zoo(a ^ b, a, b, flag, &[flag, !flag]);
    let pick = if stray {
        pick % zoo.len()
    } else {
        zoo.retain(|f| {
            matches!(
                f,
                Frame::RoundStart { .. }
                    | Frame::Coordination { .. }
                    | Frame::Assignment { .. }
                    | Frame::Adjust { .. }
                    | Frame::Epoch { .. }
            )
        });
        // Indices into those five, in `frame_zoo` order.
        [0, 0, 1, 1, 2, 3, 4][pick % 7]
    };
    let mut frame = zoo.swap_remove(pick);
    if let Frame::RoundStart { epoch: e, .. } | Frame::Epoch { epoch: e, .. } = &mut frame {
        *e = epoch.saturating_sub(4);
    }
    if let Frame::RoundStart { round, .. }
    | Frame::Coordination { round, .. }
    | Frame::Assignment { round, .. }
    | Frame::Adjust { round, .. } = &mut frame
    {
        if !stray {
            *round = a % 3;
        }
    }
    frame
}

/// Raw `f64` bit patterns, seven in eight of them redrawn as a value in
/// `[0, 1]`.
fn any_bits() -> impl Strategy<Value = u64> {
    (0u64..u64::MAX, 0u8..8).prop_map(|(bits, coin)| {
        if coin == 0 {
            bits
        } else {
            (bits as f64 / u64::MAX as f64).to_bits()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every frame kind round-trips: decode(encode(f)) reproduces the
    /// exact bytes (bit-stable even through NaN payloads) and consumes
    /// the whole buffer.
    #[test]
    fn all_frame_types_round_trip(
        seq in 0u64..u64::MAX,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        flag in proptest::bool::ANY,
        members in proptest::collection::vec(proptest::bool::ANY, 0..9),
    ) {
        for frame in frame_zoo(seq, a, b, flag, &members) {
            let bytes = frame.encode();
            let (decoded, used) = Frame::decode(&bytes).expect("well-formed frame");
            prop_assert_eq!(used, bytes.len());
            // Bytes, not PartialEq: NaN-carrying frames compare unequal
            // under IEEE semantics yet must round-trip bit-exactly.
            prop_assert_eq!(decoded.encode(), bytes);
        }
    }

    /// Every strict prefix of every frame is rejected as truncated —
    /// never mis-parsed.
    #[test]
    fn every_truncation_is_rejected(
        seq in 0u64..u64::MAX,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        flag in proptest::bool::ANY,
        members in proptest::collection::vec(proptest::bool::ANY, 0..5),
    ) {
        for frame in frame_zoo(seq, a, b, flag, &members) {
            let bytes = frame.encode();
            for cut in 0..bytes.len() {
                prop_assert_eq!(
                    Frame::decode(&bytes[..cut]),
                    Err(WireError::Truncated),
                    "prefix of {} bytes must be truncated", cut
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// An adversarial shard-master against a validly welcomed
    /// [`WorkerMachine`]: arbitrary sequences of every frame kind, in any
    /// order, under stale, current and future epochs, at arbitrary rounds,
    /// with `f64` fields from raw bit patterns. Every step yields a frame,
    /// nothing, the end of the run or a protocol error — never a panic —
    /// and the share stays in `[0, 1]`. Every `Decision` answers the round
    /// the last accepted `RoundStart` opened. Once the machine errs or
    /// finishes, it processes no later frame. Its state, scalars and one
    /// cost function, does not grow with the sequence.
    ///
    /// So that sequences live long enough to reach the eq. (5) step, 31
    /// frames in 32 are of the kinds a worker is sent before `Shutdown`
    /// ([`adversary_frame`]), and most `f64` fields are redrawn in
    /// `[0, 1]`.
    #[test]
    fn a_worker_machine_survives_any_frame_sequence(
        (share, env_seed, chaos) in (0.0f64..1.0, 0u64..u64::MAX, proptest::bool::ANY),
        script in proptest::collection::vec(
            ((0u8..32, 0usize..1 << 16), 0u32..8, any_bits(), any_bits(), proptest::bool::ANY),
            1..64,
        ),
    ) {
        let kind = if chaos { EnvKind::ChaosMix } else { EnvKind::StaticRamp };
        let welcome = Frame::Welcome {
            worker_id: 1,
            num_workers: 3,
            rounds: 10,
            env: WireEnvSpec { kind, seed: env_seed },
            initial_share: share,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            fault_seed: 0,
            frame_timeout_us: 50_000,
            retry_ack_timeout: 0.05,
            retry_backoff: 2.0,
            retry_max_attempts: 16,
        };
        let (mut machine, _) = WorkerMachine::welcome(welcome).expect("a valid Welcome");
        let mut stopped: Option<String> = None;
        let mut open: Option<u64> = None;
        for ((stray, pick), epoch, a, b, flag) in script {
            let frame = adversary_frame(stray == 0, pick, epoch, a, b, flag);
            let shown = format!("{frame:?}");
            let opens = match frame {
                Frame::RoundStart { round, .. } => Some(round),
                _ => None,
            };
            let step = machine.step(frame);
            let state = format!("{machine:?}");
            if let Some(before) = &stopped {
                let refused = matches!(step, Err(NetError::Protocol(_)));
                prop_assert!(refused, "{shown} after stopping: {step:?}");
                prop_assert_eq!(&state, before, "a stopped machine changed on {}", shown);
                continue;
            }
            match &step {
                Ok(Step::Reply(Frame::LocalCost { .. })) => open = opens,
                Ok(Step::Reply(Frame::Decision { round, .. })) => {
                    prop_assert_eq!(Some(*round), open, "{} answered off the open round", shown);
                }
                Ok(Step::Quiet) => {}
                Ok(Step::Finished) | Err(NetError::Protocol(_)) => stopped = Some(state.clone()),
                other => prop_assert!(false, "{shown} gave {other:?}"),
            }
            let share = machine.share();
            prop_assert!((0.0..=1.0).contains(&share), "{shown} left share {share}");
            prop_assert!(state.len() < 1024, "the machine grew to {} bytes", state.len());
        }
    }
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = Frame::Hello { version: VERSION }.encode();
    // Magic sits right after the 4-byte prefix and 1-byte kind.
    bytes[5..9].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    assert_eq!(Frame::decode(&bytes), Err(WireError::BadMagic { got: 0xDEAD_BEEF }));
}

/// A `Hello` from another protocol version is refused, the last one (2,
/// which spoke the `Data`/`Ack` envelope) included.
#[test]
fn wrong_version_is_rejected() {
    for version in [999u16, 2] {
        let mut bytes = Frame::Hello { version: VERSION }.encode();
        bytes[9..11].copy_from_slice(&version.to_le_bytes());
        assert_eq!(Frame::decode(&bytes), Err(WireError::BadVersion { got: version }));
    }
}

#[test]
fn welcome_checks_magic_and_version_too() {
    let welcome = Frame::Welcome {
        worker_id: 0,
        num_workers: 4,
        rounds: 10,
        env: WireEnvSpec { kind: EnvKind::ChaosMix, seed: 1 },
        initial_share: 0.25,
        drop_probability: 0.0,
        duplicate_probability: 0.0,
        fault_seed: 0,
        frame_timeout_us: 2_000_000,
        retry_ack_timeout: 0.05,
        retry_backoff: 2.0,
        retry_max_attempts: 16,
    };
    let mut bad_magic = welcome.encode();
    bad_magic[5..9].copy_from_slice(&1u32.to_le_bytes());
    assert_eq!(Frame::decode(&bad_magic), Err(WireError::BadMagic { got: 1 }));
    let mut bad_version = welcome.encode();
    bad_version[9..11].copy_from_slice(&0u16.to_le_bytes());
    assert_eq!(Frame::decode(&bad_version), Err(WireError::BadVersion { got: 0 }));
}

#[test]
fn oversized_length_prefix_is_rejected_before_any_body() {
    let len = (MAX_FRAME_BYTES + 1) as u32;
    let bytes = len.to_le_bytes();
    assert_eq!(Frame::decode(&bytes), Err(WireError::Oversized { len: MAX_FRAME_BYTES + 1 }));
    // Even u32::MAX — no allocation attempt, just a clean error.
    assert_eq!(
        Frame::decode(&u32::MAX.to_le_bytes()),
        Err(WireError::Oversized { len: u32::MAX as usize })
    );
}

/// A kind byte no frame has is refused, the retired `Data` (10) and
/// `Ack` (11) of wire version 2 included.
#[test]
fn unknown_kind_is_rejected() {
    for kind in [0x7F, 10, 11] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(kind);
        assert_eq!(Frame::decode(&bytes), Err(WireError::UnknownKind(kind)));
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let shutdown = Frame::Shutdown.encode();
    let mut padded = Vec::new();
    padded.extend_from_slice(&2u32.to_le_bytes()); // claims kind + 1 junk byte
    padded.push(shutdown[4]);
    padded.push(0xAB);
    assert_eq!(Frame::decode(&padded), Err(WireError::TrailingBytes));
}

#[test]
fn out_of_range_booleans_are_rejected() {
    let mut bytes =
        Frame::Coordination { round: 1, global_cost: 1.0, alpha: 0.5, is_straggler: true }.encode();
    let last = bytes.len() - 1;
    bytes[last] = 7; // is_straggler must be 0 or 1
    assert_eq!(Frame::decode(&bytes), Err(WireError::BadValue("is_straggler flag")));
}
