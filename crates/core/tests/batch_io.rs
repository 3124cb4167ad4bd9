//! Property tests for the batched syscall layer: the `sendmmsg`/`recvmmsg`
//! path and the per-datagram fallback path must deliver identical datagram
//! sequences for the same input, across batch sizes 1..=64 — and the
//! settling engine must handle short returns, hard errors, and
//! `WouldBlock` mid-batch without losing or reordering a datagram.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use zdns_core::{BatchIo, BatchSendStatus, IoBackend};

/// Index-stamped payloads so sequence comparisons are meaningful.
fn payloads(count: usize, sizes: &[usize]) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            let size = sizes[i % sizes.len()].clamp(4, 900);
            let mut p = vec![(i % 251) as u8; size];
            p[..4].copy_from_slice(&(i as u32).to_be_bytes());
            p
        })
        .collect()
}

/// Send every payload through `io`, asserting it all made the wire.
fn send_all(io: &mut BatchIo, socket: &UdpSocket, to: SocketAddr, msgs: &[Vec<u8>]) {
    let refs: Vec<(&[u8], SocketAddr)> = msgs.iter().map(|m| (m.as_slice(), to)).collect();
    let mut statuses = Vec::new();
    let stats = io.send_batch(socket, &refs, &mut statuses, &mut |_| {});
    assert_eq!(statuses.len(), msgs.len());
    assert!(
        statuses.iter().all(|s| *s == BatchSendStatus::Sent),
        "loopback send should not block or fail: {statuses:?}"
    );
    assert_eq!(stats.sent as usize, msgs.len());
}

/// Drain `expected` datagrams from `socket` through `io`, in order.
fn recv_all(io: &mut BatchIo, socket: &UdpSocket, expected: usize) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    while got.len() < expected {
        let batch = io.recv_into_arena(socket);
        assert!(
            batch.err.is_none(),
            "unexpected recv error: {:?}",
            batch.err
        );
        for i in 0..batch.count {
            got.push(io.arena_bytes(i).to_vec());
        }
        if batch.count == 0 {
            assert!(
                Instant::now() < deadline,
                "datagrams lost: {}/{expected}",
                got.len()
            );
            std::thread::sleep(Duration::from_micros(300));
        }
    }
    got
}

fn loopback_pair() -> (UdpSocket, UdpSocket, SocketAddr) {
    let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let rx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    tx.set_nonblocking(true).unwrap();
    rx.set_nonblocking(true).unwrap();
    zdns_netsim::set_recv_buffer(&rx, 4 << 20);
    let to = rx.local_addr().unwrap();
    (tx, rx, to)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Batched send → fallback receive and fallback send → batched
    // receive both deliver exactly the sent sequence, for any batch
    // size: the two paths are interchangeable on the wire.
    #[test]
    fn batched_and_fallback_paths_deliver_identical_sequences(
        batch in 1usize..=64,
        count in 1usize..=96,
        sizes in proptest::collection::vec(4usize..900, 1..=8),
    ) {
        let msgs = payloads(count, &sizes);

        // Round 1: batched sender, fallback receiver.
        let (tx, rx, to) = loopback_pair();
        let mut sender = BatchIo::new(batch);
        let mut receiver = BatchIo::per_datagram(batch);
        send_all(&mut sender, &tx, to, &msgs);
        let via_fallback_rx = recv_all(&mut receiver, &rx, msgs.len());

        // Round 2: fallback sender, batched receiver.
        let (tx2, rx2, to2) = loopback_pair();
        let mut sender2 = BatchIo::per_datagram(batch);
        let mut receiver2 = BatchIo::new(batch);
        send_all(&mut sender2, &tx2, to2, &msgs);
        let via_batched_rx = recv_all(&mut receiver2, &rx2, msgs.len());

        // Loopback UDP preserves order, so both sequences must equal the
        // input exactly — same datagrams, same order, same bytes.
        prop_assert_eq!(&via_fallback_rx, &msgs);
        prop_assert_eq!(&via_batched_rx, &msgs);
    }
}

// ---------------------------------------------------------------------------
// Scripted-syscall settling properties (WouldBlock mid-batch etc.)
// ---------------------------------------------------------------------------

/// One scripted outcome of the vectored-send primitive.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Send the first `n` datagrams of the chunk (clamped to its length).
    Short(usize),
    /// `WouldBlock` (already past the one writability wait).
    Block,
    /// A hard socket error.
    Fail,
}

/// Run the settling engine over scripted syscall outcomes, recording the
/// payload of every datagram that "made the wire" in order.
fn run_scripted(
    batch: usize,
    msgs: &[Vec<u8>],
    script: &[Step],
) -> (Vec<BatchSendStatus>, Vec<Vec<u8>>) {
    let mut io = BatchIo::new(batch);
    let dest: SocketAddr = "127.0.0.1:53".parse().unwrap();
    let refs: Vec<(&[u8], SocketAddr)> = msgs.iter().map(|m| (m.as_slice(), dest)).collect();
    let mut statuses = Vec::new();
    let mut wire: Vec<Vec<u8>> = Vec::new();
    let mut cursor = 0usize;
    let mut primitive = |chunk: &[(&[u8], SocketAddr)]| {
        let step = script
            .get(cursor)
            .copied()
            .unwrap_or(Step::Short(usize::MAX));
        cursor += 1;
        match step {
            Step::Short(n) => {
                let n = n.clamp(1, chunk.len());
                wire.extend(chunk[..n].iter().map(|(b, _)| b.to_vec()));
                Ok(n)
            }
            Step::Block => Err(std::io::Error::from(std::io::ErrorKind::WouldBlock)),
            Step::Fail => Err(std::io::Error::from(std::io::ErrorKind::ConnectionRefused)),
        }
    };
    let stats = io.send_batch_with(&mut primitive, &refs, &mut statuses, &mut |_| {});
    assert_eq!(stats.sent as usize, wire.len());
    (statuses, wire)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Under any interleaving of short returns, hard errors, and
    // WouldBlock mid-batch: every datagram settles exactly once, the
    // wire carries exactly the Sent-marked datagrams in input order,
    // and everything after the first backpressure is backpressure (the
    // suffix is requeued whole, never reordered).
    #[test]
    fn scripted_syscalls_settle_every_datagram_exactly_once(
        batch in 1usize..=64,
        count in 1usize..=96,
        raw_script in proptest::collection::vec((0u8..=3, 1usize..=64), 0..=48),
    ) {
        let sizes = [16usize, 33, 64];
        let msgs = payloads(count, &sizes);
        let script: Vec<Step> = raw_script
            .iter()
            .map(|(kind, n)| match kind {
                0 => Step::Block,
                1 => Step::Fail,
                _ => Step::Short(*n),
            })
            .collect();
        let (statuses, wire) = run_scripted(batch, &msgs, &script);

        prop_assert_eq!(statuses.len(), msgs.len(), "every datagram settles exactly once");
        let sent: Vec<Vec<u8>> = msgs
            .iter()
            .zip(statuses.iter())
            .filter(|(_, s)| **s == BatchSendStatus::Sent)
            .map(|(m, _)| m.clone())
            .collect();
        prop_assert_eq!(&sent, &wire, "wire must carry exactly the Sent datagrams, in order");
        if let Some(first) = statuses.iter().position(|s| *s == BatchSendStatus::Backpressure) {
            prop_assert!(
                statuses[first..].iter().all(|s| *s == BatchSendStatus::Backpressure),
                "after the first backpressure the whole suffix is backpressure: {statuses:?}"
            );
        }
    }

    // With no errors scripted, every batch size sends the identical full
    // sequence — chunking never drops, duplicates, or reorders.
    #[test]
    fn benign_scripts_send_everything_for_any_batch_size(
        batch in 1usize..=64,
        count in 1usize..=96,
        shorts in proptest::collection::vec(1usize..=64, 0..=48),
    ) {
        let sizes = [24usize, 48];
        let msgs = payloads(count, &sizes);
        let script: Vec<Step> = shorts.iter().map(|n| Step::Short(*n)).collect();
        let (statuses, wire) = run_scripted(batch, &msgs, &script);
        prop_assert!(statuses.iter().all(|s| *s == BatchSendStatus::Sent));
        prop_assert_eq!(&wire, &msgs);
    }
}

#[test]
fn wouldblock_mid_batch_marks_exact_suffix() {
    let msgs = payloads(10, &[32]);
    // First syscall sends 3, second hits WouldBlock: 3 Sent + 7 Backpressure.
    let (statuses, wire) = run_scripted(8, &msgs, &[Step::Short(3), Step::Block]);
    assert_eq!(wire.len(), 3);
    assert_eq!(&statuses[..3], &[BatchSendStatus::Sent; 3]);
    assert_eq!(&statuses[3..], &[BatchSendStatus::Backpressure; 7]);
}

#[test]
fn hard_error_fails_one_datagram_and_continues() {
    let msgs = payloads(6, &[32]);
    // 2 sent, then a hard error on the 3rd, then the rest sends.
    let (statuses, wire) = run_scripted(8, &msgs, &[Step::Short(2), Step::Fail]);
    assert_eq!(wire.len(), 5);
    assert_eq!(
        statuses,
        vec![
            BatchSendStatus::Sent,
            BatchSendStatus::Sent,
            BatchSendStatus::Failed,
            BatchSendStatus::Sent,
            BatchSendStatus::Sent,
            BatchSendStatus::Sent,
        ]
    );
}

// ---------------------------------------------------------------------------
// Backend selection: made from the platform and the batch size
// ---------------------------------------------------------------------------

/// One loopback round through `io` on both ends.
fn moves_datagrams(mut sender: BatchIo, mut receiver: BatchIo) {
    let msgs = payloads(40, &[64, 300]);
    let (tx, rx, to) = loopback_pair();
    send_all(&mut sender, &tx, to, &msgs);
    assert_eq!(recv_all(&mut receiver, &rx, msgs.len()), msgs);
}

#[cfg(any(target_os = "linux", target_os = "android"))]
#[test]
fn auto_and_mmsg_are_the_vectored_path_on_linux() {
    for choice in [IoBackend::Auto, IoBackend::Mmsg] {
        let io = BatchIo::with_backend(choice, 32);
        assert_eq!(io.backend_name(), "mmsg", "{choice:?}");
        assert!(io.is_batched());
        assert_eq!(io.batch_size(), 32);
    }
}

#[test]
fn batch_one_or_syscall_is_per_datagram_and_still_moves_datagrams() {
    for (choice, batch) in [
        (IoBackend::Auto, 1),
        (IoBackend::Mmsg, 1),
        (IoBackend::Syscall, 1),
        (IoBackend::Syscall, 32),
    ] {
        let io = BatchIo::with_backend(choice, batch);
        assert_eq!(io.backend_name(), "syscall", "{choice:?} at {batch}");
        assert!(!io.is_batched());
        moves_datagrams(io, BatchIo::with_backend(choice, batch));
    }
}
