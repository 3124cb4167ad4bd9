//! Property tests for the batched syscall layer: the `sendmmsg`/`recvmmsg`
//! path and the per-datagram fallback path must deliver identical datagram
//! sequences for the same input, across batch sizes 1..=64 — and the
//! settling engine must handle short returns, hard errors, and
//! `WouldBlock` mid-batch without losing or reordering a datagram. Runs
//! of one destination and one length leave as segmented (GSO) sends; the
//! scripted cases below pin how those are cut and settled.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use zdns_core::{BatchIo, BatchSendStatus, IoBackend, SendSlot};
use zdns_netsim::{MmsgScratch, Segmentation, SendCall};

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

/// [`send_all`] through `send_slots`: every payload staged in one shared
/// encode arena, as the reactor's flush does.
fn send_all_slots(io: &mut BatchIo, socket: &UdpSocket, to: SocketAddr, msgs: &[Vec<u8>]) {
    let mut arena = Vec::new();
    let slots: Vec<SendSlot> = msgs
        .iter()
        .map(|m| {
            let start = arena.len() as u32;
            arena.extend_from_slice(m);
            (start, m.len() as u32, to)
        })
        .collect();
    let mut statuses = Vec::new();
    let stats = io.send_slots(socket, &arena, &slots, &mut statuses, &mut |_| {});
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The reactor's send path, `send_slots`, holds to the same property:
    // sent from a shared arena by either backend, the receiver sees the
    // input sequence exactly.
    #[test]
    fn send_slots_delivers_identical_sequences_on_both_backends(
        batch in 1usize..=64,
        count in 1usize..=96,
        sizes in proptest::collection::vec(4usize..900, 1..=8),
    ) {
        let msgs = payloads(count, &sizes);
        for mut sender in [BatchIo::new(batch), BatchIo::per_datagram(batch)] {
            let (tx, rx, to) = loopback_pair();
            send_all_slots(&mut sender, &tx, to, &msgs);
            let got = recv_all(&mut BatchIo::new(batch), &rx, msgs.len());
            prop_assert_eq!(&got, &msgs, "{} at {}", sender.backend_name(), batch);
        }
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
fn mmsg_is_the_vectored_path_on_linux() {
    let io = BatchIo::with_backend(IoBackend::Mmsg, 32);
    assert_eq!(io.backend_name(), "mmsg");
    assert!(io.is_batched());
    assert_eq!(io.batch_size(), 32);
}

#[test]
fn batch_one_or_syscall_is_per_datagram_and_still_moves_datagrams() {
    for (choice, batch) in [
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

// ---------------------------------------------------------------------------
// Segmented (GSO) sends: scripted kernel answers
// ---------------------------------------------------------------------------

/// One raw call the send path made: a segmented send of a run, or a
/// `sendmmsg`, with the datagrams it carried; or the probe that asks
/// whether the kernel segments at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Gso(usize),
    Mmsg(usize),
    Probe,
}

/// Settle `msgs` through a `BatchIo` of `batch` whose raw calls are
/// answered by `kernel`, segmentation switched by `gso`. Returns every
/// datagram's status and the calls made, in order.
fn run_kernel(
    batch: usize,
    msgs: &[(&[u8], SocketAddr)],
    gso: &Segmentation,
    kernel: &mut dyn FnMut(Call) -> std::io::Result<usize>,
) -> (Vec<BatchSendStatus>, Vec<Call>) {
    let mut calls = Vec::new();
    let mut raw = |call: SendCall<'_>| {
        let call = match call {
            SendCall::Segmented(_) => Call::Gso(call.datagrams()),
            SendCall::Vectored(_) => Call::Mmsg(call.datagrams()),
            SendCall::Probe => Call::Probe,
        };
        calls.push(call);
        kernel(call)
    };
    let mut scratch = MmsgScratch::default();
    let mut primitive =
        |chunk: &[(&[u8], SocketAddr)]| scratch.send_with(gso, &mut raw, chunk.iter().copied());
    let mut statuses = Vec::new();
    BatchIo::new(batch).send_batch_with(&mut primitive, msgs, &mut statuses, &mut |_| {});
    assert_eq!(statuses.len(), msgs.len(), "every datagram settles once");
    (statuses, calls)
}

/// A kernel that segments and takes every call whole.
fn accepts(call: Call) -> std::io::Result<usize> {
    match call {
        Call::Gso(n) | Call::Mmsg(n) => Ok(n),
        Call::Probe => Ok(0),
    }
}

/// `count` datagrams of `len` octets to `dest`.
fn same(payload: &[u8], count: usize, dest: SocketAddr) -> Vec<(&[u8], SocketAddr)> {
    vec![(payload, dest); count]
}

fn dest(port: u16) -> SocketAddr {
    SocketAddr::from((Ipv4Addr::LOCALHOST, port))
}

#[test]
fn wouldblock_on_a_run_backpressures_it_and_everything_after() {
    let (long, short) = ([7u8; 100], [8u8; 60]);
    let mut msgs = same(&long, 5, dest(53));
    msgs.extend(same(&short, 3, dest(53)));
    let gso = Segmentation::on();
    let (statuses, calls) = run_kernel(32, &msgs, &gso, &mut |_| {
        Err(std::io::ErrorKind::WouldBlock.into())
    });
    // The first short datagram rides as the run's tail.
    assert_eq!(calls, [Call::Gso(6)]);
    assert_eq!(statuses, [BatchSendStatus::Backpressure; 8]);
    assert!(gso.is_on(), "backpressure is no refusal");
}

#[test]
fn a_refused_segmented_send_latches_gso_off_and_resends_the_run() {
    let payload = [1u8; 90];
    let msgs = same(&payload, 6, dest(53));
    for errno in [libc::EIO, libc::EINVAL, libc::ENOPROTOOPT] {
        let gso = Segmentation::on();
        let mut kernel = |call: Call| match call {
            Call::Gso(_) => Err(std::io::Error::from_raw_os_error(errno)),
            other => accepts(other),
        };
        let (statuses, calls) = run_kernel(32, &msgs, &gso, &mut kernel);
        assert_eq!(calls, [Call::Gso(6), Call::Mmsg(6)], "errno {errno}");
        assert_eq!(statuses, [BatchSendStatus::Sent; 6], "errno {errno}");
        assert!(!gso.is_on(), "errno {errno} latches");
        // The next flush does not try again.
        let (statuses, calls) = run_kernel(32, &msgs, &gso, &mut kernel);
        assert_eq!(calls, [Call::Mmsg(6)], "errno {errno}");
        assert_eq!(statuses, [BatchSendStatus::Sent; 6]);
    }
}

#[test]
fn a_kernel_that_fails_the_probe_is_never_sent_a_segmented_run() {
    // A kernel before Linux 4.18: it would take the control message
    // without an error and send the run as one datagram, so only the
    // probe can tell.
    let payload = [1u8; 90];
    let msgs = same(&payload, 6, dest(53));
    let gso = Segmentation::unknown();
    let mut kernel = |call: Call| match call {
        Call::Probe => Err(std::io::Error::from_raw_os_error(libc::ENOPROTOOPT)),
        Call::Mmsg(n) => Ok(n),
        Call::Gso(_) => panic!("a segmented send reached a kernel without UDP_SEGMENT"),
    };
    let (statuses, calls) = run_kernel(32, &msgs, &gso, &mut kernel);
    assert_eq!(calls, [Call::Probe, Call::Mmsg(6)]);
    assert_eq!(statuses, [BatchSendStatus::Sent; 6]);
    assert!(!gso.is_on());
    // It is asked once.
    let (statuses, calls) = run_kernel(32, &msgs, &gso, &mut kernel);
    assert_eq!(calls, [Call::Mmsg(6)]);
    assert_eq!(statuses, [BatchSendStatus::Sent; 6]);
}

#[test]
fn the_probe_waits_for_the_first_run_and_is_asked_once() {
    let payload = [1u8; 90];
    let gso = Segmentation::unknown();
    // No run, no probe: four datagrams to four destinations.
    let spread: Vec<_> = (0..4).map(|i| (&payload[..], dest(53 + i))).collect();
    let (_, calls) = run_kernel(32, &spread, &gso, &mut accepts);
    assert_eq!(calls, [Call::Mmsg(4)]);
    assert!(!gso.is_on(), "not asked yet");
    let run = same(&payload, 5, dest(53));
    let (statuses, calls) = run_kernel(32, &run, &gso, &mut accepts);
    assert_eq!(calls, [Call::Probe, Call::Gso(5)]);
    assert_eq!(statuses, [BatchSendStatus::Sent; 5]);
    assert!(gso.is_on());
    let (_, calls) = run_kernel(32, &run, &gso, &mut accepts);
    assert_eq!(calls, [Call::Gso(5)]);
}

#[test]
fn enobufs_on_a_run_fails_one_datagram_and_retries_the_rest() {
    const ENOBUFS: i32 = 105;
    let payload = [2u8; 80];
    let msgs = same(&payload, 6, dest(53));
    let gso = Segmentation::on();
    let mut first = true;
    let (statuses, calls) = run_kernel(32, &msgs, &gso, &mut |call| {
        if std::mem::take(&mut first) {
            return Err(std::io::Error::from_raw_os_error(ENOBUFS));
        }
        accepts(call)
    });
    assert_eq!(calls, [Call::Gso(6), Call::Gso(5)]);
    let mut want = vec![BatchSendStatus::Sent; 6];
    want[0] = BatchSendStatus::Failed;
    assert_eq!(statuses, want);
    assert!(gso.is_on(), "ENOBUFS does not latch");
}

#[test]
fn runs_are_cut_at_64_segments_and_65_000_octets() {
    let gso = Segmentation::on();
    let small = [3u8; 40];
    let (statuses, calls) = run_kernel(128, &same(&small, 70, dest(53)), &gso, &mut accepts);
    assert_eq!(calls, [Call::Gso(64), Call::Gso(6)]);
    assert_eq!(statuses, [BatchSendStatus::Sent; 70]);
    // 46 × 1 400 = 64 400 octets fit one send; a 47th would not.
    let wide = [4u8; 1_400];
    let (_, calls) = run_kernel(128, &same(&wide, 50, dest(53)), &gso, &mut accepts);
    assert_eq!(calls, [Call::Gso(46), Call::Gso(4)]);
}

#[test]
fn a_run_ends_at_a_new_destination_or_length_and_never_takes_a_jumbo() {
    let gso = Segmentation::on();
    let (a, b, jumbo, edge) = ([5u8; 100], [6u8; 101], [9u8; 1_500], [9u8; 1_472]);
    let mut msgs = same(&a, 3, dest(53));
    msgs.extend(same(&a, 2, dest(54)));
    msgs.extend(same(&b, 1, dest(54)));
    msgs.extend(same(&jumbo, 3, dest(54)));
    msgs.extend(same(&edge, 2, dest(54)));
    let (statuses, calls) = run_kernel(64, &msgs, &gso, &mut accepts);
    // A longer datagram ends the second run without joining it; as a
    // lone head it leaves by `sendmmsg` with all that follows it in the
    // call: the jumbo datagrams and the run behind them too.
    assert_eq!(calls, [Call::Gso(3), Call::Gso(2), Call::Mmsg(6)]);
    assert!(statuses.iter().all(|s| *s == BatchSendStatus::Sent));
    let (_, calls) = run_kernel(64, &same(&edge, 2, dest(54)), &gso, &mut accepts);
    assert_eq!(calls, [Call::Gso(2)], "1 472 octets still join");
    let (_, calls) = run_kernel(64, &same(&jumbo, 3, dest(54)), &gso, &mut accepts);
    assert_eq!(calls, [Call::Mmsg(3)]);
}

#[test]
fn a_shorter_datagram_to_the_same_destination_rides_as_the_tail() {
    let gso = Segmentation::on();
    let (a, short, shorter) = ([5u8; 100], [6u8; 60], [7u8; 40]);
    let mut msgs = same(&a, 4, dest(53));
    msgs.extend(same(&short, 1, dest(53)));
    msgs.extend(same(&shorter, 1, dest(53)));
    let (statuses, calls) = run_kernel(64, &msgs, &gso, &mut accepts);
    // One tail only: the run ends with it, and the datagram behind it is
    // a lone head.
    assert_eq!(calls, [Call::Gso(5), Call::Mmsg(1)]);
    assert_eq!(statuses, [BatchSendStatus::Sent; 6]);
    // A tail needs a run to ride: a lone head with a shorter datagram
    // behind it is no run.
    let pair = [(&a[..], dest(53)), (&short[..], dest(53))];
    let (_, calls) = run_kernel(64, &pair, &gso, &mut accepts);
    assert_eq!(calls, [Call::Mmsg(2)]);
    // An empty datagram never rides: the kernel would lose it in the cut.
    let mut msgs = same(&a, 2, dest(53));
    msgs.push((&[][..], dest(53)));
    let (_, calls) = run_kernel(64, &msgs, &gso, &mut accepts);
    assert_eq!(calls, [Call::Gso(2), Call::Mmsg(1)]);
}

#[test]
fn a_longer_datagram_another_destination_or_a_jumbo_never_joins_as_a_tail() {
    let gso = Segmentation::on();
    let (a, longer, short, jumbo) = ([5u8; 100], [6u8; 101], [7u8; 60], [9u8; 1_500]);
    for (tail, to) in [(&longer[..], dest(53)), (&short[..], dest(54))] {
        let mut msgs = same(&a, 3, dest(53));
        msgs.push((tail, to));
        let (statuses, calls) = run_kernel(64, &msgs, &gso, &mut accepts);
        assert_eq!(
            calls,
            [Call::Gso(3), Call::Mmsg(1)],
            "{} to {to}",
            tail.len()
        );
        assert_eq!(statuses, [BatchSendStatus::Sent; 4]);
    }
    // A jumbo run leaves by `sendmmsg`, and no shorter datagram rides it.
    let mut msgs = same(&jumbo, 2, dest(53));
    msgs.extend(same(&a, 1, dest(53)));
    let (_, calls) = run_kernel(64, &msgs, &gso, &mut accepts);
    assert_eq!(calls, [Call::Mmsg(3)]);
}

#[test]
fn a_tail_counts_toward_the_segment_and_octet_limits() {
    let gso = Segmentation::on();
    let (small, smaller) = ([3u8; 40], [3u8; 30]);
    for (run, calls) in [
        (63, vec![Call::Gso(64)]),
        (64, vec![Call::Gso(64), Call::Mmsg(1)]),
    ] {
        let mut msgs = same(&small, run, dest(53));
        msgs.push((&smaller[..], dest(53)));
        let (statuses, got) = run_kernel(128, &msgs, &gso, &mut accepts);
        assert_eq!(got, calls, "{run} + a tail");
        assert_eq!(statuses, vec![BatchSendStatus::Sent; run + 1]);
    }
    // 46 × 1 400 = 64 400 octets: a 600-octet tail reaches 65 000
    // exactly, a 601-octet one would pass it.
    let wide = [4u8; 1_400];
    for (tail, calls) in [
        (600, vec![Call::Gso(47)]),
        (601, vec![Call::Gso(46), Call::Mmsg(1)]),
    ] {
        let tail = vec![5u8; tail];
        let mut msgs = same(&wide, 46, dest(53));
        msgs.push((&tail[..], dest(53)));
        let (_, got) = run_kernel(128, &msgs, &gso, &mut accepts);
        assert_eq!(got, calls, "a {}-octet tail", tail.len());
    }
}

#[test]
fn segmented_and_per_datagram_sends_deliver_the_same_bytes_to_three_receivers() {
    const COUNT: usize = 2_000;
    const FLUSH: usize = 250;
    let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    tx.set_nonblocking(true).unwrap();
    let receivers: Vec<(UdpSocket, SocketAddr)> = (0..3)
        .map(|_| {
            let rx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
            rx.set_nonblocking(true).unwrap();
            zdns_netsim::set_recv_buffer(&rx, 4 << 20);
            let at = rx.local_addr().unwrap();
            (rx, at)
        })
        .collect();
    // Runs of every length from 1 to 9, the lengths and destinations
    // changing at different strides.
    let sizes = [48usize, 61, 300, 900, 1_500];
    // Every flush opens with a run of three that ends in a shorter tail,
    // so tails ride segmented sends too.
    let plan: Vec<(usize, usize)> = (0..COUNT)
        .map(|i| match i % FLUSH {
            0..=2 => (0, 300),
            3 => (0, 61),
            _ => ((i / 7) % 3, sizes[(i * i / 11 + i / 5) % sizes.len()]),
        })
        .collect();
    let mut arena = Vec::new();
    let slots: Vec<SendSlot> = plan
        .iter()
        .enumerate()
        .map(|(i, &(to, len))| {
            let start = arena.len() as u32;
            arena.extend((0..len).map(|k| (i + k) as u8));
            arena[start as usize..][..4].copy_from_slice(&(i as u32).to_be_bytes());
            (start, len as u32, receivers[to].1)
        })
        .collect();
    let mut delivered = Vec::new();
    for mut sender in [BatchIo::new(128), BatchIo::per_datagram(128)] {
        let mut got = vec![Vec::new(); receivers.len()];
        let mut syscalls = 0;
        for flush in slots.chunks(FLUSH) {
            let mut statuses = Vec::new();
            syscalls += sender
                .send_slots(&tx, &arena, flush, &mut statuses, &mut |_| {})
                .syscalls;
            assert!(statuses.iter().all(|s| *s == BatchSendStatus::Sent));
            for (to, (rx, _)) in receivers.iter().enumerate() {
                let expected = flush.iter().filter(|s| s.2 == receivers[to].1).count();
                let mut io = BatchIo::new(64);
                got[to].extend(recv_all(&mut io, rx, expected));
            }
        }
        if sender.is_batched() && cfg!(target_os = "linux") {
            // Segmented sends happened (a `sendmmsg` alone would take
            // two calls per flush), and the kernel took them.
            assert!(syscalls > 2 * (COUNT / FLUSH) as u64, "{syscalls}");
            assert!(zdns_netsim::mmsg::segmentation_on());
        }
        delivered.push(got);
    }
    assert_eq!(delivered[0], delivered[1]);
    for (to, got) in delivered[0].iter().enumerate() {
        let want: Vec<Vec<u8>> = slots
            .iter()
            .filter(|s| s.2 == receivers[to].1)
            .map(|&(start, len, _)| arena[start as usize..][..len as usize].to_vec())
            .collect();
        assert_eq!(got, &want, "receiver {to}");
    }
}
