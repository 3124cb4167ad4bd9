//! The shared receive arena's two waiting modes, on the vectored and the
//! per-datagram path alike: a non-blocking socket never waits and a
//! short batch is not an error; a blocking socket with a read timeout
//! returns as soon as one datagram arrives, and empty once the timeout
//! passes; and a queued burst is picked up in as few calls as the arena's
//! depth allows.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use zdns_netsim::{set_recv_buffer, RecvArena};

/// Both modes at `depth`: vectored where the platform has `recvmmsg`,
/// and one `recvfrom` per datagram.
fn both_modes(depth: usize) -> [RecvArena; 2] {
    [RecvArena::new(depth), RecvArena::per_datagram(depth)]
}

fn mode(arena: &RecvArena) -> &'static str {
    if arena.is_vectored() {
        "vectored"
    } else {
        "per-datagram"
    }
}

/// A sender and a receiver on loopback, and the receiver's address.
fn loopback_pair() -> (UdpSocket, UdpSocket, SocketAddr) {
    let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let rx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    set_recv_buffer(&rx, 4 << 20);
    let to = rx.local_addr().unwrap();
    (tx, rx, to)
}

/// Send datagrams `0..n` (each its index, big-endian) and give loopback
/// time to queue them all.
fn send_burst(tx: &UdpSocket, to: SocketAddr, n: u32) {
    for i in 0..n {
        tx.send_to(&i.to_be_bytes(), to).unwrap();
    }
    std::thread::sleep(Duration::from_millis(20));
}

/// The indices of the first `count` datagrams in `arena`.
fn indices(arena: &RecvArena, count: usize) -> Vec<u32> {
    (0..count)
        .map(|i| u32::from_be_bytes(arena.datagram(i).0.try_into().unwrap()))
        .collect()
}

#[cfg(any(target_os = "linux", target_os = "android"))]
#[test]
fn new_is_vectored_on_linux_and_per_datagram_is_not() {
    let [vectored, per_datagram] = both_modes(16);
    assert!(vectored.is_vectored());
    assert!(!per_datagram.is_vectored());
    assert_eq!((vectored.depth(), per_datagram.depth()), (16, 16));
    assert_eq!(RecvArena::new(0).depth(), 1);
    assert_eq!(RecvArena::new(5_000).depth(), 1_024);
}

#[test]
fn a_non_blocking_socket_returns_a_short_batch_without_waiting() {
    for mut arena in both_modes(8) {
        let (tx, rx, to) = loopback_pair();
        rx.set_nonblocking(true).unwrap();
        // A read timeout must not matter on a non-blocking socket.
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

        let started = Instant::now();
        let empty = arena.recv_batch(&rx);
        assert_eq!(empty.count, 0, "{}", mode(&arena));
        assert!(empty.err.is_none(), "{}: {:?}", mode(&arena), empty.err);

        send_burst(&tx, to, 3);
        let short = arena.recv_batch(&rx);
        assert_eq!(short.count, 3, "{}", mode(&arena));
        assert!(short.err.is_none(), "{}: {:?}", mode(&arena), short.err);
        assert_eq!(indices(&arena, 3), [0, 1, 2]);
        assert_eq!(arena.datagram(0).1, tx.local_addr().unwrap());
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "{} waited {:?}",
            mode(&arena),
            started.elapsed()
        );
    }
}

#[test]
fn a_blocking_socket_returns_as_soon_as_one_datagram_arrives() {
    for mut arena in both_modes(8) {
        let (tx, rx, to) = loopback_pair();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            tx.send_to(&7u32.to_be_bytes(), to).unwrap();
        });
        let started = Instant::now();
        let batch = arena.recv_batch(&rx);
        let waited = started.elapsed();
        sender.join().unwrap();
        assert_eq!(batch.count, 1, "{}", mode(&arena));
        assert!(batch.err.is_none(), "{}: {:?}", mode(&arena), batch.err);
        assert_eq!(indices(&arena, 1), [7]);
        // Woken by the datagram, not by the 5 s timeout, and not held
        // for the seven slots still empty.
        assert!(
            waited >= Duration::from_millis(40) && waited < Duration::from_secs(3),
            "{} waited {waited:?}",
            mode(&arena)
        );
    }
}

#[test]
fn a_blocking_socket_returns_empty_once_its_timeout_passes() {
    for mut arena in both_modes(8) {
        let (_tx, rx, _to) = loopback_pair();
        rx.set_read_timeout(Some(Duration::from_millis(60)))
            .unwrap();
        let started = Instant::now();
        let batch = arena.recv_batch(&rx);
        let waited = started.elapsed();
        assert_eq!(batch.count, 0, "{}", mode(&arena));
        assert!(batch.err.is_none(), "{}: {:?}", mode(&arena), batch.err);
        assert!(
            waited >= Duration::from_millis(50) && waited < Duration::from_secs(3),
            "{} waited {waited:?}",
            mode(&arena)
        );
    }
}

#[test]
fn a_burst_is_picked_up_in_at_most_one_call_per_arena_depth() {
    for (depth, n) in [(1, 5), (8, 37), (32, 32), (32, 100), (64, 1), (64, 200)] {
        for mut arena in both_modes(depth) {
            let (tx, rx, to) = loopback_pair();
            rx.set_nonblocking(true).unwrap();
            send_burst(&tx, to, n);
            let mut got = Vec::new();
            let mut calls = 0;
            while got.len() < n as usize && calls < 2 * n {
                let batch = arena.recv_batch(&rx);
                assert!(batch.err.is_none(), "{}: {:?}", mode(&arena), batch.err);
                assert!(batch.count <= depth);
                got.extend(indices(&arena, batch.count));
                calls += 1;
            }
            assert_eq!(
                got,
                (0..n).collect::<Vec<_>>(),
                "{} at {depth}",
                mode(&arena)
            );
            assert!(
                calls <= n.div_ceil(depth as u32),
                "{}: {n} datagrams at depth {depth} took {calls} calls",
                mode(&arena)
            );
        }
    }
}
